#ifndef CASCACHE_SCHEMES_COORDINATED_SCHEME_H_
#define CASCACHE_SCHEMES_COORDINATED_SCHEME_H_

#include <vector>

#include "cache/ncl_cache.h"
#include "core/path_info.h"
#include "core/placement.h"
#include "schemes/scheme.h"

namespace cascache::schemes {

/// The paper's contribution (§2.3): coordinated placement + replacement.
///
/// Request ascent (OnAscend): every intermediate cache A_i appends its
/// (f_i, m_i, l_i) for the requested object to the request message — f_i
/// from its sliding-window estimator, m_i the accumulated link cost from
/// the serving node, l_i the cost loss of the greedy NCL eviction that
/// would make room. Nodes without a descriptor for the object tag
/// themselves out of the candidate set (§2.4) and plan no eviction: l_i
/// is computed for descriptor hops only. Their walk stops once the loss
/// exceeds f_eff·M_i (Theorem 2, with f_eff the hop's f after the DP's
/// monotone clamp and M_i its link-cost distance to the origin, an upper
/// bound on m_i), so a piggybacked l_i may be a truncated lower bound on
/// the full loss; such a hop can never be selected, and the DP's result
/// is bit-identical to the one over full losses (DESIGN.md §6).
///
/// Decision (OnServe): the serving node solves the n-optimization problem
/// with the O(n²) dynamic program and sends the selected cache set
/// downstream with the object.
///
/// Response descent (OnDescend): the penalty counter starts at 0 at the
/// serving node and accumulates link costs; each node refreshes the
/// object's miss penalty from it. Nodes selected by the DP insert the
/// object (greedy NCL eviction; evicted descriptors demoted to the
/// d-cache) and reset the counter; unselected nodes admit the object's
/// descriptor into their d-cache.
///
/// Statistics counters expose how often the DP ran, how many candidates
/// it saw and what it selected — used by the ablation benches.
class CoordinatedScheme : public CachingScheme {
 public:
  struct Stats {
    /// Upper bound on candidate-count buckets in `k_histogram`.
    static constexpr int kMaxTrackedCandidates = 32;

    uint64_t requests = 0;
    uint64_t dp_runs = 0;         ///< Requests with >= 1 candidate.
    uint64_t candidates = 0;      ///< Total DP candidates across requests.
    uint64_t placements = 0;      ///< Total nodes selected.
    uint64_t excluded_no_descriptor = 0;
    double total_gain = 0.0;      ///< Sum of optimal Δcost values.
    /// k_histogram[k]: requests whose DP saw exactly k candidates
    /// (clamped at kMaxTrackedCandidates-1). The paper's O(k^2) cost
    /// argument (§2.4) rests on k staying small.
    uint64_t k_histogram[kMaxTrackedCandidates] = {};
    /// Communication overhead of the protocol (paper §2.3-2.4): bytes of
    /// (f_i, m_i, l_i) triples piggybacked on request messages plus the
    /// penalty counter + decision bitmap on responses, assuming 8-byte
    /// fields. The same bytes flow into the per-run MetricsCollector
    /// through the message payload counters; this total additionally
    /// covers the warm-up phase.
    uint64_t piggyback_bytes = 0;

    double MeanCandidates() const {
      return dp_runs == 0 ? 0.0
                          : static_cast<double>(candidates) /
                                static_cast<double>(dp_runs);
    }
    double MeanPiggybackBytesPerRequest() const {
      return requests == 0 ? 0.0
                           : static_cast<double>(piggyback_bytes) /
                                 static_cast<double>(requests);
    }
  };

  std::string name() const override { return "Coordinated"; }
  CacheMode cache_mode() const override { return CacheMode::kCost; }
  bool observes_ascent() const override { return true; }

  void OnAscend(sim::MessageContext& ctx, int hop) override;
  void OnServe(sim::MessageContext& ctx) override;
  void OnDescend(sim::MessageContext& ctx, int hop) override;
  void OnSiblingServe(sim::MessageContext& ctx) override;
  void OnAbort() override;

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats(); }

 private:
  /// What one ascent hop piggybacked: the node's local view of the
  /// requested object. m_i is not carried — it is an accumulation of
  /// link costs the serving node reconstructs exactly when it walks the
  /// collected hops (the physical message carries the running sum
  /// instead; both encodings are 8 bytes).
  struct HopRecord {
    bool has_descriptor = false;
    double frequency = 0.0;
    bool feasible = false;
    double cost_loss = 0.0;
  };

  /// l_i of a descriptor hop that can hold the object: the greedy NCL
  /// eviction loss, its walk stopped once Theorem 2 rules the hop out
  /// (the loss then exceeds f_eff·M_i and is a lower bound).
  double BoundedLoss(const sim::MessageContext& ctx, int hop,
                     double frequency);

  Stats stats_;
  /// Piggybacked hop records of the in-flight request, indexed by path
  /// hop (ascending). Filled by OnAscend, consumed and cleared by
  /// OnServe.
  std::vector<HopRecord> ascent_;
  /// Placement decision of the in-flight request (path indices selected
  /// by the DP), carried by the response message. Written by OnServe,
  /// scanned linearly by OnDescend — the DP selects at most a handful of
  /// hops, so a flat vector beats any hashed set.
  std::vector<int> selected_path_indices_;
  /// Reused across PlanEvictionInto calls (one per candidate per request)
  /// so the ascent never allocates a fresh victims vector.
  cache::NclCache::EvictionPlan scratch_plan_;
  /// Reused victim buffer for the descent's insertions.
  std::vector<ObjectId> evicted_scratch_;
  /// Per-request decision scratch, reused across requests so OnServe's
  /// path reconstruction + DP run allocate nothing in the steady state.
  core::PathInfo info_;
  std::vector<int> path_index_of_;  ///< Parallel to info_.nodes.
  std::vector<int> origin_;
  core::PlacementInput input_;
  core::PlacementScratch dp_scratch_;
  core::PlacementResult dp_result_;
};

}  // namespace cascache::schemes

#endif  // CASCACHE_SCHEMES_COORDINATED_SCHEME_H_
