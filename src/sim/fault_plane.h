#ifndef CASCACHE_SIM_FAULT_PLANE_H_
#define CASCACHE_SIM_FAULT_PLANE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/network.h"
#include "sim/node.h"
#include "topology/shortest_path.h"
#include "util/random.h"
#include "util/status.h"

namespace cascache::util {
class FlagParser;
}  // namespace cascache::util

namespace cascache::sim {

/// Declarative fault schedule of one simulation run. Everything is driven
/// by `seed` through per-entity deterministic streams, so a chaotic run
/// replays bit-identically: the same schedule against the same workload
/// produces the same crashes, outages, message losses and retries,
/// regardless of query order. The default config injects nothing and
/// reports inactive, keeping the hot path at a single null check.
///
/// Fault classes (see DESIGN.md §10 for the full model):
///  - Node crashes: the cache process at a node dies for an exponentially
///    distributed interval (mean `node_downtime`, onset rate
///    1/`node_crash_mtbf`). While down, the node cannot serve, store, or
///    piggyback state; on recovery it restarts *cold* — object store,
///    d-cache and frequency windows are all lost. With
///    `crash_cuts_routing`, a crashed node also stops forwarding, so
///    paths detour around it.
///  - Link outages: an edge disappears for an exponential interval; the
///    request is re-routed around it over the surviving graph (shortest
///    delay, deterministic tie-break) or times out when the server is
///    unreachable.
///  - Message faults: the piggyback entry a hop contributes on the ascent
///    (`ascent_loss_prob`) or the placement decision it should receive on
///    the descent (`decision_loss_prob`) is lost; schemes fall back to
///    their documented local behavior (paper §2.4: nodes lacking state
///    are excluded / skip placement).
///  - Timeout + retry: a request that cannot reach its server waits
///    `request_timeout`, then retries after an exponential backoff
///    (`retry_backoff` * 2^attempt), at most `max_retries` times, before
///    being recorded as failed.
struct FaultScheduleConfig {
  /// Seed of every fault stream; independent of the workload seed.
  uint64_t seed = 1;
  /// Mean seconds between crash onsets per node; 0 disables crashes.
  double node_crash_mtbf = 0.0;
  /// Mean seconds a crashed node stays down.
  double node_downtime = 30.0;
  /// Mean seconds between outage onsets per link; 0 disables outages.
  double link_mtbf = 0.0;
  /// Mean seconds a failed link stays down.
  double link_downtime = 30.0;
  /// Crashed nodes also stop forwarding (requests detour around them).
  bool crash_cuts_routing = false;
  /// Probability a hop's piggyback entry is lost on the ascent.
  double ascent_loss_prob = 0.0;
  /// Probability a hop's placement decision is lost on the descent.
  double decision_loss_prob = 0.0;
  /// Seconds a request waits before giving up on an unreachable server.
  double request_timeout = 5.0;
  /// Retries after a timeout before the request is recorded as failed.
  int max_retries = 3;
  /// Backoff before retry k (0-based) is retry_backoff * 2^k seconds.
  double retry_backoff = 1.0;
  /// Mean seconds between disk-failure onsets per node; 0 disables the
  /// degraded-node fault class. While a node's disk is down, a tiered
  /// node degrades to RAM-only service (its RAM tier keeps serving;
  /// promotions and disk placements stop) and an untiered node to
  /// proxy-only (it forwards but can neither serve nor store). Disk
  /// contents are preserved across the outage — availability is lost,
  /// not data — so recovery resumes with the pre-outage store (no cold
  /// restart; that is the node-crash fault class).
  double disk_fail_mtbf = 0.0;
  /// Mean seconds a failed disk stays down.
  double disk_fail_downtime = 60.0;
  /// Probability a sibling probe or its reply is lost on the sibling leg;
  /// the probing node treats the sibling as a miss and continues.
  double sibling_loss_prob = 0.0;

  /// Whether this schedule injects any fault at all.
  bool active() const {
    return node_crash_mtbf > 0.0 || link_mtbf > 0.0 ||
           ascent_loss_prob > 0.0 || decision_loss_prob > 0.0 ||
           disk_fail_mtbf > 0.0 || sibling_loss_prob > 0.0;
  }

  util::Status Validate() const;

  bool operator==(const FaultScheduleConfig&) const = default;
};

/// Applies one `key=value` setting to a config through the one value
/// parser (util::ParseValue); shared by the config-file loader, the
/// CASCACHE_FAULT_* environment overrides and tests. Keys: seed,
/// node_mtbf, node_downtime, link_mtbf, link_downtime, crash_cuts_routing,
/// ascent_loss, decision_loss, timeout, max_retries, backoff, disk_mtbf,
/// disk_downtime, sibling_loss.
util::Status ApplyFaultSetting(const std::string& key,
                               const std::string& value,
                               FaultScheduleConfig* config);

/// Loads a fault schedule file: one `key=value` per line, '#' comments
/// and blank lines ignored.
util::Status LoadFaultConfigFile(const std::string& path,
                                 FaultScheduleConfig* config);

/// Overrides config fields from CASCACHE_FAULT_* environment variables
/// (CASCACHE_FAULT_NODE_MTBF, ..., uppercased key names above).
util::Status ApplyFaultEnvOverrides(FaultScheduleConfig* config);

/// The fault schedule's command-line surface: --fault-config plus one
/// --fault-<key> flag per key above ('_' spelled '-'). Holds the flag
/// values until Resolve layers them over the other sources, so it must
/// outlive the parser it registers with.
class FaultFlags {
 public:
  FaultFlags() = default;
  // The registered flags point into this object.
  FaultFlags(const FaultFlags&) = delete;
  FaultFlags& operator=(const FaultFlags&) = delete;

  void Register(util::FlagParser* flags);

  /// Builds `config` from, lowest to highest precedence: its current
  /// values, the --fault-config file, CASCACHE_FAULT_* variables and the
  /// --fault-* flags given on the command line; then validates it.
  util::Status Resolve(const util::FlagParser& flags,
                       FaultScheduleConfig* config) const;

 private:
  std::string config_file_;
  FaultScheduleConfig values_;
};

/// Deterministic fault-injection layer over one simulation run. Owned by
/// the Simulator (one per cache plane, so parallel sweep cells fault
/// independently and identically to a sequential run). All methods are
/// pure functions of (config, topology, arguments) — outage streams are
/// materialized lazily but their contents never depend on query order —
/// except ApplyCrashRestarts, which cold-restarts caches and must be
/// called with non-decreasing per-node times (the replay order).
class FaultPlane {
 public:
  /// `network` must outlive the plane. `config` must Validate().
  FaultPlane(const FaultScheduleConfig& config, const Network* network);

  const FaultScheduleConfig& config() const { return config_; }

  /// Forgets all materialized outage streams and applied crash epochs, so
  /// the next replay reproduces the run exactly. Called by Run().
  void Reset();

  /// Whether faults can alter routing (link outages, or node crashes with
  /// crash_cuts_routing). When false, ResolvePath never detours.
  bool routing_faults() const { return routing_faults_; }

  /// Resolves a table route (Network::ClientRoute) at time `t`: the route
  /// itself when healthy (`*rerouted` = false, `*detour` untouched), else
  /// a detour between its endpoints over the surviving graph, written to
  /// `*detour` (`*rerouted` = true). Returns false when the attach node
  /// is unreachable (the caller times out / retries).
  bool ResolvePath(const Route& route, double t,
                   std::vector<topology::NodeId>* detour, bool* rerouted);

  /// Whether the cache process at `v` is down at time `t`.
  bool NodeDown(topology::NodeId v, double t);

  /// Whether the disk tier at `v` is down at time `t` (degraded-node
  /// fault class: RAM-only for tiered nodes, proxy-only otherwise). An
  /// independent per-node renewal stream, salted differently from the
  /// crash stream, so the two fault classes compose without correlation.
  bool DiskDown(topology::NodeId v, double t);

  /// Whether the `probe`-th sibling probe of request `request_index` (or
  /// its reply) is lost on the sibling leg. Pure hash — independent of
  /// call order and of the other fault streams.
  bool SiblingLoss(uint64_t request_index, int probe) const;

  /// Whether the graph link `link` (a Route::links entry) is down at time
  /// `t`.
  bool LinkDown(LinkId link, double t);

  /// Whether the link (u, v) is down at time `t`; the link must exist.
  bool LinkDown(topology::NodeId u, topology::NodeId v, double t);

  /// Applies any crash/restart cycles of `node` that began at or before
  /// `t` and have not been applied yet: the cache restarts cold (store,
  /// d-cache and frequency state dropped). Returns the number of crashes
  /// applied (0 almost always). Restarts are applied lazily, on the first
  /// request that touches the node after the crash onset.
  int ApplyCrashRestarts(CacheNode* node, double t);

  /// What a request finds at one of its path nodes at time `t`.
  struct HopFaults {
    int crashes = 0;         ///< Cold restarts just applied.
    bool down = false;       ///< NodeDown(node, t).
    bool disk_down = false;  ///< DiskDown(node, t).
  };

  /// ApplyCrashRestarts(node, t), NodeDown and DiskDown of `node` at `t`
  /// in one call: the per-hop fault pass of an exchange.
  HopFaults ApplyHopFaults(CacheNode* node, double t);

  /// Whether the piggyback entry of path index `hop` is lost on the
  /// ascent of request `request_index`. Pure hash — independent of call
  /// order and of the other fault streams.
  bool AscentLoss(uint64_t request_index, int hop) const;

  /// Whether the placement decision for path index `hop` is lost on the
  /// descent of request `request_index`.
  bool DescentLoss(uint64_t request_index, int hop) const;

 private:
  /// Alternating up/down renewal process of one entity (node or link).
  /// `boundaries_` holds [down-start, down-end) pairs in time order,
  /// generated from a private stream: a deterministic prefix of an
  /// infinite sequence, so extending it on demand is query-order
  /// independent.
  class OutageTrack {
   public:
    OutageTrack() = default;
    OutageTrack(uint64_t seed, double mtbf, double downtime);

    bool IsDown(double t) {
      // Odd cover index: t sits inside a [down-start, down-end) interval.
      return enabled_ && CoverIndex(t) % 2 == 1;
    }
    /// Number of down-intervals that began at or before `t`.
    uint64_t CrashEpoch(double t) {
      return enabled_ ? (CoverIndex(t) + 1) / 2 : 0;
    }

   private:
    /// The number of boundaries <= t. Replay time is nearly monotone, so
    /// the answer is almost always the last one's: O(1) while `t` stays in
    /// the interval [lo_, hi_) between the boundaries around the cursor,
    /// and Seek otherwise.
    size_t CoverIndex(double t) {
      if (lo_ <= t && t < hi_) [[likely]] return cursor_;
      return Seek(t);
    }
    /// Extends boundaries_ until it covers `t`, then moves the cursor to
    /// the first boundary > t.
    size_t Seek(double t);

    util::Rng rng_;
    double onset_rate_ = 0.0;
    double recovery_rate_ = 0.0;
    bool enabled_ = false;
    std::vector<double> boundaries_;
    /// boundaries_[cursor_ - 1] <= t < boundaries_[cursor_] for every t in
    /// [lo_, hi_); empty until the first Seek.
    size_t cursor_ = 0;
    double lo_ = 0.0;
    double hi_ = 0.0;
  };

  /// True when every link of `route` is up and (under crash_cuts_routing)
  /// every intermediate node is forwarding at time `t`.
  bool PathHealthy(const Route& route, double t);

  /// Shortest-delay detour from `from` to `root` over the surviving
  /// graph; deterministic tie-break by parent id. Returns false when
  /// unreachable.
  bool DetourPath(topology::NodeId from, topology::NodeId root, double t,
                  std::vector<topology::NodeId>* path);

  FaultScheduleConfig config_;
  const Network* network_;
  bool routing_faults_ = false;
  /// Per-entity outage streams, indexed by node id or graph link id.
  /// Reset() reseeds them; their boundaries materialize lazily.
  std::vector<OutageTrack> node_tracks_;
  /// Per-node disk-failure streams (degraded-node fault class).
  std::vector<OutageTrack> disk_tracks_;
  std::vector<OutageTrack> link_tracks_;
  /// Crash epochs already applied to each node's cache.
  std::vector<uint64_t> applied_crash_epoch_;
  /// DetourPath's tree, reused across detours.
  topology::ShortestPathTree detour_tree_;
};

}  // namespace cascache::sim

#endif  // CASCACHE_SIM_FAULT_PLANE_H_
