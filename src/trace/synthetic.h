#ifndef CASCACHE_TRACE_SYNTHETIC_H_
#define CASCACHE_TRACE_SYNTHETIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "trace/object_catalog.h"
#include "trace/workload_model.h"
#include "util/status.h"

namespace cascache::trace {

/// Parameters of the synthetic Boeing-like workload. The paper drives its
/// simulation with a subtrace of the Boeing proxy logs (3-1-1999): requests
/// for the 100,000 most popular objects, >60,000 clients, Zipf-like
/// popularity. The trace itself is not publicly archived, so this generator
/// produces the closest synthetic equivalent: Zipf(theta) object
/// popularity, heavy-tailed object sizes (lognormal body + Pareto tail,
/// the standard web-object size model), skewed client activity and Poisson
/// arrivals. Defaults are scaled down from the paper for laptop runs; the
/// paper-scale values are noted per field.
struct WorkloadParams {
  uint32_t num_objects = 100'000;   ///< Paper: 100,000 (subtrace).
  uint64_t num_requests = 1'000'000;  ///< Paper: ~11M in the subtrace.
  uint32_t num_clients = 2'000;     ///< Paper: >60,000.
  uint32_t num_servers = 500;

  /// Zipf exponent of object popularity. Breslau et al. measured
  /// 0.64-0.83 for proxy traces; 0.8 is the customary default.
  double zipf_theta = 0.8;
  /// Zipf exponent of client activity (a few clients issue most requests).
  double client_zipf_theta = 0.5;

  // Object size model: lognormal body with a Pareto tail.
  double size_lognormal_mu = 8.5;     ///< exp(8.5) ~ 4.9 KB median.
  double size_lognormal_sigma = 1.3;
  double size_pareto_tail_prob = 0.02;
  double size_pareto_scale = 64.0 * 1024;  ///< Tail starts at 64 KB.
  double size_pareto_alpha = 1.3;
  uint64_t min_object_size = 100;
  uint64_t max_object_size = 32ull * 1024 * 1024;

  /// Mean request arrival rate (requests/second); Poisson arrivals.
  /// Paper: ~22M requests/day ~ 254 req/s before subtrace extraction.
  double request_rate = 100.0;

  /// Temporal locality beyond the stationary Zipf law: with this
  /// probability a request re-references an object drawn from the recent
  /// request history (geometrically biased toward the most recent), the
  /// LRU-stack behavior real proxy traces exhibit. 0 = pure independent
  /// reference model (the default, matching the base reproduction).
  double temporal_locality = 0.0;
  /// Size of the recent-history window for temporal re-references.
  uint32_t temporal_window = 10'000;
  /// Mean of the geometric recency bias (expected stack depth of a
  /// temporal re-reference), must be >= 1.
  double temporal_mean_depth = 100.0;

  /// Non-stationary workload components (popularity drift, flash crowds,
  /// diurnal cycles, sessions, regional skew). All off by default, which
  /// gives the stationary Zipf request stream.
  WorkloadModelParams model;

  /// Generate the catalog procedurally (ObjectCatalog::BuildProcedural):
  /// sizes/servers are hashed from the id instead of stored, so 10^8
  /// objects cost a 64 KiB quantile table instead of ~1.2 GB of arrays,
  /// and the trace file stores a 64-byte model block (format v3). Changes
  /// object sizes relative to the default materialized catalog, so it is
  /// opt-in.
  bool procedural_catalog = false;

  uint64_t seed = 42;
};

/// A complete generated workload: the object catalog plus a time-ordered
/// request stream.
struct Workload {
  ObjectCatalog catalog;
  std::vector<Request> requests;

  /// Duration covered by the request stream (time of last request).
  double Duration() const {
    return requests.empty() ? 0.0 : requests.back().time;
  }

  /// Borrowed view over this workload for the span-based replay core.
  /// The view must not outlive the Workload.
  WorkloadView View() const { return WorkloadView{&catalog, requests, {}}; }
};

/// Generates a workload; deterministic in `params.seed`. Object ids are
/// assigned in popularity-rank order (object 0 is the hottest), while
/// sizes and server assignments are independent of rank.
util::StatusOr<Workload> GenerateWorkload(const WorkloadParams& params);

/// Streams the same workload straight to a v2 binary trace file
/// (trace_io.h) without materializing the request vector: requests are
/// generated and written in bounded blocks, so a 100M-request trace is
/// produced in O(1) resident memory. Bit-identical to WriteTrace(
/// GenerateWorkload(params)) — both consume the same RNG stream.
util::Status GenerateWorkloadToFile(const WorkloadParams& params,
                                    const std::string& path);

/// Per-object request counts of a trace (index = ObjectId); used by tests
/// and trace statistics.
std::vector<uint64_t> CountAccesses(const Workload& workload);

}  // namespace cascache::trace

#endif  // CASCACHE_TRACE_SYNTHETIC_H_
