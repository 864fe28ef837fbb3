#ifndef CASCACHE_TESTS_TESTING_REF_GENERATOR_H_
#define CASCACHE_TESTS_TESTING_REF_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "trace/synthetic.h"
#include "util/random.h"
#include "util/zipf.h"

namespace cascache::testing {

using trace::ClientId;
using trace::ObjectId;
using trace::Request;
using trace::WorkloadParams;

/// Reference stationary emitter: the historical static-Zipf request
/// generator (without its superseded rank-swap churn), verbatim, kept in
/// the tests only. With every workload-model component off, the single
/// production emitter behind trace::GenerateWorkload must draw exactly
/// this stream from the same RNG state. Uses the alias-method
/// ZipfDistribution directly, so it is only a reference below
/// util::ZipfSampler::kAliasLimit objects and clients.
template <typename Emit>
void RefEmitStaticRequests(const WorkloadParams& params, util::Rng* rng,
                           Emit&& emit) {
  const util::ZipfDistribution object_pop(params.num_objects,
                                          params.zipf_theta);
  const util::ZipfDistribution client_pop(params.num_clients,
                                          params.client_zipf_theta);

  // Client ranks are shuffled into ids so that "hot" clients are spread
  // over the id space (and hence over network attach points).
  std::vector<ClientId> client_of_rank(params.num_clients);
  for (uint32_t i = 0; i < params.num_clients; ++i) client_of_rank[i] = i;
  rng->Shuffle(&client_of_rank);

  // Temporal locality: ring buffer of the most recent object ids.
  const bool temporal = params.temporal_locality > 0.0;
  std::vector<ObjectId> recent;
  size_t recent_head = 0;
  const double recency_p = temporal ? 1.0 / params.temporal_mean_depth : 0.0;

  double now = 0.0;
  for (uint64_t r = 0; r < params.num_requests; ++r) {
    now += rng->NextExponential(params.request_rate);

    Request req;
    req.time = now;
    req.client = client_of_rank[client_pop.Sample(rng)];

    bool picked = false;
    if (temporal && !recent.empty() &&
        rng->NextBool(params.temporal_locality)) {
      // Geometric stack depth, clamped to the filled window.
      uint64_t depth = 0;
      while (depth + 1 < recent.size() && !rng->NextBool(recency_p)) ++depth;
      const size_t idx =
          (recent_head + recent.size() - 1 - static_cast<size_t>(depth)) %
          recent.size();
      req.object = recent[idx];
      picked = true;
    }
    if (!picked) {
      const size_t rank = object_pop.Sample(rng);
      req.object = static_cast<ObjectId>(rank);
    }

    if (temporal) {
      if (recent.size() < params.temporal_window) {
        recent.push_back(req.object);
        recent_head = 0;  // Head only matters once the ring is full.
      } else {
        recent[recent_head] = req.object;
        recent_head = (recent_head + 1) % recent.size();
      }
    }
    emit(req);
  }
}

}  // namespace cascache::testing

#endif  // CASCACHE_TESTS_TESTING_REF_GENERATOR_H_
