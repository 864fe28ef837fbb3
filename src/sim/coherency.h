#ifndef CASCACHE_SIM_COHERENCY_H_
#define CASCACHE_SIM_COHERENCY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "trace/object_catalog.h"
#include "util/status.h"

namespace cascache::sim {

/// The paper assumes cached objects are kept up-to-date "e.g., by using a
/// cache coherency protocol if necessary" (§2), citing piggyback server
/// invalidation. This module makes that assumption explicit and
/// measurable: origin objects change over time, and a protocol decides
/// what a cached copy is worth.
enum class CoherencyProtocol {
  /// Serve copies as-is; staleness is only *measured* (stale-hit ratio).
  /// This quantifies how much the paper's freshness assumption hides.
  kNone,
  /// Time-to-live: a copy older than `ttl` is discarded on access and the
  /// request continues upstream (the web's Expires/max-age behavior).
  kTtl,
  /// Idealized server-driven invalidation: a copy whose version is behind
  /// the origin is discarded on access — equivalent to copies vanishing
  /// at update time, evaluated lazily (no invalidation traffic is
  /// modeled, making this the optimistic bound the paper's assumption
  /// corresponds to).
  kInvalidation,
};

const char* CoherencyProtocolName(CoherencyProtocol protocol);

struct CoherencyParams {
  CoherencyProtocol protocol = CoherencyProtocol::kNone;
  /// Copy lifetime for kTtl, seconds.
  double ttl = 3600.0;
  /// Fraction of objects that ever change (web objects are mostly static,
  /// §2: "access frequency is much higher than the update frequency").
  double mutable_fraction = 0.0;
  /// Mean seconds between updates of a mutable object.
  double mean_update_period = 4.0 * 3600.0;
  uint64_t seed = 99;
};

/// Deterministic per-object update process: each mutable object updates
/// periodically with a randomized period (uniform in [0.5, 1.5] x mean)
/// and phase, so the version at any time is O(1) to evaluate and the
/// whole schedule is reproducible without storing update events.
class UpdateSchedule {
 public:
  /// Randomized schedule over `num_objects` objects.
  static util::StatusOr<UpdateSchedule> Create(uint32_t num_objects,
                                               const CoherencyParams& params);

  /// Explicit schedule for tests: period[i] <= 0 marks an immutable
  /// object; phase[i] in [0, period[i]).
  UpdateSchedule(std::vector<double> periods, std::vector<double> phases);

  bool IsMutable(trace::ObjectId id) const {
    return periods_[id] > 0.0;
  }

  /// Number of updates in (0, t]; 0 for immutable objects and t <= 0.
  uint32_t VersionAt(trace::ObjectId id, double t) const;

  /// Advisory prefetch of the lines VersionAt(id, ...) reads; no state
  /// changes.
  void Prefetch(trace::ObjectId id) const {
    __builtin_prefetch(periods_.data() + id, 0, 1);
    __builtin_prefetch(phases_.data() + id, 0, 1);
  }

  uint32_t num_objects() const {
    return static_cast<uint32_t>(periods_.size());
  }

 private:
  std::vector<double> periods_;  ///< <= 0 means immutable.
  std::vector<double> phases_;
};

}  // namespace cascache::sim

#endif  // CASCACHE_SIM_COHERENCY_H_
