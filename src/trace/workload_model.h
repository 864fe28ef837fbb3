#ifndef CASCACHE_TRACE_WORKLOAD_MODEL_H_
#define CASCACHE_TRACE_WORKLOAD_MODEL_H_

#include <cstdint>

#include "util/status.h"

namespace cascache::trace {

/// How object popularity drifts over simulated time.
enum class DriftMode {
  kNone,
  /// Rank rotation: the object at popularity rank r at time t is
  /// (r + offset(t)) mod n, where offset advances by n ids every two
  /// half-lives. O(1) state, valid at any catalog size — the only drift
  /// mode usable with 10^8-object procedural catalogs.
  kRotate,
  /// Random rank permutation mutated by Poisson-timed swap events, tuned
  /// so the hot set decorrelates with the configured half-life. Keeps an
  /// explicit n-entry table, so it is rejected above
  /// kDriftShuffleMaxObjects.
  kShuffle,
};

/// Largest catalog for which DriftMode::kShuffle may materialize its
/// rank permutation (2^24 ids = 64 MiB table).
inline constexpr uint32_t kDriftShuffleMaxObjects = 1u << 24;

/// Non-stationary extensions layered over the stationary Zipf workload
/// (synthetic.h). All components are deterministic functions of
/// (WorkloadParams::seed, this config) and keep O(1)-per-request state,
/// so any trace length streams through TraceWriter in bounded memory.
/// Components compose freely except where ValidateWorkloadModel says
/// otherwise; defaults leave every component off, in which case the
/// generator draws the stationary Zipf stream.
struct WorkloadModelParams {
  // --- Popularity drift -----------------------------------------------------
  DriftMode drift_mode = DriftMode::kNone;
  /// Time for half the hot set's popularity mass to move to previously
  /// cold objects. Must be > 0 when drift_mode != kNone.
  double drift_half_life_s = 3600.0;

  // --- Flash crowds ---------------------------------------------------------
  /// Poisson rate of flash-crowd events; 0 disables.
  double flash_rate_per_hour = 0.0;
  /// Objects in each event's hot set (a contiguous id run at a uniformly
  /// random base id).
  uint32_t flash_objects = 64;
  /// Fraction of request traffic one event captures at its peak.
  double flash_peak_share = 0.3;
  /// Linear ramp-up to the peak, then exponential decay.
  double flash_ramp_s = 300.0;
  double flash_decay_s = 1200.0;

  // --- Diurnal request-rate cycle -------------------------------------------
  /// Arrival rate becomes request_rate * (1 + A sin(2 pi t / period));
  /// A in [0, 1), 0 disables.
  double diurnal_amplitude = 0.0;
  double diurnal_period_s = 86400.0;

  // --- Correlated client sessions (video-segment runs) ----------------------
  /// Probability that a fresh object draw starts a sequential session in
  /// which the client's following requests fetch consecutive ids
  /// (segment n, n+1, ...); 0 disables.
  double session_prob = 0.0;
  /// Mean session length in requests (geometric), >= 1.
  double session_mean_run = 20.0;

  // --- Regional (per-MAN) skew ----------------------------------------------
  /// Number of client regions (region = client mod regions); 0 disables.
  uint32_t regions = 0;
  /// Probability a request prefers its region's shifted hot set over the
  /// global popularity order; in [0, 1].
  double regional_bias = 0.0;

  /// True if any non-stationary component is active.
  bool enabled() const {
    return drift_mode != DriftMode::kNone || flash_rate_per_hour > 0.0 ||
           diurnal_amplitude > 0.0 || session_prob > 0.0 ||
           (regions > 0 && regional_bias > 0.0);
  }
};

/// Validates the model-only knobs (ranges, required pairings).
/// Cross-checks against the base workload (shuffle table size, region
/// count) live in the synthetic generator's ValidateParams.
util::Status ValidateWorkloadModel(const WorkloadModelParams& model);

}  // namespace cascache::trace

#endif  // CASCACHE_TRACE_WORKLOAD_MODEL_H_
