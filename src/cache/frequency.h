#ifndef CASCACHE_CACHE_FREQUENCY_H_
#define CASCACHE_CACHE_FREQUENCY_H_

#include "cache/descriptor.h"

namespace cascache::cache {

/// Sliding-window access-frequency estimation (paper §3.2, following Shim
/// et al.): with up to K recent reference times recorded, the frequency is
///
///   f(O) = K' / (t - t_K')
///
/// where K' <= K is the number of recorded references and t_K' the K'-th
/// most recent reference time. To bound overhead, the cached estimate is
/// refreshed only when the object is referenced or when it is older than
/// `aging_interval` (10 minutes in the paper), which also ages the
/// estimate of idle objects downward.
struct FrequencyEstimatorParams {
  int window = 3;                 ///< Paper's K.
  double aging_interval = 600.0;  ///< Seconds between forced refreshes.
  /// Floor on the denominator (t - t_K'), avoiding an infinite estimate
  /// when an object's only recorded access coincides with `now`.
  double min_span = 1.0;
};

class FrequencyEstimator {
 public:
  explicit FrequencyEstimator(
      const FrequencyEstimatorParams& params = FrequencyEstimatorParams());

  /// Records an access and refreshes the cached estimate.
  void OnAccess(ObjectDescriptor* desc, double now) const;

  /// Current frequency estimate; refreshes the cached value if it is older
  /// than the aging interval.
  double Estimate(ObjectDescriptor* desc, double now) const;

  const FrequencyEstimatorParams& params() const { return params_; }

 private:
  double Compute(const ObjectDescriptor& desc, double now) const;

  FrequencyEstimatorParams params_;
};

}  // namespace cascache::cache

#endif  // CASCACHE_CACHE_FREQUENCY_H_
