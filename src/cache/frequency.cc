#include "cache/frequency.h"

#include <algorithm>

#include "util/check.h"

namespace cascache::cache {

FrequencyEstimator::FrequencyEstimator(const FrequencyEstimatorParams& params)
    : params_(params) {
  CASCACHE_CHECK(params_.window >= 1 && params_.window <= kMaxAccessWindow);
  CASCACHE_CHECK(params_.aging_interval > 0.0);
  CASCACHE_CHECK(params_.min_span > 0.0);
}

double FrequencyEstimator::Compute(const ObjectDescriptor& desc,
                                   double now) const {
  if (desc.num_accesses == 0) return 0.0;
  const int k = std::min<int>(desc.num_accesses, params_.window);
  const double t_k = desc.KthMostRecentAccess(k);
  const double span = std::max(now - t_k, params_.min_span);
  return static_cast<double>(k) / span;
}

void FrequencyEstimator::OnAccess(ObjectDescriptor* desc, double now) const {
  CASCACHE_CHECK(desc != nullptr);
  desc->RecordAccess(now);
  desc->frequency = Compute(*desc, now);
  desc->frequency_time = now;
}

double FrequencyEstimator::Estimate(ObjectDescriptor* desc,
                                    double now) const {
  CASCACHE_CHECK(desc != nullptr);
  if (desc->frequency_time < 0.0 ||
      now - desc->frequency_time >= params_.aging_interval) {
    desc->frequency = Compute(*desc, now);
    desc->frequency_time = now;
  }
  return desc->frequency;
}

}  // namespace cascache::cache
