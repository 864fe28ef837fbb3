#include "trace/workload_model.h"

#include <cmath>

namespace cascache::trace {

util::Status ValidateWorkloadModel(const WorkloadModelParams& m) {
  for (const double value :
       {m.drift_half_life_s, m.flash_rate_per_hour, m.flash_peak_share,
        m.flash_ramp_s, m.flash_decay_s, m.diurnal_amplitude,
        m.diurnal_period_s, m.session_prob, m.session_mean_run,
        m.regional_bias}) {
    if (!std::isfinite(value)) {
      return util::Status::InvalidArgument(
          "workload model parameters must be finite");
    }
  }
  if (m.drift_mode != DriftMode::kNone && m.drift_half_life_s <= 0.0) {
    return util::Status::InvalidArgument("drift_half_life_s must be > 0");
  }
  if (m.flash_rate_per_hour < 0.0) {
    return util::Status::InvalidArgument("flash_rate_per_hour must be >= 0");
  }
  if (m.flash_rate_per_hour > 0.0) {
    if (m.flash_objects == 0) {
      return util::Status::InvalidArgument("flash_objects must be > 0");
    }
    if (m.flash_peak_share <= 0.0 || m.flash_peak_share > 1.0) {
      return util::Status::InvalidArgument(
          "flash_peak_share must be in (0,1]");
    }
    if (m.flash_ramp_s < 0.0 || m.flash_decay_s <= 0.0) {
      return util::Status::InvalidArgument("bad flash ramp/decay");
    }
  }
  if (m.diurnal_amplitude < 0.0 || m.diurnal_amplitude >= 1.0) {
    return util::Status::InvalidArgument(
        "diurnal_amplitude must be in [0,1)");
  }
  if (m.diurnal_amplitude > 0.0 && m.diurnal_period_s <= 0.0) {
    return util::Status::InvalidArgument("diurnal_period_s must be > 0");
  }
  if (m.session_prob < 0.0 || m.session_prob > 1.0) {
    return util::Status::InvalidArgument("session_prob must be in [0,1]");
  }
  if (m.session_prob > 0.0 && m.session_mean_run < 1.0) {
    return util::Status::InvalidArgument("session_mean_run must be >= 1");
  }
  if (m.regional_bias < 0.0 || m.regional_bias > 1.0) {
    return util::Status::InvalidArgument("regional_bias must be in [0,1]");
  }
  if (m.regional_bias > 0.0 && m.regions == 0) {
    return util::Status::InvalidArgument(
        "regional_bias requires regions > 0");
  }
  return util::Status::Ok();
}

}  // namespace cascache::trace
