// Ablation A7: the synthetic trace substitutes the (unavailable) Boeing
// logs. Real proxy traces carry temporal locality beyond the stationary
// Zipf law; this bench verifies the paper's conclusions are robust to it
// by sweeping the temporal re-reference probability (and a popularity
// drift case) at 1% cache on the en-route topology.

#include <cmath>
#include <cstdio>

#include "common.h"

int main() {
  using namespace cascache;
  bench::PrintTitle("Ablation A7",
                    "Temporal locality & popularity drift robustness "
                    "(en-route, 1% cache)");

  for (double locality : {0.0, 0.25, 0.5}) {
    auto config = bench::PaperConfig(sim::Architecture::kEnRoute);
    config.cache_fractions = {0.01};
    config.workload.temporal_locality = locality;
    config.workload.temporal_window = 20'000;
    config.workload.temporal_mean_depth = 500.0;
    std::printf("\n--- temporal locality = %.2f ---\n", locality);
    const auto results = bench::RunSweep(config);
    bench::PrintMetricTables(
        results, {{"avg latency, s", bench::Latency},
                  {"byte hit ratio", bench::ByteHitRatio}});
  }

  {
    auto config = bench::PaperConfig(sim::Architecture::kEnRoute);
    config.cache_fractions = {0.01};
    // Shuffle drift swaps n ln2 / (2 h) rank pairs per second; this
    // half-life makes that 50k rank swaps per hour.
    config.workload.model.drift_mode = trace::DriftMode::kShuffle;
    config.workload.model.drift_half_life_s =
        config.workload.num_objects * std::log(2.0) * 3600.0 /
        (2.0 * 50'000.0);
    std::printf("\n--- popularity drift: shuffle, half-life %.0f s "
                "(50k rank swaps/hour) ---\n",
                config.workload.model.drift_half_life_s);
    const auto results = bench::RunSweep(config);
    bench::PrintMetricTables(
        results, {{"avg latency, s", bench::Latency},
                  {"byte hit ratio", bench::ByteHitRatio}});
  }
  return 0;
}
