#ifndef CASCACHE_BENCH_COMMON_H_
#define CASCACHE_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "sim/experiment.h"

namespace cascache::bench {

/// Workload/topology configuration shared by the figure benches: the
/// paper's Table-1 en-route topology or the default 3-ary depth-4
/// hierarchy, with a synthetic Boeing-like trace. The workload is scaled
/// down from the paper (22M requests) to laptop size; set the environment
/// variable CASCACHE_BENCH_SCALE (e.g. 0.2 or 5) to shrink or grow it.
sim::ExperimentConfig PaperConfig(sim::Architecture arch);

/// The four schemes of the paper's evaluation (§3.3), MODULO at the given
/// radius (4 = the best en-route setting the paper reports).
std::vector<schemes::SchemeSpec> PaperSchemes(int modulo_radius = 4);

/// Prints a figure banner.
void PrintTitle(const std::string& id, const std::string& title);

/// Runs the sweep with progress output on stderr; on error, prints it and
/// exits with status 1.
std::vector<sim::RunResult> RunSweep(const sim::ExperimentConfig& config);

/// Metric extractor + display name.
struct MetricColumn {
  std::string name;
  double (*selector)(const sim::MetricsSummary&);
};

/// Prints one sweep table (rows = cache sizes, columns = schemes) per
/// metric.
void PrintMetricTables(const std::vector<sim::RunResult>& results,
                       const std::vector<MetricColumn>& metrics);

// Common selectors.
double Latency(const sim::MetricsSummary& m);
double ResponseRatio(const sim::MetricsSummary& m);
double ByteHitRatio(const sim::MetricsSummary& m);
double TrafficByteHops(const sim::MetricsSummary& m);
double Hops(const sim::MetricsSummary& m);
double LoadBytes(const sim::MetricsSummary& m);

}  // namespace cascache::bench

#endif  // CASCACHE_BENCH_COMMON_H_
