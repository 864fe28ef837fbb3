#include "common.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/flags.h"

namespace cascache::bench {

namespace {

/// Catalog size of the paper configuration at scale 1.
constexpr double kPaperObjects = 20'000;

/// CASCACHE_BENCH_SCALE, or 1 when unset. Exits with a message on a value
/// that is not a finite number > 0, or one that sizes the catalog beyond
/// 32-bit object ids.
double BenchScale() {
  const char* env = std::getenv("CASCACHE_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  double scale = 0.0;
  if (!util::ParseValue(env, &scale).ok() || !(scale > 0.0) ||
      kPaperObjects * scale > std::numeric_limits<uint32_t>::max()) {
    std::fprintf(stderr,
                 "CASCACHE_BENCH_SCALE must be a finite number > 0 that "
                 "keeps the catalog within 2^32 objects, got '%s'\n",
                 env);
    std::exit(2);
  }
  return scale;
}

}  // namespace

sim::ExperimentConfig PaperConfig(sim::Architecture arch) {
  const double scale = BenchScale();
  sim::ExperimentConfig config;
  config.network.architecture = arch;
  // Topology defaults already match the paper (Table 1 Tiers parameters;
  // depth-4 fanout-3 tree with d = 0.008 s, g = 5).
  config.workload.num_objects = static_cast<uint32_t>(
      std::max(100.0, kPaperObjects * scale));
  config.workload.num_requests = static_cast<uint64_t>(400'000 * scale);
  config.workload.num_clients = 1'000;
  config.workload.num_servers = 200;
  config.workload.zipf_theta = 0.8;
  config.workload.seed = 20030305;  // The paper's trace date, more or less.
  // Paper sweep: 0.1% .. 10% relative cache size, log scale.
  config.cache_fractions = {0.001, 0.003, 0.01, 0.03, 0.10};
  config.schemes = PaperSchemes();
  return config;
}

std::vector<schemes::SchemeSpec> PaperSchemes(int modulo_radius) {
  return {{.kind = schemes::SchemeKind::kLru},
          {.kind = schemes::SchemeKind::kModulo,
           .modulo_radius = modulo_radius},
          {.kind = schemes::SchemeKind::kLncr},
          {.kind = schemes::SchemeKind::kCoordinated}};
}

void PrintTitle(const std::string& id, const std::string& title) {
  std::printf("==============================================================="
              "\n%s: %s\n"
              "==============================================================="
              "\n",
              id.c_str(), title.c_str());
}

namespace {

/// Appends results to the CSV named by CASCACHE_RESULTS_CSV, if set, and
/// the per-node counter breakdown to CASCACHE_PER_NODE_CSV likewise.
void MaybeExportCsv(const std::vector<sim::RunResult>& results) {
  if (const char* path = std::getenv("CASCACHE_RESULTS_CSV");
      path != nullptr && path[0] != '\0') {
    const util::Status status = sim::WriteResultsCsv(results, path);
    if (!status.ok()) {
      std::fprintf(stderr, "CSV export failed: %s\n",
                   status.ToString().c_str());
    }
  }
  if (const char* path = std::getenv("CASCACHE_PER_NODE_CSV");
      path != nullptr && path[0] != '\0') {
    const util::Status status = sim::WritePerNodeCsv(results, path);
    if (!status.ok()) {
      std::fprintf(stderr, "per-node CSV export failed: %s\n",
                   status.ToString().c_str());
    }
  }
}

/// Ends the bench with `status`'s message and exit status 1 unless it is
/// OK.
void ExitIfError(const util::Status& status) {
  if (status.ok()) return;
  std::fprintf(stderr, "sweep failed: %s\n", status.ToString().c_str());
  std::exit(1);
}

}  // namespace

std::vector<sim::RunResult> RunSweep(const sim::ExperimentConfig& config) {
  auto runner_or = sim::ExperimentRunner::Create(config);
  ExitIfError(runner_or.status());
  sim::ExperimentRunner& runner = **runner_or;

  const size_t total =
      config.cache_fractions.size() * config.schemes.size();
  auto jobs_or = sim::ResolveJobs(config.jobs);
  ExitIfError(jobs_or.status());
  const int jobs =
      std::min<int>(*jobs_or, static_cast<int>(std::max<size_t>(1, total)));
  std::fprintf(stderr, "  running %zu cells on %d worker%s...\n", total, jobs,
               jobs == 1 ? "" : "s");
  const auto start = std::chrono::steady_clock::now();
  auto results_or = runner.RunAll();
  ExitIfError(results_or.status());
  std::vector<sim::RunResult> results = std::move(results_or).value();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  for (const sim::RunResult& r : results) {
    std::fprintf(stderr, "  %-14s @ %6.2f%%  %.3fs (%.0f req/s)\n",
                 r.scheme.c_str(), r.cache_fraction * 100, r.wall_seconds,
                 r.requests_per_sec);
  }
  std::fprintf(stderr, "  sweep done in %.3fs\n", wall);

  MaybeExportCsv(results);
  return results;
}

void PrintMetricTables(const std::vector<sim::RunResult>& results,
                       const std::vector<MetricColumn>& metrics) {
  for (const MetricColumn& metric : metrics) {
    std::printf("\n%s\n",
                sim::FormatSweepTable(results, metric.name, metric.selector)
                    .c_str());
  }
}

double Latency(const sim::MetricsSummary& m) { return m.avg_latency; }
double ResponseRatio(const sim::MetricsSummary& m) {
  return m.avg_response_ratio;
}
double ByteHitRatio(const sim::MetricsSummary& m) { return m.byte_hit_ratio; }
double TrafficByteHops(const sim::MetricsSummary& m) {
  return m.avg_traffic_byte_hops;
}
double Hops(const sim::MetricsSummary& m) { return m.avg_hops; }
double LoadBytes(const sim::MetricsSummary& m) { return m.avg_load_bytes; }

}  // namespace cascache::bench
