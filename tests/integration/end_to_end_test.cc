// End-to-end runs of the full stack (topology generation -> synthetic
// workload -> trace-driven simulation -> metrics) checking the paper's
// qualitative claims on small workloads. All runs are seeded and
// deterministic.

#include <gtest/gtest.h>

#include "schemes/coordinated_scheme.h"
#include "sim/experiment.h"

namespace cascache {
namespace {

using schemes::SchemeKind;
using sim::Architecture;
using sim::ExperimentConfig;
using sim::ExperimentRunner;
using sim::RunResult;

ExperimentConfig BaseConfig(Architecture arch) {
  ExperimentConfig config;
  config.network.architecture = arch;
  config.workload.num_objects = 2'000;
  config.workload.num_requests = 150'000;
  config.workload.num_clients = 300;
  config.workload.num_servers = 50;
  config.workload.seed = 17;
  config.cache_fractions = {0.02};
  config.schemes = {{.kind = SchemeKind::kLru},
                    {.kind = SchemeKind::kModulo, .modulo_radius = 4},
                    {.kind = SchemeKind::kLncr},
                    {.kind = SchemeKind::kCoordinated}};
  return config;
}

const RunResult& FindScheme(const std::vector<RunResult>& results,
                            const std::string& name) {
  for (const RunResult& r : results) {
    if (r.scheme == name) return r;
  }
  ADD_FAILURE() << "scheme " << name << " missing";
  return results.front();
}

class EndToEndTest : public ::testing::TestWithParam<Architecture> {};

TEST_P(EndToEndTest, MetricsAreWellFormed) {
  auto runner_or = ExperimentRunner::Create(BaseConfig(GetParam()));
  ASSERT_TRUE(runner_or.ok()) << runner_or.status();
  auto results_or = (*runner_or)->RunAll();
  ASSERT_TRUE(results_or.ok());
  for (const RunResult& r : *results_or) {
    SCOPED_TRACE(r.scheme);
    EXPECT_GT(r.metrics.requests, 0u);
    EXPECT_GE(r.metrics.byte_hit_ratio, 0.0);
    EXPECT_LE(r.metrics.byte_hit_ratio, 1.0);
    EXPECT_GE(r.metrics.hit_ratio, 0.0);
    EXPECT_LE(r.metrics.hit_ratio, 1.0);
    EXPECT_GT(r.metrics.avg_latency, 0.0);
    EXPECT_GT(r.metrics.avg_hops, 0.0);
    EXPECT_GT(r.metrics.avg_load_bytes, 0.0);
    EXPECT_GE(r.metrics.read_load_share, 0.0);
    EXPECT_LE(r.metrics.read_load_share, 1.0);
  }
}

TEST_P(EndToEndTest, CoordinatedBeatsLruOnHeadlineMetrics) {
  // The paper's central claim (Figures 6-10): coordinated caching beats
  // the schemes that optimize placement or replacement alone.
  auto runner_or = ExperimentRunner::Create(BaseConfig(GetParam()));
  ASSERT_TRUE(runner_or.ok());
  auto results_or = (*runner_or)->RunAll();
  ASSERT_TRUE(results_or.ok());
  const RunResult& lru = FindScheme(*results_or, "LRU");
  const RunResult& coord = FindScheme(*results_or, "Coordinated");
  EXPECT_LT(coord.metrics.avg_latency, lru.metrics.avg_latency);
  EXPECT_LT(coord.metrics.avg_response_ratio,
            lru.metrics.avg_response_ratio);
  EXPECT_GT(coord.metrics.byte_hit_ratio, lru.metrics.byte_hit_ratio);
  EXPECT_LT(coord.metrics.avg_hops, lru.metrics.avg_hops);
  // Write overhead: coordinated places far fewer copies.
  EXPECT_LT(coord.metrics.avg_write_bytes, lru.metrics.avg_write_bytes);
}

INSTANTIATE_TEST_SUITE_P(Architectures, EndToEndTest,
                         ::testing::Values(Architecture::kEnRoute,
                                           Architecture::kHierarchical),
                         [](const auto& info) {
                           return info.param == Architecture::kEnRoute
                                      ? "EnRoute"
                                      : "Hierarchical";
                         });

TEST(EndToEndEnRouteTest, ModuloRadiusFourLeavesHierarchyLevelsUnused) {
  // Paper §4.2: under the hierarchical architecture, MODULO with radius 4
  // uses only the leaf caches, so its load is flat and its hit ratio far
  // below LRU's.
  ExperimentConfig config = BaseConfig(Architecture::kHierarchical);
  config.schemes = {{.kind = SchemeKind::kLru},
                    {.kind = SchemeKind::kModulo, .modulo_radius = 4}};
  auto runner_or = ExperimentRunner::Create(config);
  ASSERT_TRUE(runner_or.ok());
  auto results_or = (*runner_or)->RunAll();
  ASSERT_TRUE(results_or.ok());
  const RunResult& lru = FindScheme(*results_or, "LRU");
  const RunResult& modulo = FindScheme(*results_or, "MODULO(4)");
  EXPECT_LT(modulo.metrics.byte_hit_ratio, lru.metrics.byte_hit_ratio);
  EXPECT_GT(modulo.metrics.avg_latency, lru.metrics.avg_latency);
}

TEST(EndToEndStatsTest, CoordinatedStatsAreConsistent) {
  ExperimentConfig config = BaseConfig(Architecture::kEnRoute);
  config.workload.num_requests = 40'000;
  auto runner_or = ExperimentRunner::Create(config);
  ASSERT_TRUE(runner_or.ok());

  schemes::CoordinatedScheme scheme;
  sim::CacheSet caches = (*runner_or)->network()->MakeCacheSet();
  sim::Simulator simulator((*runner_or)->network(), &caches, &scheme);
  ASSERT_TRUE(simulator
                  .Run((*runner_or)->workload(),
                       (*runner_or)->workload().catalog.total_bytes() / 50)
                  .ok());
  const auto& stats = scheme.stats();
  EXPECT_EQ(stats.requests, 40'000u);
  EXPECT_GT(stats.dp_runs, 0u);
  EXPECT_GE(stats.candidates, stats.dp_runs);
  EXPECT_GT(stats.placements, 0u);
  EXPECT_GT(stats.total_gain, 0.0);
}

TEST(EndToEndDeterminismTest, FullPipelineIsReproducible) {
  ExperimentConfig config = BaseConfig(Architecture::kEnRoute);
  config.workload.num_requests = 30'000;
  config.schemes = {{.kind = SchemeKind::kCoordinated}};
  auto a = ExperimentRunner::Create(config);
  auto b = ExperimentRunner::Create(config);
  ASSERT_TRUE(a.ok() && b.ok());
  auto ra = (*a)->RunAll();
  auto rb = (*b)->RunAll();
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_DOUBLE_EQ((*ra)[0].metrics.avg_latency,
                   (*rb)[0].metrics.avg_latency);
  EXPECT_DOUBLE_EQ((*ra)[0].metrics.byte_hit_ratio,
                   (*rb)[0].metrics.byte_hit_ratio);
  EXPECT_DOUBLE_EQ((*ra)[0].metrics.avg_load_bytes,
                   (*rb)[0].metrics.avg_load_bytes);
}

}  // namespace
}  // namespace cascache
