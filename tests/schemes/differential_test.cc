// Differential and invariant properties across schemes, run on full
// randomized workloads: equivalences the design implies (MODULO with
// radius 1 degenerates to LRU, §3.3), structural cache invariants after
// sustained churn, and metric conservation laws.

#include <gtest/gtest.h>

#include "sim/experiment.h"

namespace cascache::schemes {
namespace {

using sim::Architecture;
using sim::ExperimentConfig;
using sim::ExperimentRunner;
using sim::MetricsSummary;
using sim::RunResult;

ExperimentConfig SmallConfig(Architecture arch, uint64_t seed = 77) {
  ExperimentConfig config;
  config.network.architecture = arch;
  config.network.tiers.wan_nodes = 20;
  config.network.tiers.man_nodes = 20;
  config.network.tiers.wan_redundancy_edges = 10;
  config.network.tiers.man_redundancy_edges = 8;
  config.network.tree.depth = 3;
  config.workload.num_objects = 800;
  config.workload.num_requests = 60'000;
  config.workload.num_clients = 100;
  config.workload.num_servers = 20;
  config.workload.seed = seed;
  config.cache_fractions = {0.02};
  return config;
}

class ModuloOneEqualsLru : public ::testing::TestWithParam<Architecture> {};

TEST_P(ModuloOneEqualsLru, IdenticalMetrics) {
  // A cache radius of 1 places at every node the response crosses, so
  // MODULO(1) degenerates to LRU (paper §3.3). Under the hierarchical
  // architecture the equivalence is exact (the origin sits one virtual
  // hop above the root, so every cache is at positive distance). Under
  // en-route one corner differs: LRU also caches at the origin's
  // co-located attach node (hop distance 0); those copies are reachable
  // at zero extra delay but *occupy space*, displacing useful objects, so
  // the two schemes drift apart slightly — verify they stay close.
  const Architecture arch = GetParam();
  ExperimentConfig config = SmallConfig(arch);
  config.schemes = {{.kind = SchemeKind::kLru},
                    {.kind = SchemeKind::kModulo, .modulo_radius = 1}};
  auto runner_or = ExperimentRunner::Create(config);
  ASSERT_TRUE(runner_or.ok());
  auto results_or = (*runner_or)->RunAll();
  ASSERT_TRUE(results_or.ok());
  const MetricsSummary& lru = (*results_or)[0].metrics;
  const MetricsSummary& modulo1 = (*results_or)[1].metrics;
  if (arch == Architecture::kHierarchical) {
    EXPECT_DOUBLE_EQ(lru.avg_latency, modulo1.avg_latency);
    EXPECT_DOUBLE_EQ(lru.avg_response_ratio, modulo1.avg_response_ratio);
    EXPECT_DOUBLE_EQ(lru.avg_hops, modulo1.avg_hops);
    EXPECT_DOUBLE_EQ(lru.avg_traffic_byte_hops,
                     modulo1.avg_traffic_byte_hops);
    EXPECT_DOUBLE_EQ(lru.byte_hit_ratio, modulo1.byte_hit_ratio);
    EXPECT_DOUBLE_EQ(lru.avg_load_bytes, modulo1.avg_load_bytes);
    EXPECT_EQ(lru.bytes_from_caches, modulo1.bytes_from_caches);
  } else {
    EXPECT_NEAR(lru.avg_latency, modulo1.avg_latency,
                0.05 * lru.avg_latency);
    EXPECT_NEAR(lru.avg_hops, modulo1.avg_hops, 0.05 * lru.avg_hops);
    // LRU's extra zero-delay hits at server attach nodes raise its byte
    // hit ratio without helping latency.
    EXPECT_GE(lru.byte_hit_ratio + 1e-9, modulo1.byte_hit_ratio);
  }
}

INSTANTIATE_TEST_SUITE_P(Architectures, ModuloOneEqualsLru,
                         ::testing::Values(Architecture::kEnRoute,
                                           Architecture::kHierarchical),
                         [](const auto& info) {
                           return info.param == Architecture::kEnRoute
                                      ? "EnRoute"
                                      : "Hierarchical";
                         });

class SchemeInvariants
    : public ::testing::TestWithParam<std::tuple<SchemeKind, Architecture>> {
};

TEST_P(SchemeInvariants, NodesConsistentAfterFullRun) {
  const auto [kind, arch] = GetParam();
  ExperimentConfig config = SmallConfig(arch);
  config.schemes = {{.kind = kind, .modulo_radius = 4}};
  // Small caches: heavy eviction churn exercises every code path.
  config.cache_fractions = {0.005};
  auto runner_or = ExperimentRunner::Create(config);
  ASSERT_TRUE(runner_or.ok());
  // Replay the cell on a cache plane the test owns, so the post-run
  // state stays inspectable. STATIC learns over the warm-up half, as in
  // ExperimentRunner.
  SchemeSpec spec = config.schemes[0];
  spec.static_freeze_requests = config.workload.num_requests / 2;
  auto scheme_or = MakeScheme(spec);
  ASSERT_TRUE(scheme_or.ok());
  const sim::Network* network = (*runner_or)->network();
  sim::CacheSet caches = network->MakeCacheSet();
  sim::Simulator simulator(network, &caches, scheme_or->get(), config.sim);
  const trace::Workload& workload = (*runner_or)->workload();
  ASSERT_TRUE(simulator
                  .Run(workload, static_cast<uint64_t>(
                                     config.cache_fractions[0] *
                                     static_cast<double>(
                                         workload.catalog.total_bytes())))
                  .ok());
  for (topology::NodeId v = 0; v < network->num_nodes(); ++v) {
    EXPECT_TRUE(caches.node(v)->CheckInvariants()) << "node " << v;
  }
}

TEST_P(SchemeInvariants, MetricConservationLaws) {
  const auto [kind, arch] = GetParam();
  ExperimentConfig config = SmallConfig(arch);
  config.schemes = {{.kind = kind, .modulo_radius = 4}};
  auto runner_or = ExperimentRunner::Create(config);
  ASSERT_TRUE(runner_or.ok());
  auto results_or = (*runner_or)->RunAll();
  ASSERT_TRUE(results_or.ok());
  const MetricsSummary& m = (*results_or)[0].metrics;
  EXPECT_GE(m.byte_hit_ratio, 0.0);
  EXPECT_LE(m.byte_hit_ratio, 1.0);
  EXPECT_LE(m.bytes_from_caches, m.total_bytes_requested);
  // Read load is exactly the bytes served from caches.
  const double total_load = m.avg_load_bytes * static_cast<double>(m.requests);
  EXPECT_NEAR(total_load * m.read_load_share,
              static_cast<double>(m.bytes_from_caches),
              1e-6 * total_load + 1.0);
  // Latency can never beat serving everything from the first cache (0)
  // nor exceed every request going to the farthest origin; hops likewise.
  EXPECT_GE(m.avg_hops, 0.0);
  EXPECT_GE(m.avg_latency, 0.0);
  // Response ratio and latency order schemes the same way only with
  // uniform sizes, but both must be finite and positive here.
  EXPECT_GT(m.avg_response_ratio, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    All, SchemeInvariants,
    ::testing::Combine(::testing::Values(SchemeKind::kLru, SchemeKind::kModulo,
                                         SchemeKind::kLncr,
                                         SchemeKind::kCoordinated,
                                         SchemeKind::kGds, SchemeKind::kLfu,
                                         SchemeKind::kStatic),
                       ::testing::Values(Architecture::kEnRoute,
                                         Architecture::kHierarchical)),
    [](const auto& info) {
      std::string name;
      switch (std::get<0>(info.param)) {
        case SchemeKind::kLru: name = "Lru"; break;
        case SchemeKind::kModulo: name = "Modulo"; break;
        case SchemeKind::kLncr: name = "Lncr"; break;
        case SchemeKind::kCoordinated: name = "Coordinated"; break;
        case SchemeKind::kGds: name = "Gds"; break;
        case SchemeKind::kLfu: name = "Lfu"; break;
        case SchemeKind::kStatic: name = "Static"; break;
      }
      name += std::get<1>(info.param) == Architecture::kEnRoute ? "EnRoute"
                                                                : "Hier";
      return name;
    });

}  // namespace
}  // namespace cascache::schemes
