// Golden equivalence test for the request-path pipeline.
//
// The hop-by-hop message pipeline (src/sim/message.h) must be
// bit-identical to the monolithic pre-refactor request walk. This test
// replays a fixed matrix of workloads — both architectures, all seven
// schemes, and every coherency protocol — and compares all replay-derived
// metrics against a golden file generated with the pre-refactor
// simulator. Doubles are serialized with %.17g, which round-trips IEEE
// doubles exactly, so a string match is a bit-exact match.
//
// Regenerate (only when an *intentional* numeric change is made):
//   CASCACHE_REGEN_GOLDEN=1 ./cascache_tests
//     --gtest_filter=PipelineEquivalenceTest.*  (one command line)
// and commit the updated tests/data/pipeline_golden.csv alongside the
// change that explains it.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "schemes/coordinated_scheme.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"

namespace cascache {
namespace {

std::string GoldenPath() {
  return std::string(CASCACHE_TEST_DATA_DIR) + "/pipeline_golden.csv";
}

std::string FmtDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// One golden line: `case,label,field,value`.
void AddRow(std::vector<std::string>* rows, const std::string& case_name,
            const std::string& label, const std::string& field,
            const std::string& value) {
  rows->push_back(case_name + "," + label + "," + field + "," + value);
}

void AddSummaryRows(std::vector<std::string>* rows,
                    const std::string& case_name, const std::string& label,
                    const sim::MetricsSummary& m) {
  AddRow(rows, case_name, label, "requests", std::to_string(m.requests));
  AddRow(rows, case_name, label, "avg_latency", FmtDouble(m.avg_latency));
  AddRow(rows, case_name, label, "avg_response_ratio",
         FmtDouble(m.avg_response_ratio));
  AddRow(rows, case_name, label, "byte_hit_ratio",
         FmtDouble(m.byte_hit_ratio));
  AddRow(rows, case_name, label, "hit_ratio", FmtDouble(m.hit_ratio));
  AddRow(rows, case_name, label, "avg_traffic_byte_hops",
         FmtDouble(m.avg_traffic_byte_hops));
  AddRow(rows, case_name, label, "avg_hops", FmtDouble(m.avg_hops));
  AddRow(rows, case_name, label, "avg_load_bytes",
         FmtDouble(m.avg_load_bytes));
  AddRow(rows, case_name, label, "read_load_share",
         FmtDouble(m.read_load_share));
  AddRow(rows, case_name, label, "avg_write_bytes",
         FmtDouble(m.avg_write_bytes));
  AddRow(rows, case_name, label, "total_bytes_requested",
         std::to_string(m.total_bytes_requested));
  AddRow(rows, case_name, label, "bytes_from_caches",
         std::to_string(m.bytes_from_caches));
  AddRow(rows, case_name, label, "stale_hit_ratio",
         FmtDouble(m.stale_hit_ratio));
  AddRow(rows, case_name, label, "copies_expired",
         std::to_string(m.copies_expired));
  AddRow(rows, case_name, label, "copies_invalidated",
         std::to_string(m.copies_invalidated));
}

std::vector<schemes::SchemeSpec> AllSchemes() {
  std::vector<schemes::SchemeSpec> specs(7);
  specs[0].kind = schemes::SchemeKind::kLru;
  specs[1].kind = schemes::SchemeKind::kModulo;  // radius 4 (default)
  specs[2].kind = schemes::SchemeKind::kLncr;
  specs[3].kind = schemes::SchemeKind::kCoordinated;
  specs[4].kind = schemes::SchemeKind::kGds;
  specs[5].kind = schemes::SchemeKind::kLfu;
  specs[6].kind = schemes::SchemeKind::kStatic;
  return specs;
}

trace::WorkloadParams SmallWorkload() {
  trace::WorkloadParams w;
  w.num_objects = 1500;
  w.num_requests = 12'000;
  w.num_clients = 200;
  w.num_servers = 40;
  return w;
}

/// Runs one sweep case through the ExperimentRunner (one worker, which
/// runs the cells in order, each on a fresh cache plane) and appends its
/// golden rows.
void RunSweepCase(const std::string& case_name,
                  const sim::ExperimentConfig& config,
                  std::vector<std::string>* rows) {
  sim::ExperimentConfig cfg = config;
  cfg.jobs = 1;
  auto runner_or = sim::ExperimentRunner::Create(cfg);
  ASSERT_TRUE(runner_or.ok()) << runner_or.status().ToString();
  auto results_or = (*runner_or)->RunAll();
  ASSERT_TRUE(results_or.ok()) << results_or.status().ToString();
  for (const sim::RunResult& r : *results_or) {
    char label[64];
    std::snprintf(label, sizeof(label), "%s@%g", r.scheme.c_str(),
                  r.cache_fraction);
    AddSummaryRows(rows, case_name, label, r.metrics);
  }
}

/// Computes every golden row. Any numeric drift anywhere in the request
/// path — admission, coherency, latency accounting, scheme decisions,
/// metric aggregation — changes at least one row.
std::vector<std::string> ComputeRows() {
  std::vector<std::string> rows;

  // Case 1: en-route, all schemes, two cache sizes, latency cost model.
  {
    sim::ExperimentConfig cfg;
    cfg.network.architecture = sim::Architecture::kEnRoute;
    cfg.workload = SmallWorkload();
    cfg.cache_fractions = {0.01, 0.03};
    cfg.schemes = AllSchemes();
    RunSweepCase("enroute_all", cfg, &rows);
    if (::testing::Test::HasFatalFailure()) return rows;
  }

  // Case 2: hierarchical, all schemes, two cache sizes.
  {
    sim::ExperimentConfig cfg;
    cfg.network.architecture = sim::Architecture::kHierarchical;
    cfg.workload = SmallWorkload();
    cfg.cache_fractions = {0.01, 0.03};
    cfg.schemes = AllSchemes();
    RunSweepCase("hier_all", cfg, &rows);
    if (::testing::Test::HasFatalFailure()) return rows;
  }

  // Case 3: hops cost model (exercises the link_costs plane separately
  // from link_delays for the cost-aware schemes).
  {
    sim::ExperimentConfig cfg;
    cfg.network.architecture = sim::Architecture::kEnRoute;
    cfg.workload = SmallWorkload();
    cfg.sim.cost_model.kind = sim::CostModelKind::kHops;
    cfg.cache_fractions = {0.03};
    cfg.schemes.resize(3);
    cfg.schemes[0].kind = schemes::SchemeKind::kCoordinated;
    cfg.schemes[1].kind = schemes::SchemeKind::kLncr;
    cfg.schemes[2].kind = schemes::SchemeKind::kGds;
    RunSweepCase("enroute_hops", cfg, &rows);
    if (::testing::Test::HasFatalFailure()) return rows;
  }

  // Cases 4-6: coherency protocols (stale-serve, TTL, invalidation) for
  // LRU and Coordinated under the hierarchy. The 12k-request trace spans
  // ~120 simulated seconds, so updates must be fast to matter.
  for (const auto& [name, protocol, ttl] :
       {std::tuple<const char*, sim::CoherencyProtocol, double>{
            "hier_stale", sim::CoherencyProtocol::kNone, 3600.0},
        {"hier_ttl", sim::CoherencyProtocol::kTtl, 10.0},
        {"hier_inval", sim::CoherencyProtocol::kInvalidation, 3600.0}}) {
    sim::ExperimentConfig cfg;
    cfg.network.architecture = sim::Architecture::kHierarchical;
    cfg.workload = SmallWorkload();
    cfg.sim.coherency.protocol = protocol;
    cfg.sim.coherency.ttl = ttl;
    cfg.sim.coherency.mutable_fraction = 0.4;
    cfg.sim.coherency.mean_update_period = 30.0;
    cfg.cache_fractions = {0.03};
    cfg.schemes.resize(2);
    cfg.schemes[0].kind = schemes::SchemeKind::kLru;
    cfg.schemes[1].kind = schemes::SchemeKind::kCoordinated;
    RunSweepCase(name, cfg, &rows);
    if (::testing::Test::HasFatalFailure()) return rows;
  }

  // Case 7: coordinated protocol-accounting stats via a direct Simulator
  // run. Pins the message-byte totals and DP bookkeeping exactly, not
  // just the replay metrics.
  {
    trace::WorkloadParams wp = SmallWorkload();
    auto workload_or = trace::GenerateWorkload(wp);
    EXPECT_TRUE(workload_or.ok());
    if (!workload_or.ok()) return rows;
    sim::NetworkParams np;
    np.architecture = sim::Architecture::kHierarchical;
    auto network_or = sim::Network::Build(np, &workload_or->catalog);
    EXPECT_TRUE(network_or.ok());
    if (!network_or.ok()) return rows;
    schemes::CoordinatedScheme scheme;
    sim::CacheSet caches = (*network_or)->MakeCacheSet();
    sim::Simulator simulator(network_or->get(), &caches, &scheme);
    const uint64_t capacity = static_cast<uint64_t>(
        0.03 * static_cast<double>(workload_or->catalog.total_bytes()));
    auto status = simulator.Run(*workload_or, capacity);
    EXPECT_TRUE(status.ok()) << status.ToString();
    if (!status.ok()) return rows;

    const auto& s = scheme.stats();
    AddRow(&rows, "coord_stats", "Coordinated@0.03", "requests",
           std::to_string(s.requests));
    AddRow(&rows, "coord_stats", "Coordinated@0.03", "dp_runs",
           std::to_string(s.dp_runs));
    AddRow(&rows, "coord_stats", "Coordinated@0.03", "candidates",
           std::to_string(s.candidates));
    AddRow(&rows, "coord_stats", "Coordinated@0.03", "placements",
           std::to_string(s.placements));
    AddRow(&rows, "coord_stats", "Coordinated@0.03", "excluded_no_descriptor",
           std::to_string(s.excluded_no_descriptor));
    AddRow(&rows, "coord_stats", "Coordinated@0.03", "total_gain",
           FmtDouble(s.total_gain));
    AddRow(&rows, "coord_stats", "Coordinated@0.03", "piggyback_bytes",
           std::to_string(s.piggyback_bytes));
    AddSummaryRows(&rows, "coord_stats", "Coordinated@0.03",
                   simulator.metrics().Summary());
  }

  return rows;
}

TEST(PipelineEquivalenceTest, MatchesPreRefactorGolden) {
  std::vector<std::string> rows = ComputeRows();
  ASSERT_FALSE(rows.empty());

  if (std::getenv("CASCACHE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath(), std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
    for (const std::string& row : rows) out << row << "\n";
    out.close();
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "regenerated " << GoldenPath() << " (" << rows.size()
                 << " rows)";
  }

  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.good())
      << "missing golden file " << GoldenPath()
      << " — run with CASCACHE_REGEN_GOLDEN=1 on a known-good build";
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) golden.push_back(line);
  }

  ASSERT_EQ(golden.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(golden[i], rows[i]) << "golden mismatch at row " << i;
  }
}

}  // namespace
}  // namespace cascache
