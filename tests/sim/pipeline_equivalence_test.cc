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
// A second golden, tests/data/event_golden.csv, pins the event-driven
// replay the same way: contended cells (service costs, bounded queues,
// finite links, open-loop and trace-timed arrivals) with tiers, siblings,
// invalidation and an active fault schedule, plus one zero-cost cell with
// contention forced on. Besides the analytic summary it pins the
// contention, fault, tier and sibling aggregates and the per-node
// counter totals.
//
// A third, tests/data/trace_golden.jsonl, pins the sampled event trace
// record by record (content and order) over small cells that together
// emit every TraceEventType.
//
// Regenerate (only when an *intentional* numeric change is made):
//   CASCACHE_REGEN_GOLDEN=1 ./cascache_tests
//     --gtest_filter=PipelineEquivalenceTest.*  (one command line)
// and commit the updated tests/data/*_golden.* alongside the change
// that explains it.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
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

std::string GoldenPath(const std::string& name) {
  return std::string(CASCACHE_TEST_DATA_DIR) + "/" + name;
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

/// The event-driven replay's own aggregates (all zero in analytic runs)
/// and the per-node counter totals, which are written at exchange time
/// rather than at completion.
void AddEventRows(std::vector<std::string>* rows, const std::string& case_name,
                  const std::string& label, const sim::RunResult& r) {
  const sim::MetricsSummary& m = r.metrics;
  AddRow(rows, case_name, label, "served_requests",
         std::to_string(m.served_requests));
  AddRow(rows, case_name, label, "failed_requests",
         std::to_string(m.failed_requests));
  AddRow(rows, case_name, label, "shed_requests",
         std::to_string(m.shed_requests));
  AddRow(rows, case_name, label, "shed_placements",
         std::to_string(m.shed_placements));
  AddRow(rows, case_name, label, "avg_queue_wait",
         FmtDouble(m.avg_queue_wait));
  AddRow(rows, case_name, label, "avg_message_bytes",
         FmtDouble(m.avg_message_bytes));
  AddRow(rows, case_name, label, "retries", std::to_string(m.retries));
  AddRow(rows, case_name, label, "reroutes", std::to_string(m.reroutes));
  AddRow(rows, case_name, label, "crashes_applied",
         std::to_string(m.crashes_applied));
  AddRow(rows, case_name, label, "degraded_decisions",
         std::to_string(m.degraded_decisions));
  AddRow(rows, case_name, label, "ram_hits", std::to_string(m.ram_hits));
  AddRow(rows, case_name, label, "disk_hits", std::to_string(m.disk_hits));
  AddRow(rows, case_name, label, "promotions", std::to_string(m.promotions));
  AddRow(rows, case_name, label, "sibling_probes",
         std::to_string(m.sibling_probes));
  AddRow(rows, case_name, label, "sibling_hits",
         std::to_string(m.sibling_hits));
  AddRow(rows, case_name, label, "disk_degraded",
         std::to_string(m.disk_degraded));
  sim::NodeCounters totals;
  for (const sim::NodeUsage& u : r.per_node) totals += u.counters;
  AddRow(rows, case_name, label, "node_hits", std::to_string(totals.hits));
  AddRow(rows, case_name, label, "node_misses", std::to_string(totals.misses));
  AddRow(rows, case_name, label, "node_placements",
         std::to_string(totals.placements));
  AddRow(rows, case_name, label, "node_evictions",
         std::to_string(totals.evictions));
  AddRow(rows, case_name, label, "node_sheds", std::to_string(totals.sheds));
  AddRow(rows, case_name, label, "node_store_sheds",
         std::to_string(totals.store_sheds));
  AddRow(rows, case_name, label, "node_max_queue_depth",
         std::to_string(totals.max_queue_depth));
  AddRow(rows, case_name, label, "node_invalidations",
         std::to_string(totals.invalidations));
}

/// Runs one sweep case through the ExperimentRunner (one worker, which
/// runs the cells in order, each on a fresh cache plane) and appends its
/// golden rows; `event_rows` adds AddEventRows for every cell.
void RunSweepCase(const std::string& case_name,
                  const sim::ExperimentConfig& config,
                  std::vector<std::string>* rows, bool event_rows = false) {
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
    if (event_rows) AddEventRows(rows, case_name, label, r);
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

/// Event-driven cells: LRU and Coordinated under contention. Any drift in
/// arrival timing, exchange order or completion-order recording changes
/// at least one row.
std::vector<std::string> ComputeEventRows() {
  std::vector<std::string> rows;
  std::vector<schemes::SchemeSpec> schemes(2);
  schemes[0].kind = schemes::SchemeKind::kLru;
  schemes[1].kind = schemes::SchemeKind::kCoordinated;

  // Case 1: the hierarchical tree near the shedding knee, open-loop on a
  // ramp, with every feature of the full exchange on.
  {
    sim::ExperimentConfig cfg;
    cfg.network.architecture = sim::Architecture::kHierarchical;
    cfg.workload = SmallWorkload();
    cfg.cache_fractions = {0.01, 0.03};
    cfg.schemes = schemes;
    sim::ContentionParams& c = cfg.sim.contention;
    c.lookup_cost = 0.002;
    c.store_cost = 0.001;
    c.dcache_cost = 0.0005;
    c.node_queue_capacity = 16;
    c.link_bandwidth = 1e8;
    c.arrival_rate = 250.0;
    c.arrival_ramp = 0.01;
    cfg.sim.tier.ram_fraction = 0.1;
    cfg.sim.tier.ram_hit_cost = 0.0001;
    cfg.sim.tier.disk_hit_cost = 0.002;
    cfg.sim.sibling.enabled = true;
    cfg.sim.sibling.level = 0;
    cfg.sim.sibling.probe_cost = 0.0002;
    sim::FaultScheduleConfig& f = cfg.sim.faults;
    f.node_crash_mtbf = 60.0;
    f.node_downtime = 2.0;
    f.link_mtbf = 400.0;
    f.link_downtime = 0.5;
    f.request_timeout = 0.05;
    f.retry_backoff = 0.01;
    f.ascent_loss_prob = 0.01;
    f.decision_loss_prob = 0.01;
    f.disk_fail_mtbf = 60.0;
    f.disk_fail_downtime = 3.0;
    f.sibling_loss_prob = 0.01;
    cfg.sim.coherency.protocol = sim::CoherencyProtocol::kInvalidation;
    cfg.sim.coherency.mutable_fraction = 0.2;
    cfg.sim.coherency.mean_update_period = 60.0;
    RunSweepCase("event_hier_chaos", cfg, &rows, /*event_rows=*/true);
    if (::testing::Test::HasFatalFailure()) return rows;
  }

  // Case 2: trace-timed arrivals on the Tiers en-route graph, with link
  // outages that force detours around the table routes.
  {
    sim::ExperimentConfig cfg;
    cfg.network.architecture = sim::Architecture::kEnRoute;
    cfg.workload = SmallWorkload();
    cfg.cache_fractions = {0.03};
    cfg.schemes = schemes;
    sim::ContentionParams& c = cfg.sim.contention;
    c.lookup_cost = 0.0005;
    c.store_cost = 0.0005;
    c.node_queue_capacity = 16;
    c.link_bandwidth = 5e7;
    cfg.sim.faults.link_mtbf = 1000.0;
    cfg.sim.faults.link_downtime = 5.0;
    RunSweepCase("event_enroute_trace_timed", cfg, &rows,
                 /*event_rows=*/true);
    if (::testing::Test::HasFatalFailure()) return rows;
  }

  // Case 3: contention forced on with every cost zero.
  {
    sim::ExperimentConfig cfg;
    cfg.network.architecture = sim::Architecture::kHierarchical;
    cfg.workload = SmallWorkload();
    cfg.cache_fractions = {0.03};
    cfg.schemes = schemes;
    cfg.sim.contention.enabled = true;
    RunSweepCase("event_zero_cost", cfg, &rows, /*event_rows=*/true);
    if (::testing::Test::HasFatalFailure()) return rows;
  }

  return rows;
}

/// Compares `rows` with the golden file `name` line by line, or rewrites
/// the file (and skips) under CASCACHE_REGEN_GOLDEN.
void ExpectMatchesGolden(const std::string& name,
                         const std::vector<std::string>& rows) {
  ASSERT_FALSE(rows.empty());
  const std::string path = GoldenPath(name);

  if (std::getenv("CASCACHE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    for (const std::string& row : rows) out << row << "\n";
    out.close();
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "regenerated " << path << " (" << rows.size()
                 << " rows)";
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
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

/// Sampled-trace cells: small enough that every record of every sampled
/// request fits the golden, varied enough that every record type shows.
trace::WorkloadParams TraceWorkload() {
  trace::WorkloadParams w;
  w.num_objects = 400;
  w.num_requests = 1'500;
  w.num_clients = 100;
  w.num_servers = 20;
  return w;
}

/// Runs one traced sweep case (one worker, cells in order) and appends
/// every record of every cell as one JSON line annotated with the case
/// and cell, in ring order (the ring never wraps here, so that is
/// emission order).
void RunTraceCase(const std::string& case_name,
                  const sim::ExperimentConfig& config,
                  std::vector<std::string>* rows,
                  double sampling_rate) {
  sim::ExperimentConfig cfg = config;
  cfg.jobs = 1;
  cfg.workload = TraceWorkload();
  cfg.sim.trace.enabled = true;
  cfg.sim.trace.sampling_rate = sampling_rate;
  cfg.sim.trace.ring_capacity = 1 << 20;
  auto runner_or = sim::ExperimentRunner::Create(cfg);
  ASSERT_TRUE(runner_or.ok()) << runner_or.status().ToString();
  auto results_or = (*runner_or)->RunAll();
  ASSERT_TRUE(results_or.ok()) << results_or.status().ToString();
  for (const sim::RunResult& r : *results_or) {
    char label[64];
    std::snprintf(label, sizeof(label), "%s@%g", r.scheme.c_str(),
                  r.cache_fraction);
    ASSERT_LT(r.trace_events.size(), cfg.sim.trace.ring_capacity);
    for (const sim::TraceEvent& event : r.trace_events) {
      std::string line =
          "{\"case\":\"" + case_name + "\",\"cell\":\"" + label + "\",";
      sim::EventTrace::AppendJsonFields(event, &line);
      rows->push_back(line + "}");
    }
  }
}

/// First freeze point at or after `at_least` whose triggering request is
/// sampled, so STATIC's freeze fill (one placement per frozen copy)
/// lands in the trace. Freeze runs on the `k`-th served request, i.e.
/// request index k - 1 when nothing fails or sheds.
uint64_t SampledFreezePoint(uint64_t at_least, double sampling_rate) {
  sim::EventTraceOptions opts;
  opts.enabled = true;
  opts.sampling_rate = sampling_rate;
  const sim::EventTrace sampler(opts);
  uint64_t k = at_least;
  while (!sampler.SampleRequest(k - 1)) ++k;
  return k;
}

/// Pins the sampled event trace record by record: content and order of
/// every record type, over contention + tiers + siblings + faults, detours
/// and the three coherency protocols, for LRU, Coordinated, LNC-R, GDS
/// and STATIC.
std::vector<std::string> ComputeTraceRows() {
  std::vector<std::string> rows;

  // Case 1: the contended, tiered, sibling-cooperating hierarchy under a
  // dense fault schedule.
  {
    sim::ExperimentConfig cfg;
    cfg.network.architecture = sim::Architecture::kHierarchical;
    cfg.cache_fractions = {0.03};
    cfg.schemes.resize(2);
    cfg.schemes[0].kind = schemes::SchemeKind::kLru;
    cfg.schemes[1].kind = schemes::SchemeKind::kCoordinated;
    sim::ContentionParams& c = cfg.sim.contention;
    c.lookup_cost = 0.002;
    c.store_cost = 0.001;
    c.dcache_cost = 0.0005;
    c.node_queue_capacity = 8;
    c.link_bandwidth = 1e8;
    c.arrival_rate = 300.0;
    c.arrival_ramp = 0.5;
    cfg.sim.tier.ram_fraction = 0.5;
    cfg.sim.tier.ram_hit_cost = 0.0001;
    cfg.sim.tier.disk_hit_cost = 0.002;
    cfg.sim.sibling.enabled = true;
    cfg.sim.sibling.level = 0;
    cfg.sim.sibling.probe_cost = 0.0002;
    sim::FaultScheduleConfig& f = cfg.sim.faults;
    f.node_crash_mtbf = 2.0;
    f.node_downtime = 0.2;
    f.link_mtbf = 40.0;
    f.link_downtime = 1.0;
    f.request_timeout = 0.05;
    f.retry_backoff = 0.01;
    f.ascent_loss_prob = 0.02;
    f.decision_loss_prob = 0.02;
    f.disk_fail_mtbf = 20.0;
    f.disk_fail_downtime = 3.0;
    f.sibling_loss_prob = 0.05;
    RunTraceCase("trace_chaos", cfg, &rows, /*sampling_rate=*/0.04);
    if (::testing::Test::HasFatalFailure()) return rows;
  }

  // Case 2: link outages on the en-route graph force detours; the small
  // cache rejects the larger objects.
  {
    sim::ExperimentConfig cfg;
    cfg.network.architecture = sim::Architecture::kEnRoute;
    cfg.cache_fractions = {0.005};
    cfg.schemes.resize(1);
    cfg.schemes[0].kind = schemes::SchemeKind::kGds;
    cfg.sim.faults.link_mtbf = 20.0;
    cfg.sim.faults.link_downtime = 2.0;
    RunTraceCase("trace_detour", cfg, &rows, /*sampling_rate=*/0.01);
    if (::testing::Test::HasFatalFailure()) return rows;
  }

  // Cases 3-5: the coherency protocols under the analytic hierarchy, with
  // every object mutable and updated every few seconds.
  for (const auto& [name, protocol, ttl, first, second] :
       {std::tuple<const char*, sim::CoherencyProtocol, double,
                   schemes::SchemeKind, schemes::SchemeKind>{
            "trace_ttl", sim::CoherencyProtocol::kTtl, 1.0,
            schemes::SchemeKind::kLncr, schemes::SchemeKind::kGds},
        {"trace_inval", sim::CoherencyProtocol::kInvalidation, 3600.0,
         schemes::SchemeKind::kCoordinated, schemes::SchemeKind::kGds},
        {"trace_stale", sim::CoherencyProtocol::kNone, 3600.0,
         schemes::SchemeKind::kLru, schemes::SchemeKind::kCoordinated}}) {
    sim::ExperimentConfig cfg;
    cfg.network.architecture = sim::Architecture::kHierarchical;
    cfg.sim.coherency.protocol = protocol;
    cfg.sim.coherency.ttl = ttl;
    cfg.sim.coherency.mutable_fraction = 1.0;
    cfg.sim.coherency.mean_update_period = 3.0;
    cfg.cache_fractions = {0.03};
    cfg.schemes.resize(2);
    cfg.schemes[0].kind = first;
    cfg.schemes[1].kind = second;
    RunTraceCase(name, cfg, &rows, /*sampling_rate=*/0.02);
    if (::testing::Test::HasFatalFailure()) return rows;
  }

  // Case 6: STATIC's freeze fill on a sampled request, on a plane small
  // enough to keep the fill to a few hundred records.
  {
    sim::ExperimentConfig cfg;
    cfg.network.architecture = sim::Architecture::kHierarchical;
    cfg.cache_fractions = {0.002};
    cfg.schemes.resize(1);
    cfg.schemes[0].kind = schemes::SchemeKind::kStatic;
    cfg.schemes[0].static_freeze_requests =
        SampledFreezePoint(750, /*sampling_rate=*/0.02);
    RunTraceCase("trace_static", cfg, &rows, /*sampling_rate=*/0.02);
    if (::testing::Test::HasFatalFailure()) return rows;
  }

  return rows;
}

TEST(PipelineEquivalenceTest, MatchesPreRefactorGolden) {
  const std::vector<std::string> rows = ComputeRows();
  if (::testing::Test::HasFatalFailure()) return;
  ExpectMatchesGolden("pipeline_golden.csv", rows);
}

TEST(PipelineEquivalenceTest, EventDrivenMatchesGolden) {
  const std::vector<std::string> rows = ComputeEventRows();
  if (::testing::Test::HasFatalFailure()) return;
  ExpectMatchesGolden("event_golden.csv", rows);
}

TEST(PipelineEquivalenceTest, TraceRecordsMatchGolden) {
  const std::vector<std::string> rows = ComputeTraceRows();
  if (::testing::Test::HasFatalFailure()) return;
  std::set<std::string> types;
  for (const std::string& row : rows) {
    const size_t at = row.find("\"type\":\"");
    ASSERT_NE(at, std::string::npos) << row;
    const size_t begin = at + 8;
    types.insert(row.substr(begin, row.find('"', begin) - begin));
  }
  for (int t = 0; t <= static_cast<int>(sim::TraceEventType::kDemotion);
       ++t) {
    EXPECT_TRUE(types.count(
        sim::TraceEventTypeName(static_cast<sim::TraceEventType>(t))))
        << "no " << sim::TraceEventTypeName(static_cast<sim::TraceEventType>(t))
        << " record";
  }
  ExpectMatchesGolden("trace_golden.jsonl", rows);
}

}  // namespace
}  // namespace cascache
