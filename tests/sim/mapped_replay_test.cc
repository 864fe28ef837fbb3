// Mapped-replay equivalence: replaying a workload through the v2
// mmap path (WriteTrace -> MappedTrace -> ExperimentRunner::
// CreateFromTrace) must be bit-identical to generating and replaying
// it in RAM. Anchored against tests/data/pipeline_golden.csv — the
// same golden file the pipeline-equivalence test pins — by re-deriving
// its `enroute_all` case through the mapping, so any divergence in the
// zero-copy span plumbing (chunked replay, warm-up splits, page
// release) shows up as a golden mismatch, not just an internal
// inconsistency. The event-driven replay streams through the same
// chunked loop; it is checked against its own in-RAM replay.

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "schemes/coordinated_scheme.h"
#include "sim/experiment.h"
#include "testing/trace_v1_fixture.h"
#include "trace/mapped_trace.h"
#include "trace/trace_io.h"

namespace cascache {
namespace {

std::string FmtDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The golden matrix's workload (must match pipeline_equivalence_test).
trace::WorkloadParams GoldenWorkloadParams() {
  trace::WorkloadParams w;
  w.num_objects = 1500;
  w.num_requests = 12'000;
  w.num_clients = 200;
  w.num_servers = 40;
  return w;
}

std::vector<schemes::SchemeSpec> AllSchemes() {
  std::vector<schemes::SchemeSpec> specs(7);
  specs[0].kind = schemes::SchemeKind::kLru;
  specs[1].kind = schemes::SchemeKind::kModulo;
  specs[2].kind = schemes::SchemeKind::kLncr;
  specs[3].kind = schemes::SchemeKind::kCoordinated;
  specs[4].kind = schemes::SchemeKind::kGds;
  specs[5].kind = schemes::SchemeKind::kLfu;
  specs[6].kind = schemes::SchemeKind::kStatic;
  return specs;
}

sim::ExperimentConfig EnrouteAllConfig() {
  sim::ExperimentConfig cfg;
  cfg.network.architecture = sim::Architecture::kEnRoute;
  cfg.workload = GoldenWorkloadParams();
  cfg.cache_fractions = {0.01, 0.03};
  cfg.schemes = AllSchemes();
  cfg.jobs = 1;
  return cfg;
}

/// Serializes one cell the way the golden file does
/// (`case,label,field,value` with %.17g doubles), restricted to the
/// fields AddSummaryRows emits.
void AddSummaryRows(std::vector<std::string>* rows, const std::string& label,
                    const sim::MetricsSummary& m) {
  const auto add = [&](const std::string& field, const std::string& value) {
    rows->push_back("enroute_all," + label + "," + field + "," + value);
  };
  add("requests", std::to_string(m.requests));
  add("avg_latency", FmtDouble(m.avg_latency));
  add("avg_response_ratio", FmtDouble(m.avg_response_ratio));
  add("byte_hit_ratio", FmtDouble(m.byte_hit_ratio));
  add("hit_ratio", FmtDouble(m.hit_ratio));
  add("avg_traffic_byte_hops", FmtDouble(m.avg_traffic_byte_hops));
  add("avg_hops", FmtDouble(m.avg_hops));
  add("avg_load_bytes", FmtDouble(m.avg_load_bytes));
  add("read_load_share", FmtDouble(m.read_load_share));
  add("avg_write_bytes", FmtDouble(m.avg_write_bytes));
  add("total_bytes_requested", std::to_string(m.total_bytes_requested));
  add("bytes_from_caches", std::to_string(m.bytes_from_caches));
  add("stale_hit_ratio", FmtDouble(m.stale_hit_ratio));
  add("copies_expired", std::to_string(m.copies_expired));
  add("copies_invalidated", std::to_string(m.copies_invalidated));
}

std::vector<std::string> GoldenEnrouteRows() {
  std::ifstream in(std::string(CASCACHE_TEST_DATA_DIR) +
                   "/pipeline_golden.csv");
  std::vector<std::string> rows;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("enroute_all,", 0) == 0) rows.push_back(line);
  }
  return rows;
}

std::vector<std::string> RowsFromResults(
    const std::vector<sim::RunResult>& results) {
  std::vector<std::string> rows;
  for (const sim::RunResult& r : results) {
    char label[64];
    std::snprintf(label, sizeof(label), "%s@%g", r.scheme.c_str(),
                  r.cache_fraction);
    AddSummaryRows(&rows, label, r.metrics);
  }
  return rows;
}

class MappedReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test: ctest runs tests in parallel processes, and
    // truncating a trace another process has mapped raises SIGBUS.
    trace_path_ =
        ::testing::TempDir() + "/mapped_replay_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".cctr";
    auto workload_or = trace::GenerateWorkload(GoldenWorkloadParams());
    ASSERT_TRUE(workload_or.ok()) << workload_or.status();
    ASSERT_TRUE(trace::WriteTrace(*workload_or, trace_path_).ok());
    golden_ = GoldenEnrouteRows();
    ASSERT_FALSE(golden_.empty()) << "missing enroute_all golden rows";
  }

  void TearDown() override {
    std::remove(trace_path_.c_str());
    for (const std::string& path : patched_paths_) std::remove(path.c_str());
  }

  /// Copies the trace with `value` written over one field of request
  /// `index` (the field at byte `field_offset` of its record), as a
  /// corrupt or hostile file would carry it. Returns the copy's path.
  template <typename T>
  std::string PatchRecord(size_t index, size_t field_offset, T value) {
    std::string bytes;
    {
      std::ifstream in(trace_path_, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    uint64_t request_offset = 0;
    std::memcpy(&request_offset, bytes.data() + 24, sizeof(request_offset));
    std::memcpy(bytes.data() + request_offset +
                    index * sizeof(trace::Request) + field_offset,
                &value, sizeof(value));
    const std::string path =
        trace_path_ + ".patched" + std::to_string(patched_paths_.size());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    patched_paths_.push_back(path);
    return path;
  }

  void ExpectMatchesGolden(const std::vector<sim::RunResult>& results) {
    const std::vector<std::string> rows = RowsFromResults(results);
    ASSERT_EQ(rows.size(), golden_.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i], golden_[i]) << "mapped replay diverged at row " << i;
    }
  }

  std::string trace_path_;
  std::vector<std::string> patched_paths_;
  std::vector<std::string> golden_;
};

TEST_F(MappedReplayTest, MmapReplayReproducesGoldenBitForBit) {
  auto runner_or =
      sim::ExperimentRunner::CreateFromTrace(EnrouteAllConfig(), trace_path_);
  ASSERT_TRUE(runner_or.ok()) << runner_or.status();
  ASSERT_NE((*runner_or)->mapped_trace(), nullptr)
      << "a v2 trace must take the mmap path";
  auto results_or = (*runner_or)->RunAll();
  ASSERT_TRUE(results_or.ok()) << results_or.status();
  ExpectMatchesGolden(*results_or);
}

TEST_F(MappedReplayTest, PageReleaseReplayIsStillBitIdentical) {
  sim::ExperimentConfig cfg = EnrouteAllConfig();
  cfg.release_trace_pages = true;
  auto runner_or = sim::ExperimentRunner::CreateFromTrace(cfg, trace_path_);
  ASSERT_TRUE(runner_or.ok()) << runner_or.status();
  auto results_or = (*runner_or)->RunAll();
  ASSERT_TRUE(results_or.ok()) << results_or.status();
  ExpectMatchesGolden(*results_or);
}

TEST_F(MappedReplayTest, ParallelCellsShareOneMappingDeterministically) {
  sim::ExperimentConfig cfg = EnrouteAllConfig();
  cfg.jobs = 4;
  auto runner_or = sim::ExperimentRunner::CreateFromTrace(cfg, trace_path_);
  ASSERT_TRUE(runner_or.ok()) << runner_or.status();
  auto results_or = (*runner_or)->RunAll();
  ASSERT_TRUE(results_or.ok()) << results_or.status();
  ExpectMatchesGolden(*results_or);
}

TEST_F(MappedReplayTest, V1TraceFallsBackToInRamLoad) {
  // The checked-in v1 trace is not mmap-able: MappedTrace copies its
  // records into RAM, and the replay is bit-identical to generating the
  // same workload in RAM.
  sim::ExperimentConfig cfg = EnrouteAllConfig();
  cfg.workload = testing::V1FixtureParams();
  auto runner_or =
      sim::ExperimentRunner::CreateFromTrace(cfg, testing::V1FixturePath());
  ASSERT_TRUE(runner_or.ok()) << runner_or.status();
  ASSERT_NE((*runner_or)->mapped_trace(), nullptr);
  EXPECT_EQ((*runner_or)->mapped_trace()->version(), trace::kTraceVersion1);
  auto results_or = (*runner_or)->RunAll();
  ASSERT_TRUE(results_or.ok()) << results_or.status();

  auto generated_or = sim::ExperimentRunner::Create(cfg);
  ASSERT_TRUE(generated_or.ok()) << generated_or.status();
  auto expected_or = (*generated_or)->RunAll();
  ASSERT_TRUE(expected_or.ok()) << expected_or.status();
  EXPECT_EQ(RowsFromResults(*results_or), RowsFromResults(*expected_or));
}

TEST_F(MappedReplayTest, CorruptRecordsFailWithInvalidArgument) {
  // Record-level corruption lies past Open()'s header and catalog checks;
  // CreateFromTrace must still refuse it instead of replaying it (an
  // object id past the catalog used to index out of bounds).
  const uint32_t num_objects = GoldenWorkloadParams().num_objects;
  const std::vector<std::string> corrupt = {
      PatchRecord(100, offsetof(trace::Request, object), num_objects),
      PatchRecord(100, offsetof(trace::Request, object), 0x7fffff00u),
      PatchRecord(100, offsetof(trace::Request, time), -1.0),
  };
  for (const std::string& path : corrupt) {
    auto runner_or =
        sim::ExperimentRunner::CreateFromTrace(EnrouteAllConfig(), path);
    ASSERT_FALSE(runner_or.ok()) << path;
    EXPECT_EQ(runner_or.status().code(), util::StatusCode::kInvalidArgument)
        << runner_or.status();
  }
}

TEST_F(MappedReplayTest, HugeClientIdReplaysWithoutPerClientState) {
  // The format bounds no client id. Decode hashes the id to its client
  // site on every request, so the largest id costs nothing extra (no
  // table sized by the id).
  const std::string path = PatchRecord(
      7'000, offsetof(trace::Request, client), trace::ClientId{0xFFFFFFFFu});
  sim::ExperimentConfig cfg = EnrouteAllConfig();
  cfg.schemes.resize(1);
  auto runner_or = sim::ExperimentRunner::CreateFromTrace(cfg, path);
  ASSERT_TRUE(runner_or.ok()) << runner_or.status();
  auto results_or = (*runner_or)->RunAll();
  ASSERT_TRUE(results_or.ok()) << results_or.status();
  for (const sim::RunResult& r : *results_or) {
    EXPECT_EQ(r.metrics.requests, 6'000u) << r.scheme;
  }
}

TEST_F(MappedReplayTest, EventDrivenStreamingReplayMatchesInRam) {
  // Contention on, open-loop arrivals, node crashes: the completion queue
  // carries in-flight requests across the chunk and phase boundaries
  // where on_consumed releases pages.
  sim::SimOptions options;
  options.contention.lookup_cost = 0.004;
  options.contention.store_cost = 0.001;
  options.contention.node_queue_capacity = 16;
  options.contention.link_bandwidth = 1e8;
  options.contention.arrival_rate = 400.0;
  options.faults.node_crash_mtbf = 30.0;
  options.faults.node_downtime = 2.0;
  const auto replay = [&options](const trace::WorkloadView& view) {
    sim::NetworkParams params;
    params.architecture = sim::Architecture::kHierarchical;
    auto network_or = sim::Network::Build(params, view.catalog);
    EXPECT_TRUE(network_or.ok()) << network_or.status();
    sim::CacheSet caches = (*network_or)->MakeCacheSet();
    schemes::CoordinatedScheme scheme;
    sim::Simulator simulator(network_or->get(), &caches, &scheme, options);
    const uint64_t capacity = static_cast<uint64_t>(
        0.03 * static_cast<double>(view.catalog->total_bytes()));
    EXPECT_TRUE(simulator.Run(view, capacity).ok());
    return simulator.metrics().Summary();
  };

  auto workload_or = trace::GenerateWorkload(GoldenWorkloadParams());
  ASSERT_TRUE(workload_or.ok()) << workload_or.status();
  const sim::MetricsSummary in_ram = replay(workload_or->View());

  auto mapped_or = trace::MappedTrace::Open(trace_path_);
  ASSERT_TRUE(mapped_or.ok()) << mapped_or.status();
  trace::WorkloadView streaming = (*mapped_or)->StreamingView();
  std::vector<size_t> consumed;
  streaming.on_consumed = [&consumed,
                           release = streaming.on_consumed](size_t index) {
    consumed.push_back(index);
    release(index);
  };
  const sim::MetricsSummary mapped = replay(streaming);

  // One chunk per phase at this size: the warm-up half, then the rest.
  EXPECT_EQ(consumed, (std::vector<size_t>{6'000, 12'000}));
  EXPECT_GT(in_ram.shed_requests, 0u);
  EXPECT_GT(in_ram.crashes_applied, 0u);
  std::vector<std::string> expected;
  std::vector<std::string> actual;
  AddSummaryRows(&expected, "event", in_ram);
  AddSummaryRows(&actual, "event", mapped);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(mapped.shed_requests, in_ram.shed_requests);
  EXPECT_EQ(mapped.served_requests, in_ram.served_requests);
  EXPECT_EQ(mapped.crashes_applied, in_ram.crashes_applied);
  EXPECT_EQ(FmtDouble(mapped.avg_queue_wait), FmtDouble(in_ram.avg_queue_wait));
}

}  // namespace
}  // namespace cascache
