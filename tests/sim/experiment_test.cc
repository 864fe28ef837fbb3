#include "sim/experiment.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include <gtest/gtest.h>

namespace cascache::sim {
namespace {

ExperimentConfig SmallConfig() {
  ExperimentConfig config;
  config.network.architecture = Architecture::kHierarchical;
  config.network.tree.depth = 3;
  config.workload.num_objects = 300;
  config.workload.num_requests = 20000;
  config.workload.num_clients = 50;
  config.workload.num_servers = 10;
  config.workload.seed = 5;
  config.cache_fractions = {0.01, 0.05};
  config.schemes = {{.kind = schemes::SchemeKind::kLru},
                    {.kind = schemes::SchemeKind::kCoordinated}};
  return config;
}

TEST(ExperimentTest, RunAllProducesOneRowPerCell) {
  auto runner_or = ExperimentRunner::Create(SmallConfig());
  ASSERT_TRUE(runner_or.ok()) << runner_or.status();
  auto results_or = (*runner_or)->RunAll();
  ASSERT_TRUE(results_or.ok());
  ASSERT_EQ(results_or->size(), 4u);  // 2 sizes x 2 schemes.
  for (const RunResult& r : *results_or) {
    EXPECT_GT(r.metrics.requests, 0u);
    EXPECT_GT(r.capacity_bytes, 0u);
    EXPECT_GE(r.metrics.byte_hit_ratio, 0.0);
    EXPECT_LE(r.metrics.byte_hit_ratio, 1.0);
    EXPECT_GE(r.metrics.avg_latency, 0.0);
  }
}

TEST(ExperimentTest, LargerCachesNeverHurtHitRatio) {
  auto runner_or = ExperimentRunner::Create(SmallConfig());
  ASSERT_TRUE(runner_or.ok());
  auto results_or = (*runner_or)->RunAll();
  ASSERT_TRUE(results_or.ok());
  // Results ordered: (0.01, LRU), (0.01, Coord), (0.05, LRU), (0.05, Coord).
  const auto& r = *results_or;
  EXPECT_GT(r[2].metrics.byte_hit_ratio, r[0].metrics.byte_hit_ratio);
  EXPECT_LE(r[2].metrics.avg_latency, r[0].metrics.avg_latency);
}

TEST(ExperimentTest, RunOneMatchesLabel) {
  auto runner_or = ExperimentRunner::Create(SmallConfig());
  ASSERT_TRUE(runner_or.ok());
  auto result_or =
      (*runner_or)->RunOne({.kind = schemes::SchemeKind::kModulo,
                            .modulo_radius = 2},
                           0.02);
  ASSERT_TRUE(result_or.ok());
  EXPECT_EQ(result_or->scheme, "MODULO(2)");
  EXPECT_DOUBLE_EQ(result_or->cache_fraction, 0.02);
}

TEST(ExperimentTest, RejectsBadConfigs) {
  ExperimentConfig config = SmallConfig();
  config.schemes.clear();
  EXPECT_FALSE(ExperimentRunner::Create(config).ok());

  config = SmallConfig();
  config.cache_fractions = {0.0};
  EXPECT_FALSE(ExperimentRunner::Create(config).ok());

  config = SmallConfig();
  config.cache_fractions = {1.5};
  EXPECT_FALSE(ExperimentRunner::Create(config).ok());

  config = SmallConfig();
  config.workload.num_objects = 0;
  EXPECT_FALSE(ExperimentRunner::Create(config).ok());
}

TEST(ExperimentTest, WriteResultsCsvRoundTrip) {
  std::vector<RunResult> results;
  RunResult r;
  r.scheme = "LRU";
  r.cache_fraction = 0.01;
  r.capacity_bytes = 12345;
  r.metrics.requests = 100;
  r.metrics.avg_latency = 0.5;
  r.metrics.byte_hit_ratio = 0.25;
  results.push_back(r);
  r.scheme = "Coordinated";
  results.push_back(r);

  const std::string path = ::testing::TempDir() + "/results.csv";
  ASSERT_TRUE(WriteResultsCsv(results, path).ok());
  std::ifstream in(path);
  std::string header, line1, line2, extra;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, header)));
  EXPECT_NE(header.find("scheme,cache_fraction"), std::string::npos);
  EXPECT_NE(header.find("byte_hit_ratio"), std::string::npos);
  ASSERT_TRUE(static_cast<bool>(std::getline(in, line1)));
  EXPECT_NE(line1.find("LRU,0.01,12345,100,0.5"), std::string::npos);
  ASSERT_TRUE(static_cast<bool>(std::getline(in, line2)));
  EXPECT_NE(line2.find("Coordinated"), std::string::npos);
  EXPECT_FALSE(static_cast<bool>(std::getline(in, extra)));
  std::remove(path.c_str());
}

TEST(ExperimentTest, WriteResultsCsvBadPathFails) {
  EXPECT_FALSE(
      WriteResultsCsv({}, "/nonexistent_dir_xyz/results.csv").ok());
}

// The parallel sweep contract: RunAll with N workers is bit-identical to
// the sequential legacy path, cell for cell, for every architecture.
void ExpectParallelMatchesSequential(ExperimentConfig config) {
  config.jobs = 1;
  auto seq_runner = ExperimentRunner::Create(config);
  ASSERT_TRUE(seq_runner.ok()) << seq_runner.status();
  auto seq_or = (*seq_runner)->RunAll();
  ASSERT_TRUE(seq_or.ok()) << seq_or.status();

  config.jobs = 4;
  auto par_runner = ExperimentRunner::Create(config);
  ASSERT_TRUE(par_runner.ok()) << par_runner.status();
  auto par_or = (*par_runner)->RunAll();
  ASSERT_TRUE(par_or.ok()) << par_or.status();

  const std::vector<RunResult>& seq = *seq_or;
  const std::vector<RunResult>& par = *par_or;
  ASSERT_EQ(par.size(), seq.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i) + " (" + seq[i].scheme + ")");
    EXPECT_EQ(par[i].scheme, seq[i].scheme);
    EXPECT_DOUBLE_EQ(par[i].cache_fraction, seq[i].cache_fraction);
    EXPECT_EQ(par[i].capacity_bytes, seq[i].capacity_bytes);
    const MetricsSummary& a = par[i].metrics;
    const MetricsSummary& b = seq[i].metrics;
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_DOUBLE_EQ(a.avg_latency, b.avg_latency);
    EXPECT_DOUBLE_EQ(a.avg_response_ratio, b.avg_response_ratio);
    EXPECT_DOUBLE_EQ(a.byte_hit_ratio, b.byte_hit_ratio);
    EXPECT_DOUBLE_EQ(a.hit_ratio, b.hit_ratio);
    EXPECT_DOUBLE_EQ(a.avg_traffic_byte_hops, b.avg_traffic_byte_hops);
    EXPECT_DOUBLE_EQ(a.avg_hops, b.avg_hops);
    EXPECT_DOUBLE_EQ(a.avg_load_bytes, b.avg_load_bytes);
    EXPECT_DOUBLE_EQ(a.read_load_share, b.read_load_share);
    EXPECT_DOUBLE_EQ(a.stale_hit_ratio, b.stale_hit_ratio);
    EXPECT_EQ(a.total_bytes_requested, b.total_bytes_requested);
    EXPECT_EQ(a.bytes_from_caches, b.bytes_from_caches);
    // wall_seconds/requests_per_sec are timing, not part of the contract.
  }
}

TEST(ExperimentTest, ParallelRunAllMatchesSequentialHierarchical) {
  ExperimentConfig config = SmallConfig();
  config.schemes = {{.kind = schemes::SchemeKind::kLru},
                    {.kind = schemes::SchemeKind::kCoordinated},
                    {.kind = schemes::SchemeKind::kLncr}};
  ExpectParallelMatchesSequential(config);
}

TEST(ExperimentTest, ParallelRunAllMatchesSequentialEnRoute) {
  ExperimentConfig config = SmallConfig();
  config.network.architecture = Architecture::kEnRoute;
  config.schemes = {{.kind = schemes::SchemeKind::kLru},
                    {.kind = schemes::SchemeKind::kModulo,
                     .modulo_radius = 2},
                    {.kind = schemes::SchemeKind::kCoordinated}};
  ExpectParallelMatchesSequential(config);
}

TEST(ExperimentTest, ResolveJobsHonorsExplicitRequest) {
  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  EXPECT_EQ(*ResolveJobs(1), 1);
  EXPECT_EQ(*ResolveJobs(7), std::min(7, hw));
  // 0 resolves from the environment / hardware; it is always >= 1.
  EXPECT_GE(*ResolveJobs(0), 1);
}

TEST(ExperimentTest, ResolveJobsClampsToHardwareConcurrency) {
  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  // A forced value beyond the machine is clamped, never honored.
  EXPECT_EQ(*ResolveJobs(hw), hw);
  EXPECT_EQ(*ResolveJobs(hw + 13), hw);
  EXPECT_EQ(*ResolveJobs(100000), hw);
}

TEST(ExperimentTest, ResolveJobsRejectsMalformedEnv) {
  const char* saved = std::getenv("CASCACHE_JOBS");
  const std::string original = saved != nullptr ? saved : "";
  auto runner_or = ExperimentRunner::Create(SmallConfig());
  ASSERT_TRUE(runner_or.ok()) << runner_or.status();
  // Trailing junk, a worker count below 1, and a value beyond int.
  for (const char* bad : {"4x", "0", "99999999999999999999"}) {
    ASSERT_EQ(setenv("CASCACHE_JOBS", bad, 1), 0);
    EXPECT_EQ(ResolveJobs(0).status().code(),
              util::StatusCode::kInvalidArgument)
        << bad;
    EXPECT_EQ((*runner_or)->RunAll().status().code(),
              util::StatusCode::kInvalidArgument)
        << bad;
    // An explicit worker count never reads the variable.
    EXPECT_EQ(*ResolveJobs(1), 1) << bad;
  }
  ASSERT_EQ(setenv("CASCACHE_JOBS", "1", 1), 0);
  EXPECT_EQ(*ResolveJobs(0), 1);
  if (saved != nullptr) {
    setenv("CASCACHE_JOBS", original.c_str(), 1);
  } else {
    unsetenv("CASCACHE_JOBS");
  }
}

TEST(ExperimentTest, DeterministicAcrossRunners) {
  auto a = ExperimentRunner::Create(SmallConfig());
  auto b = ExperimentRunner::Create(SmallConfig());
  ASSERT_TRUE(a.ok() && b.ok());
  auto ra = (*a)->RunOne({.kind = schemes::SchemeKind::kLru}, 0.02);
  auto rb = (*b)->RunOne({.kind = schemes::SchemeKind::kLru}, 0.02);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_DOUBLE_EQ(ra->metrics.avg_latency, rb->metrics.avg_latency);
  EXPECT_DOUBLE_EQ(ra->metrics.byte_hit_ratio, rb->metrics.byte_hit_ratio);
}

}  // namespace
}  // namespace cascache::sim
