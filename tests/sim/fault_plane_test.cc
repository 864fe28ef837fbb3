#include "sim/fault_plane.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "schemes/lru_scheme.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "testing/scenario.h"
#include "trace/synthetic.h"
#include "util/flags.h"

namespace cascache::sim {
namespace {

using cascache::testing::At;
using cascache::testing::MakeCatalog;
using cascache::testing::MakeChainNetwork;

FaultScheduleConfig CrashConfig(double mtbf = 20.0, double downtime = 10.0) {
  FaultScheduleConfig config;
  config.node_crash_mtbf = mtbf;
  config.node_downtime = downtime;
  return config;
}

TEST(FaultScheduleConfigTest, DefaultIsInactiveAndValid) {
  FaultScheduleConfig config;
  EXPECT_FALSE(config.active());
  EXPECT_TRUE(config.Validate().ok());
}

TEST(FaultScheduleConfigTest, EachFaultClassActivates) {
  FaultScheduleConfig config;
  config.node_crash_mtbf = 10.0;
  EXPECT_TRUE(config.active());
  config = FaultScheduleConfig();
  config.link_mtbf = 10.0;
  EXPECT_TRUE(config.active());
  config = FaultScheduleConfig();
  config.ascent_loss_prob = 0.1;
  EXPECT_TRUE(config.active());
  config = FaultScheduleConfig();
  config.decision_loss_prob = 0.1;
  EXPECT_TRUE(config.active());
  // Retry knobs alone do not activate the plane: with no fault source
  // there is nothing to retry.
  config = FaultScheduleConfig();
  config.max_retries = 10;
  config.request_timeout = 1.0;
  EXPECT_FALSE(config.active());
}

TEST(FaultScheduleConfigTest, ValidateRejectsBadValues) {
  FaultScheduleConfig config;
  config.node_crash_mtbf = -1.0;
  EXPECT_FALSE(config.Validate().ok());

  config = FaultScheduleConfig();
  config.node_crash_mtbf = 10.0;
  config.node_downtime = 0.0;
  EXPECT_FALSE(config.Validate().ok());

  config = FaultScheduleConfig();
  config.link_mtbf = 10.0;
  config.link_downtime = -2.0;
  EXPECT_FALSE(config.Validate().ok());

  config = FaultScheduleConfig();
  config.ascent_loss_prob = 1.5;
  EXPECT_FALSE(config.Validate().ok());

  config = FaultScheduleConfig();
  config.decision_loss_prob = -0.1;
  EXPECT_FALSE(config.Validate().ok());

  config = FaultScheduleConfig();
  config.request_timeout = 0.0;
  EXPECT_FALSE(config.Validate().ok());

  config = FaultScheduleConfig();
  config.max_retries = -1;
  EXPECT_FALSE(config.Validate().ok());

  config = FaultScheduleConfig();
  config.retry_backoff = -1.0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(FaultScheduleConfigTest, ApplyFaultSettingParsesEveryKey) {
  FaultScheduleConfig config;
  EXPECT_TRUE(ApplyFaultSetting("seed", "99", &config).ok());
  EXPECT_TRUE(ApplyFaultSetting("node_mtbf", "12.5", &config).ok());
  EXPECT_TRUE(ApplyFaultSetting("node_downtime", "3", &config).ok());
  EXPECT_TRUE(ApplyFaultSetting("link_mtbf", "7", &config).ok());
  EXPECT_TRUE(ApplyFaultSetting("link_downtime", "2", &config).ok());
  EXPECT_TRUE(ApplyFaultSetting("crash_cuts_routing", "true", &config).ok());
  EXPECT_TRUE(ApplyFaultSetting("ascent_loss", "0.25", &config).ok());
  EXPECT_TRUE(ApplyFaultSetting("decision_loss", "0.5", &config).ok());
  EXPECT_TRUE(ApplyFaultSetting("timeout", "9", &config).ok());
  EXPECT_TRUE(ApplyFaultSetting("max_retries", "5", &config).ok());
  EXPECT_TRUE(ApplyFaultSetting("backoff", "0.5", &config).ok());

  EXPECT_EQ(config.seed, 99u);
  EXPECT_DOUBLE_EQ(config.node_crash_mtbf, 12.5);
  EXPECT_DOUBLE_EQ(config.node_downtime, 3.0);
  EXPECT_DOUBLE_EQ(config.link_mtbf, 7.0);
  EXPECT_DOUBLE_EQ(config.link_downtime, 2.0);
  EXPECT_TRUE(config.crash_cuts_routing);
  EXPECT_DOUBLE_EQ(config.ascent_loss_prob, 0.25);
  EXPECT_DOUBLE_EQ(config.decision_loss_prob, 0.5);
  EXPECT_DOUBLE_EQ(config.request_timeout, 9.0);
  EXPECT_EQ(config.max_retries, 5);
  EXPECT_DOUBLE_EQ(config.retry_backoff, 0.5);

  EXPECT_FALSE(ApplyFaultSetting("no_such_key", "1", &config).ok());
  EXPECT_FALSE(ApplyFaultSetting("node_mtbf", "abc", &config).ok());
  EXPECT_FALSE(ApplyFaultSetting("crash_cuts_routing", "maybe", &config).ok());
  // Out-of-range integers are rejected, not wrapped or saturated.
  EXPECT_FALSE(ApplyFaultSetting("max_retries", "4294967297", &config).ok());
  EXPECT_FALSE(
      ApplyFaultSetting("seed", "99999999999999999999", &config).ok());
  EXPECT_EQ(config.max_retries, 5);
  EXPECT_EQ(config.seed, 99u);
}

TEST(FaultScheduleConfigTest, LoadsConfigFileWithCommentsAndBlanks) {
  const std::string path =
      ::testing::TempDir() + "/fault_schedule_test.conf";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "# chaos schedule\n"
        << "\n"
        << "node_mtbf = 40\n"
        << "node_downtime=10  # mean seconds down\n"
        << "ascent_loss=0.1\n";
  }
  FaultScheduleConfig config;
  ASSERT_TRUE(LoadFaultConfigFile(path, &config).ok());
  EXPECT_DOUBLE_EQ(config.node_crash_mtbf, 40.0);
  EXPECT_DOUBLE_EQ(config.node_downtime, 10.0);
  EXPECT_DOUBLE_EQ(config.ascent_loss_prob, 0.1);
  std::remove(path.c_str());

  EXPECT_FALSE(LoadFaultConfigFile("/no/such/file.conf", &config).ok());

  {
    std::ofstream out(path, std::ios::trunc);
    out << "not a key value line\n";
  }
  EXPECT_FALSE(LoadFaultConfigFile(path, &config).ok());
  std::remove(path.c_str());
}

TEST(FaultScheduleConfigTest, EnvOverridesApply) {
  ASSERT_EQ(setenv("CASCACHE_FAULT_NODE_MTBF", "33", 1), 0);
  ASSERT_EQ(setenv("CASCACHE_FAULT_CRASH_CUTS_ROUTING", "1", 1), 0);
  FaultScheduleConfig config;
  EXPECT_TRUE(ApplyFaultEnvOverrides(&config).ok());
  EXPECT_DOUBLE_EQ(config.node_crash_mtbf, 33.0);
  EXPECT_TRUE(config.crash_cuts_routing);

  ASSERT_EQ(setenv("CASCACHE_FAULT_ASCENT_LOSS", "bogus", 1), 0);
  EXPECT_FALSE(ApplyFaultEnvOverrides(&config).ok());

  unsetenv("CASCACHE_FAULT_NODE_MTBF");
  unsetenv("CASCACHE_FAULT_CRASH_CUTS_ROUTING");
  unsetenv("CASCACHE_FAULT_ASCENT_LOSS");
}

TEST(FaultScheduleConfigTest, ValidateRejectsNonFiniteValues) {
  // An infinite MTBF would become a zero crash rate, which the
  // exponential sampler CHECKs against.
  for (double FaultScheduleConfig::*field :
       {&FaultScheduleConfig::node_crash_mtbf, &FaultScheduleConfig::link_mtbf,
        &FaultScheduleConfig::disk_fail_mtbf,
        &FaultScheduleConfig::request_timeout}) {
    FaultScheduleConfig config;
    config.*field = std::numeric_limits<double>::infinity();
    EXPECT_FALSE(config.Validate().ok());
    config.*field = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(config.Validate().ok());
  }
}

/// Writes `lines` to a fresh fault config file named after the running
/// test and returns its path. One file per test: ctest runs each test in
/// its own process, concurrently, so a shared name would let one test
/// truncate or delete another's file.
std::string WriteFaultFile(const std::string& lines) {
  const std::string path =
      ::testing::TempDir() + "/fault_keys_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".conf";
  std::ofstream out(path, std::ios::trunc);
  out << lines;
  return path;
}

TEST(FaultScheduleConfigTest, RejectsNonFiniteAndOverflowFromFileAndEnv) {
  const std::pair<const char*, const char*> kBad[] = {
      {"node_mtbf", "inf"},
      {"seed", "99999999999999999999"},
      {"node_downtime", "nan"},
  };
  for (const auto& [key, value] : kBad) {
    SCOPED_TRACE(std::string(key) + "=" + value);
    FaultScheduleConfig config;
    const std::string path =
        WriteFaultFile(std::string(key) + "=" + value + "\n");
    EXPECT_FALSE(LoadFaultConfigFile(path, &config).ok());
    std::remove(path.c_str());

    std::string env_name = "CASCACHE_FAULT_" + std::string(key);
    std::transform(env_name.begin(), env_name.end(), env_name.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    ASSERT_EQ(setenv(env_name.c_str(), value, 1), 0);
    EXPECT_FALSE(ApplyFaultEnvOverrides(&config).ok());
    unsetenv(env_name.c_str());
    EXPECT_EQ(config, FaultScheduleConfig());
  }
}

/// One non-default value per fault key, in file/env/flag spelling.
struct FaultKeyCase {
  const char* key;
  const char* env;
  const char* flag;
  const char* value;
};
constexpr FaultKeyCase kEveryFaultKey[] = {
    {"seed", "CASCACHE_FAULT_SEED", "--fault-seed", "99"},
    {"node_mtbf", "CASCACHE_FAULT_NODE_MTBF", "--fault-node-mtbf", "12.5"},
    {"node_downtime", "CASCACHE_FAULT_NODE_DOWNTIME", "--fault-node-downtime",
     "3"},
    {"link_mtbf", "CASCACHE_FAULT_LINK_MTBF", "--fault-link-mtbf", "7"},
    {"link_downtime", "CASCACHE_FAULT_LINK_DOWNTIME", "--fault-link-downtime",
     "2"},
    {"crash_cuts_routing", "CASCACHE_FAULT_CRASH_CUTS_ROUTING",
     "--fault-crash-cuts-routing", "yes"},
    {"ascent_loss", "CASCACHE_FAULT_ASCENT_LOSS", "--fault-ascent-loss",
     "0.25"},
    {"decision_loss", "CASCACHE_FAULT_DECISION_LOSS", "--fault-decision-loss",
     "0.5"},
    {"timeout", "CASCACHE_FAULT_TIMEOUT", "--fault-timeout", "9"},
    {"max_retries", "CASCACHE_FAULT_MAX_RETRIES", "--fault-max-retries", "5"},
    {"backoff", "CASCACHE_FAULT_BACKOFF", "--fault-backoff", "0.75"},
    {"disk_mtbf", "CASCACHE_FAULT_DISK_MTBF", "--fault-disk-mtbf", "80"},
    {"disk_downtime", "CASCACHE_FAULT_DISK_DOWNTIME", "--fault-disk-downtime",
     "15"},
    {"sibling_loss", "CASCACHE_FAULT_SIBLING_LOSS", "--fault-sibling-loss",
     "0.125"},
};

/// Resolves a schedule the way the CLI does: --fault-* flags over
/// CASCACHE_FAULT_* over the --fault-config file over the defaults.
util::Status ResolveFromFlags(std::vector<std::string> args,
                              FaultScheduleConfig* config) {
  util::FlagParser flags;
  FaultFlags fault_flags;
  fault_flags.Register(&flags);
  std::vector<const char*> argv;
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  CASCACHE_RETURN_IF_ERROR(
      flags.Parse(static_cast<int>(argv.size()), argv.data()));
  return fault_flags.Resolve(flags, config);
}

TEST(FaultScheduleConfigTest, EveryKeyParsesIdenticallyFromFileEnvAndFlags) {
  std::string lines;
  std::vector<std::string> args;
  for (const FaultKeyCase& c : kEveryFaultKey) {
    lines += std::string(c.key) + " = " + c.value + "\n";
    args.push_back(std::string(c.flag) + "=" + c.value);
  }
  FaultScheduleConfig from_file;
  const std::string path = WriteFaultFile(lines);
  ASSERT_TRUE(LoadFaultConfigFile(path, &from_file).ok());
  std::remove(path.c_str());

  FaultScheduleConfig from_flags;
  ASSERT_TRUE(ResolveFromFlags(args, &from_flags).ok());

  for (const FaultKeyCase& c : kEveryFaultKey) {
    ASSERT_EQ(setenv(c.env, c.value, 1), 0);
  }
  FaultScheduleConfig from_env;
  const util::Status env_status = ApplyFaultEnvOverrides(&from_env);
  for (const FaultKeyCase& c : kEveryFaultKey) unsetenv(c.env);
  ASSERT_TRUE(env_status.ok());

  // Every key moved off its default, identically through all three.
  const FaultScheduleConfig defaults;
  for (const FaultKeyCase& c : kEveryFaultKey) {
    FaultScheduleConfig one;
    ASSERT_TRUE(ApplyFaultSetting(c.key, c.value, &one).ok()) << c.key;
    EXPECT_NE(one, defaults) << c.key;
  }
  EXPECT_EQ(from_file.seed, 99u);
  EXPECT_DOUBLE_EQ(from_file.sibling_loss_prob, 0.125);
  EXPECT_EQ(from_file, from_flags);
  EXPECT_EQ(from_file, from_env);
}

TEST(FaultScheduleConfigTest, FlagBeatsEnvBeatsFile) {
  const std::string path = WriteFaultFile("node_mtbf=40\nnode_downtime=10\n");
  ASSERT_EQ(setenv("CASCACHE_FAULT_NODE_MTBF", "50", 1), 0);
  FaultScheduleConfig all_three;
  const util::Status all_status = ResolveFromFlags(
      {"--fault-config=" + path, "--fault-node-mtbf=60"}, &all_three);
  FaultScheduleConfig file_and_env;
  const util::Status two_status =
      ResolveFromFlags({"--fault-config=" + path}, &file_and_env);
  unsetenv("CASCACHE_FAULT_NODE_MTBF");
  FaultScheduleConfig file_only;
  const util::Status file_status =
      ResolveFromFlags({"--fault-config=" + path}, &file_only);
  std::remove(path.c_str());

  ASSERT_TRUE(all_status.ok());
  ASSERT_TRUE(two_status.ok());
  ASSERT_TRUE(file_status.ok());
  EXPECT_DOUBLE_EQ(all_three.node_crash_mtbf, 60.0);
  EXPECT_DOUBLE_EQ(file_and_env.node_crash_mtbf, 50.0);
  EXPECT_DOUBLE_EQ(file_only.node_crash_mtbf, 40.0);
  // A flag not given keeps the file's value, not the flag's default.
  EXPECT_DOUBLE_EQ(all_three.node_downtime, 10.0);
}

class FaultPlaneChainTest : public ::testing::Test {
 protected:
  FaultPlaneChainTest()
      : catalog_(MakeCatalog({{100, 0}})),
        network_(MakeChainNetwork(&catalog_, 4)),
        caches_(network_->MakeCacheSet()) {}

  trace::ObjectCatalog catalog_;
  std::unique_ptr<Network> network_;
  sim::CacheSet caches_;
};

TEST_F(FaultPlaneChainTest, OutageStreamsAreQueryOrderIndependent) {
  const FaultScheduleConfig config = CrashConfig();
  FaultPlane forward(config, network_.get());
  FaultPlane backward(config, network_.get());

  std::vector<double> times;
  for (int i = 0; i <= 400; ++i) times.push_back(0.25 * i);

  std::vector<int> forward_answers;
  for (double t : times) {
    for (topology::NodeId v = 0; v < network_->num_nodes(); ++v) {
      forward_answers.push_back(forward.NodeDown(v, t) ? 1 : 0);
    }
  }
  // Same queries, reversed time order, against a fresh plane: the lazily
  // materialized streams must not depend on which time was asked first.
  std::vector<int> backward_answers(forward_answers.size());
  for (size_t ti = times.size(); ti-- > 0;) {
    for (topology::NodeId v = 0; v < network_->num_nodes(); ++v) {
      backward_answers[ti * static_cast<size_t>(network_->num_nodes()) +
                       static_cast<size_t>(v)] =
          backward.NodeDown(v, times[ti]) ? 1 : 0;
    }
  }
  EXPECT_EQ(forward_answers, backward_answers);
  // The schedule actually injects something in this window.
  EXPECT_GT(std::count(forward_answers.begin(), forward_answers.end(), 1), 0);

  // Reset forgets the materialized streams but reproduces them exactly.
  forward.Reset();
  std::vector<int> replay_answers;
  for (double t : times) {
    for (topology::NodeId v = 0; v < network_->num_nodes(); ++v) {
      replay_answers.push_back(forward.NodeDown(v, t) ? 1 : 0);
    }
  }
  EXPECT_EQ(forward_answers, replay_answers);
}

TEST_F(FaultPlaneChainTest, NodesFaultIndependently) {
  FaultPlane plane(CrashConfig(), network_.get());
  // With per-node seeded streams, node 0 and node 1 must not crash in
  // lockstep over a long horizon.
  int disagreements = 0;
  for (int i = 0; i < 2000; ++i) {
    const double t = 0.5 * i;
    if (plane.NodeDown(0, t) != plane.NodeDown(1, t)) ++disagreements;
  }
  EXPECT_GT(disagreements, 0);
}

TEST_F(FaultPlaneChainTest, MessageLossIsDeterministicPerRequestAndHop) {
  FaultScheduleConfig config;
  config.ascent_loss_prob = 0.3;
  config.decision_loss_prob = 0.3;
  FaultPlane a(config, network_.get());
  FaultPlane b(config, network_.get());

  int ascent_losses = 0;
  int stream_disagreements = 0;
  const int kRequests = 20000;
  for (uint64_t req = 0; req < kRequests; ++req) {
    for (int hop = 0; hop < 3; ++hop) {
      const bool lost = a.AscentLoss(req, hop);
      EXPECT_EQ(lost, b.AscentLoss(req, hop));
      EXPECT_EQ(a.DescentLoss(req, hop), b.DescentLoss(req, hop));
      if (lost) ++ascent_losses;
      if (lost != a.DescentLoss(req, hop)) ++stream_disagreements;
    }
  }
  // The empirical rate tracks the configured probability (3 * 20000
  // Bernoulli(0.3) samples: ±0.02 is > 6 sigma).
  const double rate =
      static_cast<double>(ascent_losses) / (3.0 * kRequests);
  EXPECT_NEAR(rate, 0.3, 0.02);
  // Ascent and descent decisions come from distinct streams.
  EXPECT_GT(stream_disagreements, 0);

  FaultScheduleConfig other = config;
  other.seed = config.seed + 1;
  FaultPlane c(other, network_.get());
  int seed_disagreements = 0;
  for (uint64_t req = 0; req < 1000; ++req) {
    if (a.AscentLoss(req, 0) != c.AscentLoss(req, 0)) ++seed_disagreements;
  }
  EXPECT_GT(seed_disagreements, 0);
}

TEST_F(FaultPlaneChainTest, CrashRestartLosesCacheContents) {
  CacheNodeConfig node_config;
  node_config.mode = CacheMode::kLru;
  node_config.capacity_bytes = 1000;
  caches_.Configure(node_config);

  FaultPlane plane(CrashConfig(/*mtbf=*/5.0, /*downtime=*/5.0),
                   network_.get());
  CacheNode* node = caches_.node(1);
  bool inserted = false;
  node->lru()->Insert(/*object=*/0, /*size=*/100, &inserted);
  ASSERT_TRUE(inserted);
  ASSERT_TRUE(node->Contains(0));

  // By t=10000 the node has crashed many times (mean cycle 10 s); the
  // lazily applied cold restart drops the contents but keeps capacity.
  const int applied = plane.ApplyCrashRestarts(node, 10000.0);
  EXPECT_GT(applied, 0);
  EXPECT_FALSE(node->Contains(0));
  EXPECT_EQ(node->capacity_bytes(), 1000u);
  // Idempotent until the next crash epoch.
  EXPECT_EQ(plane.ApplyCrashRestarts(node, 10000.0), 0);
}

TEST_F(FaultPlaneChainTest, ChainDetourIsImpossibleButEndpointsRoute) {
  // A chain has no alternate routes: cutting an intermediate node makes
  // the root unreachable, but a request from the root's own attach region
  // still resolves (endpoints always forward).
  FaultScheduleConfig config = CrashConfig(/*mtbf=*/5.0, /*downtime=*/1e6);
  config.crash_cuts_routing = true;
  FaultPlane plane(config, network_.get());

  // Find a time where some intermediate hop of the leaf's path is down.
  const topology::NodeId leaf = network_->RequesterNode(0);
  const Route& route = network_->ClientRoute(leaf, 0);
  const std::vector<topology::NodeId>& path = route.nodes;
  ASSERT_GE(path.size(), 3u);
  double cut_time = -1.0;
  for (int i = 1; i <= 4000; ++i) {
    const double t = 0.5 * i;
    for (size_t h = 1; h + 1 < path.size(); ++h) {
      if (plane.NodeDown(path[h], t)) {
        cut_time = t;
        break;
      }
    }
    if (cut_time >= 0.0) break;
  }
  ASSERT_GE(cut_time, 0.0) << "schedule never cut the chain";

  bool rerouted = false;
  std::vector<topology::NodeId> detour;
  EXPECT_FALSE(plane.ResolvePath(route, cut_time, &detour, &rerouted));

  // From the attach node itself the path has no intermediates to cut:
  // the route resolves as it is, without a detour.
  Route from_root;
  from_root.nodes = {network_->ServerAttach(0)};
  EXPECT_TRUE(plane.ResolvePath(from_root, cut_time, &detour, &rerouted));
  EXPECT_FALSE(rerouted);
  EXPECT_TRUE(detour.empty());
}

TEST(FaultPlaneEnrouteTest, DetoursAvoidDownLinksDeterministically) {
  trace::WorkloadParams wp;
  wp.num_objects = 50;
  wp.num_requests = 100;
  wp.num_clients = 20;
  wp.num_servers = 5;
  auto workload_or = trace::GenerateWorkload(wp);
  ASSERT_TRUE(workload_or.ok());
  NetworkParams np;
  np.architecture = Architecture::kEnRoute;
  auto network_or = Network::Build(np, &workload_or->catalog);
  ASSERT_TRUE(network_or.ok());
  Network* network = network_or->get();

  FaultScheduleConfig config;
  config.link_mtbf = 20.0;
  config.link_downtime = 10.0;
  FaultPlane plane(config, network);
  FaultPlane replay(config, network);

  const topology::NodeId from = network->RequesterNode(0);
  const trace::ServerId server = workload_or->catalog.server(0);
  const topology::NodeId root = network->ServerAttach(server);
  const Route& route = network->ClientRoute(from, server);
  int reroutes = 0;
  int failures = 0;
  for (int i = 0; i <= 2000; ++i) {
    const double t = 0.5 * i;
    std::vector<topology::NodeId> detour;
    bool rerouted = false;
    const bool ok = plane.ResolvePath(route, t, &detour, &rerouted);

    // Bit-identical against an independently materialized plane.
    std::vector<topology::NodeId> detour2;
    bool rerouted2 = false;
    EXPECT_EQ(ok, replay.ResolvePath(route, t, &detour2, &rerouted2));
    if (ok) {
      EXPECT_EQ(detour, detour2);
      EXPECT_EQ(rerouted, rerouted2);
    }

    if (!ok) {
      ++failures;
      continue;
    }
    const std::vector<topology::NodeId>& path =
        rerouted ? detour : route.nodes;
    EXPECT_EQ(path.front(), from);
    EXPECT_EQ(path.back(), root);
    // Every link of the resolved path exists and is up at t.
    for (size_t h = 0; h + 1 < path.size(); ++h) {
      EXPECT_TRUE(network->graph().HasEdge(path[h], path[h + 1]));
      EXPECT_FALSE(plane.LinkDown(path[h], path[h + 1], t));
    }
    if (rerouted) ++reroutes;
  }
  // The schedule is aggressive enough that detours actually happened.
  EXPECT_GT(reroutes, 0);
}

/// What ResolvePath returned over every route of the default en-route
/// network at a fixed set of times: the reroute and failure counts and
/// an FNV-1a digest of each outcome and detour path, in query order.
struct DetourPin {
  int reroutes = 0;
  int failures = 0;
  uint64_t digest = 0;
  bool operator==(const DetourPin&) const = default;
};

std::ostream& operator<<(std::ostream& os, const DetourPin& pin) {
  return os << "{" << pin.reroutes << ", " << pin.failures << ", 0x"
            << std::hex << pin.digest << std::dec << "ULL}";
}

DetourPin ResolveEveryRoute(const FaultScheduleConfig& config) {
  trace::WorkloadParams wp;
  wp.num_objects = 200;
  wp.num_requests = 100;
  wp.num_clients = 50;
  wp.num_servers = 12;
  auto workload_or = trace::GenerateWorkload(wp);
  CASCACHE_CHECK_OK(workload_or.status());
  NetworkParams np;
  np.architecture = Architecture::kEnRoute;
  auto network_or = Network::Build(np, &workload_or->catalog);
  CASCACHE_CHECK_OK(network_or.status());
  FaultPlane plane(config, network_or->get());

  DetourPin pin;
  pin.digest = 0xcbf29ce484222325ULL;
  const auto mix = [&pin](int64_t v) {
    pin.digest = (pin.digest ^ static_cast<uint64_t>(v)) * 0x100000001b3ULL;
  };
  for (int k = 0; k < 40; ++k) {
    const double t = 0.25 + 1.5 * k;
    for (const Route& route : (*network_or)->routes()) {
      std::vector<topology::NodeId> detour;
      bool rerouted = false;
      const bool ok = plane.ResolvePath(route, t, &detour, &rerouted);
      mix(ok);
      mix(rerouted);
      if (!ok) ++pin.failures;
      if (!rerouted) continue;
      ++pin.reroutes;
      mix(static_cast<int64_t>(detour.size()));
      for (topology::NodeId v : detour) mix(v);
    }
  }
  return pin;
}

/// Pins the detours themselves, not only their properties: the expected
/// values were recorded by this test before the detour search moved onto
/// the shared shortest-path routine, so any change in which detour is
/// chosen (tie-breaks included) shows here.
TEST(FaultPlaneEnrouteTest, DetourPathsArePinned) {
  FaultScheduleConfig links;
  links.link_mtbf = 50.0;
  links.link_downtime = 5.0;
  const DetourPin link_pin = ResolveEveryRoute(links);
  EXPECT_GT(link_pin.reroutes, 0);
  EXPECT_EQ(link_pin, (DetourPin{11268, 1169, 0xcb17032af7ea9915ULL}));

  FaultScheduleConfig crashes = links;
  crashes.node_crash_mtbf = 50.0;
  crashes.node_downtime = 5.0;
  crashes.crash_cuts_routing = true;
  const DetourPin crash_pin = ResolveEveryRoute(crashes);
  EXPECT_GT(crash_pin.reroutes, 0);
  EXPECT_EQ(crash_pin, (DetourPin{10821, 5401, 0xe0419b7150d7c8e6ULL}));
}

/// %.17g round-trips IEEE doubles exactly: string equality is bit
/// equality.
std::string FmtDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::map<std::string, std::string> SummaryFields(const MetricsSummary& m) {
  std::map<std::string, std::string> fields;
  fields["requests"] = std::to_string(m.requests);
  fields["avg_latency"] = FmtDouble(m.avg_latency);
  fields["avg_response_ratio"] = FmtDouble(m.avg_response_ratio);
  fields["byte_hit_ratio"] = FmtDouble(m.byte_hit_ratio);
  fields["hit_ratio"] = FmtDouble(m.hit_ratio);
  fields["avg_traffic_byte_hops"] = FmtDouble(m.avg_traffic_byte_hops);
  fields["avg_hops"] = FmtDouble(m.avg_hops);
  fields["avg_load_bytes"] = FmtDouble(m.avg_load_bytes);
  fields["read_load_share"] = FmtDouble(m.read_load_share);
  fields["avg_write_bytes"] = FmtDouble(m.avg_write_bytes);
  fields["total_bytes_requested"] = std::to_string(m.total_bytes_requested);
  fields["bytes_from_caches"] = std::to_string(m.bytes_from_caches);
  fields["stale_hit_ratio"] = FmtDouble(m.stale_hit_ratio);
  fields["copies_expired"] = std::to_string(m.copies_expired);
  fields["copies_invalidated"] = std::to_string(m.copies_invalidated);
  return fields;
}

/// Golden no-fault equivalence, the strong form: a fault plane that is
/// *instantiated* (config.active(), so every fault branch in the
/// simulator is reached) but whose schedule never fires inside the
/// workload horizon must reproduce the committed pre-fault golden rows
/// bit-exactly. The empty-schedule case is covered by
/// PipelineEquivalenceTest (the plane is not even constructed there).
TEST(FaultPlaneGoldenTest, InertActivePlaneMatchesPipelineGolden) {
  // hier_all golden case: hierarchical, all schemes, fractions
  // {0.01, 0.03}. Reproduce the LRU and Coordinated cells at 0.03.
  ExperimentConfig cfg;
  cfg.network.architecture = Architecture::kHierarchical;
  cfg.workload.num_objects = 1500;
  cfg.workload.num_requests = 12'000;
  cfg.workload.num_clients = 200;
  cfg.workload.num_servers = 40;
  cfg.cache_fractions = {0.03};
  cfg.schemes.resize(2);
  cfg.schemes[0].kind = schemes::SchemeKind::kLru;
  cfg.schemes[1].kind = schemes::SchemeKind::kCoordinated;
  cfg.jobs = 1;
  // Active schedule whose first onset is ~1e18 seconds out: every
  // fault-plane branch runs, no fault ever fires.
  cfg.sim.faults.node_crash_mtbf = 1e18;
  cfg.sim.faults.node_downtime = 1.0;

  auto runner_or = ExperimentRunner::Create(cfg);
  ASSERT_TRUE(runner_or.ok()) << runner_or.status().ToString();
  auto results_or = (*runner_or)->RunAll();
  ASSERT_TRUE(results_or.ok()) << results_or.status().ToString();

  // Parse the committed golden rows for the matching labels.
  std::ifstream in(std::string(CASCACHE_TEST_DATA_DIR) +
                   "/pipeline_golden.csv");
  ASSERT_TRUE(in.good());
  std::map<std::string, std::map<std::string, std::string>> golden;
  for (std::string line; std::getline(in, line);) {
    std::istringstream row(line);
    std::string case_name, label, field, value;
    ASSERT_TRUE(std::getline(row, case_name, ','));
    ASSERT_TRUE(std::getline(row, label, ','));
    ASSERT_TRUE(std::getline(row, field, ','));
    ASSERT_TRUE(std::getline(row, value));
    if (case_name == "hier_all") golden[label][field] = value;
  }

  for (const RunResult& r : *results_or) {
    char label[64];
    std::snprintf(label, sizeof(label), "%s@%g", r.scheme.c_str(),
                  r.cache_fraction);
    ASSERT_TRUE(golden.count(label)) << "no golden rows for " << label;
    const auto computed = SummaryFields(r.metrics);
    for (const auto& [field, value] : golden[label]) {
      ASSERT_TRUE(computed.count(field)) << field;
      EXPECT_EQ(computed.at(field), value)
          << label << "." << field << " drifted under an inert fault plane";
    }
    // And the schedule really was inert.
    EXPECT_EQ(r.metrics.retries, 0u);
    EXPECT_EQ(r.metrics.failed_requests, 0u);
    EXPECT_EQ(r.metrics.reroutes, 0u);
    EXPECT_EQ(r.metrics.crashes_applied, 0u);
    EXPECT_EQ(r.metrics.degraded_decisions, 0u);
  }
}

/// Regression for the fixed-path-per-request assumption: the simulator
/// must tolerate the routing path of the *same* requester changing
/// between requests (detours shrink/grow hop counts mid-run), including
/// under coherency stamping.
TEST(FaultPlaneEnrouteTest, PathChangesMidRunAreHandled) {
  trace::WorkloadParams wp;
  wp.num_objects = 300;
  wp.num_requests = 4000;
  wp.num_clients = 50;
  wp.num_servers = 10;
  auto workload_or = trace::GenerateWorkload(wp);
  ASSERT_TRUE(workload_or.ok());
  NetworkParams np;
  np.architecture = Architecture::kEnRoute;
  auto network_or = Network::Build(np, &workload_or->catalog);
  ASSERT_TRUE(network_or.ok());

  SimOptions options;
  options.faults.link_mtbf = 20.0;
  options.faults.link_downtime = 15.0;
  options.coherency.protocol = CoherencyProtocol::kTtl;
  options.coherency.ttl = 10.0;
  options.coherency.mutable_fraction = 0.4;
  options.coherency.mean_update_period = 30.0;

  schemes::LruScheme scheme;
  sim::CacheSet caches = (*network_or)->MakeCacheSet();
  Simulator simulator(network_or->get(), &caches, &scheme, options);
  const uint64_t capacity = static_cast<uint64_t>(
      0.03 * static_cast<double>(workload_or->catalog.total_bytes()));
  ASSERT_TRUE(simulator.Run(*workload_or, capacity).ok());

  const MetricsSummary s = simulator.metrics().Summary();
  EXPECT_EQ(s.requests, 2000u);  // Second half of the trace.
  EXPECT_GT(s.reroutes, 0u) << "schedule never changed a path";

  // A second simulator over the same inputs replays bit-identically.
  schemes::LruScheme scheme2;
  sim::CacheSet caches2 = (*network_or)->MakeCacheSet();
  Simulator simulator2(network_or->get(), &caches2, &scheme2, options);
  ASSERT_TRUE(simulator2.Run(*workload_or, capacity).ok());
  const MetricsSummary s2 = simulator2.metrics().Summary();
  EXPECT_EQ(SummaryFields(s), SummaryFields(s2));
  EXPECT_EQ(s.retries, s2.retries);
  EXPECT_EQ(s.failed_requests, s2.failed_requests);
  EXPECT_EQ(s.reroutes, s2.reroutes);
  EXPECT_EQ(s.degraded_decisions, s2.degraded_decisions);
}

}  // namespace
}  // namespace cascache::sim
