// Steady-state allocation test: once a replay is warm, serving further
// requests performs no heap allocation (DESIGN.md §6). Every store keeps
// its slots, index tables and eviction order in reused arrays, so what a
// measured window may allocate is the odd amortized growth, never a node
// per operation.
//
// This binary replaces the global operator new with a counting one, so it
// runs apart from the main test binary: the count covers every allocation
// the process makes while the measured window replays.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "schemes/scheme.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

}  // namespace

// The array and nothrow forms forward to these. Out of line, so that no
// caller sees the malloc/free pairing through the new/delete pairing.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace cascache::sim {
namespace {

// Object sizes are heavy-tailed, so now and then an eviction longer than
// any before grows a high-water buffer (a victim list, a walk frontier)
// at one of the ~100 nodes; the warm window is long enough that such
// growth has become rare, not merely amortized.
constexpr uint64_t kWarmRequests = 300'000;
constexpr uint64_t kMeasuredRequests = 300'000;

class SteadyStateAllocationTest
    : public ::testing::TestWithParam<schemes::SchemeKind> {};

/// Replays a warm window through `options`, then counts in
/// `*allocations` the allocations of a measured window stepped on from
/// there.
void WarmReplayAllocations(schemes::SchemeKind kind,
                           const NetworkParams& network_params,
                           const SimOptions& options, uint64_t* allocations) {
  trace::WorkloadParams params;
  params.num_objects = 5'000;
  params.num_requests = kWarmRequests + kMeasuredRequests;
  params.num_clients = 200;
  params.num_servers = 50;
  auto workload_or = trace::GenerateWorkload(params);
  ASSERT_TRUE(workload_or.ok()) << workload_or.status().ToString();
  const trace::Workload workload = std::move(workload_or).value();
  auto network_or = Network::Build(network_params, &workload.catalog);
  ASSERT_TRUE(network_or.ok()) << network_or.status().ToString();
  const std::unique_ptr<Network> network = std::move(network_or).value();

  schemes::SchemeSpec spec;
  spec.kind = kind;
  auto scheme_or = schemes::MakeScheme(spec);
  ASSERT_TRUE(scheme_or.ok()) << scheme_or.status().ToString();
  const std::unique_ptr<schemes::CachingScheme> scheme =
      std::move(scheme_or).value();
  CacheSet caches = network->MakeCacheSet();
  Simulator simulator(network.get(), &caches, scheme.get(), options);

  // Run() configures every cache at 1% of the catalog's bytes and
  // replays the warm window; the measured window then continues it.
  const uint64_t capacity = workload.catalog.total_bytes() / 100;
  const trace::WorkloadView warm{
      &workload.catalog,
      trace::RequestSpan(workload.requests.data(), kWarmRequests),
      {}};
  ASSERT_TRUE(simulator.Run(warm, capacity).ok());

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (uint64_t i = kWarmRequests; i < kWarmRequests + kMeasuredRequests;
       ++i) {
    simulator.Step(workload.requests[i], /*collect=*/true);
  }
  *allocations = g_allocations.load(std::memory_order_relaxed) - before;
}

TEST_P(SteadyStateAllocationTest, WarmReplayAllocatesAlmostNothing) {
  uint64_t allocations = 0;
  WarmReplayAllocations(GetParam(), NetworkParams(), SimOptions(),
                        &allocations);
  // Fewer than 1 allocation per 1,000 requests.
  EXPECT_LT(allocations * 1'000, kMeasuredRequests)
      << allocations << " allocations over " << kMeasuredRequests
      << " warm requests";
}

// The event-driven replay, configured as the canonical contended_chaos
// workload: queueing near the shedding knee, every fault class, a RAM
// tier, sibling probes at the leaves and invalidation coherency.
TEST_P(SteadyStateAllocationTest,
       EventDrivenChaosReplayAllocatesAlmostNothing) {
  NetworkParams network_params;
  network_params.architecture = Architecture::kHierarchical;
  SimOptions options;
  ContentionParams& c = options.contention;
  c.lookup_cost = 0.002;
  c.store_cost = 0.001;
  c.dcache_cost = 0.0005;
  c.node_queue_capacity = 32;
  c.link_bandwidth = 1e8;
  c.arrival_rate = 300.0;
  options.tier.ram_fraction = 0.1;
  options.tier.ram_hit_cost = 0.0001;
  options.tier.disk_hit_cost = 0.002;
  options.sibling.enabled = true;
  options.sibling.level = 0;
  FaultScheduleConfig& f = options.faults;
  f.node_crash_mtbf = 600.0;
  f.node_downtime = 20.0;
  f.link_mtbf = 20000.0;
  f.link_downtime = 20.0;
  f.ascent_loss_prob = 0.01;
  f.decision_loss_prob = 0.01;
  f.disk_fail_mtbf = 600.0;
  f.disk_fail_downtime = 30.0;
  f.sibling_loss_prob = 0.01;
  options.coherency.protocol = CoherencyProtocol::kInvalidation;
  options.coherency.mutable_fraction = 0.1;
  options.coherency.mean_update_period = 600.0;
  uint64_t allocations = 0;
  WarmReplayAllocations(GetParam(), network_params, options, &allocations);
  EXPECT_LT(allocations * 1'000, kMeasuredRequests)
      << allocations << " allocations over " << kMeasuredRequests
      << " warm requests";
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, SteadyStateAllocationTest,
    ::testing::Values(schemes::SchemeKind::kLru, schemes::SchemeKind::kLncr,
                      schemes::SchemeKind::kCoordinated,
                      schemes::SchemeKind::kGds, schemes::SchemeKind::kLfu),
    [](const ::testing::TestParamInfo<schemes::SchemeKind>& info) {
      for (const auto& [name, kind] : schemes::kSchemeNames) {
        if (kind == info.param) return std::string(name);
      }
      return std::string("unknown");
    });

}  // namespace
}  // namespace cascache::sim
