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

TEST_P(SteadyStateAllocationTest, WarmReplayAllocatesAlmostNothing) {
  trace::WorkloadParams params;
  params.num_objects = 5'000;
  params.num_requests = kWarmRequests + kMeasuredRequests;
  params.num_clients = 200;
  params.num_servers = 50;
  auto workload_or = trace::GenerateWorkload(params);
  ASSERT_TRUE(workload_or.ok()) << workload_or.status().ToString();
  const trace::Workload workload = std::move(workload_or).value();
  auto network_or = Network::Build(NetworkParams(), &workload.catalog);
  ASSERT_TRUE(network_or.ok()) << network_or.status().ToString();
  const std::unique_ptr<Network> network = std::move(network_or).value();

  schemes::SchemeSpec spec;
  spec.kind = GetParam();
  auto scheme_or = schemes::MakeScheme(spec);
  ASSERT_TRUE(scheme_or.ok()) << scheme_or.status().ToString();
  const std::unique_ptr<schemes::CachingScheme> scheme =
      std::move(scheme_or).value();
  CacheSet caches = network->MakeCacheSet();
  Simulator simulator(network.get(), &caches, scheme.get());

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
  const uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;
  // Fewer than 1 allocation per 1,000 requests.
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
