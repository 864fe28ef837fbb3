// Lean vs full exchange: the simulator runs every request through one
// exchange body compiled three ways (DESIGN.md §6). A run with no
// feature on takes a lean instantiation; enabling the event trace at
// sampling rate 0 selects the full instantiation while emitting nothing
// and changing nothing else. So the two runs must agree to the bit — on
// every aggregate, every per-node counter and the Coordinated scheme's
// DP bookkeeping — for every scheme, architecture, cache size and seed.

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "schemes/coordinated_scheme.h"
#include "schemes/scheme.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"

namespace cascache {
namespace {

uint64_t Bits(uint64_t v) { return v; }
uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

#define EXPECT_SAME_FIELD(a, b, field) \
  EXPECT_EQ(Bits((a).field), Bits((b).field)) << #field

// Every field is listed; the size checks fail when a field is added
// without extending the comparison.
static_assert(sizeof(sim::MetricsSummary) == 39 * 8);
static_assert(sizeof(sim::NodeCounters) == 25 * 8);

void ExpectSameSummary(const sim::MetricsSummary& a,
                       const sim::MetricsSummary& b) {
  EXPECT_SAME_FIELD(a, b, requests);
  EXPECT_SAME_FIELD(a, b, avg_latency);
  EXPECT_SAME_FIELD(a, b, avg_response_ratio);
  EXPECT_SAME_FIELD(a, b, byte_hit_ratio);
  EXPECT_SAME_FIELD(a, b, hit_ratio);
  EXPECT_SAME_FIELD(a, b, avg_traffic_byte_hops);
  EXPECT_SAME_FIELD(a, b, avg_hops);
  EXPECT_SAME_FIELD(a, b, avg_load_bytes);
  EXPECT_SAME_FIELD(a, b, read_load_share);
  EXPECT_SAME_FIELD(a, b, avg_write_bytes);
  EXPECT_SAME_FIELD(a, b, total_bytes_requested);
  EXPECT_SAME_FIELD(a, b, bytes_from_caches);
  EXPECT_SAME_FIELD(a, b, stale_hit_ratio);
  EXPECT_SAME_FIELD(a, b, copies_expired);
  EXPECT_SAME_FIELD(a, b, copies_invalidated);
  EXPECT_SAME_FIELD(a, b, avg_request_msg_bytes);
  EXPECT_SAME_FIELD(a, b, avg_response_msg_bytes);
  EXPECT_SAME_FIELD(a, b, avg_message_bytes);
  EXPECT_SAME_FIELD(a, b, cache_hits);
  EXPECT_SAME_FIELD(a, b, stale_hits);
  EXPECT_SAME_FIELD(a, b, insertions);
  EXPECT_SAME_FIELD(a, b, bytes_written);
  EXPECT_SAME_FIELD(a, b, retries);
  EXPECT_SAME_FIELD(a, b, failed_requests);
  EXPECT_SAME_FIELD(a, b, reroutes);
  EXPECT_SAME_FIELD(a, b, crashes_applied);
  EXPECT_SAME_FIELD(a, b, degraded_decisions);
  EXPECT_SAME_FIELD(a, b, shed_requests);
  EXPECT_SAME_FIELD(a, b, shed_placements);
  EXPECT_SAME_FIELD(a, b, served_requests);
  EXPECT_SAME_FIELD(a, b, bytes_read);
  EXPECT_SAME_FIELD(a, b, avg_queue_wait);
  EXPECT_SAME_FIELD(a, b, ram_hits);
  EXPECT_SAME_FIELD(a, b, disk_hits);
  EXPECT_SAME_FIELD(a, b, promotions);
  EXPECT_SAME_FIELD(a, b, demotions);
  EXPECT_SAME_FIELD(a, b, sibling_probes);
  EXPECT_SAME_FIELD(a, b, sibling_hits);
  EXPECT_SAME_FIELD(a, b, disk_degraded);
}

void ExpectSameCounters(const sim::NodeCounters& a,
                        const sim::NodeCounters& b) {
  EXPECT_SAME_FIELD(a, b, hits);
  EXPECT_SAME_FIELD(a, b, misses);
  EXPECT_SAME_FIELD(a, b, evictions);
  EXPECT_SAME_FIELD(a, b, placements);
  EXPECT_SAME_FIELD(a, b, placements_rejected);
  EXPECT_SAME_FIELD(a, b, expirations);
  EXPECT_SAME_FIELD(a, b, invalidations);
  EXPECT_SAME_FIELD(a, b, stale_serves);
  EXPECT_SAME_FIELD(a, b, dcache_hits);
  EXPECT_SAME_FIELD(a, b, bytes_served);
  EXPECT_SAME_FIELD(a, b, bytes_cached);
  EXPECT_SAME_FIELD(a, b, crashes);
  EXPECT_SAME_FIELD(a, b, retries);
  EXPECT_SAME_FIELD(a, b, reroutes);
  EXPECT_SAME_FIELD(a, b, degraded);
  EXPECT_SAME_FIELD(a, b, sheds);
  EXPECT_SAME_FIELD(a, b, store_sheds);
  EXPECT_SAME_FIELD(a, b, max_queue_depth);
  EXPECT_SAME_FIELD(a, b, ram_hits);
  EXPECT_SAME_FIELD(a, b, disk_hits);
  EXPECT_SAME_FIELD(a, b, promotions);
  EXPECT_SAME_FIELD(a, b, demotions);
  EXPECT_SAME_FIELD(a, b, sibling_probes);
  EXPECT_SAME_FIELD(a, b, sibling_serves);
  EXPECT_SAME_FIELD(a, b, disk_degraded);
}

void ExpectSameCoordinatedStats(const schemes::CoordinatedScheme::Stats& a,
                                const schemes::CoordinatedScheme::Stats& b) {
  EXPECT_SAME_FIELD(a, b, requests);
  EXPECT_SAME_FIELD(a, b, dp_runs);
  EXPECT_SAME_FIELD(a, b, candidates);
  EXPECT_SAME_FIELD(a, b, placements);
  EXPECT_SAME_FIELD(a, b, excluded_no_descriptor);
  EXPECT_SAME_FIELD(a, b, total_gain);
  EXPECT_SAME_FIELD(a, b, piggyback_bytes);
  for (int k = 0; k < schemes::CoordinatedScheme::Stats::kMaxTrackedCandidates;
       ++k) {
    EXPECT_SAME_FIELD(a, b, k_histogram[k]);
  }
}

/// One finished replay: what the two runs are compared on.
struct Replay {
  sim::MetricsSummary summary;
  std::vector<sim::NodeCounters> counters;
  schemes::CoordinatedScheme::Stats coordinated;
  uint64_t trace_emitted = 0;
};

Replay RunOnce(const sim::Network& network, const trace::Workload& workload,
               schemes::SchemeKind kind, double cache_fraction, bool traced) {
  Replay out;
  schemes::SchemeSpec spec;
  spec.kind = kind;
  sim::SimOptions options;
  // STATIC freezes its contents when measurement starts, as in a sweep.
  spec.static_freeze_requests = static_cast<uint64_t>(
      options.warmup_fraction *
      static_cast<double>(workload.requests.size()));
  auto scheme_or = schemes::MakeScheme(spec);
  EXPECT_TRUE(scheme_or.ok()) << scheme_or.status().ToString();
  if (!scheme_or.ok()) return out;
  if (traced) {
    options.trace.enabled = true;
    options.trace.sampling_rate = 0.0;
  }
  sim::CacheSet caches = network.MakeCacheSet();
  sim::Simulator simulator(&network, &caches, scheme_or->get(), options);
  const uint64_t capacity = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             cache_fraction *
             static_cast<double>(workload.catalog.total_bytes())));
  const util::Status status = simulator.Run(workload, capacity);
  EXPECT_TRUE(status.ok()) << status.ToString();
  out.summary = simulator.metrics().Summary();
  out.counters = simulator.metrics().node_counters();
  if (const auto* coordinated =
          dynamic_cast<const schemes::CoordinatedScheme*>(scheme_or->get())) {
    out.coordinated = coordinated->stats();
  }
  EXPECT_EQ(simulator.event_trace() != nullptr, traced);
  if (simulator.event_trace() != nullptr) {
    out.trace_emitted = simulator.event_trace()->emitted();
  }
  return out;
}

class ExchangeInstantiationTest
    : public ::testing::TestWithParam<
          std::tuple<schemes::SchemeKind, sim::Architecture>> {};

TEST_P(ExchangeInstantiationTest, LeanAndFullExchangesAreBitIdentical) {
  const auto [kind, architecture] = GetParam();
  for (uint64_t seed : {11u, 29u, 47u}) {
    trace::WorkloadParams wp;
    wp.num_objects = 600;
    wp.num_requests = 5'000;
    wp.num_clients = 80;
    wp.num_servers = 20;
    wp.seed = seed;
    auto workload_or = trace::GenerateWorkload(wp);
    ASSERT_TRUE(workload_or.ok()) << workload_or.status().ToString();
    sim::NetworkParams np;
    np.architecture = architecture;
    auto network_or = sim::Network::Build(np, &workload_or->catalog);
    ASSERT_TRUE(network_or.ok()) << network_or.status().ToString();
    for (double fraction : {0.003, 0.02, 0.1}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << ", cache fraction " << fraction);
      const Replay lean = RunOnce(**network_or, *workload_or, kind, fraction,
                                  /*traced=*/false);
      const Replay full = RunOnce(**network_or, *workload_or, kind, fraction,
                                  /*traced=*/true);
      if (::testing::Test::HasFailure()) return;
      EXPECT_EQ(full.trace_emitted, 0u);
      ASSERT_GT(lean.summary.requests, 0u);
      ExpectSameSummary(lean.summary, full.summary);
      ASSERT_EQ(lean.counters.size(), full.counters.size());
      for (size_t v = 0; v < lean.counters.size(); ++v) {
        SCOPED_TRACE(::testing::Message() << "node " << v);
        ExpectSameCounters(lean.counters[v], full.counters[v]);
      }
      ExpectSameCoordinatedStats(lean.coordinated, full.coordinated);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

std::string ParamName(
    const ::testing::TestParamInfo<
        std::tuple<schemes::SchemeKind, sim::Architecture>>& info) {
  schemes::SchemeSpec spec;
  spec.kind = std::get<0>(info.param);
  std::string name = spec.Label();
  name.erase(std::remove_if(name.begin(), name.end(),
                            [](char c) { return !std::isalnum(c); }),
             name.end());
  return name + (std::get<1>(info.param) == sim::Architecture::kEnRoute
                     ? "EnRoute"
                     : "Hier");
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesBothArchitectures, ExchangeInstantiationTest,
    ::testing::Combine(
        ::testing::Values(schemes::SchemeKind::kLru,
                          schemes::SchemeKind::kModulo,
                          schemes::SchemeKind::kLncr,
                          schemes::SchemeKind::kCoordinated,
                          schemes::SchemeKind::kGds, schemes::SchemeKind::kLfu,
                          schemes::SchemeKind::kStatic),
        ::testing::Values(sim::Architecture::kEnRoute,
                          sim::Architecture::kHierarchical)),
    ParamName);

}  // namespace
}  // namespace cascache
