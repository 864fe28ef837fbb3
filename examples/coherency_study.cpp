// Coherency study: the paper assumes cached objects stay fresh via "a
// cache coherency protocol if necessary" (§2). This example makes a
// fraction of objects mutable and compares how coordinated caching fares
// under no protocol (stale service), TTL expiry, and idealized
// server-driven invalidation — including the protocol's own overhead
// (extra origin fetches).
//
// Usage: coherency_study [mutable_fraction] [mean_update_period_seconds]

#include <cstdio>

#include "schemes/coordinated_scheme.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"
#include "util/flags.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace cascache;

  double mutable_fraction = 0.2;
  double update_period = 600.0;
  if ((argc > 1 && !util::ParseValue(argv[1], &mutable_fraction).ok()) ||
      (argc > 2 && !util::ParseValue(argv[2], &update_period).ok()) ||
      mutable_fraction < 0.0 || mutable_fraction > 1.0 ||
      update_period <= 0.0) {
    std::fprintf(stderr, "usage: %s [mutable in [0,1]] [period > 0]\n",
                 argv[0]);
    return 1;
  }

  trace::WorkloadParams wl;
  wl.num_objects = 10'000;
  wl.num_requests = 200'000;
  wl.num_clients = 500;
  wl.num_servers = 100;
  auto workload_or = trace::GenerateWorkload(wl);
  CASCACHE_CHECK_OK(workload_or.status());

  sim::NetworkParams net_params;
  net_params.architecture = sim::Architecture::kEnRoute;
  auto net_or = sim::Network::Build(net_params, &workload_or->catalog);
  CASCACHE_CHECK_OK(net_or.status());

  std::printf("coherency study: %.0f%% mutable objects, mean update every "
              "%.0f s (trace spans %.0f s)\n\n",
              mutable_fraction * 100, update_period,
              workload_or->Duration());

  util::TablePrinter table({"protocol", "latency(s)", "byte hit",
                            "stale hits", "expired", "invalidated"});
  for (sim::CoherencyProtocol protocol :
       {sim::CoherencyProtocol::kNone, sim::CoherencyProtocol::kTtl,
        sim::CoherencyProtocol::kInvalidation}) {
    schemes::CoordinatedScheme scheme;
    sim::SimOptions options;
    options.coherency.protocol = protocol;
    options.coherency.mutable_fraction = mutable_fraction;
    options.coherency.mean_update_period = update_period;
    options.coherency.ttl = update_period / 2.0;
    sim::CacheSet caches = (*net_or)->MakeCacheSet();
    sim::Simulator simulator(net_or->get(), &caches, &scheme, options);
    CASCACHE_CHECK_OK(simulator.Run(
        *workload_or, workload_or->catalog.total_bytes() / 100));
    const sim::MetricsSummary m = simulator.metrics().Summary();
    table.AddRow({sim::CoherencyProtocolName(protocol),
                  util::TablePrinter::Fmt(m.avg_latency, 4),
                  util::TablePrinter::Fmt(m.byte_hit_ratio, 4),
                  util::TablePrinter::Fmt(m.stale_hit_ratio, 4),
                  std::to_string(m.copies_expired),
                  std::to_string(m.copies_invalidated)});
  }
  table.Print();
  std::printf(
      "\nReading: 'none' serves stale bytes (stale-hit column); TTL and\n"
      "invalidation keep contents fresh at the price of extra origin\n"
      "fetches (lower byte hit, higher latency). The gap quantifies what\n"
      "the paper's freshness assumption abstracts away.\n");
  return 0;
}
