// Overload collapse (event-driven replay, DESIGN.md §11): bounded node queues
// under an open-loop arrival sweep. Each cache charges a fixed lookup
// service cost, so the chain saturates once the arrival rate passes
// 1/lookup_cost; past that point the queues hit their bound and shed.
// The curve under test: served throughput flattens at the service
// capacity while sheds absorb the excess, latency stays bounded by the
// queue cap (no unbounded queueing), and the per-node shed counters
// reconcile integer-exactly with the aggregates at every point.
//
// A scheme comparison rides along: Coordinated pays a d-cache probe on
// top of each lookup, yet it collapses *later* than LRU — its placement
// quality serves more requests at the first cache, which is the only
// lever that removes load from the upstream queues. Under contention,
// hit placement is capacity.

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common.h"
#include "util/table.h"

int main() {
  using namespace cascache;
  bench::PrintTitle("Overload collapse",
                    "Served/shed/latency vs open-loop arrival rate "
                    "(chain of 3 caches, bounded queues)");

  // A single chain (fanout 1): every request climbs the same caches, so
  // the offered load per node is exactly the arrival rate and the
  // saturation point is legible: lookup 0.05 s => ~20 req/s per node.
  sim::ExperimentConfig config;
  config.network.architecture = sim::Architecture::kHierarchical;
  config.network.tree.depth = 3;
  config.network.tree.fanout = 1;
  config.workload.num_objects = 150;
  config.workload.num_requests = 6000;
  config.workload.num_clients = 20;
  config.workload.num_servers = 5;
  config.workload.seed = 13;
  config.cache_fractions = {0.05};
  config.schemes = {{.kind = schemes::SchemeKind::kLru},
                    {.kind = schemes::SchemeKind::kCoordinated}};
  config.jobs = 1;
  config.sim.contention.lookup_cost = 0.05;
  config.sim.contention.dcache_cost = 0.01;
  config.sim.contention.store_cost = 0.02;
  config.sim.contention.node_queue_capacity = 8;
  config.sim.contention.link_bandwidth = 1e7;

  const double rates[] = {2.0, 5.0, 10.0, 15.0, 20.0, 30.0, 50.0, 100.0};

  util::TablePrinter table({"rate(req/s)", "scheme", "served", "shed",
                            "shed%", "latency(s)", "queue wait(s)",
                            "max depth"});
  for (const double rate : rates) {
    config.sim.contention.arrival_rate = rate;
    const auto results = bench::RunSweep(config);
    for (const sim::RunResult& r : results) {
      const auto& m = r.metrics;
      uint64_t shed_sum = 0;
      uint64_t max_depth = 0;
      for (const sim::NodeUsage& u : r.per_node) {
        shed_sum += u.counters.sheds;
        max_depth = std::max(max_depth, u.counters.max_queue_depth);
      }
      if (shed_sum != m.shed_requests ||
          m.served_requests !=
              m.requests - m.failed_requests - m.shed_requests) {
        std::fprintf(stderr, "reconciliation broken at rate %g (%s)\n",
                     rate, r.scheme.c_str());
        return 1;
      }
      table.AddRow(
          {std::to_string(static_cast<int>(rate)), r.scheme,
           std::to_string(m.served_requests), std::to_string(m.shed_requests),
           util::TablePrinter::Fmt(
               100.0 * static_cast<double>(m.shed_requests) /
                   static_cast<double>(m.requests),
               3),
           util::TablePrinter::Fmt(m.avg_latency, 3),
           util::TablePrinter::Fmt(m.avg_queue_wait, 3),
           std::to_string(max_depth)});
    }
  }
  std::printf("\n");
  table.Print();
  return 0;
}
