// Hierarchical caching study: drives the coordinated scheme on a proxy
// tree and inspects *where* object copies end up — demonstrating the
// placement behavior the paper's Figure 5/Section 4.2 discuss: popular
// objects sink toward the leaves, unpopular ones are held high up or not
// at all.
//
// Usage: hierarchy_study [depth] [fanout]

#include <cstdio>
#include <vector>

#include "schemes/coordinated_scheme.h"
#include "sim/simulator.h"
#include "topology/tree.h"
#include "trace/synthetic.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace cascache;

  int depth = 4;
  int fanout = 3;
  if ((argc > 1 && !util::ParseValue(argv[1], &depth).ok()) ||
      (argc > 2 && !util::ParseValue(argv[2], &fanout).ok()) || depth < 2 ||
      fanout < 1) {
    std::fprintf(stderr, "usage: %s [depth >= 2] [fanout >= 1]\n", argv[0]);
    return 1;
  }

  trace::WorkloadParams wl;
  wl.num_objects = 5'000;
  wl.num_requests = 300'000;
  wl.num_clients = 500;
  wl.num_servers = 50;
  auto workload_or = trace::GenerateWorkload(wl);
  CASCACHE_CHECK_OK(workload_or.status());

  sim::NetworkParams net_params;
  net_params.architecture = sim::Architecture::kHierarchical;
  net_params.tree.depth = depth;
  net_params.tree.fanout = fanout;
  auto net_or = sim::Network::Build(net_params, &workload_or->catalog);
  CASCACHE_CHECK_OK(net_or.status());
  const sim::Network& net = **net_or;
  sim::CacheSet caches = net.MakeCacheSet();

  schemes::CoordinatedScheme scheme;
  sim::Simulator simulator(&net, &caches, &scheme);
  const uint64_t capacity = workload_or->catalog.total_bytes() / 50;  // 2%.
  CASCACHE_CHECK_OK(simulator.Run(*workload_or, capacity));

  std::printf("hierarchical coordinated caching, depth=%d fanout=%d, "
              "2%% cache per node\n\n",
              depth, fanout);
  const sim::MetricsSummary summary = simulator.metrics().Summary();
  std::printf("latency=%.4fs  byte-hit=%.4f  hit=%.4f  hops=%.3f  "
              "load=%.4gB/req\n\n",
              summary.avg_latency, summary.byte_hit_ratio, summary.hit_ratio,
              summary.avg_hops, summary.avg_load_bytes);

  // Where do copies live? Aggregate cache occupancy per tree level.
  auto tree_or = topology::BuildTree(net_params.tree);
  CASCACHE_CHECK_OK(tree_or.status());
  std::vector<uint64_t> bytes_per_level(static_cast<size_t>(depth), 0);
  std::vector<uint64_t> objects_per_level(static_cast<size_t>(depth), 0);
  std::vector<int> nodes_per_level(static_cast<size_t>(depth), 0);
  for (topology::NodeId v = 0; v < net.num_nodes(); ++v) {
    const int level = tree_or->level[static_cast<size_t>(v)];
    bytes_per_level[level] += caches.node(v)->used_bytes();
    objects_per_level[level] += caches.node(v)->num_cached_objects();
    ++nodes_per_level[level];
  }
  std::printf("copies by tree level (root = level %d):\n", depth - 1);
  for (int level = depth - 1; level >= 0; --level) {
    std::printf(
        "  level %d: %3d caches, %8llu objects, mean fill %5.1f%%\n", level,
        nodes_per_level[level],
        static_cast<unsigned long long>(objects_per_level[level]),
        100.0 * static_cast<double>(bytes_per_level[level]) /
            (static_cast<double>(nodes_per_level[level]) *
             static_cast<double>(capacity)));
  }

  std::printf("\ncoordinated-scheme decision statistics:\n");
  const auto& stats = scheme.stats();
  std::printf("  requests: %llu, DP runs: %llu, mean candidates/run: %.2f\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.dp_runs),
              stats.dp_runs ? static_cast<double>(stats.candidates) /
                                  static_cast<double>(stats.dp_runs)
                            : 0.0);
  std::printf("  placements: %llu (%.3f per request), total gain: %.1f\n",
              static_cast<unsigned long long>(stats.placements),
              static_cast<double>(stats.placements) /
                  static_cast<double>(stats.requests),
              stats.total_gain);
  return 0;
}
