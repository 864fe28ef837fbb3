// Ablation A9 (paper §2.4): the d-cache can be managed by "simple LFU
// replacement" or organized as LRU stacks; the paper treats the choice as
// an implementation detail. Verify it is one: coordinated caching under
// both policies at 1% cache, both architectures. Also reports the DP
// candidate-count distribution and piggyback overhead backing the
// paper's O(k^2)/low-overhead arguments.

#include <cstdio>

#include "common.h"
#include "schemes/coordinated_scheme.h"
#include "sim/simulator.h"
#include "util/table.h"

int main() {
  using namespace cascache;
  bench::PrintTitle("Ablation A9",
                    "d-cache policy (LFU vs LRU) + protocol overhead "
                    "(1% cache)");

  util::TablePrinter table({"arch", "d-cache", "latency(s)", "byte hit",
                            "mean k", "piggyback B/req"});
  for (auto arch : {sim::Architecture::kEnRoute,
                    sim::Architecture::kHierarchical}) {
    for (auto policy : {cache::DCachePolicy::kLfu, cache::DCachePolicy::kLru}) {
      auto config = bench::PaperConfig(arch);
      config.cache_fractions = {0.01};
      auto runner_or = sim::ExperimentRunner::Create(config);
      CASCACHE_CHECK_OK(runner_or.status());

      schemes::CoordinatedScheme scheme;
      config.sim.dcache_policy = policy;
      sim::CacheSet caches = (*runner_or)->network()->MakeCacheSet();
      sim::Simulator simulator((*runner_or)->network(), &caches, &scheme,
                               config.sim);
      const uint64_t capacity = static_cast<uint64_t>(
          0.01 * static_cast<double>(
                     (*runner_or)->workload().catalog.total_bytes()));
      CASCACHE_CHECK_OK(simulator.Run((*runner_or)->workload(), capacity));

      const sim::MetricsSummary m = simulator.metrics().Summary();
      table.AddRow(
          {sim::ArchitectureName(arch),
           policy == cache::DCachePolicy::kLfu ? "LFU" : "LRU",
           util::TablePrinter::Fmt(m.avg_latency, 4),
           util::TablePrinter::Fmt(m.byte_hit_ratio, 4),
           util::TablePrinter::Fmt(scheme.stats().MeanCandidates(), 3),
           util::TablePrinter::Fmt(
               scheme.stats().MeanPiggybackBytesPerRequest(), 4)});

      if (policy == cache::DCachePolicy::kLfu) {
        std::printf("k distribution (%s): ", sim::ArchitectureName(arch));
        const auto& stats = scheme.stats();
        for (int k = 0;
             k < schemes::CoordinatedScheme::Stats::kMaxTrackedCandidates;
             ++k) {
          if (stats.k_histogram[k] == 0) continue;
          std::printf("k=%d:%.1f%% ", k,
                      100.0 * static_cast<double>(stats.k_histogram[k]) /
                          static_cast<double>(stats.requests));
        }
        std::printf("\n");
      }
    }
  }
  std::printf("\n");
  table.Print();
  return 0;
}
