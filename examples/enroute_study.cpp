// En-route caching study: builds the paper's Table-1-style Tiers topology,
// generates a synthetic Boeing-like workload, and compares all four
// caching schemes (LRU, MODULO, LNC-R, Coordinated) at a configurable
// relative cache size — a command-line version of one column of Figures
// 6-8.
//
// Usage: enroute_study [relative_cache_size] [num_requests]
//   e.g. enroute_study 0.01 200000

#include <cstdio>

#include "schemes/coordinated_scheme.h"
#include "sim/experiment.h"
#include "util/flags.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace cascache;

  double cache_fraction = 0.01;
  uint64_t num_requests = 200'000;
  if ((argc > 1 && !util::ParseValue(argv[1], &cache_fraction).ok()) ||
      (argc > 2 && !util::ParseValue(argv[2], &num_requests).ok()) ||
      cache_fraction <= 0.0 || cache_fraction > 1.0 || num_requests == 0) {
    std::fprintf(stderr,
                 "usage: %s [relative_cache_size (0,1]] [num_requests]\n",
                 argv[0]);
    return 1;
  }

  sim::ExperimentConfig config;
  config.network.architecture = sim::Architecture::kEnRoute;
  config.workload.num_objects = 10'000;
  config.workload.num_requests = num_requests;
  config.workload.num_clients = 1'000;
  config.workload.num_servers = 100;
  config.cache_fractions = {cache_fraction};
  config.schemes = {{.kind = schemes::SchemeKind::kLru},
                    {.kind = schemes::SchemeKind::kModulo, .modulo_radius = 4},
                    {.kind = schemes::SchemeKind::kLncr},
                    {.kind = schemes::SchemeKind::kCoordinated}};

  std::printf("en-route study: cache size %.2f%%, %llu requests\n\n",
              cache_fraction * 100,
              static_cast<unsigned long long>(num_requests));

  auto runner_or = sim::ExperimentRunner::Create(config);
  CASCACHE_CHECK_OK(runner_or.status());
  auto results_or = (*runner_or)->RunAll();
  CASCACHE_CHECK_OK(results_or.status());

  util::TablePrinter table({"scheme", "latency(s)", "resp(s/MB)", "byte hit",
                            "hops", "traffic(B*hop)", "load(B/req)"});
  for (const sim::RunResult& r : *results_or) {
    table.AddRow({r.scheme, util::TablePrinter::Fmt(r.metrics.avg_latency, 4),
                  util::TablePrinter::Fmt(r.metrics.avg_response_ratio, 4),
                  util::TablePrinter::Fmt(r.metrics.byte_hit_ratio, 4),
                  util::TablePrinter::Fmt(r.metrics.avg_hops, 4),
                  util::TablePrinter::Fmt(r.metrics.avg_traffic_byte_hops, 4),
                  util::TablePrinter::Fmt(r.metrics.avg_load_bytes, 4)});
  }
  table.Print();
  return 0;
}
