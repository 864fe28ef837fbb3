// Micro benchmark M3: end-to-end simulator throughput — how many requests
// per second each scheme sustains on the paper topologies. This bounds
// the wall-clock cost of the figure sweeps and shows the coordinated
// scheme's decision machinery (piggyback assembly + DP + placements)
// costs ~3x a plain LRU walk — while LNC-R's cache-everywhere insertions
// into the NCL-ordered store cost ~6x.

#include <benchmark/benchmark.h>

#include "schemes/scheme.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"

namespace {

using namespace cascache;

struct Env {
  trace::Workload workload;
  std::unique_ptr<sim::Network> network;
};

Env* BuildEnv(sim::Architecture arch) {
  trace::WorkloadParams wl;
  wl.num_objects = 10'000;
  wl.num_requests = 50'000;
  wl.num_clients = 500;
  wl.num_servers = 100;
  auto workload_or = trace::GenerateWorkload(wl);
  CASCACHE_CHECK_OK(workload_or.status());
  auto* env = new Env{std::move(workload_or).value(), nullptr};
  sim::NetworkParams params;
  params.architecture = arch;
  auto net_or = sim::Network::Build(params, &env->workload.catalog);
  CASCACHE_CHECK_OK(net_or.status());
  env->network = std::move(net_or).value();
  return env;
}

Env* EnRouteEnv() {
  static Env* env = BuildEnv(sim::Architecture::kEnRoute);
  return env;
}

Env* HierEnv() {
  static Env* env = BuildEnv(sim::Architecture::kHierarchical);
  return env;
}

void RunSchemeBenchmark(benchmark::State& state, Env* env,
                        schemes::SchemeKind kind) {
  schemes::SchemeSpec spec;
  spec.kind = kind;
  auto scheme_or = schemes::MakeScheme(spec);
  CASCACHE_CHECK_OK(scheme_or.status());
  sim::CacheSet caches = env->network->MakeCacheSet();
  sim::Simulator simulator(env->network.get(), &caches, scheme_or->get());
  // Configure 1% caches once; replay the trace cyclically.
  const uint64_t capacity = env->workload.catalog.total_bytes() / 100;
  CASCACHE_CHECK_OK(simulator.Run(env->workload, capacity));

  size_t i = 0;
  const auto& requests = env->workload.requests;
  for (auto _ : state) {
    simulator.Step(requests[i], /*collect=*/false);
    i = (i + 1) % requests.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_EnRouteLru(benchmark::State& state) {
  RunSchemeBenchmark(state, EnRouteEnv(), schemes::SchemeKind::kLru);
}
BENCHMARK(BM_EnRouteLru);

void BM_EnRouteCoordinated(benchmark::State& state) {
  RunSchemeBenchmark(state, EnRouteEnv(), schemes::SchemeKind::kCoordinated);
}
BENCHMARK(BM_EnRouteCoordinated);

void BM_EnRouteLncr(benchmark::State& state) {
  RunSchemeBenchmark(state, EnRouteEnv(), schemes::SchemeKind::kLncr);
}
BENCHMARK(BM_EnRouteLncr);

void BM_HierLru(benchmark::State& state) {
  RunSchemeBenchmark(state, HierEnv(), schemes::SchemeKind::kLru);
}
BENCHMARK(BM_HierLru);

void BM_HierCoordinated(benchmark::State& state) {
  RunSchemeBenchmark(state, HierEnv(), schemes::SchemeKind::kCoordinated);
}
BENCHMARK(BM_HierCoordinated);

}  // namespace
