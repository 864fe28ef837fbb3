// Micro benchmark M4: trace IO throughput — how fast MappedTrace opens
// a v2 trace and scans its overlaid request region, the ingest cost of
// every --trace-in replay.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "trace/mapped_trace.h"
#include "trace/trace_io.h"

namespace {

using namespace cascache;

constexpr uint64_t kRequests = 200'000;

const std::string& TracePath() {
  static const std::string* path = [] {
    trace::WorkloadParams params;
    params.num_objects = 10'000;
    params.num_requests = kRequests;
    params.num_clients = 500;
    params.num_servers = 100;
    auto* p = new std::string("/tmp/cascache_micro_trace_io.cctr");
    CASCACHE_CHECK_OK(trace::GenerateWorkloadToFile(params, *p));
    return p;
  }();
  return *path;
}

void BM_MappedTraceScan(benchmark::State& state) {
  for (auto _ : state) {
    auto mapped_or = trace::MappedTrace::Open(TracePath());
    CASCACHE_CHECK_OK(mapped_or.status());
    double sum = 0.0;
    for (const trace::Request& req : (*mapped_or)->requests()) {
      sum += req.time;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kRequests));
}
BENCHMARK(BM_MappedTraceScan);

}  // namespace
