// Micro benchmark M4: trace IO throughput — how fast the streaming
// reader yields requests and how fast the mmap overlay scans. The
// buffered reader is the floor for every --trace-in replay that cannot
// mmap (v1 traces); the mapped scan is the v2 replay's ingest cost.

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

void BM_TraceReaderNext(benchmark::State& state) {
  for (auto _ : state) {
    auto reader_or = trace::TraceReader::Open(TracePath());
    CASCACHE_CHECK_OK(reader_or.status());
    trace::Request req;
    uint64_t n = 0;
    for (;;) {
      auto more_or = (*reader_or)->Next(&req);
      CASCACHE_CHECK_OK(more_or.status());
      if (!*more_or) break;
      benchmark::DoNotOptimize(req);
      ++n;
    }
    CASCACHE_CHECK(n == kRequests);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kRequests));
}
BENCHMARK(BM_TraceReaderNext);

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
