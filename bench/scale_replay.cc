// scale_replay: paper-scale replay throughput and memory bench.
//
// Measures, for one trace scale per process invocation, the wall-clock
// replay throughput and the process peak RSS when replaying a v2 or v3
// trace through the mmap path. One scale per process because VmHWM is
// monotone over the process lifetime — mixing scales in one run would
// report only the largest.
//
//   scale_replay --requests=10000000 --trace-file=/tmp/t10m.cctr
//   scale_replay --requests=100000000 --trace-file=/tmp/t100m.cctr --release
//
// If --trace-file is absent on disk it is stream-generated first
// (GenerateWorkloadToFile, O(1) resident) and kept, so consecutive
// invocations at the same scale reuse it. Emits one JSON record on
// stdout:
//
//   {"bench": "scale_replay", "requests": ..., "wall_seconds": ...,
//    "requests_per_sec": ..., "peak_rss_kb": ..., "rss_before_kb": ...,
//    "release_pages": ..., "trace_bytes": ...,
//    "scheme_requests_per_sec": {...}}
//
// peak_rss_kb is VmHWM: it includes touched pages of the file-backed
// mapping, which is why --release (MADV_DONTNEED of consumed request
// pages) is the mode that demonstrates O(1)-in-trace-length residency.

#include <sys/resource.h>
#include <sys/stat.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "trace/trace_io.h"
#include "util/flags.h"

namespace {

using namespace cascache;

long PeakRssKb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r"); f != nullptr) {
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
    }
    std::fclose(f);
    if (kb >= 0) return kb;
  }
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) return usage.ru_maxrss;
  return -1;
}

util::Status RunMain(int argc, char** argv) {
  sim::ExperimentConfig config;
  config.workload.num_requests = 10'000'000;
  config.jobs = 1;
  std::string trace_file, schemes_text = "coordinated";
  double cache_fraction = 0.01;
  bool help = false;
  util::FlagParser flags;
  flags.Add("help", &help, "print this help");
  flags.Add("requests", &config.workload.num_requests, "trace length");
  flags.Add("objects", &config.workload.num_objects,
            "object population (paper subtrace)");
  flags.Add("clients", &config.workload.num_clients, "client population");
  flags.Add("servers", &config.workload.num_servers, "origin server count");
  flags.Add("seed", &config.workload.seed, "workload seed");
  flags.Add("trace-file", &trace_file, "v2 trace path; generated if missing");
  flags.Add("schemes", &schemes_text,
            "comma list of lru|modulo|lncr|coordinated|gds|lfu|static");
  flags.Add("cache", &cache_fraction, "relative cache size");
  flags.Add("release", &config.release_trace_pages,
            "advise-release consumed trace pages during replay (O(1) "
            "residency mode)");
  CASCACHE_RETURN_IF_ERROR(flags.Parse(argc - 1, argv + 1));
  if (help) {
    std::fputs(flags.Usage("scale_replay").c_str(), stdout);
    return util::Status::Ok();
  }
  if (trace_file.empty()) {
    return util::Status::InvalidArgument("--trace-file is required");
  }

  config.cache_fractions = {cache_fraction};
  for (const std::string& name : util::SplitCommaList(schemes_text)) {
    schemes::SchemeSpec spec;
    CASCACHE_RETURN_IF_ERROR(
        util::ParseChoice(name, schemes::kSchemeNames, &spec.kind));
    config.schemes.push_back(spec);
  }
  if (config.schemes.empty()) {
    return util::Status::InvalidArgument("no schemes given");
  }

  // Reuse the trace across invocations at the same scale; generate it
  // streaming on first use.
  struct stat st;
  if (::stat(trace_file.c_str(), &st) != 0) {
    std::fprintf(stderr, "generating %" PRIu64 "-request trace %s ...\n",
                 config.workload.num_requests, trace_file.c_str());
    CASCACHE_RETURN_IF_ERROR(
        trace::GenerateWorkloadToFile(config.workload, trace_file));
    if (::stat(trace_file.c_str(), &st) != 0) {
      return util::Status::IoError("stat after generate: " + trace_file);
    }
  }
  const uint64_t trace_bytes = static_cast<uint64_t>(st.st_size);

  CASCACHE_ASSIGN_OR_RETURN(
      std::unique_ptr<sim::ExperimentRunner> runner,
      sim::ExperimentRunner::CreateFromTrace(config, trace_file));
  if (runner->mapped_trace()->version() == trace::kTraceVersion1) {
    return util::Status::InvalidArgument(
        "scale bench expects a v2 or v3 trace: " + trace_file);
  }
  const uint64_t actual_requests = runner->view().requests.size();
  const long rss_before_kb = PeakRssKb();

  const auto t0 = std::chrono::steady_clock::now();
  CASCACHE_ASSIGN_OR_RETURN(const std::vector<sim::RunResult> results,
                            runner->RunAll());
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  const long peak_rss_kb = PeakRssKb();

  std::string per_scheme;
  for (const sim::RunResult& r : results) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.6g", per_scheme.empty() ? "" : ", ",
                  r.scheme.c_str(), r.requests_per_sec);
    per_scheme += buf;
  }
  std::printf(
      "{\"bench\": \"scale_replay\", \"requests\": %" PRIu64
      ", \"schemes\": %zu, \"cache\": %g, \"release_pages\": %s, "
      "\"trace_bytes\": %" PRIu64
      ", \"wall_seconds\": %.6g, \"requests_per_sec\": %.6g, "
      "\"rss_before_kb\": %ld, \"peak_rss_kb\": %ld, "
      "\"scheme_requests_per_sec\": {%s}}\n",
      actual_requests, config.schemes.size(), cache_fraction,
      config.release_trace_pages ? "true" : "false", trace_bytes, wall,
      static_cast<double>(actual_requests) *
          static_cast<double>(results.size()) / wall,
      rss_before_kb, peak_rss_kb, per_scheme.c_str());
  return util::Status::Ok();
}

}  // namespace

int main(int argc, char** argv) {
  const util::Status status = RunMain(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
