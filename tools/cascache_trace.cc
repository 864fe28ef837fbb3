// cascache_trace: offline trace utilities for the .cctr binary format.
//
//   cascache_trace convert <log.csv> <out.cctr>   # CSV request log -> v2
//   cascache_trace summarize <trace.cctr> [--epochs=N]  # logstats report
//   cascache_trace export-csv <trace.cctr> <out.csv>  # binary -> text
//
// `convert` ingests the WriteTraceCsv column layout
// (time,client,object,size,server — the shape a Boeing-style proxy log
// reduces to) and writes a v2 trace that cascache_sim --trace-in can
// memory-map. `summarize` maps the trace (any version, including
// procedural-catalog v3), validates its records, then scans it once in
// bounded memory and prints
// cardinalities, the fitted Zipf slope — whole-trace and per epoch, so
// popularity drift is visible as a windowed-vs-aggregate gap — size
// percentiles and inter-arrival statistics, so a multi-gigabyte trace
// can be sanity-checked without loading it.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "trace/trace_io.h"
#include "util/status.h"

namespace {

using namespace cascache;

int Usage(std::FILE* out) {
  std::fprintf(out,
               "usage:\n"
               "  cascache_trace convert <log.csv> <out.cctr>\n"
               "  cascache_trace summarize <trace.cctr> [--epochs=N]\n"
               "  cascache_trace export-csv <trace.cctr> <out.csv>\n"
               "\n"
               "convert     rewrite a CSV request log "
               "(time,client,object,size,server;\n"
               "            header row optional) as a v2 binary trace\n"
               "summarize   one-pass report: counts, cardinalities, Zipf "
               "slope\n"
               "            (whole-trace and per-epoch over N "
               "equal-request\n"
               "            windows; default 4, 0 disables), size "
               "percentiles,\n"
               "            inter-arrival statistics\n"
               "export-csv  dump a binary trace as text for external "
               "tooling\n"
               "            (timestamps rounded to microseconds)\n");
  return out == stderr ? 2 : 0;
}

util::Status RunConvert(const std::string& csv_path,
                        const std::string& out_path) {
  CASCACHE_RETURN_IF_ERROR(trace::ConvertCsvTrace(csv_path, out_path));
  CASCACHE_ASSIGN_OR_RETURN(const trace::TraceSummary summary,
                            trace::SummarizeTrace(out_path));
  std::fprintf(stderr,
               "converted %s -> %s (v%u, %" PRIu64 " requests, %u objects, "
               "%" PRIu64 " bytes)\n",
               csv_path.c_str(), out_path.c_str(), summary.format_version,
               summary.stats.num_requests, summary.stats.num_objects,
               summary.file_bytes);
  return util::Status::Ok();
}

util::Status RunSummarize(const std::string& path, uint32_t epochs) {
  trace::SummarizeOptions options;
  options.epochs = epochs;
  CASCACHE_ASSIGN_OR_RETURN(const trace::TraceSummary s,
                            trace::SummarizeTrace(path, options));
  const trace::TraceStats& st = s.stats;
  std::printf("trace:                 %s\n", path.c_str());
  std::printf("format version:        v%u\n", s.format_version);
  std::printf("file bytes:            %" PRIu64 "\n", s.file_bytes);
  std::printf("requests:              %" PRIu64 "\n", st.num_requests);
  std::printf("objects (catalog):     %u\n", st.num_objects);
  std::printf("objects referenced:    %u\n", st.num_objects_referenced);
  std::printf("clients active:        %u\n", st.num_clients_active);
  std::printf("duration:              %.3f s\n", st.duration_seconds);
  std::printf("bytes requested:       %" PRIu64 "\n",
              st.total_bytes_requested);
  std::printf("mean object size:      %.1f B\n", st.mean_object_size);
  std::printf("zipf slope (fit):      %.4f\n", st.estimated_zipf_theta);
  if (!s.epoch_zipf_theta.empty()) {
    std::printf("zipf slope per epoch: ");
    for (const double theta : s.epoch_zipf_theta) {
      std::printf(" %.4f", theta);
    }
    std::printf("\n");
  }
  std::printf("top-10%% request share: %.4f\n", st.top10pct_request_share);
  std::printf("object size p50/p90/p99/max: %" PRIu64 " / %" PRIu64
              " / %" PRIu64 " / %" PRIu64 " B\n",
              s.size_p50, s.size_p90, s.size_p99, s.size_max);
  std::printf("request size p50/p90/p99:    %" PRIu64 " / %" PRIu64
              " / %" PRIu64 " B\n",
              s.req_size_p50, s.req_size_p90, s.req_size_p99);
  std::printf("inter-arrival mean/stddev:   %.6f / %.6f s\n",
              s.interarrival_mean, s.interarrival_stddev);
  std::printf("inter-arrival min/max:       %.6f / %.6f s\n",
              s.interarrival_min, s.interarrival_max);
  return util::Status::Ok();
}

util::Status RunExportCsv(const std::string& trace_path,
                          const std::string& csv_path) {
  CASCACHE_ASSIGN_OR_RETURN(const trace::Workload workload,
                            trace::ReadTrace(trace_path));
  CASCACHE_RETURN_IF_ERROR(trace::WriteTraceCsv(workload, csv_path));
  std::fprintf(stderr, "exported %s -> %s (%zu requests)\n",
               trace_path.c_str(), csv_path.c_str(),
               workload.requests.size());
  return util::Status::Ok();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 ||
                    std::strcmp(argv[1], "-h") == 0)) {
    return Usage(stdout);
  }
  util::Status status;
  if (argc == 4 && std::strcmp(argv[1], "convert") == 0) {
    status = RunConvert(argv[2], argv[3]);
  } else if ((argc == 3 || argc == 4) &&
             std::strcmp(argv[1], "summarize") == 0) {
    uint32_t epochs = 4;
    if (argc == 4) {
      const char* arg = argv[3];
      if (std::strncmp(arg, "--epochs=", 9) != 0) return Usage(stderr);
      char* end = nullptr;
      const unsigned long value = std::strtoul(arg + 9, &end, 10);
      if (end == arg + 9 || *end != '\0' || value > 1024) return Usage(stderr);
      epochs = static_cast<uint32_t>(value);
    }
    status = RunSummarize(argv[2], epochs);
  } else if (argc == 4 && std::strcmp(argv[1], "export-csv") == 0) {
    status = RunExportCsv(argv[2], argv[3]);
  } else {
    return Usage(stderr);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
