#ifndef CASCACHE_TRACE_TRACE_IO_H_
#define CASCACHE_TRACE_TRACE_IO_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "trace/synthetic.h"
#include "util/status.h"

namespace cascache::trace {

/// Binary trace file IO (little-endian throughout). Three format versions,
/// all read by one parser, MappedTrace::Open (mapped_trace.h):
///
/// v1 (legacy, read-only; its records are copied out on load, since the
/// request region is unaligned):
///   magic "CCTR" | uint32 version=1 | uint32 num_objects |
///   uint32 num_servers | uint64 num_requests |
///   per object: uint64 size, uint32 server |
///   per request: double time, uint32 client, uint32 object
///
/// v2 (current, mmap-able):
///   fixed 32-byte header:
///     magic "CCTR" | uint32 version=2 | uint32 num_objects |
///     uint32 num_servers | uint64 num_requests | uint64 request_offset
///   catalog at byte 32: per object uint64 size, uint32 server
///   zero padding up to request_offset (a multiple of 4096, so the
///   request region starts page-aligned)
///   request region: num_requests fixed-width 16-byte records, each the
///   in-memory layout of trace::Request (double time, uint32 client,
///   uint32 object) — MappedTrace overlays this region directly as a
///   Request array.
///
/// v3 (procedural catalog, mmap-able):
///   same 32-byte header as v2 with version=3, followed at byte 32 by a
///   64-byte CatalogModel block (object_catalog.h) instead of per-object
///   entries: the catalog is regenerated from the model on load
///   (ObjectCatalog::BuildProcedural), so a 10^8-object trace costs 64
///   bytes of catalog on disk and a 64 KiB quantile table in RAM. Zero
///   padding and the page-aligned request region are identical to v2.
///
/// The format exists so users can substitute a real proxy trace (e.g. a
/// Boeing-style log converted offline via ConvertCsvTrace) for the
/// synthetic workload, and so paper-scale (22M+) traces replay without
/// being materialized in RAM.
constexpr char kTraceMagic[4] = {'C', 'C', 'T', 'R'};
constexpr uint32_t kTraceVersion1 = 1;
constexpr uint32_t kTraceVersion2 = 2;
constexpr uint32_t kTraceVersion3 = 3;
/// Alignment of the v2 request region within the file.
constexpr uint64_t kTraceRequestAlign = 4096;
/// Byte size of the fixed v2 header.
constexpr uint64_t kTraceV2HeaderBytes = 32;
/// Byte size of one materialized catalog entry (uint64 size, uint32 server).
constexpr uint64_t kTraceCatalogEntryBytes = 12;

/// Writes `workload` in the current format: v2, or v3 when the catalog
/// is procedural (catalog.procedural()), through one TraceWriter.
util::Status WriteTrace(const Workload& workload, const std::string& path);

/// Reads a trace in any format version (v1, v2 or v3) into RAM:
/// MappedTrace::Open (magic, version, header, catalog, truncation), then
/// MappedTrace::Validate (object ids in range, timestamps monotonically
/// non-decreasing), then a copy of the records.
util::StatusOr<Workload> ReadTrace(const std::string& path);

/// Writes the request stream as CSV ("time,client,object,size,server")
/// for external analysis; the catalog is embedded per-row. Timestamps
/// are rounded to microseconds, so CSV is an interchange format, not a
/// bit-exact round-trip of the binary trace.
util::Status WriteTraceCsv(const Workload& workload, const std::string& path);

/// Converts a CSV request log in the WriteTraceCsv column layout
/// ("time,client,object,size,server", optional header row) into a v2
/// binary trace. Two streaming passes: the first derives the catalog,
/// renumbering log object ids densely by first appearance (real logs
/// are sparse; size/server must be consistent across rows of the same
/// object), the second writes the request region. Memory is
/// O(num_objects), independent of request count.
util::Status ConvertCsvTrace(const std::string& csv_path,
                             const std::string& out_path);

/// Streaming writer for v2 and v3 traces: the catalog is written up front and
/// requests are appended in bounded blocks, so arbitrarily long traces
/// are produced in O(1) resident memory. If the final request count
/// differs from `expected_requests`, Close() patches the header.
class TraceWriter {
 public:
  /// `expected_requests` is a hint written into the header immediately;
  /// pass 0 when unknown (Close() fixes it up either way).
  static util::StatusOr<std::unique_ptr<TraceWriter>> Create(
      const std::string& path, const ObjectCatalog& catalog,
      uint64_t expected_requests = 0);

  /// A v3 trace of the procedural catalog that `model` generates over
  /// `num_objects` objects and `num_servers` servers: the header needs
  /// only the model block, so the catalog itself is never built.
  static util::StatusOr<std::unique_ptr<TraceWriter>> Create(
      const std::string& path, const CatalogModel& model,
      uint32_t num_objects, uint32_t num_servers, uint64_t expected_requests);

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;
  ~TraceWriter();

  /// Appends `count` records. Validates object-id range and monotone
  /// timestamps (same invariants the readers enforce).
  util::Status Append(const Request* batch, size_t count);
  util::Status Append(const Request& request) { return Append(&request, 1); }

  uint64_t requests_written() const { return requests_written_; }

  /// Flushes, patches the header request count if needed and closes the
  /// file. Idempotent; also invoked (errors ignored) by the destructor.
  util::Status Close();

 private:
  TraceWriter() = default;

  /// Opens `path` and writes the preamble: v3 from `model` when given,
  /// else v2 from `catalog`'s entries.
  static util::StatusOr<std::unique_ptr<TraceWriter>> Open(
      const std::string& path, uint32_t num_objects, uint32_t num_servers,
      uint64_t expected_requests, const CatalogModel* model,
      const ObjectCatalog* catalog);

  std::FILE* file_ = nullptr;
  std::string path_;
  std::vector<char> iobuf_;
  uint32_t num_objects_ = 0;
  uint64_t expected_requests_ = 0;
  uint64_t requests_written_ = 0;
  double prev_time_ = -1.0;
  bool closed_ = false;
};

/// Summary statistics of a workload, for trace inspection tools.
struct TraceStats {
  uint64_t num_requests = 0;
  uint32_t num_objects = 0;
  uint32_t num_objects_referenced = 0;
  uint32_t num_clients_active = 0;
  double duration_seconds = 0.0;
  uint64_t total_bytes_requested = 0;
  double mean_object_size = 0.0;
  /// Least-squares Zipf exponent of the observed access counts.
  double estimated_zipf_theta = 0.0;
  /// Fraction of requests going to the top 10% most-referenced objects.
  double top10pct_request_share = 0.0;
};

TraceStats ComputeTraceStats(const Workload& workload);

/// Extended, logstats-style summary of an on-disk trace: the mapped
/// trace is validated, then summarized in one pass that releases pages
/// as it goes. Memory is bounded: above 2^26 catalog objects the
/// per-object access counts switch from a dense vector to a hash map
/// keyed by the referenced ids only, so 10^8-object (v3) traces
/// summarize within the scale-smoke RSS budget.
struct TraceSummary {
  TraceStats stats;
  uint32_t format_version = 0;
  uint64_t file_bytes = 0;
  /// Object size percentiles over the catalog (bytes, nearest-rank).
  uint64_t size_p50 = 0, size_p90 = 0, size_p99 = 0, size_max = 0;
  /// Request-weighted size percentiles (each request contributes its
  /// object's size).
  uint64_t req_size_p50 = 0, req_size_p90 = 0, req_size_p99 = 0;
  /// Inter-arrival gap statistics (seconds, over num_requests-1 gaps).
  double interarrival_mean = 0.0, interarrival_stddev = 0.0;
  double interarrival_min = 0.0, interarrival_max = 0.0;
  /// Least-squares Zipf slope of each request-count window (epoch): the
  /// trace is split into SummarizeOptions::epochs equal-count windows and
  /// the slope is estimated per window. A static trace shows a flat
  /// profile; drifting popularity shows up as windowed slopes well below
  /// the whole-trace estimate (rank mixing flattens the aggregate law).
  std::vector<double> epoch_zipf_theta;
};

struct SummarizeOptions {
  /// Number of equal-request-count windows for epoch_zipf_theta;
  /// 0 disables the per-epoch pass.
  uint32_t epochs = 4;
};

util::StatusOr<TraceSummary> SummarizeTrace(const std::string& path);
util::StatusOr<TraceSummary> SummarizeTrace(const std::string& path,
                                            const SummarizeOptions& options);

}  // namespace cascache::trace

#endif  // CASCACHE_TRACE_TRACE_IO_H_
