#include "trace/trace_io.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "trace/mapped_trace.h"
#include "util/zipf.h"

namespace cascache::trace {

namespace {

// Byte offset of the num_requests header field (every version):
// magic(4) + version(4) + num_objects(4) + num_servers(4).
constexpr long kNumRequestsOffset = 16;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

template <typename T>
bool WriteOne(std::FILE* f, const T& v) {
  return std::fwrite(&v, sizeof(T), 1, f) == 1;
}

uint64_t AlignUp(uint64_t v, uint64_t align) {
  return (v + align - 1) / align * align;
}

/// Writes the v2/v3 header + catalog (or model block) + zero padding; on
/// return the stream is positioned at the (page-aligned) request region.
/// A procedural catalog selects v3 (64-byte model block), a materialized
/// one v2 (per-object entries).
util::Status WriteV2Preamble(std::FILE* f, const ObjectCatalog& catalog,
                             uint64_t num_requests, const std::string& path) {
  const uint32_t version =
      catalog.procedural() ? kTraceVersion3 : kTraceVersion2;
  const uint32_t num_objects = catalog.num_objects();
  const uint32_t num_servers = catalog.num_servers();
  const uint64_t catalog_bytes =
      catalog.procedural() ? sizeof(CatalogModel)
                           : kTraceCatalogEntryBytes * uint64_t{num_objects};
  const uint64_t catalog_end = kTraceV2HeaderBytes + catalog_bytes;
  const uint64_t request_offset = AlignUp(catalog_end, kTraceRequestAlign);
  if (std::fwrite(kTraceMagic, 1, 4, f) != 4 || !WriteOne(f, version) ||
      !WriteOne(f, num_objects) || !WriteOne(f, num_servers) ||
      !WriteOne(f, num_requests) || !WriteOne(f, request_offset)) {
    return util::Status::IoError("short write: " + path);
  }
  if (catalog.procedural()) {
    if (!WriteOne(f, catalog.model())) {
      return util::Status::IoError("short write: " + path);
    }
  } else {
    for (ObjectId id = 0; id < num_objects; ++id) {
      if (!WriteOne(f, catalog.size(id)) ||
          !WriteOne(f, catalog.server(id))) {
        return util::Status::IoError("short write: " + path);
      }
    }
  }
  const uint64_t pad = request_offset - catalog_end;
  static constexpr char kZeros[512] = {};
  for (uint64_t done = 0; done < pad;) {
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(pad - done, sizeof(kZeros)));
    if (std::fwrite(kZeros, 1, n, f) != n) {
      return util::Status::IoError("short write: " + path);
    }
    done += n;
  }
  return util::Status::Ok();
}

/// Whole-trace statistics from the access counts of the referenced
/// objects (one entry per object requested at least once, any order).
TraceStats StatsFromCounts(const ObjectCatalog& catalog,
                           std::vector<double> referenced,
                           uint64_t num_requests, double duration_seconds,
                           uint64_t total_bytes_requested,
                           uint32_t num_clients_active) {
  TraceStats stats;
  stats.num_requests = num_requests;
  stats.num_objects = catalog.num_objects();
  stats.num_objects_referenced = static_cast<uint32_t>(referenced.size());
  stats.duration_seconds = duration_seconds;
  stats.mean_object_size = catalog.mean_size();
  stats.total_bytes_requested = total_bytes_requested;
  stats.num_clients_active = num_clients_active;

  std::sort(referenced.rbegin(), referenced.rend());
  stats.estimated_zipf_theta = util::EstimateZipfTheta(referenced);
  if (!referenced.empty() && stats.num_requests > 0) {
    const size_t top = std::max<size_t>(1, referenced.size() / 10);
    double top_sum = 0.0;
    for (size_t i = 0; i < top; ++i) top_sum += referenced[i];
    stats.top10pct_request_share =
        top_sum / static_cast<double>(stats.num_requests);
  }
  return stats;
}

/// Nearest-rank percentile of an ascending-sorted vector.
uint64_t PercentileSorted(const std::vector<uint64_t>& sorted, double pct) {
  if (sorted.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

struct CsvRow {
  double time = 0.0;
  uint32_t client = 0;
  uint32_t object = 0;
  unsigned long long size = 0;
  uint32_t server = 0;
};

/// Parses one CSV line in the WriteTraceCsv layout. Returns true if a
/// data row was parsed, false for a skippable line (blank, or the
/// header row when `lineno` is 1).
util::StatusOr<bool> ParseCsvRow(const char* line, uint64_t lineno,
                                 const std::string& path, CsvRow* row) {
  const char* p = line;
  while (*p == ' ' || *p == '\t') ++p;
  if (*p == '\0' || *p == '\n' || *p == '\r') return false;
  if (std::sscanf(p, "%lf,%u,%u,%llu,%u", &row->time, &row->client,
                  &row->object, &row->size, &row->server) != 5) {
    const bool looks_like_header =
        !(std::isdigit(static_cast<unsigned char>(*p)) || *p == '-' ||
          *p == '+' || *p == '.');
    if (lineno == 1 && looks_like_header) return false;
    return util::Status::InvalidArgument(
        "unparseable CSV row " + std::to_string(lineno) + " in " + path);
  }
  return true;
}

/// Distinct client ids of a request stream, counted in memory bounded by
/// the clients seen: the format bounds no client id, so a bitmap indexed
/// by id would cost 512 MiB for one request from client 0xFFFFFFFF.
class ClientCounter {
 public:
  void Add(uint32_t client) { seen_.insert(client); }
  uint32_t count() const { return static_cast<uint32_t>(seen_.size()); }

 private:
  std::unordered_set<uint32_t> seen_;
};

}  // namespace

util::Status WriteTrace(const Workload& workload, const std::string& path) {
  CASCACHE_ASSIGN_OR_RETURN(
      std::unique_ptr<TraceWriter> writer,
      TraceWriter::Create(path, workload.catalog, workload.requests.size()));
  CASCACHE_RETURN_IF_ERROR(
      writer->Append(workload.requests.data(), workload.requests.size()));
  return writer->Close();
}

util::StatusOr<Workload> ReadTrace(const std::string& path) {
  CASCACHE_ASSIGN_OR_RETURN(std::unique_ptr<MappedTrace> mapped,
                            MappedTrace::Open(path));
  CASCACHE_RETURN_IF_ERROR(mapped->Validate());
  Workload workload;
  workload.catalog = mapped->catalog();
  const RequestSpan requests = mapped->requests();
  workload.requests.assign(requests.begin(), requests.end());
  return workload;
}

util::Status WriteTraceCsv(const Workload& workload,
                           const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (f == nullptr) {
    return util::Status::IoError("cannot open for write: " + path);
  }
  std::fputs("time,client,object,size,server\n", f.get());
  for (const Request& req : workload.requests) {
    if (std::fprintf(f.get(), "%.6f,%u,%u,%llu,%u\n", req.time, req.client,
                     req.object,
                     static_cast<unsigned long long>(
                         workload.catalog.size(req.object)),
                     workload.catalog.server(req.object)) < 0) {
      return util::Status::IoError("short write: " + path);
    }
  }
  return util::Status::Ok();
}

util::Status ConvertCsvTrace(const std::string& csv_path,
                             const std::string& out_path) {
  // Pass 1: derive the catalog and request count. Log object ids are
  // renumbered densely by first appearance (real request logs are
  // sparse — only requested objects show up), with a consistent
  // size/server required on every row of the same object.
  std::unordered_map<uint32_t, uint32_t> dense_id;
  std::vector<uint64_t> sizes;
  std::vector<uint32_t> servers;
  uint64_t rows = 0;
  {
    FilePtr in(std::fopen(csv_path.c_str(), "r"));
    if (in == nullptr) {
      return util::Status::IoError("cannot open for read: " + csv_path);
    }
    char line[4096];
    uint64_t lineno = 0;
    while (std::fgets(line, sizeof(line), in.get()) != nullptr) {
      ++lineno;
      CsvRow row;
      CASCACHE_ASSIGN_OR_RETURN(const bool is_data,
                                ParseCsvRow(line, lineno, csv_path, &row));
      if (!is_data) continue;
      if (row.size == 0) {
        return util::Status::InvalidArgument(
            "zero-size object in CSV row " + std::to_string(lineno));
      }
      const auto [it, inserted] = dense_id.try_emplace(
          row.object, static_cast<uint32_t>(sizes.size()));
      if (inserted) {
        sizes.push_back(row.size);
        servers.push_back(row.server);
      } else if (sizes[it->second] != row.size ||
                 servers[it->second] != row.server) {
        return util::Status::InvalidArgument(
            "conflicting size/server for object " +
            std::to_string(row.object) + " at CSV row " +
            std::to_string(lineno));
      }
      ++rows;
    }
    if (std::ferror(in.get())) {
      return util::Status::IoError("read failed: " + csv_path);
    }
  }
  if (rows == 0) {
    return util::Status::InvalidArgument("no request rows in CSV: " +
                                         csv_path);
  }
  ObjectCatalog catalog;
  for (size_t id = 0; id < sizes.size(); ++id) {
    catalog.Add(sizes[id], servers[id]);
  }

  // Pass 2: stream the request region through a TraceWriter (which
  // re-validates id ranges and timestamp monotonicity).
  FilePtr in(std::fopen(csv_path.c_str(), "r"));
  if (in == nullptr) {
    return util::Status::IoError("cannot open for read: " + csv_path);
  }
  CASCACHE_ASSIGN_OR_RETURN(std::unique_ptr<TraceWriter> writer,
                            TraceWriter::Create(out_path, catalog, rows));
  char line[4096];
  uint64_t lineno = 0;
  while (std::fgets(line, sizeof(line), in.get()) != nullptr) {
    ++lineno;
    CsvRow row;
    CASCACHE_ASSIGN_OR_RETURN(const bool is_data,
                              ParseCsvRow(line, lineno, csv_path, &row));
    if (!is_data) continue;
    Request req;
    req.time = row.time;
    req.client = row.client;
    req.object = dense_id.at(row.object);
    const util::Status st = writer->Append(req);
    if (!st.ok()) {
      return util::Status(st.code(), "CSV row " + std::to_string(lineno) +
                                         ": " + st.message());
    }
  }
  if (std::ferror(in.get())) {
    return util::Status::IoError("read failed: " + csv_path);
  }
  return writer->Close();
}

TraceWriter::~TraceWriter() {
  Close();  // Best effort; errors surface only via an explicit Close().
}

util::StatusOr<std::unique_ptr<TraceWriter>> TraceWriter::Create(
    const std::string& path, const ObjectCatalog& catalog,
    uint64_t expected_requests) {
  std::unique_ptr<TraceWriter> writer(new TraceWriter());
  writer->file_ = std::fopen(path.c_str(), "wb");
  if (writer->file_ == nullptr) {
    return util::Status::IoError("cannot open for write: " + path);
  }
  writer->path_ = path;
  writer->num_objects_ = catalog.num_objects();
  writer->expected_requests_ = expected_requests;
  writer->iobuf_.resize(1 << 20);
  std::setvbuf(writer->file_, writer->iobuf_.data(), _IOFBF,
               writer->iobuf_.size());
  CASCACHE_RETURN_IF_ERROR(
      WriteV2Preamble(writer->file_, catalog, expected_requests, path));
  return writer;
}

util::Status TraceWriter::Append(const Request* batch, size_t count) {
  if (closed_) {
    return util::Status::FailedPrecondition("trace writer already closed");
  }
  for (size_t i = 0; i < count; ++i) {
    if (batch[i].object >= num_objects_) {
      return util::Status::InvalidArgument("object id out of range");
    }
    if (batch[i].time < prev_time_) {
      return util::Status::InvalidArgument(
          "request timestamps not sorted in trace");
    }
    prev_time_ = batch[i].time;
  }
  if (count > 0 &&
      std::fwrite(batch, sizeof(Request), count, file_) != count) {
    return util::Status::IoError("short write: " + path_);
  }
  requests_written_ += count;
  return util::Status::Ok();
}

util::Status TraceWriter::Close() {
  if (closed_) return util::Status::Ok();
  closed_ = true;
  if (file_ == nullptr) return util::Status::Ok();
  util::Status status = util::Status::Ok();
  if (requests_written_ != expected_requests_) {
    if (fseeko(file_, kNumRequestsOffset, SEEK_SET) != 0 ||
        !WriteOne(file_, requests_written_)) {
      status = util::Status::IoError("header patch failed: " + path_);
    }
  }
  if (std::fclose(file_) != 0 && status.ok()) {
    status = util::Status::IoError("close failed: " + path_);
  }
  file_ = nullptr;
  return status;
}

TraceStats ComputeTraceStats(const Workload& workload) {
  std::vector<double> referenced;
  for (uint64_t c : CountAccesses(workload)) {
    if (c > 0) referenced.push_back(static_cast<double>(c));
  }
  ClientCounter clients;
  uint64_t total_bytes = 0;
  for (const Request& req : workload.requests) {
    total_bytes += workload.catalog.size(req.object);
    clients.Add(req.client);
  }
  return StatsFromCounts(workload.catalog, std::move(referenced),
                         workload.requests.size(), workload.Duration(),
                         total_bytes, clients.count());
}

util::StatusOr<TraceSummary> SummarizeTrace(const std::string& path) {
  return SummarizeTrace(path, SummarizeOptions{});
}

util::StatusOr<TraceSummary> SummarizeTrace(const std::string& path,
                                            const SummarizeOptions& options) {
  CASCACHE_ASSIGN_OR_RETURN(std::unique_ptr<MappedTrace> mapped,
                            MappedTrace::Open(path));
  CASCACHE_RETURN_IF_ERROR(mapped->Validate());
  TraceSummary summary;
  summary.format_version = mapped->version();
  summary.file_bytes = mapped->file_bytes();
  const ObjectCatalog& catalog = mapped->catalog();
  // A second sequential pass: it releases the pages it consumes, block
  // by block, so the summary stays O(1) resident in trace length.
  const WorkloadView view = mapped->StreamingView();
  const RequestSpan requests = view.requests;
  const uint64_t num_requests = requests.size();
  constexpr size_t kReleaseBlock =
      MappedTrace::kReleaseGranularityBytes / sizeof(Request);

  // Per-object access counts: dense vector up to 2^26 objects, hash map
  // over the referenced ids above (a 10^8-object dense vector would be
  // 800 MB; a 10M-request trace touches far fewer distinct objects).
  constexpr uint32_t kDenseCountLimit = 1u << 26;
  const bool dense_counts = catalog.num_objects() <= kDenseCountLimit;
  std::vector<uint64_t> counts;
  if (dense_counts) counts.resize(catalog.num_objects(), 0);
  std::unordered_map<ObjectId, uint64_t> sparse_counts;

  // Per-epoch Zipf slope: requests are split into `epochs` equal-count
  // windows; each window's counts are accumulated separately (bounded by
  // the window's request count) and reduced to a slope at the boundary.
  const uint32_t epochs = num_requests > 0 ? options.epochs : 0;
  std::unordered_map<ObjectId, uint64_t> window_counts;
  uint32_t current_epoch = 0;
  const auto flush_epoch = [&]() {
    std::vector<double> window_sorted;
    window_sorted.reserve(window_counts.size());
    for (const auto& [id, c] : window_counts) {
      window_sorted.push_back(static_cast<double>(c));
    }
    std::sort(window_sorted.rbegin(), window_sorted.rend());
    summary.epoch_zipf_theta.push_back(util::EstimateZipfTheta(window_sorted));
    window_counts.clear();
  };

  ClientCounter clients;
  uint64_t total_bytes = 0;
  double duration = 0.0;
  // Welford accumulation over inter-arrival gaps.
  uint64_t gaps = 0;
  double gap_mean = 0.0, gap_m2 = 0.0;
  double gap_min = 0.0, gap_max = 0.0;
  double prev_time = 0.0;
  bool first = true;

  for (uint64_t r = 0; r < num_requests; ++r) {
    const Request& req = requests[r];
    if (dense_counts) {
      ++counts[req.object];
    } else {
      ++sparse_counts[req.object];
    }
    if (epochs > 0) {
      const uint32_t epoch = static_cast<uint32_t>(std::min<uint64_t>(
          epochs - 1, r * epochs / num_requests));
      if (epoch != current_epoch) {
        flush_epoch();
        current_epoch = epoch;
      }
      ++window_counts[req.object];
    }
    total_bytes += catalog.size(req.object);
    clients.Add(req.client);
    duration = req.time;
    if (!first) {
      const double gap = req.time - prev_time;
      ++gaps;
      const double delta = gap - gap_mean;
      gap_mean += delta / static_cast<double>(gaps);
      gap_m2 += delta * (gap - gap_mean);
      gap_min = gaps == 1 ? gap : std::min(gap_min, gap);
      gap_max = gaps == 1 ? gap : std::max(gap_max, gap);
    }
    prev_time = req.time;
    first = false;
    if ((r + 1) % kReleaseBlock == 0) view.on_consumed(r + 1);
  }
  view.on_consumed(num_requests);
  if (epochs > 0) flush_epoch();

  const uint32_t clients_active = clients.count();
  summary.interarrival_mean = gap_mean;
  summary.interarrival_stddev =
      gaps > 0 ? std::sqrt(gap_m2 / static_cast<double>(gaps)) : 0.0;
  summary.interarrival_min = gap_min;
  summary.interarrival_max = gap_max;

  // Catalog size percentiles. A procedural catalog's sorted quantile
  // table *is* its size distribution, so percentiles read straight off
  // it instead of materializing (and sorting) 10^8 sizes.
  if (catalog.procedural()) {
    const std::vector<uint64_t>& q = catalog.size_quantiles();
    summary.size_p50 = PercentileSorted(q, 50.0);
    summary.size_p90 = PercentileSorted(q, 90.0);
    summary.size_p99 = PercentileSorted(q, 99.0);
    summary.size_max = q.empty() ? 0 : q.back();
  } else {
    std::vector<uint64_t> sizes(catalog.num_objects());
    for (ObjectId id = 0; id < catalog.num_objects(); ++id) {
      sizes[id] = catalog.size(id);
    }
    std::sort(sizes.begin(), sizes.end());
    summary.size_p50 = PercentileSorted(sizes, 50.0);
    summary.size_p90 = PercentileSorted(sizes, 90.0);
    summary.size_p99 = PercentileSorted(sizes, 99.0);
    summary.size_max = sizes.empty() ? 0 : sizes.back();
  }

  // (size, count) of every referenced object: the whole-trace stats
  // reduce its counts, the request-weighted size percentiles walk it.
  std::vector<std::pair<uint64_t, uint64_t>> weighted;
  if (dense_counts) {
    for (ObjectId id = 0; id < catalog.num_objects(); ++id) {
      if (counts[id] > 0) weighted.emplace_back(catalog.size(id), counts[id]);
    }
  } else {
    weighted.reserve(sparse_counts.size());
    for (const auto& [id, c] : sparse_counts) {
      weighted.emplace_back(catalog.size(id), c);
    }
  }
  // Free the per-object counts before copying them once more: they are
  // the summary's largest allocation.
  std::vector<uint64_t>().swap(counts);
  std::unordered_map<ObjectId, uint64_t>().swap(sparse_counts);
  std::vector<double> referenced;
  referenced.reserve(weighted.size());
  for (const auto& [size, count] : weighted) {
    referenced.push_back(static_cast<double>(count));
  }
  summary.stats = StatsFromCounts(catalog, std::move(referenced),
                                  num_requests, duration, total_bytes,
                                  clients_active);

  // Request-weighted size percentiles: walk the pairs in ascending size
  // order accumulating request mass.
  std::sort(weighted.begin(), weighted.end());
  auto weighted_percentile = [&](double pct) -> uint64_t {
    if (weighted.empty() || num_requests == 0) return 0;
    const double threshold = pct / 100.0 * static_cast<double>(num_requests);
    uint64_t cum = 0;
    for (const auto& [size, count] : weighted) {
      cum += count;
      if (static_cast<double>(cum) >= threshold) return size;
    }
    return weighted.back().first;
  };
  summary.req_size_p50 = weighted_percentile(50.0);
  summary.req_size_p90 = weighted_percentile(90.0);
  summary.req_size_p99 = weighted_percentile(99.0);
  return summary;
}

}  // namespace cascache::trace
