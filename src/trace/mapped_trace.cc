#include "trace/mapped_trace.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "trace/trace_io.h"

namespace cascache::trace {

namespace {

/// Byte size of the v1 header: the v2 header without request_offset.
constexpr uint64_t kV1HeaderBytes = kTraceV2HeaderBytes - sizeof(uint64_t);

/// How much of the request region to fault in eagerly (MADV_WILLNEED):
/// enough to hide the initial read latency without distorting the
/// resident-set story. One release granule: prefetching more shows up
/// permanently in VmHWM (the scale-smoke gate compares peak RSS across
/// trace lengths), while MADV_SEQUENTIAL's doubled readahead already
/// keeps the streaming replay fed past this point.
constexpr size_t kWillNeedBytes = MappedTrace::kReleaseGranularityBytes;

template <typename T>
T LoadUnaligned(const unsigned char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

}  // namespace

MappedTrace::~MappedTrace() {
  if (map_ != nullptr) ::munmap(map_, map_bytes_);
}

util::StatusOr<std::unique_ptr<MappedTrace>> MappedTrace::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return util::Status::IoError("cannot open for read: " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return util::Status::IoError("fstat failed: " + path);
  }
  const uint64_t file_bytes = static_cast<uint64_t>(st.st_size);
  if (file_bytes < kV1HeaderBytes) {
    ::close(fd);
    return util::Status::IoError("truncated header: " + path);
  }
  void* map = ::mmap(nullptr, static_cast<size_t>(file_bytes), PROT_READ,
                     MAP_PRIVATE, fd, 0);
  ::close(fd);  // The mapping keeps its own reference.
  if (map == MAP_FAILED) {
    return util::Status::IoError("mmap failed: " + path);
  }
  std::unique_ptr<MappedTrace> trace(new MappedTrace());
  trace->path_ = path;
  trace->map_ = map;
  trace->map_bytes_ = static_cast<size_t>(file_bytes);

  const unsigned char* base = static_cast<const unsigned char*>(map);
  if (std::memcmp(base, kTraceMagic, 4) != 0) {
    return util::Status::IoError("bad magic in trace file: " + path);
  }
  const uint32_t version = LoadUnaligned<uint32_t>(base + 4);
  if (version != kTraceVersion1 && version != kTraceVersion2 &&
      version != kTraceVersion3) {
    return util::Status::InvalidArgument("unsupported trace version");
  }
  const bool v1 = version == kTraceVersion1;
  const uint64_t header_bytes = v1 ? kV1HeaderBytes : kTraceV2HeaderBytes;
  if (file_bytes < header_bytes) {
    return util::Status::IoError("truncated header: " + path);
  }
  const uint32_t num_objects = LoadUnaligned<uint32_t>(base + 8);
  const uint32_t num_servers = LoadUnaligned<uint32_t>(base + 12);
  const uint64_t num_requests = LoadUnaligned<uint64_t>(base + 16);

  // v3 stores a 64-byte catalog model instead of per-object entries.
  const uint64_t catalog_bytes =
      version == kTraceVersion3
          ? sizeof(CatalogModel)
          : kTraceCatalogEntryBytes * uint64_t{num_objects};
  const uint64_t catalog_end = header_bytes + catalog_bytes;
  if (file_bytes < catalog_end) {
    return util::Status::IoError("truncated catalog: " + path);
  }
  // v1 records follow the catalog directly; v2/v3 name their offset.
  const uint64_t request_offset =
      v1 ? catalog_end : LoadUnaligned<uint64_t>(base + 24);
  if (!v1 && request_offset % kTraceRequestAlign != 0) {
    return util::Status::InvalidArgument(
        "request region not page-aligned: " + path);
  }
  if (request_offset < catalog_end) {
    return util::Status::InvalidArgument(
        "request region overlaps catalog: " + path);
  }
  // Divide rather than multiply, so a corrupt count cannot overflow.
  if (request_offset > file_bytes ||
      num_requests > (file_bytes - request_offset) / sizeof(Request)) {
    return util::Status::IoError(
        "trace file shorter than its header claims (truncated mapping): " +
        path);
  }

  if (version == kTraceVersion3) {
    // Procedural catalog: regenerate from the 64-byte model block.
    const CatalogModel model =
        LoadUnaligned<CatalogModel>(base + kTraceV2HeaderBytes);
    CASCACHE_RETURN_IF_ERROR(ValidateCatalogModel(model));
    if (num_objects == 0 || num_servers == 0) {
      return util::Status::InvalidArgument(
          "v3 trace needs objects and servers: " + path);
    }
    trace->catalog_.BuildProcedural(model, num_objects, num_servers);
  } else {
    const unsigned char* entry = base + header_bytes;
    for (uint32_t i = 0; i < num_objects;
         ++i, entry += kTraceCatalogEntryBytes) {
      const uint64_t size = LoadUnaligned<uint64_t>(entry);
      const uint32_t server = LoadUnaligned<uint32_t>(entry + 8);
      if (size == 0) {
        return util::Status::InvalidArgument("zero-size object in trace");
      }
      if (server >= num_servers) {
        return util::Status::InvalidArgument("server id out of range");
      }
      trace->catalog_.Add(size, server);
    }
  }

  trace->version_ = version;
  trace->request_offset_ = request_offset;
  trace->num_requests_ = num_requests;
  const size_t region_bytes =
      static_cast<size_t>(sizeof(Request) * num_requests);
  if (v1) {
    // Unaligned region: copy the records out instead of overlaying them.
    trace->owned_.resize(static_cast<size_t>(num_requests));
    if (region_bytes > 0) {
      std::memcpy(trace->owned_.data(), base + request_offset, region_bytes);
    }
    trace->requests_ = trace->owned_.data();
    return trace;
  }
  trace->requests_ =
      reinterpret_cast<const Request*>(base + request_offset);

  // Advisory only; failures are not actionable.
  unsigned char* region =
      static_cast<unsigned char*>(map) + request_offset;
  if (region_bytes > 0) {
    ::madvise(region, region_bytes, MADV_SEQUENTIAL);
    ::madvise(region, std::min(region_bytes, kWillNeedBytes), MADV_WILLNEED);
  }
  return trace;
}

WorkloadView MappedTrace::StreamingView() {
  // A new streaming pass restarts from request 0 (e.g. the next sweep
  // cell replaying the same mapping), so the release high-water must
  // restart with it — otherwise the previous pass's final ReleaseUpTo
  // pins the mark at the region's end and the new pass re-faults every
  // page without ever dropping one, making resident memory grow with
  // trace length again (caught by scripts/check_scale_smoke.sh).
  {
    std::lock_guard<std::mutex> lock(release_mu_);
    released_bytes_ = 0;
  }
  WorkloadView view = View();
  view.on_consumed = [this](size_t index) { ReleaseUpTo(index); };
  return view;
}

void MappedTrace::ReleaseUpTo(size_t request_index) {
  if (version_ == kTraceVersion1) return;  // Owned copy, nothing mapped.
  const uint64_t consumed_bytes =
      std::min<uint64_t>(request_index, num_requests_) * sizeof(Request);
  const size_t target = static_cast<size_t>(
      consumed_bytes / kReleaseGranularityBytes * kReleaseGranularityBytes);
  std::lock_guard<std::mutex> lock(release_mu_);
  if (target <= released_bytes_) return;
  unsigned char* start = static_cast<unsigned char*>(map_) +
                         request_offset_ + released_bytes_;
  // request_offset_ is a multiple of the page size and the granularity
  // is a multiple of the page size, so start/length are page-aligned.
  ::madvise(start, target - released_bytes_, MADV_DONTNEED);
  released_bytes_ = target;
}

util::Status MappedTrace::Validate() {
  double prev_time = -1.0;
  const uint32_t num_objects = catalog_.num_objects();
  constexpr uint64_t kScanBlock = 1 << 20;  // Requests between releases.
  for (uint64_t i = 0; i < num_requests_; ++i) {
    const Request& req = requests_[i];
    if (req.object >= num_objects) {
      return util::Status::InvalidArgument("object id out of range");
    }
    if (req.time < prev_time) {
      return util::Status::InvalidArgument(
          "request timestamps not sorted in trace");
    }
    prev_time = req.time;
    if ((i + 1) % kScanBlock == 0) {
      ReleaseUpTo(static_cast<size_t>(i + 1));
    }
  }
  ReleaseUpTo(static_cast<size_t>(num_requests_));
  return util::Status::Ok();
}

}  // namespace cascache::trace
