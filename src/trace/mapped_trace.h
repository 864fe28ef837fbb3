#ifndef CASCACHE_TRACE_MAPPED_TRACE_H_
#define CASCACHE_TRACE_MAPPED_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "trace/object_catalog.h"
#include "util/status.h"

namespace cascache::trace {

/// Read-only memory-mapped view of a binary trace of any format version
/// (trace_io.h) — the one trace reader: ReadTrace, SummarizeTrace and
/// ExperimentRunner::CreateFromTrace all load through Open().
///
/// A v2 or v3 file's page-aligned request region is overlaid directly
/// as a Request array — no per-request copies, no decode pass — and the
/// single mapping is shared read-only by every parallel sweep cell; a v3
/// file's procedural catalog is regenerated from its 64-byte model block
/// at open. The kernel is advised of the sequential access pattern
/// (MADV_SEQUENTIAL + MADV_WILLNEED), and consumed pages can be advised
/// away (ReleaseUpTo) so a replay's resident set stays O(1) in trace
/// length.
///
/// A v1 file's request region starts at 24 + 12*num_objects, which is
/// not 8-byte aligned in general, so overlaying doubles would be
/// undefined behavior: Open() copies its records into an owned, aligned
/// array instead, and ReleaseUpTo does nothing for it.
///
/// Open() checks the header, the catalog and the file length; the
/// per-record checks are Validate()'s, which every load of an untrusted
/// file runs before replaying it.
class MappedTrace {
 public:
  static util::StatusOr<std::unique_ptr<MappedTrace>> Open(
      const std::string& path);

  MappedTrace(const MappedTrace&) = delete;
  MappedTrace& operator=(const MappedTrace&) = delete;
  ~MappedTrace();

  const ObjectCatalog& catalog() const { return catalog_; }
  uint64_t num_requests() const { return num_requests_; }
  const std::string& path() const { return path_; }
  /// Format version of the file (kTraceVersion1/2/3).
  uint32_t version() const { return version_; }
  uint64_t file_bytes() const { return map_bytes_; }

  /// The whole request stream, straight out of the mapping. Seekable by
  /// construction: subspans address warm-up/measure splits and sweep
  /// cells by offset.
  RequestSpan requests() const {
    return RequestSpan(requests_, static_cast<size_t>(num_requests_));
  }

  /// Borrowed view for Simulator::Run. The view must not outlive this
  /// MappedTrace.
  WorkloadView View() const {
    return WorkloadView{&catalog_, requests(), {}};
  }

  /// Like View(), but wires WorkloadView::on_consumed to ReleaseUpTo so
  /// a sequential replay keeps resident memory O(1) in trace length.
  /// Each call starts a new pass: the release high-water resets to 0, so
  /// consecutive sweep cells replaying the same mapping each release as
  /// they go. Released pages refault (from page cache or
  /// disk) if touched again, so don't interleave passes.
  WorkloadView StreamingView();

  /// Advises the kernel (MADV_DONTNEED) that all request pages below
  /// `request_index` are no longer needed, in multiples of
  /// kReleaseGranularityBytes. Thread-safe; purely advisory; a no-op for
  /// a v1 trace, whose records live in an owned copy.
  void ReleaseUpTo(size_t request_index);

  /// One full streaming validation pass over the request region (object
  /// ids in range, timestamps monotonically non-decreasing). Releases
  /// pages as it scans so the pass itself stays O(1) resident. Every load
  /// path (ReadTrace, SummarizeTrace, CreateFromTrace) runs it once; the
  /// replay itself then trusts the records.
  util::Status Validate();

  /// Release granularity: consumed pages are dropped in 16 MiB steps so
  /// the advisory syscall stays rare.
  static constexpr size_t kReleaseGranularityBytes = 16 << 20;

 private:
  MappedTrace() = default;

  std::string path_;
  uint32_t version_ = 0;
  ObjectCatalog catalog_;
  void* map_ = nullptr;
  size_t map_bytes_ = 0;
  uint64_t request_offset_ = 0;
  uint64_t num_requests_ = 0;
  const Request* requests_ = nullptr;
  /// A v1 trace's records, copied out of the unaligned request region.
  std::vector<Request> owned_;

  std::mutex release_mu_;
  size_t released_bytes_ = 0;  // Bytes of the request region already dropped.
};

}  // namespace cascache::trace

#endif  // CASCACHE_TRACE_MAPPED_TRACE_H_
