#ifndef CASCACHE_SIM_EVENT_TRACE_H_
#define CASCACHE_SIM_EVENT_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace cascache::sim {

/// Knobs of the sampled structured event trace. Off by default: a
/// disabled trace costs the hot path a single null-pointer check.
struct EventTraceOptions {
  bool enabled = false;
  /// Fraction of requests traced. The decision is per request: a sampled
  /// request emits all of its events (request, per-hop outcomes,
  /// placements, evictions), an unsampled one emits none, so causal
  /// chains stay intact under sampling.
  double sampling_rate = 1.0;
  /// Ring-buffer capacity in records; once full, the oldest records are
  /// overwritten (dropped() counts the casualties).
  size_t ring_capacity = 4096;
  /// Seed of the deterministic per-request sampler: the same seed and
  /// request indices reproduce the same sampling decisions.
  uint64_t seed = 0x5ca1ab1edecade;
};

/// Record types emitted along one request's life cycle. Documented with
/// field semantics in docs/METRICS.md.
enum class TraceEventType : uint8_t {
  kRequest = 0,           ///< Request enters the hierarchy at its leaf.
  kHit,                   ///< A cache on the path served the object.
  kOrigin,                ///< The origin server served the object.
  kMiss,                  ///< A cache on the path could not serve.
  kExpired,               ///< A copy was dropped on TTL expiry.
  kInvalidated,           ///< A copy was dropped by an invalidation.
  kStaleServe,            ///< A cache served a copy behind the origin.
  kPlacement,             ///< A cache accepted a new copy.
  kPlacementRejected,     ///< A store declined a placement attempt.
  kEviction,              ///< A placement pushed a victim out.
  kDCacheHit,             ///< An ascent lookup found a d-cache descriptor.
  // Fault-plane records (emitted only when fault injection is active).
  kNodeCrash,             ///< A crashed cache was cold-restarted.
  kReroute,               ///< A request detoured around a failure.
  kRetry,                 ///< A timed-out request was retried.
  kRequestFailed,         ///< A request exhausted its retries.
  kFaultDegraded,         ///< A scheme fell back to no-state behavior.
  // Contention records (emitted only by the event-driven replay).
  kQueueDepth,            ///< Ops ahead of an admitted op at a node queue.
  kShed,                  ///< A node queue refused an op (request/store).
  // Tiered-node and sibling-cooperation records (appended: wire names of
  // the earlier types are stable).
  kSiblingProbe,          ///< A node probed a sibling for the object.
  kSiblingServe,          ///< A sibling held a fresh copy and served it.
  kDiskDegraded,          ///< A disk outage prevented a serve/placement.
  kPromotion,             ///< A disk serve copied the object into RAM.
  kDemotion,              ///< RAM copies dropped (eviction or inclusion).
};

/// Stable wire name of a record type (the JSONL "type" field).
const char* TraceEventTypeName(TraceEventType type);

/// One trace record. `value` is type-specific: serve events carry the
/// hop count, placement events the miss penalty the copy was admitted
/// with, eviction events the victim count (see docs/METRICS.md).
struct TraceEvent {
  uint64_t request_index = 0;  ///< Index of the request in the replay.
  double time = 0.0;           ///< Simulated time (seconds).
  TraceEventType type = TraceEventType::kRequest;
  int32_t node = -1;           ///< Cache node id; -1 if not node-scoped.
  int32_t level = 0;           ///< Tree depth of `node` (0 for en-route).
  uint64_t object = 0;
  uint64_t size_bytes = 0;
  double value = 0.0;          ///< Type-specific payload.
};

/// Bounded sink for TraceEvent records: deterministic per-request
/// sampling, a fixed-capacity ring holding the most recent records, and
/// the JSON fields of one record. Single-threaded like the Simulator that feeds it
/// (each parallel sweep worker owns its own instance).
class EventTrace {
 public:
  explicit EventTrace(const EventTraceOptions& options);

  const EventTraceOptions& options() const { return options_; }

  /// Whether the request at `request_index` is traced. Pure hash of
  /// (seed, index) against the sampling rate — independent of call order,
  /// so sequential and parallel sweeps sample identically.
  bool SampleRequest(uint64_t request_index) const;

  /// Appends a record, overwriting the oldest once the ring is full.
  void Emit(const TraceEvent& event);

  /// Records emitted over the sink's lifetime (kept + overwritten).
  uint64_t emitted() const { return emitted_; }
  /// Records overwritten by ring wrap-around.
  uint64_t dropped() const;

  /// Snapshot of the ring, oldest record first.
  std::vector<TraceEvent> Records() const;

  /// A record's JSON fields without the enclosing braces, for writers
  /// that prepend annotations (scheme, cache fraction) to each record
  /// (sim::WriteTraceJsonl).
  static void AppendJsonFields(const TraceEvent& event, std::string* out);

  void Clear();

 private:
  EventTraceOptions options_;
  /// Sampling threshold: trace iff Mix(seed, index) < threshold_, with
  /// rate >= 1 short-circuited to "always".
  uint64_t threshold_ = 0;
  bool sample_all_ = false;
  std::vector<TraceEvent> ring_;
  size_t next_ = 0;       ///< Ring slot the next record lands in.
  uint64_t emitted_ = 0;
};

}  // namespace cascache::sim

#endif  // CASCACHE_SIM_EVENT_TRACE_H_
