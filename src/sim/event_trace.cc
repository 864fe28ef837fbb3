#include "sim/event_trace.h"

#include <algorithm>
#include <cstdio>

namespace cascache::sim {

namespace {

/// SplitMix64 finalizer over (seed, index): a full-avalanche hash, so
/// consecutive request indices map to independent sampling decisions.
uint64_t MixSampleHash(uint64_t seed, uint64_t index) {
  uint64_t z = seed + (index + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void AppendDouble(const char* fmt, double v, std::string* out) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  *out += buf;
}

}  // namespace

const char* TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kRequest:
      return "request";
    case TraceEventType::kHit:
      return "hit";
    case TraceEventType::kOrigin:
      return "origin";
    case TraceEventType::kMiss:
      return "miss";
    case TraceEventType::kExpired:
      return "expired";
    case TraceEventType::kInvalidated:
      return "invalidated";
    case TraceEventType::kStaleServe:
      return "stale_serve";
    case TraceEventType::kPlacement:
      return "placement";
    case TraceEventType::kPlacementRejected:
      return "placement_rejected";
    case TraceEventType::kEviction:
      return "eviction";
    case TraceEventType::kDCacheHit:
      return "dcache_hit";
    case TraceEventType::kNodeCrash:
      return "node_crash";
    case TraceEventType::kReroute:
      return "reroute";
    case TraceEventType::kRetry:
      return "retry";
    case TraceEventType::kRequestFailed:
      return "request_failed";
    case TraceEventType::kFaultDegraded:
      return "fault_degraded";
    case TraceEventType::kQueueDepth:
      return "queue_depth";
    case TraceEventType::kShed:
      return "shed";
    case TraceEventType::kSiblingProbe:
      return "sibling_probe";
    case TraceEventType::kSiblingServe:
      return "sibling_serve";
    case TraceEventType::kDiskDegraded:
      return "disk_degraded";
    case TraceEventType::kPromotion:
      return "promotion";
    case TraceEventType::kDemotion:
      return "demotion";
  }
  return "unknown";
}

EventTrace::EventTrace(const EventTraceOptions& options) : options_(options) {
  if (options_.ring_capacity == 0) options_.ring_capacity = 1;
  options_.sampling_rate = std::clamp(options_.sampling_rate, 0.0, 1.0);
  sample_all_ = options_.sampling_rate >= 1.0;
  // rate * 2^64, computed without overflowing uint64_t.
  threshold_ = static_cast<uint64_t>(options_.sampling_rate *
                                     18446744073709551616.0);
  ring_.reserve(std::min<size_t>(options_.ring_capacity, 4096));
}

bool EventTrace::SampleRequest(uint64_t request_index) const {
  if (sample_all_) return true;
  return MixSampleHash(options_.seed, request_index) < threshold_;
}

void EventTrace::Emit(const TraceEvent& event) {
  ++emitted_;
  if (ring_.size() < options_.ring_capacity) {
    ring_.push_back(event);
    next_ = ring_.size() % options_.ring_capacity;
    return;
  }
  ring_[next_] = event;
  next_ = (next_ + 1) % options_.ring_capacity;
}

uint64_t EventTrace::dropped() const { return emitted_ - ring_.size(); }

std::vector<TraceEvent> EventTrace::Records() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // Once the ring has wrapped, next_ points at the oldest record.
  const size_t start = ring_.size() < options_.ring_capacity ? 0 : next_;
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

void EventTrace::AppendJsonFields(const TraceEvent& event, std::string* out) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "\"req\":%llu,",
                static_cast<unsigned long long>(event.request_index));
  *out += buf;
  *out += "\"t\":";
  AppendDouble("%.6f", event.time, out);
  *out += ",\"type\":\"";
  *out += TraceEventTypeName(event.type);
  std::snprintf(buf, sizeof(buf),
                "\",\"node\":%d,\"level\":%d,\"object\":%llu,\"size\":%llu,",
                static_cast<int>(event.node), static_cast<int>(event.level),
                static_cast<unsigned long long>(event.object),
                static_cast<unsigned long long>(event.size_bytes));
  *out += buf;
  *out += "\"value\":";
  AppendDouble("%.6g", event.value, out);
}

void EventTrace::Clear() {
  ring_.clear();
  next_ = 0;
  emitted_ = 0;
}

}  // namespace cascache::sim
