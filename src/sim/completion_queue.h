#ifndef CASCACHE_SIM_COMPLETION_QUEUE_H_
#define CASCACHE_SIM_COMPLETION_QUEUE_H_

#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "sim/metrics.h"
#include "util/check.h"

namespace cascache::sim {

/// Requests whose exchange has run but whose response has not yet reached
/// the requester (event-driven replay). Exchanges run in arrival order;
/// only the recording of a request waits for its completion time. The
/// replay loop calls DrainThrough(arrival time) before each exchange, so
/// completions are recorded in (time, push order) order and a completion
/// at an arrival's exact time is recorded before that arrival's exchange —
/// the order a time-ordered heap of arrivals and completions would pop
/// them in, with only the completions on the heap.
class CompletionQueue {
 public:
  struct Completion {
    double time = 0.0;
    /// Push order: the tie-break among equal times.
    uint64_t seq = 0;
    RequestMetrics metrics;
    /// Recorded at all (false for warm-up requests).
    bool collect = false;
  };

  /// Queues a completion. One earlier than the horizon (the time of the
  /// last DrainThrough, i.e. the arrival whose exchange produced it) would
  /// be recorded after later events: a programming error that aborts.
  void Push(double time, const RequestMetrics& metrics, bool collect) {
    CASCACHE_CHECK(time >= horizon_);
    heap_.push(Completion{time, next_seq_++, metrics, collect});
  }

  /// Hands every completion with time <= `t` to `sink`, in order, and
  /// moves the horizon to `t`.
  template <typename Sink>
  void DrainThrough(double t, Sink&& sink) {
    horizon_ = t;
    Drain(t, sink);
  }

  /// Hands every queued completion to `sink`, in order (end of a replay);
  /// the horizon stays where it is.
  template <typename Sink>
  void DrainAll(Sink&& sink) {
    Drain(std::numeric_limits<double>::infinity(), sink);
  }

  bool empty() const { return heap_.empty(); }

  /// Drops every queued completion and resets the horizon and the push
  /// counter (a fresh Run()).
  void Clear() {
    heap_ = {};
    next_seq_ = 0;
    horizon_ = -std::numeric_limits<double>::infinity();
  }

 private:
  /// Min-heap order: `a` pops later than `b` iff (time, seq) compares
  /// greater.
  struct Later {
    bool operator()(const Completion& a, const Completion& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  template <typename Sink>
  void Drain(double t, Sink& sink) {
    while (!heap_.empty() && heap_.top().time <= t) {
      sink(heap_.top());
      heap_.pop();
    }
  }

  std::priority_queue<Completion, std::vector<Completion>, Later> heap_;
  uint64_t next_seq_ = 0;
  double horizon_ = -std::numeric_limits<double>::infinity();
};

}  // namespace cascache::sim

#endif  // CASCACHE_SIM_COMPLETION_QUEUE_H_
