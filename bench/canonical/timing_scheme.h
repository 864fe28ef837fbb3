#ifndef CASCACHE_BENCH_CANONICAL_TIMING_SCHEME_H_
#define CASCACHE_BENCH_CANONICAL_TIMING_SCHEME_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "schemes/scheme.h"

namespace cascache::canonical {

/// Hook spans are a few hundred nanoseconds long. steady_clock reads are
/// ordered (they wait for earlier instructions to retire), which stops the
/// hook's work overlapping the simulator's around it and inflates short
/// spans by more than the hook costs in an untimed run; the raw TSC read
/// does not wait. Other targets fall back to steady_clock ticks.
inline uint64_t ReadTicks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// Converts span ticks to nanoseconds and knows what an empty span reads.
struct TickClock {
  double ns_per_tick = 1.0;
  double empty_span_ticks = 0.0;

  /// Measures the tick rate against steady_clock over ~20 ms and the
  /// median empty-span reading.
  static TickClock Calibrate() {
    using Clock = std::chrono::steady_clock;
    TickClock clock;
    const Clock::time_point wall_start = Clock::now();
    const uint64_t tick_start = ReadTicks();
    while (Clock::now() - wall_start < std::chrono::milliseconds(20)) {
    }
    const uint64_t ticks = ReadTicks() - tick_start;
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - wall_start)
            .count();
    if (ticks > 0) clock.ns_per_tick = ns / static_cast<double>(ticks);
    constexpr int kBatches = 9;
    constexpr int kReads = 20000;
    double batches[kBatches];
    for (double& batch : batches) {
      uint64_t total = 0;
      for (int i = 0; i < kReads; ++i) {
        const uint64_t start = ReadTicks();
        total += ReadTicks() - start;
      }
      batch = static_cast<double>(total) / kReads;
    }
    std::sort(batches, batches + kBatches);
    clock.empty_span_ticks = batches[kBatches / 2];
    return clock;
  }
};

/// Calls of one scheme hook and the ticks of the sampled ones.
struct HookSpan {
  uint64_t calls = 0;
  uint64_t sampled = 0;
  uint64_t ticks = 0;  ///< Summed over the sampled calls.

  /// Estimated host nanoseconds over all calls, empty-span reading removed.
  double EstimatedNs(const TickClock& clock) const {
    if (sampled == 0) return 0.0;
    const double sampled_ticks =
        static_cast<double>(ticks) -
        clock.empty_span_ticks * static_cast<double>(sampled);
    return sampled_ticks * clock.ns_per_tick * static_cast<double>(calls) /
           static_cast<double>(sampled);
  }
};

struct HookSpans {
  HookSpan ascend;
  HookSpan serve;
  HookSpan descend;
  HookSpan sibling;  ///< OnSiblingProbe and OnSiblingServe.
  uint64_t abort_calls = 0;
};

/// Forwarding CachingScheme decorator that times every hook from outside
/// the simulator. All capability queries forward to the wrapped scheme, so
/// the simulator picks the same replay path (a plain-LRU scheme keeps the
/// fused path, whose hooks never run) and the results are bit-identical.
/// Hooks are counted on every request and timed on the requests whose
/// replay index is a multiple of `sample_every` (a power of two).
class TimingScheme final : public schemes::CachingScheme {
 public:
  TimingScheme(std::unique_ptr<schemes::CachingScheme> inner,
               uint64_t sample_every, HookSpans* spans)
      : inner_(std::move(inner)),
        sample_mask_(sample_every - 1),
        spans_(spans) {}

  std::string name() const override { return inner_->name(); }
  schemes::CacheMode cache_mode() const override {
    return inner_->cache_mode();
  }
  bool uses_dcache() const override { return inner_->uses_dcache(); }
  bool observes_ascent() const override { return inner_->observes_ascent(); }
  bool uses_link_costs() const override { return inner_->uses_link_costs(); }
  bool plain_lru_replay() const override {
    return inner_->plain_lru_replay();
  }

  void OnAscend(sim::MessageContext& ctx, int hop) override {
    Timed(ctx, &spans_->ascend, [&] { inner_->OnAscend(ctx, hop); });
  }
  void OnServe(sim::MessageContext& ctx) override {
    Timed(ctx, &spans_->serve, [&] { inner_->OnServe(ctx); });
  }
  void OnAbort() override {
    ++spans_->abort_calls;
    inner_->OnAbort();
  }
  void OnDescend(sim::MessageContext& ctx, int hop) override {
    Timed(ctx, &spans_->descend, [&] { inner_->OnDescend(ctx, hop); });
  }
  void OnSiblingProbe(sim::MessageContext& ctx, int hop,
                      topology::NodeId sibling) override {
    Timed(ctx, &spans_->sibling,
          [&] { inner_->OnSiblingProbe(ctx, hop, sibling); });
  }
  void OnSiblingServe(sim::MessageContext& ctx) override {
    Timed(ctx, &spans_->sibling, [&] { inner_->OnSiblingServe(ctx); });
  }

 private:
  template <typename Fn>
  void Timed(const sim::MessageContext& ctx, HookSpan* span, Fn&& fn) {
    ++span->calls;
    if ((ctx.telemetry.request_index & sample_mask_) != 0) {
      fn();
      return;
    }
    ++span->sampled;
    const uint64_t start = ReadTicks();
    fn();
    span->ticks += ReadTicks() - start;
  }

  std::unique_ptr<schemes::CachingScheme> inner_;
  uint64_t sample_mask_;
  HookSpans* spans_;
};

}  // namespace cascache::canonical

#endif  // CASCACHE_BENCH_CANONICAL_TIMING_SCHEME_H_
