// Micro benchmark M2 (paper §2.4): per-operation cost of the cache data
// structures — O(log m) NCL-heap adjustment for cached objects, O(1)-ish
// d-cache maintenance, and LRU list operations — plus the greedy eviction
// planning that computes the piggybacked cost loss l_i.

#include <benchmark/benchmark.h>

#include "cache/flat_lru.h"
#include "cache/ncl_cache.h"
#include "util/random.h"

namespace {

using cascache::cache::FlatLru;
using cascache::cache::NclCache;
using cascache::cache::ObjectDescriptor;
using cascache::trace::ObjectId;
using cascache::util::Rng;

void BM_LruInsertEvict(benchmark::State& state) {
  const int working_set = static_cast<int>(state.range(0));
  FlatLru cache(static_cast<uint64_t>(working_set) * 100 / 2);
  Rng rng(1);
  ObjectId next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.Insert(next++ % (2 * working_set), 100));
  }
}
BENCHMARK(BM_LruInsertEvict)->Arg(1000)->Arg(100000);

void BM_LruTouch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  FlatLru cache(static_cast<uint64_t>(n) * 100);
  for (ObjectId id = 0; id < static_cast<ObjectId>(n); ++id) {
    cache.Insert(id, 100);
  }
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.Touch(static_cast<ObjectId>(rng.NextUint64(n))));
  }
}
BENCHMARK(BM_LruTouch)->Arg(1000)->Arg(100000);

void BM_NclInsertEvict(benchmark::State& state) {
  const int working_set = static_cast<int>(state.range(0));
  NclCache cache(static_cast<uint64_t>(working_set) * 100 / 2);
  Rng rng(3);
  ObjectId next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Insert(next++ % (2 * working_set), 100,
                                          rng.NextDouble(0.0, 10.0)));
  }
}
BENCHMARK(BM_NclInsertEvict)->Arg(1000)->Arg(100000);

void BM_NclUpdateLoss(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  NclCache cache(static_cast<uint64_t>(n) * 100);
  Rng rng(4);
  for (ObjectId id = 0; id < static_cast<ObjectId>(n); ++id) {
    cache.Insert(id, 100, rng.NextDouble(0.0, 10.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.UpdateLoss(static_cast<ObjectId>(rng.NextUint64(n)),
                         rng.NextDouble(0.0, 10.0)));
  }
}
BENCHMARK(BM_NclUpdateLoss)->Arg(1000)->Arg(100000);

void BM_NclPlanEviction(benchmark::State& state) {
  // Planning l_i happens on every request ascent in coordinated caching.
  const int n = 10000;
  NclCache cache(static_cast<uint64_t>(n) * 100);
  Rng rng(5);
  for (ObjectId id = 0; id < n; ++id) {
    cache.Insert(id, 100, rng.NextDouble(0.0, 10.0));
  }
  const uint64_t need = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    NclCache::EvictionPlan plan;  // Fresh per call: allocates its victims.
    cache.PlanEvictionInto(need, NclCache::kNoLossLimit, &plan);
    benchmark::DoNotOptimize(plan.cost_loss);
  }
}
BENCHMARK(BM_NclPlanEviction)->Arg(100)->Arg(1000)->Arg(10000);

void BM_NclPlanEvictionScratch(benchmark::State& state) {
  // Same planning work through the allocation-free path the coordinated
  // scheme uses on its ascent: one EvictionPlan reused across calls.
  const int n = 10000;
  NclCache cache(static_cast<uint64_t>(n) * 100);
  Rng rng(5);
  for (ObjectId id = 0; id < n; ++id) {
    cache.Insert(id, 100, rng.NextDouble(0.0, 10.0));
  }
  const uint64_t need = static_cast<uint64_t>(state.range(0));
  NclCache::EvictionPlan plan;
  for (auto _ : state) {
    cache.PlanEvictionInto(need, NclCache::kNoLossLimit, &plan);
    benchmark::DoNotOptimize(plan.cost_loss);
  }
}
BENCHMARK(BM_NclPlanEvictionScratch)->Arg(100)->Arg(1000)->Arg(10000);

void BM_DCacheChurn(benchmark::State& state) {
  // The NCL store's d-cache alone: admit unknown descriptors (LFU
  // admission, victim pops) and overwrite + re-rank known ones.
  const int capacity = static_cast<int>(state.range(0));
  NclCache cache(0, static_cast<size_t>(capacity));
  Rng rng(6);
  for (auto _ : state) {
    ObjectDescriptor desc;
    desc.size = 100;
    desc.frequency = rng.NextDouble(0.0, 10.0);
    const ObjectId id = static_cast<ObjectId>(rng.NextUint64(4 * capacity));
    const NclCache::Entry entry = cache.Find(id);
    if (entry.known()) {
      cache.DescriptorAt(entry) = desc;
      cache.RefreshDescriptor(entry);
    } else {
      benchmark::DoNotOptimize(cache.AdmitDescriptor(id, desc));
    }
  }
}
BENCHMARK(BM_DCacheChurn)->Arg(1000)->Arg(100000);

}  // namespace
