// Differential test of the cost-mode CacheNode (LNC-R and the coordinated
// scheme): random InsertCost / RecordAccess[OrAdmit] / AdmitDescriptor /
// UpdateMissPenaltyOrAdmit / EraseObject / Reset sequences run in
// lock-step against RefCostNode (tests/testing/ref_caches.h), the
// orchestration over a separate NCL store, main-descriptor map and
// d-cache. After every step the cached set, the op's descriptor (presence
// and every field), the NCL order and the d-cache size must match; a
// periodic sweep compares every id's descriptor.

#include <gtest/gtest.h>

#include <vector>

#include "sim/node.h"
#include "testing/ref_caches.h"
#include "util/random.h"

namespace cascache::sim {
namespace {

using cascache::testing::RefCostNode;
using trace::ObjectId;
using util::Rng;

constexpr uint64_t kCapacity = 2'000;
constexpr ObjectId kIds = 120;

void ExpectSameDescriptor(const ObjectDescriptor* got,
                          const ObjectDescriptor* want, int step) {
  ASSERT_EQ(got == nullptr, want == nullptr) << "step " << step;
  if (got == nullptr) return;
  ASSERT_EQ(got->size, want->size) << "step " << step;
  ASSERT_EQ(got->miss_penalty, want->miss_penalty) << "step " << step;
  ASSERT_EQ(got->frequency, want->frequency) << "step " << step;
  ASSERT_EQ(got->frequency_time, want->frequency_time) << "step " << step;
  ASSERT_EQ(got->num_accesses, want->num_accesses) << "step " << step;
  ASSERT_EQ(got->head, want->head) << "step " << step;
  ASSERT_EQ(got->access_times, want->access_times) << "step " << step;
}

/// Runs one random op sequence. The reference sees dense ids 0..kIds-1;
/// with `sparse` the node sees them spread over the whole 32-bit id space
/// (sparse id index), by a strictly increasing map so the (NCL, id)
/// tie-break orders both sides alike.
void RunCostNodeDifferential(cache::DCachePolicy policy, size_t dcache_entries,
                             bool sparse, uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "policy " << static_cast<int>(policy) << " dcache "
               << dcache_entries << " sparse " << sparse);
  auto node_id = [sparse](ObjectId k) -> ObjectId {
    return sparse ? k * 16'777'259u + 3u : k;
  };
  Rng rng(seed);
  CacheNodeConfig config;
  config.mode = CacheMode::kCost;
  config.capacity_bytes = kCapacity;
  config.dcache_entries = dcache_entries;
  config.dcache_policy = policy;
  config.catalog_ids = sparse ? uint64_t{1} << 32 : kIds;
  config.frequency.aging_interval = 40.0;  // Exercise the lazy refresh.
  CacheNode node(0, config);
  RefCostNode ref(kCapacity, dcache_entries, policy, config.frequency);

  // Fixed per-object sizes, as in the simulator; a few never fit.
  std::vector<uint64_t> sizes(kIds);
  for (ObjectId k = 0; k < kIds; ++k) {
    sizes[k] = k % 41 == 7 ? kCapacity + 1 : 1 + rng.NextUint64(400);
  }
  const double kPenalties[] = {1.0, 2.0, 4.0, 8.0};
  std::vector<ObjectId> node_evicted;
  std::vector<ObjectId> ref_evicted;
  bool dcache_filled = false;
  double now = 0.0;
  for (int step = 0; step < 20'000; ++step) {
    now += rng.NextDouble(0.0, 3.0);
    const ObjectId k = static_cast<ObjectId>(rng.NextUint64(kIds));
    const ObjectId id = node_id(k);
    const uint64_t size = sizes[k];
    const double penalty = rng.NextDouble(0.0, 1.0) < 0.7
                               ? kPenalties[rng.NextUint64(4)]
                               : rng.NextDouble(0.0, 10.0);
    const double dice = rng.NextDouble(0.0, 1.0);
    if (dice < 0.25) {
      const bool a = node.InsertCost(id, size, penalty, now, &node_evicted);
      const bool b = ref.InsertCost(k, size, penalty, now, &ref_evicted);
      ASSERT_EQ(a, b) << "step " << step;
      ASSERT_EQ(node_evicted.size(), ref_evicted.size()) << "step " << step;
      for (size_t i = 0; i < ref_evicted.size(); ++i) {
        ASSERT_EQ(node_evicted[i], node_id(ref_evicted[i])) << "step " << step;
      }
    } else if (dice < 0.45) {
      ASSERT_NO_FATAL_FAILURE(ExpectSameDescriptor(
          node.RecordAccess(id, now), ref.RecordAccess(k, now), step));
    } else if (dice < 0.6) {
      ASSERT_EQ(node.RecordAccessOrAdmit(id, size, now),
                ref.RecordAccessOrAdmit(k, size, now))
          << "step " << step;
    } else if (dice < 0.68) {
      if (!ref.Contains(k)) {  // Precondition: not cached here.
        ASSERT_NO_FATAL_FAILURE(
            ExpectSameDescriptor(node.AdmitDescriptor(id, size, now),
                                 ref.AdmitDescriptor(k, size, now), step));
      }
    } else if (dice < 0.83) {
      node.UpdateMissPenaltyOrAdmit(id, size, penalty, now);
      ref.UpdateMissPenaltyOrAdmit(k, size, penalty, now);
    } else if (dice < 0.88) {
      // A known id's penalty update: the reference's update-only path
      // against the node's one entry point.
      if (ref.FindDescriptor(k) != nullptr) {
        node.UpdateMissPenaltyOrAdmit(id, size, penalty, now);
        ref.UpdateMissPenalty(k, penalty, now);
      }
    } else if (dice < 0.998) {
      ASSERT_EQ(node.EraseObject(id), ref.EraseObject(k)) << "step " << step;
    } else {
      node.Reset(config);
      ref.Reset();
    }
    ASSERT_EQ(node.Contains(id), ref.Contains(k)) << "step " << step;
    ASSERT_NO_FATAL_FAILURE(ExpectSameDescriptor(
        node.FindDescriptor(id), ref.FindDescriptor(k), step));
    const std::vector<ObjectId> ref_order = ref.IdsByNcl();
    const std::vector<ObjectId> node_order = node.ncl()->IdsByNcl();
    ASSERT_EQ(node_order.size(), ref_order.size()) << "step " << step;
    for (size_t i = 0; i < ref_order.size(); ++i) {
      ASSERT_EQ(node_order[i], node_id(ref_order[i])) << "step " << step;
    }
    ASSERT_EQ(node.used_bytes(), ref.used_bytes()) << "step " << step;
    ASSERT_EQ(node.ncl()->dcache_size(), ref.dcache_size()) << "step " << step;
    ASSERT_LE(ref.dcache_size(), dcache_entries) << "step " << step;
    if (dcache_entries > 0 && ref.dcache_size() == dcache_entries) {
      dcache_filled = true;
    }
    if (step % 997 == 0) {
      ASSERT_TRUE(node.CheckInvariants()) << "step " << step;
      for (ObjectId j = 0; j < kIds; ++j) {
        ASSERT_EQ(node.Contains(node_id(j)), ref.Contains(j));
        ASSERT_NO_FATAL_FAILURE(ExpectSameDescriptor(
            node.FindDescriptor(node_id(j)), ref.FindDescriptor(j), step));
      }
    }
  }
  // A non-empty d-cache must have run full, so admission rejected
  // descriptors and popped victims.
  EXPECT_EQ(dcache_filled, dcache_entries > 0);
}

TEST(CostNodeDifferentialTest, MatchesReferenceWithoutDCache) {
  for (bool sparse : {false, true}) {
    ASSERT_NO_FATAL_FAILURE(
        RunCostNodeDifferential(cache::DCachePolicy::kLfu, 0, sparse, 31));
  }
}

TEST(CostNodeDifferentialTest, MatchesReferenceUnderLfuDCache) {
  for (size_t entries : {size_t{6}, size_t{40}}) {
    for (bool sparse : {false, true}) {
      ASSERT_NO_FATAL_FAILURE(RunCostNodeDifferential(
          cache::DCachePolicy::kLfu, entries, sparse, 37 + entries));
    }
  }
}

TEST(CostNodeDifferentialTest, MatchesReferenceUnderLruDCache) {
  for (size_t entries : {size_t{6}, size_t{40}}) {
    for (bool sparse : {false, true}) {
      ASSERT_NO_FATAL_FAILURE(RunCostNodeDifferential(
          cache::DCachePolicy::kLru, entries, sparse, 41 + entries));
    }
  }
}

}  // namespace
}  // namespace cascache::sim
