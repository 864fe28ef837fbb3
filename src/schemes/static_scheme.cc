#include "schemes/static_scheme.h"

#include <algorithm>

namespace cascache::schemes {

StaticScheme::StaticScheme(uint64_t freeze_after_requests)
    : freeze_after_(freeze_after_requests) {
  CASCACHE_CHECK_MSG(freeze_after_requests > 0,
                     "STATIC needs a learning phase");
}

void StaticScheme::CountAt(sim::MessageContext& ctx, int hop) {
  if (demand_.empty()) {
    demand_.resize(static_cast<size_t>(ctx.caches->num_nodes()));
  }
  Demand& d = demand_[static_cast<size_t>(
      (*ctx.path)[static_cast<size_t>(hop)])][ctx.object];
  ++d.count;
  d.size = ctx.size;
}

void StaticScheme::OnAscend(sim::MessageContext& ctx, int hop) {
  if (frozen_) return;  // Contents are fixed; nothing ever changes.
  // A lost piggyback entry (fault plane) drops this hop's demand sample.
  // The Freeze itself is a management-plane action outside the request
  // path and is not subject to message faults.
  if (ctx.request.piggyback_lost) return;
  // Learning phase: count the request at every node it traverses (the
  // same visibility the dynamic schemes have).
  CountAt(ctx, hop);
}

void StaticScheme::OnServe(sim::MessageContext& ctx) {
  if (frozen_) return;

  // The serving cache observed the request too; the ascent counted every
  // node below it.
  if (!ctx.origin_served()) CountAt(ctx, ctx.hit_index());

  ++requests_seen_;
  if (requests_seen_ >= freeze_after_) Freeze(ctx);
}

void StaticScheme::OnSiblingServe(sim::MessageContext& ctx) {
  if (frozen_) return;
  // The *sibling* is the serving cache, so demand accrues there. The
  // probing hop counts nothing — exactly as a local serving point would
  // not have been counted on the ascent — keeping the learned demand
  // hop-aligned with the dynamic schemes' visibility.
  if (demand_.empty()) {
    demand_.resize(static_cast<size_t>(ctx.caches->num_nodes()));
  }
  Demand& d =
      demand_[static_cast<size_t>(ctx.response.sibling)][ctx.object];
  ++d.count;
  d.size = ctx.size;
  ++requests_seen_;
  if (requests_seen_ >= freeze_after_) Freeze(ctx);
}

void StaticScheme::Freeze(sim::MessageContext& ctx) {
  CacheSet* caches = ctx.caches;
  frozen_ = true;
  if (demand_.empty()) {
    demand_.resize(static_cast<size_t>(caches->num_nodes()));
  }
  for (topology::NodeId v = 0; v < caches->num_nodes(); ++v) {
    auto& seen = demand_[static_cast<size_t>(v)];
    std::vector<std::pair<ObjectId, Demand>> ranked(seen.begin(), seen.end());
    // Density rule: requests served per byte of capacity.
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) {
                const double da = static_cast<double>(a.second.count) /
                                  static_cast<double>(a.second.size);
                const double db = static_cast<double>(b.second.count) /
                                  static_cast<double>(b.second.size);
                if (da != db) return da > db;
                return a.first < b.first;  // Deterministic tie-break.
              });
    cache::FlatLru* cache = caches->node(v)->lru();
    // Freeze only fills spare capacity, so no placement ever evicts.
    for (const auto& [object, d] : ranked) {
      if (d.size > cache->capacity_bytes() - cache->used_bytes()) continue;
      bool inserted = false;
      cache->Insert(object, d.size, &inserted);
      CASCACHE_CHECK(inserted);
      ctx.RecordPlacementAt(v, object, d.size);
    }
    seen.clear();
  }
  demand_.clear();
  demand_.shrink_to_fit();
}

}  // namespace cascache::schemes
