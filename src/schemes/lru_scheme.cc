#include "schemes/lru_scheme.h"

namespace cascache::schemes {

void LruScheme::OnServe(sim::MessageContext& ctx) {
  // Refresh recency at the serving cache.
  if (!ctx.origin_served()) {
    ctx.node(ctx.hit_index())->lru()->Touch(ctx.object);
  }
}

void LruScheme::OnSiblingServe(sim::MessageContext& ctx) {
  // Proxy-only sibling serve: recency refreshes at the sibling's store
  // (the probing node keeps nothing).
  ctx.serving_node()->lru()->Touch(ctx.object);
}

void LruScheme::OnDescend(sim::MessageContext& ctx, int hop) {
  // Cache everywhere below the serving point (and at the attach node too
  // when the origin served the request). A lost decision (fault plane)
  // skips the placement; the object passes this hop uncached.
  if (ctx.response.decision_lost) return;
  bool inserted = false;
  const std::vector<sim::ObjectId>& evicted =
      ctx.node(hop)->lru()->Insert(ctx.object, ctx.size, &inserted);
  ctx.RecordPlacement(hop, inserted, evicted);
}

}  // namespace cascache::schemes
