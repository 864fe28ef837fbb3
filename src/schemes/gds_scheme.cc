#include "schemes/gds_scheme.h"

namespace cascache::schemes {

void GdsScheme::OnServe(sim::MessageContext& ctx) {
  if (!ctx.origin_served()) {
    ctx.node(ctx.hit_index())
        ->gds()
        ->OnHit(ctx.object, ctx.upstream_link_cost(ctx.hit_index()));
  }
}

void GdsScheme::OnSiblingServe(sim::MessageContext& ctx) {
  // Proxy-only sibling serve: the GDS credit refreshes at the sibling's
  // store. The retrieval cost stays the probing hop's local upstream
  // view — the sibling leg carries no cost metadata.
  ctx.serving_node()->gds()->OnHit(ctx.object,
                                   ctx.upstream_link_cost(ctx.hit_index()));
}

void GdsScheme::OnDescend(sim::MessageContext& ctx, int hop) {
  // Lost decision (fault plane): skip the placement at this hop.
  if (ctx.response.decision_lost) return;
  bool inserted = false;
  const std::vector<sim::ObjectId>& evicted = ctx.node(hop)->gds()->Insert(
      ctx.object, ctx.size, ctx.upstream_link_cost(hop), &inserted);
  ctx.RecordPlacement(hop, inserted, evicted);
}

void LfuScheme::OnServe(sim::MessageContext& ctx) {
  if (!ctx.origin_served()) {
    ctx.node(ctx.hit_index())->lfu()->Touch(ctx.object);
  }
}

void LfuScheme::OnSiblingServe(sim::MessageContext& ctx) {
  // Proxy-only sibling serve: frequency accrues at the sibling's store.
  ctx.serving_node()->lfu()->Touch(ctx.object);
}

void LfuScheme::OnDescend(sim::MessageContext& ctx, int hop) {
  // Lost decision (fault plane): skip the placement at this hop.
  if (ctx.response.decision_lost) return;
  bool inserted = false;
  const std::vector<sim::ObjectId>& evicted =
      ctx.node(hop)->lfu()->Insert(ctx.object, ctx.size, &inserted);
  ctx.RecordPlacement(hop, inserted, evicted);
}

}  // namespace cascache::schemes
