#include "schemes/modulo_scheme.h"

#include "util/check.h"

namespace cascache::schemes {

ModuloScheme::ModuloScheme(int radius) : radius_(radius) {
  CASCACHE_CHECK_MSG(radius >= 1, "MODULO radius must be >= 1");
}

std::string ModuloScheme::name() const {
  return "MODULO(" + std::to_string(radius_) + ")";
}

void ModuloScheme::OnServe(sim::MessageContext& ctx) {
  if (!ctx.origin_served()) {
    ctx.node(ctx.hit_index())->lru()->Touch(ctx.object);
  }
}

void ModuloScheme::OnSiblingServe(sim::MessageContext& ctx) {
  // Proxy-only sibling serve: recency refreshes at the sibling's store.
  ctx.serving_node()->lru()->Touch(ctx.object);
}

void ModuloScheme::OnDescend(sim::MessageContext& ctx, int hop) {
  // Hop distance of node path[hop] from the serving point. When the
  // origin serves the request, the serving point sits one virtual hop
  // above the attach node under the hierarchical architecture (and at the
  // attach node itself under en-route, where servers are co-located).
  const int serving_distance_base =
      ctx.origin_served()
          ? static_cast<int>(ctx.path->size()) - 1 +
                (ctx.server_link_delay > 0.0 ? 1 : 0)
          : ctx.hit_index();

  const int distance = serving_distance_base - hop;
  if (distance <= 0 || distance % radius_ != 0) return;
  // Lost decision (fault plane): the selected hop misses its placement.
  if (ctx.response.decision_lost) return;
  bool inserted = false;
  const std::vector<sim::ObjectId>& evicted =
      ctx.node(hop)->lru()->Insert(ctx.object, ctx.size, &inserted);
  ctx.RecordPlacement(hop, inserted, evicted);
}

}  // namespace cascache::schemes
