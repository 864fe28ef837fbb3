#include "schemes/lncr_scheme.h"

namespace cascache::schemes {

void LncrScheme::OnAscend(sim::MessageContext& ctx, int hop) {
  // Lost piggyback entry (fault plane): the hop's access is simply not
  // observed — LNC-R keeps no cross-hop alignment, so skipping the
  // frequency update is the whole fallback.
  if (ctx.request.piggyback_lost) return;
  if (ctx.node(hop)->RecordAccessOrAdmit(ctx.object, ctx.size, ctx.now)) {
    // The ascent only visits nodes that could not serve, so a descriptor
    // found here lives in the d-cache.
    ctx.RecordDCacheHit(hop);
  }
}

void LncrScheme::OnServe(sim::MessageContext& ctx) {
  // The serving cache also counts the access (this refreshes the
  // object's NCL priority there); the ascent handled every node below.
  // Unknown objects get a d-cache descriptor (frequency estimation).
  if (!ctx.origin_served()) {
    ctx.node(ctx.hit_index())
        ->RecordAccessOrAdmit(ctx.object, ctx.size, ctx.now);
  }
}

void LncrScheme::OnSiblingServe(sim::MessageContext& ctx) {
  // Proxy-only sibling serve: the access counts at the *sibling* (it
  // refreshes the NCL priority of the copy that actually served). The
  // probing hop records nothing — exactly as if it had served locally
  // (OnAscend never runs at a serving point), keeping hop alignment
  // identical to a local hit. The d-cache fallback mirrors OnServe for
  // uniformity; it cannot fire here because the sibling holds the copy.
  ctx.caches->nodes_data()[ctx.response.sibling].RecordAccessOrAdmit(
      ctx.object, ctx.size, ctx.now);
}

void LncrScheme::OnDescend(sim::MessageContext& ctx, int hop) {
  // Cache everywhere below the serving point. The per-node miss penalty
  // is the cost of the immediate upstream link (the virtual server link
  // at the attach node). A lost decision (fault plane) skips the
  // placement; the object simply passes this hop uncached.
  if (ctx.response.decision_lost) return;
  const bool inserted = ctx.node(hop)->InsertCost(
      ctx.object, ctx.size, ctx.upstream_link_cost(hop), ctx.now,
      &evicted_scratch_);
  ctx.RecordPlacement(hop, inserted, evicted_scratch_);
}

}  // namespace cascache::schemes
