#include "schemes/coordinated_scheme.h"

#include <algorithm>

#include "core/placement.h"

namespace cascache::schemes {

void CoordinatedScheme::OnAscend(sim::MessageContext& ctx, int hop) {
  // The request passes a cache that cannot serve it: piggyback this
  // node's (f_i, l_i) view of the object (paper §2.3). The node's m_i is
  // the running link-cost sum the serving node reconstructs in OnServe.
  //
  // A lost piggyback entry (fault plane) still occupies its slot in the
  // hop-indexed ascent so OnServe's path reconstruction stays aligned,
  // but carries no descriptor and is infeasible — the serving node's DP
  // treats the hop as a non-candidate, the same exclusion the paper
  // applies to nodes without a descriptor. The node's own state is
  // untouched (a down node has none to offer).
  if (ctx.request.piggyback_lost) {
    ascent_.push_back(HopRecord());
    return;
  }
  sim::CacheNode* node = ctx.node(hop);

  HopRecord rec;
  rec.feasible = ctx.size <= node->capacity_bytes();
  cache::ObjectDescriptor* desc = node->RecordAccess(ctx.object, ctx.now);
  if (desc == nullptr) {
    // No descriptor: tagged out of the candidate set (paper §2.4), so no
    // eviction is planned.
    ++stats_.excluded_no_descriptor;
  } else {
    rec.has_descriptor = true;
    rec.frequency = desc->frequency;
    // The ascent only visits nodes that could not serve, so the
    // descriptor lives in the d-cache.
    ctx.RecordDCacheHit(hop);
    if (rec.feasible) rec.cost_loss = BoundedLoss(ctx, hop, rec.frequency);
  }

  // Candidates append a 24-byte (f, m, l) triple; excluded nodes a
  // 1-byte "no descriptor" tag.
  ctx.request.payload_bytes += (rec.has_descriptor && rec.feasible) ? 24 : 1;
  ascent_.push_back(rec);
}

double CoordinatedScheme::BoundedLoss(const sim::MessageContext& ctx, int hop,
                                      double frequency) {
  // f_eff: the f the DP sees after FillPlacementInput's monotone clamp.
  // M_i: the distance to the origin, summed in OnServe's top-down order,
  // so that the served m_i <= M_i holds bit for bit (DESIGN.md §6).
  double f_eff = frequency;
  for (const HopRecord& below : ascent_) {
    if (below.has_descriptor && below.feasible) {
      f_eff = std::max(f_eff, below.frequency);
    }
  }
  const std::vector<double>& costs = *ctx.link_costs;
  double max_penalty = ctx.server_link_cost;
  for (int i = static_cast<int>(ctx.path->size()) - 2; i >= hop; --i) {
    max_penalty += costs[static_cast<size_t>(i)];
  }
  ctx.node(hop)->PlanEvictionInto(ctx.size, f_eff * max_penalty,
                                  &scratch_plan_);
  return scratch_plan_.cost_loss;
}

void CoordinatedScheme::OnServe(sim::MessageContext& ctx) {
  const std::vector<double>& costs = *ctx.link_costs;
  ++stats_.requests;

  // Record the access at the serving cache (refreshes its NCL priority).
  // On a sibling serve, serving_node() is the sibling — the copy that
  // actually answered — not the probing hop.
  if (!ctx.origin_served()) {
    ctx.serving_node()->RecordAccess(ctx.object, ctx.now);
  }

  // Reassemble the piggybacked path information, ordered A_1 (adjacent
  // to the serving node) .. A_n (the requesting cache): the ascent
  // pushed hop records bottom-up, so walk them top-down accumulating the
  // miss penalty m_i from the serving node.
  //
  // The highest candidate: with a cache hit at path[hit], candidates are
  // path[hit-1] .. path[0] — exactly the hops OnAscend visited. With an
  // origin-served request, every cache on the path including the attach
  // node is a candidate.
  const int highest_candidate = static_cast<int>(ascent_.size()) - 1;
  info_.nodes.clear();
  path_index_of_.clear();
  // Cumulative cost from the serving node down to the current node: the
  // miss penalty m_i. Starts with the virtual server link when the origin
  // serves the request.
  double cum_cost = ctx.origin_served() ? ctx.server_link_cost : 0.0;
  for (int i = highest_candidate; i >= 0; --i) {
    if (i != highest_candidate || !ctx.origin_served()) {
      // Descending one link from the previous node on the path.
      cum_cost += costs[static_cast<size_t>(i)];
    }
    const HopRecord& rec = ascent_[static_cast<size_t>(i)];
    core::PathNodeInfo node_info;
    node_info.node = (*ctx.path)[static_cast<size_t>(i)];
    node_info.miss_penalty = cum_cost;
    node_info.has_descriptor = rec.has_descriptor;
    node_info.frequency = rec.frequency;
    node_info.feasible = rec.feasible;
    node_info.cost_loss = rec.cost_loss;
    info_.nodes.push_back(node_info);
    path_index_of_.push_back(i);
  }

  // --- Decision at the serving node: the dynamic program. ---------------
  info_.FillPlacementInput(&input_, &origin_);
  selected_path_indices_.clear();
  // The response carries an 8-byte penalty counter plus a decision bitmap
  // (1 byte per traversed node); the ascent already accounted the
  // per-hop triples/tags.
  ctx.response.payload_bytes += 8 + info_.nodes.size() / 8 + 1;
  stats_.piggyback_bytes +=
      ctx.request.payload_bytes + ctx.response.payload_bytes;
  {
    const size_t k =
        std::min<size_t>(input_.f.size(), Stats::kMaxTrackedCandidates - 1);
    ++stats_.k_histogram[k];
  }
  if (!input_.f.empty()) {
    ++stats_.dp_runs;
    stats_.candidates += input_.f.size();
    core::SolvePlacementDPInto(input_, &dp_scratch_, &dp_result_);
    stats_.total_gain += dp_result_.gain;
    stats_.placements += dp_result_.selected.size();
    for (int sel : dp_result_.selected) {
      selected_path_indices_.push_back(path_index_of_[static_cast<size_t>(
          origin_[static_cast<size_t>(sel)])]);
    }
  }

  // The descent's penalty counter starts at the serving node (the
  // virtual server link is already behind the attach node when the
  // origin served).
  ctx.response.penalty = ctx.origin_served() ? ctx.server_link_cost : 0.0;
  ascent_.clear();
}

void CoordinatedScheme::OnSiblingServe(sim::MessageContext& ctx) {
  // Proxy-only sibling serve. The probing hop (hit_index) contributed no
  // ascent record — exactly like a local serving point — so OnServe's
  // path reassembly walks hops hit_index-1 .. 0 unchanged and the DP's
  // hop alignment carries over; only the recency touch retargets to the
  // sibling's store (serving_node()).
  OnServe(ctx);
}

void CoordinatedScheme::OnAbort() {
  // Shed mid-ascent: the hop records below the refusal never reach a
  // serving node. Without this, the next request's OnServe would
  // reassemble them against its own (differently sized) path.
  ascent_.clear();
}

void CoordinatedScheme::OnDescend(sim::MessageContext& ctx, int hop) {
  // --- Response descent: miss-penalty refresh + placements. -------------
  const std::vector<double>& costs = *ctx.link_costs;
  if (hop != ctx.first_missing() || !ctx.origin_served()) {
    ctx.response.penalty += costs[static_cast<size_t>(hop)];
  }
  // Lost decision entry (fault plane): the penalty counter above still
  // advances — it models the link the object traversed, not node state —
  // but the node can neither place the copy nor refresh/admit its
  // descriptor. The next unfaulted pass re-admits it (paper §2.4's
  // d-cache admission is idempotent).
  if (ctx.response.decision_lost) return;
  sim::CacheNode* node = ctx.node(hop);
  if (std::find(selected_path_indices_.begin(), selected_path_indices_.end(),
                hop) != selected_path_indices_.end()) {
    const bool inserted = node->InsertCost(
        ctx.object, ctx.size, ctx.response.penalty, ctx.now,
        &evicted_scratch_);
    // The placement record carries the penalty the copy was admitted with.
    ctx.RecordPlacement(hop, inserted, evicted_scratch_);
    if (inserted) ctx.response.penalty = 0.0;  // Downstream has a nearer copy.
  } else {
    // Refresh the miss penalty of a known descriptor, or admit one into
    // the d-cache as the object passes through (paper §2.3-2.4).
    node->UpdateMissPenaltyOrAdmit(ctx.object, ctx.size, ctx.response.penalty,
                                   ctx.now);
  }
}

}  // namespace cascache::schemes
