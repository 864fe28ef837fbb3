#ifndef CASCACHE_SCHEMES_SCHEME_H_
#define CASCACHE_SCHEMES_SCHEME_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/cache_set.h"
#include "sim/message.h"
#include "sim/metrics.h"
#include "trace/object_catalog.h"
#include "util/status.h"

namespace cascache::schemes {

using sim::CacheMode;
using sim::CacheSet;
using trace::ObjectId;

/// A cache-content management policy, expressed as per-hop handlers over
/// the request/response message exchange (paper §2.3): the simulator
/// drives the ascent hop by hop (calling OnAscend at every cache that
/// cannot serve), calls OnServe once at the serving point, then drives
/// the descent (calling OnDescend at every node below the serving point,
/// top-down). Schemes update descriptors and decide placements and
/// replacements from these hooks; the simulator accounts reads and
/// latency itself, and schemes report the writes they perform through
/// `ctx.RecordPlacement`.
///
/// Handler contract, per request:
///  - OnAscend(ctx, hop) for hop = 0 .. top, ascending, at every cache
///    that did not serve (per-hop coherency admission — TTL expiry /
///    invalidation — has already run at that hop, so the node state the
///    handler sees is post-admission). Not called for the serving hop.
///  - OnServe(ctx): exactly once, after `ctx.response.hit_index` is
///    final (-1 = origin). This is where the serving node decides
///    placement (the coordinated DP) and where serving-cache bookkeeping
///    (recency/frequency touch) belongs.
///  - OnDescend(ctx, hop) for hop = first_missing .. 0, descending, at
///    every node below the serving point.
///  - OnAbort(): instead of OnServe when the exchange dies mid-ascent
///    (an overloaded node queue refused the request). OnAscend may
///    already have run at the hops below the refusal; any per-request
///    scratch they accumulated must be discarded here.
///
/// Schemes attach piggyback state by mutating ctx.request /
/// ctx.response (payload bytes, penalty counter) and their own members;
/// per-hop scratch carried across hooks of one request must be cleared
/// before OnServe (or OnAbort) returns. A scheme instance is used by
/// exactly one simulation run, so it needs no internal synchronization
/// even when sweeps run cells in parallel.
class CachingScheme {
 public:
  virtual ~CachingScheme() = default;

  virtual std::string name() const = 0;

  /// Which replacement machinery the nodes must run for this scheme.
  virtual CacheMode cache_mode() const = 0;

  /// Whether nodes should be given a d-cache (LRU and MODULO run without
  /// one, paper §3.3).
  virtual bool uses_dcache() const { return cache_mode() == CacheMode::kCost; }

  /// Whether the scheme piggybacks per-hop state on the request ascent.
  /// The simulator only dispatches OnAscend when this returns true, so
  /// the locally-deciding schemes pay no per-hop call on the replay hot
  /// path. Schemes overriding OnAscend must override this to true.
  virtual bool observes_ascent() const { return false; }

  /// Whether the scheme reads ctx.link_costs / upstream_link_cost /
  /// server_link_cost. The simulator skips the per-request cost-model
  /// evaluation entirely when this returns false (the cost-oblivious
  /// schemes — LRU, MODULO, LFU, STATIC — never look at the costs, so
  /// the replay output is unchanged). Schemes reading any cost field
  /// must keep the default.
  virtual bool uses_link_costs() const { return true; }

  /// True only when the scheme's serve/descend behavior is exactly the
  /// plain-LRU rule: touch the serving cache's LRU store on a hit, insert
  /// the object into every node below the serving point, and nothing
  /// else. When every simulator feature is off (no faults, queueing,
  /// coherency, trace, tiers or siblings) the simulator's kLeanLru
  /// exchange then replaces the OnServe/OnDescend virtual dispatch with
  /// an inlined equivalent (results are bit-identical; the handlers must
  /// still implement the rule — any feature on selects the full
  /// exchange, which keeps calling them).
  virtual bool plain_lru_replay() const { return false; }

  /// Request ascent: the message passes through the non-serving cache at
  /// path index `hop` (== ctx.request.hop). Only called when
  /// observes_ascent() is true. Default: no piggyback.
  virtual void OnAscend(sim::MessageContext& ctx, int hop) {
    (void)ctx;
    (void)hop;
  }

  /// The request reached its serving point (cache hit at
  /// ctx.hit_index(), or the origin when ctx.origin_served()).
  virtual void OnServe(sim::MessageContext& ctx) = 0;

  /// The exchange ended before a serving point was reached (shed by an
  /// overloaded queue): OnServe and OnDescend will not run for this
  /// request. Schemes that accumulate per-request ascent scratch must
  /// drop it here; node state mutated by OnAscend stands (those hops
  /// really processed the message).
  virtual void OnAbort() {}

  /// Response descent: the object passes through the node at path index
  /// `hop` on its way to the requester. Default: no placement.
  virtual void OnDescend(sim::MessageContext& ctx, int hop) {
    (void)ctx;
    (void)hop;
  }

  /// Sibling cooperation (simulator's SiblingParams): the node at path
  /// index `hop` missed locally and sends an ICP-style probe to
  /// `sibling`. Observational only — probes must not mutate cache state
  /// or attach piggyback payload (the simulator accounts probe bytes).
  /// Default: ignore.
  virtual void OnSiblingProbe(sim::MessageContext& ctx, int hop,
                              topology::NodeId sibling) {
    (void)ctx;
    (void)hop;
    (void)sibling;
  }

  /// Called INSTEAD of OnServe when a sibling of the node at
  /// ctx.hit_index() serves the request (ctx.response.served_by_sibling;
  /// the sibling's id is ctx.response.sibling). The serve is proxy-only:
  /// the probing node keeps no copy, the descent below ctx.hit_index()
  /// runs exactly as for a local hit there (OnDescend hop alignment is
  /// unchanged), and serving-cache bookkeeping (recency/frequency touch)
  /// belongs to the *sibling's* store. The default delegates to OnServe,
  /// which is correct only for schemes whose OnServe ignores the serving
  /// node's identity; every built-in scheme overrides this to touch the
  /// sibling's store instead of path[hit_index]'s.
  virtual void OnSiblingServe(sim::MessageContext& ctx) { OnServe(ctx); }
};

/// Identifiers for the built-in schemes: the paper's four (§3.3) plus the
/// GDS / LFU replacement baselines and the clairvoyant STATIC placement
/// baseline added by this reproduction.
enum class SchemeKind {
  kLru,
  kModulo,
  kLncr,
  kCoordinated,
  kGds,
  kLfu,
  kStatic,
};

/// Command-line names of the schemes, for util::ParseChoice.
inline constexpr std::pair<std::string_view, SchemeKind> kSchemeNames[] = {
    {"lru", SchemeKind::kLru},       {"modulo", SchemeKind::kModulo},
    {"lncr", SchemeKind::kLncr},     {"coordinated", SchemeKind::kCoordinated},
    {"gds", SchemeKind::kGds},       {"lfu", SchemeKind::kLfu},
    {"static", SchemeKind::kStatic},
};

/// A scheme selection plus its parameters; used by the experiment runner
/// and benches.
struct SchemeSpec {
  SchemeKind kind = SchemeKind::kLru;
  /// MODULO cache radius (paper: 4 is best under en-route; 1 degenerates
  /// to LRU).
  int modulo_radius = 4;
  /// STATIC: requests observed before placement freezes. 0 lets the
  /// experiment runner default it to the warm-up length.
  uint64_t static_freeze_requests = 0;

  std::string Label() const;
};

/// Instantiates a scheme from its spec.
util::StatusOr<std::unique_ptr<CachingScheme>> MakeScheme(
    const SchemeSpec& spec);

}  // namespace cascache::schemes

#endif  // CASCACHE_SCHEMES_SCHEME_H_
