#ifndef CASCACHE_SIM_SIMULATOR_H_
#define CASCACHE_SIM_SIMULATOR_H_

#include <span>
#include <vector>

#include "schemes/scheme.h"
#include "sim/coherency.h"
#include "sim/completion_queue.h"
#include "sim/cost_model.h"
#include "sim/event_trace.h"
#include "sim/fault_plane.h"
#include "sim/message.h"
#include "sim/metrics.h"
#include "sim/network.h"
#include "sim/queueing.h"
#include "sim/request_arena.h"
#include "trace/synthetic.h"

namespace cascache::sim {

/// Two-tier node knobs (RAM cache over a disk store, modeled on Traffic
/// Server's ram_cache over the disk vols). The disk tier is the node's
/// existing mode store at full capacity — Contains() still decides
/// hit/miss, so schemes and byte-hit accounting are untouched — and the
/// RAM tier is an inclusive LRU front (RAM ⊆ disk): a disk-tier serve
/// promotes the object into RAM, RAM evictions are demotions (the disk
/// copy stays), and a disk eviction drops any RAM copy. Inactive by
/// default = single-store nodes, bit-identical to the pre-tier replay.
struct TierParams {
  /// RAM tier capacity as a fraction of each node's capacity; 0 = off.
  double ram_fraction = 0.0;
  /// Absolute RAM tier capacity in bytes; overrides ram_fraction when set.
  uint64_t ram_capacity_bytes = 0;
  /// Service seconds of a RAM-tier serve. Analytic policy: added to the
  /// request's latency; event-driven: charged on the serving node's queue.
  double ram_hit_cost = 0.0;
  /// Service seconds of a disk-tier serve (promotion included).
  double disk_hit_cost = 0.0;

  bool active() const { return ram_fraction > 0.0 || ram_capacity_bytes > 0; }
  util::Status Validate() const;
};

/// ICP-style sibling cooperation (Squid's proxy-only sibling peering):
/// when the hop at `level` misses locally, it probes its tree siblings —
/// other children of the same parent, ascending node id — before the
/// request ascends further. A fresh sibling copy serves the request
/// (hit_index = the probing hop, response.served_by_sibling), the
/// descent below the probing hop proceeds exactly as for a local hit
/// there, and the probing node does NOT store the object (proxy-only),
/// so hop alignment of every scheme's piggyback state is preserved.
/// Hierarchical trees only; silently inactive when no node has siblings.
struct SiblingParams {
  bool enabled = false;
  /// Tree level whose nodes probe their siblings (-1 = every level).
  int level = -1;
  /// Max siblings probed per miss (ascending node id); 0 = all.
  int max_probes = 0;
  /// Protocol bytes per probe (request leg) and per hit reply (response).
  uint64_t probe_bytes = 16;
  /// Service seconds a probed sibling charges per probe (event-driven).
  double probe_cost = 0.0;

  bool active() const { return enabled; }
  util::Status Validate() const;
};

struct SimOptions {
  /// Leading fraction of the trace used to warm the caches; statistics are
  /// collected for the remainder only (the paper uses the first half).
  double warmup_fraction = 0.5;
  /// d-cache size as a multiple of the average number of objects the main
  /// cache can hold (paper default: 3x). Ignored for schemes without a
  /// d-cache.
  double dcache_ratio = 3.0;
  /// d-cache replacement policy (paper default: LFU; §2.4 also suggests
  /// LRU stacks).
  cache::DCachePolicy dcache_policy = cache::DCachePolicy::kLfu;
  cache::FrequencyEstimatorParams frequency;
  /// The generic cost the cost-aware schemes optimize (paper default:
  /// latency, i.e. delay proportional to object size).
  CostModelParams cost_model;
  /// Object update process + coherency protocol. Defaults to the paper's
  /// setting (static objects, no protocol, zero overhead).
  CoherencyParams coherency;
  /// Heterogeneous provisioning (hierarchical architecture): the capacity
  /// of a level-i cache is proportional to level_capacity_growth^i,
  /// normalized so the *total* cache budget equals
  /// num_nodes * capacity_bytes_per_node. 1.0 (default) = uniform, the
  /// paper's setting; > 1 concentrates capacity near the root, < 1 near
  /// the leaves. Ignored under en-route (all nodes are level 0).
  double level_capacity_growth = 1.0;
  /// Structured event tracing (observability layer). Disabled by
  /// default; when disabled the hot path pays one null check per request.
  EventTraceOptions trace;
  /// Deterministic fault injection (crashes, link outages, message
  /// faults, timeouts — see sim/fault_plane.h). Inactive by default; an
  /// inactive schedule leaves the replay bit-identical to a build without
  /// the fault plane, at the cost of one null check per request.
  FaultScheduleConfig faults;
  /// Contention model (sim/queueing.h): node service costs + bounded
  /// queues, link bandwidth, open-loop arrivals. Inactive by default,
  /// which keeps Run() on the analytic scheduling policy (no queueing
  /// plane, no completion queue); any nonzero knob switches Run() to the
  /// event-driven policy.
  ContentionParams contention;
  /// Two-tier nodes (RAM over disk). Inactive by default.
  TierParams tier;
  /// Sibling cooperation at one tree level. Inactive by default.
  SiblingParams sibling;
};

/// Wall-clock breakdown of the last Run(): cache (re)configuration +
/// coherency setup, the warm-up replay, and the measured replay. Read
/// per cell by ExperimentRunner and by the canonical benchmark.
struct RunPhaseTimes {
  double configure_seconds = 0.0;
  double warmup_seconds = 0.0;
  double measure_seconds = 0.0;
};

/// Trace-driven simulator: replays a request stream through the network
/// under one caching scheme, computing the paper's metrics. One replay
/// loop decodes the trace in blocks — each request's size and its route
/// from the Network's route table — and runs one exchange per request in
/// arrival order, under either of two scheduling policies:
///
///  - analytic (default, the paper's setting): a request arrives at its
///    trace timestamp, latency is the closed-form sum of size-scaled link
///    delays, requests never interact, and each exchange is recorded as
///    soon as it ends;
///  - event-driven (any ContentionParams knob set): nodes charge
///    per-operation service through bounded FIFO queues that shed on
///    overload (QueueingPlane), links serialize the descending object
///    bodies at finite bandwidth, and arrivals can be generated open-loop
///    on a rate ramp instead of read from the trace. An exchange is
///    recorded at its completion: it waits on a CompletionQueue that the
///    loop drains up to each arrival's time before running its exchange.
///
/// Both policies run the same loop and exchange core; a zero-cost
/// event-driven run reproduces the analytic results (the equivalence
/// tests pin this).
///
/// Each request is processed as an explicit two-phase message exchange
/// (see sim/message.h): a RequestMessage ascends the distribution path
/// hop by hop — per-hop coherency admission (TTL expiry, invalidation,
/// stale-serve accounting) runs at each cache before the scheme's
/// OnAscend handler — until a cache serves it or the origin is reached,
/// then a ResponseMessage descends through the scheme's OnServe/OnDescend
/// handlers, carrying the placement decision and penalty counter.
///
/// The simulator only reads the Network (immutable shared topology) and
/// mutates the CacheSet it was given, so simulators over disjoint cache
/// sets may run concurrently on one Network.
class Simulator {
 public:
  /// `network`, `caches` and `scheme` must outlive the simulator (all
  /// must be non-null, with one cache per network node). Caches are
  /// (re)configured by Run(). Invalid *options* (bad warmup fraction,
  /// inconsistent cost-model weights) do not abort here: they surface as
  /// an InvalidArgument from Run(), so CLI-supplied options fail cleanly.
  Simulator(const Network* network, CacheSet* caches,
            schemes::CachingScheme* scheme,
            const SimOptions& options = SimOptions());

  /// Replays the full workload: resets caches, configures them for the
  /// given per-node capacity, runs the warm-up, then collects statistics.
  util::Status Run(const trace::Workload& workload,
                   uint64_t capacity_bytes_per_node);

  /// Span-based core of Run(): replays a borrowed request stream —
  /// in-RAM vector or read-only file mapping (trace/mapped_trace.h) —
  /// without copying it. `view.catalog` must be the catalog this
  /// simulator's Network was built over. The replay proceeds in bounded
  /// chunks and invokes view.on_consumed (if set) after each, so mapped
  /// sources can release consumed pages; results are bit-identical to
  /// the unchunked replay.
  util::Status Run(const trace::WorkloadView& view,
                   uint64_t capacity_bytes_per_node);

  /// Processes a single request against the current cache state;
  /// `collect` controls whether metrics are recorded. Exposed for tests
  /// and custom drivers; Run() is the normal entry point. NOTE: coherency
  /// tracking requires the update schedule, which Run() builds; direct
  /// Step() drivers that want coherency must call EnableCoherency first.
  /// A one-request ReplayRange(); under the queueing plane it records
  /// the request's completion before returning.
  void Step(const trace::Request& request, bool collect);

  /// Installs the update schedule for direct Step() drivers (Run() does
  /// this automatically from the workload catalog).
  util::Status EnableCoherency(uint32_t num_objects);

  const MetricsCollector& metrics() const { return metrics_; }
  const Network* network() const { return network_; }
  CacheSet* caches() { return caches_; }

  /// Event sink; nullptr unless options.trace.enabled.
  EventTrace* event_trace() { return trace_.get(); }
  const EventTrace* event_trace() const { return trace_.get(); }

  /// Fault-injection layer; nullptr unless options.faults.active().
  FaultPlane* fault_plane() { return faults_.get(); }
  const FaultPlane* fault_plane() const { return faults_.get(); }

  /// Phase breakdown of the last Run() (zeros before the first).
  const RunPhaseTimes& phase_times() const { return phase_times_; }

 private:
  /// The three instantiations of Exchange(). Lean = no fault plane, no
  /// queueing plane, no coherency schedule, no event trace, no tiers and
  /// no siblings: every feature gate folds to a compile-time false.
  ///  - kLeanLru: lean, and the scheme is plain_lru_replay(): the serve
  ///    and descent run the inlined plain-LRU rule, and the shared
  ///    MessageContext is never touched;
  ///  - kLeanHooks: lean, any other scheme: the virtual hooks run;
  ///  - kFull: any feature on (plain LRU included): the hooks run and
  ///    every feature is tested per request.
  enum class ExchangeKind { kLeanLru, kLeanHooks, kFull };

  /// The instantiation this simulator's current state selects. Read once
  /// per ReplayRange() (and so per Step()).
  ExchangeKind SelectExchange() const;

  /// Replays requests [begin, end) of the trace, decoding them in blocks
  /// ahead of the replay loop. The span is storage-agnostic — a heap
  /// vector and an mmap'd request region replay through the same loop.
  /// Run() calls it per chunk of each phase, Step() on one request. The
  /// block accumulator is opened and flushed here; under the queueing
  /// plane completions still in flight at `end` stay queued.
  void ReplayRange(trace::RequestSpan requests, size_t begin, size_t end,
                   bool collect);

  /// ReplayRange's decode-then-replay block loop on one instantiation.
  template <ExchangeKind kKind>
  void ReplayBlocks(trace::RequestSpan requests, size_t begin, size_t end,
                    bool collect);

  /// One request/response exchange (paper §2.3-2.4), written once: route
  /// resolution (the decoded table route, or a fault-plane detour), the
  /// hop-by-hop ascent (coherency admission, tier serve, sibling leg, the
  /// scheme's ascent hook), the latency, the serve and the descent.
  template <ExchangeKind kKind>
  void Exchange(const DecodedRequest& request, bool collect);

  /// Catalog lookups and the route lookup for one trace request.
  DecodedRequest Decode(const trace::Request& request);

  /// Terminal of every Exchange exit: under the queueing plane (`queued`)
  /// the exchange waits on the completion queue for its completion time;
  /// otherwise it streams straight into the open block accumulator. The
  /// lean exchanges pass a compile-time false, so their collecting exit
  /// is a single inline RecordInBlock — in the class body because an
  /// out-of-line call (or a second, fallback record body) here costs a
  /// measurable fraction of the kLeanLru request budget.
  void FinishRequest(const RequestMetrics& rm, bool collect,
                     double completion_time, bool queued) {
    if (queued) {
      completions_.Push(completion_time, rm, collect);
      return;
    }
    if (collect) metrics_.RecordInBlock(rm, &block_stats_);
  }

  /// Records a drained completion into the open block (warm-up
  /// completions are dropped).
  void RecordCompletion(const CompletionQueue::Completion& done) {
    if (done.collect) metrics_.RecordInBlock(done.metrics, &block_stats_);
  }

  /// Records every completion still queued, in order, in a block of its
  /// own (end of Run() and of Step()). No-op when the queue is empty.
  void FlushCompletions();

  /// Arrival time of the next request under the queueing plane: the
  /// (monotonized) trace timestamp by default, or the ramp process
  /// rate(t) = arrival_rate * (1 + arrival_ramp * t) when a rate is set.
  /// Called once per request, in trace order.
  double NextArrivalTime(double trace_time);

  /// Stage-1 prefetches the event-driven exchange adds at path node `v`
  /// for `object`, beyond the probe every exchange prefetches: the copy
  /// stamp, the RAM tier's entry and, where `v` probes its siblings,
  /// their probe entries, copy stamps and RAM tier entries. Advisory
  /// only.
  void PrefetchEventHop(topology::NodeId v, trace::ObjectId object) const;

  /// Stage-2 prefetches the event-driven exchange adds at path node `v`:
  /// the lines a hit's touch rewrites at `v` and at its probed siblings.
  /// Advisory only.
  void PrefetchEventEntry(topology::NodeId v, trace::ObjectId object) const;

  /// Event-driven descent charges for hop `i` of `route`: the object
  /// body's link transfer into the hop, then the store-queue pre-check — a
  /// full queue drops the placement decision there (decision_lost +
  /// RecordStoreShed).
  void DescendContention(const Route& route, int i);

  /// Event-driven ascent charge at path index `hop`: the lookup (+ d-cache
  /// probe) as service demand on the node's bounded queue. Returns false
  /// when the full queue refuses the request (response.shed, the node's
  /// shed counter); the exchange then ends at that hop.
  bool QueueAscentOp(MessageContext& ctx, size_t hop);

  /// Coherency admission of the servable copy at path index `hop`: drops
  /// an expired (TTL) or invalidated copy and returns false, else counts
  /// a stale serve if the copy lags the origin, writes its version to
  /// `*served_version` and returns true.
  bool AdmitCopy(MessageContext& ctx, size_t hop, uint32_t* served_version);

  /// Sibling leg of the ascent at path index `hop`, which just missed
  /// locally and has siblings to probe: probes its probed_siblings_ in
  /// order and serves from the first fresh copy. Probes never
  /// mutate sibling stores (an expired / stale sibling copy is skipped,
  /// not erased). Returns true when a sibling served — served_by_sibling
  /// / sibling set, the serve is at `hop` — and writes the serving copy's
  /// version to `*served_version` and the sibling leg's link id to
  /// `*sibling_link`. Kept out of line so the sibling-off ascent loop
  /// stays compact (one never-taken branch).
  __attribute__((noinline)) bool TrySiblings(MessageContext& ctx, size_t hop,
                                             uint32_t* served_version,
                                             LinkId* sibling_link);

  /// Serves out of `node_id`'s tiers — the RAM tier only when `ram_only`
  /// (disk outage), else ServeTiered with promotion — records the serve
  /// and charges the tier's service seconds: analytic replay →
  /// ctx.tier_service (added to the request latency); event-driven →
  /// service demand on the node's queue (non-shedding: a serve already
  /// under way is never refused).
  void ServeTier(MessageContext& ctx, topology::NodeId node_id,
                 bool ram_only);

  const Network* network_;
  CacheSet* caches_;
  schemes::CachingScheme* scheme_;
  SimOptions options_;
  CostModel cost_model_;
  /// Deferred SimOptions validation result, returned by Run() (bad
  /// options must not abort construction — satellite of the pipeline
  /// refactor).
  util::Status init_status_;
  /// Per-request invariants of the immutable network, hoisted out of the
  /// Step hot path.
  const trace::ObjectCatalog* catalog_;
  double mean_object_size_;
  double server_link_delay_;
  int server_link_hops_;
  /// Cached scheme->observes_ascent(): skips the per-hop ascent dispatch
  /// for the locally-deciding schemes.
  bool scheme_observes_ascent_;
  /// Cached scheme->uses_link_costs(): the cost-oblivious schemes never
  /// read ctx.link_costs, so the per-request cost-model evaluation is
  /// skipped entirely for them.
  bool scheme_uses_link_costs_;
  /// Cached scheme->plain_lru_replay(): selects the kLeanLru exchange when
  /// every feature is off.
  bool scheme_plain_lru_;
  /// Cached options.tier.active(): nodes run a RAM tier this run. Off
  /// keeps the lean exchanges eligible and the replay bit-identical to
  /// the pre-tier pipeline.
  bool tiered_ = false;
  /// Sibling cooperation is live: options.sibling.enabled AND the
  /// topology actually has sibling sets (hierarchical, branching > 1).
  bool sibling_on_ = false;
  /// probed_siblings_[v]: the siblings node `v` probes after a local
  /// miss, in probe order — none off the configured probing level, at
  /// most max_probes (views of the Network's sibling sets). Empty for
  /// every node unless sibling_on_.
  std::vector<std::span<const topology::NodeId>> probed_siblings_;
  /// Present iff coherency tracking is active for this run.
  std::unique_ptr<UpdateSchedule> updates_;
  MetricsCollector metrics_;
  /// Tree depth per NodeId, hoisted for trace records and per-level
  /// rollups (all zeros under en-route).
  std::vector<int> node_levels_;
  /// Present iff options.trace.enabled.
  std::unique_ptr<EventTrace> trace_;
  /// Present iff options.faults.active(); nullptr keeps the unfaulted
  /// replay on the historical hot path (one pointer test per request).
  std::unique_ptr<FaultPlane> faults_;
  /// Present iff options.contention.active(); nullptr keeps the analytic
  /// replay on the historical hot path (one pointer test per request).
  std::unique_ptr<QueueingPlane> queueing_;
  /// The open block recorded exchanges stream into: the order-sensitive
  /// stats still land on the collector per request, the integer totals
  /// accumulate here and flush once per replayed range. ReplayRange and
  /// FlushCompletions zero it before recording and FlushBlock it after.
  MetricsCollector::BlockStats block_stats_;
  RunPhaseTimes phase_times_;
  /// Index of the next Step()'ed request: the trace position under Run()
  /// (reset there), a monotone counter for direct Step() drivers. Keys
  /// the deterministic trace sampler.
  uint64_t step_index_ = 0;
  /// Per-request scratch (link costs, fault flags, decode blocks); reset,
  /// never reallocated, between requests.
  RequestArena arena_;
  /// Reused exchange context of the hook-running exchanges; the invariant
  /// fields (cache plane, server link delay) are wired in the
  /// constructor. The path/delay pointers are repointed per request at
  /// the table route (or the arena's detour under the fault plane).
  MessageContext ctx_;
  // --- Event-driven replay state, declared last: the analytic hot path
  // --- never touches it (beyond the queueing_ gate above), so keeping it
  // --- out of the middle of the object leaves the hot members' cache-line
  // --- packing undisturbed.
  /// Exchanged requests waiting for their completion time.
  CompletionQueue completions_;
  /// Ascent service demand per visited node: lookup cost plus the d-cache
  /// probe cost for schemes that keep one (cached at construction).
  double ascent_op_cost_ = 0.0;
  /// Arrival process state (NextArrivalTime): the last arrival time.
  double arrival_clock_ = 0.0;
};

}  // namespace cascache::sim

#endif  // CASCACHE_SIM_SIMULATOR_H_
