#include "sim/simulator.h"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace cascache::sim {

namespace {

/// A request's timed-out attempts, counted and recorded at its requester
/// (no record when it had none).
void ObserveRetries(NodeCounters* counters, EventTrace* trace,
                    const MessageContext& ctx, topology::NodeId requester,
                    int retries) {
  if (retries == 0) return;
  Observe(counters, trace, ctx, &NodeCounters::retries,
          static_cast<uint64_t>(retries), TraceEventType::kRetry, requester,
          static_cast<double>(retries));
}

/// Requests decoded per block in ReplayRange: large enough to amortize
/// the loop split, small enough to stay resident in L1/L2.
constexpr size_t kDecodeBlock = 1024;

/// Requests per Run() chunk, after which view.on_consumed may release the
/// consumed pages. A multiple of the decode block; the block
/// accumulator's integer counters flush associatively, so chunked results
/// are bit-identical to one whole-range ReplayRange per phase.
constexpr size_t kReplayChunk = 2 * 1024 * 1024;
static_assert(kReplayChunk % kDecodeBlock == 0);

}  // namespace

util::Status TierParams::Validate() const {
  if (!(ram_fraction >= 0.0 && ram_fraction <= 1.0)) {
    return util::Status::InvalidArgument(
        "tier ram_fraction must be in [0, 1]");
  }
  if (ram_hit_cost < 0.0 || disk_hit_cost < 0.0) {
    return util::Status::InvalidArgument("tier hit costs must be >= 0");
  }
  return util::Status::Ok();
}

util::Status SiblingParams::Validate() const {
  if (level < -1) {
    return util::Status::InvalidArgument(
        "sibling level must be >= 0, or -1 for every level");
  }
  if (max_probes < 0) {
    return util::Status::InvalidArgument("sibling max_probes must be >= 0");
  }
  if (probe_cost < 0.0) {
    return util::Status::InvalidArgument("sibling probe_cost must be >= 0");
  }
  return util::Status::Ok();
}

Simulator::Simulator(const Network* network, CacheSet* caches,
                     schemes::CachingScheme* scheme,
                     const SimOptions& options)
    : network_(network),
      caches_(caches),
      scheme_(scheme),
      options_(options),
      catalog_(&network->catalog()),
      mean_object_size_(network->mean_object_size()),
      server_link_delay_(network->server_link_delay()),
      server_link_hops_(network->server_link_hops()),
      scheme_observes_ascent_(scheme != nullptr && scheme->observes_ascent()),
      scheme_uses_link_costs_(scheme == nullptr || scheme->uses_link_costs()),
      scheme_plain_lru_(scheme != nullptr && scheme->plain_lru_replay()) {
  // The exchange context's invariant fields point at the simulator's
  // reused per-request buffers; the path/delay pointers are repointed at
  // the request's route by every hook-running Exchange.
  ctx_.path = &arena_.detour.nodes;
  ctx_.link_delays = &arena_.detour.delays;
  ctx_.link_costs = &arena_.link_costs;
  ctx_.server_link_delay = server_link_delay_;
  ctx_.caches = caches_;
  // Null/mismatched wiring is a programming error, not a configuration
  // one: fail fast.
  CASCACHE_CHECK(network != nullptr);
  CASCACHE_CHECK(caches != nullptr);
  CASCACHE_CHECK(caches->num_nodes() == network->num_nodes());
  CASCACHE_CHECK(scheme != nullptr);
  node_levels_.resize(static_cast<size_t>(network->num_nodes()));
  for (topology::NodeId v = 0; v < network->num_nodes(); ++v) {
    node_levels_[static_cast<size_t>(v)] = network->NodeLevel(v);
  }
  ctx_.telemetry.node_levels = node_levels_.data();
  // The per-node counters hold the run's only event counts, so they exist
  // from construction on: direct Step() drivers count too. Run()
  // reallocates them zeroed.
  metrics_.ResetNodes(network->num_nodes());
  if (options.trace.enabled) {
    trace_ = std::make_unique<EventTrace>(options.trace);
  }
  // Option values can come straight from the CLI; defer their rejection
  // to Run() so callers get a Status instead of an abort. Direct Step()
  // drivers fall back to the default cost model meanwhile.
  if (!(options.warmup_fraction >= 0.0 && options.warmup_fraction < 1.0)) {
    init_status_ = util::Status::InvalidArgument(
        "warmup_fraction must be in [0, 1)");
    return;
  }
  if (util::Status status = options_.tier.Validate(); !status.ok()) {
    init_status_ = status;
    return;
  }
  if (util::Status status = options_.sibling.Validate(); !status.ok()) {
    init_status_ = status;
    return;
  }
  tiered_ = options_.tier.active();
  ctx_.tiered = tiered_;
  // Sibling cooperation silently disables itself on topologies without
  // sibling sets (en-route, or a branching-1 tree): every probe set would
  // be empty, so skipping the leg entirely is behavior-identical.
  sibling_on_ = options_.sibling.enabled && network->HasSiblings();
  if (options_.contention.active()) {
    if (util::Status status = options_.contention.Validate(); !status.ok()) {
      init_status_ = status;
      return;
    }
    queueing_ = std::make_unique<QueueingPlane>(network->num_nodes());
    ctx_.queueing = queueing_.get();
    ctx_.contention = &options_.contention;
    ascent_op_cost_ =
        options_.contention.lookup_cost +
        (scheme->uses_dcache() ? options_.contention.dcache_cost : 0.0);
    // A finite link also charges transmission time, and the cost-aware
    // schemes should optimize what a loaded link actually costs — feed
    // the bandwidth into the cost model before it is built.
    options_.cost_model.link_transfer_bandwidth =
        options_.contention.link_bandwidth;
  }
  auto model_or = CostModel::Create(options_.cost_model);
  if (!model_or.ok()) {
    init_status_ = model_or.status();
    return;
  }
  cost_model_ = *model_or;
  if (options.faults.active()) {
    if (util::Status status = options.faults.Validate(); !status.ok()) {
      init_status_ = status;
      return;
    }
    faults_ = std::make_unique<FaultPlane>(options.faults, network_);
  }
}

util::Status Simulator::EnableCoherency(uint32_t num_objects) {
  const CoherencyParams& params = options_.coherency;
  if (params.protocol == CoherencyProtocol::kNone &&
      params.mutable_fraction == 0.0) {
    updates_.reset();  // Paper setting: nothing to track.
    return util::Status::Ok();
  }
  CASCACHE_ASSIGN_OR_RETURN(UpdateSchedule schedule,
                            UpdateSchedule::Create(num_objects, params));
  updates_ = std::make_unique<UpdateSchedule>(std::move(schedule));
  return util::Status::Ok();
}

util::Status Simulator::Run(const trace::Workload& workload,
                            uint64_t capacity_bytes_per_node) {
  return Run(workload.View(), capacity_bytes_per_node);
}

util::Status Simulator::Run(const trace::WorkloadView& view,
                            uint64_t capacity_bytes_per_node) {
  using Clock = std::chrono::steady_clock;
  const auto seconds_between = [](Clock::time_point from,
                                  Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
  };
  const Clock::time_point t_start = Clock::now();
  CASCACHE_RETURN_IF_ERROR(init_status_);
  if (capacity_bytes_per_node == 0) {
    return util::Status::InvalidArgument("cache capacity must be > 0");
  }
  if (view.requests.empty()) {
    return util::Status::InvalidArgument("empty workload");
  }
  if (view.catalog == nullptr) {
    return util::Status::InvalidArgument("workload view without catalog");
  }
  CASCACHE_RETURN_IF_ERROR(EnableCoherency(view.catalog->num_objects()));

  CacheNodeConfig config;
  config.mode = scheme_->cache_mode();
  config.capacity_bytes = capacity_bytes_per_node;
  config.frequency = options_.frequency;
  // Two-tier nodes: the RAM front sits over the full-capacity mode store
  // (inclusive, see TierParams), so the disk tier's capacity — and with
  // it every hit/miss decision — is exactly the untiered store's.
  config.ram_fraction = options_.tier.ram_fraction;
  config.ram_capacity_bytes = options_.tier.ram_capacity_bytes;
  // Every store's id→slot index is sized from the catalog: dense and no
  // wider than it, or, for huge (procedural) catalogs, hashed and sized
  // by residency (SlotIndex::SetIdCount).
  config.catalog_ids = catalog_->num_objects();
  if (scheme_->uses_dcache()) {
    const double avg_objects =
        static_cast<double>(capacity_bytes_per_node) / mean_object_size_;
    config.dcache_entries = static_cast<size_t>(
        std::max(1.0, options_.dcache_ratio * avg_objects));
    config.dcache_policy = options_.dcache_policy;
  }
  if (options_.level_capacity_growth == 1.0 ||
      network_->MaxNodeLevel() == 0) {
    caches_->Configure(config);
  } else {
    // Distribute the same total budget across levels with capacity
    // proportional to growth^level.
    const int n = network_->num_nodes();
    const double growth = options_.level_capacity_growth;
    if (growth <= 0.0) {
      return util::Status::InvalidArgument(
          "level_capacity_growth must be > 0");
    }
    double weight_sum = 0.0;
    std::vector<double> weights(static_cast<size_t>(n));
    for (topology::NodeId v = 0; v < n; ++v) {
      weights[static_cast<size_t>(v)] =
          std::pow(growth, network_->NodeLevel(v));
      weight_sum += weights[static_cast<size_t>(v)];
    }
    const double budget =
        static_cast<double>(capacity_bytes_per_node) * static_cast<double>(n);
    std::vector<uint64_t> capacities(static_cast<size_t>(n));
    for (topology::NodeId v = 0; v < n; ++v) {
      capacities[static_cast<size_t>(v)] = std::max<uint64_t>(
          1, static_cast<uint64_t>(budget * weights[static_cast<size_t>(v)] /
                                   weight_sum));
    }
    caches_->ConfigureWithCapacities(config, capacities);
  }
  metrics_.Reset();
  metrics_.ResetNodes(network_->num_nodes());
  if (trace_ != nullptr) trace_->Clear();
  // Forget fault streams and applied crash epochs so a repeated Run
  // replays the same chaotic schedule bit-identically.
  if (faults_ != nullptr) faults_->Reset();
  if (queueing_ != nullptr) queueing_->Reset();
  completions_.Clear();
  arrival_clock_ = 0.0;
  step_index_ = 0;

  const size_t warmup_count = static_cast<size_t>(
      options_.warmup_fraction * static_cast<double>(view.requests.size()));
  // The replay proceeds in bounded chunks so mapped sources can drop
  // consumed pages (WorkloadView::on_consumed). Under the queueing plane
  // the completion queue carries over chunk and phase boundaries, so a
  // warm-up completion landing inside the measured window is drained in
  // time order (and not recorded), and the end of the trace records what
  // is still in flight.
  // Chunks end at absolute multiples of kReplayChunk, so every release
  // point after the phase boundary falls on the same grid whatever the
  // warm-up length.
  const auto replay_phase = [&](size_t begin, size_t end, bool collect) {
    for (size_t c = begin; c < end;) {
      const size_t chunk_end =
          std::min(end, (c / kReplayChunk + 1) * kReplayChunk);
      ReplayRange(view.requests, c, chunk_end, collect);
      if (view.on_consumed) view.on_consumed(chunk_end);
      c = chunk_end;
    }
  };
  const Clock::time_point t_configured = Clock::now();
  replay_phase(0, warmup_count, /*collect=*/false);
  const Clock::time_point t_warmed = Clock::now();
  replay_phase(warmup_count, view.requests.size(), /*collect=*/true);
  FlushCompletions();
  const Clock::time_point t_done = Clock::now();
  phase_times_.configure_seconds = seconds_between(t_start, t_configured);
  phase_times_.warmup_seconds = seconds_between(t_configured, t_warmed);
  phase_times_.measure_seconds = seconds_between(t_warmed, t_done);
  return util::Status::Ok();
}

void Simulator::FlushCompletions() {
  if (completions_.empty()) return;
  block_stats_ = {};
  completions_.DrainAll(
      [this](const CompletionQueue::Completion& done) {
        RecordCompletion(done);
      });
  metrics_.FlushBlock(block_stats_);
}

double Simulator::NextArrivalTime(double trace_time) {
  const ContentionParams& cp = options_.contention;
  if (cp.arrival_rate <= 0.0) {
    // Trace-timed arrivals, monotonized so an unsorted trace cannot
    // schedule into the committed past.
    if (trace_time > arrival_clock_) arrival_clock_ = trace_time;
    return arrival_clock_;
  }
  // Open-loop ramp: rate(t) = arrival_rate * (1 + arrival_ramp * t),
  // stepped per arrival, optionally modulated by the diurnal sinusoid.
  // Validate() guarantees a positive rate (amplitude < 1).
  double rate = cp.arrival_rate * (1.0 + cp.arrival_ramp * arrival_clock_);
  if (cp.arrival_diurnal_amplitude > 0.0) {
    constexpr double kTwoPi = 6.283185307179586476925286766559;
    rate *= 1.0 + cp.arrival_diurnal_amplitude *
                      std::sin(kTwoPi * arrival_clock_ /
                               cp.arrival_diurnal_period);
  }
  arrival_clock_ += 1.0 / rate;
  return arrival_clock_;
}

DecodedRequest Simulator::Decode(const trace::Request& request) {
  DecodedRequest decoded;
  decoded.object = request.object;
  decoded.size = catalog_->size(request.object);
  decoded.route =
      &network_->ClientRoute(network_->RequesterNode(request.client),
                             catalog_->server(request.object));
  decoded.time = request.time;
  return decoded;
}

Simulator::ExchangeKind Simulator::SelectExchange() const {
  if (faults_ != nullptr || queueing_ != nullptr || updates_ != nullptr ||
      trace_ != nullptr || tiered_ || sibling_on_) {
    return ExchangeKind::kFull;
  }
  return scheme_plain_lru_ ? ExchangeKind::kLeanLru
                           : ExchangeKind::kLeanHooks;
}

void Simulator::ReplayRange(trace::RequestSpan requests, size_t begin,
                            size_t end, bool collect) {
  // Recorded exchanges stream into the open block: the order-sensitive
  // per-request arithmetic (Welford stats, queue-wait sum) hits the
  // collector in recording order, while the integer counters accumulate
  // in block_stats_ and write back once per range
  // (MetricsCollector::FlushBlock) instead of once per request. The block
  // is opened even when this range does not collect: under the queueing
  // plane a drained completion may belong to an earlier, collecting range.
  block_stats_ = {};
  switch (SelectExchange()) {
    case ExchangeKind::kLeanLru:
      ReplayBlocks<ExchangeKind::kLeanLru>(requests, begin, end, collect);
      break;
    case ExchangeKind::kLeanHooks:
      ReplayBlocks<ExchangeKind::kLeanHooks>(requests, begin, end, collect);
      break;
    case ExchangeKind::kFull:
      ReplayBlocks<ExchangeKind::kFull>(requests, begin, end, collect);
      break;
  }
  metrics_.FlushBlock(block_stats_);
}

template <Simulator::ExchangeKind kKind>
void Simulator::ReplayBlocks(trace::RequestSpan requests, size_t begin,
                             size_t end, bool collect) {
  // Decode-then-replay in blocks: the decode loop touches only the trace,
  // the catalog's flat arrays and the route table, the replay loop only
  // decoded values. Exchanges run in trace order, so results are
  // bit-identical to one-at-a-time Step() calls. Under the queueing plane
  // the decode loop also stamps each request's arrival time (in trace
  // order), and every completion due by an arrival is recorded before
  // that arrival's exchange runs — completions first at equal times.
  const bool queued =
      kKind == ExchangeKind::kFull && queueing_ != nullptr;
  // Software-pipelined replay: prefetch each request's per-hop probe
  // entries a few requests ahead of its replay. The per-hop Contains
  // chain is a string of dependent loads over ~MBs of node index tables;
  // issuing them early overlaps the misses with the preceding requests'
  // work. Skipped under fault injection (routes may detour).
  const bool prefetch = faults_ == nullptr;
  CacheNode* const nodes = caches_->nodes_data();
  // Far enough ahead to cover a cache-miss round trip, near enough that
  // the lines still sit in cache when the request replays.
  constexpr size_t kPrefetchAhead = 16;
  // Second stage, for the hook exchanges: by this distance the first
  // stage's index entries have arrived, so each node can read its entry
  // and request the slot and heap lines the scheme's hooks will write.
  constexpr size_t kEntryPrefetchAhead = 4;
  std::vector<DecodedRequest>& batch = arena_.batch;
  for (size_t block = begin; block < end; block += kDecodeBlock) {
    const size_t block_end = std::min(end, block + kDecodeBlock);
    batch.clear();
    for (size_t i = block; i < block_end; ++i) {
      batch.push_back(Decode(requests[i]));
      if (queued) batch.back().time = NextArrivalTime(batch.back().time);
    }
    for (size_t j = 0; j < batch.size(); ++j) {
      const size_t p = j + kPrefetchAhead;
      if (prefetch && p < batch.size()) {
        const DecodedRequest& ahead = batch[p];
        for (topology::NodeId v : ahead.route->nodes) {
          nodes[v].PrefetchProbe(ahead.object);
          // Under the plain-LRU rule a miss inserts (and usually evicts)
          // at every path node, so warm the victim entries too.
          if constexpr (kKind == ExchangeKind::kLeanLru) {
            nodes[v].PrefetchLruVictim();
          }
        }
      }
      if constexpr (kKind != ExchangeKind::kLeanLru) {
        const size_t q = j + kEntryPrefetchAhead;
        if (prefetch && q < batch.size()) {
          const DecodedRequest& near = batch[q];
          for (topology::NodeId v : near.route->nodes) {
            nodes[v].PrefetchEntry(near.object);
          }
        }
      }
      if (queued) {
        completions_.DrainThrough(
            batch[j].time, [this](const CompletionQueue::Completion& done) {
              RecordCompletion(done);
            });
      }
      Exchange<kKind>(batch[j], collect);
    }
  }
}

void Simulator::Step(const trace::Request& request, bool collect) {
  ReplayRange(trace::RequestSpan(&request, 1), 0, 1, collect);
  FlushCompletions();
}

bool Simulator::QueueAscentOp(MessageContext& ctx, size_t hop) {
  // Event-driven replay: the hop's lookup (+ d-cache probe) is service
  // demand on the node's bounded queue. A full queue refuses the whole
  // request — it ends here, at the refusing hop.
  const topology::NodeId node_id = (*ctx.path)[hop];
  NodeCounters* const counters = ctx.telemetry.node_counters;
  const QueueingPlane::Admission adm =
      queueing_->AdmitOp(node_id, ctx.now, ascent_op_cost_,
                         options_.contention.node_queue_capacity);
  RaiseQueueDepth(counters, node_id, adm.depth);
  if (adm.shed) {
    ctx.response.shed = true;
    Observe(counters, ctx.telemetry.trace, ctx, &NodeCounters::sheds, 1,
            TraceEventType::kShed, node_id, static_cast<double>(adm.depth));
    return false;
  }
  ctx.metrics->queue_wait += adm.wait;
  ctx.now += adm.wait + ascent_op_cost_;
  Observe(nullptr, ctx.telemetry.trace, ctx, nullptr, 0,
          TraceEventType::kQueueDepth, node_id,
          static_cast<double>(adm.depth));
  return true;
}

bool Simulator::AdmitCopy(MessageContext& ctx, size_t hop,
                          uint32_t* served_version) {
  const topology::NodeId node_id = (*ctx.path)[hop];
  CacheNode* node = caches_->node(node_id);
  NodeCounters* const counters = ctx.telemetry.node_counters;
  EventTrace* const trace = ctx.telemetry.trace;
  const CacheNode::CopyStamp* stamp = node->FindCopy(ctx.object);
  // Copies can only enter a cache through StampCopy'd insertions within
  // this run; treat a missing stamp (e.g. test-injected copy) as
  // fresh-at-time-0.
  const double fetch_time = stamp != nullptr ? stamp->fetch_time : 0.0;
  const uint32_t version = stamp != nullptr ? stamp->version : 0;
  const CoherencyProtocol protocol = options_.coherency.protocol;
  if (protocol == CoherencyProtocol::kTtl &&
      ctx.now - fetch_time > options_.coherency.ttl) {
    node->EraseObject(ctx.object);
    Observe(counters, trace, ctx, &NodeCounters::expirations, 1,
            TraceEventType::kExpired, node_id, ctx.now - fetch_time);
    return false;
  }
  const uint32_t current = updates_->VersionAt(ctx.object, ctx.now);
  if (protocol == CoherencyProtocol::kInvalidation && version < current) {
    node->EraseObject(ctx.object);
    Observe(counters, trace, ctx, &NodeCounters::invalidations, 1,
            TraceEventType::kInvalidated, node_id,
            static_cast<double>(current - version));
    return false;
  }
  if (version < current) {
    Observe(counters, trace, ctx, &NodeCounters::stale_serves, 1,
            TraceEventType::kStaleServe, node_id,
            static_cast<double>(current - version));
  }
  *served_version = version;
  return true;
}

bool Simulator::TrySiblings(MessageContext& ctx, size_t hop,
                            uint32_t* served_version) {
  const std::vector<topology::NodeId>& path = *ctx.path;
  const topology::NodeId node_id = path[hop];
  const SiblingParams& sp = options_.sibling;
  if (sp.level >= 0 &&
      node_levels_[static_cast<size_t>(node_id)] != sp.level) {
    return false;
  }
  const std::vector<topology::NodeId>& siblings = network_->Siblings(node_id);
  if (siblings.empty()) return false;
  CacheNode* const nodes = caches_->nodes_data();
  const bool faults_active = faults_ != nullptr;
  int probes = 0;
  for (topology::NodeId sib : siblings) {
    if (sp.max_probes > 0 && probes >= sp.max_probes) break;
    const int probe_ordinal = ctx.request.sibling_probes++;
    ++probes;
    ctx.RecordSiblingProbe(static_cast<int>(hop), sib);
    scheme_->OnSiblingProbe(ctx, static_cast<int>(hop), sib);
    ctx.request.payload_bytes += sp.probe_bytes;
    if (queueing_ != nullptr && sp.probe_cost > 0.0) {
      // Probes are tiny control messages: they wait behind the sibling's
      // backlog and serve, but are never shed (capacity 0 = unbounded).
      const QueueingPlane::Admission adm =
          queueing_->AdmitOp(sib, ctx.now, sp.probe_cost, 0);
      ctx.metrics->queue_wait += adm.wait;
      ctx.now += adm.wait + sp.probe_cost;
    }
    if (faults_active) {
      // A crashed sibling answers nothing; a lost probe (or lost reply)
      // reads as a miss, and the probing hop falls back to the ascent.
      if (faults_->NodeDown(sib, ctx.now)) continue;
      if (faults_->SiblingLoss(ctx.telemetry.request_index, probe_ordinal)) {
        ctx.RecordDegraded(static_cast<int>(hop));
        continue;
      }
    }
    CacheNode* sib_node = &nodes[sib];
    if (!sib_node->Contains(ctx.object)) continue;
    bool ram_only = false;
    if (faults_active && faults_->DiskDown(sib, ctx.now)) {
      // Degraded sibling: only its RAM tier can answer. A disk-only copy
      // reads as a plain miss to the prober (no disk-degraded decision is
      // recorded — the degradation is off this request's path).
      if (sib_node->tiered() && sib_node->ram()->Contains(ctx.object)) {
        ram_only = true;
      } else {
        continue;
      }
    }
    uint32_t version = 0;
    if (updates_ != nullptr) {
      // Probes never mutate and never stale-serve: an expired or stale
      // sibling copy is skipped (not erased) — only a fresh copy crosses
      // the sibling leg.
      const CacheNode::CopyStamp* stamp = sib_node->FindCopy(ctx.object);
      const double fetch_time = stamp != nullptr ? stamp->fetch_time : 0.0;
      version = stamp != nullptr ? stamp->version : 0;
      if (options_.coherency.protocol == CoherencyProtocol::kTtl &&
          ctx.now - fetch_time > options_.coherency.ttl) {
        continue;
      }
      if (version < updates_->VersionAt(ctx.object, ctx.now)) continue;
    }
    if (tiered_ && sib_node->tiered()) ServeTier(ctx, sib, ram_only);
    ctx.response.served_by_sibling = true;
    ctx.response.sibling = sib;
    // The hit reply carries the protocol header back across the leg.
    ctx.response.payload_bytes += sp.probe_bytes;
    ctx.RecordSiblingServe(static_cast<int>(hop), sib);
    *served_version = version;
    return true;
  }
  return false;
}

void Simulator::ServeTier(MessageContext& ctx, topology::NodeId node_id,
                          bool ram_only) {
  // Which tier serves: the RAM front when it holds the object (or is all
  // the node has left during a disk outage), else the disk store with
  // promotion into RAM (inclusive: the disk copy stays).
  CacheNode* node = caches_->node(node_id);
  CacheNode::TierServe tier;
  if (ram_only) {
    tier.ram_hit = node->ram()->Touch(ctx.object);
  } else {
    tier = node->ServeTiered(ctx.object, ctx.size);
  }
  ctx.RecordTierServe(node_id, tier);
  const double cost =
      tier.ram_hit ? options_.tier.ram_hit_cost : options_.tier.disk_hit_cost;
  if (cost <= 0.0) return;
  if (queueing_ == nullptr) {
    ctx.tier_service += cost;
    return;
  }
  // The serve is already committed when the tier is consulted, so the
  // admission must not refuse (capacity 0 = unbounded): it waits behind
  // the node's backlog and serves.
  const QueueingPlane::Admission adm =
      queueing_->AdmitOp(node_id, ctx.now, cost, 0);
  ctx.metrics->queue_wait += adm.wait;
  ctx.now += adm.wait + cost;
  RaiseQueueDepth(ctx.telemetry.node_counters, node_id, adm.depth);
}

template <Simulator::ExchangeKind kKind>
void Simulator::Exchange(const DecodedRequest& request, bool collect) {
  // Feature gates. Both lean instantiations fold every gate to a
  // compile-time false, which deletes that feature's code from their
  // body; the full one reads the simulator's per-run state. kLeanLru
  // additionally replaces the scheme hooks with the inlined plain-LRU
  // rule, so it never wires the shared MessageContext at all.
  constexpr bool kLean = kKind != ExchangeKind::kFull;
  constexpr bool kHooks = kKind != ExchangeKind::kLeanLru;
  const bool faulted = !kLean && faults_ != nullptr;
  const bool queued = !kLean && queueing_ != nullptr;
  const bool coherent = !kLean && updates_ != nullptr;
  const bool tiered = !kLean && tiered_;
  const bool siblings = !kLean && sibling_on_;

  const trace::ObjectId object = request.object;
  const uint64_t size = request.size;
  const topology::NodeId requester = request.route->nodes.front();
  const uint64_t request_index = step_index_++;
  NodeCounters* const counters =
      collect ? metrics_.node_counters_data() : nullptr;
  CacheNode* const nodes = caches_->nodes_data();
  RequestMetrics rm;
  rm.size_bytes = size;
  // Fault plane: timed-out attempts before the request resolved, and
  // whether it took a detour around a failed link or node.
  int retries = 0;
  bool rerouted = false;

  // The request's arrival: the trace timestamp, or the arrival process's
  // time under the queueing plane. Every time consumer below — TTL
  // expiry, retry backoff, fault-schedule evaluation, queueing — derives
  // from this one instant.
  double now = request.time;

  // Path resolution. The route is the Network's table route for the
  // (requester, server) pair. With a fault plane, an unroutable attempt
  // (link outage / crash cutting the path) times out and retries with
  // deterministic exponential backoff, so the attempt time `now` may
  // trail the request time, and a reroute replaces the table route with
  // a detour for this request.
  const Route* route = request.route;
  bool reachable = true;
  if (faulted) {
    const FaultScheduleConfig& fc = faults_->config();
    int attempt = 0;
    for (;;) {
      reachable = faults_->ResolvePath(*route, now, &arena_.detour.nodes,
                                       &rerouted);
      if (reachable || attempt >= fc.max_retries) break;
      now += fc.request_timeout + std::ldexp(fc.retry_backoff, attempt);
      ++attempt;
      ++retries;
    }
    if (rerouted) {
      arena_.detour.FillDelays(network_->graph());
      route = &arena_.detour;
    }
  }
  const std::vector<topology::NodeId>& path = route->nodes;
  const double* const delay_prefix = route->delay_prefix.data();
  const size_t path_len = path.size();
  const double size_scale = static_cast<double>(size) / mean_object_size_;

  // The hook instantiations hand the scheme handlers the exchange through
  // the reused context. Telemetry: per-node counters only while
  // collecting (they are the aggregates' event counts, so they share the
  // warm-up exclusion); the trace keys its per-request sampling decision
  // off the replay position.
  MessageContext& ctx = ctx_;
  EventTrace* const trace =
      !kLean && trace_ != nullptr && trace_->SampleRequest(request_index)
          ? trace_.get()
          : nullptr;
  if constexpr (kHooks) {
    ctx.path = &route->nodes;
    ctx.link_delays = &route->delays;
    ctx.object = object;
    ctx.size = size;
    ctx.size_scale = size_scale;
    ctx.now = now;
    ctx.metrics = &rm;
    ctx.request = RequestMessage();
    ctx.response = ResponseMessage();
    ctx.tier_service = 0.0;
    ctx.telemetry.request_index = request_index;
    ctx.telemetry.node_counters = counters;
    ctx.telemetry.trace = trace;
  }

  if (faulted && !reachable) {
    // Retries exhausted with no surviving route: the request fails. It
    // still pays the timeouts it sat through — latency covers the elapsed
    // attempts plus the final timeout — and is recorded (failed, zero
    // hops) so requests == served + failed with nothing silently dropped.
    rm.failed = true;
    rm.latency = (now - request.time) + options_.faults.request_timeout;
    ObserveRetries(counters, trace, ctx, requester, retries);
    Observe(counters, trace, ctx, nullptr, 0, TraceEventType::kRequestFailed,
            requester, static_cast<double>(retries));
    FinishRequest(rm, collect, request.time + rm.latency, queued);
    return;
  }

  // Link costs are size-dependent (latency / weighted models): computed
  // per request from the route's delays. No virtual server link under
  // en-route (servers are co-located with their attach node), so its cost
  // is 0 under every cost model. Skipped outright for schemes that never
  // read costs (LRU, MODULO, LFU, STATIC).
  if (kHooks && scheme_uses_link_costs_) {
    ctx.server_link_cost =
        server_link_hops_ == 0
            ? 0.0
            : cost_model_.LinkCost(server_link_delay_, size,
                                   mean_object_size_);
    arena_.link_costs.clear();
    arena_.link_costs.reserve(route->delays.size());
    for (double delay : route->delays) {
      arena_.link_costs.push_back(
          cost_model_.LinkCost(delay, size, mean_object_size_));
    }
    ctx.link_costs = &arena_.link_costs;
  }

  if (faulted) {
    // Apply pending cold restarts along the path, then flag hops whose
    // cache process is still down at the attempt time. Crashes are
    // charged to the crashed node; retries and reroutes to the
    // requester.
    arena_.node_down.assign(path_len, 0);
    arena_.disk_down.assign(path_len, 0);
    for (size_t i = 0; i < path_len; ++i) {
      const topology::NodeId node_id = path[i];
      if (faults_->DiskDown(node_id, now)) arena_.disk_down[i] = 1;
      const int applied =
          faults_->ApplyCrashRestarts(caches_->node(node_id), now);
      if (applied > 0) {
        Observe(counters, trace, ctx, &NodeCounters::crashes,
                static_cast<uint64_t>(applied), TraceEventType::kNodeCrash,
                node_id, static_cast<double>(applied));
      }
      if (faults_->NodeDown(node_id, now)) arena_.node_down[i] = 1;
    }
    ObserveRetries(counters, trace, ctx, requester, retries);
    if (rerouted) {
      Observe(counters, trace, ctx, &NodeCounters::reroutes, 1,
              TraceEventType::kReroute, requester,
              static_cast<double>(path_len));
    }
  }

  Observe(counters, trace, ctx, nullptr, 0, TraceEventType::kRequest,
          requester, static_cast<double>(path_len));

  // --- Phase 1: the request message ascends to its serving point. -------
  // At each hop: coherency admission first — under a protocol, expired or
  // invalidated copies are discarded and the request continues upstream;
  // under kNone a stale copy is served (and counted) — then, if the hop
  // cannot serve, the sibling leg and the scheme's ascent handler. A hop
  // whose cache process is down (fault plane) is transparent: it can
  // serve nothing and its piggyback entry is lost. The attempt starts
  // here: under contention ctx.now accrues queue waits and service from
  // this instant on, and all freshness checks read it.
  const double attempt_start = now;
  // Version the client receives; downstream copies inherit it (a stale
  // serving copy propagates its stale version).
  uint32_t served_version = coherent ? updates_->VersionAt(object, now) : 0;
  int hit = -1;
  for (size_t i = 0; i < path_len; ++i) {
    const topology::NodeId node_id = path[i];
    CacheNode& node = nodes[node_id];
    const bool down = faulted && arena_.node_down[i] != 0;
    // A down hop serves nothing and charges nothing (its queue is not
    // running); a full queue ends the exchange at the refusing hop — no
    // serve, no descent, no placements. Its latency is the time it spent
    // getting there (queue waits and service so far, plus any fault-plane
    // retries).
    if (queued && !down && ascent_op_cost_ > 0.0 &&
        !QueueAscentOp(ctx, i)) {
      rm.hops = static_cast<int>(i);
      rm.latency = ctx.now - request.time;
      if (scheme_observes_ascent_) scheme_->OnAbort();
      FinishRequest(rm, collect, ctx.now, queued);
      return;
    }
    bool servable = !down && node.Contains(object);
    // Degraded-node fault class: the hop's disk is out. A tiered node
    // keeps serving what its RAM tier holds (coherency admission is
    // skipped — the copy metadata lives with the disk store, which the
    // node cannot touch); any copy only the disk holds is unavailable
    // (tiered or not), recorded as a disk-degraded decision. Contents are
    // preserved: recovery resumes with the pre-outage store.
    bool ram_only = false;
    if (servable && faulted && arena_.disk_down[i] != 0) [[unlikely]] {
      if (node.tiered() && node.ram()->Contains(object)) {
        ram_only = true;
      } else {
        servable = false;
        ctx.RecordDiskDegraded(static_cast<int>(i));
      }
    }
    if (servable && !ram_only && coherent) {
      servable = AdmitCopy(ctx, i, &served_version);
    }
    if (servable) {
      if (tiered && node.tiered()) [[unlikely]] {
        ServeTier(ctx, node_id, ram_only);
      }
      hit = static_cast<int>(i);
      if (counters != nullptr) counters[node_id].bytes_served += size;
      Observe(counters, trace, ctx, &NodeCounters::hits, 1,
              TraceEventType::kHit, node_id, static_cast<double>(i));
      break;
    }
    Observe(counters, trace, ctx, &NodeCounters::misses, 1,
            TraceEventType::kMiss, node_id, static_cast<double>(i));
    // Sibling cooperation: a live hop that missed locally probes its
    // siblings before letting the request ascend. On a sibling serve the
    // exchange ends here — hit is this hop, the descent below it is
    // identical to a local hit, and this hop contributes no piggyback
    // entry (exactly as if it had served), so scheme state stays
    // hop-aligned.
    if (siblings && !down && TrySiblings(ctx, i, &served_version)) {
      hit = static_cast<int>(i);
      break;
    }
    if (kHooks && scheme_observes_ascent_) {
      ctx.request.hop = static_cast<int>(i);
      // A down hop contributes no piggyback entry; an up hop's entry may
      // still be lost in transit. Either way the scheme sees
      // piggyback_lost for this hop only and applies its documented
      // fallback (DESIGN.md §10).
      if (faulted &&
          (down || faults_->AscentLoss(request_index, static_cast<int>(i)))) {
        ctx.request.piggyback_lost = true;
        ctx.RecordDegraded(static_cast<int>(i));
      }
      scheme_->OnAscend(ctx, static_cast<int>(i));
      ctx.request.piggyback_lost = false;
    }
  }
  if (hit < 0) {
    // The origin serve is not node-scoped: node/level are -1.
    Observe(counters, trace, ctx, nullptr, 0, TraceEventType::kOrigin, -1,
            static_cast<double>(path_len) - 1.0 + server_link_hops_);
  }

  // Access latency and hops (paper cost model: link delay scaled by object
  // size; the client-to-first-cache cost is excluded). delay_prefix[i] is
  // the left-to-right sum of the first i link delays.
  double base_delay;
  int hops;
  if (hit >= 0) {
    base_delay = delay_prefix[hit];
    hops = hit;
    if (siblings && ctx.response.served_by_sibling) {
      // Sibling detour: the probe climbs to the probing hop's parent and
      // over to the sibling, the body comes back the same way — two hops
      // and two extra link delays on top of the ascent to the probing
      // hop. Sibling sets are nonempty only off the tree root, so the
      // parent (path[hit + 1]) always exists here.
      base_delay += route->delays[static_cast<size_t>(hit)] +
                    network_->LinkDelay(path[static_cast<size_t>(hit) + 1],
                                        ctx.response.sibling);
      hops = hit + 2;
    }
  } else {
    base_delay = delay_prefix[path_len - 1] + server_link_delay_;
    hops = static_cast<int>(path_len) - 1 + server_link_hops_;
  }
  rm.latency = base_delay * size_scale;
  // Analytic tier service (RAM/disk hit cost) rides on top of the
  // propagation latency; under the event-driven policy it was charged on
  // the serving node's queue and arrives via ctx.now below instead.
  if (tiered && ctx.tier_service > 0.0) rm.latency += ctx.tier_service;
  rm.hops = hops;

  // --- Phase 2: the serving node decides, the response descends through
  // every node below the serving point (the attach node too when the
  // origin served). ---------------------------------------------------------
  // Where the hooks do not run, the plain-LRU rule stands in for them
  // (see CachingScheme::plain_lru_replay): touch the serving store, insert
  // at every hop below it, account as RecordPlacement does without the
  // trace, tiers and queueing this instantiation excludes.
  if constexpr (kHooks) {
    ctx.response.hit_index = hit;
    if (siblings && ctx.response.served_by_sibling) {
      scheme_->OnSiblingServe(ctx);
    } else {
      scheme_->OnServe(ctx);
    }
  } else if (hit >= 0) {
    nodes[path[static_cast<size_t>(hit)]].lru()->Touch(object);
  }
  // The body of a sibling serve crosses the sibling leg before it
  // descends: one contended transfer keyed on the (sibling, probing hop)
  // pair.
  if (queued && ctx.response.served_by_sibling) {
    const QueueingPlane::Transfer t = queueing_->TransferOn(
        ctx.response.sibling, path[static_cast<size_t>(hit)], ctx.now, size,
        options_.contention.link_bandwidth);
    rm.queue_wait += t.wait;
    ctx.now += t.wait + t.tx;
  }
  // A down hop cannot act on the descending decision, and an up hop's
  // decision entry may be lost in transit. The scheme still runs its
  // descent hook (penalty bookkeeping survives; see DESIGN.md §10) but
  // must not place or refresh under decision_lost. Under contention a hop
  // additionally charges the object body's link transfer, and a full
  // store queue drops the decision there the same way
  // (DescendContention).
  const int first_missing =
      hit >= 0 ? hit - 1 : static_cast<int>(path_len) - 1;
  for (int i = first_missing; i >= 0; --i) {
    if (faulted) {
      if (arena_.node_down[static_cast<size_t>(i)] != 0 ||
          faults_->DescentLoss(request_index, i)) {
        ctx.response.decision_lost = true;
        ctx.RecordDegraded(i);
      } else if (arena_.disk_down[static_cast<size_t>(i)] != 0) {
        // Disk outage at the hop: it cannot commit a placement (the RAM
        // tier is inclusive in the disk store), so the decision is lost
        // here. Disjoint from the message-loss degradation above.
        ctx.response.decision_lost = true;
        ctx.RecordDiskDegraded(i);
      }
    }
    if (queued) DescendContention(i);
    if constexpr (kHooks) {
      scheme_->OnDescend(ctx, i);
      ctx.response.decision_lost = false;
    } else {
      // InsertAbsent is sound here: every descent node sits below the
      // serving point, so its ascent probe just missed for this object.
      const topology::NodeId node_id = path[static_cast<size_t>(i)];
      bool inserted = false;
      const std::vector<trace::ObjectId>& evicted =
          nodes[node_id].lru()->InsertAbsent(object, size, &inserted);
      CountPlacement(counters, node_id, size, inserted, evicted.size());
    }
  }
  // Contended exchanges pay their accrued waits on top of the analytic
  // propagation latency (zero when every service knob is zero, so the
  // equivalence with the analytic policy is exact).
  if (queued) rm.latency += ctx.now - attempt_start;
  if constexpr (kHooks) {
    rm.request_msg_bytes = ctx.request.payload_bytes;
    rm.response_msg_bytes = ctx.response.payload_bytes;
  }

  // Stamp freshness metadata on the copies this request created. Copies
  // below the serving point inherit the served version; the serving copy
  // keeps its original stamp (hits do not revalidate). A down hop stored
  // nothing this request, so any copy it already holds keeps its stamp.
  if (coherent) {
    const int top = hit >= 0 ? hit : static_cast<int>(path_len) - 1;
    for (int i = 0; i <= top; ++i) {
      if (i == hit) continue;
      if (faulted && arena_.node_down[static_cast<size_t>(i)] != 0) continue;
      CacheNode& node = nodes[path[static_cast<size_t>(i)]];
      if (node.Contains(object)) {
        node.StampCopy(object, ctx.now, served_version);
      }
    }
  }

  FinishRequest(rm, collect, attempt_start + rm.latency, queued);
}

void Simulator::DescendContention(int i) {
  MessageContext& ctx = ctx_;
  const ContentionParams& cp = options_.contention;
  const std::vector<topology::NodeId>& path = *ctx.path;
  const int top = static_cast<int>(path.size()) - 1;
  // The object body crosses the link above hop i before the hop acts.
  // The topmost descent hop of an origin-served request receives it over
  // the virtual server link: transmission time only, uncontended (the
  // origin is not a node of the queueing plane).
  QueueingPlane::Transfer t;
  if (ctx.origin_served() && i == top) {
    if (cp.link_bandwidth > 0.0) {
      t.tx = static_cast<double>(ctx.size) / cp.link_bandwidth;
    }
  } else {
    t = queueing_->TransferOn(path[static_cast<size_t>(i) + 1],
                              path[static_cast<size_t>(i)], ctx.now,
                              ctx.size, cp.link_bandwidth);
  }
  ctx.metrics->queue_wait += t.wait;
  ctx.now += t.wait + t.tx;
  // Store-queue pre-check: a full queue refuses the placement decision at
  // this hop — the scheme sees decision_lost and must not place, so the
  // later RecordPlacement commit can never itself refuse. Skipped when
  // the decision is already lost (fault plane): nothing left to drop.
  if (!ctx.response.decision_lost && cp.store_cost > 0.0 &&
      cp.node_queue_capacity > 0) {
    const topology::NodeId node_id = path[static_cast<size_t>(i)];
    const uint32_t depth =
        queueing_->BacklogDepth(node_id, ctx.now, cp.store_cost);
    if (depth >= cp.node_queue_capacity) {
      ctx.response.decision_lost = true;
      ctx.RecordStoreShed(i, depth);
    }
  }
}

}  // namespace cascache::sim
