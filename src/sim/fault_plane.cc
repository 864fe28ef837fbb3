#include "sim/fault_plane.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <variant>

#include "util/flags.h"

namespace cascache::sim {

namespace {

/// SplitMix64 finalizer: full-avalanche mix for per-entity stream seeds
/// and per-(request, hop) message-fault decisions.
uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t MixSeed(uint64_t seed, uint64_t tag, uint64_t id) {
  return Mix(seed + tag * 0x9E3779B97F4A7C15ULL + Mix(id));
}

/// Uniform double in [0, 1) from a hash value.
double HashToUnit(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Stable undirected-edge key.
uint64_t EdgeKey(topology::NodeId u, topology::NodeId v) {
  const uint64_t lo = static_cast<uint64_t>(std::min(u, v));
  const uint64_t hi = static_cast<uint64_t>(std::max(u, v));
  return (hi << 32) | lo;
}

constexpr uint64_t kNodeTag = 0x4e;     // 'N'
constexpr uint64_t kEdgeTag = 0x45;     // 'E'
constexpr uint64_t kAscentTag = 0x41;   // 'A'
constexpr uint64_t kDescentTag = 0x44;  // 'D'
constexpr uint64_t kDiskTag = 0x4b;     // 'K' (disK; 'D' is taken)
constexpr uint64_t kSiblingTag = 0x53;  // 'S'

/// The fault keys, in --help order: one row names the key of
/// --fault-<key> and of Validate's messages, the field it sets, and the
/// flag's help.
struct FaultKey {
  std::string_view key;
  std::variant<uint64_t FaultScheduleConfig::*, double FaultScheduleConfig::*,
               int FaultScheduleConfig::*, bool FaultScheduleConfig::*>
      field;
  const char* help;
};

const FaultKey kFaultKeys[] = {
    {"seed", &FaultScheduleConfig::seed, "seed of the fault streams"},
    {"node_mtbf", &FaultScheduleConfig::node_crash_mtbf,
     "mean seconds between node crashes (0 = none)"},
    {"node_downtime", &FaultScheduleConfig::node_downtime,
     "mean seconds a crashed node stays down"},
    {"link_mtbf", &FaultScheduleConfig::link_mtbf,
     "mean seconds between link outages (0 = none)"},
    {"link_downtime", &FaultScheduleConfig::link_downtime,
     "mean seconds a failed link stays down"},
    {"crash_cuts_routing", &FaultScheduleConfig::crash_cuts_routing,
     "crashed nodes also stop forwarding (requests detour)"},
    {"ascent_loss", &FaultScheduleConfig::ascent_loss_prob,
     "probability a hop's piggyback entry is lost"},
    {"decision_loss", &FaultScheduleConfig::decision_loss_prob,
     "probability a hop's placement decision is lost"},
    {"timeout", &FaultScheduleConfig::request_timeout,
     "seconds before an unreachable request retries"},
    {"max_retries", &FaultScheduleConfig::max_retries,
     "retries before a request is recorded as failed"},
    {"backoff", &FaultScheduleConfig::retry_backoff,
     "retry k backs off fault-backoff * 2^k seconds"},
    {"disk_mtbf", &FaultScheduleConfig::disk_fail_mtbf,
     "mean seconds between disk-tier failures (0 = none); a degraded node "
     "serves from RAM only (tiered) or proxies (single-tier)"},
    {"disk_downtime", &FaultScheduleConfig::disk_fail_downtime,
     "mean seconds a failed disk tier stays degraded"},
    {"sibling_loss", &FaultScheduleConfig::sibling_loss_prob,
     "probability a sibling probe or its reply is lost"},
};

/// "node_mtbf" -> "fault-node-mtbf".
std::string FaultFlagName(const FaultKey& entry) {
  std::string name = "fault-" + std::string(entry.key);
  std::replace(name.begin(), name.end(), '_', '-');
  return name;
}

}  // namespace

util::Status FaultScheduleConfig::Validate() const {
  for (const FaultKey& entry : kFaultKeys) {
    const auto* member =
        std::get_if<double FaultScheduleConfig::*>(&entry.field);
    if (member != nullptr && !std::isfinite(this->**member)) {
      return util::Status::InvalidArgument("fault setting " +
                                           std::string(entry.key) +
                                           " must be finite");
    }
  }
  if (node_crash_mtbf < 0.0 || link_mtbf < 0.0) {
    return util::Status::InvalidArgument("fault mtbf must be >= 0");
  }
  if (node_crash_mtbf > 0.0 && node_downtime <= 0.0) {
    return util::Status::InvalidArgument(
        "node_downtime must be > 0 when crashes are enabled");
  }
  if (link_mtbf > 0.0 && link_downtime <= 0.0) {
    return util::Status::InvalidArgument(
        "link_downtime must be > 0 when outages are enabled");
  }
  if (ascent_loss_prob < 0.0 || ascent_loss_prob > 1.0 ||
      decision_loss_prob < 0.0 || decision_loss_prob > 1.0 ||
      sibling_loss_prob < 0.0 || sibling_loss_prob > 1.0) {
    return util::Status::InvalidArgument(
        "fault loss probabilities must be in [0, 1]");
  }
  if (disk_fail_mtbf < 0.0) {
    return util::Status::InvalidArgument("disk_mtbf must be >= 0");
  }
  if (disk_fail_mtbf > 0.0 && disk_fail_downtime <= 0.0) {
    return util::Status::InvalidArgument(
        "disk_downtime must be > 0 when disk failures are enabled");
  }
  if (request_timeout <= 0.0) {
    return util::Status::InvalidArgument("request_timeout must be > 0");
  }
  if (max_retries < 0) {
    return util::Status::InvalidArgument("max_retries must be >= 0");
  }
  if (retry_backoff < 0.0) {
    return util::Status::InvalidArgument("retry_backoff must be >= 0");
  }
  return util::Status::Ok();
}

void RegisterFaultFlags(util::FlagParser* flags, FaultScheduleConfig* config) {
  for (const FaultKey& entry : kFaultKeys) {
    std::visit(
        [&](auto member) {
          flags->Add(FaultFlagName(entry), &(config->*member), entry.help);
        },
        entry.field);
  }
}

// --- OutageTrack -----------------------------------------------------------

FaultPlane::OutageTrack::OutageTrack(uint64_t seed, double mtbf,
                                     double downtime)
    : rng_(seed), enabled_(mtbf > 0.0) {
  if (enabled_) {
    onset_rate_ = 1.0 / mtbf;
    recovery_rate_ = 1.0 / downtime;
  }
}

size_t FaultPlane::OutageTrack::Seek(double t) {
  // Generate [down-start, down-end) pairs until the last boundary passes
  // `t`. The pairs are a fixed stream of the track's RNG, so queries in
  // any time order observe the same process.
  while (boundaries_.empty() || boundaries_.back() <= t) {
    const double last = boundaries_.empty() ? 0.0 : boundaries_.back();
    const double start = last + rng_.NextExponential(onset_rate_);
    const double end = start + rng_.NextExponential(recovery_rate_);
    boundaries_.push_back(start);
    boundaries_.push_back(end);
  }
  if (t >= hi_) {
    // Forward, the replay's direction: walk the cursor up.
    while (boundaries_[cursor_] <= t) ++cursor_;
  } else {
    // Backward, behind an earlier query: t < lo_, so the answer lies among
    // the boundaries below the cursor.
    cursor_ = static_cast<size_t>(
        std::upper_bound(boundaries_.begin(),
                         boundaries_.begin() + static_cast<ptrdiff_t>(cursor_),
                         t) -
        boundaries_.begin());
  }
  lo_ = cursor_ == 0 ? -std::numeric_limits<double>::infinity()
                     : boundaries_[cursor_ - 1];
  hi_ = boundaries_[cursor_];
  return cursor_;
}

// --- FaultPlane ------------------------------------------------------------

FaultPlane::FaultPlane(const FaultScheduleConfig& config,
                       const Network* network)
    : config_(config), network_(network) {
  CASCACHE_CHECK(network != nullptr);
  CASCACHE_CHECK(config.Validate().ok());
  routing_faults_ = config_.link_mtbf > 0.0 ||
                    (config_.crash_cuts_routing && config_.node_crash_mtbf > 0.0);
  Reset();
}

void FaultPlane::Reset() {
  const topology::Graph& graph = network_->graph();
  const size_t n = static_cast<size_t>(graph.num_nodes());
  node_tracks_.clear();
  disk_tracks_.clear();
  for (topology::NodeId v = 0; v < graph.num_nodes(); ++v) {
    const uint64_t id = static_cast<uint64_t>(v);
    node_tracks_.emplace_back(MixSeed(config_.seed, kNodeTag, id),
                              config_.node_crash_mtbf, config_.node_downtime);
    disk_tracks_.emplace_back(MixSeed(config_.seed, kDiskTag, id),
                              config_.disk_fail_mtbf,
                              config_.disk_fail_downtime);
  }
  link_tracks_.assign(graph.num_edges(), OutageTrack());
  for (topology::NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (const topology::Edge& e : graph.Neighbors(u)) {
      if (u > e.to) continue;
      link_tracks_[e.id] =
          OutageTrack(MixSeed(config_.seed, kEdgeTag, EdgeKey(u, e.to)),
                      config_.link_mtbf, config_.link_downtime);
    }
  }
  applied_crash_epoch_.assign(n, 0);
}

bool FaultPlane::NodeDown(topology::NodeId v, double t) {
  return node_tracks_[static_cast<size_t>(v)].IsDown(t);
}

bool FaultPlane::DiskDown(topology::NodeId v, double t) {
  return disk_tracks_[static_cast<size_t>(v)].IsDown(t);
}

bool FaultPlane::SiblingLoss(uint64_t request_index, int probe) const {
  if (config_.sibling_loss_prob <= 0.0) return false;
  const uint64_t h = Mix(MixSeed(config_.seed, kSiblingTag, request_index) +
                         static_cast<uint64_t>(probe));
  return HashToUnit(h) < config_.sibling_loss_prob;
}

bool FaultPlane::LinkDown(LinkId link, double t) {
  return link_tracks_[link].IsDown(t);
}

bool FaultPlane::LinkDown(topology::NodeId u, topology::NodeId v, double t) {
  return LinkDown(network_->graph().Link(u, v).id, t);
}

FaultPlane::HopFaults FaultPlane::ApplyHopFaults(CacheNode* node,
                                                 double t) {
  const size_t i = static_cast<size_t>(node->id());
  HopFaults hop;
  hop.crashes = ApplyCrashRestarts(node, t);
  hop.down = node_tracks_[i].IsDown(t);
  hop.disk_down = disk_tracks_[i].IsDown(t);
  return hop;
}

int FaultPlane::ApplyCrashRestarts(CacheNode* node, double t) {
  const size_t i = static_cast<size_t>(node->id());
  const uint64_t epoch = node_tracks_[i].CrashEpoch(t);
  const uint64_t applied = applied_crash_epoch_[i];
  if (epoch <= applied) return 0;
  // Cold restart: everything volatile — store, descriptors, d-cache,
  // frequency windows — is gone; the capacity configuration survives.
  node->Reset(node->config());
  applied_crash_epoch_[i] = epoch;
  return static_cast<int>(epoch - applied);
}

bool FaultPlane::AscentLoss(uint64_t request_index, int hop) const {
  if (config_.ascent_loss_prob <= 0.0) return false;
  const uint64_t h = Mix(MixSeed(config_.seed, kAscentTag, request_index) +
                         static_cast<uint64_t>(hop));
  return HashToUnit(h) < config_.ascent_loss_prob;
}

bool FaultPlane::DescentLoss(uint64_t request_index, int hop) const {
  if (config_.decision_loss_prob <= 0.0) return false;
  const uint64_t h = Mix(MixSeed(config_.seed, kDescentTag, request_index) +
                         static_cast<uint64_t>(hop));
  return HashToUnit(h) < config_.decision_loss_prob;
}

bool FaultPlane::PathHealthy(const Route& route, double t) {
  const std::vector<topology::NodeId>& path = route.nodes;
  for (const LinkId link : route.links) {
    if (LinkDown(link, t)) return false;
  }
  if (config_.crash_cuts_routing) {
    // Endpoints stay routable: the requester's router and the server
    // attach node forward even when their cache process is down.
    for (size_t i = 1; i + 1 < path.size(); ++i) {
      if (NodeDown(path[i], t)) return false;
    }
  }
  return true;
}

bool FaultPlane::ResolvePath(const Route& route, double t,
                             std::vector<topology::NodeId>* detour,
                             bool* rerouted) {
  *rerouted = false;
  if (!routing_faults_ || PathHealthy(route, t)) return true;
  if (DetourPath(route.nodes.front(), route.nodes.back(), t, detour)) {
    *rerouted = true;
    return true;
  }
  return false;
}

bool FaultPlane::DetourPath(topology::NodeId from, topology::NodeId root,
                            double t, std::vector<topology::NodeId>* path) {
  // The server-rooted tree over the surviving graph (the paper routes
  // along server-rooted trees), so the detour runs from -> ... -> root
  // like the table routes.
  const bool cut_nodes =
      config_.crash_cuts_routing && config_.node_crash_mtbf > 0.0;
  topology::BuildShortestPathTree(
      network_->graph(), root,
      [&](topology::NodeId u, topology::NodeId v) {
        const bool forwarding =
            !cut_nodes || v == from || v == root || !NodeDown(v, t);
        return forwarding && !LinkDown(u, v, t);
      },
      &detour_tree_);
  if (!detour_tree_.Reachable(from)) return false;
  detour_tree_.PathToRoot(from, path);
  return true;
}

}  // namespace cascache::sim
