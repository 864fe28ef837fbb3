#ifndef CASCACHE_SIM_QUEUEING_H_
#define CASCACHE_SIM_QUEUEING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "topology/graph.h"
#include "util/status.h"

namespace cascache::sim {

/// Contention knobs of the event-driven replay (DESIGN.md "Event-driven
/// replay & contention"). All zero by default, which keeps the simulator on the
/// analytic scheduling policy: latency is the closed-form sum of link
/// delays and every exchange is recorded as it ends. Setting any knob (or
/// `enabled`) switches Run() to the event-driven policy, where nodes have
/// per-operation service costs and bounded FIFO queues, links have finite
/// bandwidth with FIFO transmission, and arrivals can be replayed
/// open-loop on a rate ramp instead of at their trace timestamps.
struct ContentionParams {
  /// Forces the event-driven replay even with all costs at zero (used by
  /// the analytic-equivalence tests; a zero-cost event-driven run must
  /// reproduce the analytic results exactly).
  bool enabled = false;
  /// Node service seconds per ascent cache lookup.
  double lookup_cost = 0.0;
  /// Node service seconds per accepted placement (store write).
  double store_cost = 0.0;
  /// Node service seconds per d-cache probe, charged with the lookup at
  /// every ascent hop of a scheme that runs a d-cache.
  double dcache_cost = 0.0;
  /// Bounded node queue: maximum operations waiting ahead of a new one
  /// before the node sheds it. 0 = unbounded (no shedding).
  uint32_t node_queue_capacity = 0;
  /// Link bandwidth in bytes/second; the descending object body occupies
  /// each link for size/bandwidth seconds (FIFO). 0 = infinite.
  double link_bandwidth = 0.0;
  /// Open-loop arrival process: requests arrive at this rate (requests
  /// per second) regardless of completion, replacing trace timestamps.
  /// 0 = arrive at trace timestamps.
  double arrival_rate = 0.0;
  /// Fractional growth of the arrival rate per simulated second:
  /// rate(t) = arrival_rate * (1 + arrival_ramp * t). Lets one run sweep
  /// through an overload transition. Requires arrival_rate > 0.
  double arrival_ramp = 0.0;
  /// Diurnal modulation of the open-loop arrival rate: the instantaneous
  /// rate is further multiplied by
  /// (1 + arrival_diurnal_amplitude * sin(2 pi t / arrival_diurnal_period)),
  /// so a day-night load cycle drives the contention plane. Amplitude in
  /// [0, 1); requires arrival_rate > 0. Composes with arrival_ramp.
  double arrival_diurnal_amplitude = 0.0;
  /// Period of the diurnal cycle in simulated seconds (default one day).
  double arrival_diurnal_period = 86400.0;

  /// Whether Run() should use the event-driven scheduling policy.
  bool active() const {
    return enabled || lookup_cost > 0.0 || store_cost > 0.0 ||
           dcache_cost > 0.0 || node_queue_capacity > 0 ||
           link_bandwidth > 0.0 || arrival_rate > 0.0;
  }

  util::Status Validate() const;
};

/// Busy-until resource timelines for the event-driven replay: one FIFO
/// service queue per cache node and one per direction of each link
/// (Network link ids: graph links and sibling legs alike). The model is
/// deliberately timeline-based rather than per-operation events — each
/// resource remembers only the time it drains (`busy_until`), an admitted
/// operation waits `busy_until - now`, and the backlog *depth* is the
/// wait divided by this operation's service cost. That keeps the queueing
/// state O(nodes + links) and the per-operation cost O(1) while
/// reproducing FIFO waiting times exactly for uniform service costs
/// (M/D/1-style queues).
///
/// Single-threaded like the Simulator that owns it; parallel sweep
/// workers each own their plane.
class QueueingPlane {
 public:
  /// Timelines for nodes [0, num_nodes) and links [0, num_links).
  QueueingPlane(int num_nodes, size_t num_links);

  /// Forgets all backlog (a fresh Run()).
  void Reset();

  struct Admission {
    /// Seconds the operation waits behind the node's backlog (0 when
    /// shed: a refused operation does not wait).
    double wait = 0.0;
    /// Operations ahead of this one at admission time.
    uint32_t depth = 0;
    /// The queue was at capacity and the operation was refused.
    bool shed = false;
  };

  /// Admits an operation of service cost `cost` seconds at node `v`, or
  /// sheds it when `capacity` > 0 and the backlog is at least `capacity`
  /// operations deep. Zero-cost operations are free: no wait, no state.
  Admission AdmitOp(topology::NodeId v, double now, double cost,
                    uint32_t capacity);

  /// Backlog depth AdmitOp(v, now, cost, ...) would observe, without
  /// committing any state: the operations ahead of a new cost-`cost` op
  /// at node `v`. The descent pre-checks store admission with this
  /// (depth >= capacity would shed) so the scheme can be told the
  /// decision was dropped before it acts.
  uint32_t BacklogDepth(topology::NodeId v, double now, double cost) const;

  struct Transfer {
    double wait = 0.0;  ///< Seconds queued behind earlier transmissions.
    double tx = 0.0;    ///< Transmission seconds (bytes / bandwidth).
  };

  /// Occupies `link`, which joins `from` and `to`, in the direction
  /// from->to with a `bytes` transmission at `bandwidth` bytes/second,
  /// FIFO behind earlier transmissions in that direction. A non-positive
  /// bandwidth means an infinite link: free, no state.
  Transfer TransferOn(topology::LinkId link, topology::NodeId from,
                      topology::NodeId to, double now, uint64_t bytes,
                      double bandwidth);

  double node_busy_until(topology::NodeId v) const {
    return node_busy_[static_cast<size_t>(v)];
  }

 private:
  std::vector<double> node_busy_;
  /// Directed-link timelines: 2 * link, plus 1 for the direction from
  /// the higher node id to the lower.
  std::vector<double> link_busy_;
};

}  // namespace cascache::sim

#endif  // CASCACHE_SIM_QUEUEING_H_
