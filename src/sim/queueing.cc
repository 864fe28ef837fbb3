#include "sim/queueing.h"

namespace cascache::sim {

util::Status ContentionParams::Validate() const {
  if (lookup_cost < 0.0 || store_cost < 0.0 || dcache_cost < 0.0) {
    return util::Status::InvalidArgument(
        "contention service costs must be >= 0");
  }
  if (link_bandwidth < 0.0) {
    return util::Status::InvalidArgument("link bandwidth must be >= 0");
  }
  if (arrival_rate < 0.0) {
    return util::Status::InvalidArgument("arrival rate must be >= 0");
  }
  if (arrival_ramp != 0.0 && arrival_rate <= 0.0) {
    return util::Status::InvalidArgument(
        "arrival ramp requires an open-loop arrival rate > 0");
  }
  if (arrival_ramp < 0.0) {
    return util::Status::InvalidArgument("arrival ramp must be >= 0");
  }
  if (arrival_diurnal_amplitude < 0.0 || arrival_diurnal_amplitude >= 1.0) {
    return util::Status::InvalidArgument(
        "arrival diurnal amplitude must be in [0,1)");
  }
  if (arrival_diurnal_amplitude > 0.0) {
    if (arrival_rate <= 0.0) {
      return util::Status::InvalidArgument(
          "arrival diurnal cycle requires an open-loop arrival rate > 0");
    }
    if (arrival_diurnal_period <= 0.0) {
      return util::Status::InvalidArgument(
          "arrival diurnal period must be > 0");
    }
  }
  return util::Status::Ok();
}

QueueingPlane::QueueingPlane(int num_nodes, size_t num_links)
    : node_busy_(static_cast<size_t>(num_nodes), 0.0),
      link_busy_(2 * num_links, 0.0) {}

void QueueingPlane::Reset() {
  node_busy_.assign(node_busy_.size(), 0.0);
  link_busy_.assign(link_busy_.size(), 0.0);
}

QueueingPlane::Admission QueueingPlane::AdmitOp(topology::NodeId v, double now,
                                                double cost,
                                                uint32_t capacity) {
  Admission a;
  if (cost <= 0.0) return a;
  double& busy = node_busy_[static_cast<size_t>(v)];
  const double backlog = busy - now;
  if (backlog > 0.0) {
    a.wait = backlog;
    a.depth = static_cast<uint32_t>(backlog / cost);
  }
  if (capacity != 0 && a.depth >= capacity) {
    a.shed = true;
    a.wait = 0.0;
    return a;
  }
  busy = (backlog > 0.0 ? busy : now) + cost;
  return a;
}

uint32_t QueueingPlane::BacklogDepth(topology::NodeId v, double now,
                                     double cost) const {
  if (cost <= 0.0) return 0;
  const double backlog = node_busy_[static_cast<size_t>(v)] - now;
  if (backlog <= 0.0) return 0;
  return static_cast<uint32_t>(backlog / cost);
}

QueueingPlane::Transfer QueueingPlane::TransferOn(topology::LinkId link,
                                                  topology::NodeId from,
                                                  topology::NodeId to,
                                                  double now, uint64_t bytes,
                                                  double bandwidth) {
  Transfer t;
  if (bandwidth <= 0.0) return t;
  t.tx = static_cast<double>(bytes) / bandwidth;
  double& busy =
      link_busy_[2 * static_cast<size_t>(link) + (from > to ? 1 : 0)];
  if (busy > now) t.wait = busy - now;
  busy = now + t.wait + t.tx;
  return t;
}

}  // namespace cascache::sim
