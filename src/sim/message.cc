#include "sim/message.h"

namespace cascache::sim {

void EmitNodeRecord(EventTrace* trace, const MessageContext& ctx,
                    TraceEventType type, topology::NodeId node, double value) {
  TraceEvent event;
  event.request_index = ctx.telemetry.request_index;
  event.time = ctx.now;
  event.type = type;
  event.node = node;
  event.level = node < 0 ? -1 : ctx.NodeLevel(node);
  event.object = ctx.object;
  event.size_bytes = ctx.size;
  event.value = value;
  trace->Emit(event);
}

void MessageContext::EmitPlacementTrace(
    topology::NodeId node_id, trace::ObjectId object_id, uint64_t bytes,
    std::span<const trace::ObjectId> evicted) const {
  TraceEvent event;
  event.request_index = telemetry.request_index;
  event.time = now;
  event.type = TraceEventType::kPlacement;
  event.node = node_id;
  event.level = NodeLevel(node_id);
  event.object = object_id;
  event.size_bytes = bytes;
  event.value = response.penalty;
  telemetry.trace->Emit(event);
  for (trace::ObjectId victim : evicted) {
    TraceEvent ev = event;
    ev.type = TraceEventType::kEviction;
    ev.object = victim;
    ev.size_bytes = 0;  // The store has already forgotten the victim size.
    ev.value = static_cast<double>(evicted.size());
    telemetry.trace->Emit(ev);
  }
}

void MessageContext::CommitStoreService(topology::NodeId node_id) {
  const double cost = contention->store_cost;
  if (cost <= 0.0) return;
  const QueueingPlane::Admission adm =
      queueing->AdmitOp(node_id, now, cost, contention->node_queue_capacity);
  // Simulator::DescendContention pre-checks BacklogDepth against the
  // capacity before letting the scheme place, so this admission cannot
  // refuse: the op only waits and serves.
  metrics->queue_wait += adm.wait;
  now += adm.wait + cost;
  RaiseQueueDepth(telemetry.node_counters, node_id, adm.depth);
  Observe(nullptr, telemetry.trace, *this, nullptr, 0,
          TraceEventType::kQueueDepth, node_id,
          static_cast<double>(adm.depth));
}

}  // namespace cascache::sim
