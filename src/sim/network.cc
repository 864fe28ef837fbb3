#include "sim/network.h"

#include <unordered_set>

#include "util/random.h"

namespace cascache::sim {

const char* ArchitectureName(Architecture arch) {
  switch (arch) {
    case Architecture::kEnRoute:
      return "en-route";
    case Architecture::kHierarchical:
      return "hierarchical";
  }
  return "unknown";
}

Network::Network(NetworkParams params, const trace::ObjectCatalog* catalog)
    : params_(std::move(params)), catalog_(catalog) {}

util::StatusOr<std::unique_ptr<Network>> Network::Build(
    const NetworkParams& params, const trace::ObjectCatalog* catalog) {
  if (catalog == nullptr) {
    return util::Status::InvalidArgument("catalog must not be null");
  }
  if (catalog->num_objects() == 0) {
    return util::Status::InvalidArgument("catalog is empty");
  }

  std::unique_ptr<Network> net(new Network(params, catalog));
  net->mean_object_size_ = catalog->mean_size();

  if (params.architecture == Architecture::kEnRoute) {
    CASCACHE_ASSIGN_OR_RETURN(topology::TiersTopology topo,
                              topology::GenerateTiers(params.tiers));
    net->graph_ = std::move(topo.graph);
    // Origin servers and clients are co-located with MAN nodes only
    // (paper §3.2); en-route caches sit at every node.
    net->client_sites_ = topo.man_ids;
    net->server_sites_ = topo.man_ids;
    net->server_link_delay_ = 0.0;
  } else {
    CASCACHE_ASSIGN_OR_RETURN(topology::TreeTopology topo,
                              topology::BuildTree(params.tree));
    net->graph_ = std::move(topo.graph);
    net->client_sites_ = topo.leaves;
    net->server_sites_ = {topo.root};
    net->server_link_delay_ = topo.server_link_delay;
    net->node_levels_ = topo.level;
    for (int level : net->node_levels_) {
      net->max_node_level_ = std::max(net->max_node_level_, level);
    }
    // Sibling sets for ICP-style cooperation: the other children of each
    // node's parent, ascending id (children occupy consecutive ids, so
    // the natural order is already the deterministic probe order).
    net->parents_ = topo.parent;
    const size_t n = static_cast<size_t>(net->graph_.num_nodes());
    std::vector<std::vector<topology::NodeId>> children(n);
    for (size_t v = 0; v < n; ++v) {
      const topology::NodeId p = net->parents_[v];
      if (p != topology::kInvalidNode) {
        children[static_cast<size_t>(p)].push_back(
            static_cast<topology::NodeId>(v));
      }
    }
    net->sibling_sets_.assign(n, {});
    for (size_t v = 0; v < n; ++v) {
      const topology::NodeId p = net->parents_[v];
      if (p == topology::kInvalidNode) continue;
      for (topology::NodeId c : children[static_cast<size_t>(p)]) {
        if (c != static_cast<topology::NodeId>(v)) {
          net->sibling_sets_[v].push_back(c);
        }
      }
      if (!net->sibling_sets_[v].empty()) net->has_siblings_ = true;
    }
  }

  net->routing_ =
      std::make_unique<topology::RoutingTable>(&net->graph_);

  // Random client and server placement, deterministic in placement_seed.
  util::Rng rng(params.placement_seed);
  const uint32_t num_servers = catalog->num_servers();
  net->server_attach_.resize(num_servers);
  for (uint32_t s = 0; s < num_servers; ++s) {
    net->server_attach_[s] = net->server_sites_[static_cast<size_t>(
        rng.NextUint64(net->server_sites_.size()))];
  }
  // Clients are assigned lazily by hashing (client populations can be
  // large and sparse); fix the per-network salt here.
  net->client_attach_.clear();

  // Precompute the distribution tree of every destination in use, so the
  // routing table is read-only (and therefore shareable across worker
  // threads) from here on.
  for (topology::NodeId dest : net->server_attach_) {
    net->routing_->Precompute(dest);
  }

  return net;
}

topology::NodeId Network::RequesterNode(ClientId client) const {
  // Deterministic hash assignment (SplitMix64 of client ^ seed).
  uint64_t z = (static_cast<uint64_t>(client) + 0x9E3779B97F4A7C15ULL) ^
               params_.placement_seed;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z = z ^ (z >> 31);
  return client_sites_[z % client_sites_.size()];
}

topology::NodeId Network::ServerAttach(ServerId server) const {
  CASCACHE_CHECK(server < server_attach_.size());
  return server_attach_[server];
}

std::vector<topology::NodeId> Network::PathToServer(topology::NodeId from,
                                                    ServerId server) const {
  return routing().Path(from, ServerAttach(server));
}

double Network::MeanClientServerHops() const {
  // Average over distinct server attach points and all client sites.
  std::unordered_set<topology::NodeId> server_nodes(server_attach_.begin(),
                                                    server_attach_.end());
  if (server_nodes.empty() || client_sites_.empty()) return 0.0;
  double total = 0.0;
  uint64_t pairs = 0;
  for (topology::NodeId server_node : server_nodes) {
    for (topology::NodeId client_node : client_sites_) {
      total += routing().Hops(client_node, server_node);
      ++pairs;
    }
  }
  return total / static_cast<double>(pairs) + server_link_hops();
}

}  // namespace cascache::sim
