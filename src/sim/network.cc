#include "sim/network.h"

#include "topology/shortest_path.h"
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
    net->num_links_ = net->graph_.num_edges();
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
    net->sibling_links_.assign(n, {});
    // Sibling-leg ids follow the graph's links, one per unordered pair of
    // a parent's children: the pair of children a < b of a k-child parent
    // is number a*k - a*(a+1)/2 + (b-a-1) past the parent's first id.
    size_t first_link = net->graph_.num_edges();
    for (const std::vector<topology::NodeId>& kids : children) {
      const size_t k = kids.size();
      for (size_t a = 0; a < k; ++a) {
        for (size_t b = 0; b < k; ++b) {
          if (b == a) continue;
          const size_t lo = std::min(a, b);
          const size_t hi = std::max(a, b);
          const size_t v = static_cast<size_t>(kids[a]);
          net->sibling_sets_[v].push_back(kids[b]);
          net->sibling_links_[v].push_back(static_cast<LinkId>(
              first_link + lo * k - lo * (lo + 1) / 2 + (hi - lo - 1)));
        }
      }
      if (k > 1) net->has_siblings_ = true;
      first_link += k * (k - 1) / 2;
    }
    net->num_links_ = first_link;
  }

  // Random client and server placement, deterministic in placement_seed.
  util::Rng rng(params.placement_seed);
  const uint32_t num_servers = catalog->num_servers();
  net->server_attach_.resize(num_servers);
  for (uint32_t s = 0; s < num_servers; ++s) {
    net->server_attach_[s] = net->server_sites_[static_cast<size_t>(
        rng.NextUint64(net->server_sites_.size()))];
  }

  // Route table: one column per distinct server attach node (in first-use
  // order), one row per client site. Every request's route is one of
  // these, so the replay never walks a distribution tree.
  const size_t n = static_cast<size_t>(net->graph_.num_nodes());
  std::vector<int32_t> col_of(n, -1);
  std::vector<topology::NodeId> columns;
  net->server_col_.resize(num_servers);
  for (uint32_t s = 0; s < num_servers; ++s) {
    int32_t& col = col_of[static_cast<size_t>(net->server_attach_[s])];
    if (col < 0) {
      col = static_cast<int32_t>(columns.size());
      columns.push_back(net->server_attach_[s]);
    }
    net->server_col_[s] = static_cast<uint32_t>(col);
  }
  // One distribution tree per column, all built before any route so the
  // route vectors are allocated together, row by row.
  std::vector<topology::ShortestPathTree> trees;
  trees.reserve(columns.size());
  for (topology::NodeId root : columns) {
    trees.push_back(topology::BuildShortestPathTree(net->graph_, root));
  }
  net->route_cols_ = columns.size();
  net->routes_.resize(net->client_sites_.size() * columns.size());
  net->site_row_.assign(n, -1);
  for (size_t row = 0; row < net->client_sites_.size(); ++row) {
    const topology::NodeId site = net->client_sites_[row];
    net->site_row_[static_cast<size_t>(site)] = static_cast<int32_t>(row);
    for (size_t col = 0; col < columns.size(); ++col) {
      Route& route = net->routes_[row * columns.size() + col];
      route.nodes = trees[col].PathToRoot(site);
      route.FillDelays(net->graph_);
    }
  }

  return net;
}

topology::NodeId Network::ServerAttach(ServerId server) const {
  CASCACHE_CHECK(server < server_attach_.size());
  return server_attach_[server];
}

void Route::FillDelays(const topology::Graph& graph) {
  delays.clear();
  links.clear();
  delay_prefix.clear();
  double acc = 0.0;
  delay_prefix.push_back(acc);
  for (size_t i = 0; i + 1 < nodes.size(); ++i) {
    const topology::Edge& link = graph.Link(nodes[i], nodes[i + 1]);
    delays.push_back(link.delay);
    links.push_back(link.id);
    acc += delays.back();
    delay_prefix.push_back(acc);
  }
}

double Network::MeanClientServerHops() const {
  // Average over every (client site, in-use server site) pair: exactly
  // the route table.
  if (routes_.empty()) return 0.0;
  double total = 0.0;
  for (const Route& route : routes_) {
    total += static_cast<double>(route.nodes.size() - 1);
  }
  return total / static_cast<double>(routes_.size()) + server_link_hops();
}

}  // namespace cascache::sim
