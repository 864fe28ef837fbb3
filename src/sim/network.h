#ifndef CASCACHE_SIM_NETWORK_H_
#define CASCACHE_SIM_NETWORK_H_

#include <memory>
#include <vector>

#include "sim/cache_set.h"
#include "sim/node.h"
#include "topology/tiers.h"
#include "topology/tree.h"
#include "trace/object_catalog.h"
#include "util/status.h"

namespace cascache::sim {

using trace::ClientId;
using trace::ServerId;
using topology::LinkId;

enum class Architecture {
  kEnRoute,       ///< Tiers WAN/MAN topology, caches at every router.
  kHierarchical,  ///< Full O-ary proxy tree, servers behind the root.
};

const char* ArchitectureName(Architecture arch);

struct NetworkParams {
  Architecture architecture = Architecture::kEnRoute;
  topology::TiersParams tiers;
  topology::TreeParams tree;
  /// Seed for client/server-to-node assignment (independent of topology
  /// and workload seeds, as in the paper's random allocations).
  uint64_t placement_seed = 7;
};

/// One client→server route (paper §2, §3.2): the nodes from a client site
/// to a server attach node along the server-rooted distribution tree,
/// inclusive, with the per-link delays. Delays are request-invariant; link
/// *costs* depend on the object size and stay per request.
struct Route {
  std::vector<topology::NodeId> nodes;
  std::vector<double> delays;  ///< nodes.size() - 1 entries.
  /// Running sums of `delays`, each entry one addition on the previous —
  /// the order every latency is summed in: delay_prefix[i] == delays[0] +
  /// ... + delays[i-1]; nodes.size() entries, delay_prefix[0] == 0.
  std::vector<double> delay_prefix;
  /// links[i] joins nodes[i] and nodes[i + 1] (Network link ids);
  /// nodes.size() - 1 entries.
  std::vector<LinkId> links;

  /// Recomputes `delays`, `links` and `delay_prefix` for `nodes` over
  /// `graph` (reusing their storage).
  void FillDelays(const topology::Graph& graph);
};

/// The simulated content-distribution network. After Build() the Network
/// is immutable — graph, the route of every (client site, in-use server
/// site) pair, client/server attach points, catalog — and any number of
/// threads may query it concurrently. It holds no cache state: every run
/// takes its own mutable plane from MakeCacheSet() and hands it to the
/// Simulator, so concurrent runs over one Network never share a cache.
class Network {
 public:
  /// Builds the network for a catalog's servers. The catalog outlives the
  /// network.
  static util::StatusOr<std::unique_ptr<Network>> Build(
      const NetworkParams& params, const trace::ObjectCatalog* catalog);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const topology::Graph& graph() const { return graph_; }
  Architecture architecture() const { return params_.architecture; }
  const trace::ObjectCatalog& catalog() const { return *catalog_; }
  double mean_object_size() const { return mean_object_size_; }

  /// Node where a client's requests enter the cache network (its MAN node
  /// under en-route, its leaf cache under hierarchical). The client-to-
  /// first-cache cost is excluded from the model per paper §2. A
  /// deterministic hash assignment (SplitMix64 of client ^ seed), cheap
  /// enough for the decode loop to call per request.
  topology::NodeId RequesterNode(ClientId client) const {
    uint64_t z = (static_cast<uint64_t>(client) + 0x9E3779B97F4A7C15ULL) ^
                 params_.placement_seed;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z = z ^ (z >> 31);
    return client_sites_[z % client_sites_.size()];
  }

  /// Node a server attaches to (a MAN node under en-route; the root under
  /// hierarchical).
  topology::NodeId ServerAttach(ServerId server) const;

  /// Delay of the virtual link between a server's attach node and the
  /// server itself: 0 under en-route (co-located), g^(depth-1)*d under
  /// hierarchical.
  double server_link_delay() const { return server_link_delay_; }
  int server_link_hops() const { return server_link_delay_ > 0.0 ? 1 : 0; }

  /// The route from client site `requester` (a RequesterNode() value) to
  /// `server`'s attach node, precomputed at Build time: one per pair of
  /// client site and in-use server site, so every request of a run
  /// shares its pair's route.
  const Route& ClientRoute(topology::NodeId requester, ServerId server) const {
    const int32_t row = site_row_[static_cast<size_t>(requester)];
    CASCACHE_DCHECK(row >= 0);
    return routes_[static_cast<size_t>(row) * route_cols_ +
                   server_col_[server]];
  }

  /// Every precomputed route, client-site major.
  const std::vector<Route>& routes() const { return routes_; }

  double LinkDelay(topology::NodeId u, topology::NodeId v) const {
    return graph_.EdgeDelay(u, v);
  }

  /// A fresh, independently mutable cache plane over this topology: one
  /// per simulation run.
  CacheSet MakeCacheSet() const { return CacheSet(graph_.num_nodes()); }

  /// Cache level of a node: tree level under the hierarchical
  /// architecture (0 = leaf, depth-1 = root); 0 for every node under
  /// en-route.
  int NodeLevel(topology::NodeId v) const {
    CASCACHE_CHECK(graph_.IsValidNode(v));
    return node_levels_.empty() ? 0 : node_levels_[static_cast<size_t>(v)];
  }

  /// Highest node level (0 under en-route).
  int MaxNodeLevel() const { return max_node_level_; }

  /// Tree parent of a node under the hierarchical architecture;
  /// kInvalidNode for the root and for every node under en-route.
  topology::NodeId Parent(topology::NodeId v) const {
    CASCACHE_CHECK(graph_.IsValidNode(v));
    return parents_.empty() ? topology::kInvalidNode
                            : parents_[static_cast<size_t>(v)];
  }

  /// Sibling set of a node (other children of its tree parent, ascending
  /// id — the deterministic ICP probe order). Empty under en-route, at
  /// the root, and for only children. Thread-safe: built at Build time.
  const std::vector<topology::NodeId>& Siblings(topology::NodeId v) const {
    CASCACHE_CHECK(graph_.IsValidNode(v));
    if (sibling_sets_.empty()) return empty_siblings_;
    return sibling_sets_[static_cast<size_t>(v)];
  }

  /// Link ids of the sibling legs from `v`, parallel to Siblings(v): the
  /// pair {v, Siblings(v)[k]} is SiblingLinks(v)[k], the same id seen
  /// from either end.
  const std::vector<LinkId>& SiblingLinks(topology::NodeId v) const {
    CASCACHE_CHECK(graph_.IsValidNode(v));
    if (sibling_links_.empty()) return empty_sibling_links_;
    return sibling_links_[static_cast<size_t>(v)];
  }

  /// Size of the dense link id space that per-link state is indexed by:
  /// the graph's links (topology::Edge::id, carried per hop in
  /// Route::links) and then one id per unordered sibling pair, whose
  /// sibling leg has no graph link of its own.
  size_t num_links() const { return num_links_; }

  /// Whether any node has a non-empty sibling set (hierarchical trees
  /// with branching > 1); sibling cooperation silently disables itself
  /// otherwise.
  bool HasSiblings() const { return has_siblings_; }

  /// Total number of cache nodes.
  int num_nodes() const { return graph_.num_nodes(); }

  /// Mean hop count of client-to-server routing paths, averaged over all
  /// (client-attach, server-attach) pairs in use (Table 1's "average
  /// length of the routing path").
  double MeanClientServerHops() const;

 private:
  Network(NetworkParams params, const trace::ObjectCatalog* catalog);

  NetworkParams params_;
  const trace::ObjectCatalog* catalog_;
  topology::Graph graph_{0};
  /// Candidate attach nodes for clients and servers.
  std::vector<topology::NodeId> client_sites_;
  std::vector<topology::NodeId> server_sites_;
  /// server -> attach node (assigned randomly; clients are hashed onto
  /// client_sites_ by RequesterNode).
  std::vector<topology::NodeId> server_attach_;
  /// Route table: routes_[site_row_[requester] * route_cols_ +
  /// server_col_[server]]. site_row_ is -1 off the client sites;
  /// server_col_ numbers the distinct server attach nodes.
  std::vector<Route> routes_;
  std::vector<int32_t> site_row_;
  std::vector<uint32_t> server_col_;
  size_t route_cols_ = 0;
  double server_link_delay_ = 0.0;
  double mean_object_size_ = 0.0;
  /// Per-node tree level (hierarchical only; empty for en-route).
  std::vector<int> node_levels_;
  int max_node_level_ = 0;
  /// Per-node tree parent (hierarchical only; empty for en-route).
  std::vector<topology::NodeId> parents_;
  /// Per-node sibling sets, ascending id (hierarchical only).
  std::vector<std::vector<topology::NodeId>> sibling_sets_;
  std::vector<topology::NodeId> empty_siblings_;
  /// Per-node sibling-leg link ids, parallel to sibling_sets_.
  std::vector<std::vector<LinkId>> sibling_links_;
  std::vector<LinkId> empty_sibling_links_;
  size_t num_links_ = 0;
  bool has_siblings_ = false;
};

}  // namespace cascache::sim

#endif  // CASCACHE_SIM_NETWORK_H_
