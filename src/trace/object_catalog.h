#ifndef CASCACHE_TRACE_OBJECT_CATALOG_H_
#define CASCACHE_TRACE_OBJECT_CATALOG_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "util/check.h"
#include "util/status.h"

namespace cascache::trace {

/// Identifier of a web object. Objects are numbered densely from 0 in
/// popularity-rank order when generated synthetically.
using ObjectId = uint32_t;

/// Identifier of an origin server (logical; mapped to a network node by
/// sim::Network). Each object belongs to exactly one server and server
/// object sets are disjoint (paper §2).
using ServerId = uint32_t;

/// Identifier of a client (logical; mapped to a network node by
/// sim::Network).
using ClientId = uint32_t;

/// Heavy-tailed size/placement model of a *procedural* catalog: the same
/// lognormal-body + Pareto-tail law the synthetic generator materializes,
/// described by its parameters instead of 12 bytes per object. At 10^8
/// objects a materialized catalog costs 1.2 GB in RAM and again on disk;
/// the model is 64 bytes and reproduces every per-object lookup as a pure
/// function of (seed, id). Doubles as the on-disk v3 trace model block
/// (trace_io.h), so field layout and width are part of the file format.
struct CatalogModel {
  uint64_t seed = 42;
  double lognormal_mu = 8.5;
  double lognormal_sigma = 1.3;
  double pareto_tail_prob = 0.02;
  double pareto_scale = 64.0 * 1024;
  double pareto_alpha = 1.3;
  uint64_t min_size = 100;
  uint64_t max_size = 32ull * 1024 * 1024;
};

static_assert(sizeof(CatalogModel) == 64,
              "CatalogModel is the on-disk v3 trace model block");
static_assert(std::is_trivially_copyable_v<CatalogModel>,
              "v3 model block is raw memory");

/// Range-checks a (possibly file-sourced) CatalogModel before
/// BuildProcedural, whose internal CHECKs would otherwise abort the
/// process on corrupt v3 input.
util::Status ValidateCatalogModel(const CatalogModel& model);

/// Immutable table of object metadata: size in bytes and owning origin
/// server. Shared by the workload generator, trace IO and the simulator.
///
/// Two storage modes:
///  * Materialized (default): per-object size/server vectors filled by
///    Add(); lookups are one array load.
///  * Procedural: BuildProcedural() stores a CatalogModel and a 65536-entry
///    empirical quantile table of the size law; size(id) hashes the id into
///    the table (SplitMix64 finalizer) and server(id) uses independent bits
///    of the same hash. O(1) memory in the object count, fully
///    deterministic in (model.seed, id), and the total-byte sum is
///    computed once at build. This is what lets a 10^8-object catalog fit
///    the scale-smoke RSS budget.
class ObjectCatalog {
 public:
  ObjectCatalog() = default;

  /// Appends an object; its id is the insertion index. Materialized mode
  /// only (must not be mixed with BuildProcedural on the same catalog).
  ObjectId Add(uint64_t size_bytes, ServerId server);

  /// Switches this catalog to procedural mode over `num_objects` objects
  /// spread across `num_servers` origin servers. Draws the quantile table
  /// from its own Rng(model.seed) — consuming no caller RNG state — and
  /// computes total_bytes() with one O(num_objects) pass. Requires an
  /// empty catalog, num_objects >= 1 and num_servers >= 1.
  void BuildProcedural(const CatalogModel& model, uint32_t num_objects,
                       uint32_t num_servers);

  uint32_t num_objects() const {
    return procedural_ ? proc_num_objects_
                       : static_cast<uint32_t>(sizes_.size());
  }
  uint32_t num_servers() const { return num_servers_; }

  uint64_t size(ObjectId id) const {
    if (procedural_) {
      CASCACHE_DCHECK(id < proc_num_objects_);
      return quantiles_[Hash(id) & kQuantileMask];
    }
    CASCACHE_DCHECK(id < sizes_.size());
    return sizes_[id];
  }
  ServerId server(ObjectId id) const {
    if (procedural_) {
      CASCACHE_DCHECK(id < proc_num_objects_);
      return static_cast<ServerId>((Hash(id) >> 32) % num_servers_);
    }
    CASCACHE_DCHECK(id < servers_.size());
    return servers_[id];
  }

  /// Total bytes across all objects; the paper's "relative cache size" is
  /// per-node capacity divided by this value.
  uint64_t total_bytes() const { return total_bytes_; }

  double mean_size() const {
    const uint32_t n = num_objects();
    return n == 0 ? 0.0 : static_cast<double>(total_bytes_) / n;
  }

  bool procedural() const { return procedural_; }

  /// The generating model; meaningful only in procedural mode.
  const CatalogModel& model() const { return model_; }

  /// Sorted empirical size quantiles (65536 entries) in procedural mode;
  /// empty otherwise. SummarizeTrace reads percentiles straight off it.
  const std::vector<uint64_t>& size_quantiles() const { return quantiles_; }

 private:
  static constexpr uint32_t kQuantileBits = 16;
  static constexpr uint32_t kQuantileMask = (1u << kQuantileBits) - 1;

  /// SplitMix64 finalizer over (seed, id); the low 16 bits pick the size
  /// quantile, bits 32+ pick the server — independent enough that size and
  /// placement are uncorrelated.
  uint64_t Hash(ObjectId id) const {
    uint64_t x = model_.seed ^ (uint64_t{id} + 0x9e3779b97f4a7c15ULL);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d649bb133111ebULL;
    return x ^ (x >> 31);
  }

  std::vector<uint64_t> sizes_;
  std::vector<ServerId> servers_;
  uint64_t total_bytes_ = 0;
  uint32_t num_servers_ = 0;

  bool procedural_ = false;
  uint32_t proc_num_objects_ = 0;
  CatalogModel model_;
  std::vector<uint64_t> quantiles_;  ///< Sorted; 1 << kQuantileBits entries.
};

/// A single client request. Requests are totally ordered by time in a
/// trace; the simulator replays them sequentially (trace-driven).
struct Request {
  double time = 0.0;  ///< Seconds since trace start.
  ClientId client = 0;
  ObjectId object = 0;
};

// Request doubles as the on-disk record of the v2 binary trace format
// (trace_io.h): MappedTrace reinterprets the mmap'd request region as a
// Request array, so the in-memory layout is part of the file format.
static_assert(sizeof(Request) == 16, "v2 trace records are 16 bytes");
static_assert(std::is_trivially_copyable_v<Request>,
              "v2 trace records are raw memory");
static_assert(offsetof(Request, time) == 0 &&
                  offsetof(Request, client) == 8 &&
                  offsetof(Request, object) == 12,
              "v2 trace record field layout is part of the file format");

/// A borrowed, seekable view of a time-ordered request stream. Backed
/// either by an in-RAM std::vector (Workload) or by a read-only file
/// mapping (MappedTrace); the simulator replays spans without copying.
using RequestSpan = std::span<const Request>;

/// A borrowed workload: catalog plus request span. This is what the
/// replay core consumes; Workload::View() and MappedTrace::View() both
/// produce one, so the simulator is agnostic to where requests live.
struct WorkloadView {
  const ObjectCatalog* catalog = nullptr;
  RequestSpan requests;
  /// Optional: invoked by the replay loop after each consumed chunk with
  /// the index one past the last replayed request. Mapped sources use it
  /// to advise-release consumed pages so resident memory stays O(1) in
  /// trace length. The replay never reads a request below that index
  /// again, under either scheduling policy.
  std::function<void(size_t)> on_consumed;

  double Duration() const {
    return requests.empty() ? 0.0 : requests.back().time;
  }
};

}  // namespace cascache::trace

#endif  // CASCACHE_TRACE_OBJECT_CATALOG_H_
