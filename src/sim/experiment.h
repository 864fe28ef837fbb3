#ifndef CASCACHE_SIM_EXPERIMENT_H_
#define CASCACHE_SIM_EXPERIMENT_H_

#include <string>
#include <vector>

#include "schemes/scheme.h"
#include "sim/simulator.h"
#include "trace/mapped_trace.h"
#include "trace/synthetic.h"
#include "util/status.h"

namespace cascache::sim {

/// One full parameter sweep: an architecture, a workload, a set of
/// relative cache sizes, and a set of schemes. This is the engine behind
/// every sweep of `bench/claims`: it builds the topology and workload once
/// and runs each (cache size, scheme) cell on freshly reset caches, as the
/// paper's experiments do.
struct ExperimentConfig {
  NetworkParams network;
  trace::WorkloadParams workload;
  SimOptions sim;
  /// Relative cache sizes: per-node capacity / total bytes of all objects
  /// (the paper sweeps 0.1% .. 10%, log scale).
  std::vector<double> cache_fractions = {0.001, 0.003, 0.01, 0.03, 0.10};
  std::vector<schemes::SchemeSpec> schemes;
  /// Worker threads for RunAll. Every cell runs on its own cache plane;
  /// 1 runs the cells one after another, N > 1 concurrently; 0 (default)
  /// resolves via the CASCACHE_JOBS environment variable, falling back to
  /// hardware_concurrency. Results are bit-identical for every value.
  int jobs = 0;
  /// Only meaningful with CreateFromTrace over a v2 or v3 trace (a v1
  /// trace's records are an owned copy, so there is nothing to release):
  /// advise-release consumed request pages during replay so resident
  /// memory stays O(1) in trace length. Forces sequential cells (jobs
  /// = 1) — concurrent cells at different trace offsets would refault
  /// each other's dropped pages. Results are bit-identical either way.
  bool release_trace_pages = false;
};

/// Number of workers RunAll would use for `requested` (the ExperimentConfig
/// jobs field): `requested` itself if >= 1, else CASCACHE_JOBS, else
/// hardware_concurrency. Forced values above hardware_concurrency are
/// clamped to it (replay workers are CPU-bound; oversubscription only
/// churns the scheduler) with a stderr notice. A CASCACHE_JOBS that is
/// not an integer >= 1 is an InvalidArgument. Exposed so benches can
/// report the value.
util::StatusOr<int> ResolveJobs(int requested);

/// Per-node slice of one cell's replay (observability layer): the
/// counters one cache accumulated over the measured phase, plus where in
/// the tree it sits.
struct NodeUsage {
  topology::NodeId node = 0;
  /// Tree depth (0 = leaf level under the hierarchical architecture; all
  /// nodes are level 0 under en-route).
  int level = 0;
  NodeCounters counters;
};

/// One (scheme, cache size) cell of a sweep.
struct RunResult {
  std::string scheme;
  double cache_fraction = 0.0;
  uint64_t capacity_bytes = 0;
  MetricsSummary metrics;
  /// One entry per network node, in NodeId order.
  std::vector<NodeUsage> per_node;
  /// Ring snapshot of the cell's event trace, oldest first (empty unless
  /// the sweep ran with tracing enabled).
  std::vector<TraceEvent> trace_events;
  /// Wall-clock seconds this cell's simulation took (replay only; not
  /// part of the determinism contract).
  double wall_seconds = 0.0;
  /// Requests replayed per wall-clock second (warm-up included).
  double requests_per_sec = 0.0;
  /// Phase breakdown of the replay (observability layer).
  double warmup_seconds = 0.0;
  double measure_seconds = 0.0;
};

/// Runs a configured sweep. Expensive state (topology, routing, workload)
/// is shared across cells.
class ExperimentRunner {
 public:
  /// Generates the workload and builds the network; fails on bad config.
  static util::StatusOr<std::unique_ptr<ExperimentRunner>> Create(
      const ExperimentConfig& config);

  /// Builds the runner over a saved binary trace instead of generating
  /// the synthetic workload (config.workload is ignored except as
  /// provenance). The trace is opened through MappedTrace and validated
  /// record by record before replay, so a corrupt file fails with
  /// InvalidArgument. A v2/v3 trace is one shared read-only mapping
  /// replayed in place by every parallel cell; a v1 trace's records are
  /// copied out of its unaligned request region at open.
  static util::StatusOr<std::unique_ptr<ExperimentRunner>> CreateFromTrace(
      const ExperimentConfig& config, const std::string& trace_path);

  ExperimentRunner(const ExperimentRunner&) = delete;
  ExperimentRunner& operator=(const ExperimentRunner&) = delete;

  /// Runs every (cache size, scheme) cell; results are ordered by cache
  /// size then scheme (the order given in the config) regardless of
  /// completion order. Each cell runs on its own cache plane over the
  /// shared immutable network, on config.jobs workers; the results are
  /// bit-identical for every worker count.
  util::StatusOr<std::vector<RunResult>> RunAll();

  /// Runs a single cell against the shared workload/network, on a fresh
  /// cache plane. Thread-safe: RunAll's workers call it concurrently.
  util::StatusOr<RunResult> RunOne(const schemes::SchemeSpec& spec,
                                   double cache_fraction) const;

  /// The generated workload. Empty under CreateFromTrace (the requests
  /// live in the MappedTrace); use view() for replay-agnostic access.
  const trace::Workload& workload() const { return workload_; }
  /// Borrowed catalog + request span, regardless of backing storage
  /// (generated vector, or the MappedTrace: a shared v2/v3 mapping or a
  /// v1 trace's owned copy).
  trace::WorkloadView view() const {
    return mapped_ != nullptr ? mapped_->View() : workload_.View();
  }
  /// Non-null iff this runner was built by CreateFromTrace; its
  /// version() tells the format.
  const trace::MappedTrace* mapped_trace() const { return mapped_.get(); }
  const Network* network() const { return network_.get(); }
  const ExperimentConfig& config() const { return config_; }

 private:
  explicit ExperimentRunner(ExperimentConfig config);

  /// The view RunOne hands to Simulator::Run: view(), plus the page-
  /// release hook when config_.release_trace_pages applies.
  trace::WorkloadView ReplayView() const;

  ExperimentConfig config_;
  trace::Workload workload_;
  std::unique_ptr<trace::MappedTrace> mapped_;
  std::unique_ptr<Network> network_;
};

/// Writes sweep results as CSV (one row per cell, all metrics as
/// columns) for external plotting; `bench/claims` writes one per sweep
/// when CASCACHE_RESULTS_CSV is set.
util::Status WriteResultsCsv(const std::vector<RunResult>& results,
                             const std::string& path);

/// Writes the per-node counter breakdown of each cell: one `scope=node`
/// row per cache, followed by one `scope=level` rollup row per tree
/// depth (node = -1). Totals reconcile exactly with the aggregate CSV:
/// sum(hits) == requests * hit_ratio, sum(bytes_cached) ==
/// requests * avg_write_bytes, and so on (see docs/METRICS.md).
util::Status WritePerNodeCsv(const std::vector<RunResult>& results,
                             const std::string& path);

/// Writes every cell's trace snapshot as JSONL, each record annotated
/// with the cell's scheme and cache fraction.
util::Status WriteTraceJsonl(const std::vector<RunResult>& results,
                             const std::string& path);

}  // namespace cascache::sim

#endif  // CASCACHE_SIM_EXPERIMENT_H_
