#include "sim/experiment.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "util/csv.h"
#include "util/flags.h"
#include "util/thread_pool.h"

namespace cascache::sim {

ExperimentRunner::ExperimentRunner(ExperimentConfig config)
    : config_(std::move(config)) {}

namespace {

util::Status ValidateSweepConfig(const ExperimentConfig& config) {
  if (config.schemes.empty()) {
    return util::Status::InvalidArgument("no schemes configured");
  }
  if (config.cache_fractions.empty()) {
    return util::Status::InvalidArgument("no cache sizes configured");
  }
  for (double f : config.cache_fractions) {
    if (f <= 0.0 || f > 1.0) {
      return util::Status::InvalidArgument("cache fraction out of (0, 1]");
    }
  }
  return util::Status::Ok();
}

}  // namespace

util::StatusOr<std::unique_ptr<ExperimentRunner>> ExperimentRunner::Create(
    const ExperimentConfig& config) {
  CASCACHE_RETURN_IF_ERROR(ValidateSweepConfig(config));
  std::unique_ptr<ExperimentRunner> runner(new ExperimentRunner(config));
  CASCACHE_ASSIGN_OR_RETURN(runner->workload_,
                            trace::GenerateWorkload(config.workload));
  CASCACHE_ASSIGN_OR_RETURN(
      runner->network_,
      Network::Build(config.network, &runner->workload_.catalog));
  return runner;
}

util::StatusOr<std::unique_ptr<ExperimentRunner>>
ExperimentRunner::CreateFromTrace(const ExperimentConfig& config,
                                  const std::string& trace_path) {
  CASCACHE_RETURN_IF_ERROR(ValidateSweepConfig(config));
  std::unique_ptr<ExperimentRunner> runner(new ExperimentRunner(config));
  CASCACHE_ASSIGN_OR_RETURN(runner->mapped_,
                            trace::MappedTrace::Open(trace_path));
  CASCACHE_RETURN_IF_ERROR(runner->mapped_->Validate());
  CASCACHE_ASSIGN_OR_RETURN(
      runner->network_,
      Network::Build(config.network, &runner->mapped_->catalog()));
  return runner;
}

trace::WorkloadView ExperimentRunner::ReplayView() const {
  if (mapped_ != nullptr && config_.release_trace_pages) {
    return mapped_->StreamingView();
  }
  return view();
}

util::StatusOr<int> ResolveJobs(int requested) {
  const unsigned hw_raw = std::thread::hardware_concurrency();
  const int hw = hw_raw > 0 ? static_cast<int>(hw_raw) : 1;
  int jobs = 0;
  const char* source = nullptr;
  if (requested >= 1) {
    jobs = requested;
    source = "jobs";
  } else if (const char* env = std::getenv("CASCACHE_JOBS"); env != nullptr) {
    if (!util::ParseValue(env, &jobs).ok() || jobs < 1) {
      return util::Status::InvalidArgument(
          "CASCACHE_JOBS must be an integer >= 1, got '" + std::string(env) +
          "'");
    }
    source = "CASCACHE_JOBS";
  }
  if (jobs == 0) return hw;  // Default: one worker per hardware thread.
  // Oversubscribing replay workers only adds scheduler churn (each cell is
  // CPU-bound); clamp forced values to the hardware and say so.
  if (jobs > hw) {
    std::fprintf(stderr,
                 "cascache: %s=%d exceeds hardware_concurrency=%d; "
                 "clamping to %d\n",
                 source, jobs, hw, hw);
    return hw;
  }
  return jobs;
}

util::StatusOr<RunResult> ExperimentRunner::RunOne(
    const schemes::SchemeSpec& spec, double cache_fraction) const {
  const trace::WorkloadView replay = ReplayView();
  schemes::SchemeSpec effective = spec;
  if (effective.kind == schemes::SchemeKind::kStatic &&
      effective.static_freeze_requests == 0) {
    // Default STATIC's learning phase to the warm-up period so frozen
    // contents are in place exactly when measurement starts.
    effective.static_freeze_requests = std::max<uint64_t>(
        1, static_cast<uint64_t>(config_.sim.warmup_fraction *
                                 static_cast<double>(
                                     replay.requests.size())));
  }
  CASCACHE_ASSIGN_OR_RETURN(std::unique_ptr<schemes::CachingScheme> scheme,
                            schemes::MakeScheme(effective));
  const uint64_t capacity = std::max<uint64_t>(
      1, static_cast<uint64_t>(cache_fraction *
                               static_cast<double>(
                                   replay.catalog->total_bytes())));
  CacheSet caches = network_->MakeCacheSet();
  Simulator simulator(network_.get(), &caches, scheme.get(), config_.sim);
  const auto start = std::chrono::steady_clock::now();
  CASCACHE_RETURN_IF_ERROR(simulator.Run(replay, capacity));
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  RunResult result;
  result.scheme = spec.Label();
  result.cache_fraction = cache_fraction;
  result.capacity_bytes = capacity;
  result.metrics = simulator.metrics().Summary();
  result.wall_seconds = wall;
  result.requests_per_sec =
      wall > 0.0 ? static_cast<double>(replay.requests.size()) / wall : 0.0;
  result.warmup_seconds = simulator.phase_times().warmup_seconds;
  result.measure_seconds = simulator.phase_times().measure_seconds;
  const std::vector<NodeCounters>& counters =
      simulator.metrics().node_counters();
  result.per_node.reserve(counters.size());
  for (topology::NodeId v = 0; v < network_->num_nodes(); ++v) {
    NodeUsage usage;
    usage.node = v;
    usage.level = network_->NodeLevel(v);
    usage.counters = counters[static_cast<size_t>(v)];
    result.per_node.push_back(usage);
  }
  if (const EventTrace* trace = simulator.event_trace(); trace != nullptr) {
    result.trace_events = trace->Records();
  }
  return result;
}

util::StatusOr<std::vector<RunResult>> ExperimentRunner::RunAll() {
  // Flatten the sweep into cells in the documented result order: cache
  // size first, then scheme (the order given in the config).
  struct Cell {
    const schemes::SchemeSpec* spec;
    double fraction;
  };
  std::vector<Cell> cells;
  cells.reserve(config_.cache_fractions.size() * config_.schemes.size());
  for (double fraction : config_.cache_fractions) {
    for (const schemes::SchemeSpec& spec : config_.schemes) {
      cells.push_back({&spec, fraction});
    }
  }

  CASCACHE_ASSIGN_OR_RETURN(const int resolved, ResolveJobs(config_.jobs));
  int jobs = std::min<int>(
      resolved, static_cast<int>(std::max<size_t>(1, cells.size())));
  if (mapped_ != nullptr && config_.release_trace_pages && jobs > 1) {
    // Page release assumes one sequential consumer of the mapping;
    // concurrent cells at different offsets would refault each other's
    // dropped pages.
    std::fprintf(stderr,
                 "cascache: release_trace_pages forces jobs=1 (was %d)\n",
                 jobs);
    jobs = 1;
  }
  // Every cell runs on its own cache plane over the shared immutable
  // network. Each task writes only results[i]/statuses[i], so result
  // order is the cell order by construction, independent of completion
  // order. The pool is FIFO, so a single worker runs the cells in order,
  // as page release needs.
  std::vector<RunResult> results(cells.size());
  std::vector<util::Status> statuses(cells.size(), util::Status::Ok());
  {
    util::ThreadPool pool(jobs);
    for (size_t i = 0; i < cells.size(); ++i) {
      pool.Submit([this, i, &cells, &results, &statuses] {
        auto result_or = RunOne(*cells[i].spec, cells[i].fraction);
        if (result_or.ok()) {
          results[i] = std::move(result_or).value();
        } else {
          statuses[i] = result_or.status();
        }
      });
    }
    pool.Wait();
  }
  // Report the first failure in cell order (deterministic for any jobs).
  for (const util::Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return results;
}

util::Status WriteResultsCsv(const std::vector<RunResult>& results,
                             const std::string& path) {
  util::CsvWriter csv(path);
  csv.WriteLine(
      "scheme,cache_fraction,capacity_bytes,requests,avg_latency,"
      "avg_response_ratio,byte_hit_ratio,hit_ratio,avg_traffic_byte_hops,"
      "avg_hops,avg_load_bytes,read_load_share,stale_hit_ratio,"
      "avg_request_msg_bytes,avg_response_msg_bytes,avg_message_bytes,"
      "wall_seconds,requests_per_sec,warmup_seconds,measure_seconds,"
      "retries,failed_requests,reroutes,crashes_applied,"
      "degraded_decisions,served_requests,shed_requests,shed_placements,"
      "avg_queue_wait,max_queue_depth,"
      // Two-tier / sibling / degraded-node columns (appended at the end
      // so downstream parsers keyed on column position stay valid).
      "ram_hits,disk_hits,promotions,demotions,sibling_probes,"
      "sibling_hits,disk_degraded");
  for (const RunResult& r : results) {
    const MetricsSummary& m = r.metrics;
    // Peak queue depth is a gauge, reported as the max over the per-node
    // gauges (0 under the analytic policy: no queues).
    unsigned long long max_queue_depth = 0;
    for (const NodeUsage& u : r.per_node) {
      max_queue_depth = std::max(
          max_queue_depth,
          static_cast<unsigned long long>(u.counters.max_queue_depth));
    }
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "%s,%.6g,%llu,%llu,%.8g,%.8g,%.8g,%.8g,%.8g,%.8g,%.8g,%.8g,"
        "%.8g,%.8g,%.8g,%.8g,%.6g,%.6g,%.6g,%.6g,%llu,%llu,%llu,%llu,%llu,"
        "%llu,%llu,%llu,%.8g,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu",
        util::CsvEscape(r.scheme).c_str(), r.cache_fraction,
        static_cast<unsigned long long>(r.capacity_bytes),
        static_cast<unsigned long long>(m.requests), m.avg_latency,
        m.avg_response_ratio, m.byte_hit_ratio, m.hit_ratio,
        m.avg_traffic_byte_hops, m.avg_hops, m.avg_load_bytes,
        m.read_load_share, m.stale_hit_ratio, m.avg_request_msg_bytes,
        m.avg_response_msg_bytes, m.avg_message_bytes, r.wall_seconds,
        r.requests_per_sec, r.warmup_seconds, r.measure_seconds,
        static_cast<unsigned long long>(m.retries),
        static_cast<unsigned long long>(m.failed_requests),
        static_cast<unsigned long long>(m.reroutes),
        static_cast<unsigned long long>(m.crashes_applied),
        static_cast<unsigned long long>(m.degraded_decisions),
        static_cast<unsigned long long>(m.served_requests),
        static_cast<unsigned long long>(m.shed_requests),
        static_cast<unsigned long long>(m.shed_placements),
        m.avg_queue_wait, max_queue_depth,
        static_cast<unsigned long long>(m.ram_hits),
        static_cast<unsigned long long>(m.disk_hits),
        static_cast<unsigned long long>(m.promotions),
        static_cast<unsigned long long>(m.demotions),
        static_cast<unsigned long long>(m.sibling_probes),
        static_cast<unsigned long long>(m.sibling_hits),
        static_cast<unsigned long long>(m.disk_degraded));
    csv.WriteLine(buf);
  }
  return csv.Close();
}

namespace {

/// One per-node CSV row; `scope` is "node" or "level".
void WriteCountersRow(util::CsvWriter* csv, const RunResult& r,
                      const char* scope, int node, int level,
                      const NodeCounters& c) {
  char buf[896];
  std::snprintf(
      buf, sizeof(buf),
      "%s,%.6g,%s,%d,%d,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
      "%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
      "%llu,%llu,%llu,%llu",
      util::CsvEscape(r.scheme).c_str(), r.cache_fraction, scope, node, level,
      static_cast<unsigned long long>(c.requests_seen()),
      static_cast<unsigned long long>(c.hits),
      static_cast<unsigned long long>(c.misses),
      static_cast<unsigned long long>(c.evictions),
      static_cast<unsigned long long>(c.placements),
      static_cast<unsigned long long>(c.placements_rejected),
      static_cast<unsigned long long>(c.expirations),
      static_cast<unsigned long long>(c.invalidations),
      static_cast<unsigned long long>(c.stale_serves),
      static_cast<unsigned long long>(c.dcache_hits),
      static_cast<unsigned long long>(c.bytes_served),
      static_cast<unsigned long long>(c.bytes_cached),
      static_cast<unsigned long long>(c.crashes),
      static_cast<unsigned long long>(c.retries),
      static_cast<unsigned long long>(c.reroutes),
      static_cast<unsigned long long>(c.degraded),
      static_cast<unsigned long long>(c.sheds),
      static_cast<unsigned long long>(c.store_sheds),
      static_cast<unsigned long long>(c.max_queue_depth),
      // Total byte load the node handled: reads served + writes stored.
      static_cast<unsigned long long>(c.bytes_served + c.bytes_cached),
      static_cast<unsigned long long>(c.ram_hits),
      static_cast<unsigned long long>(c.disk_hits),
      static_cast<unsigned long long>(c.promotions),
      static_cast<unsigned long long>(c.demotions),
      static_cast<unsigned long long>(c.sibling_probes),
      static_cast<unsigned long long>(c.sibling_serves),
      static_cast<unsigned long long>(c.disk_degraded));
  csv->WriteLine(buf);
}

}  // namespace

util::Status WritePerNodeCsv(const std::vector<RunResult>& results,
                             const std::string& path) {
  util::CsvWriter csv(path);
  csv.WriteLine(
      "scheme,cache_fraction,scope,node,level,requests,hits,misses,"
      "evictions,placements,placements_rejected,expirations,invalidations,"
      "stale_serves,dcache_hits,bytes_served,bytes_cached,crashes,retries,"
      "reroutes,degraded,sheds,store_sheds,max_queue_depth,load_bytes,"
      // Two-tier / sibling / degraded-node columns (appended at the end).
      "ram_hits,disk_hits,promotions,demotions,sibling_probes,"
      "sibling_serves,disk_degraded");
  for (const RunResult& r : results) {
    int max_level = 0;
    for (const NodeUsage& u : r.per_node) {
      WriteCountersRow(&csv, r, "node", u.node, u.level, u.counters);
      max_level = std::max(max_level, u.level);
    }
    // Per-depth rollups (the paper's tree levels; node is -1).
    std::vector<NodeCounters> by_level(static_cast<size_t>(max_level) + 1);
    for (const NodeUsage& u : r.per_node) {
      by_level[static_cast<size_t>(u.level)] += u.counters;
    }
    for (int level = 0; level <= max_level; ++level) {
      WriteCountersRow(&csv, r, "level", -1, level,
                       by_level[static_cast<size_t>(level)]);
    }
  }
  return csv.Close();
}

util::Status WriteTraceJsonl(const std::vector<RunResult>& results,
                             const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return util::Status::IoError("cannot open for write: " + path);
  }
  bool ok = true;
  for (const RunResult& r : results) {
    for (const TraceEvent& event : r.trace_events) {
      char prefix[128];
      std::snprintf(prefix, sizeof(prefix),
                    "{\"scheme\":\"%s\",\"cache_fraction\":%.6g,",
                    r.scheme.c_str(), r.cache_fraction);
      std::string line = prefix;
      EventTrace::AppendJsonFields(event, &line);
      line += "}\n";
      ok = ok &&
           std::fwrite(line.data(), 1, line.size(), f) == line.size();
    }
  }
  if (std::fclose(f) != 0) ok = false;
  if (!ok) return util::Status::IoError("short write: " + path);
  return util::Status::Ok();
}

}  // namespace cascache::sim
