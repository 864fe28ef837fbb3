// cascache_sim: the command-line driver for the cascaded-caching
// simulator. Runs any combination of architecture, caching schemes,
// cache sizes, workload parameters, cost model and coherency protocol,
// and prints a table of all paper metrics per (scheme, cache size) cell.
//
// Examples:
//   cascache_sim                                   # paper defaults, small
//   cascache_sim --arch=hier --schemes=lru,coordinated --cache=0.01,0.1
//   cascache_sim --trace-out=boeing.cctr --requests=22000000  # generate once
//   cascache_sim --trace-in=boeing.cctr --schemes=coordinated --cache=0.03
//   cascache_sim --coherency=ttl --ttl=600 --mutable=0.2
//   cascache_sim --cost=bandwidth --schemes=coordinated,lncr

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>

#include "sim/experiment.h"
#include "sim/fault_plane.h"
#include "trace/trace_io.h"
#include "util/flags.h"
#include "util/table.h"

namespace {

using namespace cascache;

/// Process peak resident set in KiB: VmHWM from /proc/self/status, with
/// ru_maxrss as the portable fallback. Printed when CASCACHE_PRINT_RSS
/// is set so the CI scale-smoke job can assert a ceiling without
/// depending on GNU time.
long PeakRssKb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r"); f != nullptr) {
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
    }
    std::fclose(f);
    if (kb >= 0) return kb;
  }
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) return usage.ru_maxrss;
  return -1;
}

constexpr std::pair<std::string_view, sim::Architecture> kArchitectures[] = {
    {"enroute", sim::Architecture::kEnRoute},
    {"hier", sim::Architecture::kHierarchical}};
constexpr std::pair<std::string_view, sim::CostModelKind> kCostModels[] = {
    {"latency", sim::CostModelKind::kLatency},
    {"bandwidth", sim::CostModelKind::kBandwidth},
    {"hops", sim::CostModelKind::kHops},
    {"weighted", sim::CostModelKind::kWeighted}};
constexpr std::pair<std::string_view, sim::CoherencyProtocol> kCoherency[] = {
    {"none", sim::CoherencyProtocol::kNone},
    {"ttl", sim::CoherencyProtocol::kTtl},
    {"invalidation", sim::CoherencyProtocol::kInvalidation}};
constexpr std::pair<std::string_view, trace::DriftMode> kDriftModes[] = {
    {"rotate", trace::DriftMode::kRotate},
    {"shuffle", trace::DriftMode::kShuffle}};
constexpr std::pair<std::string_view, bool> kCatalogModes[] = {
    {"materialized", false}, {"procedural", true}};

/// Copies the --workload-* knobs of each component named in `components`
/// into `model`; the knobs of components left unnamed change nothing.
util::Status ApplyWorkloadComponents(const std::string& components,
                                     const trace::WorkloadModelParams& knobs,
                                     trace::WorkloadModelParams* model) {
  if (components == "static" || components.empty()) return util::Status::Ok();
  for (const std::string& part : util::SplitCommaList(components)) {
    if (part == "drift") {
      model->drift_mode = knobs.drift_mode;
      model->drift_half_life_s = knobs.drift_half_life_s;
    } else if (part == "flash") {
      model->flash_rate_per_hour = knobs.flash_rate_per_hour;
      model->flash_objects = knobs.flash_objects;
      model->flash_peak_share = knobs.flash_peak_share;
      model->flash_ramp_s = knobs.flash_ramp_s;
      model->flash_decay_s = knobs.flash_decay_s;
    } else if (part == "diurnal") {
      model->diurnal_amplitude = knobs.diurnal_amplitude;
      model->diurnal_period_s = knobs.diurnal_period_s;
    } else if (part == "sessions") {
      model->session_prob = knobs.session_prob;
      model->session_mean_run = knobs.session_mean_run;
    } else if (part == "regional") {
      model->regions = knobs.regions;
      model->regional_bias = knobs.regional_bias;
    } else {
      return util::Status::InvalidArgument(
          "unknown --workload component '" + part +
          "' (expected static or a comma list of "
          "drift|flash|diurnal|sessions|regional)");
    }
  }
  return util::Status::Ok();
}

util::Status RunMain(int argc, char** argv) {
  // Every flag is bound to the config field it sets; a field's value at
  // registration is the flag's default. CLI defaults that differ from the
  // library's are set first.
  sim::ExperimentConfig config;
  trace::WorkloadParams& workload = config.workload;
  sim::SimOptions& sim = config.sim;
  workload.num_requests = 200'000;
  workload.num_objects = 20'000;
  workload.num_clients = 1'000;
  workload.num_servers = 200;
  // The --workload-* knobs; copied into workload.model per named component.
  trace::WorkloadModelParams knobs;
  knobs.drift_mode = trace::DriftMode::kRotate;
  knobs.flash_rate_per_hour = 2.0;
  knobs.diurnal_amplitude = 0.5;
  knobs.session_prob = 0.3;
  knobs.regions = 8;
  knobs.regional_bias = 0.7;
  bool help = false;
  int radius = 4;
  std::string schemes_text = "lru,modulo,lncr,coordinated", cache_text = "0.01",
              workload_text = "static", trace_in, trace_out, results_csv,
              per_node_csv, trace_jsonl;

  util::FlagParser flags;
  flags.Add("help", &help, "print this help");
  flags.Add("arch", &config.network.architecture, kArchitectures,
            "architecture: enroute | hier");
  flags.Add("schemes", &schemes_text,
            "comma list of lru|modulo|lncr|coordinated|gds|lfu");
  flags.Add("radius", &radius, "MODULO cache radius");
  flags.Add("cache", &cache_text,
            "comma list of relative cache sizes in (0,1]");
  flags.Add("requests", &workload.num_requests, "synthetic trace length");
  flags.Add("objects", &workload.num_objects, "synthetic object population");
  flags.Add("clients", &workload.num_clients, "synthetic client population");
  flags.Add("servers", &workload.num_servers, "origin server count");
  flags.Add("theta", &workload.zipf_theta,
            "Zipf exponent of object popularity");
  flags.Add("seed", &workload.seed, "workload seed");
  flags.Add("trace-in", &trace_in,
            "replay a saved .cctr binary trace instead of generating one; "
            "v2/v3 are mmap'd and shared across sweep cells, v1 loads in RAM");
  flags.Add("trace-out", &trace_out,
            "stream-generate the synthetic workload to this binary trace "
            "file (v2; v3 with --catalog=procedural) in O(1) memory and exit "
            "without simulating");
  flags.Add("trace-stream-release", &config.release_trace_pages,
            "advise-release consumed pages of the mapped --trace-in while "
            "replaying, keeping resident memory O(1) in trace length "
            "(forces --jobs=1)");
  flags.Add("dcache-ratio", &sim.dcache_ratio,
            "d-cache descriptors per avg cached object");
  flags.Add("warmup", &sim.warmup_fraction, "warm-up fraction of the trace");
  flags.Add("cost", &sim.cost_model.kind, kCostModels,
            "optimized cost: latency | bandwidth | hops | weighted");
  flags.Add("coherency", &sim.coherency.protocol, kCoherency,
            "coherency protocol: none | ttl | invalidation");
  flags.Add("ttl", &sim.coherency.ttl, "copy TTL in seconds");
  flags.Add("mutable", &sim.coherency.mutable_fraction,
            "fraction of mutable objects");
  flags.Add("update-period", &sim.coherency.mean_update_period,
            "mean seconds between updates of a mutable object");
  flags.Add("temporal", &workload.temporal_locality,
            "temporal-locality re-reference probability");
  // Non-stationary workload model (trace/workload_model.h).
  flags.Add("workload", &workload_text,
            "workload model: static, or comma list of "
            "drift|flash|diurnal|sessions|regional");
  flags.Add("workload-drift-mode", &knobs.drift_mode, kDriftModes,
            "popularity drift mode: rotate | shuffle (shuffle is limited to "
            "2^24 objects)");
  flags.Add("workload-drift-half-life", &knobs.drift_half_life_s,
            "seconds for half the popularity mass to move");
  flags.Add("workload-flash-per-hour", &knobs.flash_rate_per_hour,
            "flash-crowd events per simulated hour");
  flags.Add("workload-flash-objects", &knobs.flash_objects,
            "objects in each flash crowd's hot set");
  flags.Add("workload-flash-peak-share", &knobs.flash_peak_share,
            "peak fraction of traffic one flash event captures");
  flags.Add("workload-flash-ramp", &knobs.flash_ramp_s,
            "flash ramp-up seconds to the peak");
  flags.Add("workload-flash-decay", &knobs.flash_decay_s,
            "flash exponential decay constant in seconds");
  flags.Add("workload-diurnal-amplitude", &knobs.diurnal_amplitude,
            "workload arrival-rate sinusoid amplitude in [0,1)");
  flags.Add("workload-diurnal-period", &knobs.diurnal_period_s,
            "workload diurnal cycle period in seconds");
  flags.Add("workload-session-prob", &knobs.session_prob,
            "probability a fresh draw opens a sequential session");
  flags.Add("workload-session-run", &knobs.session_mean_run,
            "mean session length in requests (geometric)");
  flags.Add("workload-regions", &knobs.regions,
            "client regions for regional skew (region = client mod regions)");
  flags.Add("workload-regional-bias", &knobs.regional_bias,
            "probability a request prefers its region's hot set");
  flags.Add("catalog", &workload.procedural_catalog, kCatalogModes,
            "catalog storage: materialized | procedural; procedural hashes "
            "sizes/servers from the id — O(1) memory at 10^8 objects, v3 "
            "trace files");
  flags.Add("level-growth", &sim.level_capacity_growth,
            "hierarchical per-level capacity growth (1 = uniform)");
  flags.Add("jobs", &config.jobs,
            "worker threads for the sweep (0 = CASCACHE_JOBS env, else "
            "hardware concurrency; 1 = sequential)");
  flags.Add("results-csv", &results_csv,
            "write the aggregate sweep results CSV to this path");
  flags.Add("per-node-csv", &per_node_csv,
            "write per-node and per-level counter rows to this path");
  flags.Add("trace-jsonl", &trace_jsonl,
            "enable event tracing and write JSONL records to this path");
  flags.Add("trace-sample", &sim.trace.sampling_rate,
            "fraction of requests traced (deterministic per seed)");
  flags.Add("trace-ring", &sim.trace.ring_capacity,
            "trace ring capacity: most recent records kept per cell");
  // Fault injection (sim/fault_plane.h): one --fault-<key> per field.
  sim::RegisterFaultFlags(&flags, &sim.faults);
  // Two-tier stores (sim/node.h): a fast RAM tier over the full-capacity
  // slow tier, with promotion on hit and demotion on eviction.
  flags.Add("tier-ram-fraction", &sim.tier.ram_fraction,
            "RAM tier capacity as a fraction of each node's cache (0 = "
            "single-tier nodes)");
  flags.Add("tier-ram-capacity", &sim.tier.ram_capacity_bytes,
            "absolute RAM tier capacity in bytes (overrides "
            "--tier-ram-fraction)");
  flags.Add("tier-ram-hit-cost", &sim.tier.ram_hit_cost,
            "service seconds charged per RAM-tier hit");
  flags.Add("tier-disk-hit-cost", &sim.tier.disk_hit_cost,
            "service seconds charged per disk-tier hit");
  // Sibling cooperation (ICP-style): on a local miss, probe same-parent
  // siblings before ascending.
  flags.Add("sibling-probes", &sim.sibling.enabled,
            "probe same-parent siblings on a local miss before ascending "
            "(hierarchical architecture)");
  flags.Add("sibling-level", &sim.sibling.level,
            "tree level that probes siblings (-1 = every level)");
  flags.Add("sibling-max-probes", &sim.sibling.max_probes,
            "max siblings probed per miss (0 = all siblings)");
  flags.Add("sibling-probe-bytes", &sim.sibling.probe_bytes,
            "message bytes per sibling probe (and per hit reply)");
  flags.Add("sibling-probe-cost", &sim.sibling.probe_cost,
            "service seconds a probe occupies the probed sibling");
  // Contention model (sim/queueing.h). Any nonzero knob switches the
  // replay to the event-driven scheduling policy.
  sim::ContentionParams& contention = sim.contention;
  flags.Add("service-lookup", &contention.lookup_cost,
            "node service seconds per cache lookup (0 = analytic)");
  flags.Add("service-store", &contention.store_cost,
            "node service seconds per accepted placement");
  flags.Add("service-dcache", &contention.dcache_cost,
            "node service seconds per d-cache probe");
  flags.Add("service-queue-cap", &contention.node_queue_capacity,
            "node queue capacity in ops before shedding (0 = unbounded)");
  flags.Add("link-bandwidth", &contention.link_bandwidth,
            "link bandwidth in bytes/second (0 = infinite)");
  flags.Add("arrival-rate", &contention.arrival_rate,
            "open-loop arrivals per second (0 = trace timestamps)");
  flags.Add("arrival-ramp", &contention.arrival_ramp,
            "arrival rate grows by this fraction per simulated second");
  flags.Add("arrival-diurnal-amplitude", &contention.arrival_diurnal_amplitude,
            "open-loop arrival rate diurnal sinusoid amplitude in [0,1) "
            "(requires --arrival-rate)");
  flags.Add("arrival-diurnal-period", &contention.arrival_diurnal_period,
            "open-loop diurnal cycle period in simulated seconds");

  CASCACHE_RETURN_IF_ERROR(flags.Parse(argc - 1, argv + 1));
  if (help) {
    std::fputs(flags.Usage(argv[0]).c_str(), stdout);
    std::exit(0);
  }

  for (const std::string& name : util::SplitCommaList(schemes_text)) {
    schemes::SchemeSpec spec;
    spec.modulo_radius = radius;
    if (util::Status s = util::ParseChoice(name, schemes::kSchemeNames,
                                           &spec.kind);
        !s.ok()) {
      return util::Status::InvalidArgument("--schemes: " + s.message());
    }
    config.schemes.push_back(spec);
  }
  if (config.schemes.empty()) {
    return util::Status::InvalidArgument("no schemes given");
  }
  config.cache_fractions.clear();
  for (const std::string& part : util::SplitCommaList(cache_text)) {
    double fraction = 0.0;
    if (util::Status s = util::ParseValue(part, &fraction); !s.ok()) {
      return util::Status::InvalidArgument("--cache: " + s.message());
    }
    config.cache_fractions.push_back(fraction);
  }
  CASCACHE_RETURN_IF_ERROR(
      ApplyWorkloadComponents(workload_text, knobs, &workload.model));
  sim.trace.enabled = !trace_jsonl.empty();
  if (sim.trace.ring_capacity < 1) {
    return util::Status::InvalidArgument("--trace-ring must be >= 1");
  }
  // Key the trace sampler off the workload seed so a rerun with the same
  // flags samples the same requests.
  sim.trace.seed = workload.seed;
  CASCACHE_RETURN_IF_ERROR(sim.faults.Validate());
  CASCACHE_RETURN_IF_ERROR(sim.tier.Validate());
  CASCACHE_RETURN_IF_ERROR(sim.sibling.Validate());
  CASCACHE_RETURN_IF_ERROR(contention.Validate());

  // Generate-once mode: stream the synthetic workload to disk (bounded
  // blocks, O(1) resident memory) and exit; replay it later — and many
  // times — via --trace-in.
  if (!trace_out.empty()) {
    if (!trace_in.empty()) {
      return util::Status::InvalidArgument(
          "--trace-out is incompatible with --trace-in");
    }
    CASCACHE_RETURN_IF_ERROR(
        trace::GenerateWorkloadToFile(config.workload, trace_out));
    std::fprintf(stderr, "wrote %llu-request trace to %s\n",
                 static_cast<unsigned long long>(config.workload.num_requests),
                 trace_out.c_str());
    if (std::getenv("CASCACHE_PRINT_RSS") != nullptr) {
      std::fprintf(stderr, "peak_rss_kb=%ld\n", PeakRssKb());
    }
    return util::Status::Ok();
  }

  std::unique_ptr<sim::ExperimentRunner> runner;
  if (trace_in.empty()) {
    CASCACHE_ASSIGN_OR_RETURN(runner, sim::ExperimentRunner::Create(config));
  } else {
    CASCACHE_ASSIGN_OR_RETURN(
        runner, sim::ExperimentRunner::CreateFromTrace(config, trace_in));
    const trace::WorkloadView loaded = runner->view();
    const uint32_t version = runner->mapped_trace()->version();
    const char* provenance =
        version == trace::kTraceVersion1   ? "v1, in RAM"
        : version == trace::kTraceVersion3 ? "v3, mmap, procedural catalog"
                                           : "v2, mmap";
    std::fprintf(stderr, "loaded trace %s: %zu requests, %u objects (%s)\n",
                 trace_in.c_str(), loaded.requests.size(),
                 loaded.catalog->num_objects(), provenance);
  }

  // Generated and replayed traces both go through the sweep engine,
  // which runs the cells concurrently (--jobs); a mapped trace is one
  // shared read-only mapping replayed in place by every cell.
  std::vector<sim::RunResult> sweep_results;
  CASCACHE_ASSIGN_OR_RETURN(sweep_results, runner->RunAll());

  util::TablePrinter table({"cache", "scheme", "latency(s)", "resp(s/MB)",
                            "byte hit", "hops", "traffic(B*hop)",
                            "load(B/req)", "stale"});
  for (const sim::RunResult& r : sweep_results) {
    const sim::MetricsSummary& m = r.metrics;
    char cache_label[32];
    std::snprintf(cache_label, sizeof(cache_label), "%.2f%%",
                  r.cache_fraction * 100);
    table.AddRow({cache_label, r.scheme,
                  util::TablePrinter::Fmt(m.avg_latency, 4),
                  util::TablePrinter::Fmt(m.avg_response_ratio, 4),
                  util::TablePrinter::Fmt(m.byte_hit_ratio, 4),
                  util::TablePrinter::Fmt(m.avg_hops, 4),
                  util::TablePrinter::Fmt(m.avg_traffic_byte_hops, 4),
                  util::TablePrinter::Fmt(m.avg_load_bytes, 4),
                  util::TablePrinter::Fmt(m.stale_hit_ratio, 3)});
  }
  table.Print();

  if (!results_csv.empty()) {
    CASCACHE_RETURN_IF_ERROR(sim::WriteResultsCsv(sweep_results, results_csv));
    std::fprintf(stderr, "wrote sweep CSV to %s\n", results_csv.c_str());
  }
  if (!per_node_csv.empty()) {
    CASCACHE_RETURN_IF_ERROR(
        sim::WritePerNodeCsv(sweep_results, per_node_csv));
    std::fprintf(stderr, "wrote per-node CSV to %s\n", per_node_csv.c_str());
  }
  if (!trace_jsonl.empty()) {
    CASCACHE_RETURN_IF_ERROR(sim::WriteTraceJsonl(sweep_results, trace_jsonl));
    std::fprintf(stderr, "wrote event trace to %s\n", trace_jsonl.c_str());
  }
  if (std::getenv("CASCACHE_PRINT_RSS") != nullptr) {
    std::fprintf(stderr, "peak_rss_kb=%ld\n", PeakRssKb());
  }
  return util::Status::Ok();
}

}  // namespace

int main(int argc, char** argv) {
  const util::Status status = RunMain(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    std::fprintf(stderr, "run with --help for usage\n");
    return 1;
  }
  return 0;
}
