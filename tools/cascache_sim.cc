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
#include <cstring>
#include <string>
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

/// Narrows an integer flag value to T, rejecting values T cannot hold
/// instead of letting static_cast wrap them.
template <typename T, typename V>
util::StatusOr<T> NarrowFlag(const char* name, V value) {
  if (!std::in_range<T>(value)) {
    return util::Status::InvalidArgument(std::string("--") + name +
                                         " out of range: " +
                                         std::to_string(value));
  }
  return static_cast<T>(value);
}

util::StatusOr<schemes::SchemeSpec> ParseScheme(const std::string& name,
                                                int radius) {
  schemes::SchemeSpec spec;
  spec.modulo_radius = radius;
  if (name == "lru") {
    spec.kind = schemes::SchemeKind::kLru;
  } else if (name == "modulo") {
    spec.kind = schemes::SchemeKind::kModulo;
  } else if (name == "lncr") {
    spec.kind = schemes::SchemeKind::kLncr;
  } else if (name == "coordinated") {
    spec.kind = schemes::SchemeKind::kCoordinated;
  } else if (name == "gds") {
    spec.kind = schemes::SchemeKind::kGds;
  } else if (name == "lfu") {
    spec.kind = schemes::SchemeKind::kLfu;
  } else if (name == "static") {
    spec.kind = schemes::SchemeKind::kStatic;
  } else {
    return util::Status::InvalidArgument(
        "unknown scheme '" + name +
        "' (expected lru|modulo|lncr|coordinated|gds|lfu|static)");
  }
  return spec;
}

util::Status RunMain(int argc, char** argv) {
  util::FlagParser flags;
  std::string arch, schemes_text, cache_text, cost, coherency, save_trace;
  uint64_t requests, objects, clients, servers, seed;
  int64_t radius;
  double theta, dcache_ratio, warmup, ttl, mutable_fraction, update_period,
      temporal, level_growth;
  bool help;

  flags.AddBool("help", false, "print this help", &help);
  flags.AddString("arch", "enroute",
                  "architecture: enroute | hier", &arch);
  flags.AddString("schemes", "lru,modulo,lncr,coordinated",
                  "comma list of lru|modulo|lncr|coordinated|gds|lfu",
                  &schemes_text);
  flags.AddInt64("radius", 4, "MODULO cache radius", &radius);
  flags.AddString("cache", "0.01",
                  "comma list of relative cache sizes in (0,1]", &cache_text);
  flags.AddUint64("requests", 200'000, "synthetic trace length", &requests);
  flags.AddUint64("objects", 20'000, "synthetic object population", &objects);
  flags.AddUint64("clients", 1'000, "synthetic client population", &clients);
  flags.AddUint64("servers", 200, "origin server count", &servers);
  flags.AddDouble("theta", 0.8, "Zipf exponent of object popularity", &theta);
  flags.AddUint64("seed", 42, "workload seed", &seed);
  std::string trace_in, trace_out;
  bool trace_stream_release;
  flags.AddString("trace-in", "",
                  "replay a saved .cctr binary trace instead of generating "
                  "one (v2/v3 are mmap'd and shared across sweep cells; v1 "
                  "loads in RAM; env: CASCACHE_TRACE_IN)",
                  &trace_in);
  flags.AddString("trace-out", "",
                  "stream-generate the synthetic workload to this binary "
                  "trace file (v2; v3 with --catalog=procedural) in O(1) "
                  "memory and exit without simulating "
                  "(env: CASCACHE_TRACE_OUT)",
                  &trace_out);
  flags.AddBool("trace-stream-release", false,
                "advise-release consumed pages of the mapped --trace-in "
                "while replaying, keeping resident memory O(1) in trace "
                "length (forces --jobs=1)",
                &trace_stream_release);
  flags.AddString("save-trace", "",
                  "write the generated trace to this path (v2 format)",
                  &save_trace);
  flags.AddDouble("dcache-ratio", 3.0,
                  "d-cache descriptors per avg cached object", &dcache_ratio);
  flags.AddDouble("warmup", 0.5, "warm-up fraction of the trace", &warmup);
  flags.AddString("cost", "latency",
                  "optimized cost: latency | bandwidth | hops | weighted",
                  &cost);
  flags.AddString("coherency", "none",
                  "coherency protocol: none | ttl | invalidation",
                  &coherency);
  flags.AddDouble("ttl", 3600.0, "copy TTL in seconds", &ttl);
  flags.AddDouble("mutable", 0.0, "fraction of mutable objects",
                  &mutable_fraction);
  flags.AddDouble("update-period", 14400.0,
                  "mean seconds between updates of a mutable object",
                  &update_period);
  flags.AddDouble("temporal", 0.0,
                  "temporal-locality re-reference probability",
                  &temporal);
  // Non-stationary workload model (trace/workload_model.h). --workload
  // names the enabled components; the per-component knobs below only
  // take effect for components that are named.
  std::string workload_text, drift_mode_text, catalog_mode;
  double drift_half_life, flash_per_hour, flash_peak_share, flash_ramp,
      flash_decay, wl_diurnal_amplitude, wl_diurnal_period, session_prob,
      session_run, regional_bias;
  uint64_t flash_objects, regions;
  flags.AddString("workload", "static",
                  "workload model: static, or comma list of "
                  "drift|flash|diurnal|sessions|regional "
                  "(env: CASCACHE_WORKLOAD)",
                  &workload_text);
  flags.AddString("workload-drift-mode", "rotate",
                  "popularity drift mode: rotate | shuffle (shuffle is "
                  "limited to 2^24 objects)",
                  &drift_mode_text);
  flags.AddDouble("workload-drift-half-life", 3600.0,
                  "seconds for half the popularity mass to move",
                  &drift_half_life);
  flags.AddDouble("workload-flash-per-hour", 2.0,
                  "flash-crowd events per simulated hour",
                  &flash_per_hour);
  flags.AddUint64("workload-flash-objects", 64,
                  "objects in each flash crowd's hot set", &flash_objects);
  flags.AddDouble("workload-flash-peak-share", 0.3,
                  "peak fraction of traffic one flash event captures",
                  &flash_peak_share);
  flags.AddDouble("workload-flash-ramp", 300.0,
                  "flash ramp-up seconds to the peak", &flash_ramp);
  flags.AddDouble("workload-flash-decay", 1200.0,
                  "flash exponential decay constant in seconds",
                  &flash_decay);
  flags.AddDouble("workload-diurnal-amplitude", 0.5,
                  "workload arrival-rate sinusoid amplitude in [0,1)",
                  &wl_diurnal_amplitude);
  flags.AddDouble("workload-diurnal-period", 86400.0,
                  "workload diurnal cycle period in seconds",
                  &wl_diurnal_period);
  flags.AddDouble("workload-session-prob", 0.3,
                  "probability a fresh draw opens a sequential session",
                  &session_prob);
  flags.AddDouble("workload-session-run", 20.0,
                  "mean session length in requests (geometric)",
                  &session_run);
  flags.AddUint64("workload-regions", 8,
                  "client regions for regional skew (region = client mod "
                  "regions)",
                  &regions);
  flags.AddDouble("workload-regional-bias", 0.7,
                  "probability a request prefers its region's hot set",
                  &regional_bias);
  flags.AddString("catalog", "materialized",
                  "catalog storage: materialized | procedural (procedural "
                  "hashes sizes/servers from the id — O(1) memory at 10^8 "
                  "objects, v3 trace files; env: CASCACHE_CATALOG)",
                  &catalog_mode);
  flags.AddDouble("level-growth", 1.0,
                  "hierarchical per-level capacity growth (1 = uniform)",
                  &level_growth);
  int64_t jobs;
  flags.AddInt64("jobs", 0,
                 "worker threads for the sweep (0 = CASCACHE_JOBS env, "
                 "else hardware concurrency; 1 = sequential)",
                 &jobs);
  std::string results_csv, per_node_csv, trace_jsonl;
  double trace_sample;
  int64_t trace_ring;
  flags.AddString("results-csv", "",
                  "write the aggregate sweep results CSV to this path",
                  &results_csv);
  flags.AddString("per-node-csv", "",
                  "write per-node and per-level counter rows to this path",
                  &per_node_csv);
  flags.AddString("trace-jsonl", "",
                  "enable event tracing and write JSONL records to this path",
                  &trace_jsonl);
  flags.AddDouble("trace-sample", 1.0,
                  "fraction of requests traced (deterministic per seed)",
                  &trace_sample);
  flags.AddInt64("trace-ring", 4096,
                 "trace ring capacity: most recent records kept per cell",
                 &trace_ring);
  // Fault injection (sim/fault_plane.h). Precedence: defaults, then
  // --fault-config file, then CASCACHE_FAULT_* env vars, then explicit
  // --fault-* flags.
  std::string fault_config_path;
  uint64_t fault_seed;
  int64_t fault_max_retries;
  double fault_node_mtbf, fault_node_downtime, fault_link_mtbf,
      fault_link_downtime, fault_ascent_loss, fault_decision_loss,
      fault_timeout, fault_backoff, fault_disk_mtbf, fault_disk_downtime,
      fault_sibling_loss;
  bool fault_crash_cuts_routing;
  flags.AddString("fault-config", "",
                  "fault schedule file (key=value lines; see DESIGN.md)",
                  &fault_config_path);
  flags.AddUint64("fault-seed", 1, "seed of the fault streams", &fault_seed);
  flags.AddDouble("fault-node-mtbf", 0.0,
                  "mean seconds between node crashes (0 = none)",
                  &fault_node_mtbf);
  flags.AddDouble("fault-node-downtime", 30.0,
                  "mean seconds a crashed node stays down",
                  &fault_node_downtime);
  flags.AddDouble("fault-link-mtbf", 0.0,
                  "mean seconds between link outages (0 = none)",
                  &fault_link_mtbf);
  flags.AddDouble("fault-link-downtime", 30.0,
                  "mean seconds a failed link stays down",
                  &fault_link_downtime);
  flags.AddBool("fault-crash-cuts-routing", false,
                "crashed nodes also stop forwarding (requests detour)",
                &fault_crash_cuts_routing);
  flags.AddDouble("fault-ascent-loss", 0.0,
                  "probability a hop's piggyback entry is lost",
                  &fault_ascent_loss);
  flags.AddDouble("fault-decision-loss", 0.0,
                  "probability a hop's placement decision is lost",
                  &fault_decision_loss);
  flags.AddDouble("fault-timeout", 5.0,
                  "seconds before an unreachable request retries",
                  &fault_timeout);
  flags.AddInt64("fault-max-retries", 3,
                 "retries before a request is recorded as failed",
                 &fault_max_retries);
  flags.AddDouble("fault-backoff", 1.0,
                  "retry k backs off fault-backoff * 2^k seconds",
                  &fault_backoff);
  flags.AddDouble("fault-disk-mtbf", 0.0,
                  "mean seconds between disk-tier failures (0 = none); a "
                  "degraded node serves from RAM only (tiered) or proxies "
                  "(single-tier)",
                  &fault_disk_mtbf);
  flags.AddDouble("fault-disk-downtime", 60.0,
                  "mean seconds a failed disk tier stays degraded",
                  &fault_disk_downtime);
  flags.AddDouble("fault-sibling-loss", 0.0,
                  "probability a sibling probe or its reply is lost",
                  &fault_sibling_loss);
  // Two-tier stores (sim/node.h): a fast RAM tier over the full-capacity
  // slow tier, with promotion on hit and demotion on eviction.
  double tier_ram_fraction, tier_ram_hit_cost, tier_disk_hit_cost;
  uint64_t tier_ram_capacity;
  flags.AddDouble("tier-ram-fraction", 0.0,
                  "RAM tier capacity as a fraction of each node's cache "
                  "(0 = single-tier nodes)",
                  &tier_ram_fraction);
  flags.AddUint64("tier-ram-capacity", 0,
                  "absolute RAM tier capacity in bytes (overrides "
                  "--tier-ram-fraction)",
                  &tier_ram_capacity);
  flags.AddDouble("tier-ram-hit-cost", 0.0,
                  "service seconds charged per RAM-tier hit",
                  &tier_ram_hit_cost);
  flags.AddDouble("tier-disk-hit-cost", 0.0,
                  "service seconds charged per disk-tier hit",
                  &tier_disk_hit_cost);
  // Sibling cooperation (ICP-style): on a local miss, probe same-parent
  // siblings before ascending.
  bool sibling_probes;
  int64_t sibling_level, sibling_max_probes;
  uint64_t sibling_probe_bytes;
  double sibling_probe_cost;
  flags.AddBool("sibling-probes", false,
                "probe same-parent siblings on a local miss before "
                "ascending (hierarchical architecture)",
                &sibling_probes);
  flags.AddInt64("sibling-level", -1,
                 "tree level that probes siblings (-1 = every level)",
                 &sibling_level);
  flags.AddInt64("sibling-max-probes", 0,
                 "max siblings probed per miss (0 = all siblings)",
                 &sibling_max_probes);
  flags.AddUint64("sibling-probe-bytes", 16,
                  "message bytes per sibling probe (and per hit reply)",
                  &sibling_probe_bytes);
  flags.AddDouble("sibling-probe-cost", 0.0,
                  "service seconds a probe occupies the probed sibling",
                  &sibling_probe_cost);
  // Contention model (sim/queueing.h). Any nonzero knob switches the
  // replay to the event-driven scheduling policy.
  double service_lookup, service_store, service_dcache, link_bandwidth,
      arrival_rate, arrival_ramp;
  int64_t service_queue_cap;
  flags.AddDouble("service-lookup", 0.0,
                  "node service seconds per cache lookup (0 = analytic)",
                  &service_lookup);
  flags.AddDouble("service-store", 0.0,
                  "node service seconds per accepted placement",
                  &service_store);
  flags.AddDouble("service-dcache", 0.0,
                  "node service seconds per d-cache probe",
                  &service_dcache);
  flags.AddInt64("service-queue-cap", 0,
                 "node queue capacity in ops before shedding (0 = unbounded)",
                 &service_queue_cap);
  flags.AddDouble("link-bandwidth", 0.0,
                  "link bandwidth in bytes/second (0 = infinite)",
                  &link_bandwidth);
  flags.AddDouble("arrival-rate", 0.0,
                  "open-loop arrivals per second (0 = trace timestamps)",
                  &arrival_rate);
  flags.AddDouble("arrival-ramp", 0.0,
                  "arrival rate grows by this fraction per simulated second",
                  &arrival_ramp);
  double arrival_diurnal_amplitude, arrival_diurnal_period;
  flags.AddDouble("arrival-diurnal-amplitude", 0.0,
                  "open-loop arrival rate diurnal sinusoid amplitude in "
                  "[0,1) (requires --arrival-rate)",
                  &arrival_diurnal_amplitude);
  flags.AddDouble("arrival-diurnal-period", 86400.0,
                  "open-loop diurnal cycle period in simulated seconds",
                  &arrival_diurnal_period);

  CASCACHE_RETURN_IF_ERROR(flags.Parse(argc - 1, argv + 1));
  if (help) {
    std::fputs(flags.Usage(argv[0]).c_str(), stdout);
    std::exit(0);
  }

  sim::ExperimentConfig config;
  if (arch == "enroute") {
    config.network.architecture = sim::Architecture::kEnRoute;
  } else if (arch == "hier") {
    config.network.architecture = sim::Architecture::kHierarchical;
  } else {
    return util::Status::InvalidArgument("unknown --arch: " + arch);
  }

  CASCACHE_ASSIGN_OR_RETURN(const int modulo_radius,
                            NarrowFlag<int>("radius", radius));
  config.schemes.clear();
  for (const std::string& name : util::SplitCommaList(schemes_text)) {
    CASCACHE_ASSIGN_OR_RETURN(schemes::SchemeSpec spec,
                              ParseScheme(name, modulo_radius));
    config.schemes.push_back(spec);
  }
  if (config.schemes.empty()) {
    return util::Status::InvalidArgument("no schemes given");
  }

  config.cache_fractions.clear();
  for (const std::string& part : util::SplitCommaList(cache_text)) {
    config.cache_fractions.push_back(std::atof(part.c_str()));
  }

  config.workload.num_requests = requests;
  CASCACHE_ASSIGN_OR_RETURN(config.workload.num_objects,
                            NarrowFlag<uint32_t>("objects", objects));
  CASCACHE_ASSIGN_OR_RETURN(config.workload.num_clients,
                            NarrowFlag<uint32_t>("clients", clients));
  CASCACHE_ASSIGN_OR_RETURN(config.workload.num_servers,
                            NarrowFlag<uint32_t>("servers", servers));
  config.workload.zipf_theta = theta;
  config.workload.seed = seed;
  config.workload.temporal_locality = temporal;

  // Workload model and catalog mode: explicit flag beats environment.
  if (!flags.WasSet("workload")) {
    if (const char* env = std::getenv("CASCACHE_WORKLOAD");
        env != nullptr && env[0] != '\0') {
      workload_text = env;
    }
  }
  if (!flags.WasSet("catalog")) {
    if (const char* env = std::getenv("CASCACHE_CATALOG");
        env != nullptr && env[0] != '\0') {
      catalog_mode = env;
    }
  }
  trace::WorkloadModelParams& model = config.workload.model;
  if (workload_text != "static" && !workload_text.empty()) {
    for (const std::string& part : util::SplitCommaList(workload_text)) {
      if (part == "drift") {
        if (drift_mode_text == "rotate") {
          model.drift_mode = trace::DriftMode::kRotate;
        } else if (drift_mode_text == "shuffle") {
          model.drift_mode = trace::DriftMode::kShuffle;
        } else {
          return util::Status::InvalidArgument(
              "unknown --workload-drift-mode: " + drift_mode_text +
              " (expected rotate|shuffle)");
        }
        model.drift_half_life_s = drift_half_life;
      } else if (part == "flash") {
        model.flash_rate_per_hour = flash_per_hour;
        CASCACHE_ASSIGN_OR_RETURN(
            model.flash_objects,
            NarrowFlag<uint32_t>("workload-flash-objects", flash_objects));
        model.flash_peak_share = flash_peak_share;
        model.flash_ramp_s = flash_ramp;
        model.flash_decay_s = flash_decay;
      } else if (part == "diurnal") {
        model.diurnal_amplitude = wl_diurnal_amplitude;
        model.diurnal_period_s = wl_diurnal_period;
      } else if (part == "sessions") {
        model.session_prob = session_prob;
        model.session_mean_run = session_run;
      } else if (part == "regional") {
        CASCACHE_ASSIGN_OR_RETURN(
            model.regions, NarrowFlag<uint32_t>("workload-regions", regions));
        model.regional_bias = regional_bias;
      } else {
        return util::Status::InvalidArgument(
            "unknown --workload component '" + part +
            "' (expected static or a comma list of "
            "drift|flash|diurnal|sessions|regional)");
      }
    }
  }
  if (catalog_mode == "procedural") {
    config.workload.procedural_catalog = true;
  } else if (catalog_mode != "materialized") {
    return util::Status::InvalidArgument(
        "unknown --catalog: " + catalog_mode +
        " (expected materialized|procedural)");
  }
  config.sim.dcache_ratio = dcache_ratio;
  config.sim.warmup_fraction = warmup;
  config.sim.level_capacity_growth = level_growth;

  if (cost == "latency") {
    config.sim.cost_model.kind = sim::CostModelKind::kLatency;
  } else if (cost == "bandwidth") {
    config.sim.cost_model.kind = sim::CostModelKind::kBandwidth;
  } else if (cost == "hops") {
    config.sim.cost_model.kind = sim::CostModelKind::kHops;
  } else if (cost == "weighted") {
    config.sim.cost_model.kind = sim::CostModelKind::kWeighted;
  } else {
    return util::Status::InvalidArgument("unknown --cost: " + cost);
  }

  if (coherency == "none") {
    config.sim.coherency.protocol = sim::CoherencyProtocol::kNone;
  } else if (coherency == "ttl") {
    config.sim.coherency.protocol = sim::CoherencyProtocol::kTtl;
  } else if (coherency == "invalidation") {
    config.sim.coherency.protocol = sim::CoherencyProtocol::kInvalidation;
  } else {
    return util::Status::InvalidArgument("unknown --coherency: " + coherency);
  }
  config.sim.coherency.ttl = ttl;
  config.sim.coherency.mutable_fraction = mutable_fraction;
  config.sim.coherency.mean_update_period = update_period;
  CASCACHE_ASSIGN_OR_RETURN(config.jobs, NarrowFlag<int>("jobs", jobs));
  config.sim.trace.enabled = !trace_jsonl.empty();
  config.sim.trace.sampling_rate = trace_sample;
  if (trace_ring < 1) {
    return util::Status::InvalidArgument("--trace-ring must be >= 1");
  }
  config.sim.trace.ring_capacity = static_cast<size_t>(trace_ring);
  // Key the trace sampler off the workload seed so a rerun with the same
  // flags samples the same requests.
  config.sim.trace.seed = seed;

  // Fault schedule, lowest to highest precedence source.
  sim::FaultScheduleConfig& fault_config = config.sim.faults;
  if (!fault_config_path.empty()) {
    CASCACHE_RETURN_IF_ERROR(
        sim::LoadFaultConfigFile(fault_config_path, &fault_config));
  }
  CASCACHE_RETURN_IF_ERROR(sim::ApplyFaultEnvOverrides(&fault_config));
  if (flags.WasSet("fault-seed")) fault_config.seed = fault_seed;
  if (flags.WasSet("fault-node-mtbf")) {
    fault_config.node_crash_mtbf = fault_node_mtbf;
  }
  if (flags.WasSet("fault-node-downtime")) {
    fault_config.node_downtime = fault_node_downtime;
  }
  if (flags.WasSet("fault-link-mtbf")) {
    fault_config.link_mtbf = fault_link_mtbf;
  }
  if (flags.WasSet("fault-link-downtime")) {
    fault_config.link_downtime = fault_link_downtime;
  }
  if (flags.WasSet("fault-crash-cuts-routing")) {
    fault_config.crash_cuts_routing = fault_crash_cuts_routing;
  }
  if (flags.WasSet("fault-ascent-loss")) {
    fault_config.ascent_loss_prob = fault_ascent_loss;
  }
  if (flags.WasSet("fault-decision-loss")) {
    fault_config.decision_loss_prob = fault_decision_loss;
  }
  if (flags.WasSet("fault-timeout")) {
    fault_config.request_timeout = fault_timeout;
  }
  if (flags.WasSet("fault-max-retries")) {
    CASCACHE_ASSIGN_OR_RETURN(
        fault_config.max_retries,
        NarrowFlag<int>("fault-max-retries", fault_max_retries));
  }
  if (flags.WasSet("fault-backoff")) {
    fault_config.retry_backoff = fault_backoff;
  }
  if (flags.WasSet("fault-disk-mtbf")) {
    fault_config.disk_fail_mtbf = fault_disk_mtbf;
  }
  if (flags.WasSet("fault-disk-downtime")) {
    fault_config.disk_fail_downtime = fault_disk_downtime;
  }
  if (flags.WasSet("fault-sibling-loss")) {
    fault_config.sibling_loss_prob = fault_sibling_loss;
  }
  CASCACHE_RETURN_IF_ERROR(fault_config.Validate());

  config.sim.tier.ram_fraction = tier_ram_fraction;
  config.sim.tier.ram_capacity_bytes = tier_ram_capacity;
  config.sim.tier.ram_hit_cost = tier_ram_hit_cost;
  config.sim.tier.disk_hit_cost = tier_disk_hit_cost;
  CASCACHE_RETURN_IF_ERROR(config.sim.tier.Validate());
  config.sim.sibling.enabled = sibling_probes;
  CASCACHE_ASSIGN_OR_RETURN(config.sim.sibling.level,
                            NarrowFlag<int>("sibling-level", sibling_level));
  CASCACHE_ASSIGN_OR_RETURN(
      config.sim.sibling.max_probes,
      NarrowFlag<int>("sibling-max-probes", sibling_max_probes));
  config.sim.sibling.probe_bytes = sibling_probe_bytes;
  config.sim.sibling.probe_cost = sibling_probe_cost;
  CASCACHE_RETURN_IF_ERROR(config.sim.sibling.Validate());

  config.sim.contention.lookup_cost = service_lookup;
  config.sim.contention.store_cost = service_store;
  config.sim.contention.dcache_cost = service_dcache;
  CASCACHE_ASSIGN_OR_RETURN(
      config.sim.contention.node_queue_capacity,
      NarrowFlag<uint32_t>("service-queue-cap", service_queue_cap));
  config.sim.contention.link_bandwidth = link_bandwidth;
  config.sim.contention.arrival_rate = arrival_rate;
  config.sim.contention.arrival_ramp = arrival_ramp;
  config.sim.contention.arrival_diurnal_amplitude = arrival_diurnal_amplitude;
  config.sim.contention.arrival_diurnal_period = arrival_diurnal_period;
  CASCACHE_RETURN_IF_ERROR(config.sim.contention.Validate());

  // Trace in/out resolution: explicit flags beat the environment.
  if (trace_in.empty()) {
    if (const char* env = std::getenv("CASCACHE_TRACE_IN");
        env != nullptr && env[0] != '\0') {
      trace_in = env;
    }
  }
  if (trace_out.empty()) {
    if (const char* env = std::getenv("CASCACHE_TRACE_OUT");
        env != nullptr && env[0] != '\0') {
      trace_out = env;
    }
  }

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

  config.release_trace_pages = trace_stream_release;
  std::unique_ptr<sim::ExperimentRunner> runner;
  if (trace_in.empty()) {
    CASCACHE_ASSIGN_OR_RETURN(runner, sim::ExperimentRunner::Create(config));
  } else {
    CASCACHE_ASSIGN_OR_RETURN(
        runner, sim::ExperimentRunner::CreateFromTrace(config, trace_in));
    const trace::WorkloadView loaded = runner->view();
    const char* provenance =
        runner->mapped_trace() == nullptr ? "v1, in RAM"
        : loaded.catalog->procedural()    ? "v3, mmap, procedural catalog"
                                          : "v2, mmap";
    std::fprintf(stderr, "loaded trace %s: %zu requests, %u objects (%s)\n",
                 trace_in.c_str(), loaded.requests.size(),
                 loaded.catalog->num_objects(), provenance);
  }
  if (!save_trace.empty()) {
    if (!trace_in.empty()) {
      return util::Status::InvalidArgument(
          "--save-trace requires a generated workload (drop --trace-in)");
    }
    CASCACHE_RETURN_IF_ERROR(
        trace::WriteTrace(runner->workload(), save_trace));
    std::fprintf(stderr, "wrote trace to %s\n", save_trace.c_str());
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
