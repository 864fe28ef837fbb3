// canonical: the repository's canonical benchmark program (see README.md).
//
// One process runs one named workload. It replays the workload's
// canonical input (seed kDefaultSeed) once, untimed, for the simulated
// metrics. It then sets the workload up several times from --seed
// (generation, trace mapping, network build) and replays the cells
// through Simulator::Run until --seconds have elapsed (at least kMinReps
// times, after one untimed warm-up). It checks every replay's outputs and
// prints one full record line followed by the summary line the benchmark
// contract reads:
//
//   canonical --workload hier_lru --seed 20030305 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced replays;
// --trace 1 alternates untraced and traced replays and reports the
// per-layer metrics. Spans are taken from this file only, around calls
// into the library's public functions (TimingScheme wraps the scheme
// hooks), so the simulator itself is unmodified.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "schemes/scheme.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "timing_scheme.h"
#include "trace/mapped_trace.h"
#include "trace/synthetic.h"

namespace cascache::canonical {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kDefaultSeed = 20030305;
/// Seed of every workload's object catalog (see Inputs).
constexpr uint64_t kCatalogSeed = kDefaultSeed;
/// Timed replays per run at least, whatever --seconds says: the digest
/// check needs repeats, and host metrics are medians.
constexpr int kMinReps = 3;
/// Traced runs alternate untraced and traced replays, at least this many
/// pairs.
constexpr int kMinTracedPairs = 2;
/// Set-ups per run: at least kMinSetups, then more while the set-ups have
/// taken less than kSetupShare of --seconds, up to kMaxSetups. setup_s is
/// their median, so short set-ups are sampled often enough to be steady.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 41;
constexpr double kSetupShare = 0.15;
/// Standalone request-span scans per traced run (trace.scan_ns_per_req).
constexpr int kScanReps = 3;
/// Scheme hooks are timed on one request in kSampleEvery (power of two).
constexpr uint64_t kSampleEvery = 32;
/// HostProbe reads per second on the reference host; host-time metrics
/// are scaled to it.
constexpr double kReferenceProbeRate = 1.6e8;

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// 64-bit FNV-1a: the digest of simulation outputs (doubles by bit
/// pattern) and of workload configurations.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) AddByte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  void Add(const std::string& s) {
    for (const char c : s) AddByte(static_cast<uint8_t>(c));
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash_);
    return buf;
  }

 private:
  void AddByte(uint8_t b) { hash_ = (hash_ ^ b) * 0x100000001b3ULL; }

  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Host-speed probe. The reference host is a shared virtual machine.
/// Other tenants change how fast it runs the same code from one minute to
/// the next, by slowing execution rather than by taking the CPU away, so
/// neither CPU time nor the fastest of several replays escapes it: in
/// each of five sets of ten consecutive runs, the IQR of the raw replay
/// rate reached 16-39% of its median on some workload. Each timed replay
/// and each set-up is therefore preceded by this fixed loop of reads at
/// pseudo-random offsets of a 32 MiB table (memory latency plus integer
/// work, like the replay; the host's L3 holds 300 MiB, so the probe does
/// not flush it), and host-time metrics are scaled by
/// kReferenceProbeRate / its rate.
class HostProbe {
 public:
  static constexpr size_t kWords = size_t{8} << 20;
  static constexpr size_t kTableBytes = kWords * sizeof(uint32_t);

  HostProbe() : table_(kWords) {
    for (size_t i = 0; i < kWords; ++i) {
      table_[i] = static_cast<uint32_t>(i * 2654435761u);
    }
  }

  /// Reads per second over ~20 ms.
  double ReadsPerSecond() {
    constexpr int kReads = 3'000'000;
    const Clock::time_point start = Clock::now();
    uint64_t x = 1;
    uint64_t sum = 0;
    for (int i = 0; i < kReads; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      sum += table_[(x >> 20) & (kWords - 1)] ^ (sum >> 3);
    }
    sink_ = sum;
    return kReads / SecondsBetween(start, Clock::now());
  }

 private:
  std::vector<uint32_t> table_;
  volatile uint64_t sink_ = 0;  ///< Keeps the loop from being optimised away.
};

// --- Workloads ---------------------------------------------------------------

struct Cell {
  schemes::SchemeKind kind = schemes::SchemeKind::kLru;
  double fraction = 0.0;
};

struct WorkloadSpec {
  std::string name;
  sim::NetworkParams network;
  trace::WorkloadParams workload;
  sim::SimOptions sim;
  std::vector<Cell> cells;
  /// Stream the trace to a v3 file and replay it mmap'd with page release.
  bool mapped = false;
};

const char* const kWorkloadNames[] = {"hier_lru", "enroute_coordinated",
                                      "contended_chaos", "mapped_drift"};

uint64_t Scaled(uint64_t requests, double scale) {
  return std::max<uint64_t>(
      1000, static_cast<uint64_t>(std::llround(static_cast<double>(requests) *
                                               scale)));
}

/// The four canonical workloads. All share the paper's synthetic Boeing-like
/// trace shape (100k objects, Zipf 0.8, 2k clients, 500 servers) unless
/// noted; README.md gives why each exists and which layer it stresses.
util::StatusOr<WorkloadSpec> MakeSpec(const std::string& name, uint64_t seed,
                                      double scale) {
  using schemes::SchemeKind;
  WorkloadSpec spec;
  spec.name = name;
  spec.workload.seed = seed;
  const std::vector<double> fractions = {0.001, 0.01, 0.1};
  if (name == "hier_lru") {
    spec.network.architecture = sim::Architecture::kHierarchical;
    spec.workload.num_requests = Scaled(3'000'000, scale);
    for (double f : fractions) spec.cells.push_back({SchemeKind::kLru, f});
  } else if (name == "enroute_coordinated") {
    spec.network.architecture = sim::Architecture::kEnRoute;
    spec.workload.num_requests = Scaled(250'000, scale);
    for (double f : fractions) {
      spec.cells.push_back({SchemeKind::kCoordinated, f});
    }
  } else if (name == "contended_chaos") {
    spec.network.architecture = sim::Architecture::kHierarchical;
    spec.workload.num_requests = Scaled(600'000, scale);
    spec.cells = {{SchemeKind::kLru, 0.01}, {SchemeKind::kCoordinated, 0.01}};
    sim::ContentionParams& c = spec.sim.contention;
    c.lookup_cost = 0.002;
    c.store_cost = 0.001;
    c.dcache_cost = 0.0005;
    c.node_queue_capacity = 32;
    c.link_bandwidth = 1e8;
    c.arrival_rate = 300.0;
    spec.sim.tier.ram_fraction = 0.1;
    spec.sim.tier.ram_hit_cost = 0.0001;
    spec.sim.tier.disk_hit_cost = 0.002;
    spec.sim.sibling.enabled = true;
    spec.sim.sibling.level = 0;
    sim::FaultScheduleConfig& f = spec.sim.faults;
    f.node_crash_mtbf = 600.0;
    f.node_downtime = 20.0;
    f.link_mtbf = 20000.0;
    f.link_downtime = 20.0;
    f.ascent_loss_prob = 0.01;
    f.decision_loss_prob = 0.01;
    f.disk_fail_mtbf = 600.0;
    f.disk_fail_downtime = 30.0;
    f.sibling_loss_prob = 0.01;
    spec.sim.coherency.protocol = sim::CoherencyProtocol::kInvalidation;
    spec.sim.coherency.mutable_fraction = 0.1;
    spec.sim.coherency.mean_update_period = 600.0;
  } else if (name == "mapped_drift") {
    spec.network.architecture = sim::Architecture::kHierarchical;
    spec.workload.num_objects = 100'000'000;
    spec.workload.procedural_catalog = true;
    spec.workload.model.drift_mode = trace::DriftMode::kRotate;
    spec.workload.num_requests = Scaled(4'000'000, scale);
    spec.cells = {{SchemeKind::kLru, 0.001}};
    spec.mapped = true;
  } else {
    return util::Status::InvalidArgument("unknown workload: " + name);
  }
  return spec;
}

/// Every knob of a spec that can change its inputs or results, as text;
/// its hash stamps the record so runs of different configs never mix.
std::string ConfigText(const WorkloadSpec& s) {
  std::ostringstream o;
  o.precision(17);
  const trace::WorkloadParams& w = s.workload;
  const trace::WorkloadModelParams& m = w.model;
  const sim::SimOptions& so = s.sim;
  const sim::ContentionParams& c = so.contention;
  const sim::FaultScheduleConfig& f = so.faults;
  o << "name=" << s.name << ";mapped=" << s.mapped
    << ";arch=" << sim::ArchitectureName(s.network.architecture)
    << ";placement_seed=" << s.network.placement_seed
    << ";tiers_seed=" << s.network.tiers.seed
    << ";tree=" << s.network.tree.depth << "x" << s.network.tree.fanout
    << ";objects=" << w.num_objects << ";requests=" << w.num_requests
    << ";clients=" << w.num_clients << ";servers=" << w.num_servers
    << ";theta=" << w.zipf_theta << ";client_theta=" << w.client_zipf_theta
    << ";rate=" << w.request_rate << ";procedural=" << w.procedural_catalog
    << ";seed=" << w.seed << ";catalog_seed=" << kCatalogSeed << ";drift=" << static_cast<int>(m.drift_mode)
    << ";half_life=" << m.drift_half_life_s
    << ";warmup=" << so.warmup_fraction << ";dcache_ratio=" << so.dcache_ratio
    << ";lookup=" << c.lookup_cost << ";store=" << c.store_cost
    << ";dcache=" << c.dcache_cost << ";queue_cap=" << c.node_queue_capacity
    << ";bandwidth=" << c.link_bandwidth << ";arrival=" << c.arrival_rate
    << ";ram_fraction=" << so.tier.ram_fraction
    << ";ram_cost=" << so.tier.ram_hit_cost
    << ";disk_cost=" << so.tier.disk_hit_cost
    << ";sibling=" << so.sibling.enabled << "@" << so.sibling.level
    << ";fault_seed=" << f.seed << ";node_mtbf=" << f.node_crash_mtbf
    << ";node_down=" << f.node_downtime << ";link_mtbf=" << f.link_mtbf
    << ";link_down=" << f.link_downtime << ";ascent_loss=" << f.ascent_loss_prob
    << ";decision_loss=" << f.decision_loss_prob
    << ";disk_mtbf=" << f.disk_fail_mtbf << ";disk_down=" << f.disk_fail_downtime
    << ";sibling_loss=" << f.sibling_loss_prob
    << ";coherency=" << static_cast<int>(so.coherency.protocol)
    << ";mutable=" << so.coherency.mutable_fraction
    << ";update_period=" << so.coherency.mean_update_period << ";cells=";
  for (const Cell& cell : s.cells) {
    schemes::SchemeSpec scheme;
    scheme.kind = cell.kind;
    o << scheme.Label() << "@" << cell.fraction << ",";
  }
  return o.str();
}

// --- Set-up ------------------------------------------------------------------

/// The generated inputs of one workload. The object catalog (sizes and
/// origin servers) is drawn from kCatalogSeed for every run, and --seed
/// drives the request stream: object sizes are heavy-tailed, so a catalog
/// per seed would move the byte-hit ratio by ~10% from seed to seed and
/// the replay cost with it. A request stream indexes objects by
/// popularity rank only, so it replays over any catalog of the same size.
struct Inputs {
  trace::Workload fixed;     ///< Catalog source (one request).
  trace::Workload workload;  ///< In-RAM request stream.
  std::unique_ptr<trace::MappedTrace> mapped;  ///< Mapped request stream.
  std::unique_ptr<sim::Network> network;

  const trace::ObjectCatalog& catalog() const { return fixed.catalog; }
  trace::RequestSpan requests() const {
    return mapped != nullptr ? mapped->requests()
                             : trace::RequestSpan(workload.requests);
  }
  /// A fresh replay pass; mapped streams release pages as they go.
  trace::WorkloadView View() {
    trace::WorkloadView view;
    if (mapped != nullptr) view = mapped->StreamingView();
    view.catalog = &fixed.catalog;
    view.requests = requests();
    return view;
  }
};

struct SetupTimes {
  double generate_s = 0.0;
  double map_s = 0.0;
  double build_s = 0.0;
  double probe_rate = kReferenceProbeRate;  ///< HostProbe just before.
  double total() const { return generate_s + map_s + build_s; }
  /// total() at the reference host speed.
  double Normalized() const {
    return total() * probe_rate / kReferenceProbeRate;
  }
};

util::Status SetUp(const WorkloadSpec& spec, const std::string& trace_path,
                   Inputs* inputs, SetupTimes* times) {
  // Release the previous set-up's inputs first (network before the
  // catalog it points into), so set-ups do not stack up in memory.
  inputs->network.reset();
  inputs->mapped.reset();
  inputs->workload = trace::Workload();
  inputs->fixed = trace::Workload();
  trace::WorkloadParams catalog_params = spec.workload;
  catalog_params.seed = kCatalogSeed;
  catalog_params.num_requests = 1;
  const Clock::time_point t0 = Clock::now();
  CASCACHE_ASSIGN_OR_RETURN(inputs->fixed,
                            trace::GenerateWorkload(catalog_params));
  if (spec.mapped) {
    CASCACHE_RETURN_IF_ERROR(
        trace::GenerateWorkloadToFile(spec.workload, trace_path));
  } else {
    CASCACHE_ASSIGN_OR_RETURN(inputs->workload,
                              trace::GenerateWorkload(spec.workload));
  }
  const Clock::time_point t1 = Clock::now();
  if (spec.mapped) {
    CASCACHE_ASSIGN_OR_RETURN(inputs->mapped,
                              trace::MappedTrace::Open(trace_path));
  }
  const Clock::time_point t2 = Clock::now();
  CASCACHE_ASSIGN_OR_RETURN(inputs->network,
                            sim::Network::Build(spec.network,
                                                &inputs->catalog()));
  const Clock::time_point t3 = Clock::now();
  times->generate_s = SecondsBetween(t0, t1);
  times->map_s = spec.mapped ? SecondsBetween(t1, t2) : 0.0;
  times->build_s = SecondsBetween(t2, t3);
  return util::Status::Ok();
}

/// Deletes the scratch trace file on every exit path.
struct ScratchFile {
  std::string path;
  ~ScratchFile() {
    if (!path.empty()) std::remove(path.c_str());
  }
};

// --- Replay ------------------------------------------------------------------

struct CellResult {
  sim::MetricsSummary summary;
  std::vector<sim::NodeCounters> nodes;
};

/// One replay of every cell of a workload.
struct Rep {
  std::vector<CellResult> cells;
  uint64_t replayed = 0;  ///< Requests replayed (warm-up + measured).
  double run_s = 0.0;     ///< Summed Simulator::Run wall time.
  double configure_s = 0.0;
  HookSpans hooks;
  uint64_t release_ns = 0;
  uint64_t release_calls = 0;
  int failed_cells = 0;  ///< Cells failing a reconciliation identity.
  std::string digest;
  double probe_rate = kReferenceProbeRate;  ///< HostProbe just before.

  double rps() const { return Ratio(static_cast<double>(replayed), run_s); }
  /// rps() at the reference host speed.
  double NormalizedRps() const {
    return rps() * kReferenceProbeRate / probe_rate;
  }
  /// `v` per replayed request.
  double PerReq(double v) const {
    return Ratio(v, static_cast<double>(replayed));
  }
};

/// Digest of every simulation output of a cell: all MetricsSummary fields
/// and every node's counters (host timings are not part of it).
void DigestCell(const CellResult& r, Digest* d) {
  const sim::MetricsSummary& m = r.summary;
  for (const double v :
       {m.avg_latency, m.avg_response_ratio, m.byte_hit_ratio, m.hit_ratio,
        m.avg_traffic_byte_hops, m.avg_hops, m.avg_load_bytes,
        m.read_load_share, m.avg_write_bytes, m.stale_hit_ratio,
        m.avg_request_msg_bytes, m.avg_response_msg_bytes,
        m.avg_message_bytes, m.avg_queue_wait}) {
    d->Add(v);
  }
  for (const uint64_t v :
       {m.requests, m.total_bytes_requested, m.bytes_from_caches,
        m.copies_expired, m.copies_invalidated, m.cache_hits, m.stale_hits,
        m.insertions, m.bytes_written, m.retries, m.failed_requests,
        m.reroutes, m.crashes_applied, m.degraded_decisions, m.shed_requests,
        m.shed_placements, m.served_requests, m.bytes_read, m.ram_hits,
        m.disk_hits, m.promotions, m.demotions, m.sibling_probes,
        m.sibling_hits, m.disk_degraded}) {
    d->Add(v);
  }
  for (const sim::NodeCounters& c : r.nodes) {
    for (const uint64_t v :
         {c.hits, c.misses, c.evictions, c.placements, c.placements_rejected,
          c.expirations, c.invalidations, c.stale_serves, c.dcache_hits,
          c.bytes_served, c.bytes_cached, c.crashes, c.retries, c.reroutes,
          c.degraded, c.sheds, c.store_sheds, c.max_queue_depth, c.ram_hits,
          c.disk_hits, c.promotions, c.demotions, c.sibling_probes,
          c.sibling_serves, c.disk_degraded}) {
      d->Add(v);
    }
  }
}

/// The reconciliation identities every cell must satisfy; failures are
/// appended to `errors`.
bool CheckCell(const std::string& label, const CellResult& r,
               std::vector<std::string>* errors) {
  const sim::MetricsSummary& m = r.summary;
  sim::NodeCounters total;
  for (const sim::NodeCounters& c : r.nodes) total += c;
  bool all_ok = true;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) errors->push_back(label + ": " + what);
    all_ok = all_ok && ok;
  };
  expect(m.requests > 0, "no measured requests");
  expect(m.requests ==
             m.served_requests + m.failed_requests + m.shed_requests,
         "requests != served + failed + shed");
  expect(total.hits == m.cache_hits, "sum of node hits != cache_hits");
  expect(total.sheds == m.shed_requests, "sum of node sheds != shed_requests");
  expect(total.sibling_serves == m.sibling_hits,
         "sum of sibling_serves != sibling_hits");
  return all_ok;
}

util::StatusOr<Rep> Replay(const WorkloadSpec& spec, Inputs* inputs,
                           sim::CacheSet* caches, bool traced,
                           std::vector<std::string>* errors) {
  Rep rep;
  Digest digest;
  for (const Cell& cell : spec.cells) {
    schemes::SchemeSpec scheme_spec;
    scheme_spec.kind = cell.kind;
    CASCACHE_ASSIGN_OR_RETURN(std::unique_ptr<schemes::CachingScheme> scheme,
                              schemes::MakeScheme(scheme_spec));
    if (traced) {
      scheme = std::make_unique<TimingScheme>(std::move(scheme), kSampleEvery,
                                              &rep.hooks);
    }
    trace::WorkloadView view = inputs->View();
    if (traced && view.on_consumed) {
      view.on_consumed = [&rep, release = std::move(view.on_consumed)](
                             size_t consumed) {
        const Clock::time_point start = Clock::now();
        release(consumed);
        rep.release_ns += static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - start)
                .count());
        ++rep.release_calls;
      };
    }
    // Capacity exactly as the experiment runner sizes a sweep cell.
    const uint64_t capacity = std::max<uint64_t>(
        1, static_cast<uint64_t>(
               cell.fraction *
               static_cast<double>(view.catalog->total_bytes())));
    sim::Simulator simulator(inputs->network.get(), caches, scheme.get(),
                             spec.sim);
    const Clock::time_point start = Clock::now();
    CASCACHE_RETURN_IF_ERROR(simulator.Run(view, capacity));
    rep.run_s += SecondsBetween(start, Clock::now());
    rep.configure_s += simulator.phase_times().configure_seconds;
    rep.replayed += view.requests.size();

    CellResult result;
    result.summary = simulator.metrics().Summary();
    result.nodes = simulator.metrics().node_counters();
    char label[96];
    std::snprintf(label, sizeof(label), "%s %s@%g", spec.name.c_str(),
                  scheme_spec.Label().c_str(), cell.fraction);
    if (!CheckCell(label, result, errors)) ++rep.failed_cells;
    DigestCell(result, &digest);
    rep.cells.push_back(std::move(result));
  }
  rep.digest = digest.Hex();
  return rep;
}

/// Keeps the scan's result observable so the loop is not optimised away.
volatile uint64_t scan_sink = 0;

/// Standalone pass over the request span reading each request's object
/// size and origin server, as the replay's decode stage does.
double ScanNsPerReq(const Inputs& inputs) {
  const trace::ObjectCatalog& catalog = inputs.catalog();
  const trace::RequestSpan requests = inputs.requests();
  const Clock::time_point start = Clock::now();
  uint64_t sum = 0;
  for (const trace::Request& r : requests) {
    sum += catalog.size(r.object) + catalog.server(r.object);
  }
  const double ns = SecondsBetween(start, Clock::now()) * 1e9;
  scan_sink = sum;
  return Ratio(ns, static_cast<double>(requests.size()));
}

// --- Output ------------------------------------------------------------------

long PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %ld kB", &kb) == 1) return kb;
  }
  return -1;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t begin = line.find_first_not_of(' ', colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string SamplesJson(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

/// Expected digest of `workload` in a flat {"name": "hex", ...} JSON file;
/// empty when the file or the entry is missing.
std::string ExpectedDigest(const std::string& path,
                           const std::string& workload) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const size_t key = text.find("\"" + workload + "\"");
  if (key == std::string::npos) return "";
  const size_t open = text.find('"', text.find(':', key) + 1);
  const size_t close = text.find('"', open + 1);
  if (open == std::string::npos || close == std::string::npos) return "";
  return text.substr(open + 1, close - open - 1);
}

// --- Main --------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 20.0;
  bool traced = false;
  double scale = 1.0;
  std::string scratch = ".";
  std::string git_rev = "unknown";
  std::string git_dirty = "unknown";
  std::string expected;
  bool list = false;
};

util::StatusOr<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key == "--list") {
      args.list = true;
      continue;
    }
    if (const size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return util::Status::InvalidArgument("missing value for " + key);
    }
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        return util::Status::InvalidArgument("--trace must be 0 or 1");
      }
      args.traced = value == "1";
    } else if (key == "--scale") {
      args.scale = std::strtod(value.c_str(), &end);
    } else if (key == "--scratch") {
      args.scratch = value;
    } else if (key == "--git-rev") {
      args.git_rev = value;
    } else if (key == "--git-dirty") {
      args.git_dirty = value;
    } else if (key == "--expected") {
      args.expected = value;
    } else {
      return util::Status::InvalidArgument("unknown flag " + key);
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      return util::Status::InvalidArgument("bad value for " + key + ": " +
                                           value);
    }
  }
  if (!(args.seconds >= 0.0) || !(args.scale > 0.0)) {
    return util::Status::InvalidArgument("--seconds >= 0 and --scale > 0");
  }
  return args;
}

/// Everything one run measured.
struct Measurement {
  Rep canonical;  ///< Untimed replay of the canonical input.
  std::vector<SetupTimes> setups;
  Rep warmup;               ///< Untimed first replay of the seed's input.
  std::vector<Rep> plain;   ///< Timed untraced replays.
  std::vector<Rep> traced;  ///< Timed traced replays (--trace 1 only).
  std::vector<double> scan_ns_per_req;  ///< --trace 1 only.
  std::vector<std::string> errors;
  int attempted = 0;  ///< Cell replays.
  int failed = 0;     ///< Cell replays failing an output check.

  void Count(const Rep& rep) {
    attempted += static_cast<int>(rep.cells.size());
    failed += rep.failed_cells;
  }
};

/// Replays the canonical input once, untimed. Then sets the workload up
/// several times on the seed's input and replays it, one untimed warm-up
/// replay first, until args.seconds have passed. Every replay is checked.
util::Status Measure(const Args& args, const WorkloadSpec& canonical,
                     const WorkloadSpec& spec, Measurement* m) {
  ScratchFile scratch;
  if (spec.mapped) {
    scratch.path = args.scratch + "/" + spec.name + "." +
                   std::to_string(::getpid()) + ".cctr";
  }
  // The canonical input (seed kDefaultSeed) gives the simulated end-to-end
  // metrics. They are exact and the same for every --seed, so any change
  // in simulation results moves them. Its inputs are released before the
  // timed set-ups, so they do not add to the peak RSS.
  {
    Inputs inputs;
    SetupTimes untimed;
    CASCACHE_RETURN_IF_ERROR(SetUp(canonical, scratch.path, &inputs, &untimed));
    sim::CacheSet caches = inputs.network->MakeCacheSet();
    CASCACHE_ASSIGN_OR_RETURN(
        m->canonical, Replay(canonical, &inputs, &caches, false, &m->errors));
    m->Count(m->canonical);
  }

  HostProbe probe;
  Inputs inputs;  // The last set-up's inputs are replayed.
  const Clock::time_point setup_start = Clock::now();
  while (static_cast<int>(m->setups.size()) < kMinSetups ||
         (static_cast<int>(m->setups.size()) < kMaxSetups &&
          SecondsBetween(setup_start, Clock::now()) <
              kSetupShare * args.seconds)) {
    SetupTimes times;
    times.probe_rate = probe.ReadsPerSecond();
    CASCACHE_RETURN_IF_ERROR(SetUp(spec, scratch.path, &inputs, &times));
    m->setups.push_back(times);
  }
  sim::CacheSet caches = inputs.network->MakeCacheSet();

  // The first replay of fresh inputs pays page faults the later ones do
  // not; it is checked but not timed.
  CASCACHE_ASSIGN_OR_RETURN(
      m->warmup, Replay(spec, &inputs, &caches, false, &m->errors));
  m->Count(m->warmup);

  // A traced run alternates an untraced and a traced replay, so each pair
  // sees the same host conditions. Every other pair starts with the
  // traced replay, so the order does not bias the overhead.
  const Clock::time_point start = Clock::now();
  const int min_reps = args.traced ? kMinTracedPairs : kMinReps;
  while (static_cast<int>(m->plain.size()) < min_reps ||
         SecondsBetween(start, Clock::now()) < args.seconds) {
    const bool spans_first = m->traced.size() % 2 == 1;
    for (const bool with_spans : {spans_first, !spans_first}) {
      if (with_spans && !args.traced) continue;
      const double probe_rate = probe.ReadsPerSecond();
      CASCACHE_ASSIGN_OR_RETURN(
          Rep rep, Replay(spec, &inputs, &caches, with_spans, &m->errors));
      rep.probe_rate = probe_rate;
      m->Count(rep);
      (with_spans ? m->traced : m->plain).push_back(std::move(rep));
    }
  }

  // Outputs must repeat bit for bit across replays, traced or not.
  const std::string& digest = m->warmup.digest;
  for (const std::vector<Rep>* reps : {&m->plain, &m->traced}) {
    for (const Rep& rep : *reps) {
      if (rep.digest == digest) continue;
      m->failed += static_cast<int>(rep.cells.size()) - rep.failed_cells;
      m->errors.push_back("digest " + rep.digest + " != first replay's " +
                          digest);
    }
  }

  if (args.traced) {
    for (int i = 0; i < kScanReps; ++i) {
      m->scan_ns_per_req.push_back(ScanNsPerReq(inputs));
      // Drop the scanned pages again so every scan faults them in, as
      // the page-releasing replay does.
      if (inputs.mapped != nullptr) {
        inputs.View().on_consumed(inputs.mapped->num_requests());
      }
    }
  }
  return util::Status::Ok();
}

/// Simulated totals over the cells' measured phases (deterministic).
struct Totals {
  double requests = 0;
  double served = 0;
  double bytes = 0;
  double cached_bytes = 0;
  double latency = 0;  ///< Request-weighted sums of the cell means.
  double hops = 0;
  double msg_bytes = 0;
  double queue_wait = 0;
  uint64_t cache_hits = 0;
  uint64_t shed_requests = 0;
  uint64_t shed_placements = 0;
  uint64_t insertions = 0;
  uint64_t retries = 0;
  uint64_t crashes = 0;
  uint64_t disk_degraded = 0;
  uint64_t invalidations = 0;
  uint64_t ram_hits = 0;
  uint64_t promotions = 0;
  uint64_t sibling_probes = 0;
  uint64_t sibling_hits = 0;
  sim::NodeCounters nodes;

  explicit Totals(const std::vector<CellResult>& cells) {
    for (const CellResult& c : cells) {
      const sim::MetricsSummary& m = c.summary;
      const double n = static_cast<double>(m.requests);
      requests += n;
      served += static_cast<double>(m.served_requests);
      bytes += static_cast<double>(m.total_bytes_requested);
      cached_bytes += static_cast<double>(m.bytes_from_caches);
      latency += m.avg_latency * n;
      hops += m.avg_hops * n;
      msg_bytes += m.avg_message_bytes * n;
      queue_wait += m.avg_queue_wait * n;
      cache_hits += m.cache_hits;
      shed_requests += m.shed_requests;
      shed_placements += m.shed_placements;
      insertions += m.insertions;
      retries += m.retries;
      crashes += m.crashes_applied;
      disk_degraded += m.disk_degraded;
      invalidations += m.copies_invalidated;
      ram_hits += m.ram_hits;
      promotions += m.promotions;
      sibling_probes += m.sibling_probes;
      sibling_hits += m.sibling_hits;
      for (const sim::NodeCounters& node : c.nodes) nodes += node;
    }
  }
  double PerReq(double v) const { return Ratio(v, requests); }
};

double D(uint64_t v) { return static_cast<double>(v); }

template <typename Field>
double MedianOf(const std::vector<Rep>& reps, Field field) {
  std::vector<double> values;
  for (const Rep& rep : reps) values.push_back(field(rep));
  return Median(values);
}

template <typename Field>
double MedianOf(const std::vector<SetupTimes>& setups, Field field) {
  std::vector<double> values;
  for (const SetupTimes& s : setups) values.push_back(s.*field);
  return Median(values);
}

std::vector<Metric> EndToEndMetrics(const Measurement& m, const Totals& t) {
  std::vector<double> setup_s;
  for (const SetupTimes& s : m.setups) setup_s.push_back(s.Normalized());
  // The probe's table is resident for the whole run; leave it out.
  const double rss_kb = static_cast<double>(PeakRssKb()) -
                        static_cast<double>(HostProbe::kTableBytes) / 1024.0;
  return {
      {"replay_rps",
       MedianOf(m.plain, [](const Rep& r) { return r.NormalizedRps(); }),
       "req/s"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", rss_kb / 1024.0, "MB"},
      {"byte_hit_ratio", Ratio(t.cached_bytes, t.bytes), "ratio"},
      {"sim_latency_s", t.PerReq(t.latency), "sim_s"},
      {"served_share", t.PerReq(t.served), "ratio"},
  };
}

std::vector<Metric> PerLayerMetrics(const Measurement& m, const Totals& t) {
  const TickClock clock = TickClock::Calibrate();
  const auto hook_ns_per_req = [&](HookSpan HookSpans::*hook) {
    return MedianOf(m.traced, [&](const Rep& r) {
      return r.PerReq((r.hooks.*hook).EstimatedNs(clock));
    });
  };
  const auto self_ns_per_req = [&](const Rep& r) {
    const HookSpans& h = r.hooks;
    const double hooks_ns =
        h.ascend.EstimatedNs(clock) + h.serve.EstimatedNs(clock) +
        h.descend.EstimatedNs(clock) + h.sibling.EstimatedNs(clock);
    return Ratio(1e9, r.rps()) - r.PerReq(hooks_ns + D(r.release_ns));
  };
  // Adjacent untraced and traced replays ran under the same host
  // conditions, so the overhead is taken pair by pair from their raw
  // rates; scaling each by its own probe would only add the probe's noise.
  std::vector<double> overhead_pct;
  for (size_t i = 0; i < m.traced.size(); ++i) {
    overhead_pct.push_back(
        (Ratio(m.plain[i].rps(), m.traced[i].rps()) - 1) * 100);
  }
  const Rep& first = m.traced.front();
  const sim::NodeCounters& n = t.nodes;
  return {
      {"trace.generate_s", MedianOf(m.setups, &SetupTimes::generate_s), "s"},
      {"trace.map_s", MedianOf(m.setups, &SetupTimes::map_s), "s"},
      {"trace.release_ns_per_req",
       MedianOf(m.traced, [](const Rep& r) { return r.PerReq(D(r.release_ns)); }),
       "ns/req"},
      {"trace.release_calls", D(first.release_calls), "count"},
      {"trace.scan_ns_per_req", Median(m.scan_ns_per_req), "ns/req"},
      {"network.build_s", MedianOf(m.setups, &SetupTimes::build_s), "s"},
      {"schemes.ascend_ns_per_req", hook_ns_per_req(&HookSpans::ascend),
       "ns/req"},
      {"schemes.serve_ns_per_req", hook_ns_per_req(&HookSpans::serve),
       "ns/req"},
      {"schemes.descend_ns_per_req", hook_ns_per_req(&HookSpans::descend),
       "ns/req"},
      {"schemes.sibling_ns_per_req", hook_ns_per_req(&HookSpans::sibling),
       "ns/req"},
      {"schemes.ascend_calls_per_req", first.PerReq(D(first.hooks.ascend.calls)),
       "calls/req"},
      {"schemes.descend_calls_per_req",
       first.PerReq(D(first.hooks.descend.calls)), "calls/req"},
      {"schemes.abort_calls", D(first.hooks.abort_calls), "count"},
      {"sim.configure_s",
       MedianOf(m.traced, [](const Rep& r) { return r.configure_s; }), "s"},
      {"sim.replay_ns_per_req",
       MedianOf(m.traced, [](const Rep& r) { return Ratio(1e9, r.rps()); }),
       "ns/req"},
      {"sim.self_ns_per_req", MedianOf(m.traced, self_ns_per_req), "ns/req"},
      {"sim.hops_per_req", t.PerReq(t.hops), "hops/req"},
      {"sim.msg_bytes_per_req", t.PerReq(t.msg_bytes), "B/req"},
      {"sim.shed_share", t.PerReq(D(t.shed_requests)), "ratio"},
      {"sim.store_shed_share",
       Ratio(D(t.shed_placements), D(t.insertions + t.shed_placements)),
       "ratio"},
      {"sim.queue_wait_s", t.PerReq(t.queue_wait), "sim_s"},
      {"sim.max_queue_depth", D(n.max_queue_depth), "count"},
      {"sim.retries_per_req", t.PerReq(D(t.retries)), "1/req"},
      {"sim.crashes", D(t.crashes), "count"},
      {"sim.disk_degraded_per_req", t.PerReq(D(t.disk_degraded)), "1/req"},
      {"sim.invalidations_per_req", t.PerReq(D(t.invalidations)), "1/req"},
      {"cache.placements_per_req", t.PerReq(D(n.placements)), "1/req"},
      {"cache.evictions_per_req", t.PerReq(D(n.evictions)), "1/req"},
      {"cache.placement_reject_share",
       Ratio(D(n.placements_rejected), D(n.placements + n.placements_rejected)),
       "ratio"},
      {"cache.dcache_hit_share", Ratio(D(n.dcache_hits), D(n.misses)), "ratio"},
      {"cache.ram_hit_share", Ratio(D(t.ram_hits), D(t.cache_hits)), "ratio"},
      {"cache.promotions_per_req", t.PerReq(D(t.promotions)), "1/req"},
      {"cache.sibling_hit_share", Ratio(D(t.sibling_hits), D(t.sibling_probes)),
       "ratio"},
      {"bench.tracing_overhead_pct", Median(overhead_pct), "%"},
      {"bench.host_probe_rate",
       MedianOf(m.traced, [](const Rep& r) { return r.probe_rate; }), "1/s"},
  };
}

/// The full record: provenance, config, digest, samples and metrics.
std::string RecordJson(const Args& args, const WorkloadSpec& spec,
                       const Measurement& m, const std::string& expected_match,
                       const std::vector<Metric>& metrics) {
  const std::string config = ConfigText(spec);
  Digest config_hash;
  config_hash.Add(config);
  std::vector<double> setup_s, setup_probe, rps, rps_probe, traced_rps;
  for (const SetupTimes& s : m.setups) {
    setup_s.push_back(s.total());
    setup_probe.push_back(s.probe_rate);
  }
  for (const Rep& rep : m.plain) {
    rps.push_back(rep.rps());
    rps_probe.push_back(rep.probe_rate);
  }
  for (const Rep& rep : m.traced) traced_rps.push_back(rep.rps());
  return "{\"bench\": \"canonical\", \"schema\": 1, \"workload\": " +
         JsonString(spec.name) + ", \"seed\": " + std::to_string(args.seed) +
         ", \"scale\": " + JsonNumber(args.scale) +
         ", \"trace\": " + (args.traced ? "1" : "0") +
         ", \"seconds\": " + JsonNumber(args.seconds) +
         ", \"config_hash\": " + JsonString(config_hash.Hex()) +
         ", \"config\": " + JsonString(config) +
         ", \"provenance\": {\"nproc\": " +
         std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"cpu\": " + JsonString(CpuModel()) +
         ", \"compiler\": " + JsonString(__VERSION__) +
         ", \"build_type\": " + JsonString(CANONICAL_BUILD_TYPE) +
         ", \"cxx_flags\": " + JsonString(CANONICAL_CXX_FLAGS) +
         ", \"git_rev\": " + JsonString(args.git_rev) +
         ", \"git_dirty\": " + JsonString(args.git_dirty) +
         "}, \"reps\": " + std::to_string(m.plain.size()) +
         ", \"traced_reps\": " + std::to_string(m.traced.size()) +
         ", \"digest\": " + JsonString(m.warmup.digest) +
         ", \"canonical_digest\": " + JsonString(m.canonical.digest) +
         ", \"expected_digest_match\": " + expected_match +
         ", \"correct\": " + (m.errors.empty() ? "true" : "false") +
         ", \"reference_probe_rate\": " + JsonNumber(kReferenceProbeRate) +
         ", \"samples\": {\"setup_s\": " + SamplesJson(setup_s) +
         ", \"setup_probe_rate\": " + SamplesJson(setup_probe) +
         ", \"replay_rps\": " + SamplesJson(rps) +
         ", \"replay_probe_rate\": " + SamplesJson(rps_probe) +
         ", \"traced_replay_rps\": " + SamplesJson(traced_rps) +
         "}, \"metrics\": " + MetricsJson(metrics) + "}";
}

int Run(const Args& args) {
  util::StatusOr<WorkloadSpec> spec = MakeSpec(args.workload, args.seed,
                                               args.scale);
  util::StatusOr<WorkloadSpec> canonical =
      MakeSpec(args.workload, kDefaultSeed, args.scale);
  Measurement m;
  util::Status status =
      spec.ok() ? Measure(args, *canonical, *spec, &m) : spec.status();
  if (!status.ok()) {
    std::fprintf(stderr, "canonical: %s\n", status.ToString().c_str());
    return 2;
  }

  const std::string& digest = m.canonical.digest;
  std::string expected_match = "null";
  if (!args.expected.empty() && args.scale == 1.0) {
    const std::string expected = ExpectedDigest(args.expected, spec->name);
    if (!expected.empty()) {
      expected_match = expected == digest ? "true" : "false";
      if (expected != digest) {
        std::fprintf(stderr,
                     "canonical: warning: %s digest %s differs from the "
                     "expected %s\n",
                     spec->name.c_str(), digest.c_str(), expected.c_str());
      }
    }
  }
  for (const std::string& e : m.errors) {
    std::fprintf(stderr, "canonical: check failed: %s\n", e.c_str());
  }

  const std::vector<Metric> metrics =
      args.traced ? PerLayerMetrics(m, Totals(m.warmup.cells))
                  : EndToEndMetrics(m, Totals(m.canonical.cells));
  const bool correct = m.errors.empty();
  std::printf("%s\n",
              RecordJson(args, *spec, m, expected_match, metrics).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n",
      correct ? "true" : "false", m.attempted, m.failed,
      MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace cascache::canonical

int main(int argc, char** argv) {
  using namespace cascache::canonical;
  const cascache::util::StatusOr<Args> args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "canonical: %s\n", args.status().ToString().c_str());
    return 2;
  }
  if (args->list) {
    for (const char* name : kWorkloadNames) std::printf("%s\n", name);
    return 0;
  }
  return Run(*args);
}
