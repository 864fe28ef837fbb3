// Tests for the non-stationary workload model library (workload_model.h):
// determinism and statistical properties of each component (popularity
// drift, flash crowds, diurnal cycles, client sessions, regional skew),
// the procedural 10^8-scale catalog, and the v3 trace round-trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "trace/mapped_trace.h"
#include "trace/synthetic.h"
#include "trace/trace_io.h"
#include "trace/workload_model.h"

namespace cascache::trace {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + name;
}

WorkloadParams BaseParams() {
  WorkloadParams params;
  params.num_objects = 1000;
  params.num_requests = 120'000;
  params.num_clients = 50;
  params.num_servers = 10;
  params.request_rate = 100.0;  // ~1200 s of simulated time.
  params.seed = 33;
  return params;
}

void ExpectIdenticalRequests(const Workload& a, const Workload& b) {
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (size_t i = 0; i < a.requests.size(); ++i) {
    ASSERT_EQ(a.requests[i].object, b.requests[i].object) << "request " << i;
    ASSERT_EQ(a.requests[i].client, b.requests[i].client) << "request " << i;
    ASSERT_DOUBLE_EQ(a.requests[i].time, b.requests[i].time)
        << "request " << i;
  }
}

/// One parameter set per model component plus the full combination.
std::vector<WorkloadParams> AllModelConfigs() {
  std::vector<WorkloadParams> configs;
  {
    WorkloadParams p = BaseParams();
    p.model.drift_mode = DriftMode::kRotate;
    p.model.drift_half_life_s = 600.0;
    configs.push_back(p);
  }
  {
    WorkloadParams p = BaseParams();
    p.model.drift_mode = DriftMode::kShuffle;
    p.model.drift_half_life_s = 300.0;
    configs.push_back(p);
  }
  {
    WorkloadParams p = BaseParams();
    p.model.flash_rate_per_hour = 30.0;
    p.model.flash_objects = 16;
    p.model.flash_peak_share = 0.5;
    configs.push_back(p);
  }
  {
    WorkloadParams p = BaseParams();
    p.model.diurnal_amplitude = 0.8;
    p.model.diurnal_period_s = 1200.0;
    configs.push_back(p);
  }
  {
    WorkloadParams p = BaseParams();
    p.model.session_prob = 0.5;
    p.model.session_mean_run = 20.0;
    configs.push_back(p);
  }
  {
    WorkloadParams p = BaseParams();
    p.model.regions = 4;
    p.model.regional_bias = 0.9;
    configs.push_back(p);
  }
  {
    WorkloadParams p = BaseParams();
    p.model.drift_mode = DriftMode::kRotate;
    p.model.drift_half_life_s = 600.0;
    p.model.flash_rate_per_hour = 10.0;
    p.model.diurnal_amplitude = 0.5;
    p.model.diurnal_period_s = 1200.0;
    p.model.session_prob = 0.3;
    p.model.regions = 4;
    p.model.regional_bias = 0.5;
    configs.push_back(p);
  }
  return configs;
}

TEST(WorkloadModelDeterminismTest, EveryModelIsAPureFunctionOfTheSeed) {
  for (const WorkloadParams& params : AllModelConfigs()) {
    ASSERT_TRUE(params.model.enabled());
    auto a = GenerateWorkload(params);
    auto b = GenerateWorkload(params);
    ASSERT_TRUE(a.ok() && b.ok());
    ExpectIdenticalRequests(*a, *b);
  }
}

TEST(WorkloadModelDeterminismTest, SeedChangesTheStream) {
  WorkloadParams params = AllModelConfigs().back();
  auto a = GenerateWorkload(params);
  params.seed += 1;
  auto b = GenerateWorkload(params);
  ASSERT_TRUE(a.ok() && b.ok());
  size_t diffs = 0;
  for (size_t i = 0; i < a->requests.size(); ++i) {
    diffs += a->requests[i].object != b->requests[i].object;
  }
  EXPECT_GT(diffs, a->requests.size() / 4);
}

TEST(WorkloadModelDeterminismTest, StreamedFileMatchesInRamGeneration) {
  // GenerateWorkloadToFile must consume the identical RNG stream, so the
  // trace read back is bit-for-bit the in-RAM workload. Checked both for
  // a materialized (v2) and a procedural (v3) catalog.
  for (const bool procedural : {false, true}) {
    WorkloadParams params = AllModelConfigs().back();
    params.procedural_catalog = procedural;
    const std::string path = TempPath("wm_streamed.cctr");
    ASSERT_TRUE(GenerateWorkloadToFile(params, path).ok());
    auto from_file = ReadTrace(path);
    auto in_ram = GenerateWorkload(params);
    ASSERT_TRUE(from_file.ok() && in_ram.ok());
    ExpectIdenticalRequests(*from_file, *in_ram);
    ASSERT_EQ(from_file->catalog.num_objects(), in_ram->catalog.num_objects());
    for (ObjectId id = 0; id < in_ram->catalog.num_objects(); id += 97) {
      ASSERT_EQ(from_file->catalog.size(id), in_ram->catalog.size(id));
      ASSERT_EQ(from_file->catalog.server(id), in_ram->catalog.server(id));
    }
    std::remove(path.c_str());
  }
}

/// Most frequent object over requests [begin, end).
ObjectId TopObject(const Workload& workload, size_t begin, size_t end) {
  std::vector<uint64_t> counts(workload.catalog.num_objects(), 0);
  for (size_t i = begin; i < end; ++i) ++counts[workload.requests[i].object];
  ObjectId top = 0;
  for (ObjectId id = 1; id < counts.size(); ++id) {
    if (counts[id] > counts[top]) top = id;
  }
  return top;
}

uint32_t CircularDistance(uint32_t a, uint32_t b, uint32_t n) {
  const uint32_t d = a > b ? a - b : b - a;
  return std::min(d, n - d);
}

TEST(DriftTest, RotationTracksTheConfiguredHalfLife) {
  // rotate mode shifts the identity of rank r by
  // offset(t) = floor(t / (2 * half_life) * n) mod n. With the trace
  // spanning ~2 half-lives, the hot set completes one full lap: the
  // top object of a late window sits near the predicted offset.
  WorkloadParams params = BaseParams();
  params.model.drift_mode = DriftMode::kRotate;
  params.model.drift_half_life_s = 600.0;
  auto workload = GenerateWorkload(params);
  ASSERT_TRUE(workload.ok());
  const size_t n_req = workload->requests.size();
  const uint32_t n = params.num_objects;

  // Early window: offset near 0, so the hottest object is near id 0.
  const ObjectId early = TopObject(*workload, 0, n_req / 20);
  EXPECT_LT(CircularDistance(early, 0, n), n / 8);

  // Window centered at ~92.5% of the trace: predicted offset from the
  // window's center time.
  const size_t begin = n_req * 9 / 10, end = n_req * 95 / 100;
  const double center_time = (workload->requests[begin].time +
                              workload->requests[end - 1].time) /
                             2.0;
  const uint32_t predicted = static_cast<uint32_t>(
      static_cast<uint64_t>(center_time / (2.0 * 600.0) * n) % n);
  const ObjectId late = TopObject(*workload, begin, end);
  EXPECT_LT(CircularDistance(late, predicted, n), n / 8)
      << "late top " << late << " predicted " << predicted;
}

/// L1 distance between the normalized popularity histograms of the two
/// trace halves — higher means the hot set drifted.
double HalfDrift(const Workload& workload) {
  const size_t half = workload.requests.size() / 2;
  std::vector<double> first(workload.catalog.num_objects(), 0.0);
  std::vector<double> second(workload.catalog.num_objects(), 0.0);
  for (size_t i = 0; i < workload.requests.size(); ++i) {
    (i < half ? first : second)[workload.requests[i].object] += 1.0;
  }
  double drift = 0.0;
  for (size_t i = 0; i < first.size(); ++i) {
    drift += std::abs(first[i] / half -
                      second[i] / (workload.requests.size() - half));
  }
  return drift;
}

TEST(DriftTest, ShuffleModeMovesTheHotSet) {
  WorkloadParams params = BaseParams();
  auto stationary = GenerateWorkload(params);
  params.model.drift_mode = DriftMode::kShuffle;
  params.model.drift_half_life_s = 300.0;
  auto drifted = GenerateWorkload(params);
  ASSERT_TRUE(stationary.ok() && drifted.ok());
  EXPECT_GT(HalfDrift(*drifted), HalfDrift(*stationary) * 2.0);
}

TEST(DriftTest, ShufflePreservesOverallSkew) {
  // Swapping ranks changes *which* objects are hot, not the rank-frequency
  // law itself.
  WorkloadParams params = BaseParams();
  params.model.drift_mode = DriftMode::kShuffle;
  params.model.drift_half_life_s = 1200.0;
  auto workload = GenerateWorkload(params);
  ASSERT_TRUE(workload.ok());
  std::vector<double> counts;
  for (uint64_t c : CountAccesses(*workload)) {
    counts.push_back(static_cast<double>(c));
  }
  std::sort(counts.rbegin(), counts.rend());
  // Head still dominates (theta ~ 0.8 gives the top 10% > 40% of mass).
  double head = 0.0, total = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    total += counts[i];
    if (i < counts.size() / 10) head += counts[i];
  }
  EXPECT_GT(head / total, 0.4);
}

TEST(DriftTest, ShuffleRefusesHugeCatalogs) {
  WorkloadParams params = BaseParams();
  params.num_objects = kDriftShuffleMaxObjects + 1;
  params.model.drift_mode = DriftMode::kShuffle;
  EXPECT_FALSE(GenerateWorkload(params).ok());
}

/// Max share of any single 16-object contiguous id range within
/// consecutive windows of `window` requests.
double MaxWindowRunShare(const Workload& workload, size_t window,
                         uint32_t run) {
  double max_share = 0.0;
  const uint32_t n = workload.catalog.num_objects();
  for (size_t begin = 0; begin + window <= workload.requests.size();
       begin += window) {
    std::vector<uint32_t> counts(n, 0);
    for (size_t i = begin; i < begin + window; ++i) {
      ++counts[workload.requests[i].object];
    }
    uint64_t sum = 0;
    for (uint32_t i = 0; i < run && i < n; ++i) sum += counts[i];
    uint64_t best = sum;
    for (uint32_t lo = 1; lo + run <= n; ++lo) {
      sum += counts[lo + run - 1];
      sum -= counts[lo - 1];
      best = std::max(best, sum);
    }
    max_share = std::max(
        max_share, static_cast<double>(best) / static_cast<double>(window));
  }
  return max_share;
}

TEST(FlashCrowdTest, PeaksConcentrateRequestsOnContiguousRuns) {
  WorkloadParams params = BaseParams();
  auto base = GenerateWorkload(params);
  params.model.flash_rate_per_hour = 30.0;
  params.model.flash_objects = 16;
  params.model.flash_peak_share = 0.5;
  params.model.flash_ramp_s = 60.0;
  params.model.flash_decay_s = 120.0;
  auto flash = GenerateWorkload(params);
  ASSERT_TRUE(base.ok() && flash.ok());
  const double base_share = MaxWindowRunShare(*base, 5000, 16);
  const double flash_share = MaxWindowRunShare(*flash, 5000, 16);
  EXPECT_GT(flash_share, base_share + 0.1)
      << "flash " << flash_share << " base " << base_share;
}

TEST(DiurnalTest, RequestRateFollowsTheCycle) {
  WorkloadParams params = BaseParams();
  params.model.diurnal_amplitude = 0.8;
  params.model.diurnal_period_s = 1200.0;
  auto workload = GenerateWorkload(params);
  ASSERT_TRUE(workload.ok());
  // rate(t) = base * (1 + 0.8 sin(2 pi t / P)): the first half-period
  // runs at ~1.51x base, the second at ~0.49x, so phase-folded counts
  // split roughly 3:1.
  uint64_t rising = 0, falling = 0;
  for (const Request& req : workload->requests) {
    (std::fmod(req.time, 1200.0) < 600.0 ? rising : falling) += 1;
  }
  EXPECT_GT(static_cast<double>(rising),
            1.8 * static_cast<double>(falling));
}

TEST(SessionTest, RunsAreSequentialPerClient) {
  WorkloadParams params = BaseParams();
  params.model.session_prob = 0.5;
  params.model.session_mean_run = 20.0;
  auto workload = GenerateWorkload(params);
  ASSERT_TRUE(workload.ok());
  // A session continuation requests the successor object of the same
  // client's previous request (segment streaming). With p=0.5 and mean
  // run 20, most requests are continuations.
  std::vector<ObjectId> prev(params.num_clients, UINT32_MAX);
  uint64_t continuations = 0;
  const uint32_t n = params.num_objects;
  for (const Request& req : workload->requests) {
    if (prev[req.client] != UINT32_MAX &&
        req.object == (prev[req.client] + 1) % n) {
      ++continuations;
    }
    prev[req.client] = req.object;
  }
  const double fraction = static_cast<double>(continuations) /
                          static_cast<double>(workload->requests.size());
  EXPECT_GT(fraction, 0.5);
  // And sessions must not appear when disabled.
  params.model.session_prob = 0.0;
  auto off = GenerateWorkload(params);
  ASSERT_TRUE(off.ok());
  std::fill(prev.begin(), prev.end(), UINT32_MAX);
  uint64_t accidental = 0;
  for (const Request& req : off->requests) {
    if (prev[req.client] != UINT32_MAX &&
        req.object == (prev[req.client] + 1) % n) {
      ++accidental;
    }
    prev[req.client] = req.object;
  }
  EXPECT_LT(accidental * 10, continuations);
}

TEST(RegionalTest, EachRegionPrefersItsShiftedHotSet) {
  WorkloadParams params = BaseParams();
  params.model.regions = 4;
  params.model.regional_bias = 0.9;
  auto workload = GenerateWorkload(params);
  ASSERT_TRUE(workload.ok());
  const uint32_t n = params.num_objects;
  const uint32_t stride = n / 4;  // Region r's hot set starts at r*stride.
  // Fraction of each region's requests landing in its own shifted head
  // (top decile of the region's rank order).
  std::vector<uint64_t> home(4, 0), total(4, 0);
  for (const Request& req : workload->requests) {
    const uint32_t region = req.client % 4;
    ++total[region];
    const uint32_t unshifted = (req.object + n - region * stride) % n;
    if (unshifted < n / 10) ++home[region];
  }
  for (uint32_t r = 0; r < 4; ++r) {
    ASSERT_GT(total[r], 0u);
    EXPECT_GT(static_cast<double>(home[r]) / total[r], 0.25)
        << "region " << r;
  }
  // Without the model, non-zero regions see almost nothing in their
  // shifted head (those are unpopular ids under the global law).
  params.model.regions = 0;
  params.model.regional_bias = 0.0;
  auto off = GenerateWorkload(params);
  ASSERT_TRUE(off.ok());
  uint64_t off_home = 0, off_total = 0;
  for (const Request& req : off->requests) {
    if (req.client % 4 != 1) continue;
    ++off_total;
    if ((req.object + n - stride) % n < n / 10) ++off_home;
  }
  EXPECT_LT(static_cast<double>(off_home) / off_total, 0.1);
}

TEST(WorkloadModelValidationTest, RejectsBadKnobs) {
  WorkloadParams params = BaseParams();
  params.model.drift_mode = DriftMode::kRotate;
  params.model.drift_half_life_s = 0.0;
  EXPECT_FALSE(GenerateWorkload(params).ok());

  params = BaseParams();
  params.model.flash_rate_per_hour = 10.0;
  params.model.flash_peak_share = 1.5;
  EXPECT_FALSE(GenerateWorkload(params).ok());

  params = BaseParams();
  params.model.diurnal_amplitude = 1.0;  // Must stay strictly below 1.
  EXPECT_FALSE(GenerateWorkload(params).ok());

  params = BaseParams();
  params.model.session_prob = 0.5;
  params.model.session_mean_run = 0.5;
  EXPECT_FALSE(GenerateWorkload(params).ok());

  params = BaseParams();
  params.model.regional_bias = 0.5;
  params.model.regions = 0;
  EXPECT_FALSE(GenerateWorkload(params).ok());

  params = BaseParams();
  params.model.regions = 2000;  // More regions than objects.
  params.model.regional_bias = 0.5;
  EXPECT_FALSE(GenerateWorkload(params).ok());
}

TEST(WorkloadModelValidationTest, RejectsNonFiniteKnobs) {
  WorkloadModelParams model;
  model.diurnal_amplitude = 0.5;
  model.diurnal_period_s = std::nan("");
  EXPECT_FALSE(ValidateWorkloadModel(model).ok());

  // An infinite flash rate would make the flash-event process spin.
  model = WorkloadModelParams();
  model.flash_rate_per_hour = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(ValidateWorkloadModel(model).ok());

  model = WorkloadModelParams();
  model.drift_mode = DriftMode::kRotate;
  model.drift_half_life_s = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(ValidateWorkloadModel(model).ok());
}

TEST(ProceduralCatalogTest, DeterministicAndBounded) {
  CatalogModel model;
  model.seed = 7;
  ObjectCatalog a, b;
  a.BuildProcedural(model, 1'000'000, 500);
  b.BuildProcedural(model, 1'000'000, 500);
  ASSERT_TRUE(a.procedural());
  ASSERT_EQ(a.num_objects(), 1'000'000u);
  for (ObjectId id = 0; id < a.num_objects(); id += 9973) {
    ASSERT_EQ(a.size(id), b.size(id));
    ASSERT_EQ(a.server(id), b.server(id));
    ASSERT_GE(a.size(id), model.min_size);
    ASSERT_LE(a.size(id), model.max_size);
    ASSERT_LT(a.server(id), 500u);
  }
  EXPECT_GT(a.total_bytes(), 0u);
}

TEST(ProceduralCatalogTest, HundredMillionObjectsStayCompact) {
  // The 10^8-object catalog the issue targets: representable as a 64 KiB
  // quantile table, not per-object arrays. Lookups stay deterministic
  // across independent builds.
  CatalogModel model;
  model.seed = 42;
  ObjectCatalog huge;
  huge.BuildProcedural(model, 100'000'000, 1000);
  ASSERT_EQ(huge.num_objects(), 100'000'000u);
  // The only per-catalog storage is the quantile table.
  EXPECT_EQ(huge.size_quantiles().size(), 65536u);
  ObjectCatalog again;
  again.BuildProcedural(model, 100'000'000, 1000);
  for (ObjectId id = 0; id < huge.num_objects(); id += 7'654'321) {
    ASSERT_EQ(huge.size(id), again.size(id));
    ASSERT_EQ(huge.server(id), again.server(id));
  }
}

TEST(ProceduralCatalogTest, RejectsCorruptModels) {
  CatalogModel model;
  model.lognormal_mu = std::nan("");
  EXPECT_FALSE(ValidateCatalogModel(model).ok());
  model = CatalogModel{};
  model.min_size = 0;
  EXPECT_FALSE(ValidateCatalogModel(model).ok());
  model = CatalogModel{};
  model.pareto_tail_prob = 2.0;
  EXPECT_FALSE(ValidateCatalogModel(model).ok());
  EXPECT_TRUE(ValidateCatalogModel(CatalogModel{}).ok());
}

TEST(TraceV3Test, RoundTripsThroughReaderAndMapping) {
  WorkloadParams params = BaseParams();
  params.num_requests = 20'000;
  params.procedural_catalog = true;
  params.model.drift_mode = DriftMode::kRotate;
  params.model.drift_half_life_s = 600.0;
  auto workload = GenerateWorkload(params);
  ASSERT_TRUE(workload.ok());
  ASSERT_TRUE(workload->catalog.procedural());

  const std::string path = TempPath("wm_v3.cctr");
  ASSERT_TRUE(WriteTrace(*workload, path).ok());

  auto read = ReadTrace(path);
  ASSERT_TRUE(read.ok());
  ASSERT_TRUE(read->catalog.procedural());
  ExpectIdenticalRequests(*workload, *read);

  auto mapped = MappedTrace::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  ASSERT_EQ((*mapped)->num_requests(), workload->requests.size());
  const ObjectCatalog& catalog = (*mapped)->catalog();
  ASSERT_EQ(catalog.num_objects(), workload->catalog.num_objects());
  for (ObjectId id = 0; id < catalog.num_objects(); id += 83) {
    ASSERT_EQ(catalog.size(id), workload->catalog.size(id));
    ASSERT_EQ(catalog.server(id), workload->catalog.server(id));
  }
  RequestSpan span = (*mapped)->requests();
  for (size_t i = 0; i < span.size(); i += 997) {
    ASSERT_EQ(span[i].object, workload->requests[i].object);
    ASSERT_DOUBLE_EQ(span[i].time, workload->requests[i].time);
  }
  std::remove(path.c_str());
}

TEST(TraceV3Test, RejectsCorruptModelBlock) {
  WorkloadParams params = BaseParams();
  params.num_requests = 1'000;
  params.procedural_catalog = true;
  const std::string path = TempPath("wm_v3_bad.cctr");
  ASSERT_TRUE(GenerateWorkloadToFile(params, path).ok());

  // The CatalogModel block sits at byte 32; lognormal_mu is its second
  // field (offset 40). Smash it with a NaN.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const double bad = std::nan("");
  ASSERT_EQ(std::fseek(f, 40, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&bad, sizeof(bad), 1, f), 1u);
  std::fclose(f);

  EXPECT_FALSE(ReadTrace(path).ok());
  EXPECT_FALSE(MappedTrace::Open(path).ok());
  std::remove(path.c_str());
}

TEST(TraceV3Test, SummaryReportsPerEpochSlopes) {
  WorkloadParams params = BaseParams();
  params.num_requests = 60'000;
  params.procedural_catalog = true;
  const std::string path = TempPath("wm_v3_sum.cctr");
  ASSERT_TRUE(GenerateWorkloadToFile(params, path).ok());
  SummarizeOptions options;
  options.epochs = 3;
  auto summary = SummarizeTrace(path, options);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->format_version, kTraceVersion3);
  ASSERT_EQ(summary->epoch_zipf_theta.size(), 3u);
  // A stationary trace has a flat per-epoch slope profile.
  for (double theta : summary->epoch_zipf_theta) {
    EXPECT_NEAR(theta, summary->epoch_zipf_theta[0], 0.05);
    EXPECT_GT(theta, 0.4);
  }
  options.epochs = 0;
  auto flat = SummarizeTrace(path, options);
  ASSERT_TRUE(flat.ok());
  EXPECT_TRUE(flat->epoch_zipf_theta.empty());
  std::remove(path.c_str());
}

TEST(ParallelReplayTest, DriftWorkloadIsBitIdenticalAcrossJobCounts) {
  sim::ExperimentConfig config;
  config.workload.num_objects = 500;
  config.workload.num_requests = 30'000;
  config.workload.num_clients = 40;
  config.workload.num_servers = 10;
  config.workload.seed = 9;
  config.workload.model.drift_mode = DriftMode::kRotate;
  config.workload.model.drift_half_life_s = 120.0;
  config.cache_fractions = {0.02};
  config.schemes = {{.kind = schemes::SchemeKind::kLru},
                    {.kind = schemes::SchemeKind::kCoordinated}};

  config.jobs = 1;
  auto sequential = sim::ExperimentRunner::Create(config);
  ASSERT_TRUE(sequential.ok());
  auto seq_results = (*sequential)->RunAll();
  ASSERT_TRUE(seq_results.ok());

  config.jobs = 4;
  auto parallel = sim::ExperimentRunner::Create(config);
  ASSERT_TRUE(parallel.ok());
  auto par_results = (*parallel)->RunAll();
  ASSERT_TRUE(par_results.ok());

  ASSERT_EQ(seq_results->size(), par_results->size());
  for (size_t i = 0; i < seq_results->size(); ++i) {
    const sim::RunResult& s = (*seq_results)[i];
    const sim::RunResult& p = (*par_results)[i];
    EXPECT_EQ(s.scheme, p.scheme);
    EXPECT_EQ(s.metrics.requests, p.metrics.requests);
    EXPECT_DOUBLE_EQ(s.metrics.byte_hit_ratio, p.metrics.byte_hit_ratio);
    EXPECT_DOUBLE_EQ(s.metrics.avg_latency, p.metrics.avg_latency);
  }
}

}  // namespace
}  // namespace cascache::trace
