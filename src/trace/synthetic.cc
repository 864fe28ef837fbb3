#include "trace/synthetic.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "trace/trace_io.h"
#include "util/random.h"
#include "util/zipf.h"

namespace cascache::trace {

namespace {

uint64_t SampleObjectSize(const WorkloadParams& p, util::Rng* rng) {
  double size;
  if (rng->NextBool(p.size_pareto_tail_prob)) {
    size = rng->NextPareto(p.size_pareto_scale, p.size_pareto_alpha);
  } else {
    size = rng->NextLogNormal(p.size_lognormal_mu, p.size_lognormal_sigma);
  }
  size = std::clamp(size, static_cast<double>(p.min_object_size),
                    static_cast<double>(p.max_object_size));
  return static_cast<uint64_t>(size);
}

util::Status ValidateParams(const WorkloadParams& params) {
  if (params.num_objects == 0) {
    return util::Status::InvalidArgument("num_objects must be > 0");
  }
  if (params.num_clients == 0 || params.num_servers == 0) {
    return util::Status::InvalidArgument("need clients and servers");
  }
  if (!std::isfinite(params.zipf_theta) || params.zipf_theta <= 0.0 ||
      !std::isfinite(params.client_zipf_theta) ||
      params.client_zipf_theta <= 0.0) {
    return util::Status::InvalidArgument(
        "Zipf exponents must be finite and > 0");
  }
  if (params.request_rate <= 0.0) {
    return util::Status::InvalidArgument("request_rate must be > 0");
  }
  if (params.min_object_size == 0 ||
      params.min_object_size > params.max_object_size) {
    return util::Status::InvalidArgument("bad object size bounds");
  }
  if (params.temporal_locality < 0.0 || params.temporal_locality > 1.0) {
    return util::Status::InvalidArgument("temporal_locality must be in [0,1]");
  }
  if (params.temporal_locality > 0.0 &&
      (params.temporal_window == 0 || params.temporal_mean_depth < 1.0)) {
    return util::Status::InvalidArgument("bad temporal locality parameters");
  }
  CASCACHE_RETURN_IF_ERROR(ValidateWorkloadModel(params.model));
  if (params.model.drift_mode == DriftMode::kShuffle &&
      params.num_objects > kDriftShuffleMaxObjects) {
    return util::Status::InvalidArgument(
        "drift_mode=shuffle materializes a rank permutation and is "
        "limited to 2^24 objects; use drift_mode=rotate");
  }
  if (params.model.regions > params.num_objects && params.model.regional_bias > 0.0) {
    return util::Status::InvalidArgument("regions must be <= num_objects");
  }
  return util::Status::Ok();
}

/// Builds the procedural (hashed) catalog from the size-model fields.
/// Consumes no rng: the catalog is a pure function of the model block,
/// which is what trace format v3 persists.
void BuildProceduralCatalog(const WorkloadParams& params,
                            ObjectCatalog* catalog) {
  CatalogModel model;
  model.seed = params.seed;
  model.lognormal_mu = params.size_lognormal_mu;
  model.lognormal_sigma = params.size_lognormal_sigma;
  model.pareto_tail_prob = params.size_pareto_tail_prob;
  model.pareto_scale = params.size_pareto_scale;
  model.pareto_alpha = params.size_pareto_alpha;
  model.min_size = params.min_object_size;
  model.max_size = params.max_object_size;
  catalog->BuildProcedural(model, params.num_objects, params.num_servers);
}

// Objects: id == popularity rank; size and origin server independent of
// rank (no popularity-size correlation, consistent with measurement
// studies). Must be the first consumer of `rng` so that the in-RAM and
// streamed generators stay bit-identical.
void BuildCatalog(const WorkloadParams& params, util::Rng* rng,
                  ObjectCatalog* catalog) {
  for (uint32_t i = 0; i < params.num_objects; ++i) {
    const uint64_t size = SampleObjectSize(params, rng);
    const ServerId server =
        static_cast<ServerId>(rng->NextUint64(params.num_servers));
    catalog->Add(size, server);
  }
}

constexpr double kTwoPi = 6.283185307179586476925286766559;

/// Traffic share multiplier of one flash event at the given age: linear
/// ramp to 1 over `ramp`, then exponential decay with constant `decay`.
double FlashEnvelope(double age, double ramp, double decay) {
  if (age <= 0.0) return 0.0;
  if (age < ramp) return age / ramp;
  return std::exp(-(age - ramp) / decay);
}

/// Geometric number of session continuations after the opening request
/// (mean (1-p)/p), drawn by inversion so it costs one uniform.
uint64_t SampleSessionRun(double p, util::Rng* rng) {
  const double u = rng->NextDouble();
  if (p >= 1.0) return 0;
  return static_cast<uint64_t>(std::log1p(-u) / std::log1p(-p));
}

// Generates the request stream, calling emit(req) once per request in
// time order. Every model component (workload_model.h) is off by
// default, and then the only draws are the arrival gap, the client, the
// temporal re-reference and the Zipf object: the stationary stream. The
// generator keeps only bounded state (temporal-locality ring, sessions,
// live flash events, the shuffle table), so the caller chooses between
// materializing the stream and writing it through.
template <typename Emit>
void EmitRequests(const WorkloadParams& params, util::Rng* rng, Emit&& emit) {
  const WorkloadModelParams& m = params.model;
  const uint32_t n = params.num_objects;
  const util::ZipfSampler object_pop(n, params.zipf_theta);
  const util::ZipfSampler client_pop(params.num_clients,
                                     params.client_zipf_theta);

  // Client ranks are shuffled into ids so that "hot" clients are spread
  // over the id space (and hence over network attach points).
  std::vector<ClientId> client_of_rank(params.num_clients);
  for (uint32_t i = 0; i < params.num_clients; ++i) client_of_rank[i] = i;
  rng->Shuffle(&client_of_rank);

  // Popularity drift. Rotate keeps only the wall clock (the id at rank r
  // is (r + offset(t)) mod n where offset sweeps the full id space every
  // two half-lives, so after one half-life half the hot mass has moved).
  // Shuffle keeps an explicit permutation mutated by Poisson swap events;
  // rate n ln2 / (2 h) makes a given rank's mapping survive one
  // half-life with probability ~1/2.
  const bool rotate = m.drift_mode == DriftMode::kRotate;
  const bool shuffling = m.drift_mode == DriftMode::kShuffle;
  const double rotate_period = 2.0 * m.drift_half_life_s;
  std::vector<ObjectId> rank_to_object;
  double next_swap = std::numeric_limits<double>::infinity();
  double swap_rate = 0.0;
  if (shuffling) {
    rank_to_object.resize(n);
    for (uint32_t i = 0; i < n; ++i) rank_to_object[i] = i;
    swap_rate = static_cast<double>(n) * 0.6931471805599453 /
                (2.0 * m.drift_half_life_s);
    next_swap = rng->NextExponential(swap_rate);
  }

  // Flash crowds: live events with their base id and birth time; the
  // envelope scratch is refreshed per request and reused for the
  // envelope-weighted event pick.
  struct FlashEvent {
    double start;
    ObjectId base;
  };
  std::vector<FlashEvent> flashes;
  std::vector<double> flash_env;
  const double flash_rate = m.flash_rate_per_hour / 3600.0;
  double next_flash = std::numeric_limits<double>::infinity();
  if (flash_rate > 0.0) next_flash = rng->NextExponential(flash_rate);

  // Sequential sessions (video-segment runs), keyed by client id.
  struct Session {
    ObjectId next = 0;
    uint64_t remaining = 0;
  };
  std::vector<Session> sessions;
  if (m.session_prob > 0.0) sessions.resize(params.num_clients);

  // Temporal locality: ring buffer of the most recent object ids.
  const bool temporal = params.temporal_locality > 0.0;
  std::vector<ObjectId> recent;
  size_t recent_head = 0;
  const double recency_p = temporal ? 1.0 / params.temporal_mean_depth : 0.0;

  const bool regional = m.regions > 0 && m.regional_bias > 0.0;
  const uint64_t region_stride =
      m.regions > 0 ? static_cast<uint64_t>(n) / m.regions : 0;
  const bool diurnal = m.diurnal_amplitude > 0.0;

  double now = 0.0;
  for (uint64_t r = 0; r < params.num_requests; ++r) {
    // (1) Arrival gap; the diurnal cycle modulates the instantaneous
    // Poisson rate (piecewise approximation at the current time).
    double rate = params.request_rate;
    if (diurnal) {
      rate *= 1.0 +
              m.diurnal_amplitude * std::sin(kTwoPi * now / m.diurnal_period_s);
      rate = std::max(rate, params.request_rate * 1e-6);
    }
    now += rng->NextExponential(rate);

    // (2) Process event streams that fired before this arrival.
    while (next_flash <= now) {
      flashes.push_back(
          {next_flash, static_cast<ObjectId>(rng->NextUint64(n))});
      next_flash += rng->NextExponential(flash_rate);
    }
    while (next_swap <= now) {
      const uint32_t a = static_cast<uint32_t>(rng->NextUint64(n));
      const uint32_t b = static_cast<uint32_t>(rng->NextUint64(n));
      std::swap(rank_to_object[a], rank_to_object[b]);
      next_swap += rng->NextExponential(swap_rate);
    }

    // Refresh flash envelopes, dropping events decayed below noise.
    double flash_p = 0.0;
    double env_total = 0.0;
    if (!flashes.empty()) {
      flash_env.clear();
      size_t keep = 0;
      for (const FlashEvent& e : flashes) {
        const double age = now - e.start;
        const double env = FlashEnvelope(age, m.flash_ramp_s, m.flash_decay_s);
        if (age > m.flash_ramp_s && env < 1e-3) continue;
        flashes[keep++] = e;
        flash_env.push_back(env);
        env_total += env;
      }
      flashes.resize(keep);
      flash_p = std::min(0.9, m.flash_peak_share * env_total);
    }

    Request req;
    req.time = now;
    // (3) Client draw.
    req.client = client_of_rank[client_pop.Sample(rng)];

    // (4) Session continuation preempts every other draw: the client is
    // mid-run and fetches the next sequential segment (no rng).
    Session* sess =
        sessions.empty() ? nullptr : &sessions[req.client];
    bool continued = false;
    bool picked = false;
    if (sess != nullptr && sess->remaining > 0) {
      req.object = sess->next;
      sess->next = (sess->next + 1) % n;
      --sess->remaining;
      continued = true;
      picked = true;
    }

    // Temporal re-reference: geometric stack depth, clamped to the
    // filled window.
    if (!picked && temporal && !recent.empty() &&
        rng->NextBool(params.temporal_locality)) {
      uint64_t depth = 0;
      while (depth + 1 < recent.size() && !rng->NextBool(recency_p)) ++depth;
      const size_t idx =
          (recent_head + recent.size() - 1 - static_cast<size_t>(depth)) %
          recent.size();
      req.object = recent[idx];
      picked = true;
    }

    // (5) Flash draw: pick an event weighted by its current envelope,
    // then a uniform object from its contiguous hot run. Flash ids are
    // final (drift does not remap them; the crowd chases those ids).
    if (!picked && flash_p > 0.0 && rng->NextBool(flash_p)) {
      double u = rng->NextDouble() * env_total;
      size_t e = 0;
      while (e + 1 < flashes.size() && u >= flash_env[e]) {
        u -= flash_env[e];
        ++e;
      }
      req.object = static_cast<ObjectId>(
          (static_cast<uint64_t>(flashes[e].base) +
           rng->NextUint64(m.flash_objects)) %
          n);
      picked = true;
    }

    // (6) Popularity draw with optional regional shift, then (7) the
    // drift transform last, so regional hot sets drift together.
    if (!picked) {
      uint64_t id = object_pop.Sample(rng);
      if (regional && rng->NextBool(m.regional_bias)) {
        const uint64_t region = req.client % m.regions;
        id = (id + region * region_stride) % n;
      }
      if (rotate) {
        const uint64_t offset =
            static_cast<uint64_t>((now / rotate_period) *
                                  static_cast<double>(n)) %
            n;
        id = (id + offset) % n;
      } else if (shuffling) {
        id = rank_to_object[id];
      }
      req.object = static_cast<ObjectId>(id);
    }

    // A fresh draw may open a session; continuations never re-roll.
    if (sess != nullptr && !continued && rng->NextBool(m.session_prob)) {
      sess->next = (req.object + 1) % n;
      sess->remaining = SampleSessionRun(1.0 / m.session_mean_run, rng);
    }

    if (temporal) {
      if (recent.size() < params.temporal_window) {
        recent.push_back(req.object);
        recent_head = 0;  // Head only matters once the ring is full.
      } else {
        recent[recent_head] = req.object;
        recent_head = (recent_head + 1) % recent.size();
      }
    }
    emit(req);
  }
}

}  // namespace

util::StatusOr<Workload> GenerateWorkload(const WorkloadParams& params) {
  CASCACHE_RETURN_IF_ERROR(ValidateParams(params));
  util::Rng rng(params.seed);
  Workload workload;
  if (params.procedural_catalog) {
    BuildProceduralCatalog(params, &workload.catalog);
  } else {
    BuildCatalog(params, &rng, &workload.catalog);
  }
  workload.requests.reserve(params.num_requests);
  EmitRequests(params, &rng, [&](const Request& req) {
    workload.requests.push_back(req);
  });
  return workload;
}

util::Status GenerateWorkloadToFile(const WorkloadParams& params,
                                    const std::string& path) {
  CASCACHE_RETURN_IF_ERROR(ValidateParams(params));
  util::Rng rng(params.seed);
  ObjectCatalog catalog;
  if (params.procedural_catalog) {
    BuildProceduralCatalog(params, &catalog);
  } else {
    BuildCatalog(params, &rng, &catalog);
  }

  CASCACHE_ASSIGN_OR_RETURN(
      std::unique_ptr<TraceWriter> writer,
      TraceWriter::Create(path, catalog, params.num_requests));

  // Buffer a bounded block of requests between Append calls; 64Ki
  // records = 1 MiB regardless of trace length.
  constexpr size_t kBlock = 64 * 1024;
  std::vector<Request> block;
  block.reserve(kBlock);
  util::Status write_status = util::Status::Ok();
  const auto sink = [&](const Request& req) {
    if (!write_status.ok()) return;
    block.push_back(req);
    if (block.size() == kBlock) {
      write_status = writer->Append(block.data(), block.size());
      block.clear();
    }
  };
  EmitRequests(params, &rng, sink);
  CASCACHE_RETURN_IF_ERROR(write_status);
  if (!block.empty()) {
    CASCACHE_RETURN_IF_ERROR(writer->Append(block.data(), block.size()));
  }
  return writer->Close();
}

std::vector<uint64_t> CountAccesses(const Workload& workload) {
  std::vector<uint64_t> counts(workload.catalog.num_objects(), 0);
  for (const Request& req : workload.requests) {
    CASCACHE_CHECK(req.object < counts.size());
    ++counts[req.object];
  }
  return counts;
}

}  // namespace cascache::trace
