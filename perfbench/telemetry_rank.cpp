// telemetry_rank — telemetry writes and reads, no simulator.
//
// Synthesises kTenants per-tenant streams from the seed (the set-up). The
// measured phase then alternates until --seconds have passed: a serial
// ingest of every stream into a fresh byte-capped TelemetryStore whose cap
// binds (pages seal and evict), then kRoundsPerIngest rounds of ranked
// queries on it, one query per shape of bench/telemetry_query. Alternating
// spreads both measurements over the whole run, so neither rides one phase
// of the host's speed drift. Each rate is the reciprocal of a sum of
// medians, one per step (ingest slice or query shape), so a burst of load
// from another process on the host slows a few short steps, not the figure.
// Every repeat of a shape, on every store, must return its first answer bit
// for bit. Two planted cohorts give the ranking a checkable answer: "hot"
// tenants flag in their last quarter and must outrank "warm" tenants that
// flag the same number of samples in their first quarter.
#include <algorithm>
#include <array>
#include <memory>

#include "bench.hpp"
#include "rtad/sim/rng.hpp"
#include "rtad/telemetry/query.hpp"
#include "rtad/telemetry/store.hpp"

namespace perfbench {

using namespace rtad;

namespace {

constexpr std::size_t kTenants = 100'000;
constexpr std::size_t kSamples = 24;
constexpr std::size_t kHot = 4;
constexpr std::size_t kWarm = 4;
constexpr std::size_t kMinQueries = 100;
/// Query rounds run on each store before the next ingest replaces it.
constexpr std::size_t kRoundsPerIngest = 2;
/// Tenants per timed slice of an ingest: ten slices, about 50 ms each.
constexpr std::size_t kSliceTenants = 10'000;
constexpr std::size_t kSlices = kTenants / kSliceTenants;
static_assert(kSlices * kSliceTenants == kTenants);
/// One set-up takes under a second, so it repeats more often than the
/// simulator workload's training before taking the median.
constexpr std::size_t kSetups = 5;
constexpr sim::Picoseconds kTickPs = 50 * sim::kPsPerUs;

struct Stream {
  std::string tenant;
  std::vector<telemetry::Sample> samples;
};

std::string tenant_name(std::size_t t) {
  if (t < kHot) return "hot-" + std::to_string(t);
  if (t < kHot + kWarm) return "warm-" + std::to_string(t - kHot);
  char buf[24];
  std::snprintf(buf, sizeof buf, "tenant-%07zu", t);
  return buf;
}

/// One tenant's stream, a pure function of (seed, tenant).
std::vector<telemetry::Sample> synthesize(std::uint64_t seed, std::size_t t) {
  sim::Xoshiro256 rng(mix_seed(seed, t));
  const bool hot = t < kHot;
  const bool warm = !hot && t < kHot + kWarm;
  constexpr std::size_t kBurst = kSamples / 4;
  std::vector<telemetry::Sample> out(kSamples);
  for (std::size_t i = 0; i < kSamples; ++i) {
    telemetry::Sample& s = out[i];
    s.at_ps = static_cast<sim::Picoseconds>(i + 1) * kTickPs;
    bool flag = rng.uniform() < 0.001;
    if (hot && i >= kSamples - kBurst) flag = true;
    if (warm && i < kBurst) flag = true;
    s.score = flag ? 0.8 + 0.2 * rng.uniform() : 0.4 * rng.uniform();
    s.flagged = flag;
  }
  return out;
}

std::vector<Stream> synthesize_all(std::uint64_t seed) {
  std::vector<Stream> streams(kTenants);
  for (std::size_t t = 0; t < kTenants; ++t) {
    streams[t].tenant = tenant_name(t);
    streams[t].samples = synthesize(seed, t);
  }
  return streams;
}

/// Serial ingest of every stream, in tenant order. With `slice_s` set, the
/// time of the i-th kSliceTenants-tenant slice is appended to slice_s[i].
void ingest(telemetry::TelemetryStore& store, const std::vector<Stream>& streams,
            std::array<std::vector<double>, kSlices>* slice_s = nullptr) {
  for (std::size_t i = 0; i < kSlices; ++i) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t t = i * kSliceTenants; t < (i + 1) * kSliceTenants; ++t) {
      for (const telemetry::Sample& x : streams[t].samples) {
        store.append(streams[t].tenant, x);
      }
    }
    if (slice_s) (*slice_s)[i].push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
}

/// Sum over steps of each step's median: the time of one typical pass.
template <std::size_t N>
double sum_of_medians(const std::array<std::vector<double>, N>& steps) {
  double sum = 0.0;
  for (const auto& s : steps) sum += median(s);
  return sum;
}

std::uint64_t rank_digest(const std::vector<telemetry::RankEntry>& ranked) {
  Digest d;
  for (const auto& e : ranked) {
    d.str(e.tenant).f64(e.severity).f64(e.anomaly_rate).f64(e.peak_score).u64(e.samples);
  }
  return d.value();
}

struct Shape {
  const char* name;
  telemetry::RankQuery query;
};

/// The four query shapes of bench/telemetry_query. A zero half-life
/// resolves to a quarter of the evaluated window (main() refuses to start
/// with RTAD_TELEMETRY_HALF_LIFE_US set, so nothing else can change it).
std::array<Shape, 4> shapes(sim::Picoseconds span_end) {
  telemetry::RankQuery q;
  q.top_k = 10;
  std::array<Shape, 4> s{};
  s[0] = {"full_window", q};
  q.t0 = span_end / 2;
  s[1] = {"recent_half", q};
  q.t0 = 0;
  q.t1 = span_end / 2;
  s[2] = {"early_half", q};
  q.t1 = ~sim::Picoseconds{0};
  q.half_life_ps = std::max<sim::Picoseconds>(span_end, 1) / 8;
  s[3] = {"fast_decay", q};
  return s;
}

}  // namespace

Outcome run_telemetry_rank(const RunConfig& cfg, Spans& spans) {
  Outcome out;

  // Page and cap sized so the cap binds: 2.4 M samples in 8-sample pages
  // overflow a 32 MiB resident budget, so the ring evicts during ingest.
  telemetry::StoreConfig scfg;
  scfg.page_samples = 8;
  scfg.fanout = 16;
  scfg.cap_bytes = 32ull * 1024 * 1024;
  scfg.spill_path.clear();

  // --- set-up, kSetups times (the last streams are kept): synthesise the
  // streams, then build a store from them, the work a query service does
  // before it can answer; the measured phase builds its own stores ---
  std::vector<double> setup_s;
  std::vector<Stream> streams;
  for (std::size_t i = 0; i < cfg.repeats(kSetups); ++i) {
    streams.clear();
    streams.shrink_to_fit();
    const std::uint64_t t0 = now_ns();
    {
      Spans::Scope scope(spans, "bench.synthesize", i);
      streams = synthesize_all(cfg.seed);
    }
    {
      Spans::Scope scope(spans, "telemetry.build_store", i);
      telemetry::TelemetryStore first_store(scfg);
      ingest(first_store, streams);
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // --- measured: each ingest into a fresh store is followed by query
  // rounds on it. ---
  std::unique_ptr<telemetry::TelemetryStore> store_ptr;
  std::array<Shape, 4> shape{};
  std::size_t ingests = 0;
  double ingest_s = 0.0;
  std::array<std::vector<double>, kSlices> slice_s;
  std::array<std::vector<double>, 4> shape_ms;
  std::array<std::uint64_t, 4> first{};
  std::vector<double> query_ms;
  const std::uint64_t budget_ns =
      cfg.digest_only ? 0 : static_cast<std::uint64_t>(cfg.seconds * 1e9);
  const std::size_t min_rounds = cfg.digest_only ? 1 : kMinQueries / shape.size();
  const std::uint64_t t_start = now_ns();
  std::size_t q = 0;
  for (std::size_t round = 0; round < min_rounds || now_ns() - t_start < budget_ns;
       ++round) {
    if (round % cfg.repeats(kRoundsPerIngest) == 0) {
      const std::size_t i = ingests++;
      store_ptr.reset();
      store_ptr = std::make_unique<telemetry::TelemetryStore>(scfg);
      Spans::Scope scope(spans, "telemetry.append", i);
      const std::uint64_t t0 = now_ns();
      ingest(*store_ptr, streams, &slice_s);
      ingest_s += static_cast<double>(now_ns() - t0) / 1e9;
      if (i == 0) shape = shapes(store_ptr->last_ps());
    }
    for (std::size_t k = 0; k < shape.size(); ++k, ++q) {
      Spans::Scope scope(spans, "telemetry.rank", q);
      const std::uint64_t t0 = now_ns();
      const auto ranked = telemetry::rank_tenants(*store_ptr, shape[k].query);
      const double ms = static_cast<double>(now_ns() - t0) / 1e6;
      query_ms.push_back(ms);
      shape_ms[k].push_back(ms);
      const std::uint64_t d = rank_digest(ranked);
      ++out.attempted;
      if (q < shape.size()) {
        first[k] = d;
      } else if (d != first[k]) {
        ++out.failed;
      }
    }
  }
  const telemetry::TelemetryStore& store = *store_ptr;

  // --- gates (outside the measured phase) ---
  const auto full = telemetry::rank_tenants(store, [&] {
    telemetry::RankQuery all = shape[0].query;
    all.top_k = 0;
    return all;
  }());
  std::uint64_t covered = 0;
  std::size_t worst_hot = 0, best_warm = full.size();
  for (std::size_t i = 0; i < full.size(); ++i) {
    covered += full[i].samples;
    if (full[i].tenant.rfind("hot-", 0) == 0) worst_hot = i;
    if (full[i].tenant.rfind("warm-", 0) == 0) best_warm = std::min(best_warm, i);
  }
  out.gates.emplace_back("telemetry.pages_evicted > 0", store.pages_evicted() > 0);
  out.gates.emplace_back("resident bytes within the cap",
                         store.resident_bytes() <= scfg.cap_bytes);
  out.gates.emplace_back("ranked coverage conserves every ingested sample",
                         covered == store.samples() &&
                             store.samples() == kTenants * kSamples);
  out.gates.emplace_back("hot tenants outrank warm tenants", worst_hot < best_warm);

  Digest all;
  all.u64(store.samples()).u64(store.flagged()).u64(store.pages_sealed())
      .u64(store.pages_evicted()).u64(store.resident_bytes()).u64(rank_digest(full));
  out.op_digests.push_back(all.value());
  for (const std::uint64_t d : first) {
    out.op_digests.push_back(d);
    all.u64(d);
  }
  out.digest = all.value();

  const double samples = static_cast<double>(store.samples());
  const double ingest_rate = samples / sum_of_medians(slice_s);
  Metrics& e = out.end_to_end;
  e.set("setup_s", median(setup_s), "s");
  e.set("ops_per_s", static_cast<double>(shape.size()) * 1e3 / sum_of_medians(shape_ms),
        "1/s");
  e.set("items_per_s", ingest_rate, "1/s");
  if (!cfg.trace) return out;

  Metrics& m = out.per_layer;
  seed_per_layer_defaults(m);
  m.set("ingest_msamples_per_s", ingest_rate / 1e6, "M/s");
  m.set("query_ms_p50", percentile(query_ms, 50.0), "ms");
  m.set("query_ms_p90", percentile(query_ms, 90.0), "ms");
  m.set("telemetry.append_ns_per_sample",
        ingest_s * 1e9 / (samples * static_cast<double>(ingests)), "ns");
  for (std::size_t k = 0; k < shape.size(); ++k) {
    m.set(std::string("telemetry.rank_ms.") + shape[k].name, median(shape_ms[k]), "ms");
  }
  m.set("telemetry.pages_sealed", static_cast<double>(store.pages_sealed()), "count");
  m.set("telemetry.pages_evicted", static_cast<double>(store.pages_evicted()), "count");
  m.set("telemetry.resident_mb",
        static_cast<double>(store.resident_bytes()) / (1024.0 * 1024.0), "MiB");
  return out;
}

}  // namespace perfbench
