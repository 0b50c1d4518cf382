// Telemetry ring store + ranked anomaly queries at fleet scale.
//
// Synthesizes 10^5 per-tenant telemetry streams (the fleet the paper's
// engine would monitor), ingests them into one byte-capped TelemetryStore,
// and drives the rank_tenants() "Anomaly Advisor" evaluation over the
// populated window. Two tenant cohorts are planted against a quiet
// background: "hot" tenants flag in the last page of their stream and
// "warm" tenants flag the identical number of samples in the first page —
// the recency-decayed severity must put every hot tenant above every warm
// one, which is the query engine's whole reason to exist.
//
// Stream synthesis is a pure function of (seed, tenant index): generation
// fans the tenant range out (sim::fan_out) in fixed partitions, the
// partitions are collected in index order, and ingestion is serial —
// so the store contents, every query result, stdout, and the JSON artifact
// (minus its "host" section) are byte-identical across RTAD_SCHED,
// RTAD_JOBS, and RTAD_BACKEND. Host-side ingest throughput and ranked-query
// latency live in the JSON "host" object and on stderr only.
//
// Gates (exit 1 on failure): resident sealed bytes within the cap; ranked
// coverage conserves every ingested sample; every hot tenant outranks every
// warm tenant; repeated queries are byte-identical.
//
// 10^5 tenants (2 * 10^4 under RTAD_SMOKE=1, see bench/common.hpp) each
// stream 24 samples; the first query repeats 32 times for the latency
// distribution; the seed is 2026. Environment knobs: RTAD_SMOKE;
// RTAD_BENCH_JSON (default BENCH_telemetry.json); plus the spill path and
// byte cap via RTAD_TELEMETRY / RTAD_TELEMETRY_CAP_KB, read by
// serve::ServiceConfig::from_env (bench defaults: no spill, 32 MiB cap);
// RTAD_JOBS sizes the synthesis fan-out. Pages hold 8 samples.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "rtad/core/blob_codec.hpp"
#include "rtad/core/env.hpp"
#include "rtad/core/experiment_runner.hpp"
#include "rtad/core/report.hpp"
#include "rtad/obs/json.hpp"
#include "rtad/serve/service.hpp"
#include "rtad/sim/fan_out.hpp"
#include "rtad/sim/rng.hpp"
#include "rtad/sim/stats.hpp"
#include "rtad/telemetry/query.hpp"
#include "rtad/telemetry/store.hpp"

using namespace rtad;

namespace {

constexpr std::size_t kHotTenants = 4;
constexpr std::size_t kWarmTenants = 4;
constexpr sim::Picoseconds kTickPs = 50 * sim::kPsPerUs;
constexpr std::size_t kPaperTenants = 100'000;
constexpr std::size_t kSmokeTenants = 20'000;
static_assert(kSmokeTenants > kHotTenants + kWarmTenants,
              "the planted cohorts need a background");
constexpr std::size_t kSamples = 24;
constexpr std::size_t kQueryReps = 32;
constexpr std::uint64_t kSeed = 2026;

std::string tenant_name(std::size_t t) {
  if (t < kHotTenants) return "hot-" + std::to_string(t);
  if (t < kHotTenants + kWarmTenants) {
    return "warm-" + std::to_string(t - kHotTenants);
  }
  char buf[32];  // "tenant-" + up to 20 digits of a 64-bit size_t + NUL
  std::snprintf(buf, sizeof(buf), "tenant-%07zu", t);
  return buf;
}

/// One tenant's stream — a pure function of (seed, tenant index). Hot
/// tenants flag their last `samples/4` ticks, warm tenants their first
/// `samples/4`; the background flags at 0.1% per tick.
std::vector<telemetry::Sample> synthesize(std::uint64_t seed, std::size_t t,
                                          std::size_t samples) {
  sim::Xoshiro256 rng(seed ^ (0x9E3779B97F4A7C15ULL * (t + 1)));
  const bool hot = t < kHotTenants;
  const bool warm = !hot && t < kHotTenants + kWarmTenants;
  const std::size_t burst = samples / 4;
  std::vector<telemetry::Sample> out;
  out.reserve(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    telemetry::Sample s;
    s.at_ps = static_cast<sim::Picoseconds>(i + 1) * kTickPs;
    bool flag = rng.uniform() < 0.001;
    if (hot && i >= samples - burst) flag = true;
    if (warm && i < burst) flag = true;
    s.score = flag ? 0.8 + 0.2 * rng.uniform() : 0.4 * rng.uniform();
    s.flagged = flag;
    out.push_back(s);
  }
  return out;
}

/// Order-sensitive digest of a ranked result: tenant names and the exact
/// severity bit patterns. One u64 pins the whole answer byte-for-byte.
std::uint64_t rank_digest(const std::vector<telemetry::RankEntry>& ranked) {
  using core::blob::fnv1a;
  std::uint64_t h = core::blob::kFnvBasis;
  for (const auto& e : ranked) {
    h = fnv1a(e.tenant, h);
    std::uint64_t bits;
    std::memcpy(&bits, &e.severity, sizeof(bits));
    h = fnv1a(reinterpret_cast<const std::uint8_t*>(&bits), sizeof(bits), h);
    h = fnv1a(reinterpret_cast<const std::uint8_t*>(&e.samples),
              sizeof(e.samples), h);
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double wall_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

int run() {
  const std::size_t tenants = bench::smoke() ? kSmokeTenants : kPaperTenants;
  const std::size_t samples = kSamples;
  const std::uint64_t seed = kSeed;

  telemetry::StoreConfig store_cfg =
      serve::ServiceConfig::from_env().telemetry;
  // Small pages so pages actually seal, and a default cap that actually
  // evicts; an explicit RTAD_TELEMETRY_CAP_KB wins.
  store_cfg.page_samples = 8;
  if (!core::env::raw("RTAD_TELEMETRY_CAP_KB")) {
    store_cfg.cap_bytes = 32ull * 1024 * 1024;
  }
  std::cout << "TELEMETRY RING STORE + RANKED ANOMALY QUERY ENGINE\n\n";

  std::cout << "Streams: " << tenants << " tenants x " << samples
            << " samples (" << tenants * samples << " total), page "
            << store_cfg.page_samples << ", cap "
            << store_cfg.cap_bytes / 1024 << " KiB"
            << (store_cfg.spill_path.empty()
                    ? std::string(", no spill")
                    : ", spill " + store_cfg.spill_path)
            << "\n";
  std::cout << "Planted: " << kHotTenants << " hot (late-burst) vs "
            << kWarmTenants << " warm (early-burst), background flag rate "
               "0.1%\n\n";

  // --- synthesis: fixed partitions fanned out, collected in index order
  // (worker count never reaches the store) ---
  const std::size_t partitions = std::min<std::size_t>(64, tenants);
  const auto t_gen = std::chrono::steady_clock::now();
  const auto generated =
      sim::fan_out(core::resolve_jobs(0), partitions, [&](std::size_t p) {
        const std::size_t begin = p * tenants / partitions;
        const std::size_t end = (p + 1) * tenants / partitions;
        std::vector<std::vector<telemetry::Sample>> part;
        part.reserve(end - begin);
        for (std::size_t t = begin; t < end; ++t) {
          part.push_back(synthesize(seed, t, samples));
        }
        return part;
      });
  const double gen_ms = wall_ms(t_gen);

  // --- serial ingest in tenant order ---
  telemetry::TelemetryStore store(store_cfg);
  const auto t_ingest = std::chrono::steady_clock::now();
  {
    std::size_t t = 0;
    for (const auto& part : generated) {
      for (const auto& stream : part) {
        const std::string name = tenant_name(t++);
        for (const telemetry::Sample& s : stream) store.append(name, s);
      }
    }
  }
  const double ingest_ms = wall_ms(t_ingest);
  const double ingest_rate =
      ingest_ms > 0.0 ? static_cast<double>(store.samples()) * 1e3 / ingest_ms
                      : 0.0;
  std::cerr << "telemetry_query: synthesized in " << core::fmt(gen_ms, 1)
            << " ms, ingested " << store.samples() << " samples in "
            << core::fmt(ingest_ms, 1) << " ms ("
            << core::fmt(ingest_rate / 1e6, 2) << " M samples/s)\n";

  // --- queries: the named set prints; the first repeats for latency ---
  const sim::Picoseconds span_end = store.last_ps();
  const sim::Picoseconds span_mid = span_end / 2;
  struct NamedQuery {
    const char* name;
    telemetry::RankQuery query;
  };
  std::vector<NamedQuery> queries;
  {
    telemetry::RankQuery q;
    q.top_k = 10;
    queries.push_back({"full_window", q});
    q.t0 = span_mid;
    queries.push_back({"recent_half", q});
    q.t0 = 0;
    q.t1 = span_mid;
    queries.push_back({"early_half", q});
    q.t1 = ~sim::Picoseconds{0};
    q.half_life_ps = (span_end > 0 ? span_end : 1) / 8;
    queries.push_back({"fast_decay", q});
  }

  sim::Sampler rank_ms;
  std::vector<std::vector<telemetry::RankEntry>> results;
  results.reserve(queries.size());
  bool repeat_deterministic = true;
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const auto t_q = std::chrono::steady_clock::now();
    auto ranked = telemetry::rank_tenants(store, queries[qi].query);
    rank_ms.record(wall_ms(t_q));
    if (qi == 0) {
      // Latency distribution + byte-determinism over repeats.
      const std::uint64_t first = rank_digest(ranked);
      for (std::size_t rep = 1; rep < kQueryReps; ++rep) {
        const auto t_r = std::chrono::steady_clock::now();
        const auto again = telemetry::rank_tenants(store, queries[qi].query);
        rank_ms.record(wall_ms(t_r));
        if (rank_digest(again) != first) repeat_deterministic = false;
      }
    }
    results.push_back(std::move(ranked));
  }

  core::Table table({"Query", "window_ms", "k", "top tenant", "severity",
                     "rate", "samples", "digest"});
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const auto& q = queries[qi].query;
    const auto& ranked = results[qi];
    const sim::Picoseconds w0 = std::max<sim::Picoseconds>(q.t0, 0);
    const sim::Picoseconds w1 = std::min(q.t1, span_end);
    table.add_row(
        {queries[qi].name,
         core::fmt(static_cast<double>(w1 - w0) * 1e-9, 1),
         core::fmt_count(ranked.size()),
         ranked.empty() ? "-" : ranked.front().tenant,
         ranked.empty() ? "-" : core::fmt(ranked.front().severity, 4),
         ranked.empty() ? "-" : core::fmt(ranked.front().anomaly_rate, 4),
         ranked.empty() ? "-" : core::fmt_count(ranked.front().samples),
         hex64(rank_digest(ranked))});
  }
  table.print(std::cout);

  std::cout << "\nStore: " << store.pages_sealed() << " pages sealed, "
            << store.pages_evicted() << " evicted, " << store.pages_spilled()
            << " spilled; resident " << store.resident_bytes() << " bytes (hwm "
            << store.resident_bytes_hwm() << ")\n";

  // --- gates ---
  const bool cap_ok = store_cfg.cap_bytes == 0 ||
                      store.resident_bytes() <= store_cfg.cap_bytes;
  // Ranked coverage conserves: the un-truncated full-window evaluation
  // accounts for every ingested sample exactly once.
  std::uint64_t covered = 0;
  for (const auto& e : telemetry::rank_tenants(store)) covered += e.samples;
  const bool conserve_ok = covered == store.samples() &&
                           store.samples() == tenants * samples;
  // Recency: every hot tenant above every warm tenant in the full window.
  bool recency_ok = true;
  {
    const auto full = telemetry::rank_tenants(store);
    std::size_t worst_hot = 0;
    std::size_t best_warm = full.size();
    for (std::size_t i = 0; i < full.size(); ++i) {
      if (full[i].tenant.rfind("hot-", 0) == 0) worst_hot = i;
      if (full[i].tenant.rfind("warm-", 0) == 0) {
        best_warm = std::min(best_warm, i);
      }
    }
    recency_ok = worst_hot < best_warm;
  }

  const bool ok = cap_ok && conserve_ok && recency_ok && repeat_deterministic;
  std::cout << "\nGates:\n";
  std::cout << "  resident bytes within cap:        "
            << (cap_ok ? "PASS" : "FAIL") << "\n";
  std::cout << "  ranked coverage conserves ingest: "
            << (conserve_ok ? "PASS" : "FAIL") << "\n";
  std::cout << "  hot outranks warm (recency):      "
            << (recency_ok ? "PASS" : "FAIL") << "\n";
  std::cout << "  repeat-query determinism:         "
            << (repeat_deterministic ? "PASS" : "FAIL") << "\n";
  std::cout << "Overall: " << (ok ? "PASS" : "FAIL") << "\n";

  std::cerr << "telemetry_query: ranked query p50 "
            << core::fmt(rank_ms.percentile(50.0), 2) << " ms, p95 "
            << core::fmt(rank_ms.percentile(95.0), 2) << " ms over "
            << rank_ms.count() << " evaluations\n";

  // --- JSON artifact: deterministic core + explicitly host-dependent
  // "host" object (tools/smoke.sh strips it before comparing modes) ---
  const auto body = [&](obs::JsonWriter& json) {
    json.field("schema", "rtad.telemetry.bench.v1");
    json.field("tenants", static_cast<std::uint64_t>(tenants));
    json.field("samples_per_tenant", static_cast<std::uint64_t>(samples));
    json.field("seed", seed);
    json.field("page_samples",
               static_cast<std::uint64_t>(store_cfg.page_samples));
    json.field("cap_bytes", store_cfg.cap_bytes);
    json.field("gates_pass", ok);
    json.key("store").begin_object();
    json.field("samples", store.samples());
    json.field("flagged", store.flagged());
    json.field("pages_sealed", store.pages_sealed());
    json.field("pages_evicted", store.pages_evicted());
    json.field("pages_spilled", store.pages_spilled());
    json.field("resident_bytes", store.resident_bytes());
    json.field("resident_bytes_hwm", store.resident_bytes_hwm());
    json.field("first_ps", store.first_ps());
    json.field("last_ps", store.last_ps());
    json.end_object();
    json.key("queries").begin_array();
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      const auto& q = queries[qi].query;
      json.begin_object();
      json.field("name", queries[qi].name);
      json.field("t0_ps", q.t0);
      json.field("t1_ps", std::min(q.t1, span_end));
      json.field("half_life_ps", q.half_life_ps);
      json.field("digest", hex64(rank_digest(results[qi])));
      json.key("top").begin_array();
      for (const auto& e : results[qi]) {
        json.begin_object();
        json.field("tenant", e.tenant);
        json.field("severity", e.severity);
        json.field("anomaly_rate", e.anomaly_rate);
        json.field("peak_score", e.peak_score);
        json.field("samples", e.samples);
        json.end_object();
      }
      json.end_array();
      json.end_object();
    }
    json.end_array();
    json.key("gates").begin_object();
    json.field("cap_respected", cap_ok);
    json.field("coverage_conserved", conserve_ok);
    json.field("hot_outranks_warm", recency_ok);
    json.field("repeat_deterministic", repeat_deterministic);
    json.end_object();
  };
  // Host-dependent measurements — everything outside this object is
  // byte-identical across RTAD_SCHED / RTAD_JOBS / RTAD_BACKEND.
  const auto host = [&](obs::JsonWriter& json) {
    json.field("synthesis_ms", gen_ms);
    json.field("ingest_ms", ingest_ms);
    json.field("ingest_samples_per_s", ingest_rate);
    json.field("rank_ms_p50", rank_ms.percentile(50.0));
    json.field("rank_ms_p95", rank_ms.percentile(95.0));
    json.field("rank_evaluations",
               static_cast<std::uint64_t>(rank_ms.count()));
  };
  bench::write_json("telemetry_query", "BENCH_telemetry.json", body, host);

  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    std::cerr << "telemetry_query: ru_maxrss " << ru.ru_maxrss << " KiB\n";
  }
  return ok ? 0 : 1;
}

}  // namespace

int main() { return bench::run("telemetry_query", run); }
