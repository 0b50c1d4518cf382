// The detection service: a fleet of shards behind stable tenant routing.
//
// Service::run() takes one batch of session requests (an arrival schedule on
// the simulated fleet clock), routes each to its tenant's shard, replays
// every shard's queueing simulation, and merges the outcomes back into
// submission (ticket) order. Shards are independent — each owns its SoCs,
// its ingress queue, and its slice of the schedule — so they fan out across
// the PR-1 thread pool; the merge collects shard futures in shard-index
// order, which keeps every observable (outcomes, SLO report, the
// rtad.serve.v1 JSON) byte-identical for any RTAD_JOBS.
//
// When the fault plan (RTAD_FAULTS serve.* keys) is active, run() becomes a
// round loop: shards replay their schedules in parallel as before, then the
// round barrier collects every session lost to a crash — in canonical
// (orphaned time, ticket) order — and re-offers it to a surviving shard,
// checkpoint blob staged ahead of it, with seeded-jitter backoff. The
// rebalancer runs at the same barrier: re-offers headed for a hot shard
// (busy horizon far past the coolest shard's) migrate to the coolest shard
// instead. Rounds repeat until no orphans remain; every decision is a pure
// function of the schedules, so the whole recovery story is byte-identical
// across RTAD_JOBS and both scheduler kernels.
//
// Knobs (ServiceConfig::from_env, all parsed through core::env — malformed
// values throw; a plain ServiceConfig reads none of them):
//   RTAD_SERVE_POLICY           overload policy: shed|degrade (shed)
//   RTAD_TELEMETRY              telemetry spill file (see telemetry/)
//   RTAD_TELEMETRY_CAP_KB       telemetry resident byte cap, KiB  (0=off)
//   RTAD_SCHED, RTAD_BACKEND, RTAD_FAULTS, RTAD_TRACE_PROTO, ...
//                               per-episode options (see
//                               core::DetectionOptions::from_env)
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string_view>
#include <vector>

#include "rtad/serve/shard.hpp"
#include "rtad/telemetry/store.hpp"

namespace rtad::obs {
class JsonWriter;
}

namespace rtad::serve {

/// One shard's load snapshot at the failover round barrier.
struct ShardHeat {
  sim::Picoseconds horizon = 0;     ///< latest instant any lane is booked to
  sim::Picoseconds down_until = 0;  ///< crash downtime tail; 0 = never down
};

/// Pick the shard a crash orphan re-offers to. The ring successor of the
/// crashed shard is the conventional heir; the rebalancer overrides it with
/// the coolest shard when the heir's horizon is more than rebalance_gap_ps
/// past it. Both walks skip shards still inside their crash downtime at
/// `reoffer_ps` — a freshly-crashed shard's flushed queue makes it look
/// coolest precisely while it cannot take work, which used to bounce
/// orphans straight back onto a down shard for an extra round of backoff.
/// If every shard is down, both walks degenerate to the legacy all-shard
/// scan — the orphan has to queue and wait out a downtime wherever it
/// lands, so the coolest shard is still the best landlord. Sets *migrated
/// iff the rebalancer overrode the heir. A pure function — byte-identical
/// across worker counts.
std::size_t failover_target(std::size_t from_shard,
                            sim::Picoseconds reoffer_ps,
                            const std::vector<ShardHeat>& heat,
                            sim::Picoseconds rebalance_gap_ps, bool* migrated);

/// Per-tenant-class SLO account.
struct ClassSlo {
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t degraded = 0;
  /// Sessions in this class that finished from a restored checkpoint —
  /// the per-class blast radius of the fault storm.
  std::uint64_t recovered = 0;
  /// Sojourn time (arrival → verdict delivered) of completed sessions,
  /// in simulated microseconds. p50/p95/p99 come straight off this.
  sim::Sampler sojourn_us;
};

/// The fleet's fate for one run(): every session's outcome, the per-class
/// SLOs, and the shard counters merged in shard-index order (worker-count
/// stable) plus the few counters only the Service can see.
struct ServiceReport : FleetCounters {
  /// Every offered session's fate, in submission (ticket) order.
  std::vector<SessionOutcome> outcomes;
  ClassSlo interactive;
  ClassSlo batch;
  /// Shed sessions, counted from the outcomes (a retried request can be
  /// refused several times but sheds at most once).
  std::uint64_t sessions_shed = 0;
  std::uint64_t migrations = 0;
  std::uint64_t failover_rounds = 0;  ///< extra rounds beyond the first

  // --- rolling ensemble: the generation cache's census of scheduled
  // generations, byte-identical across worker counts. retrain_wall_ns is
  // the one host-dependent number: it never reaches the JSON document —
  // benches report it in their trailing host section. ---
  std::uint64_t generations_trained = 0;
  std::uint64_t retrain_work_units = 0;  ///< samples/windows consumed
  std::uint64_t retrain_wall_ns = 0;     ///< host wall clock, off-document

  /// The fleet telemetry store: every tenant's sample stream, ingested in
  /// canonical order after the round loop. Always present after run();
  /// shared so sweep benches can keep several reports cheaply.
  std::shared_ptr<telemetry::TelemetryStore> telemetry;

  const ClassSlo& slo(TenantClass cls) const noexcept {
    return cls == TenantClass::kInteractive ? interactive : batch;
  }
};

class Service {
 public:
  /// `jobs == 0` resolves via core::resolve_jobs (RTAD_JOBS). Pass a cache
  /// to share trained models across services (the bench sweeps several
  /// offered loads on one cache so each benchmark trains exactly once).
  /// Throws
  /// std::invalid_argument when cfg.quantum_ps is zero (advance(0) makes
  /// no progress, so no lane could ever finish a session).
  explicit Service(ServiceConfig cfg,
                   std::shared_ptr<core::TrainedModelCache> cache = {},
                   std::size_t jobs = 0);

  const ServiceConfig& config() const noexcept { return cfg_; }
  std::size_t shard_count() const noexcept { return cfg_.shards; }
  std::size_t shard_of(std::string_view tenant) const noexcept {
    return shard_for(tenant, cfg_.shards);
  }
  core::TrainedModelCache& cache() noexcept { return *cache_; }

  /// Serve one arrival schedule. Tickets are (re)assigned by position, so
  /// the caller's request order is the canonical submission order.
  ServiceReport run(std::vector<SessionRequest> requests);

 private:
  ServiceConfig cfg_;
  std::shared_ptr<core::TrainedModelCache> cache_;
  sim::ThreadPool pool_;
  /// The fleet's member generations; null when cfg.ensemble is inactive.
  std::unique_ptr<core::GenerationCache> generations_;
};

/// Emit the `rtad.serve.v1` JSON document: config echo, fleet health
/// counters (serve.sessions_shed, serve.degraded_inferences, ...), the
/// ingress-depth distribution, and per-class SLO percentiles. Insertion-
/// ordered keys and deterministic number formatting (obs::JsonWriter), so
/// the document is byte-stable across scheduler modes and worker counts.
void write_serve_json(std::ostream& os, const ServiceConfig& cfg,
                      const ServiceReport& report);

/// The document body (one JSON object: config / fleet / [failure] /
/// ingress_depth / classes / telemetry) emitted at the writer's current
/// value position — reusable as a nested value, e.g. one object per sweep
/// point in BENCH_serve.json. The telemetry section is deliberately last:
/// everything before it is quantum-invariant, while telemetry samples once
/// per quantum (finer quanta mean more samples), so consumers comparing
/// fleets across quanta compare the prefix.
void write_serve_report(obs::JsonWriter& json, const ServiceConfig& cfg,
                        const ServiceReport& report);

}  // namespace rtad::serve
