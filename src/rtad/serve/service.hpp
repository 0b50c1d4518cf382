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
// Knobs (all parsed through core::env — malformed values throw):
//   RTAD_SERVE_POLICY      overload policy: shed|degrade   (default shed)
//   RTAD_SERVE_RETRY            re-offer budget per refused request (0)
//   RTAD_SERVE_CHECKPOINT_CAP_KB  parked-blob byte cap, KiB; 0 = off (0)
//   RTAD_TELEMETRY              telemetry spill file (see telemetry/)
//   RTAD_TELEMETRY_CAP_KB       telemetry resident byte cap, KiB  (0=off)
//   RTAD_TELEMETRY_PAGE         tier-0 samples per telemetry page   (64)
//   RTAD_TELEMETRY_HALF_LIFE_US ranking recency half-life, simulated us;
//                               0 = (window span)/4 (telemetry/query.hpp)
//   RTAD_ENSEMBLE_SIZE          rolling-ensemble members per tenant  (1)
//   RTAD_ENSEMBLE_QUORUM        members that must flag; 0 = all      (0)
//   RTAD_ENSEMBLE_RETRAIN_US    retrain cadence, simulated us; 0
//                               disables the ensemble layer          (0)
//   RTAD_ENSEMBLE_WINDOW        training window, simulated us;
//                               0 = the retrain cadence              (0)
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string_view>
#include <vector>

#include "rtad/ensemble/ensemble_manager.hpp"
#include "rtad/serve/shard.hpp"
#include "rtad/telemetry/store.hpp"

namespace rtad::obs {
class JsonWriter;
}

namespace rtad::serve {

/// How the fleet assigns trace protocols to tenants.
enum class FleetProtocol : std::uint8_t {
  kPft,     ///< every tenant's frontend speaks PFT
  kEtrace,  ///< every tenant's frontend speaks E-Trace
  kMixed,   ///< per-tenant: a stable tenant-hash bit picks the protocol
};

const char* fleet_protocol_name(FleetProtocol proto) noexcept;

struct ServiceConfig {
  std::size_t shards = 2;
  std::size_t lanes = 2;  ///< per shard
  std::size_t queue_capacity = 8;
  OverloadPolicy policy = OverloadPolicy::kShed;
  sim::Picoseconds quantum_ps = 2 * sim::kPsPerMs;
  /// Fleet-wide trace-protocol assignment, applied to every request before
  /// routing. Defaults to the process protocol so a plain service follows
  /// RTAD_TRACE_PROTO; kMixed simulates a heterogeneous host fleet.
  FleetProtocol proto = trace::default_trace_protocol() ==
                                trace::TraceProtocol::kEtrace
                            ? FleetProtocol::kEtrace
                            : FleetProtocol::kPft;
  /// Base detection options shared by every episode (see ShardConfig).
  core::DetectionOptions detection{};

  // --- failure domain (PR 8) ---
  /// Fleet-level fault sites (inactive by default — the fleet then runs
  /// the legacy single-round path, byte-identical to PR 7). from_env()
  /// adopts the serve.* keys of the process RTAD_FAULTS plan.
  fault::ServeFaultPlan serve_faults{};
  std::uint64_t fault_seed = 0xFA017;  ///< per-(site, shard) stream base
  std::size_t retry_budget = 0;        ///< re-offers per refused request
  std::uint64_t retry_base_us = 500;   ///< backoff base (simulated us)
  std::uint64_t checkpoint_every = 8;  ///< quanta between periodic blobs
  std::uint64_t checkpoint_cap_kb = 0; ///< parked-byte cap per shard (KiB)
  /// Busy-horizon gap (hot shard vs coolest) above which a failover
  /// re-offer migrates to the coolest shard instead of its ring target.
  sim::Picoseconds rebalance_gap_ps = 40'000 * sim::kPsPerUs;
  /// Simulated cost of moving one parked blob between shards.
  sim::Picoseconds migrate_ps = 200 * sim::kPsPerUs;

  /// Fleet telemetry store shape (page size, byte cap, spill path). The
  /// store itself lives on the ServiceReport; ingestion is always on.
  telemetry::StoreConfig telemetry{};

  /// Rolling-ensemble shape applied to every tenant session (PR 10).
  /// from_env() resolves the RTAD_ENSEMBLE_* knobs; inactive by default —
  /// the fleet then runs byte-identical to the pre-ensemble service.
  /// base_ps is ignored here: each shard stamps it per request with the
  /// origin arrival, anchoring the retrain cadence to the fleet clock.
  core::EnsembleParams ensemble{};

  /// Resolve the RTAD_SERVE_{POLICY,RETRY,CHECKPOINT_CAP_KB} knobs
  /// plus the serve.* RTAD_FAULTS keys, RTAD_TELEMETRY* and RTAD_ENSEMBLE_*
  /// (strict grammar; throws on malformed values). Every other field keeps
  /// the default above; set it in code.
  static ServiceConfig from_env();
};

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

struct ServiceReport {
  /// Every offered session's fate, in submission (ticket) order.
  std::vector<SessionOutcome> outcomes;
  ClassSlo interactive;
  ClassSlo batch;
  // Fleet health (sums over shards; shard order, so worker-count stable).
  std::uint64_t sessions_offered = 0;
  std::uint64_t sessions_admitted = 0;
  std::uint64_t sessions_shed = 0;
  std::uint64_t sessions_degraded = 0;
  std::uint64_t degraded_inferences = 0;
  std::uint64_t sessions_completed = 0;
  /// Completed sessions by frontend protocol (sums to sessions_completed).
  std::uint64_t sessions_pft = 0;
  std::uint64_t sessions_etrace = 0;
  sim::Sampler queue_depth;  ///< merged shard ingress depth samples
  std::size_t queue_high_watermark = 0;

  // --- failure domain (all zero when no serve fault site is active) ---
  std::uint64_t shard_crashes = 0;
  std::uint64_t lane_wedges = 0;
  std::uint64_t brownout_refusals = 0;
  std::uint64_t sessions_recovered = 0;
  std::uint64_t sessions_parked = 0;
  std::uint64_t sessions_retried = 0;
  std::uint64_t queue_flushed = 0;
  std::uint64_t migrations = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_evictions = 0;
  std::uint64_t failover_rounds = 0;  ///< extra rounds beyond the first
  /// Simulated time re-executed by restores (serve.recovery_replay_ps).
  sim::Picoseconds recovery_replay_ps = 0;
  /// Deepest parked-blob byte footprint of any shard — the fleet's
  /// bounded-memory story in one number.
  std::uint64_t parked_bytes_hwm = 0;
  sim::Sampler checkpoint_bytes;     ///< every blob serialized, fleet-wide
  sim::Sampler evicted_blob_bytes;   ///< blob sizes the store caps shed
  sim::Sampler recovery_latency_us;  ///< orphaned → restored-start gap

  // --- rolling ensemble (all zero when cfg.ensemble is inactive). The
  // counters are harvested after the manager's drain(), so they are
  // byte-identical across worker counts. retrain_wall_ns is the one
  // host-dependent number: it never reaches the JSON document — benches
  // report it in their trailing host section. ---
  std::uint64_t ensemble_swaps = 0;
  std::uint64_t consensus_flags = 0;
  std::uint64_t consensus_overrides = 0;
  std::uint64_t member_evals = 0;
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
  /// `jobs == 0` resolves via RTAD_JOBS. Pass a cache to share trained
  /// models across services (the bench sweeps several offered loads on one
  /// cache so each benchmark trains exactly once).
  explicit Service(ServiceConfig cfg,
                   std::shared_ptr<core::TrainedModelCache> cache = {},
                   std::size_t jobs = 0);

  const ServiceConfig& config() const noexcept { return cfg_; }
  std::size_t shard_count() const noexcept { return cfg_.shards; }
  std::size_t shard_of(std::string_view tenant) const noexcept {
    return shard_for(tenant, cfg_.shards);
  }
  core::TrainedModelCache& cache() noexcept { return *cache_; }
  /// The fleet's ensemble manager; null when cfg.ensemble is inactive.
  ensemble::EnsembleManager* ensembles() noexcept { return ensembles_.get(); }

  /// Serve one arrival schedule. Tickets are (re)assigned by position, so
  /// the caller's request order is the canonical submission order.
  ServiceReport run(std::vector<SessionRequest> requests);

 private:
  ServiceConfig cfg_;
  std::shared_ptr<core::TrainedModelCache> cache_;
  sim::ThreadPool pool_;
  std::unique_ptr<ensemble::EnsembleManager> ensembles_;
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
