// The serving layer's one configuration and one counter set.
//
// ServiceConfig is the only serve config: Service, every Shard and every
// AdmissionController read it directly. FleetCounters is the only health
// counter set: each shard accumulates its own, and the Service merges them
// in shard-index order into the ServiceReport, which derives from it.
// Both are defined in service.cpp.
#pragma once

#include <cstddef>
#include <cstdint>

#include "rtad/core/experiment.hpp"
#include "rtad/fault/fault_plan.hpp"
#include "rtad/sim/stats.hpp"
#include "rtad/telemetry/store.hpp"

namespace rtad::serve {

enum class OverloadPolicy : std::uint8_t {
  kShed,     ///< drop newest when full (Fifo kDropNew)
  kDegrade,  ///< above the watermark, admit but downgrade to the ELM model
};

constexpr const char* overload_policy_name(OverloadPolicy p) noexcept {
  return p == OverloadPolicy::kShed ? "shed" : "degrade";
}

/// How the fleet assigns trace protocols to tenants.
enum class FleetProtocol : std::uint8_t {
  kPft,     ///< every tenant's frontend speaks PFT
  kEtrace,  ///< every tenant's frontend speaks E-Trace
  kMixed,   ///< per-tenant: a stable tenant-hash bit picks the protocol
};

const char* fleet_protocol_name(FleetProtocol proto) noexcept;

struct ServiceConfig {
  std::size_t shards = 2;
  std::size_t lanes = 2;           ///< per shard
  std::size_t queue_capacity = 8;  ///< ingress bound per shard
  OverloadPolicy policy = OverloadPolicy::kShed;
  /// Simulated time per advance() call on a lane (nonzero).
  sim::Picoseconds quantum_ps = 2 * sim::kPsPerMs;
  /// Fleet-wide trace-protocol assignment, applied to every request before
  /// routing. from_env() follows RTAD_TRACE_PROTO; kMixed simulates a
  /// heterogeneous host fleet.
  FleetProtocol proto = FleetProtocol::kPft;
  /// Base options for every episode; seed/attacks/model/protocol come from
  /// the request, and per-run trace/metrics exports are force-disabled (a
  /// fleet of sessions racing on one RTAD_TRACE path helps nobody — the
  /// service emits one aggregate rtad.serve.v1 document instead).
  core::DetectionOptions detection{};

  // --- failure domain ---
  /// Fleet-level fault sites (inactive by default — the fleet then runs
  /// one round with no failover machinery). from_env() adopts the serve.*
  /// keys of the RTAD_FAULTS plan it parses for `detection`.
  fault::ServeFaultPlan serve_faults{};
  std::uint64_t fault_seed = 0xFA017;  ///< fault streams + retry jitter
  std::size_t retry_budget = 0;        ///< re-offers per refused request
  std::uint64_t retry_base_us = 500;   ///< backoff base (simulated us)
  /// Quanta between periodic checkpoints while a session is in flight
  /// under an active fault plan (a crash loses at most this much work).
  std::uint64_t checkpoint_every = 8;
  std::uint64_t checkpoint_cap_kb = 0; ///< parked-byte cap per shard (KiB)
  /// Busy-horizon gap (hot shard vs coolest) above which a failover
  /// re-offer migrates to the coolest shard instead of its ring target.
  sim::Picoseconds rebalance_gap_ps = 40'000 * sim::kPsPerUs;
  /// Simulated cost of moving one parked blob between shards.
  sim::Picoseconds migrate_ps = 200 * sim::kPsPerUs;

  /// Fleet telemetry store shape (page size, byte cap, spill path). The
  /// store itself lives on the ServiceReport; ingestion is always on.
  telemetry::StoreConfig telemetry{};

  /// Rolling-ensemble shape applied to every tenant session. Inactive by
  /// default — the fleet then runs byte-identical to the pre-ensemble
  /// service.
  /// base_ps is ignored here: each shard stamps it per request with the
  /// origin arrival, anchoring the retrain cadence to the fleet clock.
  core::EnsembleParams ensemble{};

  /// Resolve the fleet's knobs (strict grammar; throws on malformed or
  /// overflowing values):
  ///   detection, proto      DetectionOptions::from_env (RTAD_SCHED,
  ///                         RTAD_BACKEND, RTAD_FAULTS, RTAD_TRACE_PROTO,
  ///                         RTAD_TRACE, RTAD_METRICS)
  ///   serve_faults, fault_seed   serve.* keys of that RTAD_FAULTS plan
  ///   policy                RTAD_SERVE_POLICY=shed|degrade
  ///   telemetry             RTAD_TELEMETRY (spill path),
  ///                         RTAD_TELEMETRY_CAP_KB
  /// Every other field keeps the default above; set it in code.
  static ServiceConfig from_env();
};

/// Fleet health counters. Each shard owns one set; merge() folds another
/// shard's set in (sums, except the two high watermarks, which take the
/// max). The Service merges in shard-index order, so the result is
/// byte-identical for any worker count.
struct FleetCounters {
  std::uint64_t sessions_offered = 0;
  std::uint64_t sessions_admitted = 0;
  std::uint64_t sessions_degraded = 0;    ///< sessions downgraded on admit
  std::uint64_t degraded_inferences = 0;  ///< inferences retired downgraded
  std::uint64_t sessions_completed = 0;
  /// Completed sessions by frontend protocol (sums to sessions_completed).
  std::uint64_t sessions_pft = 0;
  std::uint64_t sessions_etrace = 0;
  sim::Sampler queue_depth;  ///< ingress depth seen by each arrival
  std::size_t queue_high_watermark = 0;

  // --- failure domain (all zero when no serve fault site is active) ---
  std::uint64_t shard_crashes = 0;
  std::uint64_t lane_wedges = 0;
  std::uint64_t brownout_refusals = 0;  ///< offers refused inside a window
  std::uint64_t sessions_recovered = 0; ///< sessions restored from a blob
  std::uint64_t sessions_parked = 0;    ///< park events (orphan → blob)
  std::uint64_t sessions_retried = 0;   ///< re-offers scheduled (all causes)
  std::uint64_t queue_flushed = 0;      ///< queued sessions lost to crashes
  std::uint64_t checkpoints = 0;        ///< blobs serialized (periodic+park)
  std::uint64_t checkpoint_evictions = 0;
  /// Simulated time re-executed by restores (serve.recovery_replay_ps).
  sim::Picoseconds recovery_replay_ps = 0;
  /// Deepest parked-blob byte footprint of any shard — the fleet's
  /// bounded-memory story in one number.
  std::uint64_t parked_bytes_hwm = 0;
  sim::Sampler checkpoint_bytes;     ///< every blob serialized
  sim::Sampler evicted_blob_bytes;   ///< blob sizes the store caps shed
  sim::Sampler recovery_latency_us;  ///< orphaned → restored-start gap

  // --- rolling ensemble (all zero when cfg.ensemble is inactive). Summed
  // from completed episodes only, so a session that parks and recovers
  // counts once, with its full replayed history. ---
  std::uint64_t ensemble_swaps = 0;
  std::uint64_t consensus_flags = 0;
  std::uint64_t consensus_overrides = 0;
  std::uint64_t member_evals = 0;

  void merge(const FleetCounters& other);
};

}  // namespace rtad::serve
