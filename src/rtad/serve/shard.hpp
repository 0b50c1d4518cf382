// One detection shard: K SoC lanes behind a bounded ingress queue.
//
// A shard is the unit of fleet scale-out. It owns K "lanes" — each lane can
// host one live DetectionSession (one RtadSoc) at a time — plus an
// AdmissionController guarding its ingress. Sessions routed to the shard
// arrive on a simulated fleet clock; the shard replays the arrival schedule
// as a discrete-event queueing simulation in virtual time:
//
//   * An arrival is offered to admission at its arrival instant, with the
//     queue depth exactly as a real arrival would see it (every dispatch
//     that starts at or before that instant has already drained the queue).
//   * A free lane pulls the queue head FIFO; service starts at
//     max(lane free time, arrival time). Among simultaneously free lanes
//     the lowest index wins — a fixed tie-break, so placement is a pure
//     function of the arrival schedule.
//   * Service time is the session's own simulated duration: the lane drives
//     the DetectionSession in bounded quanta (advance(quantum_ps)) — the
//     streaming API in production use — and the episode's simulated_ps is
//     the exact lane occupancy. Completion times are therefore exact, not
//     quantized: chunked advancement retires the identical run, so results
//     are invariant to the quantum.
//
// The shard is also a fault domain (PR 8). When the ShardConfig carries an
// active ServeFaultPlan, the shard builds its eager fault timeline
// (fault_domain.hpp) and run() consumes it as a third event source,
// interleaved with dispatches and arrivals in strict fleet-time order
// (fault events win ties):
//
//   * A crash flushes the ingress queue and takes every lane down for the
//     downtime; a session in flight across the crash instant is orphaned at
//     its last periodic checkpoint (work past that boundary is lost, as a
//     real crash loses it) and handed to the Service as a FailoverItem for
//     restore on another shard.
//   * A wedge takes one lane down; its session parks to the shard's own
//     CheckpointStore and re-offers here after seeded-jitter backoff.
//   * Brownout windows refuse offers at the door; refused (and
//     overload-shed) requests take the admission retry path while their
//     budget lasts.
//
// Everything stays deterministic: the fault timeline is a pure function of
// (seed, shard id), retries are pure functions of (ticket, attempt), and no
// wall clock or host-thread ordering reaches any observable (shards run
// whole on one pool task; see Service). A shard with no active fault plan
// and a zero retry budget is byte-identical to the pre-failover shard.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "rtad/core/experiment_runner.hpp"
#include "rtad/serve/admission.hpp"
#include "rtad/serve/checkpoint_store.hpp"
#include "rtad/serve/fault_domain.hpp"
#include "rtad/serve/tenant.hpp"
#include "rtad/telemetry/page.hpp"

namespace rtad::serve {

/// One telemetry observation bound to its tenant stream. Shards record one
/// per session quantum (single-writer, per-shard); the Service harvests
/// them with take_telemetry(), merges in shard-index order, and ingests the
/// canonically sorted list into the fleet TelemetryStore. The sample clock
/// is origin_arrival + session time, so a record is a pure function of the
/// episode — identical whether the session ran straight through, parked on
/// a wedge, or failed over across shards.
struct TelemetryRecord {
  std::string tenant;
  std::uint64_t ticket = 0;
  telemetry::Sample sample;
};

/// The fate of one offered session.
struct SessionOutcome {
  SessionRequest request;
  bool shed = false;
  bool degraded = false;   ///< ran, but on the downgraded (ELM) model
  bool recovered = false;  ///< finished from a restored checkpoint
  sim::Picoseconds start_ps = 0;       ///< service start (fleet clock)
  sim::Picoseconds service_ps = 0;     ///< lane occupancy of the final run
  sim::Picoseconds completion_ps = 0;  ///< start + service
  sim::Picoseconds sojourn_ps = 0;     ///< completion - origin arrival (SLO)
  /// Full detection result for completed sessions (default for shed ones).
  core::DetectionResult detection;
};

/// A session this shard lost to a crash, awaiting restore elsewhere. The
/// Service collects these at the round barrier and routes them to a
/// surviving shard (blob staged into that shard's CheckpointStore).
struct FailoverItem {
  SessionRequest request;
  std::vector<std::uint8_t> blob;  ///< empty = no progress (was queued)
  sim::Picoseconds orphaned_ps = 0;
  std::size_t from_shard = 0;
};

struct ShardConfig {
  std::size_t lanes = 2;
  AdmissionConfig admission{};
  /// Simulated-time slice per advance() call when a lane drives a session.
  sim::Picoseconds quantum_ps = 2 * sim::kPsPerMs;
  /// Base options for every episode; seed/attacks/model come from the
  /// request, and per-run trace/metrics exports are force-disabled (a fleet
  /// of sessions racing on one RTAD_TRACE path helps nobody — the service
  /// emits one aggregate rtad.serve.v1 document instead).
  core::DetectionOptions detection{};
  /// Fleet-level fault sites this shard is subject to (inactive by
  /// default: no schedule is built and run() takes the legacy path).
  fault::ServeFaultPlan serve_faults{};
  std::uint64_t fault_seed = 0xFA017;  ///< seeds the (site, shard) streams
  /// Quanta between periodic checkpoints while a session is in flight
  /// under an active fault plan (a crash loses at most this much work).
  std::uint64_t checkpoint_every = 8;
  /// CheckpointStore byte cap (0 = unbounded).
  std::uint64_t checkpoint_cap_bytes = 0;
  /// Rolling-ensemble shape applied to every episode (base_ps is stamped
  /// per request with its origin arrival, so the retrain cadence rides the
  /// fleet clock and survives failover). Inactive by default — episodes
  /// are then byte-identical to the pre-ensemble shard.
  core::EnsembleParams ensemble{};
};

/// Aggregate shard health, harvested after run().
struct ShardStats {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t degraded = 0;            ///< sessions downgraded on admit
  std::uint64_t degraded_inferences = 0; ///< inferences retired downgraded
  std::uint64_t completed = 0;
  /// Completed sessions by frontend protocol (sums to completed).
  std::uint64_t completed_pft = 0;
  std::uint64_t completed_etrace = 0;
  /// advance() quanta issued. Host-side diagnostic only — it scales with
  /// 1/quantum while all results stay identical, so it must never reach
  /// the byte-identity surface.
  std::uint64_t quanta = 0;
  sim::Sampler queue_depth;  ///< depth seen by each arrival
  std::size_t queue_high_watermark = 0;

  // --- failure-domain accounting (all zero without an active plan) ---
  std::uint64_t crashes = 0;            ///< crash events fired
  std::uint64_t wedges = 0;             ///< wedge events fired
  std::uint64_t brownout_refusals = 0;  ///< offers refused inside a window
  std::uint64_t retried = 0;            ///< re-offers scheduled (all causes)
  std::uint64_t queue_flushed = 0;      ///< queued sessions lost to crashes
  std::uint64_t recovered = 0;          ///< sessions restored from a blob
  std::uint64_t parked = 0;             ///< park events (orphan → blob)
  std::uint64_t checkpoints = 0;        ///< blobs serialized (periodic+park)
  std::uint64_t checkpoint_evictions = 0;
  std::uint64_t parked_bytes_hwm = 0;   ///< CheckpointStore byte HWM
  sim::Picoseconds replay_ps = 0;       ///< simulated time re-executed
  sim::Sampler checkpoint_bytes;        ///< size of every blob serialized
  sim::Sampler evicted_blob_bytes;      ///< blob sizes the store cap shed
  sim::Sampler recovery_latency_us;     ///< orphaned → restored-start gap

  // --- ensemble accounting (all zero without an active ensemble). Summed
  // from completed episodes only, so a session that parks and recovers
  // counts once, with its full replayed history. ---
  std::uint64_t ensemble_swaps = 0;
  std::uint64_t consensus_flags = 0;
  std::uint64_t consensus_overrides = 0;
  std::uint64_t member_evals = 0;
};

class Shard {
 public:
  /// `generations` may be null (required non-null when cfg.ensemble is
  /// active); not owned, must outlive the shard.
  Shard(std::size_t id, ShardConfig cfg,
        std::shared_ptr<core::TrainedModelCache> cache,
        core::GenerationCache* generations = nullptr);

  std::size_t id() const noexcept { return id_; }
  const ShardConfig& config() const noexcept { return cfg_; }

  /// Stage a request for the next run(). Requests may be staged in any
  /// order; run() replays them by (arrival_ps, ticket).
  void enqueue(SessionRequest req) { staged_.push_back(std::move(req)); }

  /// Park a checkpoint blob for a request that will be (re)enqueued here —
  /// the failover path: the Service moves a crashed shard's blobs into a
  /// surviving shard's store, then enqueues the re-offer.
  void stage_parked(std::uint64_t ticket, std::vector<std::uint8_t> blob,
                    sim::Picoseconds orphaned_ps) {
    store_.put(ticket, std::move(blob), orphaned_ps);
  }

  /// Replay the staged arrival schedule until queue, retries, and lanes
  /// drain. Outcomes come back in ticket order (stable for the
  /// service-level merge). Staged requests are consumed; admission/lane/
  /// fault state persists, so the Service can stage failover re-offers and
  /// call run() again — later rounds continue the same fleet timeline.
  std::vector<SessionOutcome> run();

  /// Sessions lost to crashes since the last take (re-offer these
  /// elsewhere). Ordered by (orphaned_ps, ticket).
  std::vector<FailoverItem> take_failover();

  /// Busy horizon: the latest instant any lane is already committed to.
  /// The rebalancer uses this as the shard's heat.
  sim::Picoseconds horizon() const noexcept;

  /// The shard refuses dispatches before this instant after a crash (the
  /// tail of its latest crash_downtime window; 0 when it never crashed).
  /// The failover rebalancer must not route orphans at a shard that is
  /// still down, however cool its flushed queue makes it look.
  sim::Picoseconds down_until() const noexcept { return down_until_; }

  /// Telemetry committed since the last take, in commit order. Samples
  /// staged past a session's last checkpoint are discarded when a fault
  /// interrupts it — the restored session re-executes that work and
  /// re-emits the identical samples — so the stream a tenant keeps is
  /// exactly the stream a fault-free run would have produced.
  std::vector<TelemetryRecord> take_telemetry();

  const ShardStats& stats() const noexcept { return stats_; }

 private:
  /// Next unfired crash/wedge event time (kNever when exhausted).
  sim::Picoseconds next_fault_event() const noexcept;
  /// Fire the earliest unfired crash or wedge event (crash wins ties).
  void fire_fault_event();
  /// Re-offer a refused request after backoff, or emit a shed outcome once
  /// its budget is spent.
  void retry_or_shed(SessionRequest req, sim::Picoseconds refused_at,
                     std::vector<SessionOutcome>& out);
  /// Pop the queue head onto `lane`, drive the session (to completion, or
  /// to the first fault event that interrupts it), and record the outcome
  /// or the orphan.
  void dispatch(std::size_t lane, std::vector<SessionOutcome>& out);

  std::size_t id_;
  ShardConfig cfg_;
  std::shared_ptr<core::TrainedModelCache> cache_;
  core::GenerationCache* generations_ = nullptr;
  std::vector<SessionRequest> staged_;
  std::vector<SessionRequest> retry_queue_;  ///< min-heap by (arrival, ticket)
  std::vector<sim::Picoseconds> lane_free_at_;
  AdmissionController admission_;
  CheckpointStore store_;
  ShardFaultSchedule fault_sched_;
  std::vector<bool> crash_fired_;
  std::vector<bool> wedge_fired_;
  std::vector<FailoverItem> failover_;
  std::vector<TelemetryRecord> telemetry_;
  sim::Picoseconds down_until_ = 0;
  ShardStats stats_;
};

}  // namespace rtad::serve
