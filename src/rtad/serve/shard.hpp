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
// The shard is also a fault domain. When the ServiceConfig carries an
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
#include <utility>
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

class Shard {
 public:
  /// `generations` may be null (required non-null when cfg.ensemble is
  /// active); not owned, must outlive the shard.
  Shard(std::size_t id, const ServiceConfig& cfg,
        std::shared_ptr<core::TrainedModelCache> cache,
        core::GenerationCache* generations = nullptr);

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
  /// drain. Outcomes come back in decision order; the Service sorts the
  /// merged fleet list by ticket. Staged requests are consumed; admission/
  /// lane/fault state persists, so the Service can stage failover re-offers
  /// and call run() again — later rounds continue the same fleet timeline.
  std::vector<SessionOutcome> run();

  /// Sessions lost to crashes since the last take (re-offer these
  /// elsewhere), in loss order; the Service sorts the merged list.
  std::vector<FailoverItem> take_failover() {
    return std::exchange(failover_, {});
  }

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
  std::vector<TelemetryRecord> take_telemetry() {
    return std::exchange(telemetry_, {});
  }

  /// This shard's health counters (cumulative across run() calls).
  const FleetCounters& counters() const noexcept { return counters_; }

 private:
  /// Time of the next unfired crash (kNever when none remain).
  sim::Picoseconds next_crash() const noexcept;
  /// Index of the first unfired wedge on `lane`, or on any lane for
  /// kAnyLane; wedges.size() when none remain.
  std::size_t next_wedge(std::size_t lane) const noexcept;
  /// Time of wedge `w` (kNever for the wedges.size() sentinel).
  sim::Picoseconds wedge_at(std::size_t w) const noexcept;
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

  static constexpr std::size_t kAnyLane = ~std::size_t{0};

  std::size_t id_;
  ServiceConfig cfg_;
  std::shared_ptr<core::TrainedModelCache> cache_;
  core::GenerationCache* generations_ = nullptr;
  std::vector<SessionRequest> staged_;
  std::vector<SessionRequest> retry_queue_;  ///< min-heap by (arrival, ticket)
  std::vector<sim::Picoseconds> lane_free_at_;
  AdmissionController admission_;
  CheckpointStore store_;
  ShardFaultSchedule fault_sched_;
  std::size_t crashes_fired_ = 0;  ///< crashes fire in schedule order
  std::vector<bool> wedge_fired_;  ///< busy lanes fire wedges out of order
  std::vector<FailoverItem> failover_;
  std::vector<TelemetryRecord> telemetry_;
  sim::Picoseconds down_until_ = 0;
  FleetCounters counters_;
};

}  // namespace rtad::serve
