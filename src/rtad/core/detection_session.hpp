// Streaming detection session — the incremental form of measure_detection.
//
// A DetectionSession owns one RtadSoc plus the experiment state machine
// behind the paper's Fig. 8 run (warm-up, N attack/cool-down rounds, final
// counter harvest) and exposes it as a resumable object: advance() runs at
// most a caller-chosen slice of simulated time, then returns with the SoC
// parked at a run-API boundary (dense-visible state — see sim::Simulator).
// Between calls the caller can poll verdicts (anomaly_flags(),
// inferences(), irqs_fired()) exactly as a host OS would poll the MCM's
// interrupt status while the monitored program keeps running.
//
// Determinism contract: pausing between edge groups cannot perturb which
// edges fire or what any component computes, so a chunk-fed session retires
// a bit-identical inference stream to the one-shot path — for ANY chunk
// size, under both scheduler kernels. core::measure_detection is literally
// "construct + run_to_completion() + result()", and tests/serve_test.cpp
// holds chunked and one-shot runs byte-identical (score digest, counters,
// simulated time, metrics export). The only fields outside the contract are
// the sim.skipped* diagnostics: chunk boundaries force the event kernel to
// catch sleeping domains up, so the *grouping* of skips differs even though
// the replayed component state does not.
//
// The serve layer (src/rtad/serve/) multiplexes many sessions over shard
// lanes by round-robining advance() quanta: that is what "streaming
// multi-tenant detection" means for a discrete-event reproduction — tenant
// trace streams progress concurrently in virtual time with bounded chunks,
// instead of each tenant monopolizing a host thread end-to-end.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "rtad/core/blob_codec.hpp"
#include "rtad/core/experiment.hpp"
#include "rtad/core/session_checkpoint.hpp"
#include "rtad/ml/lstm.hpp"

namespace rtad::core {

/// Misuse of the session's lifecycle: advance() after completion, or
/// result() harvested twice. Derives from std::logic_error because these
/// are caller bugs, not runtime conditions — but carries its own name so
/// tests (and operators reading a crash log) see *which* contract broke
/// instead of a generic phase-invariant failure.
class SessionLifecycleError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

class DetectionSession {
 public:
  /// Builds the SoC (model image + feature tables from `models`) and arms
  /// the experiment exactly as measure_detection always did; no simulated
  /// time passes until the first advance().
  ///
  /// When `options.ensemble` is active, `ensemble` must be non-null (throws
  /// std::invalid_argument otherwise; it must outlive the session): the
  /// device keeps running the anchor image exactly as before, while every
  /// live member generation is additionally evaluated host-side on each
  /// inference's input vector, and flag accounting switches to quorum
  /// consensus. Member generations roll ("hot swap") only at advance()
  /// boundaries — a pure function of simulated time, so the consensus
  /// stream is byte-identical for any chunking, scheduler, backend or job
  /// count. With inert ensemble options the session is bit-identical to a
  /// build without the ensemble layer.
  DetectionSession(const workloads::SpecProfile& profile,
                   const TrainedModels& models, ModelKind model,
                   EngineKind engine, DetectionOptions options = {},
                   EnsembleSource* ensemble = nullptr);
  ~DetectionSession();

  DetectionSession(const DetectionSession&) = delete;
  DetectionSession& operator=(const DetectionSession&) = delete;

  /// Advance the run by at most `budget_ps` of simulated time, then park at
  /// a run-API boundary. Phase-exit bookkeeping may overshoot by one edge
  /// group — the same one-group overshoot the one-shot driver performs when
  /// an attribution window closes. Returns true while work remains; throws
  /// SessionLifecycleError once the session is done (a completed episode
  /// has harvested its SoC — driving it further would silently corrupt the
  /// recorded result).
  bool advance(sim::Picoseconds budget_ps);

  /// Drive the session to the end in one call (the one-shot path). Safe to
  /// call on an already-finished session (it is then a no-op).
  void run_to_completion();

  /// Snapshot the session at the current advance() boundary. The blob holds
  /// configuration + progress + integrity cursors (see
  /// session_checkpoint.hpp); restore() replays deterministically. Valid at
  /// any boundary, including before the first advance() and after done().
  SessionCheckpoint checkpoint() const;

  /// Resurrect a session from a checkpoint by constructing it fresh and
  /// replaying up to the recorded boundary, then cross-checking every
  /// progress cursor. Throws CheckpointError if the replay does not land
  /// bit-exactly on the recorded state (wrong profile/models for the blob,
  /// or a tampered blob that survived the digest). `profile`/`models` must
  /// be the ones named by `ckpt.benchmark` — the caller resolves them
  /// through its model cache; blobs do not carry weights.
  /// `ensemble` must be supplied iff the blob's options carry an active
  /// ensemble (the replay re-runs every member evaluation, so member LSTM
  /// states are reconstructed rather than serialized).
  static std::unique_ptr<DetectionSession> restore(
      const SessionCheckpoint& ckpt, const workloads::SpecProfile& profile,
      const TrainedModels& models, EnsembleSource* ensemble = nullptr);

  /// Simulated time re-executed by restore() to reach the checkpoint
  /// boundary (zero for sessions that were never restored). The serve layer
  /// aggregates this as serve.recovery_replay_ps.
  sim::Picoseconds replayed_ps() const noexcept { return replayed_ps_; }

  bool done() const noexcept { return phase_ == Phase::kDone; }

  // --- streaming polls (valid at any point in the session's life) ---
  /// Session-local simulated time.
  sim::Picoseconds now() const noexcept;
  /// Inferences retired by the MLPU so far.
  std::uint64_t inferences() const noexcept;
  /// Anomaly verdicts that reached the host so far (IRQ not suppressed),
  /// warm-up included.
  std::uint64_t anomaly_flags() const noexcept { return anomaly_flags_; }
  /// Anomaly IRQs actually fired toward the host CPU so far.
  std::uint64_t irqs_fired() const noexcept;
  /// The most recent anomaly score the MCM produced (0.0 before the first
  /// inference). Not checkpointed: restore()'s replay recomputes the exact
  /// value, so the poll is byte-identical across park/resume boundaries —
  /// the serve layer samples it into the telemetry store every quantum.
  double last_score() const noexcept {
    return static_cast<double>(last_score_);
  }
  /// Attack rounds fully finished (detection outcome recorded).
  std::size_t attacks_completed() const noexcept { return attacks_done_; }

  // --- ensemble polls (inert sessions mirror the device) ---
  /// The latest consensus score: the quorum-th largest member margin
  /// (score over that member's own calibrated threshold), > 1.0 iff the
  /// quorum flagged. Without an ensemble this is last_score() — the serve
  /// layer samples this into telemetry either way.
  double last_consensus_score() const noexcept {
    return members_.empty() ? last_score()
                            : static_cast<double>(consensus_score_);
  }
  /// Member-set rolls applied so far (0 without an ensemble).
  std::uint64_t ensemble_swaps() const noexcept { return ensemble_swaps_; }
  /// Newest live member generation (0 without an ensemble).
  std::uint32_t ensemble_generation() const noexcept { return gen_hi_; }

  /// The assembled SoC (module probes, exactly like the one-shot drivers).
  RtadSoc& soc() noexcept { return *soc_; }

  /// Final result; throws SessionLifecycleError unless done(), and again on
  /// a second harvest (the result is a one-shot handoff — double harvest in
  /// the serve layer means two outcomes claimed one episode). Counter
  /// harvest and any trace/metrics export happen once, when the last phase
  /// ends.
  const DetectionResult& result() const;

 private:
  enum class Phase : std::uint8_t {
    kWarmup,       ///< fill windows/state; false positives not counted
    kAwaitSignal,  ///< attack armed, waiting for taint or verdict
    kAwaitWindow,  ///< taint seen, waiting out the attribution window
    kCooldown,     ///< scores decay, queues drain to a quiescent MLPU
    kDone,
  };

  void on_inference(const mcm::InferenceRecord& rec);
  /// The phase state machine behind advance() (the pre-ensemble advance()
  /// body). The public advance() additionally splits the budget at member
  /// swap instants when an ensemble is attached.
  bool advance_phases(sim::Picoseconds budget_ps);
  /// Evaluate every live member on one input vector; updates member LSTM
  /// states, consensus_score_ and the digest. Returns the quorum verdict.
  bool consensus_evaluate(const igm::InputVector& input);
  /// Session instant the next member roll lands at.
  sim::Picoseconds next_swap_ps() const noexcept;
  /// Retire the oldest member, admit generation gen_hi_ + 1.
  void roll_members();
  /// Fetch generation `gen` from the source and seat it as a member.
  void admit_member(std::uint32_t gen);
  std::uint32_t effective_quorum() const noexcept;
  /// Arm the next attack round, or finalize when all rounds are done.
  void begin_attack_round();
  /// Record the round's outcome and enter the cool-down phase.
  void finish_attack();
  /// Harvest counters into result_ and write any configured exports.
  void finalize();

  DetectionOptions options_;
  ModelKind model_;
  std::unique_ptr<obs::Observer> observer_;  ///< before soc_: outlives runs
  std::unique_ptr<RtadSoc> soc_;

  Phase phase_ = Phase::kWarmup;
  /// Absolute time at which the current phase gives up (warm-up cap,
  /// attack deadline, window close, cool-down cap).
  sim::Picoseconds phase_deadline_ = 0;
  std::size_t warm_target_ = 0;

  // Per-attack-round state (mirrors the one-shot driver's locals).
  bool attack_live_ = false;
  bool saw_injected_ = false;
  bool detected_ = false;
  sim::Picoseconds first_injected_ps_ = 0;
  sim::Picoseconds detect_ps_ = 0;
  sim::Picoseconds attack_deadline_ = 0;
  sim::Picoseconds window_end_ = 0;
  std::uint64_t settle_target_ = 0;
  std::size_t attacks_done_ = 0;

  // Run-wide accumulators.
  std::uint64_t false_positives_ = 0;
  std::uint64_t anomaly_flags_ = 0;
  float last_score_ = 0.0f;  ///< latest InferenceRecord score (poll only)
  std::uint64_t score_digest_ = blob::kFnvBasis;
  sim::Sampler latency_us_;

  // Rolling ensemble (members_ empty when no ensemble is attached).
  struct Member {
    std::uint32_t generation = 0;
    const TrainedModels* models = nullptr;
    ml::Lstm::State lstm_state;  ///< host-side member state (LSTM runs)
  };
  EnsembleSource* ensemble_source_ = nullptr;
  std::vector<Member> members_;
  std::uint32_t gen_hi_ = 0;          ///< newest live generation
  float consensus_score_ = 0.0f;      ///< latest quorum-rank margin
  std::uint64_t ensemble_swaps_ = 0;
  std::uint64_t consensus_flags_ = 0;
  std::uint64_t consensus_overrides_ = 0;
  std::uint64_t member_evals_ = 0;
  std::vector<float> margins_;  ///< scratch, avoids per-inference alloc

  sim::Picoseconds replayed_ps_ = 0;  ///< set by restore()
  mutable bool result_taken_ = false;
  DetectionResult result_;
};

}  // namespace rtad::core
