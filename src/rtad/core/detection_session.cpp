#include "rtad/core/detection_session.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "rtad/core/metrics_export.hpp"

namespace rtad::core {

namespace {

constexpr sim::Picoseconds kForever = ~sim::Picoseconds{0};

/// now + budget with saturation (advance(kForever) must not wrap).
sim::Picoseconds saturating_add(sim::Picoseconds now,
                                sim::Picoseconds budget) {
  return budget > kForever - now ? kForever : now + budget;
}

}  // namespace

DetectionSession::DetectionSession(const workloads::SpecProfile& profile,
                                   const TrainedModels& models,
                                   ModelKind model, EngineKind engine,
                                   DetectionOptions options,
                                   GenerationCache* generations)
    : options_(std::move(options)),
      model_(model),
      quorum_(options_.ensemble, model, profile.name, models, generations) {
  SocConfig cfg = soc_config(profile, model, engine, options_.seed, options_);
  attack::AttackConfig atk;
  atk.burst_events = options_.burst_events;
  atk.gap_instructions = model == ModelKind::kElm ? 40 : 3;
  if (model == ModelKind::kElm) {
    // A syscall storm: the exploit loops on one (legitimate) syscall, the
    // fastest-detected realistic aberration for a histogram model.
    atk.repeat_single = true;
    atk.burst_events = std::max<std::uint32_t>(
        options_.burst_events, models.features->config().elm_window + 8);
  }
  atk.seed = options_.seed ^ 0xA77AC4;
  cfg.attack = atk;

  // Observability: the Observer exists only when the run asked for it, so
  // disabled runs never leave the instrumentation's null-pointer fast path.
  const bool observing = options_.cycle_accounts ||
                         !options_.trace_path.empty() ||
                         !options_.metrics_path.empty();
  if (observing) {
    observer_ = std::make_unique<obs::Observer>(!options_.trace_path.empty());
    cfg.observer = observer_.get();
  }

  soc_ = std::make_unique<RtadSoc>(cfg, &models.image(model),
                                   models.features.get());

  result_.benchmark = profile.name;
  result_.model = model;
  result_.engine = engine;

  soc_->mcm().set_inference_observer(
      [this](const mcm::InferenceRecord& rec) { on_inference(rec); });

  // Warm up: let the window/state fill and the engine settle.
  warm_target_ = model == ModelKind::kElm ? 48 : 12;
  phase_deadline_ = 600 * sim::kPsPerMs;
}

DetectionSession::~DetectionSession() = default;

void DetectionSession::on_inference(const mcm::InferenceRecord& rec) {
  last_score_ = rec.score;
  std::uint32_t score_bits;
  std::memcpy(&score_bits, &rec.score, sizeof(score_bits));
  for (int shift = 0; shift < 32; shift += 8) {
    score_digest_ = blob::fnv1a_step(
        score_digest_, static_cast<std::uint8_t>(score_bits >> shift));
  }

  const bool flag = quorum_.verdict(rec);

  if (attack_live_ && rec.injected && !saw_injected_) {
    saw_injected_ = true;
    first_injected_ps_ = rec.event_retired_ps;
  }
  // A suppressed IRQ never reaches the host: the detection (or false
  // positive) silently vanishes, which is exactly the degradation the
  // fault sweep quantifies.
  if (flag && !rec.irq_suppressed) {
    ++anomaly_flags_;
    if (attack_live_ && saw_injected_ && !detected_ &&
        rec.completed_ps - first_injected_ps_ <
            options_.attribution_window_ps) {
      detected_ = true;
      detect_ps_ = rec.completed_ps;
    } else if (!attack_live_) {
      ++false_positives_;
    }
  }
}

bool DetectionSession::advance(sim::Picoseconds budget_ps) {
  if (phase_ == Phase::kDone) {
    throw SessionLifecycleError(
        "DetectionSession::advance: session already completed");
  }
  // Split the budget at member-swap instants (an inert quorum never
  // swaps). Swap times are a pure function of simulated time, and the
  // member set only mutates here — between run_phases() slices, i.e. at
  // run-API boundaries — so in-flight inference is never perturbed and any
  // external chunking produces the identical internal slice sequence.
  auto& sim = soc_->simulator();
  const sim::Picoseconds limit = saturating_add(sim.now(), budget_ps);
  while (true) {
    const sim::Picoseconds swap_at = quorum_.next_swap_ps();
    if (swap_at <= sim.now()) {
      // Boundary reached (or overshot by a phase-exit edge group): roll
      // before any further simulation. Loops to catch up multi-roll gaps.
      quorum_.roll();
      continue;
    }
    if (!run_phases(std::min(limit, swap_at))) return false;
    if (sim.now() >= limit) return true;
  }
}

bool DetectionSession::run_phases(sim::Picoseconds limit) {
  auto& sim = soc_->simulator();
  // Each iteration runs the current phase to its own deadline or the budget
  // limit, whichever is nearer; phase exits chain inside one advance() so a
  // generous budget crosses as many phases as it covers.
  while (phase_ != Phase::kDone) {
    const sim::Picoseconds stop_at = std::min(limit, phase_deadline_);
    switch (phase_) {
      case Phase::kWarmup: {
        soc_->run_while(
            [this] {
              return soc_->mcm().inferences_completed() < warm_target_;
            },
            stop_at);
        if (soc_->mcm().inferences_completed() < warm_target_ &&
            sim.now() < phase_deadline_) {
          return true;  // budget exhausted mid-phase
        }
        false_positives_ = 0;  // warm-up flags are expected; not counted
        begin_attack_round();
        break;
      }
      case Phase::kAwaitSignal: {
        soc_->run_while([this] { return !detected_ && !saw_injected_; },
                        stop_at);
        if (!detected_ && !saw_injected_ && sim.now() < phase_deadline_) {
          return true;
        }
        if (!detected_ && saw_injected_) {
          // Two-phase wait, equivalent to polling "detected, or the
          // attribution window closed" after every edge group, but phrased
          // so the deadline of each phase is known up front — the event
          // kernel can then sleep through quiescent stretches instead of
          // waking per group to re-check a time-based predicate.
          window_end_ = first_injected_ps_ + options_.attribution_window_ps;
          phase_ = Phase::kAwaitWindow;
          phase_deadline_ = std::min(attack_deadline_, window_end_);
        } else {
          finish_attack();
        }
        break;
      }
      case Phase::kAwaitWindow: {
        soc_->run_while([this] { return !detected_; }, stop_at);
        if (!detected_ && sim.now() < phase_deadline_) {
          return true;
        }
        // The dense poll fires exactly one group past the window before it
        // observes the miss (predicates are checked between groups); replay
        // that overshoot so both kernels — and any chunk size — stop on the
        // same edge.
        if (!detected_ && sim.now() <= window_end_) {
          soc_->step(attack_deadline_);
        }
        finish_attack();
        break;
      }
      case Phase::kCooldown: {
        soc_->run_while(
            [this] {
              return soc_->mcm().inferences_completed() < settle_target_ ||
                     soc_->mcm().fifo_occupancy() > 0;
            },
            stop_at);
        if ((soc_->mcm().inferences_completed() < settle_target_ ||
             soc_->mcm().fifo_occupancy() > 0) &&
            sim.now() < phase_deadline_) {
          return true;
        }
        begin_attack_round();
        break;
      }
      case Phase::kDone:
        break;
    }
  }
  return false;
}

void DetectionSession::run_to_completion() {
  while (!done() && advance(kForever)) {
  }
}

SessionCheckpoint DetectionSession::checkpoint() const {
  SessionCheckpoint ckpt;
  ckpt.benchmark = result_.benchmark;
  ckpt.model = model_;
  ckpt.engine = result_.engine;
  ckpt.options = options_;
  ckpt.progress_ps = soc_->simulator().now();
  ckpt.score_digest = score_digest_;
  ckpt.anomaly_flags = anomaly_flags_;
  ckpt.inferences = soc_->mcm().inferences_completed();
  ckpt.irqs_fired = soc_->mcm().interrupts_fired();
  ckpt.attacks_completed = attacks_done_;
  ckpt.false_positives = false_positives_;
  ckpt.phase = static_cast<std::uint8_t>(phase_);
  ckpt.done = phase_ == Phase::kDone;
  quorum_.save(ckpt);
  return ckpt;
}

std::unique_ptr<DetectionSession> DetectionSession::restore(
    const SessionCheckpoint& ckpt, const workloads::SpecProfile& profile,
    const TrainedModels& models, GenerationCache* generations) {
  if (profile.name != ckpt.benchmark) {
    throw CheckpointError("DetectionSession::restore: blob names benchmark '" +
                          ckpt.benchmark + "' but caller supplied '" +
                          profile.name + "'");
  }
  if (ckpt.options.ensemble.active() && generations == nullptr) {
    throw CheckpointError(
        "DetectionSession::restore: blob carries an active ensemble but no "
        "GenerationCache was supplied");
  }
  auto session = std::make_unique<DetectionSession>(
      profile, models, ckpt.model, ckpt.engine, ckpt.options, generations);
  // Replay to the recorded boundary. Determinism makes the state at a
  // boundary a pure function of (config, boundary time), so one advance()
  // to progress_ps lands on the exact parked state; the loop only guards
  // against a blob whose boundary the replay cannot reach (which would
  // otherwise spin).
  while (!session->done() && session->now() < ckpt.progress_ps) {
    const sim::Picoseconds before = session->now();
    session->advance(ckpt.progress_ps - before);
    if (session->now() == before) {
      throw CheckpointError(
          "DetectionSession::restore: replay stalled before the checkpoint "
          "boundary (blob does not match this configuration)");
    }
  }
  session->replayed_ps_ = session->now();

  // Cross-check every cursor: a restore that does not reproduce the
  // recorded state bit-exactly must fail loudly, never hand back a
  // silently diverged session.
  const auto mismatch = [](const char* what) {
    throw CheckpointError(std::string("DetectionSession::restore: replay "
                                      "diverged from checkpoint cursor: ") +
                          what);
  };
  if (session->now() != ckpt.progress_ps) mismatch("progress_ps");
  if (session->score_digest_ != ckpt.score_digest) mismatch("score_digest");
  if (session->anomaly_flags_ != ckpt.anomaly_flags) mismatch("anomaly_flags");
  if (session->inferences() != ckpt.inferences) mismatch("inferences");
  if (session->irqs_fired() != ckpt.irqs_fired) mismatch("irqs_fired");
  if (session->attacks_done_ != ckpt.attacks_completed) {
    mismatch("attacks_completed");
  }
  if (session->false_positives_ != ckpt.false_positives) {
    mismatch("false_positives");
  }
  if (static_cast<std::uint8_t>(session->phase_) != ckpt.phase) {
    mismatch("phase");
  }
  if (session->done() != ckpt.done) mismatch("done");
  if (const char* cursor = session->quorum_.diverged_cursor(ckpt)) {
    mismatch(cursor);
  }
  return session;
}

void DetectionSession::begin_attack_round() {
  if (attacks_done_ >= options_.attacks) {
    finalize();
    phase_ = Phase::kDone;
    return;
  }
  attack_live_ = true;
  saw_injected_ = false;
  detected_ = false;
  soc_->arm_attack(soc_->host_cpu().program_instructions() + 10'000);
  attack_deadline_ = soc_->simulator().now() + options_.attack_deadline_ps;
  phase_ = Phase::kAwaitSignal;
  phase_deadline_ = attack_deadline_;
}

void DetectionSession::finish_attack() {
  ++attacks_done_;
  ++result_.attacks;
  if (detected_ && detect_ps_ > first_injected_ps_) {
    ++result_.detections;
    latency_us_.record(sim::to_us(detect_ps_ - first_injected_ps_));
  }
  attack_live_ = false;
  // Cool-down: let scores decay, the window refill with normal traffic,
  // and the input queue drain fully so the next attack starts from a
  // quiescent MLPU (the paper measures per-attack judgment latency, not
  // queueing behind a previous incident).
  settle_target_ = soc_->mcm().inferences_completed() +
                   (model_ == ModelKind::kElm ? 40 : 16);
  phase_ = Phase::kCooldown;
  phase_deadline_ = soc_->simulator().now() + options_.attack_deadline_ps;
}

void DetectionSession::finalize() {
  result_.mean_latency_us = latency_us_.mean();
  result_.min_latency_us = latency_us_.min();
  result_.max_latency_us = latency_us_.max();
  result_.fifo_drops =
      soc_->mcm().fifo_drops() + soc_->igm().drops_at_output();
  result_.false_positives = false_positives_;
  result_.inferences = soc_->mcm().inferences_completed();
  result_.score_digest = score_digest_;
  result_.simulated_ps = soc_->simulator().now();
  auto& stats = soc_->simulator().stats();
  result_.skipped_edge_groups =
      stats.counter("sim.skipped_edge_groups").value();
  for (const char* domain : {"cpu", "mlpu", "gpu"}) {
    result_.skipped_cycles +=
        stats.counter(std::string("sim.skipped_cycles.") + domain).value();
  }
  result_.gpu_exec_wall_ns = soc_->gpu().launch_wall_ns();
  result_.gpu_fast_launches = soc_->gpu().fast_launches();

  // Ensemble accounting (all zero when no ensemble is attached).
  quorum_.harvest(result_);

  // Pipeline health: every counter is zero in a fault-free run, so these
  // reads do not perturb the byte-identity surface.
  result_.trace_bytes_corrupted = soc_->tpiu().corrupted_bytes();
  const auto& ta = soc_->igm().trace_analyzer();
  result_.decode_bad_packets = ta.decoder().bad_packets();
  result_.decode_resyncs = ta.decoder().resyncs();
  result_.ta_dropped_branches = ta.dropped_branches();
  result_.mcm_recoveries = soc_->mcm().recoveries();
  result_.mcm_stalls_injected = soc_->mcm().stalls_injected();
  result_.irqs_lost = soc_->mcm().irqs_lost();
  result_.bus_errors = soc_->mcm().bus().fault_errors();
  result_.bus_fault_cycles = soc_->mcm().bus().fault_cycles();
  if (auto* fi = soc_->fault_injector()) {
    result_.fault_events = fi->total_fires();
  }

  // Trace-frontend accounting. Protocol-independent reads; the metrics
  // export only serializes them for non-PFT runs, keeping the default
  // export schema byte-identical.
  result_.trace_protocol = soc_->config().trace_proto;
  result_.trace_bytes_generated = soc_->trace_source().bytes_generated();
  result_.trace_events_traced = soc_->trace_source().events_traced();
  result_.decode_bytes_consumed = ta.decoder().bytes_consumed();
  result_.decode_branches = ta.decoder().branches_decoded();
  result_.igm_busy_cycles = soc_->igm().busy_cycles();

  if (observer_ != nullptr) {
    result_.cycle_accounts = observer_->snapshot_accounts();
    if (!options_.trace_path.empty()) {
      std::ofstream out(options_.trace_path, std::ios::binary);
      if (!out) {
        throw std::runtime_error("cannot open RTAD_TRACE path: " +
                                 options_.trace_path);
      }
      observer_->sink()->write_chrome_json(out);
    }
    if (!options_.metrics_path.empty()) {
      std::ofstream out(options_.metrics_path, std::ios::binary);
      if (!out) {
        throw std::runtime_error("cannot open RTAD_METRICS path: " +
                                 options_.metrics_path);
      }
      write_metrics_json(out, result_, stats,
                         soc_->simulator().domain_cycles());
    }
  }
}

sim::Picoseconds DetectionSession::now() const noexcept {
  return soc_->simulator().now();
}

std::uint64_t DetectionSession::inferences() const noexcept {
  return soc_->mcm().inferences_completed();
}

std::uint64_t DetectionSession::irqs_fired() const noexcept {
  return soc_->mcm().interrupts_fired();
}

const DetectionResult& DetectionSession::result() const {
  if (phase_ != Phase::kDone) {
    throw SessionLifecycleError(
        "DetectionSession::result: session still in flight");
  }
  if (result_taken_) {
    throw SessionLifecycleError(
        "DetectionSession::result: result already harvested");
  }
  result_taken_ = true;
  return result_;
}

}  // namespace rtad::core
