#include "rtad/mcm/mcm.hpp"

#include <algorithm>
#include <cstring>

namespace rtad::mcm {

using fault::FaultSite;

Mcm::Mcm(McmConfig config, igm::Igm& igm, gpgpu::Gpu& gpu,
         fault::FaultInjector* faults)
    : sim::Component("mcm"),
      config_(config),
      igm_(igm),
      gpu_(gpu),
      converter_(config.converter),
      driver_(gpu, converter_),
      // TX/RX engines reach ML-MIAOW's internal memory through the AXI
      // interconnect (identity-mapped: bus address == memory offset).
      bus_(gpu.memory(), "ml-miaow-mem"),
      faults_(faults),
      input_fifo_(config.fifo_depth, config.drop_policy) {
  bus_.set_fault_injector(faults);
  // Wake the fabric domain when a kernel finishes so the kWaitDone poll
  // resumes on the next fabric edge after completion.
  gpu_.set_completion_hook([this] { request_wake(); });
}

void Mcm::load_model(const ml::ModelImage* image) {
  if (image != nullptr) ml::load_image(gpu_, *image);
  driver_.set_model(image);
  // A model arriving while kWaitInput slept on "no model" changes the hint.
  request_wake();
}

void Mcm::reset() {
  input_fifo_.clear();
  state_ = McmState::kWaitInput;
  stall_cycles_ = 0;
  cycles_ = 0;
  completed_ = 0;
  interrupts_ = 0;
  last_tx_cycles_ = 0;
  done_suppressed_ = false;
  waitdone_cycles_ = 0;
  recoveries_ = 0;
  stalls_injected_ = 0;
  irqs_lost_ = 0;
}

void Mcm::write_payload_to_gpu(const igm::InputVector& vec) {
  const auto* image = driver_.model();
  bus_.write_burst(image->input_addr, vec.payload);
}

void Mcm::set_observability(obs::Observer& ob, const std::string& domain) {
  acct_ = ob.account(name(), domain);
  obs::TraceSink* sink = ob.sink();
  if (sink == nullptr) return;
  fsm_trace_ = obs::TraceHandle(sink, sink->track("mcm.fsm"));
  traced_state_ = state_;
  traced_since_ = sim_now();
  obs::TraceHandle occ(sink, sink->counter_track("mcm.fifo"));
  input_fifo_.set_occupancy_hook([this, occ](std::size_t n) mutable {
    occ.counter(static_cast<std::int64_t>(n), sim_now());
  });
  bus_.set_trace(obs::TraceHandle(sink, sink->track("mcm.axi")),
                 config_.clock_period_ps, [this] { return sim_now(); });
}

void Mcm::tick() {
  ++cycles_;

  // Always drain the IGM output into the internal FIFO (1 vector/cycle);
  // when the FIFO is full a vector is lost under the configured drop
  // policy — kDropNew is the §IV-C overflow behaviour ("the buffer would
  // overflow and lose newly sent data").
  if (!igm_.out().empty()) {
    input_fifo_.try_push(*igm_.out().pop());
  }

  if (stall_cycles_ > 0) {
    obs::bump(acct_, stall_bucket_);
    --stall_cycles_;
    return;  // state cannot change during a stall; no span to update
  }

  switch (state_) {
    case McmState::kWaitInput:
      if (driver_.model() == nullptr || input_fifo_.empty()) {
        obs::bump(acct_, obs::CycleBucket::kStallFifo);
        break;
      }
      obs::bump(acct_, obs::CycleBucket::kBusy);
      state_ = McmState::kReadInput;
      // Consumer-stall fault: the TX engine is held off the FIFO for a
      // while (e.g. the fabric arbiter starves it). Drawn once per vector
      // at this transition — never re-drawn on retry — so a rate of 1.0
      // stalls every vector instead of stalling forever.
      if (faults_ != nullptr && faults_->fire(FaultSite::kMcmStall)) {
        stall_cycles_ = faults_->plan().stall_cycles;
        ++stalls_injected_;
      }
      break;

    case McmState::kReadInput: {
      obs::bump(acct_, obs::CycleBucket::kBusy);
      auto vec = input_fifo_.pop();
      if (!vec) {
        // Defensive: cannot happen today (kWaitInput verified occupancy and
        // nothing pops in between), but an empty FIFO must re-arm, not
        // dereference.
        state_ = McmState::kWaitInput;
        break;
      }
      current_ = std::move(*vec);
      state_ = McmState::kWriteInput;
      break;
    }

    case McmState::kWriteInput: {
      obs::bump(acct_, obs::CycleBucket::kBusy);
      write_payload_to_gpu(current_);
      last_tx_cycles_ =
          converter_.transfer_cycles(
              static_cast<std::uint32_t>(current_.payload.size())) +
          bus_.consume_fault_penalty();
      driver_.begin_inference();
      stall_cycles_ = last_tx_cycles_;
      stall_bucket_ = obs::CycleBucket::kStallBus;  // TX serialization
      // Decide now whether this inference's done indication is lost; the
      // GPU still runs to completion, the FSM just never sees it and the
      // watchdog must rescue the pipeline.
      done_suppressed_ =
          faults_ != nullptr && faults_->fire(FaultSite::kMcmDoneLost);
      waitdone_cycles_ = 0;
      state_ = McmState::kWaitDone;
      break;
    }

    case McmState::kWaitDone: {
      const std::uint32_t setup = driver_.advance();
      if (setup > 0) {
        obs::bump(acct_, obs::CycleBucket::kBusy);
        stall_cycles_ = setup;
        stall_bucket_ = obs::CycleBucket::kBusy;  // driver/kernarg setup
        waitdone_cycles_ = 0;
        break;
      }
      if (driver_.inference_done() && !done_suppressed_) {
        obs::bump(acct_, obs::CycleBucket::kBusy);
        waitdone_cycles_ = 0;
        state_ = McmState::kReadResult;
        break;
      }
      obs::bump(acct_, obs::CycleBucket::kStallDone);
      ++waitdone_cycles_;
      if (config_.watchdog_cycles != 0 &&
          waitdone_cycles_ >= config_.watchdog_cycles && gpu_.idle()) {
        // Watchdog: abandon the wedged inference (its result is lost) and
        // re-arm for the next vector.
        ++recoveries_;
        done_suppressed_ = false;
        waitdone_cycles_ = 0;
        state_ = McmState::kWaitInput;
      }
      break;
    }

    case McmState::kReadResult: {
      obs::bump(acct_, obs::CycleBucket::kBusy);
      const auto* image = driver_.model();
      std::uint32_t flag_word = 0;
      std::uint32_t score_word = 0;
      bus_.read32(image->result_addr, flag_word);
      bus_.read32(image->result_addr + 4, score_word);
      InferenceRecord rec;
      rec.anomaly = flag_word != 0;
      std::memcpy(&rec.score, &score_word, sizeof(rec.score));
      rec.injected = current_.injected;
      rec.event_retired_ps = current_.origin_ps;
      rec.completed_ps = local_time_ps();
      rec.input = &current_;
      stall_cycles_ = converter_.transfer_cycles(2)  // RX engine: 2 words
                      + bus_.consume_fault_penalty();
      stall_bucket_ = obs::CycleBucket::kStallBus;  // RX serialization
      ++completed_;
      if (rec.anomaly) {
        if (faults_ != nullptr && faults_->fire(FaultSite::kIrqLost)) {
          rec.irq_suppressed = true;
          ++irqs_lost_;
        } else {
          ++interrupts_;
        }
      }
      if (inference_observer_) inference_observer_(rec);
      if (rec.anomaly && !rec.irq_suppressed && interrupt_handler_) {
        interrupt_handler_(rec);
      }
      state_ = McmState::kWaitInput;
      break;
    }
  }

  // Emit the residency span for the state we just left. Transitions only
  // happen inside fired ticks, which both scheduler kernels fire at the
  // same edges, so the span stream is mode-independent.
  if (fsm_trace_ && state_ != traced_state_) {
    const sim::Picoseconds now = sim_now();
    fsm_trace_.complete(to_string(traced_state_), traced_since_,
                        now - traced_since_);
    traced_state_ = state_;
    traced_since_ = now;
  }
}

sim::WakeHint Mcm::next_wake() const {
  // Pending IGM output must be drained next tick regardless of FSM state.
  if (!igm_.out().empty()) return sim::WakeHint::active();
  if (stall_cycles_ > 0) return sim::WakeHint::idle_for(stall_cycles_);
  switch (state_) {
    case McmState::kWaitInput:
      // Starved (or no model loaded): new vectors only appear after the IGM
      // becomes active in this same domain, and load_model() wakes us.
      if (driver_.model() == nullptr || input_fifo_.empty()) {
        return sim::WakeHint::blocked();
      }
      return sim::WakeHint::active();
    case McmState::kWaitDone:
      // driver_.advance() is a pure no-op while the GPU is busy; the
      // completion hook ends the wait.
      if (!gpu_.idle()) return sim::WakeHint::blocked();
      if (done_suppressed_ && driver_.inference_done() &&
          config_.watchdog_cycles != 0 &&
          config_.watchdog_cycles > waitdone_cycles_ + 1) {
        // Wedged on a lost done: every tick until the watchdog trips only
        // advances waitdone_cycles_ (replayed in on_cycles_skipped), so
        // the domain may sleep until the abort tick.
        return sim::WakeHint::idle_for(config_.watchdog_cycles -
                                       waitdone_cycles_ - 1);
      }
      return sim::WakeHint::active();
    default:
      return sim::WakeHint::active();
  }
}

void Mcm::on_cycles_skipped(sim::Cycle n) {
  cycles_ += n;
  if (stall_cycles_ > 0) {
    const auto consumed = std::min<sim::Cycle>(stall_cycles_, n);
    stall_cycles_ -= static_cast<std::uint32_t>(consumed);
    obs::bump(acct_, stall_bucket_, consumed);
    n -= consumed;
  }
  // Non-stall kWaitDone ticks are exactly the ones that would have bumped
  // the watchdog clock (the dense kernel increments it whether the GPU is
  // busy or the done indication is lost — both replay paths land here).
  // Cycle accounting mirrors the dense tick path: kWaitDone waits are
  // stalled-on-done, a starved kWaitInput is stalled-on-fifo (the only
  // other state the hint lets the scheduler sleep in).
  if (state_ == McmState::kWaitDone && n > 0) {
    waitdone_cycles_ += n;
    obs::bump(acct_, obs::CycleBucket::kStallDone, n);
  } else if (n > 0) {
    obs::bump(acct_, obs::CycleBucket::kStallFifo, n);
  }
}

}  // namespace rtad::mcm
