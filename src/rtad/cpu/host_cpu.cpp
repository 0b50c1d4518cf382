#include "rtad/cpu/host_cpu.hpp"

#include <algorithm>

namespace rtad::cpu {

HostCpu::HostCpu(HostCpuConfig config, StepSource& source,
                 coresight::TraceSource* trace)
    : sim::Component("host_cpu"),
      config_(config),
      source_(source),
      trace_(trace) {}

void HostCpu::reset() {
  gap_remaining_ = 0;
  step_valid_ = false;
  overhead_accumulator_ = 0.0;
  overhead_stall_ = 0;
  cycles_ = 0;
  program_instructions_ = 0;
  overhead_instructions_ = 0;
  branches_retired_ = 0;
  next_seq_ = 0;
  irq_count_ = 0;
  last_irq_ps_.reset();
}

void HostCpu::fetch_next_step() {
  current_ = source_.next();
  gap_remaining_ = current_.instr_gap;
  step_valid_ = true;
}

void HostCpu::set_observability(obs::Observer& ob, const std::string& domain) {
  acct_ = ob.account(name(), domain);
  if (ob.sink() != nullptr)
    irq_trace_ = obs::TraceHandle(ob.sink(), ob.sink()->track("cpu.irq"));
}

void HostCpu::raise_irq(sim::Picoseconds now_ps) {
  ++irq_count_;
  last_irq_ps_ = now_ps;
  irq_trace_.instant("irq", now_ps);
  if (irq_handler_) irq_handler_(now_ps);
  // The handler may have changed observable state while this domain sleeps
  // through a stall/gap window; force a re-tick so hints are re-collected.
  request_wake();
}

sim::WakeHint HostCpu::next_wake() const {
  // Stall cycles only move the overhead counters; program_instructions is
  // frozen, so a run_for_instructions fence cannot flip inside the window.
  if (overhead_stall_ > 0) return sim::WakeHint::idle_for(overhead_stall_);

  // Inside an instruction gap every tick is `--gap_remaining_;
  // ++program_instructions_;` — replayable — but an installed fence caps
  // the skip so the edge where program_instructions reaches the fence is
  // fired for real (m skipped + 1 ticked lands exactly on the target).
  if (step_valid_ && gap_remaining_ > 0) {
    std::uint64_t skippable = gap_remaining_;
    if (instruction_fence_ != kNoFence) {
      if (instruction_fence_ <= program_instructions_ + 1) {
        return sim::WakeHint::active();
      }
      skippable = std::min<std::uint64_t>(
          skippable, instruction_fence_ - program_instructions_ - 1);
    }
    return sim::WakeHint::idle_for(skippable);
  }

  // Next tick fetches the first step (RNG) or retires a branch: real work.
  // The step after a retirement is already fetched (see tick()), so the
  // edge after a retirement is skippable whenever its gap is non-zero.
  return sim::WakeHint::active();
}

void HostCpu::on_cycles_skipped(sim::Cycle n) {
  obs::bump(acct_, obs::CycleBucket::kBusy, n);
  cycles_ += n;
  if (overhead_stall_ > 0) {
    overhead_stall_ -= n;
    overhead_instructions_ += n;
  } else {
    gap_remaining_ -= static_cast<std::uint32_t>(n);
    program_instructions_ += n;
  }
}

void HostCpu::tick() {
  obs::bump(acct_, obs::CycleBucket::kBusy);
  ++cycles_;

  // Instrumentation stall cycles preempt program progress: the inserted
  // dump/trace code runs on the same pipeline.
  if (overhead_stall_ > 0) {
    --overhead_stall_;
    ++overhead_instructions_;
    return;
  }

  if (!step_valid_) fetch_next_step();

  if (gap_remaining_ > 0) {
    --gap_remaining_;
    ++program_instructions_;
    return;
  }

  // Retire the branch (a branch is itself one program instruction).
  ++program_instructions_;
  ++branches_retired_;
  BranchEvent ev = current_.event;
  ev.retired_ps = local_time_ps();
  ev.seq = next_seq_++;
  ev.context_id = config_.context_id;
  if (trace_ != nullptr && uses_hw_trace(config_.mode)) trace_->submit(ev);

  // Charge the collection mechanism for this event.
  overhead_accumulator_ +=
      instrumentation_cost(config_.mode, ev.kind, config_.costs);
  const auto whole = static_cast<std::uint64_t>(overhead_accumulator_);
  overhead_stall_ += whole;
  overhead_accumulator_ -= static_cast<double>(whole);

  // Fetch at retirement: the next step's gap is known on this edge, so
  // next_wake() can put the whole gap to sleep instead of reporting one
  // more active edge whose only job would be the fetch.
  fetch_next_step();
}

}  // namespace rtad::cpu
