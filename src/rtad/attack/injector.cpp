#include "rtad/attack/injector.hpp"

#include <stdexcept>

namespace rtad::attack {

AttackInjector::AttackInjector(cpu::StepSource& inner,
                               std::vector<std::uint64_t> pool,
                               AttackConfig config)
    : inner_(inner),
      pool_(std::move(pool)),
      config_(config),
      rng_(config.seed) {
  if (pool_.empty()) {
    throw std::invalid_argument("legitimate-replay attack needs a pool");
  }
}

void AttackInjector::arm(std::uint64_t trigger_instruction) {
  config_.trigger_instruction = trigger_instruction;
}

workloads::TraceStep AttackInjector::next() {
  if (burst_remaining_ == 0 && instructions_ >= config_.trigger_instruction) {
    burst_remaining_ = config_.burst_events;
    ++attacks_;
    config_.trigger_instruction = UINT64_MAX;  // one-shot until re-armed
    if (config_.repeat_single) {
      burst_target_ = pool_[rng_.uniform_below(pool_.size())];
    }
  }

  if (burst_remaining_ > 0) {
    --burst_remaining_;
    workloads::TraceStep step;
    step.instr_gap = config_.gap_instructions;
    instructions_ += step.instr_gap + 1;

    cpu::BranchEvent& ev = step.event;
    ev.injected = true;
    ev.taken = true;
    ev.source = pool_[0] - 4;
    ev.target = config_.repeat_single
                    ? burst_target_
                    : pool_[rng_.uniform_below(pool_.size())];
    ev.kind = config_.as_syscalls ? cpu::BranchKind::kSyscall
                                  : cpu::BranchKind::kCall;
    return step;
  }

  workloads::TraceStep step = inner_.next();
  instructions_ += step.instr_gap + 1;
  return step;
}

}  // namespace rtad::attack
