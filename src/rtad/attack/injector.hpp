// Attack emulation (§IV-C).
//
// "We emulate attacks by randomly inserting legitimate branch data (i.e.,
// branch addresses that can be observed during normal execution) in normal
// branch traces because inserting any random branch address would be
// trivial for detection. This resembles myriads of recent attacks that
// manipulate the program execution flow by exploiting software
// vulnerabilities."
//
// The injector wraps the workload's step source; once the trigger
// instruction count is reached it splices a burst of out-of-context but
// legitimate branch events (drawn from a pool such as the monitored call
// targets, or valid syscall entries) into the stream, marking them with the
// `injected` sideband so experiments can measure detection latency.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "rtad/cpu/host_cpu.hpp"
#include "rtad/sim/rng.hpp"

namespace rtad::attack {

struct AttackConfig {
  std::uint64_t trigger_instruction = UINT64_MAX;  ///< when the exploit fires
  std::uint32_t burst_events = 8;   ///< injected branch events per attack
  std::uint32_t gap_instructions = 3;  ///< spacing inside the burst
  bool as_syscalls = false;  ///< inject syscall events (ELM) vs calls (LSTM)
  /// Repeat one pool entry for the whole burst (a "syscall storm" /
  /// exploit-loop pattern) instead of sampling fresh targets per event.
  bool repeat_single = false;
  std::uint64_t seed = 99;
};

class AttackInjector final : public cpu::StepSource {
 public:
  /// `pool`: legitimate addresses to replay (monitored call targets for the
  /// LSTM scenario, valid syscall entries for the ELM scenario); must not
  /// be empty.
  AttackInjector(cpu::StepSource& inner, std::vector<std::uint64_t> pool,
                 AttackConfig config);

  workloads::TraceStep next() override;

  /// Re-arm for another attack at a later trigger point.
  void arm(std::uint64_t trigger_instruction);

  bool attack_in_progress() const noexcept { return burst_remaining_ > 0; }
  std::uint64_t attacks_launched() const noexcept { return attacks_; }
  std::uint64_t instructions_seen() const noexcept { return instructions_; }

 private:
  cpu::StepSource& inner_;
  std::vector<std::uint64_t> pool_;
  AttackConfig config_;
  sim::Xoshiro256 rng_;

  std::uint64_t instructions_ = 0;
  std::uint32_t burst_remaining_ = 0;
  std::uint64_t attacks_ = 0;
  std::uint64_t burst_target_ = 0;
};

}  // namespace rtad::attack
