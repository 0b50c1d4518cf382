// In-order host CPU model (Cortex-A9 stand-in, 250 MHz domain).
//
// Executes a synthetic workload one instruction per cycle, retiring the
// workload's branch events into the CoreSight PTM (when tracing is enabled)
// and charging instrumentation overhead cycles according to the active
// collection mechanism. The model distinguishes *program* instructions
// (fixed work, used as the Fig. 6 denominator) from *instrumentation*
// instructions (the overhead numerator).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "rtad/coresight/trace_source.hpp"
#include "rtad/obs/observer.hpp"
#include "rtad/cpu/branch_event.hpp"
#include "rtad/cpu/instrumentation.hpp"
#include "rtad/sim/component.hpp"
#include "rtad/sim/time.hpp"
#include "rtad/workloads/trace_generator.hpp"

namespace rtad::cpu {

/// Source of execution steps. TraceGenerator provides the normal program;
/// the attack injector wraps a source to splice in malicious events.
///
/// Pull contract: HostCpu calls next() for the first step on its first
/// edge, and for step k+1 on the edge where the branch of step k retires.
/// The source is therefore always exactly one step ahead of retirement: a
/// source whose output depends on state changed between edges (the
/// injector's trigger) sees that change from the step *after* the one
/// already fetched.
class StepSource {
 public:
  virtual ~StepSource() = default;
  virtual workloads::TraceStep next() = 0;
};

/// Adapter: a plain workload generator as a step source.
class GeneratorSource final : public StepSource {
 public:
  explicit GeneratorSource(workloads::TraceGenerator& gen) : gen_(gen) {}
  workloads::TraceStep next() override { return gen_.next(); }

 private:
  workloads::TraceGenerator& gen_;
};

struct HostCpuConfig {
  sim::Picoseconds clock_period_ps = 4'000;  ///< 250 MHz
  InstrumentationMode mode = InstrumentationMode::kRtad;
  InstrumentationCosts costs{};
  std::uint8_t context_id = 1;
};

/// Executes one step per branch: `instr_gap` gap instructions, then the
/// branch. The next step is fetched on the retirement edge (see
/// StepSource), so only retirement edges are active and every gap edge
/// in between is skippable by the event kernel.
class HostCpu final : public sim::Component {
 public:
  /// `trace` may be null for Baseline / pure-software runs.
  HostCpu(HostCpuConfig config, StepSource& source,
          coresight::TraceSource* trace);

  void tick() override;
  void reset() override;
  sim::WakeHint next_wake() const override;
  void on_cycles_skipped(sim::Cycle n) override;

  /// No instruction fence installed (event kernel may skip freely).
  static constexpr std::uint64_t kNoFence = ~std::uint64_t{0};

  /// Cap event-kernel skipping so `program_instructions()` can be observed
  /// reaching `target` at the exact edge the dense kernel would stop on.
  /// RtadSoc::run_for_instructions installs the fence for the duration of
  /// its run_while loop; kNoFence removes it.
  void set_instruction_fence(std::uint64_t target) noexcept {
    instruction_fence_ = target;
  }

  /// Retired *program* instructions (excludes instrumentation overhead).
  std::uint64_t program_instructions() const noexcept {
    return program_instructions_;
  }
  /// Instrumentation overhead instructions executed so far.
  std::uint64_t overhead_instructions() const noexcept {
    return overhead_instructions_;
  }
  std::uint64_t branches_retired() const noexcept { return branches_retired_; }
  std::uint64_t cycles() const noexcept { return cycles_; }
  sim::Picoseconds local_time_ps() const noexcept {
    return cycles_ * config_.clock_period_ps;
  }

  /// IRQ line from the MCM interrupt manager.
  void raise_irq(sim::Picoseconds now_ps);
  std::uint64_t irq_count() const noexcept { return irq_count_; }
  std::optional<sim::Picoseconds> last_irq_ps() const noexcept {
    return last_irq_ps_;
  }
  /// Optional handler invoked on each IRQ (e.g. an example app's response).
  void set_irq_handler(std::function<void(sim::Picoseconds)> handler) {
    irq_handler_ = std::move(handler);
  }

  const HostCpuConfig& config() const noexcept { return config_; }

  /// Register the cycle account and an IRQ marker track. The in-order core
  /// never idles in this model — every cycle retires a program or an
  /// instrumentation instruction — so all cycles land in the busy bucket.
  void set_observability(obs::Observer& ob, const std::string& domain);

 private:
  void fetch_next_step();

  HostCpuConfig config_;
  StepSource& source_;
  coresight::TraceSource* trace_;
  obs::CycleAccount* acct_ = nullptr;
  obs::TraceHandle irq_trace_;

  workloads::TraceStep current_;
  std::uint32_t gap_remaining_ = 0;
  bool step_valid_ = false;
  double overhead_accumulator_ = 0.0;
  std::uint64_t overhead_stall_ = 0;

  std::uint64_t cycles_ = 0;
  std::uint64_t program_instructions_ = 0;
  std::uint64_t overhead_instructions_ = 0;
  std::uint64_t branches_retired_ = 0;
  std::uint64_t next_seq_ = 0;

  std::uint64_t irq_count_ = 0;
  std::optional<sim::Picoseconds> last_irq_ps_;
  std::function<void(sim::Picoseconds)> irq_handler_;
  std::uint64_t instruction_fence_ = kNoFence;
};

}  // namespace rtad::cpu
