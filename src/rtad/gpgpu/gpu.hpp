// Top-level GPGPU: compute units + workgroup dispatcher + device memory.
//
// Two configurations reproduce the paper's engines:
//   * MIAOW    — 1 CU, untrimmed inventory (all that fits the FPGA),
//   * ML-MIAOW — 5 CUs, inventory trimmed to the ML kernels' coverage.
// Both run the same kernels through the same launch ABI, which is the
// paper's "same runtime environments as MIAOW" property.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rtad/gpgpu/compute_unit.hpp"
#include "rtad/gpgpu/device_memory.hpp"
#include "rtad/obs/observer.hpp"
#include "rtad/sim/component.hpp"

namespace rtad::gpgpu {

namespace fastpath {
class FastBackend;
}

struct LaunchConfig {
  const Program* program = nullptr;
  std::uint32_t workgroups = 1;
  std::uint32_t waves_per_group = 1;
  std::uint32_t kernarg_addr = 0;
};

/// Kernel execution backend.
///   * kCycle — the cycle-level interpreter: one instruction per simulated
///     CU cycle. The timing oracle and the coverage/trim reference.
///   * kFast  — decode-once basic-block interpreter (fastpath/) that
///     reproduces the oracle's results and timing analytically. Falls back
///     to kCycle per launch when coverage collection is on or a program is
///     outside the fast path's validated subset.
enum class GpuBackend : std::uint8_t { kCycle, kFast };

const char* to_string(GpuBackend backend) noexcept;

struct GpuConfig {
  std::uint32_t num_cus = 1;
  std::size_t memory_bytes = 1u << 20;  ///< 1 MiB internal memory
  std::uint32_t dispatch_latency = 8;   ///< cycles to hand a workgroup to a CU
  bool collect_coverage = false;
  GpuBackend backend = GpuBackend::kCycle;
  /// GPU clock period, used by the fast backend to stamp trace spans whose
  /// edges it never ticks through. Must match the attached clock domain.
  std::uint64_t clock_period_ps = 20'000;
};

class Gpu final : public sim::Component {
 public:
  explicit Gpu(GpuConfig config);
  ~Gpu() override;

  DeviceMemory& memory() noexcept { return *mem_; }
  const DeviceMemory& memory() const noexcept { return *mem_; }

  /// Begin an asynchronous kernel launch. The GPU must be idle.
  void launch(const LaunchConfig& launch);

  bool idle() const noexcept;

  /// One 50 MHz GPU cycle (ticks the dispatcher and every CU).
  void tick() override;
  void reset() override;

  /// Between launches a tick only advances cycle counters (the dispatcher
  /// and every CU are idle); launch() wakes the domain again. During a
  /// fast-backend launch the results and completion cycle are already
  /// planned, so every tick before the completion cycle is likewise a
  /// counter-only no-op the scheduler may skip.
  sim::WakeHint next_wake() const override {
    if (!launch_active_) return sim::WakeHint::blocked();
    if (fast_running_ && fast_done_cycle_ > cycle_ + 1) {
      return sim::WakeHint::idle_for(fast_done_cycle_ - cycle_ - 1);
    }
    return sim::WakeHint::active();
  }
  void on_cycles_skipped(sim::Cycle n) override;

  /// Invoked on the tick where the active launch completes — the MCM
  /// registers its wake-up here so its kWaitDone poll never misses a
  /// completion while the fabric domain sleeps.
  void set_completion_hook(std::function<void()> hook) {
    completion_hook_ = std::move(hook);
  }

  /// Convenience for host-side use (tests, offline verification): run until
  /// idle or `max_cycles`, returning cycles consumed. Throws if the limit
  /// is hit.
  std::uint64_t run_to_completion(std::uint64_t max_cycles = 50'000'000);

  /// Cycles spent on the most recent completed launch.
  std::uint64_t last_launch_cycles() const noexcept {
    return last_launch_cycles_;
  }
  std::uint64_t total_cycles() const noexcept { return cycle_; }
  std::uint64_t instructions_issued() const;

  /// Launches actually executed by the fast backend (diagnostics; lets the
  /// differential tests prove a kernel took the fast path rather than the
  /// per-launch cycle fallback).
  std::uint64_t fast_launches() const noexcept { return fast_launches_; }

  /// Cumulative host wall-clock spent simulating launches (launch() to the
  /// completion tick). Diagnostics only — this is what the backend choice
  /// buys, so benches report it per backend; it never feeds any simulated
  /// quantity or export that must stay byte-identical.
  std::uint64_t launch_wall_ns() const noexcept { return launch_wall_ns_; }

  // --- trimming / coverage control ---
  /// Configure as trimmed: only `retained` units exist. Pass std::nullopt
  /// to restore the untrimmed configuration.
  void set_trim(std::optional<std::vector<bool>> retained);
  bool trimmed() const noexcept { return retained_.has_value(); }
  const std::optional<std::vector<bool>>& retained() const noexcept {
    return retained_;
  }

  void set_coverage_enabled(bool on);
  const std::vector<std::uint64_t>& coverage() const noexcept {
    return coverage_;
  }
  void reset_coverage();

  const GpuConfig& config() const noexcept { return config_; }

  /// Register the cycle account, a kernel-launch span track, and one
  /// workgroup span track per compute unit.
  void set_observability(obs::Observer& ob, const std::string& domain);

 private:
  /// Plan the active launch on the fast backend. Returns false (leaving all
  /// dispatcher state untouched) when the launch must take the cycle path.
  bool plan_fast_launch();
  /// Fold the completed launch's wall-clock into launch_wall_ns_.
  void account_launch_wall();

  GpuConfig config_;
  std::unique_ptr<DeviceMemory> mem_;
  std::vector<std::unique_ptr<ComputeUnit>> cus_;
  std::vector<std::uint64_t> coverage_;
  std::optional<std::vector<bool>> retained_;

  // Dispatcher state.
  const Program* program_ = nullptr;
  std::uint32_t next_workgroup_ = 0;
  std::uint32_t workgroups_ = 0;
  std::uint32_t waves_per_group_ = 1;
  std::uint32_t kernarg_addr_ = 0;
  std::uint32_t dispatch_cooldown_ = 0;
  std::uint32_t groups_in_flight_ = 0;

  obs::CycleAccount* acct_ = nullptr;
  obs::TraceHandle kernel_trace_;
  std::vector<obs::TraceHandle> cu_traces_;  ///< one per CU, indexed alike

  std::uint64_t cycle_ = 0;
  std::uint64_t launch_start_cycle_ = 0;
  std::uint64_t last_launch_cycles_ = 0;
  bool launch_active_ = false;
  std::function<void()> completion_hook_;

  // Fast-backend state. fast_pending_ marks a launch whose plan runs on the
  // next tick (device memory is stable from launch() until then — the MCM
  // driver wrote the kernargs before calling launch and sleeps until the
  // completion hook); fast_running_ marks a planned launch waiting out its
  // oracle-exact cycle count.
  std::unique_ptr<fastpath::FastBackend> fast_;
  bool fast_pending_ = false;
  bool fast_running_ = false;
  std::uint64_t fast_done_cycle_ = 0;
  std::uint64_t fast_launches_ = 0;

  std::chrono::steady_clock::time_point launch_wall_start_{};
  std::uint64_t launch_wall_ns_ = 0;
};

}  // namespace rtad::gpgpu
