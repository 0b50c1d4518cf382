// Deterministic branch-trace synthesis from a SpecProfile.
#pragma once

#include <cstdint>
#include <vector>

#include "rtad/cpu/branch_event.hpp"
#include "rtad/sim/rng.hpp"
#include "rtad/workloads/spec_model.hpp"

namespace rtad::workloads {

/// One step of synthetic execution: `instr_gap` non-branch instructions
/// followed by one branch event. Timing sidebands (retired_ps, seq) are
/// filled in by whoever executes the step (the HostCpu model or an offline
/// dataset builder).
struct TraceStep {
  cpu::BranchEvent event;
  std::uint32_t instr_gap = 0;  ///< instructions executed before the branch
};

/// Kernel entry layout for syscall targets: syscall `i` lands at
/// kSyscallBase + 32 * i, so the IGM address mapper can both recognize and
/// identify system calls purely from the traced target address.
inline constexpr std::uint64_t kSyscallBase = 0xC000'0000ULL;
inline constexpr std::uint64_t kSyscallStride = 32;

/// Call-walk restart distribution skew (see trace_generator.cpp). Exposed
/// because the monitored-site rate calibration computes window masses from
/// the same distribution: the walk's stationary function popularity is,
/// to first order, exactly this Zipf (restart rate x mean dwell cancel).
inline constexpr double kFuncRestartSkew = 1.1;

/// Nominal program time per retired instruction: the HostCpu retires one
/// instruction per 250 MHz cycle, so the generator's drift clock advances
/// 4000 ps per instruction. Shared by the online SoC and offline dataset
/// builders so both sides of a training snapshot agree on the phase.
inline constexpr std::uint64_t kNominalPsPerInstr = 4'000;

/// Where on the drift timeline a generator starts, and whether it advances.
/// Offline dataset builders freeze the phase (a training snapshot is taken
/// at one instant of the drift schedule); the online generator drifts with
/// nominal program time (base_ps + instructions x kNominalPsPerInstr).
struct DriftCursor {
  std::uint64_t base_ps = 0;
  bool frozen = false;
};

class TraceGenerator {
 public:
  TraceGenerator(const SpecProfile& profile, std::uint64_t seed,
                 DriftCursor drift = {});

  /// Produce the next step of the synthetic program.
  TraceStep next();

  /// Convenience: synthesize `n` steps.
  std::vector<TraceStep> take(std::size_t n);

  const SpecProfile& profile() const noexcept { return profile_; }
  std::uint64_t instructions_emitted() const noexcept { return instructions_; }
  std::uint64_t branches_emitted() const noexcept { return branches_; }

  /// All static branch-site addresses (used to build IGM tables and by the
  /// attack injector, which must inject *legitimate* addresses).
  const std::vector<std::uint64_t>& site_addresses() const noexcept {
    return sites_;
  }
  const std::vector<std::uint64_t>& function_entries() const noexcept {
    return funcs_;
  }

  /// Index of a function-entry address in function_entries(), or -1.
  std::ptrdiff_t function_index(std::uint64_t address) const noexcept;

  /// Target address of syscall number `id`.
  static std::uint64_t syscall_address(std::size_t id) noexcept {
    return kSyscallBase + kSyscallStride * id;
  }

  /// Drift phase at the current instruction count (0 when inactive): the
  /// phase of the branch last emitted. Equal to
  /// profile().drift.phase_at_ps(base_ps + instructions_emitted() x
  /// kNominalPsPerInstr), or of base_ps when frozen, but cached: it is
  /// recomputed only when the count crosses the next period boundary.
  std::uint32_t drift_phase() const noexcept { return drift_phase_; }

 private:
  std::uint64_t sample_site_in_phase();
  void maybe_switch_phase();
  void refresh_drift_phase() noexcept;

  const SpecProfile profile_;  // by value: generator owns its configuration
  DriftCursor drift_{};
  sim::Xoshiro256 rng_;
  sim::ZipfSampler site_zipf_;        ///< over the phase window
  sim::ZipfSampler func_restart_zipf_;  ///< call-walk restart distribution
  sim::ZipfSampler syscall_zipf_;     ///< over syscall kinds
  sim::GeometricSampler gap_geo_;     ///< instruction gap between branches
  sim::GeometricSampler phase_geo_;   ///< branches per execution phase
  sim::GeometricSampler syscall_geo_;  ///< instructions between syscalls

  std::vector<std::uint64_t> sites_;
  std::vector<std::uint64_t> funcs_;
  std::vector<std::uint64_t> call_stack_;

  std::size_t phase_offset_ = 0;
  std::size_t current_func_ = 0;  ///< call-graph walk position
  std::uint64_t branches_until_phase_switch_ = 0;
  std::int64_t instrs_until_syscall_ = 0;

  std::uint64_t instructions_ = 0;
  std::uint64_t branches_ = 0;

  std::uint32_t drift_phase_ = 0;
  /// instructions_ at which drift_phase_ may next change.
  std::uint64_t drift_refresh_at_ = 0;
};

}  // namespace rtad::workloads
