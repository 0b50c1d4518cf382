// Compute unit: wavefront scheduling, timing, coverage and trim checking.
//
// Timing model: one instruction issues per CU cycle, chosen round-robin
// among ready wavefronts; the issuing wavefront is then busy for the
// opcode's cycle cost while other wavefronts keep issuing — the standard
// GPU latency-hiding behaviour, which is what makes multi-wave workgroups
// profitable on both MIAOW and ML-MIAOW. One workgroup is resident at a
// time (MIAOW's CU has a single LDS and barrier context).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "rtad/gpgpu/device_memory.hpp"
#include "rtad/gpgpu/isa.hpp"
#include "rtad/gpgpu/rtl_inventory.hpp"
#include "rtad/gpgpu/wavefront.hpp"

namespace rtad::gpgpu {

/// A compiled kernel.
struct Program {
  std::string name;
  std::vector<Instruction> code;
  std::uint32_t num_vgprs = 32;   ///< register allocation per wave
  std::uint32_t lds_bytes = 4096; ///< LDS allocation per workgroup
};

/// One workgroup's worth of work handed to a CU.
struct WorkgroupTask {
  const Program* program = nullptr;
  std::uint32_t workgroup_id = 0;
  std::uint32_t waves = 1;
  std::uint32_t kernarg_addr = 0;
};

class ComputeUnit {
 public:
  /// `coverage` may be null (coverage disabled); `retained` may be null
  /// (untrimmed). Both are owned by the Gpu.
  ComputeUnit(std::uint32_t id, DeviceMemory& mem,
              std::vector<std::uint64_t>* coverage,
              const std::vector<bool>* retained);

  bool idle() const noexcept { return !active_; }

  /// Load a workgroup; CU must be idle.
  void start(const WorkgroupTask& task);

  /// One 50 MHz cycle. Returns true if the resident workgroup completed
  /// on this cycle.
  bool tick();

  /// Replay `n` idle cycles in bulk (CU must be idle: an idle tick only
  /// advances the local cycle counter, which busy_until_cycle deadlines of
  /// future waves are measured against).
  void skip_cycles(std::uint64_t n) noexcept { cycle_ += n; }

  std::uint64_t cycles() const noexcept { return cycle_; }
  std::uint64_t instructions_issued() const noexcept { return issued_; }

  /// Credit instructions executed on this CU's behalf by the fast-path
  /// backend, which runs them outside tick() but must leave the issue
  /// counters exactly as the cycle backend would.
  void credit_issued(std::uint64_t n) noexcept { issued_ += n; }
  std::uint32_t id() const noexcept { return cu_id_; }

  void set_retained(const std::vector<bool>* retained) noexcept {
    retained_ = retained;
  }

 private:
  void record_coverage(const Instruction& inst);
  void check_trim(const Instruction& inst) const;
  void record_wave_banks(const Wavefront& wave);
  void release_barrier_if_ready();

  std::uint32_t cu_id_;
  DeviceMemory& mem_;
  std::vector<std::uint64_t>* coverage_;
  const std::vector<bool>* retained_;

  std::vector<Wavefront> waves_;
  std::vector<std::uint32_t> lds_;
  const Program* program_ = nullptr;
  bool active_ = false;
  std::uint32_t rr_next_ = 0;

  std::uint64_t cycle_ = 0;
  std::uint64_t issued_ = 0;
};

}  // namespace rtad::gpgpu
