// NIC-301-style AMBA AXI interconnect model.
//
// Carries single-beat and burst word transfers from the MCM's TX/RX engines
// to the one slave on RTAD's AXI path, ML-MIAOW's internal memory, and
// charges a simple but calibrated cycle cost:
//   cost = arbitration + per-beat   (read adds the slave read latency)
// The cost constants are expressed in *bus-clock* cycles; callers convert to
// time with their own clock domain. This level of detail is what the Fig. 7
// step-(3) measurement needs: the 0.78 us RTAD figure is "successive write
// operations to the ML-MIAOW memory", i.e. beats x per-beat cost.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "rtad/bus/slave.hpp"
#include "rtad/fault/fault_injector.hpp"
#include "rtad/obs/trace_sink.hpp"
#include "rtad/sim/stats.hpp"
#include "rtad/sim/time.hpp"

namespace rtad::bus {

struct BusTiming {
  std::uint32_t arbitration_cycles = 2;  ///< address-phase + register slice
  std::uint32_t write_beat_cycles = 1;
  std::uint32_t read_beat_cycles = 2;    ///< slave data-phase latency included
};

class Interconnect {
 public:
  /// Bind the one slave, identity-mapped (bus address == slave offset);
  /// `region` names it in trace spans. An address the slave does not hold
  /// raises the slave's own error (std::out_of_range for DeviceMemory).
  Interconnect(Slave& slave, std::string region, BusTiming timing = {})
      : slave_(slave), region_(std::move(region)), timing_(timing) {}

  /// Single-beat transfers. Return the bus-cycle cost of the transaction.
  std::uint32_t read32(std::uint64_t addr, std::uint32_t& out);
  std::uint32_t write32(std::uint64_t addr, std::uint32_t value);

  /// Incrementing word burst (AXI3 INCR, up to 16 beats per transaction;
  /// longer transfers are split as real masters do). Returns total cost.
  std::uint32_t write_burst(std::uint64_t addr,
                            const std::vector<std::uint32_t>& beats);

  const BusTiming& timing() const noexcept { return timing_; }
  std::uint64_t transactions() const noexcept { return transactions_; }

  /// Install a hook invoked once per completed AXI transaction (each burst
  /// split counts separately, mirroring `transactions()`). The consumer of
  /// a bus-crossing data path registers `request_wake()` here so the event
  /// scheduler un-blocks its clock domain when a transfer lands.
  void set_transfer_hook(std::function<void()> hook) {
    transfer_hook_ = std::move(hook);
  }

  /// Attach (or detach, with nullptr) the fault layer. Per transaction the
  /// injector may add arbitration-conflict delay (kBusDelay) or an AXI
  /// SLVERR (kBusError). Errors are answered by the standard master-side
  /// retry: the replayed transaction costs another arbitration + transfer
  /// (word writes/reads are idempotent, so data integrity is unaffected —
  /// the error surfaces purely as latency plus the `fault_errors` counter).
  void set_fault_injector(fault::FaultInjector* faults) noexcept {
    faults_ = faults;
  }

  /// Extra cycles charged by the fault layer since the last call; callers
  /// on timed paths fold this into their stall accounting. Kept out of the
  /// read*/write* return values so fault-free costs are exactly the
  /// calibrated model regardless of injector presence.
  std::uint32_t consume_fault_penalty() noexcept {
    const std::uint32_t p = pending_fault_cycles_;
    pending_fault_cycles_ = 0;
    return p;
  }

  /// AXI error responses injected (each one implies a retry).
  std::uint64_t fault_errors() const noexcept { return fault_errors_; }
  /// Lifetime total of injected delay/retry cycles.
  std::uint64_t fault_cycles() const noexcept { return fault_cycles_total_; }

  /// Attach the tracer: each completed transaction becomes a span named
  /// "<op>:<region>" starting at `now_fn()` and lasting its cycle cost at
  /// `cycle_period_ps`. The interconnect is passive (called from the
  /// master's tick), so `now_fn` supplies the simulated timestamp.
  void set_trace(obs::TraceHandle trace, sim::Picoseconds cycle_period_ps,
                 std::function<sim::Picoseconds()> now_fn) {
    trace_ = trace;
    trace_period_ps_ = cycle_period_ps;
    trace_now_ = std::move(now_fn);
  }

 private:
  void complete_transaction(std::uint32_t base_cost, const char* op) {
    ++transactions_;
    if (faults_ != nullptr) apply_faults(base_cost);
    if (trace_)
      trace_.complete(std::string(op) + ":" + region_, trace_now_(),
                      base_cost * trace_period_ps_);
    if (transfer_hook_) transfer_hook_();
  }

  void apply_faults(std::uint32_t base_cost);

  Slave& slave_;
  std::string region_;
  BusTiming timing_;
  std::uint64_t transactions_ = 0;
  std::function<void()> transfer_hook_;

  fault::FaultInjector* faults_ = nullptr;
  std::uint32_t pending_fault_cycles_ = 0;
  std::uint64_t fault_cycles_total_ = 0;
  std::uint64_t fault_errors_ = 0;

  obs::TraceHandle trace_;
  sim::Picoseconds trace_period_ps_ = 0;
  std::function<sim::Picoseconds()> trace_now_;
};

}  // namespace rtad::bus
