// Deterministic fault model for the trace-to-inference path.
//
// A FaultPlan names *where* the SoC may misbehave and *how often*; a
// FaultInjector (fault_injector.hpp) turns the plan into reproducible
// per-datum Bernoulli decisions. The plan is plain data so experiment
// drivers can sweep rates programmatically, and it parses the RTAD_FAULTS
// grammar (read by core::DetectionOptions::from_env) so any existing bench
// can be run under fault pressure without a rebuild:
//
//   RTAD_FAULTS="trace.bit_flip=0.001,mcm.done_lost=0.05,fifo.squeeze=4"
//
// Rate keys (probability per datum — per trace byte, per vector, per bus
// transaction, per anomaly):
//   trace.bit_flip  trace.drop  trace.dup  trace.truncate
//   mcm.stall  mcm.done_lost  bus.delay  bus.error  irq.lost
// Parameter keys:
//   trace.truncate_bytes  mcm.stall_cycles  mcm.watchdog  bus.delay_cycles
//   fifo.squeeze  igm.drop_resync  mcm.drop_oldest  seed
//
// The serve.* keys describe fleet-level faults (whole-shard crashes, lane
// wedges, admission brownouts). They are carried on the same plan so one
// RTAD_FAULTS spec configures both fault domains, but they are consumed by
// the serving layer only: FaultPlan::any() deliberately ignores them, so a
// serve-faults-only plan never constructs a SoC FaultInjector and every
// DetectionSession stays byte-identical to a fault-free run.
//   serve.shard_crash  serve.lane_wedge  serve.brownout   (per-epoch rates)
//   serve.crash_epoch_us  serve.crash_downtime_us  serve.wedge_us
//   serve.brownout_us  serve.horizon_us  serve.max_events  (parameters)
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace rtad::fault {

/// Every place the injector can perturb the pipeline. The site also names
/// the RNG stream: each site draws from its own generator, so enabling or
/// querying one site never shifts another site's decision sequence.
enum class FaultSite : std::uint8_t {
  kTraceBitFlip = 0,  ///< flip one bit of a trace byte between TPIU and IGM
  kTraceDropByte,     ///< lose a trace byte on the port
  kTraceDupByte,      ///< duplicate a trace byte (synchronizer double-sample)
  kTraceTruncate,     ///< cut a run of bytes (truncated packet / lost window)
  kMcmStall,          ///< hold the MCM TX engine off the FIFO for a while
  kMcmDoneLost,       ///< the inference-done indication never reaches the FSM
  kBusDelay,          ///< AXI transaction delayed by arbitration conflicts
  kBusError,          ///< AXI SLVERR; the master retries the transaction
  kIrqLost,           ///< completion interrupt toward the host is lost
};

inline constexpr std::size_t kFaultSiteCount = 9;

const char* to_string(FaultSite site) noexcept;

/// Fleet-level fault sites consumed by the serving layer (src/rtad/serve/).
/// Rates are per-epoch Bernoulli probabilities per shard; each (site, shard)
/// pair draws from its own seeded RNG stream, so fault schedules are a pure
/// function of (plan seed, shard id) — identical across RTAD_JOBS and both
/// scheduler kernels, and independent of arrival order.
struct ServeFaultPlan {
  double shard_crash = 0.0;  ///< whole-shard crash: lanes lost, queue flushed
  double lane_wedge = 0.0;   ///< one lane stops making progress for a while
  double brownout = 0.0;     ///< admission refuses offers for a window

  std::uint64_t crash_epoch_us = 20'000;    ///< epoch length for all draws
  std::uint64_t crash_downtime_us = 8'000;  ///< shard outage after a crash
  std::uint64_t wedge_us = 4'000;           ///< lane unavailable per wedge
  std::uint64_t brownout_us = 2'000;        ///< admission refusal window
  /// Events are drawn eagerly over [0, horizon_us) of fleet time so the
  /// schedule exists before any session runs (and is therefore independent
  /// of execution order).
  std::uint64_t horizon_us = 1'000'000;
  std::uint32_t max_events = 4;  ///< cap per (site, shard)

  /// True when any fleet-level site can fire. The serving layer only builds
  /// schedules/recovery machinery when this holds, so a plain plan leaves
  /// the fleet byte-identical to the pre-failover service.
  bool any() const noexcept {
    return shard_crash > 0.0 || lane_wedge > 0.0 || brownout > 0.0;
  }
};

struct FaultPlan {
  /// Per-site fault probabilities, indexed by FaultSite. A rate of 0 means
  /// the site never draws from its RNG stream at all.
  std::array<double, kFaultSiteCount> rates{};

  // --- fault-shape parameters ---
  std::uint32_t truncate_bytes = 8;    ///< bytes cut per kTraceTruncate fire
  std::uint32_t stall_cycles = 64;     ///< fabric cycles per kMcmStall fire
  std::uint32_t bus_delay_cycles = 16; ///< extra bus cycles per kBusDelay
  /// Cap every trace-path FIFO (IGM output, MCM input) at this depth to
  /// force the paper's §IV-C overflow behaviour. 0 = no squeeze.
  std::size_t fifo_squeeze = 0;
  /// Override McmConfig::watchdog_cycles (0 = keep the SoC default).
  std::uint64_t watchdog_cycles = 0;
  /// IGM overflow policy: drop decoded branches instead of stalling the TA.
  bool igm_drop_resync = false;
  /// MCM input FIFO evicts the oldest vector instead of dropping new ones.
  bool mcm_drop_oldest = false;
  /// Base seed of the per-site RNG streams (combined with a per-SoC salt).
  std::uint64_t seed = 0xFA017;
  /// Fleet-level fault sites (see above). Ignored by the SoC layers.
  ServeFaultPlan serve{};

  double rate(FaultSite site) const noexcept {
    return rates[static_cast<std::size_t>(site)];
  }
  void set_rate(FaultSite site, double r) noexcept {
    rates[static_cast<std::size_t>(site)] = r;
  }

  /// True when the plan perturbs the SoC pipeline at all. An injector is
  /// only constructed (and recovery-policy overrides applied) when any()
  /// holds, so an all-zero plan is byte-identical to running with no plan.
  /// The serve.* sites are deliberately excluded: they fault the fleet, not
  /// the SoC, so a serve-only plan keeps every session byte-identical.
  bool any() const noexcept;

  /// Parse a comma-separated key=value spec (the RTAD_FAULTS grammar).
  /// Throws std::invalid_argument on unknown keys or malformed values.
  static FaultPlan parse(std::string_view spec);
};

}  // namespace rtad::fault
