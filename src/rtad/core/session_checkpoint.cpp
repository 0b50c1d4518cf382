#include "rtad/core/session_checkpoint.hpp"

#include <cstring>
#include <string>

#include "rtad/core/blob_codec.hpp"

namespace rtad::core {

namespace {

using blob::Writer;
using Reader = blob::Reader<CheckpointError>;

void write_fault_plan(Writer& w, const fault::FaultPlan& plan) {
  for (const double r : plan.rates) w.f64(r);
  w.u32(plan.truncate_bytes);
  w.u32(plan.stall_cycles);
  w.u32(plan.bus_delay_cycles);
  w.u64(plan.fifo_squeeze);
  w.u64(plan.watchdog_cycles);
  w.u8(plan.igm_drop_resync ? 1 : 0);
  w.u8(plan.mcm_drop_oldest ? 1 : 0);
  w.u64(plan.seed);
  w.f64(plan.serve.shard_crash);
  w.f64(plan.serve.lane_wedge);
  w.f64(plan.serve.brownout);
  w.u64(plan.serve.crash_epoch_us);
  w.u64(plan.serve.crash_downtime_us);
  w.u64(plan.serve.wedge_us);
  w.u64(plan.serve.brownout_us);
  w.u64(plan.serve.horizon_us);
  w.u32(plan.serve.max_events);
}

/// A one-byte enum field. Values past `last` are rejected by field name: a
/// blob with a repaired digest must not restore as an unnamed kind.
template <typename Enum>
Enum read_enum(Reader& r, Enum last, const char* field) {
  const std::uint8_t v = r.u8();
  if (v > static_cast<std::uint8_t>(last)) {
    throw CheckpointError(std::string("SessionCheckpoint: bad ") + field +
                          " value " + std::to_string(v));
  }
  return static_cast<Enum>(v);
}

fault::FaultPlan read_fault_plan(Reader& r) {
  fault::FaultPlan plan;
  for (double& rate : plan.rates) rate = r.f64();
  plan.truncate_bytes = r.u32();
  plan.stall_cycles = r.u32();
  plan.bus_delay_cycles = r.u32();
  plan.fifo_squeeze = static_cast<std::size_t>(r.u64());
  plan.watchdog_cycles = r.u64();
  plan.igm_drop_resync = r.u8() != 0;
  plan.mcm_drop_oldest = r.u8() != 0;
  plan.seed = r.u64();
  plan.serve.shard_crash = r.f64();
  plan.serve.lane_wedge = r.f64();
  plan.serve.brownout = r.f64();
  plan.serve.crash_epoch_us = r.u64();
  plan.serve.crash_downtime_us = r.u64();
  plan.serve.wedge_us = r.u64();
  plan.serve.brownout_us = r.u64();
  plan.serve.horizon_us = r.u64();
  plan.serve.max_events = r.u32();
  return plan;
}

}  // namespace

std::vector<std::uint8_t> SessionCheckpoint::serialize() const {
  Writer w;
  for (std::size_t i = 0; i < 8; ++i) {
    w.u8(static_cast<std::uint8_t>(kMagic[i]));
  }
  w.str(benchmark);
  w.u8(static_cast<std::uint8_t>(model));
  w.u8(static_cast<std::uint8_t>(engine));

  w.u64(options.attacks);
  w.u32(options.burst_events);
  w.u64(options.attack_deadline_ps);
  w.u64(options.attribution_window_ps);
  w.u64(options.seed);
  w.u64(options.elm_syscall_interval_cap);
  w.u8(static_cast<std::uint8_t>(options.sched));
  w.u8(static_cast<std::uint8_t>(options.backend));
  w.u8(static_cast<std::uint8_t>(options.proto));
  w.u8(options.cycle_accounts ? 1 : 0);
  w.str(options.trace_path);
  w.str(options.metrics_path);
  w.u8(options.faults.has_value() ? 1 : 0);
  if (options.faults.has_value()) write_fault_plan(w, *options.faults);

  // v2: rolling-ensemble shape (the member set replays from these).
  w.u32(options.ensemble.size);
  w.u32(options.ensemble.quorum);
  w.u64(options.ensemble.retrain_ps);
  w.u64(options.ensemble.window_ps);
  w.u64(options.ensemble.base_ps);

  w.u64(progress_ps);
  w.u64(score_digest);
  w.u64(anomaly_flags);
  w.u64(inferences);
  w.u64(irqs_fired);
  w.u64(attacks_completed);
  w.u64(false_positives);
  w.u8(phase);
  w.u8(done ? 1 : 0);

  // v2: ensemble progress cursors.
  w.u32(ensemble_generation);
  w.u64(ensemble_swaps);
  w.u64(consensus_flags);
  w.u64(consensus_overrides);
  w.u64(member_evals);
  return std::move(w).finish();
}

SessionCheckpoint SessionCheckpoint::parse(const std::uint8_t* data,
                                           std::size_t size) {
  if (size < 16) {
    throw CheckpointError("SessionCheckpoint: blob too short");
  }
  // Digest covers everything before its own 8 bytes.
  if (!blob::digest_matches(data, size)) {
    throw CheckpointError("SessionCheckpoint: digest mismatch");
  }

  Reader r(data, size - 8, "SessionCheckpoint: truncated blob");
  char magic[9] = {};
  for (std::size_t i = 0; i < 8; ++i) {
    magic[i] = static_cast<char>(r.u8());
  }
  if (std::memcmp(magic, kMagic, 8) != 0) {
    if (std::memcmp(magic, kMagic, 7) == 0) {
      // A well-formed RTADCKP tag from another (or corrupted) layout: name
      // the version so operators see a format skew, not generic corruption.
      throw CheckpointError(
          std::string("SessionCheckpoint: unknown checkpoint version '") +
          magic + "'");
    }
    throw CheckpointError("SessionCheckpoint: bad magic/version");
  }

  SessionCheckpoint ckpt;
  ckpt.benchmark = r.str();
  ckpt.model = read_enum(r, ModelKind::kLstm, "model");
  ckpt.engine = read_enum(r, EngineKind::kMlMiaow, "engine");

  ckpt.options.attacks = static_cast<std::size_t>(r.u64());
  ckpt.options.burst_events = r.u32();
  ckpt.options.attack_deadline_ps = r.u64();
  ckpt.options.attribution_window_ps = r.u64();
  ckpt.options.seed = r.u64();
  ckpt.options.elm_syscall_interval_cap = r.u64();
  ckpt.options.sched =
      read_enum(r, sim::SchedMode::kEventDriven, "options.sched");
  ckpt.options.backend =
      read_enum(r, gpgpu::GpuBackend::kFast, "options.backend");
  ckpt.options.proto =
      read_enum(r, trace::TraceProtocol::kEtrace, "options.proto");
  ckpt.options.cycle_accounts = r.u8() != 0;
  ckpt.options.trace_path = r.str();
  ckpt.options.metrics_path = r.str();
  if (r.u8() != 0) {
    ckpt.options.faults = read_fault_plan(r);
  } else {
    ckpt.options.faults.reset();
  }

  ckpt.options.ensemble.size = r.u32();
  ckpt.options.ensemble.quorum = r.u32();
  ckpt.options.ensemble.retrain_ps = r.u64();
  ckpt.options.ensemble.window_ps = r.u64();
  ckpt.options.ensemble.base_ps = r.u64();
  const EnsembleParams& e = ckpt.options.ensemble;
  if (e.quorum > e.size) {
    throw CheckpointError("SessionCheckpoint: ensemble.quorum (" +
                          std::to_string(e.quorum) +
                          ") exceeds ensemble.size (" +
                          std::to_string(e.size) + ")");
  }

  ckpt.progress_ps = r.u64();
  ckpt.score_digest = r.u64();
  ckpt.anomaly_flags = r.u64();
  ckpt.inferences = r.u64();
  ckpt.irqs_fired = r.u64();
  ckpt.attacks_completed = r.u64();
  ckpt.false_positives = r.u64();
  ckpt.phase = r.u8();
  ckpt.done = r.u8() != 0;
  ckpt.ensemble_generation = r.u32();
  ckpt.ensemble_swaps = r.u64();
  ckpt.consensus_flags = r.u64();
  ckpt.consensus_overrides = r.u64();
  ckpt.member_evals = r.u64();
  if (r.remaining() != 0) {
    throw CheckpointError("SessionCheckpoint: trailing bytes");
  }
  return ckpt;
}

}  // namespace rtad::core
