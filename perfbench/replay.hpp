// The simulator workload's support: pinned detection options, the
// training set-up, and the replay stage of the traced run. The replay gives
// standalone per-unit costs of each pipeline layer, measured through the
// layers' public APIs on the traced episode's own seed and event counts.
// These are costs of the layer run alone, not shares of the in-situ episode.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "bench.hpp"
#include "rtad/core/experiment_runner.hpp"

namespace perfbench {

struct ReplayPlan {
  const rtad::workloads::SpecProfile* profile = nullptr;
  const rtad::core::TrainedModels* models = nullptr;
  rtad::core::ModelKind model = rtad::core::ModelKind::kLstm;
  rtad::core::EngineKind engine = rtad::core::EngineKind::kMiaow;
  rtad::core::DetectionOptions options{};  ///< the traced episode's
  std::uint64_t events = 0;      ///< branch events the episode traced
  std::uint64_t inferences = 0;  ///< inferences the episode retired
};

struct ReplayCosts {
  double gen_ns_per_event = 0.0;
  double pft_encode_ns_per_event = 0.0;
  double pft_decode_ns_per_byte = 0.0;
  double pft_bytes_per_branch = 0.0;
  double etrace_encode_ns_per_event = 0.0;
  double etrace_decode_ns_per_byte = 0.0;
  double etrace_bytes_per_branch = 0.0;
  double ivg_ns_per_branch = 0.0;     ///< mapper + vector encoder
  double fast_lstm_1cu_us = 0.0;      ///< per offline inference
  double fast_elm_5cu_us = 0.0;
  double cycle_lstm_1cu_us = 0.0;
  double cycle_elm_5cu_us = 0.0;
  double checkpoint_us = 0.0;
  double restore_ms_per_sim_ms = 0.0;
  double host_eval_us = 0.0;  ///< one host-side LSTM member step
  /// Both grammars reconstructed the identical waypoint stream.
  bool protocols_agree = false;
  /// restore() landed on the checkpointed state (it cross-checks itself).
  bool restore_ok = false;
};

ReplayCosts run_replay(const ReplayPlan& plan, Spans& spans);

/// Detection options with every execution choice pinned in code: event
/// scheduler, fast GPU backend, PFT, no faults, no ensemble, no exports.
/// Nothing is left to the RTAD_* process defaults.
rtad::core::DetectionOptions pinned_detection_options();

/// The simulator workload's set-up: train `benchmark` through a fresh cache
/// from `make_cache`, `cfg.repeats(times)` times, appending each set-up's
/// seconds to `setup_s`. Returns the first cache; the run uses its models.
std::shared_ptr<rtad::core::TrainedModelCache> train_setups(
    const RunConfig& cfg, Spans& spans, std::size_t times,
    const std::function<std::shared_ptr<rtad::core::TrainedModelCache>()>& make_cache,
    const std::string& benchmark, std::vector<double>& setup_s);

/// Domain cycles the SoC's three clocks tick over `sim_ps` (CPU, fabric and
/// GPU at the prototype's clock plan): the base of sim.skip_share.
double domain_cycles(std::uint64_t sim_ps);

/// Copy the replay costs into the per-layer metric rows.
void put_replay_metrics(const ReplayCosts& costs, Metrics& m);

}  // namespace perfbench
