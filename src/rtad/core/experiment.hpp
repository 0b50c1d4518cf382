// Reusable experiment drivers behind the paper's evaluation (§IV).
//
// The bench binaries (bench/) print the tables; the logic lives here so it
// is unit-testable and shared with the examples.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rtad/core/rtad_soc.hpp"
#include "rtad/core/sw_reference.hpp"
#include "rtad/ml/threshold.hpp"

namespace rtad::core {

// ---------------------------------------------------------------- training

struct TrainingOptions {
  std::size_t lstm_train_tokens = 3'000;
  std::size_t lstm_val_tokens = 800;
  std::size_t elm_train_windows = 400;
  std::size_t elm_val_windows = 150;
  ml::LstmConfig lstm{};  ///< vocab/hidden must stay 64/64 for the device
  ml::ElmConfig elm{};    ///< input_dim is overridden from the features
  double threshold_percentile = 99.5;
  float threshold_margin = 1.05f;
  std::uint64_t seed = 42;
};

/// Everything needed to deploy both models on a benchmark: feature tables,
/// trained host models, calibrated thresholds, and compiled device images.
struct TrainedModels {
  std::unique_ptr<ml::DatasetBuilder> features;
  std::unique_ptr<ml::Elm> elm;
  std::unique_ptr<ml::Lstm> lstm;
  ml::Threshold elm_threshold;
  ml::Threshold lstm_threshold;
  ml::ModelImage elm_image;
  ml::ModelImage lstm_image;
  float lstm_val_mean_nll = 0.0f;
  float lstm_train_final_nll = 0.0f;

  const ml::ModelImage& image(ModelKind kind) const {
    return kind == ModelKind::kElm ? elm_image : lstm_image;
  }
};

TrainedModels train_models(const workloads::SpecProfile& profile,
                           const TrainingOptions& options = {});

/// Train one model side (host model, threshold, device image) into `out`,
/// whose `features` must already be built. Factored out of train_models()
/// so TrainedModelCache can train only the deployed kind per drift phase
/// without paying for the other side; calling it for both kinds reproduces
/// train_models() bit-for-bit (the two sides draw from independent RNG
/// streams).
void train_model_side(TrainedModels& out, ModelKind kind,
                      const TrainingOptions& options);

// ------------------------------------------------------------- ensembles

/// Rolling-ensemble shape of a detection run. Inert by default: with
/// retrain_ps == 0 no ensemble is attached and the session is byte-
/// identical to a build without the ensemble layer. When active, the
/// member set at session time T is the `size` most recent generations
/// {G-size+1 .. G} (clamped at 0) where G = (base_ps + T) / retrain_ps —
/// a pure function of simulated time, so member rolls land at the same
/// instants for any advance() chunking, scheduler, backend or job count.
struct EnsembleParams {
  std::uint32_t size = 1;    ///< member generations kept live
  std::uint32_t quorum = 0;  ///< members that must flag; 0 = all of them
  sim::Picoseconds retrain_ps = 0;  ///< generation cadence; 0 = inert
  sim::Picoseconds window_ps = 0;   ///< training window; 0 = retrain_ps
  sim::Picoseconds base_ps = 0;     ///< fleet-time origin of the schedule

  bool active() const noexcept { return retrain_ps != 0 && size != 0; }
  std::uint32_t generation_at(sim::Picoseconds session_ps) const noexcept {
    return active() ? static_cast<std::uint32_t>((base_ps + session_ps) /
                                                 retrain_ps)
                    : 0;
  }
  /// Drift-snapshot instant generation `gen` trains at: the start of its
  /// trailing training window (activation minus window, clamped at 0).
  sim::Picoseconds training_snapshot_ps(std::uint32_t gen) const noexcept {
    const sim::Picoseconds w = window_ps != 0 ? window_ps : retrain_ps;
    const sim::Picoseconds activate =
        static_cast<sim::Picoseconds>(gen) * retrain_ps;
    return activate > w ? activate - w : 0;
  }
};

struct DetectionOptions;

// ------------------------------------------------------------------ Fig. 6

/// Run `instructions` of the benchmark under a collection mechanism and
/// return the CPU overhead in percent over Baseline. The SoC runs the
/// execution modes of `options` (see soc_config).
double measure_overhead(const workloads::SpecProfile& profile,
                        cpu::InstrumentationMode mode,
                        const DetectionOptions& options,
                        std::uint64_t instructions = 400'000,
                        std::uint64_t seed = 3);

// ------------------------------------------------------------------ Fig. 7

/// Measured RTAD transfer-path breakdown: (1) PTM buffering + trace decode,
/// (2) IGM vector generation (2 fabric cycles), (3) MCM TX into ML-MIAOW.
TransferBreakdown measure_rtad_transfer(const workloads::SpecProfile& profile,
                                        const TrainedModels& models,
                                        ModelKind model, EngineKind engine,
                                        const DetectionOptions& options,
                                        std::size_t samples = 40,
                                        std::uint64_t seed = 5);

// ------------------------------------------------------------------ Fig. 8

struct DetectionResult {
  std::string benchmark;
  ModelKind model = ModelKind::kLstm;
  EngineKind engine = EngineKind::kMlMiaow;
  std::size_t attacks = 0;
  std::size_t detections = 0;
  double mean_latency_us = 0.0;
  double min_latency_us = 0.0;
  double max_latency_us = 0.0;
  std::uint64_t fifo_drops = 0;       ///< MCM input FIFO overflows (§IV-C)
  std::uint64_t false_positives = 0;  ///< anomaly flags with no attack live
  std::uint64_t inferences = 0;
  /// FNV-1a over the bit pattern of every inference score, in completion
  /// order. Two runs of the same cell are equivalent iff digests match —
  /// this is what the determinism regression test compares across worker
  /// counts.
  std::uint64_t score_digest = 0;
  std::uint64_t simulated_ps = 0;  ///< total simulated time of the run
  /// Event-kernel accounting (0 under the dense kernel). Diagnostics only:
  /// reported on stderr / in BENCH artifacts, never part of the stdout
  /// byte-identity surface.
  std::uint64_t skipped_edge_groups = 0;
  std::uint64_t skipped_cycles = 0;  ///< summed over all clock domains
  /// Backend diagnostics (stderr-only: excluded from stdout tables and the
  /// rtad.metrics.v1 export, both of which must stay byte-identical across
  /// RTAD_BACKEND). Wall-clock spent simulating GPU launches, and how many
  /// launches the fast backend planned (0 under the cycle backend).
  std::uint64_t gpu_exec_wall_ns = 0;
  std::uint64_t gpu_fast_launches = 0;

  // --- trace-frontend accounting (protocol-neutral) ---
  /// Grammar the run's frontend spoke (RTAD_TRACE_PROTO). Reported in the
  /// metrics export only for non-default protocols: the PFT export stays
  /// byte-identical to the pre-protocol-seam schema.
  trace::TraceProtocol trace_protocol = trace::TraceProtocol::kPft;
  std::uint64_t trace_bytes_generated = 0;  ///< encoder output bytes
  std::uint64_t trace_events_traced = 0;    ///< branch events encoded
  std::uint64_t decode_bytes_consumed = 0;  ///< bytes fed to the TA decoder
  std::uint64_t decode_branches = 0;        ///< waypoints reconstructed
  std::uint64_t igm_busy_cycles = 0;        ///< non-quiescent IGM cycles

  // --- pipeline health (all zero in fault-free runs) ---
  std::uint64_t trace_bytes_corrupted = 0;  ///< TPIU flips+drops+dups+trunc
  std::uint64_t decode_bad_packets = 0;     ///< malformed PFT packets seen
  std::uint64_t decode_resyncs = 0;         ///< A-sync hunts after bad data
  std::uint64_t ta_dropped_branches = 0;    ///< kDropResync overflow losses
  std::uint64_t mcm_recoveries = 0;         ///< watchdog-aborted inferences
  std::uint64_t mcm_stalls_injected = 0;    ///< forced consumer stalls
  std::uint64_t bus_errors = 0;             ///< AXI SLVERR retries
  std::uint64_t bus_fault_cycles = 0;       ///< injected bus latency total
  std::uint64_t irqs_lost = 0;              ///< swallowed anomaly IRQs
  std::uint64_t fault_events = 0;           ///< injector fires, all sites

  // --- rolling ensemble (all zero when no ensemble is attached) ---
  std::uint32_t ensemble_size = 0;        ///< configured members; 0 = inert
  std::uint64_t ensemble_swaps = 0;       ///< member-set rolls applied
  std::uint64_t consensus_flags = 0;      ///< quorum-backed anomaly flags
  /// Device (anchor) flags the member quorum vetoed — the ensemble's
  /// false-positive suppression at work.
  std::uint64_t consensus_overrides = 0;
  std::uint64_t member_evals = 0;         ///< member model evaluations run

  /// Per-component cycle accounts (empty unless the run enabled the
  /// observability layer). For every attached component the buckets sum to
  /// the component's domain-cycle count, independent of scheduler mode.
  std::vector<obs::ComponentCycles> cycle_accounts;
};

struct DetectionOptions {
  std::size_t attacks = 10;
  std::uint32_t burst_events = 16;
  sim::Picoseconds attack_deadline_ps = 80 * sim::kPsPerMs;
  /// An anomaly flag is attributed to the attack only if it lands within
  /// this window of the first aberrant branch; later flags are treated as
  /// a miss (plus background noise), not as an absurd "detection latency".
  sim::Picoseconds attribution_window_ps = 8 * sim::kPsPerMs;
  std::uint64_t seed = 17;
  /// ELM runs use a compressed syscall interval so the window warms up in
  /// simulated milliseconds instead of seconds; detection latency is
  /// unaffected (syscall interarrival stays far above the inference time,
  /// preserving the paper's "constant ELM latency" property).
  std::uint64_t elm_syscall_interval_cap = 50'000;
  /// Scheduling kernel for the run (dense reference vs. event-driven);
  /// results are bit-identical either way — the determinism suite checks.
  sim::SchedMode sched = sim::SchedMode::kEventDriven;
  /// Kernel execution backend (cycle-level oracle vs. decode-once fast
  /// path); results are byte-identical either way — the fastpath
  /// differential suite checks.
  gpgpu::GpuBackend backend = gpgpu::GpuBackend::kCycle;
  /// Fault plan forwarded into the SoC. nullopt or an all-zero plan leaves
  /// every result field byte-identical to a fault-free build.
  std::optional<fault::FaultPlan> faults;
  /// Trace packet grammar for the run's frontend. Both protocols carry the
  /// identical branch-event stream; only bytes-on-the-wire and decode cost
  /// differ.
  trace::TraceProtocol proto = trace::TraceProtocol::kPft;

  // --- observability (all off by default; the run is byte-identical with
  // the layer disabled) ---
  /// Write a Chrome-trace/Perfetto JSON of the run here. Empty disables
  /// span/counter tracing entirely.
  std::string trace_path;
  /// Write machine-readable run metrics (stable-key JSON) here. Empty
  /// disables the export.
  std::string metrics_path;
  /// Collect per-component cycle accounts into
  /// DetectionResult::cycle_accounts even when no file export is set.
  bool cycle_accounts = false;

  /// Rolling-ensemble shape (inert by default). Active params require a
  /// GenerationCache on the DetectionSession that runs these options.
  EnsembleParams ensemble{};

  /// The defaults above with the process's execution knobs applied
  /// (strict core::env grammar; malformed values throw naming the
  /// variable). Unset knobs keep the defaults:
  ///   RTAD_SCHED=dense|event        sched
  ///   RTAD_BACKEND=cycle|fast       backend
  ///   RTAD_FAULTS=<spec>            faults (fault::FaultPlan::parse)
  ///   RTAD_TRACE_PROTO=pft|etrace   proto
  ///   RTAD_TRACE=<path>             trace_path
  ///   RTAD_METRICS=<path>           metrics_path
  static DetectionOptions from_env();
};

/// The SoC every run under `options` builds: the options' scheduler,
/// backend, fault plan, trace protocol and drift origin and, for the ELM,
/// the profile's syscall interval capped at elm_syscall_interval_cap.
/// DetectionSession, measure_overhead and measure_rtad_transfer all start
/// from it.
SocConfig soc_config(const workloads::SpecProfile& profile, ModelKind model,
                     EngineKind engine, std::uint64_t seed,
                     const DetectionOptions& options);

DetectionResult measure_detection(const workloads::SpecProfile& profile,
                                  const TrainedModels& models, ModelKind model,
                                  EngineKind engine,
                                  const DetectionOptions& options = {});

}  // namespace rtad::core
