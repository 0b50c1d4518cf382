#include "rtad/core/experiment.hpp"

#include <algorithm>

#include "rtad/core/detection_session.hpp"
#include "rtad/core/env.hpp"

namespace rtad::core {

namespace {

/// EWMA trace of host-LSTM NLLs over a validation stream (threshold
/// calibration happens in score space, which is what the device thresholds).
std::vector<float> lstm_ewma_scores(const ml::Lstm& lstm,
                                    const std::vector<std::uint32_t>& tokens) {
  std::vector<float> scores;
  scores.reserve(tokens.size());
  auto state = lstm.initial_state();
  for (const auto t : tokens) {
    lstm.step(state, t);
    scores.push_back(state.ewma_nll);
  }
  return scores;
}

}  // namespace

DetectionOptions DetectionOptions::from_env() {
  DetectionOptions o;
  const bool dense =
      env::choice_or("RTAD_SCHED", {"dense", "event"}, "event") == "dense";
  o.sched = dense ? sim::SchedMode::kDense : sim::SchedMode::kEventDriven;
  const bool fast =
      env::choice_or("RTAD_BACKEND", {"cycle", "fast"}, "cycle") == "fast";
  o.backend = fast ? gpgpu::GpuBackend::kFast : gpgpu::GpuBackend::kCycle;
  if (const auto spec = env::raw("RTAD_FAULTS")) {
    o.faults = fault::FaultPlan::parse(*spec);
  }
  const bool etrace =
      env::choice_or("RTAD_TRACE_PROTO", {"pft", "etrace"}, "pft") == "etrace";
  o.proto = etrace ? trace::TraceProtocol::kEtrace : trace::TraceProtocol::kPft;
  o.trace_path = env::string_or("RTAD_TRACE", "");
  o.metrics_path = env::string_or("RTAD_METRICS", "");
  return o;
}

SocConfig soc_config(const workloads::SpecProfile& profile, ModelKind model,
                     EngineKind engine, std::uint64_t seed,
                     const DetectionOptions& options) {
  SocConfig cfg;
  cfg.profile = profile;
  if (model == ModelKind::kElm) {
    cfg.profile.syscall_interval_instrs =
        std::min(cfg.profile.syscall_interval_instrs,
                 options.elm_syscall_interval_cap);
  }
  cfg.model = model;
  cfg.engine = engine;
  cfg.seed = seed;
  cfg.sched = options.sched;
  cfg.gpu_backend = options.backend;
  cfg.faults = options.faults;
  cfg.trace_proto = options.proto;
  // The workload's drift clock starts where the session sits on the fleet
  // timeline, so serve tenants' drift phases and the ensemble's retrain
  // schedule agree on one notion of time.
  cfg.drift_base_ps = options.ensemble.base_ps;
  return cfg;
}

TrainedModels train_models(const workloads::SpecProfile& profile,
                           const TrainingOptions& options) {
  TrainedModels out;
  out.features = std::make_unique<ml::DatasetBuilder>(profile, options.seed);
  train_model_side(out, ModelKind::kLstm, options);
  train_model_side(out, ModelKind::kElm, options);
  return out;
}

void train_model_side(TrainedModels& out, ModelKind kind,
                      const TrainingOptions& options) {
  const auto& fcfg = out.features->config();
  if (kind == ModelKind::kLstm) {
    ml::LstmConfig lstm_cfg = options.lstm;
    lstm_cfg.vocab = fcfg.lstm_vocab;
    out.lstm = std::make_unique<ml::Lstm>(lstm_cfg);
    auto lstm_data = out.features->collect_lstm(options.lstm_train_tokens +
                                                options.lstm_val_tokens);
    std::vector<std::uint32_t> train_tokens(
        lstm_data.tokens.begin(),
        lstm_data.tokens.begin() +
            static_cast<long>(options.lstm_train_tokens));
    std::vector<std::uint32_t> val_tokens(
        lstm_data.tokens.begin() +
            static_cast<long>(options.lstm_train_tokens),
        lstm_data.tokens.end());
    out.lstm_train_final_nll = out.lstm->train(train_tokens);
    out.lstm_val_mean_nll = out.lstm->evaluate(val_tokens);
    const auto ewma = lstm_ewma_scores(*out.lstm, val_tokens);
    out.lstm_threshold = ml::Threshold::calibrate(
        ewma, options.threshold_percentile, options.threshold_margin);
    out.lstm_image = ml::compile_lstm(*out.lstm, out.lstm_threshold,
                                      out.lstm_val_mean_nll);
    return;
  }

  ml::ElmConfig elm_cfg = options.elm;
  elm_cfg.input_dim = fcfg.elm_vocab;
  out.elm = std::make_unique<ml::Elm>(elm_cfg);
  auto windows = out.features->collect_elm(options.elm_train_windows +
                                           options.elm_val_windows);
  std::vector<ml::Vector> train_w(
      windows.windows.begin(),
      windows.windows.begin() + static_cast<long>(options.elm_train_windows));
  out.elm->train(train_w);
  std::vector<float> val_scores;
  for (std::size_t i = options.elm_train_windows; i < windows.windows.size();
       ++i) {
    val_scores.push_back(out.elm->score(windows.windows[i]));
  }
  out.elm_threshold = ml::Threshold::calibrate(
      val_scores, options.threshold_percentile, options.threshold_margin);
  out.elm_image =
      ml::compile_elm(*out.elm, out.elm_threshold, fcfg.elm_window);
}

double measure_overhead(const workloads::SpecProfile& profile,
                        cpu::InstrumentationMode mode,
                        const DetectionOptions& options,
                        std::uint64_t instructions, std::uint64_t seed) {
  SocConfig cfg = soc_config(profile, ModelKind::kLstm, EngineKind::kMlMiaow,
                             seed, options);
  cfg.mode = mode;
  RtadSoc soc(cfg, nullptr, nullptr);
  soc.run_for_instructions(instructions);
  const auto& cpu = soc.host_cpu();
  return 100.0 * static_cast<double>(cpu.overhead_instructions()) /
         static_cast<double>(cpu.program_instructions());
}

TransferBreakdown measure_rtad_transfer(const workloads::SpecProfile& profile,
                                        const TrainedModels& models,
                                        ModelKind model, EngineKind engine,
                                        const DetectionOptions& options,
                                        std::size_t samples,
                                        std::uint64_t seed) {
  RtadSoc soc(soc_config(profile, model, engine, seed, options),
              &models.image(model), models.features.get());

  sim::Sampler step12_us;
  soc.igm().set_emit_observer(
      [&](const igm::InputVector& vec, sim::Picoseconds emit_ps) {
        if (emit_ps > vec.origin_ps) {
          step12_us.record(sim::to_us(emit_ps - vec.origin_ps));
        }
      });
  sim::Sampler step3_us;
  soc.mcm().set_inference_observer([&](const mcm::InferenceRecord&) {
    step3_us.record(soc.mcm().last_tx_cycles() * 8e-3);  // 8 ns cycles
  });

  soc.run_while(
      [&] {
        return step12_us.count() < samples || step3_us.count() < samples;
      },
      400 * sim::kPsPerMs);

  TransferBreakdown b;
  const double igm_pipeline_us = 2 * 8e-3;  // 2 fabric cycles
  b.step2_us = igm_pipeline_us;
  b.step1_us = std::max(0.0, step12_us.mean() - igm_pipeline_us);
  b.step3_us = step3_us.mean();
  return b;
}

DetectionResult measure_detection(const workloads::SpecProfile& profile,
                                  const TrainedModels& models, ModelKind model,
                                  EngineKind engine,
                                  const DetectionOptions& options) {
  DetectionSession session(profile, models, model, engine, options);
  session.run_to_completion();
  return session.result();
}

}  // namespace rtad::core
