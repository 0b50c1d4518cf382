// Golden-shape test for the parallel experiment layer: a trimmed
// two-benchmark Fig. 8 run asserting the paper's ordinal claims so future
// performance work cannot silently break correctness:
//   - ML-MIAOW (5 trimmed CUs) beats MIAOW (1 CU) on every cell (§IV-C);
//   - ELM latency is nearly constant across benchmarks (Fig. 8 top);
//   - LSTM latency sits well above ELM latency (53.16 vs 13.83 us means);
//   - results come back in index order with one training/benchmark.
// Benchmarks are chosen at opposite ends of the branch-pressure spectrum:
// 456.hmmer (8% branches) vs 471.omnetpp (26%, the paper's drop-heavy
// case).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "rtad/core/experiment_runner.hpp"

namespace rtad::core {
namespace {

const std::vector<std::string> kBenchmarks = {"hmmer", "omnetpp"};

workloads::SpecProfile fast_profile(const std::string& name) {
  auto p = workloads::find_profile(name);
  p.syscall_interval_instrs =
      std::min<std::uint64_t>(p.syscall_interval_instrs, 40'000);
  return p;
}

struct Fig8Mini {
  std::vector<DetectionCell> cells;
  std::vector<CellResult> results;
  std::size_t trainings = 0;

  // Cell order per benchmark matches bench/fig8_detection: ELM/MIAOW,
  // ELM/ML-MIAOW, LSTM/MIAOW, LSTM/ML-MIAOW.
  const DetectionResult& at(std::size_t bench, ModelKind model,
                            EngineKind engine) const {
    const std::size_t offset =
        (model == ModelKind::kLstm ? 2 : 0) +
        (engine == EngineKind::kMlMiaow ? 1 : 0);
    return results[bench * 4 + offset].detection;
  }
};

const Fig8Mini& run_fig8_mini() {
  static const Fig8Mini run = [] {
    Fig8Mini out;
    DetectionOptions dopt;
    dopt.attacks = 3;
    for (const auto& name : kBenchmarks) {
      for (const auto model : {ModelKind::kElm, ModelKind::kLstm}) {
        for (const auto engine :
             {EngineKind::kMiaow, EngineKind::kMlMiaow}) {
          out.cells.push_back({name, model, engine, dopt});
        }
      }
    }
    // Paper-fidelity training (the shape claims need the real models);
    // only the syscall cadence is compressed to keep simulated time short.
    auto cache = std::make_shared<TrainedModelCache>(
        TrainingOptions{},
        [](const std::string& name) { return fast_profile(name); });
    ExperimentRunner runner(0, cache);
    out.results = runner.run_detection_matrix(out.cells);
    out.trainings = cache->trainings();
    return out;
  }();
  return run;
}

TEST(ExperimentLayer, ResultsArriveInSubmissionOrder) {
  const auto& run = run_fig8_mini();
  ASSERT_EQ(run.results.size(), run.cells.size());
  for (std::size_t i = 0; i < run.cells.size(); ++i) {
    EXPECT_EQ(run.results[i].detection.benchmark,
              fast_profile(run.cells[i].benchmark).name);
    EXPECT_EQ(run.results[i].detection.model, run.cells[i].model);
    EXPECT_EQ(run.results[i].detection.engine, run.cells[i].engine);
  }
}

TEST(ExperimentLayer, EveryCellDetectsAndOneTrainingPerBenchmark) {
  const auto& run = run_fig8_mini();
  for (const auto& r : run.results) {
    EXPECT_GE(r.detection.detections, 1u)
        << r.detection.benchmark << " " << to_string(r.detection.model)
        << "/" << to_string(r.detection.engine);
    EXPECT_GT(r.detection.inferences, 0u);
  }
  // Four cells per benchmark share one TrainedModels: the cache must have
  // trained exactly once per benchmark, not once per engine.
  EXPECT_EQ(run.trainings, kBenchmarks.size());
}

TEST(ExperimentLayer, MlMiaowBeatsMiaowOnEveryCell) {
  const auto& run = run_fig8_mini();
  for (std::size_t b = 0; b < kBenchmarks.size(); ++b) {
    for (const auto model : {ModelKind::kElm, ModelKind::kLstm}) {
      const auto& slow = run.at(b, model, EngineKind::kMiaow);
      const auto& fast = run.at(b, model, EngineKind::kMlMiaow);
      EXPECT_LT(fast.mean_latency_us, slow.mean_latency_us)
          << kBenchmarks[b] << " " << to_string(model);
    }
  }
}

TEST(ExperimentLayer, ElmLatencyNearlyConstantAcrossBenchmarks) {
  const auto& run = run_fig8_mini();
  for (const auto engine : {EngineKind::kMiaow, EngineKind::kMlMiaow}) {
    const double a =
        run.at(0, ModelKind::kElm, engine).mean_latency_us;
    const double c =
        run.at(1, ModelKind::kElm, engine).mean_latency_us;
    const double hi = std::max(a, c), lo = std::min(a, c);
    ASSERT_GT(lo, 0.0);
    // Fig. 8 top: the ELM bars are flat across the whole suite. Windowed
    // histogram scoring costs the same wherever it runs; allow 50% slack
    // for queueing noise between two very different benchmarks.
    EXPECT_LT(hi / lo, 1.5) << to_string(engine);
  }
}

TEST(ExperimentLayer, LstmSitsAboveElmPerBenchmarkOnMlMiaow) {
  const auto& run = run_fig8_mini();
  for (std::size_t b = 0; b < kBenchmarks.size(); ++b) {
    const double elm =
        run.at(b, ModelKind::kElm, EngineKind::kMlMiaow).mean_latency_us;
    const double lstm =
        run.at(b, ModelKind::kLstm, EngineKind::kMlMiaow).mean_latency_us;
    // Paper means on ML-MIAOW: LSTM 23.98 vs ELM 4.21 us — the recurrent
    // model is strictly heavier per inference. (On saturated MIAOW the
    // ELM's 13x inference load drowns this in queueing, so the claim is
    // only asserted where the engine keeps up.)
    EXPECT_GT(lstm, elm) << kBenchmarks[b];
  }
}

TEST(ExperimentLayer, EtraceFrontendFlagsTheSameAnomalies) {
  // The trace protocol is a wire-encoding choice: swapping the PFT
  // frontend for E-Trace on the same cell must reproduce the identical
  // flagged-anomaly set (attacks, detections, false positives). Latency
  // may move by decode-pipeline jitter; verdicts may not.
  auto cache = std::make_shared<TrainedModelCache>(
      TrainingOptions{},
      [](const std::string& name) { return fast_profile(name); });
  const auto profile = cache->profile("hmmer");
  const auto& models = cache->get("hmmer");

  DetectionOptions dopt;
  dopt.attacks = 3;
  dopt.trace_path.clear();
  dopt.metrics_path.clear();
  dopt.proto = trace::TraceProtocol::kPft;
  const auto pft = measure_detection(profile, models, ModelKind::kLstm,
                                     EngineKind::kMlMiaow, dopt);
  dopt.proto = trace::TraceProtocol::kEtrace;
  const auto etrace = measure_detection(profile, models, ModelKind::kLstm,
                                        EngineKind::kMlMiaow, dopt);

  EXPECT_EQ(pft.trace_protocol, trace::TraceProtocol::kPft);
  EXPECT_EQ(etrace.trace_protocol, trace::TraceProtocol::kEtrace);
  EXPECT_EQ(pft.attacks, etrace.attacks);
  EXPECT_EQ(pft.detections, etrace.detections);
  EXPECT_EQ(pft.false_positives, etrace.false_positives);
  // Both frontends decoded a healthy stream...
  EXPECT_GT(pft.decode_branches, 0u);
  EXPECT_GT(etrace.decode_branches, 0u);
  EXPECT_EQ(pft.decode_bad_packets, 0u);
  EXPECT_EQ(etrace.decode_bad_packets, 0u);
  // ...but over genuinely different encodings.
  EXPECT_NE(pft.trace_bytes_generated, etrace.trace_bytes_generated);
}

TEST(ExperimentLayer, LstmLatencyIsBenchmarkDependent) {
  const auto& run = run_fig8_mini();
  for (const auto engine : {EngineKind::kMiaow, EngineKind::kMlMiaow}) {
    const double light =
        run.at(0, ModelKind::kLstm, engine).mean_latency_us;  // hmmer, 8%
    const double heavy =
        run.at(1, ModelKind::kLstm, engine).mean_latency_us;  // omnetpp, 26%
    // Fig. 8 bottom: LSTM latency tracks branch pressure — branchier
    // programs emit monitored tokens faster, so inferences queue deeper.
    EXPECT_GT(heavy, light) << to_string(engine);
  }
}

}  // namespace
}  // namespace rtad::core
