// Ablation — ELM vs a traditional MLP (§IV-C's claim: "the ELM model is
// more lightweight than a traditional MLP while providing similar
// accuracy"). Both are the same deployed autoencoder; the difference is
// training: ELM solves one ridge system, the MLP backpropagates through
// both layers. We compare training cost, detection quality and deployed
// inference latency (identical kernels => identical latency).
// The two trainings and the two deployed-latency simulations are
// independent, so each pair is one run_indexed(2, ...) fan-out
// (RTAD_JOBS); the train times are per-index wall-clock, so on stderr.
#include <chrono>
#include <iostream>

#include "common.hpp"
#include "rtad/core/experiment_runner.hpp"
#include "rtad/core/report.hpp"
#include "rtad/ml/dataset.hpp"
#include "rtad/ml/kernel_compiler.hpp"
#include "rtad/ml/mlp.hpp"
#include "rtad/sim/rng.hpp"
#include "rtad/workloads/spec_model.hpp"

using namespace rtad;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::vector<std::uint32_t> attack_window(const ml::DatasetBuilder& builder,
                                         const workloads::SpecProfile& p,
                                         sim::Xoshiro256& rng) {
  // Syscall-storm windows (the fig8 attack shape): the exploit loops on one
  // legitimate syscall, so half the window collapses onto one bucket.
  std::vector<std::uint32_t> counts(builder.config().elm_vocab, 0);
  const std::uint64_t storm = workloads::TraceGenerator::syscall_address(
      rng.uniform_below(p.syscall_kinds));
  for (std::uint32_t i = 0; i < builder.config().elm_window; ++i) {
    const std::uint64_t addr =
        i % 2 == 0 ? storm
                   : workloads::TraceGenerator::syscall_address(
                         rng.uniform_below(p.syscall_kinds));
    ++counts[builder.elm_bucket(addr)];
  }
  return counts;
}

int run() {
  std::cout << "ABLATION: ELM vs TRADITIONAL MLP (400.perlbench syscall "
               "windows)\n\n";
  const auto& p = workloads::find_profile("perlbench");
  ml::DatasetBuilder builder(p, 77);
  auto data = builder.collect_elm(520);
  std::vector<ml::Vector> train(data.windows.begin(),
                                data.windows.begin() + 400);
  std::vector<ml::Vector> val(data.windows.begin() + 400, data.windows.end());
  const std::uint32_t d = builder.config().elm_vocab;

  // --- train both, concurrently ---
  core::ExperimentRunner runner;
  ml::ElmConfig ecfg;
  ecfg.input_dim = d;
  ml::Elm elm(ecfg);
  ml::MlpConfig mcfg;
  mcfg.input_dim = d;
  mcfg.hidden = ecfg.hidden;
  ml::Mlp mlp(mcfg);

  const auto train_ms = runner.run_indexed(2, [&](std::size_t i) {
    const auto t0 = std::chrono::steady_clock::now();
    if (i == 0) {
      elm.train(train);
    } else {
      mlp.train(train);
    }
    return ms_since(t0);
  });
  const double elm_train_ms = train_ms[0];
  const double mlp_train_ms = train_ms[1];

  // --- calibrate + evaluate detection quality ---
  auto evaluate = [&](auto& model) {
    std::vector<float> val_scores;
    for (const auto& w : val) val_scores.push_back(model.score(w));
    const auto thr = ml::Threshold::calibrate(val_scores, 99.0, 1.1f);
    sim::Xoshiro256 rng(5);
    std::vector<float> attack_scores;
    for (int i = 0; i < 60; ++i) {
      const auto counts = attack_window(builder, p, rng);
      ml::Vector x(d);
      for (std::size_t j = 0; j < x.size(); ++j) {
        x[j] = static_cast<float>(counts[j]) /
               static_cast<float>(builder.config().elm_window);
      }
      attack_scores.push_back(model.score(x));
    }
    return std::make_pair(thr, ml::evaluate_detection(thr, val_scores,
                                                      attack_scores));
  };
  const auto [elm_thr, elm_stats] = evaluate(elm);
  const auto [mlp_thr, mlp_stats] = evaluate(mlp);

  // --- deployed latency (identical kernels, identical cycles) ---
  const auto elm_image =
      ml::compile_elm(elm, elm_thr, builder.config().elm_window);
  const auto mlp_image =
      ml::compile_mlp(mlp, mlp_thr, builder.config().elm_window);
  const std::vector<std::uint32_t> payload(d, 2);
  const auto cycles = runner.run_indexed(2, [&](std::size_t i) {
    return bench::offline_inference_cycles(i == 0 ? elm_image : mlp_image, 5,
                                           payload);
  });
  const auto elm_cycles = cycles[0];
  const auto mlp_cycles = cycles[1];

  core::Table table({"Model", "trained params", "TPR", "FPR",
                     "ML-MIAOW cycles/inference"});
  table.add_row({"ELM",
                 core::fmt_count(static_cast<std::uint64_t>(
                     elm.readout().rows() * elm.readout().cols())),
                 core::fmt(elm_stats.true_positive_rate(), 2),
                 core::fmt(elm_stats.false_positive_rate(), 2),
                 core::fmt_count(elm_cycles)});
  table.add_row({"MLP", core::fmt_count(mlp.parameter_count()),
                 core::fmt(mlp_stats.true_positive_rate(), 2),
                 core::fmt(mlp_stats.false_positive_rate(), 2),
                 core::fmt_count(mlp_cycles)});
  table.print(std::cout);

  std::cerr << "ablation_elm_vs_mlp: train ms ELM "
            << core::fmt(elm_train_ms, 1) << ", MLP "
            << core::fmt(mlp_train_ms, 1) << " (MLP/ELM "
            << core::fmt(mlp_train_ms / std::max(0.01, elm_train_ms), 1)
            << "x)\n";
  std::cout << "\nThe ELM trains its readout with one linear solve (train "
               "times on stderr).\n"
            << "Deployed latency is identical by construction (same kernels),"
               " which is the paper's point:\nELM gives MLP-class accuracy at"
               " a fraction of the training cost and a lighter model.\n";
  return 0;
}

}  // namespace

int main() { return bench::run("ablation_elm_vs_mlp", run); }
