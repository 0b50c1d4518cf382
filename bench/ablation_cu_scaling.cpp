// Ablation — inference latency vs compute-unit count.
//
// Shows where ELM and LSTM inference stop scaling (Amdahl: single-workgroup
// reduction/score stages), explaining the paper's 3.28x / 2.22x engine
// speedups and the choice of five CUs.
// The per-CU-count measurements are independent simulations (each builds
// its own Gpu), so they fan out across the experiment runner (RTAD_JOBS).
#include <iostream>

#include "common.hpp"
#include "rtad/core/experiment_runner.hpp"
#include "rtad/core/report.hpp"
#include "rtad/ml/dataset.hpp"
#include "rtad/ml/kernel_compiler.hpp"
#include "rtad/workloads/spec_model.hpp"

using namespace rtad;

namespace {

int run() {
  std::cout << "ABLATION: INFERENCE LATENCY vs CU COUNT (GPU cycles @50 MHz)\n\n";

  core::ExperimentRunner runner;

  // The two trainings are independent: index 0 trains the ELM, 1 the LSTM.
  const auto& profile = workloads::find_profile("gcc");
  ml::DatasetBuilder builder(profile, 11);
  const auto images = runner.run_indexed(2, [&builder](std::size_t i) {
    if (i == 0) {
      auto windows = builder.collect_elm(260);
      ml::ElmConfig ecfg;
      ecfg.input_dim = builder.config().elm_vocab;
      ml::Elm elm(ecfg);
      elm.train(windows.windows);
      return ml::compile_elm(elm, ml::Threshold(1e9f),
                             builder.config().elm_window);
    }
    ml::LstmConfig lcfg;
    lcfg.epochs = 2;
    ml::Lstm lstm(lcfg);
    std::vector<std::uint32_t> tokens;
    for (int t = 0; t < 1'500; ++t) {
      tokens.push_back(static_cast<std::uint32_t>(t % 9));
    }
    lstm.train(tokens);
    return ml::compile_lstm(lstm, ml::Threshold(1e9f), 0.0f);
  });
  const auto& elm_image = images[0];
  const auto& lstm_image = images[1];
  const std::vector<std::uint32_t> elm_payload(builder.config().elm_vocab, 1);

  // Sweep CU counts 1..6 for both models in parallel; index i maps to
  // (cus = i/2 + 1, model = i%2) so results come back in table order.
  const auto sweep = runner.run_indexed(12, [&](std::size_t i) {
    const auto cus = static_cast<std::uint32_t>(i / 2 + 1);
    return i % 2 == 0
               ? bench::offline_inference_cycles(elm_image, cus, elm_payload)
               : bench::offline_inference_cycles(lstm_image, cus, {3u});
  });

  core::Table table({"CUs", "ELM cycles", "ELM us", "ELM speedup",
                     "LSTM cycles", "LSTM us", "LSTM speedup"});
  const auto elm_1 = sweep[0];
  const auto lstm_1 = sweep[1];
  for (std::uint32_t cus = 1; cus <= 6; ++cus) {
    const auto e = sweep[(cus - 1) * 2];
    const auto l = sweep[(cus - 1) * 2 + 1];
    table.add_row({std::to_string(cus), core::fmt_count(e),
                   core::fmt(static_cast<double>(e) / 50.0, 1),
                   core::fmt(static_cast<double>(elm_1) / e, 2) + "x",
                   core::fmt_count(l),
                   core::fmt(static_cast<double>(l) / 50.0, 1),
                   core::fmt(static_cast<double>(lstm_1) / l, 2) + "x"});
  }
  table.print(std::cout);
  std::cout << "\nELM scales to 5 CUs (5 hidden-slice workgroups); LSTM "
               "gate computation uses 4 workgroups\nand its state/logits/"
               "score stages are single-workgroup, capping the speedup — "
               "the paper's 2.2x.\nBeyond 5 CUs nothing improves: that is "
               "why ML-MIAOW ships 5 (all the trimmed area affords).\n";
  return 0;
}

}  // namespace

int main() { return bench::run("ablation_cu_scaling", run); }
