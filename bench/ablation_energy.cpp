// Ablation — energy per inference: trimming as a power lever.
//
// §III-B: "This area saving can bring not only power efficiency but also
// more computation power...". Two comparisons:
//   1. equal performance (1 CU vs 1 CU): trimming removes 82% of the gates,
//      cutting leakage energy at identical latency;
//   2. the shipped configurations (MIAOW 1 CU vs ML-MIAOW 5 CUs): the
//      trimmed engine finishes ~2-4x sooner, so even with 5x the CU count
//      it burns comparable-or-less energy per inference.
// The three engine configurations are independent simulations and run
// concurrently through the experiment runner (RTAD_JOBS).
#include <iostream>

#include "common.hpp"
#include "rtad/core/experiment_runner.hpp"
#include "rtad/core/report.hpp"
#include "rtad/ml/kernel_compiler.hpp"
#include "rtad/trim/area_model.hpp"

using namespace rtad;

namespace {

struct RunResult {
  std::uint64_t cycles = 0;
  trim::EnergyBreakdown energy;
};

RunResult run_engine(const ml::ModelImage& image, std::uint32_t num_cus,
                     bool trimmed) {
  gpgpu::GpuConfig cfg;
  cfg.num_cus = num_cus;
  cfg.collect_coverage = true;
  gpgpu::Gpu gpu(cfg);
  std::vector<bool> retained;
  if (trimmed) {
    retained = gpgpu::RtlInventory::instance().ml_retained();
    gpu.set_trim(retained);
  }
  ml::load_image(gpu, image);
  ml::run_inference_offline(gpu, image, {7u});  // warm
  gpu.reset_coverage();
  const auto before = gpu.total_cycles();
  ml::run_inference_offline(gpu, image, {11u});
  RunResult r;
  r.cycles = gpu.total_cycles() - before;
  r.energy = trim::engine_energy(gpu.coverage(), retained, r.cycles, num_cus);
  return r;
}

int run() {
  std::cout << "ABLATION: ENERGY PER LSTM INFERENCE (45nm model)\n\n";

  ml::LstmConfig lcfg;
  lcfg.epochs = 2;
  ml::Lstm lstm(lcfg);
  std::vector<std::uint32_t> tokens;
  for (int i = 0; i < 1'200; ++i) {
    tokens.push_back(static_cast<std::uint32_t>(i % 13));
  }
  lstm.train(tokens);
  const auto image = ml::compile_lstm(lstm, ml::Threshold(1e9f), 0.0f);

  core::ExperimentRunner runner;
  struct EngineSpec {
    std::uint32_t num_cus;
    bool trimmed;
  };
  const EngineSpec specs[] = {{1, false}, {1, true}, {5, true}};
  const auto runs = runner.run_indexed(3, [&](std::size_t i) {
    return run_engine(image, specs[i].num_cus, specs[i].trimmed);
  });
  const auto& miaow_1 = runs[0];
  const auto& trimmed_1 = runs[1];
  const auto& ml_miaow_5 = runs[2];

  core::Table table({"Engine", "cycles", "latency (us)", "dynamic (nJ)",
                     "leakage (nJ)", "total (nJ)"});
  auto row = [&](const char* name, const RunResult& r) {
    table.add_row({name, core::fmt_count(r.cycles),
                   core::fmt(static_cast<double>(r.cycles) / 50.0, 1),
                   core::fmt(r.energy.dynamic_nj, 1),
                   core::fmt(r.energy.static_nj, 1),
                   core::fmt(r.energy.total_nj(), 1)});
  };
  row("MIAOW (1 CU, untrimmed)", miaow_1);
  row("trimmed (1 CU)", trimmed_1);
  row("ML-MIAOW (5 CUs)", ml_miaow_5);
  table.print(std::cout);

  std::cout << "\nEqual-performance comparison (row 1 vs row 2): identical "
               "cycles and dynamic energy;\nleakage drops by "
            << core::fmt(100.0 * (1.0 - trimmed_1.energy.static_nj /
                                            miaow_1.energy.static_nj),
                         0)
            << "% — the trimmed-away 82% of the design.\n"
            << "Shipped comparison (row 1 vs row 3): "
            << core::fmt(static_cast<double>(miaow_1.cycles) /
                             static_cast<double>(ml_miaow_5.cycles),
                         2)
            << "x faster at "
            << core::fmt(ml_miaow_5.energy.total_nj() /
                             miaow_1.energy.total_nj(),
                         2)
            << "x the energy per inference.\n";
  return 0;
}

}  // namespace

int main() { return bench::run("ablation_energy", run); }
