// Table II — Trimming result of ML-MIAOW.
//
// Runs the actual Fig. 4 flow: simulate the deployed ML kernels with
// coverage collection on (Incisive stand-in), merge the runs (ICCR
// stand-in), trim with both the full-design trimmer (ML-MIAOW) and the
// ALU/decoder-only baseline (MIAOW2.0 [15]), then *verify* the trimmed
// configuration by comparing inference results against the untrimmed
// engine.
#include <iostream>

#include "common.hpp"
#include "rtad/core/report.hpp"
#include "rtad/ml/dataset.hpp"
#include "rtad/ml/kernel_compiler.hpp"
#include "rtad/trim/coverage_db.hpp"
#include "rtad/trim/miaow2_trimmer.hpp"
#include "rtad/trim/trimmer.hpp"
#include "rtad/trim/verifier.hpp"
#include "rtad/workloads/spec_model.hpp"

using namespace rtad;

namespace {

ml::ModelImage build_lstm_image() {
  ml::LstmConfig cfg;
  cfg.epochs = 2;
  ml::Lstm lstm(cfg);
  std::vector<std::uint32_t> tokens;
  sim::Xoshiro256 rng(5);
  for (int i = 0; i < 1'500; ++i) {
    tokens.push_back(rng.chance(0.1)
                         ? static_cast<std::uint32_t>(rng.uniform_below(64))
                         : static_cast<std::uint32_t>(i % 10));
  }
  lstm.train(tokens);
  return ml::compile_lstm(lstm, ml::Threshold(1e9f), 0.0f);
}

trim::CoverageDb collect_coverage(const ml::ModelImage& image) {
  gpgpu::GpuConfig cfg;
  cfg.num_cus = 5;
  cfg.collect_coverage = true;
  gpgpu::Gpu gpu(cfg);
  ml::load_image(gpu, image);
  for (std::uint32_t tok : {1u, 2u, 3u, 9u, 40u}) {
    ml::run_inference_offline(gpu, image, {tok});
  }
  return trim::CoverageDb::from_gpu(gpu);
}

int run() {
  std::cout << "TABLE II: TRIMMING RESULT OF ML-MIAOW\n"
            << "(coverage-driven flow on the deployed LSTM model, as in "
               "the paper's fair comparison)\n\n";

  // Step 1-2: dynamic simulation with coverage; merge runs.
  const auto image = build_lstm_image();
  trim::CoverageDb merged;
  merged.merge(collect_coverage(image));
  std::cout << "Coverage: " << merged.covered_count() << " / "
            << merged.total_units() << " RTL units exercised\n\n";

  // Step 3: trim (ours vs the MIAOW2.0 baseline domain).
  const auto full = trim::trim_full(merged);
  const auto m2 = trim::trim_alu_decoder_only(merged);
  const auto miaow = full.full_area;

  core::Table table({"Design", "LUTs", "FFs", "Sum", "Area"});
  table.add_row({"MIAOW [11]", core::fmt_count(miaow.luts),
                 core::fmt_count(miaow.ffs), core::fmt_count(miaow.lut_ff_sum()),
                 "-"});
  table.add_row({"MIAOW2.0 [15]", core::fmt_count(m2.area.luts),
                 core::fmt_count(m2.area.ffs),
                 core::fmt_count(m2.area.lut_ff_sum()),
                 "-" + core::fmt(100.0 * m2.reduction(), 0) + "%"});
  table.add_row({"ML-MIAOW (ours)", core::fmt_count(full.area.luts),
                 core::fmt_count(full.area.ffs),
                 core::fmt_count(full.area.lut_ff_sum()),
                 "-" + core::fmt(100.0 * full.reduction(), 0) + "%"});
  table.print(std::cout);
  std::cout << "Paper: MIAOW 287,903 (-) | MIAOW2.0 167,721 (-42%) | "
               "ML-MIAOW 52,018 (-82%)\n\n";

  const double perf_per_area =
      static_cast<double>(m2.area.lut_ff_sum()) /
      static_cast<double>(full.area.lut_ff_sum());
  std::cout << "Perf-per-area vs MIAOW2.0 (same kernels, same cycles, "
               "area ratio): "
            << core::fmt(perf_per_area, 1) << "x  (paper: 3.2x)\n";
  const double vs_miaow = static_cast<double>(miaow.lut_ff_sum()) /
                          static_cast<double>(full.area.lut_ff_sum());
  std::cout << "Perf-per-area vs original MIAOW: " << core::fmt(vs_miaow, 1)
            << "x  (paper: ~5x => five CUs fit where one did)\n\n";

  // Step 4: verification against the original engine.
  const auto verdict =
      trim::verify_trim(image, {{1u}, {7u}, {33u}}, full.retained, 5);
  std::cout << "Trim verification: "
            << (verdict.passed ? "PASSED" : "FAILED: " + verdict.detail)
            << " (" << verdict.inferences_compared
            << " inferences compared, max |score delta| = "
            << verdict.max_score_delta << ")\n";
  return verdict.passed ? 0 : 1;
}

}  // namespace

int main() { return bench::run("table2_trimming", run); }
