// Fig. 8 — Latencies of anomaly detection across the SPEC CINT2006 suite,
// for {ELM, LSTM} x {MIAOW (1 CU), ML-MIAOW (5 CUs)}.
//
// For each benchmark: train both models once on its normal trace, deploy
// the same images on both engines, emulate attacks by injecting legitimate
// branch data (monitored call targets / valid syscalls) and measure the
// time from the first aberrant branch retiring to the MCM interrupt.
//
// The full matrix fans out through an ExperimentRunner; results are
// aggregated in index order, so stdout is byte-identical for any
// RTAD_JOBS value. Per-cell wall-clock/simulated-time costs go to stderr.
//
// The paper shape is all twelve benchmarks with 8 attacks per cell; under
// RTAD_SMOKE=1 (bench/common.hpp) it is astar with 2 attacks on the reduced
// corpus, still the full 4-cell matrix. Other knobs:
// RTAD_TRACE_PROTO=pft|etrace selects the trace protocol (its bytes/branch
// and decode-cycle stats go to stderr);
// RTAD_JOBS=N sets worker count (default: hardware concurrency);
// RTAD_SCHED=dense|event selects the simulation kernel and
// RTAD_BACKEND=cycle|fast the kernel execution backend — stdout and
// metrics exports are byte-identical either way (bench/sim_speed times
// and gates both fast paths);
// RTAD_TRACE=<path> writes a Chrome-trace/Perfetto JSON per cell
// (multi-cell runs insert ".cellNNN" before a trailing ".json");
// RTAD_METRICS=<path> writes stable-key JSON run metrics the same way.
// Both exports are byte-identical across schedulers and worker counts,
// and leave stdout untouched (cycle accounts go to stderr).
#include <algorithm>
#include <iostream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "rtad/core/experiment_runner.hpp"
#include "rtad/core/report.hpp"
#include "rtad/trace/protocol.hpp"

using namespace rtad;

namespace {

/// The run's size: catalog benchmark names and attacks per cell.
struct Shape {
  std::vector<std::string> benchmarks;
  std::size_t attacks;
};

// Column order of the table: model-major, then engine.
constexpr core::ModelKind kModels[] = {core::ModelKind::kElm,
                                       core::ModelKind::kLstm};
constexpr core::EngineKind kEngines[] = {core::EngineKind::kMiaow,
                                         core::EngineKind::kMlMiaow};
constexpr std::size_t kStride = std::size(kModels) * std::size(kEngines);

/// Mean latency of one column over the cells that detected: a cell that
/// detected nothing has no latency to average.
struct Agg {
  double sum = 0;
  std::size_t n = 0;
  void add(const core::DetectionResult& cell) {
    if (cell.detections == 0) return;
    sum += cell.mean_latency_us;
    ++n;
  }
  std::optional<double> mean() const {
    if (n == 0) return std::nullopt;
    return sum / static_cast<double>(n);
  }
};

std::string fmt_or_na(std::optional<double> v, const char* suffix = "") {
  return v ? core::fmt(*v, 2) + suffix : std::string("n/a");
}

int run() {
  const Shape paper{workloads::spec_names(), 8};
  const Shape smoke{{workloads::find_profile("astar").name}, 2};
  const Shape& shape = bench::smoke() ? smoke : paper;
  core::DetectionOptions dopt = core::DetectionOptions::from_env();
  dopt.attacks = shape.attacks;

  std::cout << "FIG. 8: LATENCIES OF ANOMALY DETECTION (us)\n\n";
  const auto& benchmarks = shape.benchmarks;
  std::vector<core::DetectionCell> cells;
  cells.reserve(benchmarks.size() * kStride);
  for (const auto& name : benchmarks) {
    for (const auto model : kModels) {
      for (const auto engine : kEngines) {
        cells.push_back({name, model, engine, dopt});
      }
    }
  }

  core::ExperimentRunner runner(0, bench::model_cache());
  std::cerr << "fig8: " << cells.size() << " cells on "
            << runner.jobs() << " workers...\n";
  const auto results = runner.run_detection_matrix(cells);

  // Trace-frontend cost of the selected protocol: encoder bandwidth (bytes
  // per decoded branch) and IGM decode occupancy. Diagnostics only
  // (stderr).
  std::uint64_t bytes = 0;
  std::uint64_t branches = 0;
  std::uint64_t busy = 0;
  for (const auto& r : results) {
    bytes += r.detection.trace_bytes_generated;
    branches += r.detection.decode_branches;
    busy += r.detection.igm_busy_cycles;
  }
  const double per_branch =
      branches > 0 ? static_cast<double>(bytes) / static_cast<double>(branches)
                   : 0.0;
  std::cerr << "fig8: proto=" << trace::to_string(dopt.proto)
            << " trace_bytes=" << bytes << " decode_branches=" << branches
            << " bytes_per_branch=" << core::fmt(per_branch, 3)
            << " igm_busy_cycles=" << busy << "\n";

  std::vector<std::string> headers{"Benchmark"};
  for (const auto model : kModels) {
    for (const auto engine : kEngines) {
      headers.push_back(std::string(core::to_string(model)) + "/" +
                        core::to_string(engine));
    }
  }
  for (const auto engine : kEngines) {
    headers.push_back(std::string("drops(LSTM/") + core::to_string(engine) +
                      ")");
  }
  core::Table table(headers);

  std::vector<Agg> agg(kStride);
  for (std::size_t b = 0; b < benchmarks.size(); ++b) {
    std::vector<std::string> row{benchmarks[b]};
    std::vector<std::string> drops;
    for (std::size_t c = 0; c < kStride; ++c) {
      const auto& cell = results[b * kStride + c].detection;
      agg[c].add(cell);
      row.push_back(core::fmt(cell.mean_latency_us, 1));
      if (cells[b * kStride + c].model == core::ModelKind::kLstm) {
        drops.push_back(core::fmt_count(cell.fifo_drops));
      }
    }
    row.insert(row.end(), drops.begin(), drops.end());
    table.add_row(row);
  }
  table.print(std::cout);

  // Per-model engine speedup, and the overall line averaging both models'
  // ratios (the paper's figure). A ratio is n/a when either engine's
  // column detected nothing.
  std::cout << "\nAverages (us):\n";
  std::optional<double> ratios[std::size(kModels)];
  for (std::size_t m = 0; m < std::size(kModels); ++m) {
    const bool elm = kModels[m] == core::ModelKind::kElm;
    const auto miaow = agg[m * std::size(kEngines)].mean();
    const auto ml = agg[m * std::size(kEngines) + 1].mean();
    if (miaow && ml) ratios[m] = *miaow / *ml;
    std::cout << "  " << (elm ? "ELM : " : "LSTM: ") << "MIAOW "
              << fmt_or_na(miaow) << " -> ML-MIAOW " << fmt_or_na(ml) << "  ("
              << fmt_or_na(ratios[m], "x") << "; paper: "
              << (elm ? "13.83 -> 4.21 = 3.28x" : "53.16 -> 23.98 = 2.22x")
              << ")\n";
  }
  std::optional<double> overall;
  if (ratios[0] && ratios[1]) overall = (*ratios[0] + *ratios[1]) / 2.0;
  std::cout << "  Overall engine speedup: " << fmt_or_na(overall, "x")
            << " (paper: 2.75x)\n";
  std::cout << "\nShape checks: ELM nearly constant per benchmark; LSTM "
               "varies with branch pressure;\n"
            << "FIFO drops concentrate on branch-heavy benchmarks (e.g. "
               "471.omnetpp) with the slower MIAOW engine.\n";

  runner.print_cell_costs(std::cerr, cells, results);
  const bool has_accounts =
      std::any_of(results.begin(), results.end(), [](const auto& r) {
        return !r.detection.cycle_accounts.empty();
      });
  if (has_accounts) {
    core::ExperimentRunner::print_cycle_accounts(std::cerr, cells, results);
  }
  return 0;
}

}  // namespace

int main() { return bench::run("fig8", run); }
