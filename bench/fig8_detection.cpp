// Fig. 8 — Latencies of anomaly detection across the SPEC CINT2006 suite,
// for {ELM, LSTM} x {MIAOW (1 CU), ML-MIAOW (5 CUs)}.
//
// For each benchmark: train both models once on its normal trace, deploy
// the same images on both engines, emulate attacks by injecting legitimate
// branch data (monitored call targets / valid syscalls) and measure the
// time from the first aberrant branch retiring to the MCM interrupt.
//
// The full matrix fans out across an ExperimentRunner pool; results are
// aggregated in submission order, so stdout is byte-identical for any
// RTAD_JOBS value. Per-cell wall-clock/simulated-time costs go to stderr.
//
// Environment knobs: RTAD_FIG8_BENCHMARKS="gcc,mcf" restricts the suite;
// RTAD_FIG8_MODELS="elm,lstm" and RTAD_FIG8_ENGINES="miaow,ml-miaow"
// restrict the matrix columns (the summary lines adapt: engine-speedup
// ratios need both engines, the overall line needs the full matrix);
// RTAD_FIG8_ATTACKS=N sets attacks per configuration (default 8);
// RTAD_FIG8_PROTO="pft,etrace" adds a trace-protocol axis to the matrix
// (default: just the RTAD_TRACE_PROTO protocol — the table shape and
// stdout are unchanged unless more than one protocol is listed;
// per-protocol bytes/branch and decode-cycle stats go to stderr);
// RTAD_JOBS=N sets worker count (default: hardware concurrency);
// RTAD_FAST_TRAIN=1 shrinks the training corpus (bench/common.hpp) and
// pre-warms the model cache so matrix_wall_ms covers simulation only;
// RTAD_SCHED=dense|event selects the simulation kernel — stdout is
// byte-identical either way, scheduler statistics go to stderr;
// RTAD_BACKEND=cycle|fast selects the kernel execution backend (stdout and
// metrics exports are byte-identical either way; the backend line and
// gpu_exec_wall_ms go to stderr); RTAD_FIG8_BACKEND_PROBE=N times N
// offline inferences of the first cell's kernels on both backends and
// reports the kernel-simulation speedup to stderr;
// RTAD_TRACE=<path> writes a Chrome-trace/Perfetto JSON per cell
// (multi-cell runs insert ".cellNNN" before a trailing ".json");
// RTAD_METRICS=<path> writes stable-key JSON run metrics the same way.
// Both exports are byte-identical across schedulers and worker counts,
// and leave stdout untouched (cycle accounts go to stderr).
#include <algorithm>
#include <chrono>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "rtad/core/env.hpp"
#include "rtad/core/experiment_runner.hpp"
#include "rtad/core/report.hpp"
#include "rtad/ml/kernel_compiler.hpp"
#include "rtad/trace/protocol.hpp"

using namespace rtad;

namespace {

/// Items of the comma-list knob `knob`, each one of `names`; all of
/// `names` when unset.
std::vector<std::string> knob_list(const char* knob,
                                   std::initializer_list<const char*> names) {
  return core::env::list_or(knob, {names.begin(), names.end()}, names);
}

std::vector<std::string> selected_benchmarks() {
  const auto all = workloads::spec_names();
  std::vector<std::string> names;
  for (const auto& b : core::env::list_or("RTAD_FIG8_BENCHMARKS", all)) {
    names.push_back(workloads::find_profile(b).name);
  }
  return names;
}

std::vector<core::ModelKind> selected_models() {
  std::vector<core::ModelKind> models;
  for (const auto& m : knob_list("RTAD_FIG8_MODELS", {"elm", "lstm"})) {
    models.push_back(m == "elm" ? core::ModelKind::kElm
                                : core::ModelKind::kLstm);
  }
  return models;
}

std::vector<trace::TraceProtocol> selected_protocols(
    trace::TraceProtocol fallback) {
  const auto items = core::env::list_or(
      "RTAD_FIG8_PROTO", {trace::to_string(fallback)}, {"pft", "etrace"});
  std::vector<trace::TraceProtocol> protos;
  for (const auto& p : items) {
    protos.push_back(p == "pft" ? trace::TraceProtocol::kPft
                                : trace::TraceProtocol::kEtrace);
  }
  return protos;
}

std::vector<core::EngineKind> selected_engines() {
  std::vector<core::EngineKind> engines;
  for (const auto& e : knob_list("RTAD_FIG8_ENGINES", {"miaow", "ml-miaow"})) {
    engines.push_back(e == "miaow" ? core::EngineKind::kMiaow
                                   : core::EngineKind::kMlMiaow);
  }
  return engines;
}

struct Agg {
  double sum = 0;
  std::size_t n = 0;
  void add(double v) {
    sum += v;
    ++n;
  }
  double mean() const { return n == 0 ? 0.0 : sum / static_cast<double>(n); }
};

int run() {
  core::DetectionOptions dopt = core::DetectionOptions::from_env();
  dopt.attacks = core::env::positive_or("RTAD_FIG8_ATTACKS", 8);

  // Cell order per benchmark is protocol-major then model-major: with the
  // default single protocol that's ELM/MIAOW, ELM/ML-MIAOW, LSTM/MIAOW,
  // LSTM/ML-MIAOW in the full matrix — the table's column order.
  const auto benchmarks = selected_benchmarks();
  const auto protos = selected_protocols(dopt.proto);
  const auto models = selected_models();
  const auto engines = selected_engines();
  const std::uint64_t probes = core::env::u64_or("RTAD_FIG8_BACKEND_PROBE", 0);
  std::cout << "FIG. 8: LATENCIES OF ANOMALY DETECTION (us)\n\n";
  const std::size_t stride = protos.size() * models.size() * engines.size();
  std::vector<core::DetectionCell> cells;
  cells.reserve(benchmarks.size() * stride);
  for (const auto& name : benchmarks) {
    for (const auto proto : protos) {
      for (const auto model : models) {
        for (const auto engine : engines) {
          core::DetectionOptions popt = dopt;
          popt.proto = proto;
          cells.push_back({name, model, engine, popt});
        }
      }
    }
  }

  const auto cache = bench::model_cache();

  // With a fast-train cache, pre-warm every benchmark's models before the
  // matrix so the timed region below is pure simulation. Training is
  // identical host-side work under either scheduler kernel; keeping it out
  // of matrix_wall_ms lets the perf smoke compare the kernels themselves.
  if (bench::fast_train()) {
    for (const auto& name : benchmarks) cache->get(name);
  }

  // Optional kernel-simulation probe (RTAD_FIG8_BACKEND_PROBE=N): run N
  // offline inferences of the first cell's trained kernels on each backend
  // and report the wall-clock ratio. This isolates the cost the execution
  // backend is responsible for — inside the matrix, wall-clock during a
  // launch also covers the concurrently simulated CPU/fabric domains,
  // which no GPU backend can remove. Diagnostics only (stderr).
  if (probes > 0) {
    const core::TrainedModels& trained = cache->get(benchmarks.front());
    const core::ModelKind probe_model = models.front();
    const ml::ModelImage& image = trained.image(probe_model);
    double wall_us[2] = {0.0, 0.0};
    std::uint64_t probe_fast_launches = 0;
    for (int bi = 0; bi < 2; ++bi) {
      gpgpu::GpuConfig cfg;
      cfg.backend =
          bi == 0 ? gpgpu::GpuBackend::kCycle : gpgpu::GpuBackend::kFast;
      gpgpu::Gpu gpu(cfg);
      ml::load_image(gpu, image);
      std::vector<std::uint32_t> payload(image.input_words, 1);
      ml::run_inference_offline(gpu, image, payload);  // warm decode cache
      const auto t0 = std::chrono::steady_clock::now();
      for (std::uint64_t i = 0; i < probes; ++i) {
        payload[0] = static_cast<std::uint32_t>(i % 13);
        ml::run_inference_offline(gpu, image, payload);
      }
      wall_us[bi] = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
      if (bi == 1) probe_fast_launches = gpu.fast_launches();
    }
    std::cerr << "fig8: backend_probe model="
              << core::to_string(probe_model) << " inferences=" << probes
              << " cycle_wall_us=" << static_cast<long long>(wall_us[0])
              << " fast_wall_us=" << static_cast<long long>(wall_us[1])
              << " kernel_speedup="
              << core::fmt(wall_us[1] > 0 ? wall_us[0] / wall_us[1] : 0.0, 2)
              << " fast_launches=" << probe_fast_launches << "\n";
  }

  core::ExperimentRunner runner(0, cache);
  std::cerr << "fig8: " << cells.size() << " cells on "
            << runner.pool().worker_count() << " workers...\n";
  const auto matrix_start = std::chrono::steady_clock::now();
  const auto results = runner.run_detection_matrix(cells);
  const auto matrix_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - matrix_start)
                             .count();
  // Diagnostics only (stdout stays byte-identical across kernels).
  std::cerr << "fig8: matrix_wall_ms=" << matrix_ms << "\n";

  std::uint64_t skipped_groups = 0;
  std::uint64_t skipped_cycles = 0;
  std::uint64_t gpu_wall_ns = 0;
  std::uint64_t fast_launches = 0;
  for (const auto& r : results) {
    skipped_groups += r.detection.skipped_edge_groups;
    skipped_cycles += r.detection.skipped_cycles;
    gpu_wall_ns += r.detection.gpu_exec_wall_ns;
    fast_launches += r.detection.gpu_fast_launches;
  }
  // Diagnostics only: the kernel-simulation wall is the share of the matrix
  // the execution backend is responsible for, which is what the perf smoke
  // compares across RTAD_BACKEND (stdout stays byte-identical).
  std::cerr << "fig8: backend=" << gpgpu::to_string(dopt.backend)
            << " gpu_exec_wall_ms=" << gpu_wall_ns / 1'000'000
            << " fast_launches=" << fast_launches << "\n";
  // Diagnostics only — scheduler mode must never leak into stdout, which
  // is compared byte-for-byte across kernels by the perf smoke.
  std::cerr << "fig8: scheduler=" << sim::to_string(dopt.sched)
            << " skipped_edge_groups=" << skipped_groups
            << " skipped_cycles=" << skipped_cycles << "\n";

  // Per-protocol trace-frontend costs: encoder bandwidth (bytes per decoded
  // branch) and IGM decode occupancy. Diagnostics only (stderr) — the
  // protocol axis must never perturb the stdout table for a fixed protocol
  // list.
  for (const auto proto : protos) {
    std::uint64_t bytes = 0;
    std::uint64_t branches = 0;
    std::uint64_t busy = 0;
    for (const auto& r : results) {
      if (r.detection.trace_protocol != proto) continue;
      bytes += r.detection.trace_bytes_generated;
      branches += r.detection.decode_branches;
      busy += r.detection.igm_busy_cycles;
    }
    const double per_branch =
        branches > 0
            ? static_cast<double>(bytes) / static_cast<double>(branches)
            : 0.0;
    std::cerr << "fig8: proto=" << trace::to_string(proto)
              << " trace_bytes=" << bytes << " decode_branches=" << branches
              << " bytes_per_branch=" << core::fmt(per_branch, 3)
              << " igm_busy_cycles=" << busy << "\n";
  }

  // Column labels carry a protocol prefix only when the protocol axis is
  // actually swept — the default table is byte-identical to the
  // single-protocol one.
  const auto proto_prefix = [&](trace::TraceProtocol proto) {
    return protos.size() > 1 ? std::string(trace::to_string(proto)) + ":"
                             : std::string();
  };
  std::vector<std::string> headers{"Benchmark"};
  for (const auto proto : protos) {
    for (const auto model : models) {
      for (const auto engine : engines) {
        headers.push_back(proto_prefix(proto) +
                          std::string(core::to_string(model)) + "/" +
                          core::to_string(engine));
      }
    }
  }
  for (const auto proto : protos) {
    for (const auto model : models) {
      if (model != core::ModelKind::kLstm) continue;
      for (const auto engine : engines) {
        headers.push_back("drops(" + proto_prefix(proto) + "LSTM/" +
                          core::to_string(engine) + ")");
      }
    }
  }
  core::Table table(headers);

  std::vector<Agg> agg(stride);
  for (std::size_t b = 0; b < benchmarks.size(); ++b) {
    std::vector<std::string> row{benchmarks[b]};
    std::vector<std::string> drops;
    for (std::size_t c = 0; c < stride; ++c) {
      const auto& cell = results[b * stride + c].detection;
      agg[c].add(cell.mean_latency_us);
      row.push_back(core::fmt(cell.mean_latency_us, 1));
      if (cells[b * stride + c].model == core::ModelKind::kLstm) {
        drops.push_back(core::fmt_count(cell.fifo_drops));
      }
    }
    row.insert(row.end(), drops.begin(), drops.end());
    table.add_row(row);
  }
  table.print(std::cout);

  // Per-model engine-speedup summary. The MIAOW -> ML-MIAOW ratio only
  // exists when both engines ran; the overall line only for the full
  // matrix (its paper figure averages both models' ratios).
  const auto mean_for = [&](core::ModelKind model, core::EngineKind engine,
                            double& out) {
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t pi = 0; pi < protos.size(); ++pi) {
      for (std::size_t mi = 0; mi < models.size(); ++mi) {
        for (std::size_t ei = 0; ei < engines.size(); ++ei) {
          if (models[mi] == model && engines[ei] == engine) {
            sum += agg[(pi * models.size() + mi) * engines.size() + ei].mean();
            ++n;
          }
        }
      }
    }
    if (n == 0) return false;
    out = sum / static_cast<double>(n);
    return true;
  };

  std::cout << "\nAverages (us):\n";
  std::vector<double> ratios;
  for (const auto model : models) {
    const char* label = model == core::ModelKind::kElm ? "ELM : " : "LSTM: ";
    const char* paper = model == core::ModelKind::kElm
                            ? "13.83 -> 4.21 = 3.28x"
                            : "53.16 -> 23.98 = 2.22x";
    double miaow = 0, ml = 0;
    const bool has_miaow = mean_for(model, core::EngineKind::kMiaow, miaow);
    const bool has_ml = mean_for(model, core::EngineKind::kMlMiaow, ml);
    if (has_miaow && has_ml) {
      ratios.push_back(miaow / ml);
      std::cout << "  " << label << "MIAOW " << core::fmt(miaow, 2)
                << " -> ML-MIAOW " << core::fmt(ml, 2) << "  ("
                << core::fmt(miaow / ml, 2) << "x; paper: " << paper << ")\n";
    } else if (has_miaow) {
      std::cout << "  " << label << "MIAOW " << core::fmt(miaow, 2) << "\n";
    } else if (has_ml) {
      std::cout << "  " << label << "ML-MIAOW " << core::fmt(ml, 2) << "\n";
    }
  }
  if (ratios.size() == 2) {
    const double overall = (ratios[0] + ratios[1]) / 2.0;
    std::cout << "  Overall engine speedup: " << core::fmt(overall, 2)
              << "x (paper: 2.75x)\n";
  }
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
