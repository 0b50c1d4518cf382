// Simulation speed — the two fast paths that keep the Fig. 8 sweep cheap
// (the event kernel and the decode-once GPU backend), timed and gated in
// one process.
//
// Cell, pinned: 456.hmmer, LSTM on MIAOW (1 CU), 8 attacks, the reduced
// training corpus (bench/common.hpp). It is the cell the event kernel is
// built for: long 1-CU inferences during which the CPU and fabric domains
// are idle. Cells on 5 CUs, or with ELM's near-continuous short
// inferences, are dominated by GPU instruction simulation that no
// scheduler can skip, which only dilutes a kernel-vs-kernel comparison.
//
// Runs, after one training:
//   * offline inferences of the cell's LSTM image on each backend, kRepeats
//     interleaved repeats: kProbeInferences on the cycle backend and
//     kFastProbeInferences (10x) on the fast one, so both sides of a
//     repeat run for a comparable time (~150 ms). The probe isolates the
//     cost the execution backend is responsible for: inside the cell, wall
//     time during a launch also covers the CPU and fabric domains. Probe
//     times are thread CPU ms (CLOCK_THREAD_CPUTIME_ID): the GPU model
//     starts no threads, so the calling thread does all the probe work,
//     and time it spends descheduled does not count. Contention that
//     slows the CPU itself (shared caches, sibling threads) still does;
//   * the cell under dense x cycle, event x cycle and event x fast, also
//     kRepeats interleaved repeats, each with the rtad.metrics.v1 export
//     on. Speedups compare medians, so one noisy run cannot fail a gate;
//   * the cell under event x fast with the E-Trace frontend, once;
//   * the verdict cell (the same benchmark and models, ELM on ML-MIAOW,
//     which detects attacks) under event x fast with each trace protocol,
//     once.
//
// Gates (exit 1, each failure named on stderr):
//   * every PFT run matches the first dense run on verdicts, score digest,
//     simulated time, inferences, FIFO drops and latency, and writes a
//     byte-identical metrics export;
//   * E-Trace attacks, detections and false positives equal PFT's, on the
//     timed cell and on the verdict cell, and the verdict cell detects
//     attacks under PFT (the timed cell detects none with the reduced
//     corpus, so its equality alone compares zeros);
//   * the event kernel skipped edge groups, and the fast backend planned
//     launches both in the cell and in the probe;
//   * scheduler speedup (dense / event, cycle backend, wall) >= 2x and
//     kernel speedup (per-inference probe median of thread CPU time,
//     cycle / fast) >= 10x.
//
// BENCH_sim_speed.json (RTAD_BENCH_JSON) holds the deterministic fields;
// its trailing "host" object holds the walls, the probes' thread CPU ms,
// the ratios and the verdict.
// No other knob is read.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "common.hpp"
#include "rtad/core/report.hpp"
#include "rtad/ml/kernel_compiler.hpp"

using namespace rtad;

namespace {

constexpr const char* kBenchmark = "hmmer";
constexpr std::size_t kAttacks = 8;
constexpr std::size_t kRepeats = 3;
constexpr std::uint64_t kProbeInferences = 300;
constexpr std::uint64_t kFastProbeInferences = 10 * kProbeInferences;
constexpr double kMinSchedulerSpeedup = 2.0;
constexpr double kMinKernelSpeedup = 10.0;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double rounded(double v, int digits) {
  const double scale = std::pow(10.0, digits);
  return std::round(v * scale) / scale;
}

/// The timed execution modes of the cell; [0] is the reference.
struct Mode {
  const char* name;
  sim::SchedMode sched;
  gpgpu::GpuBackend backend;
};
constexpr std::array<Mode, 3> kModes{{
    {"dense", sim::SchedMode::kDense, gpgpu::GpuBackend::kCycle},
    {"event", sim::SchedMode::kEventDriven, gpgpu::GpuBackend::kCycle},
    {"fast", sim::SchedMode::kEventDriven, gpgpu::GpuBackend::kFast},
}};

/// One timed run of the cell: its result, its metrics export and its wall.
struct Run {
  core::DetectionResult result;
  std::string metrics;
  double wall_ms = 0.0;
};

Run run_cell(const workloads::SpecProfile& profile,
             const core::TrainedModels& models,
             core::DetectionOptions options) {
  const std::filesystem::path metrics =
      std::filesystem::temp_directory_path() /
      ("sim_speed." + std::to_string(::getpid()) + ".metrics.json");
  options.metrics_path = metrics.string();
  Run run;
  const auto t0 = Clock::now();
  run.result = core::measure_detection(profile, models, core::ModelKind::kLstm,
                                       core::EngineKind::kMiaow, options);
  run.wall_ms = ms_since(t0);
  {
    std::ifstream in(metrics, std::ios::binary);
    run.metrics.assign(std::istreambuf_iterator<char>(in), {});
  }
  std::filesystem::remove(metrics);
  return run;
}

bool same_outcome(const core::DetectionResult& a,
                  const core::DetectionResult& b) {
  return a.attacks == b.attacks && a.detections == b.detections &&
         a.false_positives == b.false_positives &&
         a.score_digest == b.score_digest &&
         a.simulated_ps == b.simulated_ps && a.inferences == b.inferences &&
         a.fifo_drops == b.fifo_drops &&
         a.mean_latency_us == b.mean_latency_us &&
         a.min_latency_us == b.min_latency_us &&
         a.max_latency_us == b.max_latency_us;
}

/// CPU time the calling thread has used, in ms.
double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

struct Probe {
  double cpu_ms = 0.0;
  std::uint64_t fast_launches = 0;
};

/// `inferences` offline inferences of `image` on a fresh 1-CU GPU, after
/// one untimed warm-up that fills the fast backend's decode cache.
Probe probe(const ml::ModelImage& image, gpgpu::GpuBackend backend,
            std::uint64_t inferences) {
  gpgpu::GpuConfig cfg;
  cfg.backend = backend;
  gpgpu::Gpu gpu(cfg);
  ml::load_image(gpu, image);
  std::vector<std::uint32_t> payload(image.input_words, 1);
  ml::run_inference_offline(gpu, image, payload);
  const double t0 = thread_cpu_ms();
  for (std::uint64_t i = 0; i < inferences; ++i) {
    payload[0] = static_cast<std::uint32_t>(i % 13);
    ml::run_inference_offline(gpu, image, payload);
  }
  return {thread_cpu_ms() - t0, gpu.fast_launches()};
}

void write_trace(obs::JsonWriter& json, const core::DetectionResult& r) {
  json.begin_object();
  json.field("trace_bytes", r.trace_bytes_generated);
  json.field("decode_branches", r.decode_branches);
  json.field("bytes_per_branch",
             rounded(static_cast<double>(r.trace_bytes_generated) /
                         static_cast<double>(r.decode_branches),
                     3));
  json.end_object();
}

void write_verdicts(obs::JsonWriter& json, const core::DetectionResult& r) {
  json.begin_object();
  json.field("attacks", static_cast<std::uint64_t>(r.attacks));
  json.field("detections", static_cast<std::uint64_t>(r.detections));
  json.field("false_positives", r.false_positives);
  json.end_object();
}

void write_walls(obs::JsonWriter& json, const char* key,
                 const std::vector<double>& walls) {
  json.key(key).begin_array();
  for (const double ms : walls) json.value(rounded(ms, 1));
  json.end_array();
}

int run() {
  const workloads::SpecProfile profile = workloads::find_profile(kBenchmark);
  std::cerr << "sim_speed: training " << profile.name
            << " on the reduced corpus...\n";
  const core::TrainedModels models =
      core::train_models(profile, bench::reduced_training());
  const ml::ModelImage& image = models.image(core::ModelKind::kLstm);
  std::vector<double> probe_cycle_ms;
  std::vector<double> probe_fast_ms;
  std::uint64_t probe_fast_launches = 0;
  for (std::size_t rep = 0; rep < kRepeats; ++rep) {
    probe_cycle_ms.push_back(
        probe(image, gpgpu::GpuBackend::kCycle, kProbeInferences).cpu_ms);
    const Probe fast =
        probe(image, gpgpu::GpuBackend::kFast, kFastProbeInferences);
    probe_fast_ms.push_back(fast.cpu_ms);
    probe_fast_launches = fast.fast_launches;
  }

  core::DetectionOptions options;
  options.attacks = kAttacks;

  std::array<std::vector<Run>, kModes.size()> runs;
  std::array<std::vector<double>, kModes.size()> walls;
  for (std::size_t rep = 1; rep <= kRepeats; ++rep) {
    for (std::size_t m = 0; m < kModes.size(); ++m) {
      options.sched = kModes[m].sched;
      options.backend = kModes[m].backend;
      runs[m].push_back(run_cell(profile, models, options));
      walls[m].push_back(runs[m].back().wall_ms);
      std::cerr << "sim_speed: repeat " << rep << " " << kModes[m].name << " "
                << core::fmt(walls[m].back(), 0) << " ms\n";
    }
  }
  options.proto = trace::TraceProtocol::kEtrace;
  const core::DetectionResult etrace = core::measure_detection(
      profile, models, core::ModelKind::kLstm, core::EngineKind::kMiaow,
      options);

  const auto verdict_run = [&](trace::TraceProtocol proto) {
    options.proto = proto;
    return core::measure_detection(profile, models, core::ModelKind::kElm,
                                   core::EngineKind::kMlMiaow, options);
  };
  const core::DetectionResult verdict_pft =
      verdict_run(trace::TraceProtocol::kPft);
  const core::DetectionResult verdict_etrace =
      verdict_run(trace::TraceProtocol::kEtrace);

  const Run& ref = runs[0].front();
  const core::DetectionResult& event = runs[1].front().result;
  const core::DetectionResult& fast = runs[2].front().result;
  const double sched_speedup = median(walls[0]) / median(walls[1]);
  const double fast_speedup = median(walls[0]) / median(walls[2]);
  const auto per_inference = [](std::vector<double> walls,
                                std::uint64_t inferences) {
    for (double& ms : walls) ms /= static_cast<double>(inferences);
    return median(walls);
  };
  const double kernel_speedup =
      per_inference(probe_cycle_ms, kProbeInferences) /
      per_inference(probe_fast_ms, kFastProbeInferences);

  bench::Gates gates("sim_speed");
  for (std::size_t m = 0; m < kModes.size(); ++m) {
    for (std::size_t rep = 0; rep < kRepeats; ++rep) {
      const Run& r = runs[m][rep];
      const std::string what = std::string(kModes[m].name) + " repeat " +
                               std::to_string(rep + 1);
      gates.check(same_outcome(r.result, ref.result),
                  what + " result differs from dense repeat 1");
      gates.check(!r.metrics.empty() && r.metrics == ref.metrics,
                  what + " metrics export differs from dense repeat 1");
    }
  }
  gates.check(etrace.attacks == ref.result.attacks &&
                  etrace.detections == ref.result.detections &&
                  etrace.false_positives == ref.result.false_positives,
              "E-Trace verdicts differ from PFT's on the timed cell");
  gates.check(verdict_pft.detections > 0,
              "verdict cell detected no attack under PFT");
  gates.check(verdict_etrace.attacks == verdict_pft.attacks &&
                  verdict_etrace.detections == verdict_pft.detections &&
                  verdict_etrace.false_positives ==
                      verdict_pft.false_positives,
              "E-Trace verdicts differ from PFT's on the verdict cell");
  gates.check(event.skipped_edge_groups > 0,
              "event kernel skipped no edge groups");
  gates.check(fast.gpu_fast_launches > 0,
              "fast backend fell back to cycle on every launch of the cell");
  gates.check(probe_fast_launches > 0,
              "fast backend fell back to cycle on every probe launch");
  gates.check(sched_speedup >= kMinSchedulerSpeedup,
              "scheduler speedup " + core::fmt(sched_speedup, 2) +
                  "x below " + core::fmt(kMinSchedulerSpeedup, 1) + "x");
  gates.check(kernel_speedup >= kMinKernelSpeedup,
              "kernel speedup " + core::fmt(kernel_speedup, 2) + "x below " +
                  core::fmt(kMinKernelSpeedup, 1) + "x");
  std::cerr << "sim_speed: scheduler " << core::fmt(sched_speedup, 2)
            << "x (min " << core::fmt(kMinSchedulerSpeedup, 1) << "x), kernel "
            << core::fmt(kernel_speedup, 2) << "x (min "
            << core::fmt(kMinKernelSpeedup, 1) << "x), fast cell "
            << core::fmt(fast_speedup, 2) << "x\n";

  const auto body = [&](obs::JsonWriter& json) {
    json.field("schema", "rtad.sim_speed.v1");
    json.field("benchmark", profile.name);
    json.field("model", core::to_string(core::ModelKind::kLstm));
    json.field("engine", core::to_string(core::EngineKind::kMiaow));
    json.field("attacks", static_cast<std::uint64_t>(kAttacks));
    json.field("training", "reduced");
    json.field("repeats", static_cast<std::uint64_t>(kRepeats));
    json.field("probe_inferences", kProbeInferences);
    json.field("probe_fast_inferences", kFastProbeInferences);
    json.field("min_scheduler_speedup", kMinSchedulerSpeedup);
    json.field("min_kernel_speedup", kMinKernelSpeedup);
    json.key("detection").begin_object();
    json.field("attacks", static_cast<std::uint64_t>(ref.result.attacks));
    json.field("detections",
               static_cast<std::uint64_t>(ref.result.detections));
    json.field("false_positives", ref.result.false_positives);
    json.field("inferences", ref.result.inferences);
    json.field("fifo_drops", ref.result.fifo_drops);
    json.field("mean_latency_us", ref.result.mean_latency_us);
    json.field("score_digest", ref.result.score_digest);
    json.field("simulated_ps", ref.result.simulated_ps);
    json.end_object();
    json.field("event_skipped_edge_groups", event.skipped_edge_groups);
    json.field("event_skipped_cycles", event.skipped_cycles);
    json.field("fast_launches", fast.gpu_fast_launches);
    json.field("probe_fast_launches", probe_fast_launches);
    json.key("trace").begin_object();
    json.key("pft");
    write_trace(json, fast);
    json.key("etrace");
    write_trace(json, etrace);
    json.end_object();
    json.key("verdict_cell").begin_object();
    json.field("model", core::to_string(core::ModelKind::kElm));
    json.field("engine", core::to_string(core::EngineKind::kMlMiaow));
    json.key("pft");
    write_verdicts(json, verdict_pft);
    json.key("etrace");
    write_verdicts(json, verdict_etrace);
    json.end_object();
  };
  const auto host = [&](obs::JsonWriter& json) {
    for (std::size_t m = 0; m < kModes.size(); ++m) {
      write_walls(json, (std::string(kModes[m].name) + "_ms").c_str(),
                  walls[m]);
    }
    write_walls(json, "probe_cycle_ms", probe_cycle_ms);
    write_walls(json, "probe_fast_ms", probe_fast_ms);
    json.field("scheduler_speedup", rounded(sched_speedup, 2));
    json.field("fast_cell_speedup", rounded(fast_speedup, 2));
    json.field("kernel_speedup", rounded(kernel_speedup, 2));
    json.field("gates_pass", gates.ok());
  };
  bench::write_json("sim_speed", "BENCH_sim_speed.json", body, host);
  return gates.exit_code();
}

}  // namespace

int main() { return bench::run("sim_speed", run); }
