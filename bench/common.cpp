#include "common.hpp"

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <iterator>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "rtad/core/env.hpp"
#include "rtad/ml/kernel_compiler.hpp"

namespace rtad::bench {

namespace {

// Every RTAD_* variable an entry point reads, here or in src/. The tier-1
// test_knob_list keeps this list equal to the "RTAD_..." literals in src/
// and bench/, so a knob cannot be added or dropped without it.
constexpr std::string_view kKnobs[] = {
    "RTAD_BACKEND",
    "RTAD_BENCH_JSON",
    "RTAD_FAULTS",
    "RTAD_JOBS",
    "RTAD_METRICS",
    "RTAD_SCHED",
    "RTAD_SERVE_POLICY",
    "RTAD_SMOKE",
    "RTAD_TELEMETRY",
    "RTAD_TELEMETRY_CAP_KB",
    "RTAD_TRACE",
    "RTAD_TRACE_PROTO",
};

/// Throws for the first set (non-empty) RTAD_* variable that is not in
/// kKnobs: a knob this tree no longer reads would otherwise be ignored,
/// and the bench would run a shape nobody asked for.
void reject_unknown_knobs() {
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view var(*e);
    if (!var.starts_with("RTAD_") || var.ends_with('=')) continue;
    const std::string_view name = var.substr(0, var.find('='));
    if (std::find(std::begin(kKnobs), std::end(kKnobs), name) ==
        std::end(kKnobs)) {
      throw std::invalid_argument(std::string(name) +
                                  ": no entry point reads this knob; unset "
                                  "it (RTAD_SMOKE=1 selects the CI scale)");
    }
  }
}

}  // namespace

bool smoke() {
  static const bool on = core::env::flag_or("RTAD_SMOKE", false);
  return on;
}

core::TrainingOptions reduced_training() {
  core::TrainingOptions opts;
  opts.lstm_train_tokens = 400;
  opts.lstm_val_tokens = 150;
  opts.elm_train_windows = 100;
  opts.elm_val_windows = 40;
  opts.lstm.epochs = 1;
  return opts;
}

std::shared_ptr<core::TrainedModelCache> model_cache(
    core::TrainedModelCache::ProfileResolver resolver) {
  return std::make_shared<core::TrainedModelCache>(
      smoke() ? reduced_training() : core::TrainingOptions{},
      std::move(resolver));
}

std::uint64_t offline_inference_cycles(
    const ml::ModelImage& image, std::uint32_t num_cus,
    const std::vector<std::uint32_t>& payload) {
  gpgpu::GpuConfig cfg;
  cfg.num_cus = num_cus;
  gpgpu::Gpu gpu(cfg);
  ml::load_image(gpu, image);
  ml::run_inference_offline(gpu, image, payload);
  const auto before = gpu.total_cycles();
  ml::run_inference_offline(gpu, image, payload);
  return gpu.total_cycles() - before;
}

void write_json(const char* bench, const char* default_path,
                const JsonBody& body, const JsonBody& host) {
  const std::string path =
      core::env::string_or("RTAD_BENCH_JSON", default_path);
  {
    std::ofstream js(path);
    obs::JsonWriter json(js);
    json.begin_object();
    body(json);
    if (host) {
      json.key("host").begin_object();
      host(json);
      json.end_object();
    }
    json.end_object();
    js << '\n';
  }
  std::cerr << bench << ": wrote " << path << "\n";
}

void Gates::check(bool pass, const std::string& what) {
  if (!pass) {
    std::cerr << bench_ << ": FAIL — " << what << "\n";
    ok_ = false;
  }
}

int run(const char* bench, const std::function<int()>& body) {
  try {
    reject_unknown_knobs();
    return body();
  } catch (const std::invalid_argument& e) {
    std::cerr << bench << ": " << e.what() << "\n";
    return 2;
  }
}

}  // namespace rtad::bench
