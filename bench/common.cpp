#include "common.hpp"

#include <fstream>
#include <iostream>
#include <stdexcept>
#include <utility>

#include "rtad/core/env.hpp"

namespace rtad::bench {

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
  const bool fast_train = core::env::flag_or("RTAD_FAST_TRAIN", false);
  return std::make_shared<core::TrainedModelCache>(
      fast_train ? reduced_training() : core::TrainingOptions{},
      std::move(resolver));
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
    return body();
  } catch (const std::invalid_argument& e) {
    std::cerr << bench << ": " << e.what() << "\n";
    return 2;
  }
}

}  // namespace rtad::bench
