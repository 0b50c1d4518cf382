// Shared scaffolding for the bench binaries: the reduced-training switch,
// the JSON artifact writer, gate bookkeeping and the malformed-knob exit.
//
// Knobs every bench honours through this header:
//   RTAD_FAST_TRAIN=1     train on a reduced corpus (CI scale);
//   RTAD_BENCH_JSON=path  where the bench's JSON document goes (each bench
//                         keeps its own default file name).
// Knobs are parsed by core::env, so a malformed value exits with status 2
// and a message naming the variable instead of running the wrong bench.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "rtad/core/experiment_runner.hpp"
#include "rtad/obs/json.hpp"

namespace rtad::bench {

/// The reduced training corpus (CI scale): fewer tokens and windows and
/// one LSTM epoch, so a run is dominated by simulation, not host-side
/// training; results stay deterministic, just trained on less data.
core::TrainingOptions reduced_training();

/// A model cache. Under RTAD_FAST_TRAIN=1 it trains on reduced_training().
std::shared_ptr<core::TrainedModelCache> model_cache(
    core::TrainedModelCache::ProfileResolver resolver = {});

using JsonBody = std::function<void(obs::JsonWriter&)>;

/// Writes the bench's JSON document to RTAD_BENCH_JSON (default
/// `default_path`) and logs the path to stderr. `body` fills the top-level
/// object. `host`, when given, fills a trailing "host" object: the only
/// place host-dependent numbers (wall clock, rates) may go, so the
/// document minus "host" stays byte-stable across every execution mode.
void write_json(const char* bench, const char* default_path,
                const JsonBody& body, const JsonBody& host = {});

/// Gate bookkeeping: each failed check is reported on stderr as
/// "<bench>: FAIL — <what>"; exit_code() is 1 if any check failed.
class Gates {
 public:
  explicit Gates(const char* bench) : bench_(bench) {}

  /// Records one gate.
  void check(bool pass, const std::string& what);

  bool ok() const noexcept { return ok_; }
  int exit_code() const noexcept { return ok_ ? 0 : 1; }

 private:
  const char* bench_;
  bool ok_ = true;
};

/// Runs a bench body. A std::invalid_argument escaping it (a malformed
/// knob, an unknown benchmark name) is printed as "<bench>: <what>" and
/// turns into exit status 2.
int run(const char* bench, const std::function<int()>& body);

}  // namespace rtad::bench
