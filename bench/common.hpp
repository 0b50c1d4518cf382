// Shared scaffolding for the bench binaries: the scale switch, the JSON
// artifact writer, gate bookkeeping and the bad-knob exit.
//
// Knobs every bench honours through this header:
//   RTAD_SMOKE=1          run at CI scale: the reduced training corpus plus
//                         each bench's smoke shape (a struct literal beside
//                         its paper-shape literal in the bench's source);
//   RTAD_BENCH_JSON=path  where the bench's JSON document goes (each bench
//                         keeps its own default file name).
// Knobs are parsed by core::env, so a malformed value exits with status 2
// and a message naming the variable instead of running the wrong bench; so
// does any set RTAD_* variable that no entry point reads (a stale knob).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "rtad/core/experiment_runner.hpp"
#include "rtad/obs/json.hpp"

namespace rtad::bench {

/// True under RTAD_SMOKE=1: the bench runs at CI scale instead of the
/// paper's. Read once.
bool smoke();

/// The reduced training corpus (CI scale): fewer tokens and windows and
/// one LSTM epoch, so a run is dominated by simulation, not host-side
/// training; results stay deterministic, just trained on less data.
core::TrainingOptions reduced_training();

/// A model cache. Under smoke() it trains on reduced_training().
std::shared_ptr<core::TrainedModelCache> model_cache(
    core::TrainedModelCache::ProfileResolver resolver = {});

/// GPU cycles of one offline inference of `image` on a fresh `num_cus`-CU
/// engine, measured after one warm-up inference (state kernels).
std::uint64_t offline_inference_cycles(
    const ml::ModelImage& image, std::uint32_t num_cus,
    const std::vector<std::uint32_t>& payload);

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

/// Runs a bench body. A set RTAD_* variable that no entry point reads, or a
/// std::invalid_argument escaping the body (a malformed knob, an unknown
/// benchmark name), is printed as "<bench>: <what>" and turns into exit
/// status 2.
int run(const char* bench, const std::function<int()>& body);

}  // namespace rtad::bench
