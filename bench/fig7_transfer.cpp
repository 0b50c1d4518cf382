// Fig. 7 — Data-transfer latency of RTAD vs a pure-software pipeline.
//
// SW steps are produced by the calibrated software-path cost model; RTAD
// steps are *measured* from the cycle simulation (PTM buffering + trace
// decode, IGM vector generation, MCM TX into ML-MIAOW memory).
#include <iostream>

#include "common.hpp"
#include "rtad/core/experiment.hpp"
#include "rtad/core/report.hpp"

using namespace rtad;

namespace {

int run() {
  const auto options = core::DetectionOptions::from_env();
  std::cout << "FIG. 7: DATA TRANSFER LATENCY (us)\n\n";

  const auto sw = core::sw_transfer_breakdown(32);

  std::cout << "Training models on 403.gcc (one-time)..." << std::flush;
  auto profile = workloads::find_profile("gcc");
  core::TrainingOptions topt;
  topt.lstm_train_tokens = 3'000;
  topt.lstm_val_tokens = 800;
  const auto models = core::train_models(profile, topt);
  std::cout << " done\n\n" << std::flush;

  // Measured with the ELM's 32-word input vector — the same vector size the
  // SW pipeline above moves, so step (3) compares like for like.
  const auto rtad =
      core::measure_rtad_transfer(profile, models, core::ModelKind::kElm,
                                  core::EngineKind::kMlMiaow, options, 30);

  core::Table table({"Path", "(1) read/decode", "(2) refine/IGM",
                     "(3) copy/drive", "Total"});
  table.add_row({"SW", core::fmt(sw.step1_us, 2), core::fmt(sw.step2_us, 2),
                 core::fmt(sw.step3_us, 2), core::fmt(sw.total_us(), 2)});
  table.add_row({"RTAD", core::fmt(rtad.step1_us, 3),
                 core::fmt(rtad.step2_us, 3), core::fmt(rtad.step3_us, 3),
                 core::fmt(rtad.total_us(), 3)});
  table.print(std::cout);

  std::cout << "\nPaper:  SW total ~20.0 us (1.1 / 7.38 / 11.5);"
            << " RTAD total ~3.62 us (PTM-buffering dominated, IGM = 16 ns,"
            << " write = 0.78 us)\n";
  const double head_start = sw.total_us() - rtad.total_us();
  std::cout << "RTAD drives the MCM " << core::fmt(head_start, 1)
            << " us earlier than SW (paper: 16.4 us, i.e. ~4,100 CPU "
               "cycles)\n";
  return 0;
}

}  // namespace

int main() { return bench::run("fig7_transfer", run); }
