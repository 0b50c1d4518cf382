// Quickstart: build an RTAD SoC, deploy a trained LSTM, run a victim
// workload, inject a control-flow-hijack-style attack and watch the MLPU
// interrupt the host — the paper's Fig. 5 flow end to end.
#include <iostream>

#include "rtad/core/experiment.hpp"
#include "rtad/core/rtad_soc.hpp"

using namespace rtad;

int main() {
  std::cout << "[1/4] Training the LSTM branch model on 473.astar's normal "
               "traces...\n";
  auto profile = workloads::find_profile("astar");
  core::TrainingOptions topt;
  topt.lstm_train_tokens = 3'000;
  topt.lstm_val_tokens = 800;
  const auto models = core::train_models(profile, topt);
  std::cout << "      validation NLL " << models.lstm_val_mean_nll
            << ", detection threshold " << models.lstm_threshold.value()
            << "\n";

  std::cout << "[2/4] Building the RTAD MPSoC (Cortex-A9 @250 MHz + MLPU "
               "@125 MHz + 5-CU ML-MIAOW @50 MHz)...\n";
  core::SocConfig cfg;
  cfg.profile = profile;
  cfg.model = core::ModelKind::kLstm;
  cfg.engine = core::EngineKind::kMlMiaow;
  attack::AttackConfig atk;
  atk.burst_events = 16;
  cfg.attack = atk;
  core::RtadSoc soc(cfg, &models.lstm_image, models.features.get());

  std::cout << "[3/4] Running the victim; warming the model on live "
               "branch traces...\n";
  soc.run_while([&] { return soc.mcm().inferences_completed() < 12; },
                500 * sim::kPsPerMs);
  std::cout << "      " << soc.trace_source().bytes_generated()
            << " trace bytes emitted, " << soc.igm().vectors_out()
            << " vectors generated, " << soc.mcm().inferences_completed()
            << " inferences done\n";

  std::cout << "[4/4] Injecting legitimate-but-out-of-context branches "
               "(control-flow hijack emulation)...\n";
  const auto attack_at = soc.host_cpu().program_instructions() + 5'000;
  soc.arm_attack(attack_at);
  const auto irqs_before = soc.host_cpu().irq_count();
  soc.run_while([&] { return soc.host_cpu().irq_count() == irqs_before; },
                soc.simulator().now() + 500 * sim::kPsPerMs);

  if (soc.host_cpu().irq_count() > irqs_before) {
    std::cout << "\n*** ANOMALY INTERRUPT at t = "
              << sim::to_us(*soc.host_cpu().last_irq_ps())
              << " us (simulated): the host can now counteract in the "
                 "field. ***\n";
    return 0;
  }
  std::cout << "\nattack not detected within the deadline\n";
  return 1;
}
