// mission_monitor: the paper's motivating scenario — a mission-critical
// embedded device (think unmanned vehicle) that must keep operating through
// attacks. The host registers an IRQ handler that "counteracts" each
// detected anomaly (quarantine + continue) while the mission runs on.
#include <iomanip>
#include <iostream>

#include "rtad/core/experiment.hpp"
#include "rtad/core/report.hpp"
#include "rtad/core/rtad_soc.hpp"

using namespace rtad;

int main() {
  std::cout << "=== Mission monitor: 458.sjeng as flight-control stand-in "
               "===\n\n";
  auto profile = workloads::find_profile("sjeng");

  core::TrainingOptions topt;
  topt.lstm_train_tokens = 3'000;
  topt.lstm_val_tokens = 800;
  std::cout << "Training the on-board LSTM model... " << std::flush;
  const auto models = core::train_models(profile, topt);
  std::cout << "done (threshold " << models.lstm_threshold.value() << ")\n";

  core::SocConfig cfg;
  cfg.profile = profile;
  cfg.model = core::ModelKind::kLstm;
  cfg.engine = core::EngineKind::kMlMiaow;
  cfg.seed = 31;
  attack::AttackConfig atk;
  atk.burst_events = 16;
  cfg.attack = atk;
  core::RtadSoc soc(cfg, &models.lstm_image, models.features.get());

  // The mission-side response: quarantine once per incident (the MCM keeps
  // flagging while the anomaly score stays elevated; the ISR debounces),
  // and never stop the mission.
  std::size_t counteracted = 0;
  sim::Picoseconds last_incident = 0;
  soc.host_cpu().set_irq_handler([&](sim::Picoseconds t) {
    if (counteracted > 0 && t - last_incident < sim::kPsPerMs) return;
    last_incident = t;
    ++counteracted;
    std::cout << "  [t=" << std::fixed << std::setprecision(1)
              << sim::to_us(t) << "us] anomaly IRQ -> quarantine task, "
              << "mission continues\n";
  });

  // Warm up.
  soc.run_while([&] { return soc.mcm().inferences_completed() < 12; },
                500 * sim::kPsPerMs);
  std::cout << "\nMission running; adversary strikes three times:\n";

  std::size_t launched = 0;
  for (int wave = 0; wave < 3; ++wave) {
    soc.arm_attack(soc.host_cpu().program_instructions() + 20'000);
    const auto before = soc.host_cpu().irq_count();
    soc.run_while([&] { return soc.host_cpu().irq_count() == before; },
                  soc.simulator().now() + 500 * sim::kPsPerMs);
    launched = soc.injector().attacks_launched();
    // settle before the next wave
    const auto settle = soc.mcm().inferences_completed() + 16;
    soc.run_while([&] { return soc.mcm().inferences_completed() < settle; },
                  soc.simulator().now() + 500 * sim::kPsPerMs);
  }

  std::cout << "\nMission report:\n"
            << "  simulated time      : "
            << core::fmt(sim::to_us(soc.simulator().now()) / 1000.0, 2)
            << " ms\n"
            << "  instructions retired: "
            << soc.host_cpu().program_instructions() << "\n"
            << "  attacks launched    : " << launched << "\n"
            << "  attacks counteracted: " << counteracted << "\n"
            << "  trace bytes handled : "
            << soc.trace_source().bytes_generated() << "\n"
            << "  inferences executed : " << soc.mcm().inferences_completed()
            << "\n";
  return counteracted >= 3 ? 0 : 1;
}
