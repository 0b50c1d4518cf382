// Ablation — rule-based detection vs learning-based detection.
//
// The paper's motivation: "the defense systems based on fixed sets of rules
// will easily be subverted by ... unexpected, unknown attacks", and its
// attack emulation deliberately injects *legitimate* branch addresses
// "because inserting any random branch address would be trivial for
// detection". This bench makes both statements quantitative: a
// whitelist/CFI-style rule detector catches 100% of random-address attacks
// and 0% of legitimate-replay attacks; the LSTM catches the replay attacks
// the rules cannot see.
#include <iostream>

#include "common.hpp"
#include "rtad/core/experiment.hpp"
#include "rtad/core/report.hpp"
#include "rtad/core/rule_based.hpp"

using namespace rtad;

namespace {

int run() {
  std::cout << "ABLATION: RULE-BASED (whitelist/CFI) vs LEARNING-BASED "
               "DETECTION (458.sjeng)\n\n";
  const auto& profile = workloads::find_profile("sjeng");
  core::DetectionOptions dopt = core::DetectionOptions::from_env();
  dopt.attacks = 6;

  // --- train both detectors on the same normal trace ---
  std::cout << "Training..." << std::flush;
  core::TrainingOptions topt;
  const auto models = core::train_models(profile, topt);

  core::RuleBasedDetector rules;
  workloads::TraceGenerator train_gen(profile, topt.seed);
  for (int i = 0; i < 600'000; ++i) rules.learn(train_gen.next().event);
  std::cout << " done (whitelist: " << rules.whitelist_size()
            << " addresses)\n\n";

  // --- rule-based detector vs both attack classes ---
  // The replay attack uses addresses "that can be observed during normal
  // execution" (§IV-C) — i.e. addresses the whitelist itself contains.
  std::vector<std::uint64_t> replay_pool;
  workloads::TraceGenerator pool_gen(profile, topt.seed);
  for (int i = 0; i < 600'000 && replay_pool.size() < 4'000; ++i) {
    const auto ev = pool_gen.next().event;
    if (ev.taken && cpu::is_waypoint(ev.kind)) replay_pool.push_back(ev.target);
  }
  sim::Xoshiro256 rng(3);
  std::size_t replay_hits = 0, random_hits = 0, normal_flags = 0;
  const std::size_t trials = 500;
  workloads::TraceGenerator normal_gen(profile, 999);
  for (std::size_t i = 0; i < trials; ++i) {
    cpu::BranchEvent replay;
    replay.kind = cpu::BranchKind::kCall;
    replay.taken = true;
    replay.target = replay_pool[rng.uniform_below(replay_pool.size())];
    replay_hits += rules.anomalous(replay) ? 1 : 0;

    cpu::BranchEvent random = replay;
    random.target = 0x4000'0000ULL + (rng.next() & 0xFFFFFEULL);
    random_hits += rules.anomalous(random) ? 1 : 0;

    normal_flags += rules.anomalous(normal_gen.next().event) ? 1 : 0;
  }

  // --- LSTM on the hard (replay) case, end to end ---
  const auto lstm = core::measure_detection(profile, models,
                                            core::ModelKind::kLstm,
                                            core::EngineKind::kMlMiaow, dopt);

  core::Table table({"Detector", "random-address attacks",
                     "legitimate-replay attacks", "false alarms"});
  table.add_row({"Whitelist rules",
                 core::fmt(100.0 * random_hits / trials, 0) + "%",
                 core::fmt(100.0 * replay_hits / trials, 0) + "%",
                 core::fmt(100.0 * normal_flags / trials, 1) + "%"});
  table.add_row({"RTAD LSTM (ML-MIAOW)", "100% (filtered at the IGM)",
                 core::fmt(100.0 * lstm.detections /
                               std::max<std::size_t>(1, lstm.attacks),
                           0) +
                     "% (" + core::fmt(lstm.mean_latency_us, 0) + " us mean)",
                 std::to_string(lstm.false_positives) + " flags"});
  table.print(std::cout);

  std::cout << "\nThe whitelist is blind to replayed legitimate addresses by"
               " construction — the class of\nattacks (CFH via valid gadget/"
               "API addresses) that motivates learning-based detection.\n";
  return replay_hits * 100 <= trials ? 0 : 1;  // <= 1% by construction
}

}  // namespace

int main() { return bench::run("ablation_rule_based", run); }
