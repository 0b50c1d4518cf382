// Full-SoC integration tests: train -> deploy -> trace -> detect, plus the
// experiment drivers used by the bench binaries.
#include <gtest/gtest.h>

#include "rtad/core/experiment.hpp"
#include "rtad/core/rtad_soc.hpp"
#include "rtad/core/rule_based.hpp"
#include "rtad/core/sw_reference.hpp"

namespace rtad::core {
namespace {

workloads::SpecProfile fast_profile() {
  auto p = workloads::find_profile("astar");
  p.syscall_interval_instrs = 40'000;  // keep sim time short
  return p;
}

TrainingOptions fast_training() {
  TrainingOptions opt;
  opt.lstm_train_tokens = 2'500;
  opt.lstm_val_tokens = 700;
  opt.elm_train_windows = 250;
  opt.elm_val_windows = 80;
  opt.lstm.epochs = 2;
  return opt;
}

const TrainedModels& shared_models() {
  static const TrainedModels models = train_models(fast_profile(),
                                                   fast_training());
  return models;
}

TEST(Training, ProducesDeployableImages) {
  const auto& m = shared_models();
  EXPECT_TRUE(m.elm->trained());
  EXPECT_TRUE(m.lstm->trained());
  EXPECT_GT(m.lstm_threshold.value(), 0.0f);
  EXPECT_GT(m.elm_threshold.value(), 0.0f);
  EXPECT_EQ(m.lstm_image.input_words, 1u);
  EXPECT_EQ(m.elm_image.input_words, m.features->config().elm_vocab);
  EXPECT_EQ(m.lstm_image.steps.size(), 4u);
  EXPECT_EQ(m.elm_image.steps.size(), 3u);
  // Training must beat the uniform baseline log(64) ~ 4.16 by a clear
  // margin: the monitored-branch stream carries phase structure.
  EXPECT_LT(m.lstm_val_mean_nll, 3.8f);
}

TEST(Soc, BuildsAndRunsWithoutModel) {
  SocConfig cfg;
  cfg.profile = fast_profile();
  cfg.mode = cpu::InstrumentationMode::kBaseline;
  RtadSoc soc(cfg, nullptr, nullptr);
  soc.run_for_instructions(50'000);
  EXPECT_GE(soc.host_cpu().program_instructions(), 50'000u);
  EXPECT_EQ(soc.host_cpu().overhead_instructions(), 0u);
}

TEST(Soc, TraceFlowsToInferences) {
  const auto& m = shared_models();
  SocConfig cfg;
  cfg.profile = fast_profile();
  cfg.model = ModelKind::kLstm;
  cfg.engine = EngineKind::kMlMiaow;
  cfg.seed = 77;
  RtadSoc soc(cfg, &m.lstm_image, m.features.get());
  soc.run_while([&] { return soc.mcm().inferences_completed() < 5; },
                200 * sim::kPsPerMs);
  EXPECT_GE(soc.mcm().inferences_completed(), 5u);
  EXPECT_GT(soc.igm().vectors_out(), 0u);
  EXPECT_GT(soc.trace_source().bytes_generated(), 0u);
}

TEST(Soc, DetectsInjectedAttackEndToEnd) {
  const auto& m = shared_models();
  SocConfig cfg;
  cfg.profile = fast_profile();
  cfg.model = ModelKind::kLstm;
  cfg.engine = EngineKind::kMlMiaow;
  cfg.seed = 78;
  attack::AttackConfig atk;
  atk.burst_events = 16;
  cfg.attack = atk;
  RtadSoc soc(cfg, &m.lstm_image, m.features.get());

  // Warm up, then attack.
  soc.run_while([&] { return soc.mcm().inferences_completed() < 10; },
                400 * sim::kPsPerMs);
  const auto irqs_before = soc.host_cpu().irq_count();
  soc.arm_attack(soc.host_cpu().program_instructions() + 1'000);
  soc.run_while([&] { return soc.host_cpu().irq_count() == irqs_before; },
                soc.simulator().now() + 400 * sim::kPsPerMs);
  EXPECT_GT(soc.host_cpu().irq_count(), irqs_before);
  EXPECT_EQ(soc.injector().attacks_launched(), 1u);
}

TEST(Experiment, OverheadOrderingMatchesPaper) {
  // Paper-like syscall cadence (the fast_profile cap would inflate SW_SYS
  // beyond its real ranking).
  auto p = workloads::find_profile("astar");
  p.syscall_interval_instrs = 1'500'000;
  const std::uint64_t n = 3'000'000;
  const auto overhead = [&](cpu::InstrumentationMode mode) {
    return measure_overhead(p, mode, DetectionOptions{}, n);
  };
  const double baseline = overhead(cpu::InstrumentationMode::kBaseline);
  const double rtad = overhead(cpu::InstrumentationMode::kRtad);
  const double sw_sys = overhead(cpu::InstrumentationMode::kSwSys);
  const double sw_func = overhead(cpu::InstrumentationMode::kSwFunc);
  const double sw_all = overhead(cpu::InstrumentationMode::kSwAll);
  EXPECT_EQ(baseline, 0.0);
  EXPECT_LT(rtad, 0.2);
  EXPECT_GT(rtad, 0.0);
  EXPECT_LT(rtad, sw_sys);
  EXPECT_LT(sw_sys, sw_func);
  EXPECT_LT(sw_func, sw_all);
}

TEST(Experiment, SwTransferBreakdownNearPaper) {
  const auto b = sw_transfer_breakdown(32);
  EXPECT_NEAR(b.step1_us, 1.1, 0.1);
  EXPECT_NEAR(b.step2_us, 7.38, 0.4);
  EXPECT_NEAR(b.step3_us, 11.5, 0.8);
  EXPECT_NEAR(b.total_us(), 20.0, 1.2);
}

TEST(Experiment, RtadTransferMuchFasterThanSw) {
  const auto& m = shared_models();
  const auto rtad = measure_rtad_transfer(fast_profile(), m, ModelKind::kLstm,
                                          EngineKind::kMlMiaow, {}, 10);
  const auto sw = sw_transfer_breakdown(32);
  EXPECT_GT(rtad.step1_us, 0.0);
  EXPECT_NEAR(rtad.step2_us, 0.016, 1e-6);  // 2 cycles @ 125 MHz
  EXPECT_LT(rtad.total_us(), sw.total_us() / 3.0);
}

TEST(Experiment, DetectionFasterOnMlMiaow) {
  const auto& m = shared_models();
  DetectionOptions opt;
  opt.attacks = 3;
  const auto fast = measure_detection(fast_profile(), m, ModelKind::kLstm,
                                      EngineKind::kMlMiaow, opt);
  const auto slow = measure_detection(fast_profile(), m, ModelKind::kLstm,
                                      EngineKind::kMiaow, opt);
  EXPECT_GE(fast.detections, 2u);
  EXPECT_GE(slow.detections, 2u);
  EXPECT_LT(fast.mean_latency_us, slow.mean_latency_us);
}

TEST(RuleBased, BlindToReplayedWhitelistedAddresses) {
  RuleBasedDetector rules;
  workloads::TraceGenerator gen(fast_profile(), 1);
  std::vector<std::uint64_t> seen;
  for (int i = 0; i < 100'000; ++i) {
    const auto ev = gen.next().event;
    rules.learn(ev);
    if (ev.taken && cpu::is_waypoint(ev.kind)) seen.push_back(ev.target);
  }
  EXPECT_GT(rules.whitelist_size(), 100u);

  // Replay of whitelisted addresses: invisible by construction.
  sim::Xoshiro256 rng(2);
  for (int i = 0; i < 200; ++i) {
    cpu::BranchEvent replay;
    replay.kind = cpu::BranchKind::kCall;
    replay.taken = true;
    replay.target = seen[rng.uniform_below(seen.size())];
    EXPECT_FALSE(rules.anomalous(replay));
  }
  // Random addresses: trivially caught.
  cpu::BranchEvent random;
  random.kind = cpu::BranchKind::kCall;
  random.taken = true;
  random.target = 0x4000'0000;
  EXPECT_TRUE(rules.anomalous(random));
  // Conditionals are not waypoints: never judged.
  cpu::BranchEvent cond;
  cond.kind = cpu::BranchKind::kConditional;
  cond.target = 0x4000'0000;
  EXPECT_FALSE(rules.anomalous(cond));
}

TEST(Experiment, ElmDetectionWorks) {
  const auto& m = shared_models();
  DetectionOptions opt;
  opt.attacks = 3;
  opt.burst_events = 24;
  const auto r = measure_detection(fast_profile(), m, ModelKind::kElm,
                                   EngineKind::kMlMiaow, opt);
  EXPECT_GE(r.detections, 2u);
  EXPECT_GT(r.mean_latency_us, 0.0);
}

}  // namespace
}  // namespace rtad::core
