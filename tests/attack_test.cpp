// Attack injector tests.
#include <gtest/gtest.h>

#include <set>

#include "rtad/attack/injector.hpp"
#include "rtad/workloads/spec_model.hpp"

namespace rtad::attack {
namespace {

struct Fixture {
  Fixture() : gen(workloads::find_profile("astar"), 1), source(gen) {}
  workloads::TraceGenerator gen;
  cpu::GeneratorSource source;
};

TEST(AttackInjector, PassThroughBeforeTrigger) {
  Fixture f;
  AttackConfig cfg;  // trigger = never
  AttackInjector inj(f.source, {0x1000, 0x2000}, cfg);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(inj.next().event.injected);
  }
  EXPECT_EQ(inj.attacks_launched(), 0u);
}

TEST(AttackInjector, InjectsBurstAtTrigger) {
  Fixture f;
  AttackConfig cfg;
  cfg.trigger_instruction = 100;
  cfg.burst_events = 5;
  AttackInjector inj(f.source, {0x1000, 0x2000, 0x3000}, cfg);
  std::size_t injected = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto s = inj.next();
    if (s.event.injected) {
      ++injected;
      EXPECT_TRUE(s.event.taken);
      EXPECT_TRUE(s.event.target == 0x1000 || s.event.target == 0x2000 ||
                  s.event.target == 0x3000);
      EXPECT_EQ(static_cast<int>(s.event.kind),
                static_cast<int>(cpu::BranchKind::kCall));
    }
  }
  EXPECT_EQ(injected, 5u);
  EXPECT_EQ(inj.attacks_launched(), 1u);
}

TEST(AttackInjector, OneShotUntilRearmed) {
  Fixture f;
  AttackConfig cfg;
  cfg.trigger_instruction = 0;
  cfg.burst_events = 3;
  AttackInjector inj(f.source, {0x1000}, cfg);
  std::size_t injected = 0;
  for (int i = 0; i < 3000; ++i) injected += inj.next().event.injected ? 1 : 0;
  EXPECT_EQ(injected, 3u);
  inj.arm(inj.instructions_seen());  // immediate second attack
  for (int i = 0; i < 3000; ++i) injected += inj.next().event.injected ? 1 : 0;
  EXPECT_EQ(injected, 6u);
  EXPECT_EQ(inj.attacks_launched(), 2u);
}

TEST(AttackInjector, RearmWithFutureTriggerWaitsForIt) {
  Fixture f;
  AttackConfig cfg;
  cfg.trigger_instruction = 0;
  cfg.burst_events = 3;
  AttackInjector inj(f.source, {0x1000}, cfg);
  std::size_t injected = 0;
  for (int i = 0; i < 3000; ++i) injected += inj.next().event.injected ? 1 : 0;
  ASSERT_EQ(injected, 3u);

  // Re-arm for a trigger well in the future: nothing may fire before the
  // instruction counter crosses it.
  const std::uint64_t trigger = inj.instructions_seen() + 500;
  inj.arm(trigger);
  EXPECT_FALSE(inj.attack_in_progress());
  injected = 0;
  while (inj.instructions_seen() < trigger) {
    const auto s = inj.next();
    if (s.event.injected) ++injected;
  }
  EXPECT_EQ(injected, 0u);
  for (int i = 0; i < 3000; ++i) injected += inj.next().event.injected ? 1 : 0;
  EXPECT_EQ(injected, 3u);
  EXPECT_EQ(inj.attacks_launched(), 2u);
}

TEST(AttackInjector, SyscallModeInjectsSyscalls) {
  Fixture f;
  AttackConfig cfg;
  cfg.trigger_instruction = 0;
  cfg.burst_events = 4;
  cfg.as_syscalls = true;
  const std::uint64_t sys0 = workloads::TraceGenerator::syscall_address(0);
  const std::uint64_t sys1 = workloads::TraceGenerator::syscall_address(1);
  AttackInjector inj(f.source, {sys0, sys1}, cfg);
  std::size_t injected = 0;
  for (int i = 0; i < 100 && injected < 4; ++i) {
    const auto s = inj.next();
    if (!s.event.injected) continue;
    ++injected;
    EXPECT_EQ(static_cast<int>(s.event.kind),
              static_cast<int>(cpu::BranchKind::kSyscall));
    EXPECT_TRUE(s.event.target == sys0 || s.event.target == sys1);
  }
  EXPECT_EQ(injected, 4u);
}

TEST(AttackInjector, LegitimateReplayRequiresPool) {
  Fixture f;
  AttackConfig cfg;
  EXPECT_THROW(AttackInjector(f.source, {}, cfg), std::invalid_argument);
}

TEST(AttackInjector, BurstUsesConfiguredGap) {
  Fixture f;
  AttackConfig cfg;
  cfg.trigger_instruction = 0;
  cfg.burst_events = 2;
  cfg.gap_instructions = 7;
  AttackInjector inj(f.source, {0x1000}, cfg);
  const auto s1 = inj.next();
  EXPECT_TRUE(s1.event.injected);
  EXPECT_EQ(s1.instr_gap, 7u);
}

}  // namespace
}  // namespace rtad::attack
