// Workload model tests: catalog sanity, trace statistics, determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "rtad/workloads/spec_model.hpp"
#include "rtad/workloads/trace_generator.hpp"

namespace rtad::workloads {
namespace {

TEST(Catalog, HasAllTwelveBenchmarks) {
  const auto& suite = spec_cint2006();
  EXPECT_EQ(suite.size(), 12u);
  const std::set<std::string> expected = {
      "400.perlbench", "401.bzip2",  "403.gcc",        "429.mcf",
      "445.gobmk",     "456.hmmer",  "458.sjeng",      "462.libquantum",
      "464.h264ref",   "471.omnetpp", "473.astar",     "483.xalancbmk"};
  std::set<std::string> got;
  for (const auto& p : suite) got.insert(p.name);
  EXPECT_EQ(got, expected);
}

TEST(Catalog, LookupByShortAndLongName) {
  EXPECT_EQ(find_profile("omnetpp").name, "471.omnetpp");
  EXPECT_EQ(find_profile("471.omnetpp").name, "471.omnetpp");
  EXPECT_THROW(find_profile("doom3"), std::invalid_argument);
}

TEST(Catalog, ProfilesAreWellFormed) {
  for (const auto& p : spec_cint2006()) {
    EXPECT_GT(p.branch_fraction, 0.0) << p.name;
    EXPECT_LT(p.branch_fraction, 0.5) << p.name;
    EXPECT_LT(p.call_fraction + p.return_fraction + p.indirect_fraction, 1.0)
        << p.name;
    EXPECT_GT(p.branch_sites, 0u) << p.name;
    EXPECT_GT(p.syscall_interval_instrs, 0u) << p.name;
    EXPECT_LE(p.phase_window, p.branch_sites) << p.name;
  }
}

TEST(Catalog, OmnetppIsBranchHeaviest) {
  // §IV-C singles out 471.omnetpp as the benchmark of "heavy branch
  // pressure"; the calibration must preserve that.
  const auto& omnetpp = find_profile("omnetpp");
  for (const auto& p : spec_cint2006()) {
    EXPECT_LE(p.branch_fraction, omnetpp.branch_fraction) << p.name;
  }
}

TEST(TraceGenerator, Deterministic) {
  const auto& p = find_profile("gcc");
  TraceGenerator a(p, 7), b(p, 7);
  for (int i = 0; i < 2000; ++i) {
    const auto sa = a.next();
    const auto sb = b.next();
    EXPECT_EQ(sa.instr_gap, sb.instr_gap);
    EXPECT_EQ(sa.event.target, sb.event.target);
    EXPECT_EQ(static_cast<int>(sa.event.kind), static_cast<int>(sb.event.kind));
  }
}

TEST(TraceGenerator, SeedsProduceDifferentTraces) {
  const auto& p = find_profile("gcc");
  TraceGenerator a(p, 1), b(p, 2);
  int same = 0;
  for (int i = 0; i < 500; ++i) {
    same += a.next().event.target == b.next().event.target ? 1 : 0;
  }
  EXPECT_LT(same, 100);
}

TEST(TraceGenerator, BranchDensityMatchesProfile) {
  const auto& p = find_profile("bzip2");
  TraceGenerator gen(p, 3);
  const std::size_t n = 50'000;
  for (std::size_t i = 0; i < n; ++i) gen.next();
  const double measured = static_cast<double>(gen.branches_emitted()) /
                          static_cast<double>(gen.instructions_emitted());
  EXPECT_NEAR(measured, p.branch_fraction, 0.01);
}

TEST(TraceGenerator, KindMixMatchesProfile) {
  const auto& p = find_profile("perlbench");
  TraceGenerator gen(p, 9);
  std::size_t calls = 0, rets = 0, conds = 0, total = 0;
  for (int i = 0; i < 100'000; ++i) {
    const auto s = gen.next();
    ++total;
    switch (s.event.kind) {
      case cpu::BranchKind::kCall: ++calls; break;
      case cpu::BranchKind::kReturn: ++rets; break;
      case cpu::BranchKind::kConditional: ++conds; break;
      default: break;
    }
  }
  EXPECT_NEAR(static_cast<double>(calls) / total, p.call_fraction, 0.02);
  // Returns can be suppressed when the shadow stack is empty, so <=.
  EXPECT_LE(static_cast<double>(rets) / total, p.return_fraction + 0.02);
  EXPECT_GT(static_cast<double>(conds) / total, 0.5);
}

TEST(TraceGenerator, ReturnsMatchCallTargetsViaShadowStack) {
  const auto& p = find_profile("astar");
  TraceGenerator gen(p, 5);
  std::vector<std::uint64_t> stack;
  for (int i = 0; i < 50'000; ++i) {
    const auto s = gen.next();
    if (s.event.kind == cpu::BranchKind::kCall) {
      stack.push_back(s.event.source + 4);
      if (stack.size() > 64) stack.erase(stack.begin());
    } else if (s.event.kind == cpu::BranchKind::kReturn) {
      ASSERT_FALSE(stack.empty());
      EXPECT_EQ(s.event.target, stack.back());
      stack.pop_back();
    }
  }
}

TEST(TraceGenerator, SyscallCadenceMatchesProfile) {
  auto p = find_profile("gcc");
  p.syscall_interval_instrs = 20'000;  // denser for test speed
  TraceGenerator gen(p, 11);
  std::size_t syscalls = 0;
  for (int i = 0; i < 800'000; ++i) {
    if (gen.next().event.kind == cpu::BranchKind::kSyscall) ++syscalls;
  }
  const double interval = static_cast<double>(gen.instructions_emitted()) /
                          static_cast<double>(syscalls);
  // ~180 samples: the sample mean of an exponential has ~7.5% relative SE.
  EXPECT_NEAR(interval, 20'000.0, 3'500.0);
}

TEST(TraceGenerator, SyscallTargetsInKernelRange) {
  auto p = find_profile("bzip2");
  p.syscall_interval_instrs = 5'000;
  TraceGenerator gen(p, 13);
  for (int i = 0; i < 50'000; ++i) {
    const auto s = gen.next();
    if (s.event.kind != cpu::BranchKind::kSyscall) continue;
    EXPECT_GE(s.event.target, kSyscallBase);
    EXPECT_LT(s.event.target,
              kSyscallBase + kSyscallStride * p.syscall_kinds);
  }
}

TEST(TraceGenerator, AddressesAreHalfwordAligned) {
  const auto& p = find_profile("sjeng");
  TraceGenerator gen(p, 17);
  for (int i = 0; i < 10'000; ++i) {
    const auto s = gen.next();
    EXPECT_EQ(s.event.target & 1, 0u);
    EXPECT_EQ(s.event.source & 1, 0u);
  }
}

TEST(TraceGenerator, FunctionIndexInvertsEntries) {
  const auto& p = find_profile("mcf");
  TraceGenerator gen(p, 19);
  const auto& funcs = gen.function_entries();
  for (std::size_t i = 0; i < funcs.size(); i += 7) {
    EXPECT_EQ(gen.function_index(funcs[i]), static_cast<std::ptrdiff_t>(i));
  }
  EXPECT_EQ(gen.function_index(0x12), -1);
  EXPECT_EQ(gen.function_index(funcs[0] + 4), -1);
}

TEST(TraceGenerator, PhaseBehaviourShiftsWorkingSet) {
  const auto& p = find_profile("omnetpp");
  TraceGenerator gen(p, 23);
  // Collect source addresses in two windows far apart; phase shifts should
  // change the active site population substantially.
  std::set<std::uint64_t> early, late;
  for (int i = 0; i < 5'000; ++i) early.insert(gen.next().event.source);
  for (int i = 0; i < 200'000; ++i) gen.next();
  for (int i = 0; i < 5'000; ++i) late.insert(gen.next().event.source);
  std::size_t common = 0;
  for (const auto a : early) common += late.count(a);
  EXPECT_LT(static_cast<double>(common) / static_cast<double>(early.size()),
            0.9);
}

TEST(TraceGenerator, TakeBatches) {
  const auto& p = find_profile("hmmer");
  TraceGenerator gen(p, 29);
  const auto steps = gen.take(100);
  EXPECT_EQ(steps.size(), 100u);
  EXPECT_EQ(gen.branches_emitted(), 100u);
}

TEST(DriftSchedule, PhaseIsAPureFunctionOfNominalTime) {
  DriftSchedule d;
  EXPECT_FALSE(d.active());  // catalog default: no drift
  d.period_us = 2'000;
  d.phases = 4;
  EXPECT_TRUE(d.active());
  const std::uint64_t period_ps = d.period_us * 1'000'000ULL;
  EXPECT_EQ(d.phase_at_ps(0), 0u);
  EXPECT_EQ(d.phase_at_ps(period_ps - 1), 0u);
  EXPECT_EQ(d.phase_at_ps(period_ps), 1u);
  EXPECT_EQ(d.phase_at_ps(3 * period_ps), 3u);
  EXPECT_EQ(d.phase_at_ps(4 * period_ps), 0u);  // wraps
  EXPECT_EQ(d.phase_at_ps(9 * period_ps + 5), 1u);

  // period without phases, and phases without a period, are both off.
  d.phases = 1;
  EXPECT_FALSE(d.active());
  EXPECT_EQ(d.phase_at_ps(7 * period_ps), 0u);
  d.phases = 4;
  d.period_us = 0;
  EXPECT_FALSE(d.active());
}

TEST(TraceGenerator, InactiveDriftLeavesTheStreamBitIdentical) {
  const auto& plain = find_profile("gcc");
  auto decorated = plain;
  decorated.drift.period_us = 2'000;  // phases == 1: schedule inactive
  decorated.drift.syscall_rotate = 7;
  decorated.drift.taken_swing = 0.2;

  TraceGenerator a(plain, 7);
  TraceGenerator b(decorated, 7);
  for (int i = 0; i < 3'000; ++i) {
    const auto sa = a.next();
    const auto sb = b.next();
    ASSERT_EQ(sa.instr_gap, sb.instr_gap) << i;
    ASSERT_EQ(sa.event.source, sb.event.source) << i;
    ASSERT_EQ(sa.event.target, sb.event.target) << i;
    ASSERT_EQ(static_cast<int>(sa.event.kind),
              static_cast<int>(sb.event.kind))
        << i;
  }
  EXPECT_EQ(b.drift_phase(), 0u);
}

TEST(TraceGenerator, DriftCursorFreezesOrAdvancesThePhase) {
  auto p = find_profile("gcc");
  p.drift.period_us = 100;  // 25k instructions per phase at 4000 ps/instr
  p.drift.phases = 4;
  p.drift.syscall_rotate = 3;
  const std::uint64_t period_ps = p.drift.period_us * 1'000'000ULL;

  // A frozen cursor pins the phase at its snapshot instant forever — the
  // offline dataset builder's view of one training window.
  TraceGenerator frozen(p, 11, DriftCursor{2 * period_ps + 5, true});
  EXPECT_EQ(frozen.drift_phase(), 2u);
  frozen.take(20'000);
  EXPECT_EQ(frozen.drift_phase(), 2u);

  // The online cursor walks the schedule with nominal program time and
  // wraps: by 5 phases of instructions it has cycled back past phase 0.
  TraceGenerator online(p, 11, DriftCursor{0, false});
  EXPECT_EQ(online.drift_phase(), 0u);
  std::uint32_t seen_max = 0;
  bool wrapped = false;
  while (online.instructions_emitted() * kNominalPsPerInstr <
         5 * period_ps) {
    const std::uint32_t phase = online.drift_phase();
    if (phase > seen_max) seen_max = phase;
    if (seen_max == p.drift.phases - 1 && phase == 0) wrapped = true;
    online.next();
  }
  EXPECT_EQ(seen_max, p.drift.phases - 1);
  EXPECT_TRUE(wrapped);

  // And the base offset seats the start mid-schedule, like a serve tenant
  // admitted at fleet time T.
  TraceGenerator offset(p, 11, DriftCursor{3 * period_ps, false});
  EXPECT_EQ(offset.drift_phase(), 3u);
}

TEST(TraceGenerator, CachedDriftPhaseEqualsTheDirectFormulaAtEveryStep) {
  // The generator recomputes its drift phase only when the instruction
  // count crosses the next period boundary; check it against
  // DriftSchedule::phase_at_ps after every step, for periods from a few
  // dozen branches up to the benches' 5 ms, bases on and off the 4000 ps
  // instruction grid, and frozen cursors.
  std::uint64_t steps = 0;
  for (const std::uint64_t period_us : {1, 7, 100, 5'000}) {
    auto p = find_profile("astar");
    p.drift.period_us = period_us;
    p.drift.phases = 4;
    p.drift.syscall_rotate = 7;
    const std::uint64_t period_ps = period_us * 1'000'000ULL;
    for (const std::uint64_t base_ps :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{3'999},
          std::uint64_t{4'001}, 2 * period_ps - 1, 3 * period_ps + 2'500,
          std::uint64_t{1'000'000'000'123}}) {
      for (const bool frozen : {false, true}) {
        const DriftCursor cursor{base_ps, frozen};
        TraceGenerator gen(p, 5, cursor);
        const int n = frozen ? 5'000 : 40'000;
        for (int i = 0; i <= n; ++i) {
          const std::uint64_t program_ps =
              gen.instructions_emitted() * kNominalPsPerInstr;
          const std::uint64_t at = frozen ? base_ps : base_ps + program_ps;
          ASSERT_EQ(gen.drift_phase(), p.drift.phase_at_ps(at))
              << "period_us=" << period_us << " base_ps=" << base_ps
              << " frozen=" << frozen << " step=" << i;
          gen.next();
          ++steps;
        }
      }
    }
  }
  EXPECT_GE(steps, 1'000'000u);
}

}  // namespace
}  // namespace rtad::workloads
