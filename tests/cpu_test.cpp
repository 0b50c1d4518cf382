// Host CPU model + instrumentation cost tests.
#include <gtest/gtest.h>

#include <array>

#include "rtad/coresight/trace_source.hpp"
#include "rtad/cpu/host_cpu.hpp"
#include "rtad/cpu/instrumentation.hpp"
#include "rtad/workloads/spec_model.hpp"

namespace rtad::cpu {
namespace {

workloads::SpecProfile test_profile() {
  auto p = workloads::find_profile("bzip2");
  p.syscall_interval_instrs = 10'000;
  return p;
}

TEST(Instrumentation, BaselineIsFree) {
  InstrumentationCosts costs;
  for (auto kind : {BranchKind::kConditional, BranchKind::kCall,
                    BranchKind::kSyscall}) {
    EXPECT_EQ(instrumentation_cost(InstrumentationMode::kBaseline, kind, costs),
              0.0);
  }
}

TEST(Instrumentation, SwSysChargesOnlySyscalls) {
  InstrumentationCosts costs;
  EXPECT_GT(instrumentation_cost(InstrumentationMode::kSwSys,
                                 BranchKind::kSyscall, costs),
            1000.0);
  EXPECT_EQ(instrumentation_cost(InstrumentationMode::kSwSys,
                                 BranchKind::kCall, costs),
            0.0);
  EXPECT_EQ(instrumentation_cost(InstrumentationMode::kSwSys,
                                 BranchKind::kConditional, costs),
            0.0);
}

TEST(Instrumentation, SwFuncChargesCallsReturnsSyscalls) {
  InstrumentationCosts costs;
  EXPECT_GT(instrumentation_cost(InstrumentationMode::kSwFunc,
                                 BranchKind::kCall, costs),
            0.0);
  EXPECT_GT(instrumentation_cost(InstrumentationMode::kSwFunc,
                                 BranchKind::kReturn, costs),
            0.0);
  EXPECT_EQ(instrumentation_cost(InstrumentationMode::kSwFunc,
                                 BranchKind::kConditional, costs),
            0.0);
}

TEST(Instrumentation, SwAllChargesEverything) {
  InstrumentationCosts costs;
  EXPECT_GT(instrumentation_cost(InstrumentationMode::kSwAll,
                                 BranchKind::kConditional, costs),
            1.0);
}

TEST(Instrumentation, RtadResidualIsTiny) {
  InstrumentationCosts costs;
  EXPECT_LT(instrumentation_cost(InstrumentationMode::kRtad,
                                 BranchKind::kConditional, costs),
            0.01);
}

TEST(Instrumentation, OnlyRtadUsesPtm) {
  EXPECT_TRUE(uses_hw_trace(InstrumentationMode::kRtad));
  EXPECT_FALSE(uses_hw_trace(InstrumentationMode::kBaseline));
  EXPECT_FALSE(uses_hw_trace(InstrumentationMode::kSwAll));
}

TEST(HostCpu, RetiresOneInstructionPerCycleBaseline) {
  workloads::TraceGenerator gen(test_profile(), 1);
  GeneratorSource src(gen);
  HostCpuConfig cfg;
  cfg.mode = InstrumentationMode::kBaseline;
  HostCpu cpu(cfg, src, nullptr);
  for (int i = 0; i < 10'000; ++i) cpu.tick();
  EXPECT_EQ(cpu.program_instructions(), 10'000u);
  EXPECT_EQ(cpu.overhead_instructions(), 0u);
}

TEST(HostCpu, InstrumentationStallsProgramProgress) {
  workloads::TraceGenerator gen(test_profile(), 1);
  GeneratorSource src(gen);
  HostCpuConfig cfg;
  cfg.mode = InstrumentationMode::kSwAll;
  HostCpu cpu(cfg, src, nullptr);
  for (int i = 0; i < 100'000; ++i) cpu.tick();
  EXPECT_GT(cpu.overhead_instructions(), 0u);
  EXPECT_EQ(cpu.program_instructions() + cpu.overhead_instructions(), 100'000u);
  // bzip2: ~15% branches x ~2.8 instr/branch => tens of percent overhead.
  const double ratio = static_cast<double>(cpu.overhead_instructions()) /
                       static_cast<double>(cpu.program_instructions());
  EXPECT_GT(ratio, 0.2);
  EXPECT_LT(ratio, 0.7);
}

TEST(HostCpu, FeedsPtmOnlyInRtadMode) {
  workloads::TraceGenerator gen(test_profile(), 1);
  GeneratorSource src(gen);
  coresight::TraceSource ptm(coresight::TraceSourceConfig{});
  HostCpuConfig cfg;
  cfg.mode = InstrumentationMode::kRtad;
  HostCpu cpu(cfg, src, &ptm);
  for (int i = 0; i < 5'000; ++i) cpu.tick();
  EXPECT_GT(ptm.events_traced(), 0u);
  EXPECT_EQ(ptm.events_traced(), cpu.branches_retired());

  workloads::TraceGenerator gen2(test_profile(), 1);
  GeneratorSource src2(gen2);
  coresight::TraceSource ptm2(coresight::TraceSourceConfig{});
  cfg.mode = InstrumentationMode::kSwAll;
  HostCpu cpu2(cfg, src2, &ptm2);
  for (int i = 0; i < 5'000; ++i) cpu2.tick();
  EXPECT_EQ(ptm2.events_traced(), 0u);
}

TEST(HostCpu, EventTimestampsMatchLocalClock) {
  workloads::TraceGenerator gen(test_profile(), 1);
  GeneratorSource src(gen);
  coresight::TraceSourceConfig pcfg;
  pcfg.flush_threshold = 1;
  coresight::TraceSource ptm(pcfg);
  HostCpuConfig cfg;
  HostCpu cpu(cfg, src, &ptm);
  for (int i = 0; i < 1'000; ++i) {
    cpu.tick();
    ptm.tick();
  }
  // Drain and check sidebands are plausible local times (<= elapsed).
  const auto elapsed = cpu.local_time_ps();
  while (auto b = ptm.tx_fifo().pop()) {
    EXPECT_LE(b->origin_ps, elapsed);
  }
}

TEST(HostCpu, IrqHandlerInvoked) {
  workloads::TraceGenerator gen(test_profile(), 1);
  GeneratorSource src(gen);
  HostCpu cpu(HostCpuConfig{}, src, nullptr);
  sim::Picoseconds seen = 0;
  cpu.set_irq_handler([&](sim::Picoseconds t) { seen = t; });
  cpu.raise_irq(123'456);
  EXPECT_EQ(cpu.irq_count(), 1u);
  EXPECT_EQ(seen, 123'456u);
  ASSERT_TRUE(cpu.last_irq_ps().has_value());
  EXPECT_EQ(*cpu.last_irq_ps(), 123'456u);
}

TEST(HostCpu, ResetClearsState) {
  workloads::TraceGenerator gen(test_profile(), 1);
  GeneratorSource src(gen);
  HostCpu cpu(HostCpuConfig{}, src, nullptr);
  for (int i = 0; i < 100; ++i) cpu.tick();
  cpu.raise_irq(5);
  cpu.reset();
  EXPECT_EQ(cpu.program_instructions(), 0u);
  EXPECT_EQ(cpu.cycles(), 0u);
  EXPECT_EQ(cpu.irq_count(), 0u);
}

/// Fixed gap pattern; records how many steps were pulled.
class CountingSource final : public StepSource {
 public:
  workloads::TraceStep next() override {
    workloads::TraceStep step;
    step.instr_gap = kGaps[calls % kGaps.size()];
    step.event.kind = BranchKind::kCall;
    ++calls;
    return step;
  }
  static constexpr std::array<std::uint32_t, 6> kGaps{3, 0, 5, 1, 0, 2};
  std::size_t calls = 0;
};

TEST(HostCpu, FetchesTheNextStepOnTheRetirementEdge) {
  for (const auto mode :
       {InstrumentationMode::kBaseline, InstrumentationMode::kSwAll}) {
    CountingSource src;
    HostCpuConfig cfg;
    cfg.mode = mode;
    HostCpu cpu(cfg, src, nullptr);
    EXPECT_EQ(src.calls, 0u);
    std::uint64_t retired = 0;
    for (int edge = 0; edge < 2'000; ++edge) {
      cpu.tick();
      // Call k+1 lands on the edge where branch k retires: the source is
      // always exactly one step ahead of retirement.
      ASSERT_EQ(src.calls, cpu.branches_retired() + 1) << "edge " << edge;
      if (cpu.branches_retired() != retired) {
        retired = cpu.branches_retired();
        // Straight after a retirement the whole next gap (or the
        // instrumentation stall before it) is skippable.
        const std::uint32_t gap =
            CountingSource::kGaps[retired % CountingSource::kGaps.size()];
        const sim::WakeHint hint = cpu.next_wake();
        if (mode == InstrumentationMode::kBaseline) {
          EXPECT_EQ(hint.idle_cycles, gap) << "edge " << edge;
        } else {
          EXPECT_FALSE(hint.is_active()) << "edge " << edge;
        }
      }
    }
    EXPECT_GT(retired, 100u);
  }
}

TEST(HostCpu, SequenceNumbersAreMonotonic) {
  workloads::TraceGenerator gen(test_profile(), 1);
  GeneratorSource src(gen);
  coresight::TraceSourceConfig pcfg;
  pcfg.flush_threshold = 1;
  pcfg.fifo_bytes = 4096;
  coresight::TraceSource ptm(pcfg);
  HostCpu cpu(HostCpuConfig{}, src, &ptm);
  for (int i = 0; i < 2'000; ++i) {
    cpu.tick();
    ptm.tick();
  }
  std::uint64_t last_seq = 0;
  while (auto b = ptm.tx_fifo().pop()) {
    EXPECT_GE(b->event_seq, last_seq);
    last_seq = b->event_seq;
  }
}

}  // namespace
}  // namespace rtad::cpu
