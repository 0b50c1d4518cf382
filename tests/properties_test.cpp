// Property-based / parameterized sweeps over cross-cutting invariants.
#include <gtest/gtest.h>

#include "rtad/bus/interconnect.hpp"
#include "rtad/gpgpu/assembler.hpp"
#include "rtad/gpgpu/device_memory.hpp"
#include "rtad/gpgpu/rtl_inventory.hpp"
#include "rtad/igm/vector_encoder.hpp"
#include "rtad/ml/dataset.hpp"
#include "rtad/sim/fifo.hpp"
#include "rtad/sim/rng.hpp"
#include "rtad/trace/pft.hpp"
#include "rtad/workloads/trace_generator.hpp"

namespace rtad {
namespace {

// ---------------------------------------------------------------- PFT

class PftRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PftRoundTrip, EncodeDecodePreservesWaypoints) {
  sim::Xoshiro256 rng(GetParam());
  trace::PftEncoder enc;
  trace::PftStreamDecoder dec;
  std::vector<std::uint8_t> bytes;
  enc.emit_sync(0, 1, bytes);
  std::vector<std::uint64_t> expected;
  std::size_t conditionals = 0;
  for (int i = 0; i < 400; ++i) {
    cpu::BranchEvent ev;
    const double u = rng.uniform();
    if (u < 0.5) {
      ev.kind = cpu::BranchKind::kConditional;
      ev.taken = rng.chance(0.6);
      ++conditionals;
    } else if (u < 0.8) {
      ev.kind = cpu::BranchKind::kCall;
      ev.target = (rng.next() & 0x00FF'FFFE) | 0x10000;
      expected.push_back(ev.target);
    } else if (u < 0.95) {
      ev.kind = cpu::BranchKind::kReturn;
      ev.target = (rng.next() & 0x000F'FFFE) | 0x20000;
      expected.push_back(ev.target);
    } else {
      ev.kind = cpu::BranchKind::kSyscall;
      ev.target = 0xC000'0000 + 32 * rng.uniform_below(40);
      expected.push_back(ev.target);
    }
    ev.taken = ev.kind == cpu::BranchKind::kConditional ? ev.taken : true;
    enc.encode(ev, bytes);
  }
  enc.flush(bytes);
  std::vector<std::uint64_t> decoded;
  for (const auto b : bytes) {
    if (auto d = dec.feed(trace::TraceByte{b, 0, 0, false})) {
      decoded.push_back(d->address);
    }
  }
  ASSERT_EQ(decoded.size(), expected.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(decoded[i], expected[i] & 0xFFFF'FFFE) << i;
  }
  EXPECT_EQ(dec.atoms_decoded(), conditionals);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PftRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// ---------------------------------------------------------------- FIFO

class FifoProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FifoProperty, AcceptedItemsAreNeverLostOrReordered) {
  const std::size_t capacity = GetParam();
  sim::Fifo<std::uint64_t> fifo(capacity);
  sim::Xoshiro256 rng(capacity * 977);
  std::uint64_t next_push = 0, next_pop = 0;
  std::vector<std::uint64_t> accepted;
  std::size_t accepted_head = 0;
  for (int op = 0; op < 20'000; ++op) {
    if (rng.chance(0.55)) {
      if (fifo.try_push(next_push)) accepted.push_back(next_push);
      ++next_push;
    } else if (auto v = fifo.pop()) {
      ASSERT_LT(accepted_head, accepted.size());
      EXPECT_EQ(*v, accepted[accepted_head]);
      ++accepted_head;
      ++next_pop;
    }
    EXPECT_LE(fifo.size(), capacity);
  }
  EXPECT_EQ(fifo.size(), accepted.size() - accepted_head);
}

INSTANTIATE_TEST_SUITE_P(Capacities, FifoProperty,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 64));

// ----------------------------------------------------------- Interconnect

class BurstEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BurstEquivalence, BurstWritesMatchSingles) {
  const std::size_t n = GetParam();
  gpgpu::DeviceMemory a(4096), b(4096);
  bus::Interconnect bus_a(a, "m"), bus_b(b, "m");
  sim::Xoshiro256 rng(n * 31);
  std::vector<std::uint32_t> beats(n);
  for (auto& v : beats) v = static_cast<std::uint32_t>(rng.next());
  const std::uint32_t burst_cost = bus_a.write_burst(64, beats);
  std::uint32_t singles_cost = 0;
  for (std::size_t i = 0; i < n; ++i) {
    singles_cost += bus_b.write32(64 + 4 * i, beats[i]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(a.read32(64 + 4 * i), b.read32(64 + 4 * i));
  }
  // Bursts never cost more than singles.
  EXPECT_LE(burst_cost, singles_cost);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BurstEquivalence,
                         ::testing::Values(1, 2, 15, 16, 17, 33, 64));

// --------------------------------------------------------- VectorEncoder

class HistogramProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(HistogramProperty, CountsSumToWindowOccupancy) {
  const std::uint32_t window = GetParam();
  igm::VectorEncoderConfig cfg;
  cfg.encoding = igm::Encoding::kSlidingHistogram;
  cfg.vocab_size = 8;
  cfg.window = window;
  igm::VectorEncoder enc(cfg);
  sim::Xoshiro256 rng(window * 7);
  igm::InputVector out;
  for (std::uint32_t i = 0; i < 200; ++i) {
    enc.encode(trace::DecodedBranch{rng.next() & ~1ULL, false, 0, i, false},
               out);
    std::uint32_t sum = 0;
    for (const auto c : out.payload) sum += c;
    EXPECT_EQ(sum, std::min(i + 1, window));
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, HistogramProperty,
                         ::testing::Values(1, 2, 3, 8, 32, 64));

// --------------------------------------------------------- Workloads

class BenchmarkSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(BenchmarkSweep, DensityAndDeterminismHold) {
  const auto& p = workloads::find_profile(GetParam());
  workloads::TraceGenerator g1(p, 99), g2(p, 99);
  std::uint64_t instrs = 0, branches = 0;
  for (int i = 0; i < 20'000; ++i) {
    const auto s1 = g1.next();
    const auto s2 = g2.next();
    ASSERT_EQ(s1.event.target, s2.event.target);
    ASSERT_EQ(s1.instr_gap, s2.instr_gap);
    instrs += s1.instr_gap + 1;
    ++branches;
  }
  const double density =
      static_cast<double>(branches) / static_cast<double>(instrs);
  EXPECT_NEAR(density, p.branch_fraction, 0.15 * p.branch_fraction);
}

INSTANTIATE_TEST_SUITE_P(AllCint2006, BenchmarkSweep,
                         ::testing::ValuesIn(workloads::spec_names()));

// --------------------------------------------------------- RTL inventory

class OpcodeSweep : public ::testing::TestWithParam<int> {};

TEST_P(OpcodeSweep, EveryOpcodeHasConsistentMetadata) {
  const auto op = static_cast<gpgpu::Opcode>(GetParam());
  EXPECT_FALSE(gpgpu::mnemonic(op).empty());
  EXPECT_GT(gpgpu::cycle_cost(op), 0u);
  const auto& inv = gpgpu::RtlInventory::instance();
  const auto& unit = inv.unit(inv.opcode_unit(op));
  EXPECT_GT(unit.luts + unit.ffs, 0u) << gpgpu::mnemonic(op);
  // ALU-domain flag must match the pipe classification.
  const auto pipe = gpgpu::pipe_of(op);
  const bool is_alu = pipe == gpgpu::Pipe::kSalu ||
                      pipe == gpgpu::Pipe::kValuF32 ||
                      pipe == gpgpu::Pipe::kValuTrans ||
                      pipe == gpgpu::Pipe::kValuF64;
  EXPECT_EQ(unit.alu_or_decoder, is_alu) << gpgpu::mnemonic(op);
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, OpcodeSweep,
    ::testing::Range(0, static_cast<int>(gpgpu::kNumOpcodes)));

TEST(InventoryProperty, CategoryBudgetsPartitionExactly) {
  const auto& inv = gpgpu::RtlInventory::instance();
  std::uint64_t lut_a = 0, lut_b = 0, lut_c = 0;
  std::uint64_t ff_a = 0, ff_b = 0, ff_c = 0;
  for (const auto& u : inv.units()) {
    if (u.used_by_ml) {
      lut_a += u.luts;
      ff_a += u.ffs;
    } else if (u.alu_or_decoder) {
      lut_c += u.luts;
      ff_c += u.ffs;
    } else {
      lut_b += u.luts;
      ff_b += u.ffs;
    }
  }
  EXPECT_EQ(lut_a, 36'743u);
  EXPECT_EQ(ff_a, 15'275u);
  EXPECT_EQ(lut_a + lut_b, 97'222u);   // MIAOW2.0 retained
  EXPECT_EQ(ff_a + ff_b, 70'499u);
  EXPECT_EQ(lut_a + lut_b + lut_c, 180'902u);  // full MIAOW
  EXPECT_EQ(ff_a + ff_b + ff_c, 107'001u);
}

// --------------------------------------------------------- Assembler sweep

class AssemblerSweep : public ::testing::TestWithParam<int> {};

TEST_P(AssemblerSweep, EveryOpcodeAssemblesAndDisassembles) {
  const auto op = static_cast<gpgpu::Opcode>(GetParam());
  const std::string mn(gpgpu::mnemonic(op));
  std::string operands;
  switch (gpgpu::format_of(op)) {
    case gpgpu::Format::kSop1: operands = "s4, s5"; break;
    case gpgpu::Format::kSop2: operands = "s4, s5, s6"; break;
    case gpgpu::Format::kSopk: operands = "s4, 12"; break;
    case gpgpu::Format::kSopc: operands = "s4, s5"; break;
    case gpgpu::Format::kSopp:
      operands = (mn.find("branch") != std::string::npos) ? "0" : "";
      break;
    case gpgpu::Format::kSmrd: operands = "s4, s5, 8"; break;
    case gpgpu::Format::kVop1: operands = "v2, v3"; break;
    case gpgpu::Format::kVop2: operands = "v2, v3, v4"; break;
    case gpgpu::Format::kVop3:
      operands = (mn.find("mad") != std::string::npos ||
                  mn.find("fma") != std::string::npos)
                     ? "v2, v3, v4, v5"
                     : "v2, v4, v6";  // 2-source VOP3 (f64 uses pairs)
      break;
    case gpgpu::Format::kVopc: operands = "vcc, v3, v4"; break;
    case gpgpu::Format::kFlat: operands = "v2, v3, s4"; break;
    case gpgpu::Format::kDs: operands = "v2, v3"; break;
    case gpgpu::Format::kMubuf: operands = "v2, v3, s4, v5"; break;
    case gpgpu::Format::kMimg: operands = "v2, v3"; break;
    case gpgpu::Format::kVintrp: operands = "v2, v3"; break;
    case gpgpu::Format::kExp: operands = "v2"; break;
    case gpgpu::Format::kFormatCount: FAIL();
  }
  const std::string line = "  " + mn + (operands.empty() ? "" : " " + operands);
  const auto prog = gpgpu::assemble(line + "\n");
  ASSERT_EQ(prog.code.size(), 1u);
  EXPECT_EQ(prog.code[0].op, op);
  const auto text = gpgpu::disassemble(prog);
  EXPECT_NE(text.find(mn), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, AssemblerSweep,
    ::testing::Range(0, static_cast<int>(gpgpu::kNumOpcodes)));

// --------------------------------------------------------- Monitored rates

class MonitoredRateSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(MonitoredRateSweep, RateIsWithinServiceableBandOfTarget) {
  // The analytic window selection must land within a small factor of the
  // rate target on every benchmark — the whole Fig. 8 queueing story
  // (ML-MIAOW keeps up; MIAOW occasionally overflows) depends on it.
  const auto& p = workloads::find_profile(GetParam());
  ml::DatasetBuilder builder(p, 7);
  workloads::TraceGenerator gen(p, 99);
  const auto& monitored = builder.monitored_addresses();
  std::uint64_t events = 0;
  // Monitored events arrive in bursts of ~6.7 (call-walk dwell), so the
  // effective sample count is events/6.7: sweep long enough that the
  // 6x assertion band holds with margin.
  const std::size_t steps = 2'500'000;
  for (std::size_t i = 0; i < steps; ++i) {
    const auto s = gen.next();
    if (s.event.kind != cpu::BranchKind::kCall) continue;
    if (std::binary_search(monitored.begin(), monitored.end(),
                           s.event.target)) {
      ++events;
    }
  }
  ASSERT_GT(events, 0u) << "monitored sites never fire";
  const double interarrival =
      static_cast<double>(gen.instructions_emitted()) /
      static_cast<double>(events);
  const double target =
      builder.config().lstm_interarrival_k / p.branch_fraction;
  EXPECT_GT(interarrival, target / 6.0) << "rate too hot: " << interarrival;
  EXPECT_LT(interarrival, target * 6.0) << "rate too cold: " << interarrival;
}

INSTANTIATE_TEST_SUITE_P(AllCint2006, MonitoredRateSweep,
                         ::testing::ValuesIn(workloads::spec_names()));

// --------------------------------------------------------- Zipf sweep

class ZipfSweep : public ::testing::TestWithParam<double> {};

TEST_P(ZipfSweep, PopularityDecreasesWithRank) {
  sim::Xoshiro256 rng(7);
  sim::ZipfSampler zipf(64, GetParam());
  std::vector<int> counts(64, 0);
  for (int i = 0; i < 60'000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_GT(counts[0], counts[20]);
  EXPECT_GT(counts[5], counts[50]);
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfSweep,
                         ::testing::Values(0.8, 1.0, 1.1, 1.25, 1.5));

}  // namespace
}  // namespace rtad
