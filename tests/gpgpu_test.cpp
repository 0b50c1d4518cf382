// GPGPU tests: device memory bounds, assembler, interpreter semantics, CU
// scheduling, dispatch, coverage recording and trim faulting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "rtad/gpgpu/assembler.hpp"
#include "rtad/gpgpu/device_memory.hpp"
#include "rtad/gpgpu/gpu.hpp"
#include "rtad/gpgpu/rtl_inventory.hpp"

namespace rtad::gpgpu {
namespace {

float bits_to_f(std::uint32_t b) {
  float f;
  std::memcpy(&f, &b, 4);
  return f;
}

/// Run a kernel to completion on a 1-CU GPU and return the GPU for
/// inspection.
std::unique_ptr<Gpu> run_kernel(const Program& prog,
                                std::uint32_t workgroups = 1,
                                std::uint32_t waves = 1,
                                std::uint32_t kernarg = 0x100,
                                bool coverage = false) {
  GpuConfig cfg;
  cfg.num_cus = 1;
  cfg.collect_coverage = coverage;
  auto gpu = std::make_unique<Gpu>(cfg);
  LaunchConfig launch;
  launch.program = &prog;
  launch.workgroups = workgroups;
  launch.waves_per_group = waves;
  launch.kernarg_addr = kernarg;
  gpu->launch(launch);
  gpu->run_to_completion();
  return gpu;
}

TEST(DeviceMemory, EveryWordPastTheLastIsOutOfRange) {
  DeviceMemory mem(64);
  EXPECT_TRUE(mem.ok32(60));
  mem.write32(60, 7);
  EXPECT_EQ(mem.read32(60), 7u);
  EXPECT_THROW(mem.read32(2), std::invalid_argument);
  // addr + 4 wraps to a small number for the last two aligned addresses;
  // the bound must still reject them by name rather than touch the buffer.
  for (const std::uint64_t addr :
       {64ull, 0xFFFF'FFFF'FFFF'FFF8ull, 0xFFFF'FFFF'FFFF'FFFCull}) {
    EXPECT_THROW(mem.read32(addr), std::out_of_range) << addr;
    EXPECT_THROW(mem.write32(addr, 7), std::out_of_range) << addr;
    EXPECT_FALSE(mem.ok32(addr)) << addr;
  }
}

TEST(Assembler, ParsesDirectivesAndLabels) {
  const auto p = assemble(R"(
.kernel demo
.vgprs 12
.lds 512
start:
  s_mov_b32 s4, 1
  s_branch start
)");
  EXPECT_EQ(p.name, "demo");
  EXPECT_EQ(p.num_vgprs, 12u);
  EXPECT_EQ(p.lds_bytes, 512u);
  ASSERT_EQ(p.code.size(), 2u);
  EXPECT_EQ(p.code[1].op, Opcode::S_BRANCH);
  EXPECT_EQ(p.code[1].imm, 0);
}

TEST(Assembler, ParsesAllOperandKinds) {
  const auto p = assemble(R"(
  v_add_f32 v1, v2, 1.5
  s_mov_b64 exec, s16
  v_cndmask_b32 v3, 0, 1
  v_cmp_lt_i32 vcc, v0, 32
  global_load_dword v4, v5, s6, 256
)");
  EXPECT_EQ(p.code[0].src1.kind, OperandKind::kLiteral);
  EXPECT_FLOAT_EQ(bits_to_f(p.code[0].src1.literal), 1.5f);
  EXPECT_EQ(p.code[1].dst.kind, OperandKind::kExec);
  EXPECT_EQ(p.code[3].dst.kind, OperandKind::kVcc);
  EXPECT_EQ(p.code[4].imm, 256);
}

TEST(Assembler, ReportsErrorsWithLineNumbers) {
  EXPECT_THROW(assemble("  bogus_op v1, v2\n"), AsmError);
  EXPECT_THROW(assemble("  s_branch nowhere\n"), AsmError);
  EXPECT_THROW(assemble("  s_mov_b32 s1\n"), AsmError);  // missing operand
  EXPECT_THROW(assemble("dup:\ndup:\n  s_endpgm\n"), AsmError);
  try {
    assemble("  s_nop\n  junk x\n");
    FAIL() << "expected AsmError";
  } catch (const AsmError& e) {
    EXPECT_EQ(e.line(), 2u);
  }
}

TEST(Assembler, DisassemblyRoundTripsMnemonic) {
  const auto p = assemble("  v_mac_f32 v2, v3, v4\n  s_endpgm\n");
  const auto text = disassemble(p);
  EXPECT_NE(text.find("v_mac_f32"), std::string::npos);
  EXPECT_NE(text.find("s_endpgm"), std::string::npos);
}

TEST(Interpreter, ScalarArithmeticAndCompare) {
  // Compute several scalar results and publish them from lane 0.
  const auto p = assemble(R"(
  s_mov_b32 s4, 10
  s_mov_b32 s5, 3
  s_add_i32 s6, s4, s5
  s_sub_i32 s7, s4, s5
  s_mul_i32 s8, s4, s5
  s_lshl_b32 s9, s4, 2
  s_cmp_lt_i32 s5, s4
  s_cbranch_scc1 good
  s_mov_b32 s10, 0
  s_branch publish
good:
  s_mov_b32 s10, 1
publish:
  v_cmp_lt_i32 vcc, v0, 1
  s_and_b64 exec, exec, vcc
  s_mov_b32 s11, 4096
  v_mov_b32 v2, 0
  v_mov_b32 v3, s6
  global_store_dword v3, v2, s11, 0
  v_mov_b32 v3, s7
  global_store_dword v3, v2, s11, 4
  v_mov_b32 v3, s8
  global_store_dword v3, v2, s11, 8
  v_mov_b32 v3, s9
  global_store_dword v3, v2, s11, 12
  v_mov_b32 v3, s10
  global_store_dword v3, v2, s11, 16
  s_endpgm
)");
  auto gpu = run_kernel(p);
  EXPECT_EQ(gpu->memory().read32(4096), 13u);
  EXPECT_EQ(gpu->memory().read32(4100), 7u);
  EXPECT_EQ(gpu->memory().read32(4104), 30u);
  EXPECT_EQ(gpu->memory().read32(4108), 40u);
  EXPECT_EQ(gpu->memory().read32(4112), 1u);  // taken branch path
}

TEST(Interpreter, VectorLaneIndexAndStore) {
  // Each lane stores its lane id (v0) at base + 4*lane.
  const auto p = assemble(R"(
  s_mov_b32 s4, 4096
  v_lshlrev_b32 v2, 2, v0
  global_store_dword v0, v2, s4
  s_endpgm
)");
  auto gpu = run_kernel(p);
  for (std::uint32_t lane = 0; lane < 64; ++lane) {
    EXPECT_EQ(gpu->memory().read32(4096 + 4 * lane), lane);
  }
}

TEST(Interpreter, FloatArithmetic) {
  // out[lane] = lane * 0.5 + 1.0 via v_mac.
  const auto p = assemble(R"(
  s_mov_b32 s4, 4096
  v_cvt_f32_u32 v2, v0
  v_mov_b32 v3, 1.0
  v_mac_f32 v3, v2, 0.5
  v_lshlrev_b32 v4, 2, v0
  global_store_dword v3, v4, s4
  s_endpgm
)");
  auto gpu = run_kernel(p);
  for (std::uint32_t lane = 0; lane < 64; lane += 13) {
    EXPECT_FLOAT_EQ(gpu->memory().read_f32(4096 + 4 * lane),
                    1.0f + 0.5f * static_cast<float>(lane));
  }
}

TEST(Interpreter, TranscendentalExpRcp) {
  // out = 1 / (1 + 2^-x) for x = lane.
  const auto p = assemble(R"(
  s_mov_b32 s4, 4096
  v_cvt_f32_u32 v2, v0
  v_mul_f32 v3, v2, -1.0
  v_exp_f32 v3, v3
  v_add_f32 v3, v3, 1.0
  v_rcp_f32 v3, v3
  v_lshlrev_b32 v4, 2, v0
  global_store_dword v3, v4, s4
  s_endpgm
)");
  auto gpu = run_kernel(p);
  for (std::uint32_t lane : {0u, 1u, 5u}) {
    const float expect = 1.0f / (1.0f + std::exp2(-static_cast<float>(lane)));
    EXPECT_NEAR(gpu->memory().read_f32(4096 + 4 * lane), expect, 1e-6);
  }
}

TEST(Interpreter, ExecMaskingViaCmpAndCndmask) {
  // Lanes < 8 store 111, others store 222 (via cndmask), then exec-mask a
  // second store so only lane 0 overwrites with 333.
  const auto p = assemble(R"(
  s_mov_b32 s4, 4096
  v_lshlrev_b32 v2, 2, v0
  v_cmp_lt_i32 vcc, v0, 8
  v_cndmask_b32 v3, 222, 111
  global_store_dword v3, v2, s4
  v_cmp_lt_i32 vcc, v0, 1
  s_mov_b64 s16, exec
  s_and_b64 exec, exec, vcc
  v_mov_b32 v4, 333
  global_store_dword v4, v2, s4
  s_mov_b64 exec, s16
  s_endpgm
)");
  auto gpu = run_kernel(p);
  EXPECT_EQ(gpu->memory().read32(4096), 333u);
  EXPECT_EQ(gpu->memory().read32(4096 + 4), 111u);
  EXPECT_EQ(gpu->memory().read32(4096 + 4 * 8), 222u);
}

TEST(Interpreter, ScalarLoopSumsViaMemory) {
  // Sum 0..9 in a scalar loop, store via lane 0.
  const auto p = assemble(R"(
  s_mov_b32 s4, 4096
  s_mov_b32 s5, 0
  s_mov_b32 s6, 0
loop:
  s_cmp_ge_i32 s6, 10
  s_cbranch_scc1 done
  s_add_i32 s5, s5, s6
  s_add_i32 s6, s6, 1
  s_branch loop
done:
  v_cmp_lt_i32 vcc, v0, 1
  s_and_b64 exec, exec, vcc
  v_mov_b32 v2, s5
  v_mov_b32 v3, 0
  global_store_dword v2, v3, s4
  s_endpgm
)");
  auto gpu = run_kernel(p);
  EXPECT_EQ(gpu->memory().read32(4096), 45u);
}

TEST(Interpreter, SmemLoadsKernargs) {
  const auto prog = assemble(R"(
  s_load_dword s4, s0, 0
  s_load_dword s5, s0, 4
  s_waitcnt 0
  s_add_i32 s6, s4, s5
  v_cmp_lt_i32 vcc, v0, 1
  s_and_b64 exec, exec, vcc
  v_mov_b32 v2, s6
  v_mov_b32 v3, 0
  s_mov_b32 s7, 8192
  global_store_dword v2, v3, s7
  s_endpgm
)");
  GpuConfig cfg;
  Gpu gpu(cfg);
  gpu.memory().write32(0x100, 40);
  gpu.memory().write32(0x104, 2);
  LaunchConfig launch;
  launch.program = &prog;
  launch.kernarg_addr = 0x100;
  gpu.launch(launch);
  gpu.run_to_completion();
  EXPECT_EQ(gpu.memory().read32(8192), 42u);
}

TEST(Interpreter, LdsReadWriteAndBarrier) {
  // Wave writes lane ids into LDS, barrier, reads neighbour's slot.
  const auto p = assemble(R"(
.lds 512
  s_mov_b32 s4, 4096
  v_lshlrev_b32 v2, 2, v0
  ds_write_b32 v0, v2
  s_barrier
  ds_read_b32 v3, v2, 4
  global_store_dword v3, v2, s4
  s_endpgm
)");
  auto gpu = run_kernel(p);
  // lane i reads slot i+1 (lane 63 reads past the wave: slot 64 is zero).
  EXPECT_EQ(gpu->memory().read32(4096), 1u);
  EXPECT_EQ(gpu->memory().read32(4096 + 4 * 10), 11u);
}

TEST(Interpreter, F64PipeWorks) {
  // Double the value 1.5 in f64 and convert back.
  const auto p = assemble(R"(
  s_mov_b32 s4, 4096
  v_mov_b32 v2, 1.5
  v_cvt_f64_f32 v4, v2
  v_add_f64 v6, v4, v4
  v_cvt_f32_f64 v8, v6
  v_lshlrev_b32 v9, 2, v0
  global_store_dword v8, v9, s4
  s_endpgm
)");
  auto gpu = run_kernel(p);
  EXPECT_FLOAT_EQ(gpu->memory().read_f32(4096), 3.0f);
}

TEST(Interpreter, AtomicAddReturnsOld) {
  const auto p = assemble(R"(
  s_mov_b32 s4, 4096
  v_mov_b32 v2, 0
  v_mov_b32 v3, 1
  buffer_atomic_add v5, v2, s4, v3
  s_endpgm
)");
  auto gpu = run_kernel(p);
  EXPECT_EQ(gpu->memory().read32(4096), 64u);  // 64 lanes incremented
}

TEST(ComputeUnit, MultiWaveLatencyHiding) {
  // A load-heavy loop: two waves should finish in noticeably fewer cycles
  // than 2x one wave (issue slots interleave during load shadows).
  const auto p = assemble(R"(
  s_mov_b32 s4, 4096
  v_lshlrev_b32 v2, 2, v1
  v_mov_b32 v3, 0
  s_mov_b32 s5, 0
loop:
  s_cmp_ge_i32 s5, 32
  s_cbranch_scc1 done
  global_load_dword v4, v2, s4
  v_add_i32 v3, v3, v4
  s_add_i32 s5, s5, 1
  s_branch loop
done:
  s_endpgm
)");
  auto gpu1 = run_kernel(p, 1, 1);
  const auto one_wave = gpu1->last_launch_cycles();
  auto gpu2 = run_kernel(p, 1, 2);
  const auto two_waves = gpu2->last_launch_cycles();
  EXPECT_LT(two_waves, 2 * one_wave);
  EXPECT_GT(two_waves, one_wave);
}

TEST(Gpu, DispatchesWorkgroupsAcrossCus) {
  const auto p = assemble(R"(
  s_mov_b32 s4, 4096
  s_lshl_b32 s5, s1, 2
  s_add_i32 s4, s4, s5
  v_cmp_lt_i32 vcc, v0, 1
  s_and_b64 exec, exec, vcc
  v_mov_b32 v2, s1
  v_mov_b32 v3, 0
  global_store_dword v2, v3, s4
  s_endpgm
)");
  GpuConfig cfg;
  cfg.num_cus = 5;
  Gpu gpu(cfg);
  LaunchConfig launch;
  launch.program = &p;
  launch.workgroups = 10;
  gpu.launch(launch);
  gpu.run_to_completion();
  for (std::uint32_t wg = 0; wg < 10; ++wg) {
    EXPECT_EQ(gpu.memory().read32(4096 + 4 * wg), wg);
  }
}

TEST(Gpu, MoreCusFinishSooner) {
  const auto p = assemble(R"(
  s_mov_b32 s5, 0
loop:
  s_cmp_ge_i32 s5, 200
  s_cbranch_scc1 done
  s_add_i32 s5, s5, 1
  s_branch loop
done:
  s_endpgm
)");
  GpuConfig one;
  one.num_cus = 1;
  Gpu gpu1(one);
  LaunchConfig launch;
  launch.program = &p;
  launch.workgroups = 5;
  gpu1.launch(launch);
  gpu1.run_to_completion();

  GpuConfig five;
  five.num_cus = 5;
  Gpu gpu5(five);
  gpu5.launch(launch);
  gpu5.run_to_completion();

  EXPECT_GT(gpu1.last_launch_cycles(),
            3 * gpu5.last_launch_cycles());
}

TEST(Gpu, RejectsBadLaunches) {
  GpuConfig cfg;
  Gpu gpu(cfg);
  LaunchConfig launch;
  EXPECT_THROW(gpu.launch(launch), std::invalid_argument);  // no program
  const auto p = assemble("  s_endpgm\n");
  launch.program = &p;
  launch.waves_per_group = 9;
  EXPECT_THROW(gpu.launch(launch), std::invalid_argument);
}

TEST(Gpu, MissingEndpgmFaults) {
  const auto p = assemble("  s_mov_b32 s4, 1\n");
  GpuConfig cfg;
  Gpu gpu(cfg);
  LaunchConfig launch;
  launch.program = &p;
  gpu.launch(launch);
  EXPECT_THROW(gpu.run_to_completion(), std::runtime_error);
}

TEST(Coverage, RecordsOpcodeFormatPipeAndBanks) {
  const auto p = assemble(R"(
  v_mov_b32 v2, 7
  s_endpgm
)");
  auto gpu = run_kernel(p, 1, 1, 0x100, /*coverage=*/true);
  const auto& inv = RtlInventory::instance();
  const auto& cov = gpu->coverage();
  EXPECT_GT(cov[inv.opcode_unit(Opcode::V_MOV_B32)], 0u);
  EXPECT_GT(cov[inv.opcode_unit(Opcode::S_ENDPGM)], 0u);
  EXPECT_GT(cov[inv.format_unit(Format::kVop1)], 0u);
  EXPECT_GT(cov[inv.pipe_unit(Pipe::kValuF32)], 0u);
  EXPECT_GT(cov[inv.vgpr_bank_unit(0)], 0u);
  EXPECT_EQ(cov[inv.vgpr_bank_unit(7)], 0u);
  EXPECT_GT(cov[inv.sgpr_bank_unit(0)], 0u);
  // Unused exotic unit stays dark.
  EXPECT_EQ(cov[inv.opcode_unit(Opcode::IMAGE_SAMPLE)], 0u);
}

TEST(Trim, RemovedUnitFaultsWhenExercised) {
  const auto& inv = RtlInventory::instance();
  const auto p = assemble("  v_sin_f32 v2, v3\n  s_endpgm\n");
  GpuConfig cfg;
  Gpu gpu(cfg);
  auto retained = inv.all_retained();
  retained[inv.opcode_unit(Opcode::V_SIN_F32)] = false;
  gpu.set_trim(retained);
  LaunchConfig launch;
  launch.program = &p;
  gpu.launch(launch);
  EXPECT_THROW(gpu.run_to_completion(), TrimViolation);
}

TEST(Trim, RetainedUnitsExecuteNormally) {
  const auto& inv = RtlInventory::instance();
  const auto p = assemble(R"(
  s_mov_b32 s4, 4096
  v_mov_b32 v2, 9
  v_lshlrev_b32 v3, 2, v0
  global_store_dword v2, v3, s4
  s_endpgm
)");
  GpuConfig cfg;
  Gpu gpu(cfg);
  gpu.set_trim(inv.ml_retained());
  LaunchConfig launch;
  launch.program = &p;
  gpu.launch(launch);
  gpu.run_to_completion();
  EXPECT_EQ(gpu.memory().read32(4096), 9u);
}

TEST(Inventory, AreaTotalsMatchPaper) {
  const auto& inv = RtlInventory::instance();
  const auto full = inv.total_area();
  EXPECT_EQ(full.luts, 180'902u);
  EXPECT_EQ(full.ffs, 107'001u);
  const auto trimmed = inv.area_of(inv.ml_retained());
  EXPECT_EQ(trimmed.luts, 36'743u);
  EXPECT_EQ(trimmed.ffs, 15'275u);
  // Five trimmed CUs match Table I's ML-MIAOW row.
  EXPECT_EQ(trimmed.luts * 5, 183'715u);
  EXPECT_EQ(trimmed.ffs * 5, 76'375u);
  EXPECT_EQ(trimmed.brams * 5, 140u);
}

TEST(Inventory, LookupsAreConsistent) {
  const auto& inv = RtlInventory::instance();
  for (std::size_t i = 0; i < kNumOpcodes; ++i) {
    const auto op = static_cast<Opcode>(i);
    const auto& unit = inv.unit(inv.opcode_unit(op));
    EXPECT_EQ(unit.klass, UnitClass::kOpcode) << mnemonic(op);
    EXPECT_EQ(unit.used_by_ml, opcode_used_by_ml(op)) << mnemonic(op);
  }
  for (std::size_t f = 0; f < kNumFormats; ++f) {
    const auto& unit = inv.unit(inv.format_unit(static_cast<Format>(f)));
    EXPECT_EQ(unit.klass, UnitClass::kDecoder);
    EXPECT_TRUE(unit.alu_or_decoder);
  }
}

TEST(Inventory, GateModelNearPaperTotal) {
  const auto& inv = RtlInventory::instance();
  const auto t = inv.area_of(inv.ml_retained());
  const AreaTotals five{t.luts * 5, t.ffs * 5, t.brams * 5};
  const double ge = gate_equivalents(five);
  EXPECT_NEAR(ge, 1'865'989.0, 20'000.0);  // within ~1%
}

}  // namespace
}  // namespace rtad::gpgpu
