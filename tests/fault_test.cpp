// Fault layer tests: plan parsing, injector determinism and stream
// independence, FIFO drop policies, PFT decoder resync round-trips, TPIU
// byte corruption, interconnect fault penalties, and MCM watchdog/IRQ-loss
// recovery.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <vector>

#include "rtad/bus/interconnect.hpp"
#include "rtad/bus/memory.hpp"
#include "rtad/coresight/tpiu.hpp"
#include "rtad/fault/fault_injector.hpp"
#include "rtad/mcm/mcm.hpp"
#include "rtad/ml/kernels.hpp"
#include "rtad/sim/fifo.hpp"
#include "rtad/trace/pft.hpp"

namespace rtad::fault {
namespace {

// ------------------------------------------------------------ FaultPlan

TEST(FaultPlan, ParsesRatesAndParameters) {
  const auto plan = FaultPlan::parse(
      "trace.bit_flip=0.25,mcm.done_lost=1,bus.error=0,fifo.squeeze=4,"
      "igm.drop_resync=true,mcm.watchdog=5000,seed=123");
  EXPECT_DOUBLE_EQ(plan.rate(FaultSite::kTraceBitFlip), 0.25);
  EXPECT_DOUBLE_EQ(plan.rate(FaultSite::kMcmDoneLost), 1.0);
  EXPECT_DOUBLE_EQ(plan.rate(FaultSite::kBusError), 0.0);
  EXPECT_EQ(plan.fifo_squeeze, 4u);
  EXPECT_TRUE(plan.igm_drop_resync);
  EXPECT_EQ(plan.watchdog_cycles, 5000u);
  EXPECT_EQ(plan.seed, 123u);
  EXPECT_TRUE(plan.any());
}

TEST(FaultPlan, EmptyAndAllZeroPlansAreInert) {
  EXPECT_FALSE(FaultPlan{}.any());
  EXPECT_FALSE(FaultPlan::parse("").any());
  EXPECT_FALSE(FaultPlan::parse("trace.drop=0,seed=9").any());
  // Structural knobs alone count as "does something".
  EXPECT_TRUE(FaultPlan::parse("fifo.squeeze=2").any());
  EXPECT_TRUE(FaultPlan::parse("mcm.drop_oldest=1").any());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("trace.bit_flip=1.5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("trace.bit_flip=-0.1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("trace.bit_flip=abc"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("no_such_key=1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("trace.bit_flip"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("igm.drop_resync=maybe"),
               std::invalid_argument);
}

TEST(FaultPlan, ReadsEnvironment) {
  ::setenv("RTAD_FAULTS", "trace.drop=0.5", 1);
  const auto plan = plan_from_env();
  ASSERT_TRUE(plan.has_value());
  EXPECT_DOUBLE_EQ(plan->rate(FaultSite::kTraceDropByte), 0.5);
  ::setenv("RTAD_FAULTS", "", 1);
  EXPECT_FALSE(plan_from_env().has_value());
  ::unsetenv("RTAD_FAULTS");
  EXPECT_FALSE(plan_from_env().has_value());
}

// -------------------------------------------------------- FaultInjector

std::vector<bool> fire_sequence(FaultInjector& fi, FaultSite site, int n) {
  std::vector<bool> seq;
  seq.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) seq.push_back(fi.fire(site));
  return seq;
}

TEST(FaultInjector, SamePlanAndSaltReplaysIdentically) {
  FaultPlan plan;
  plan.set_rate(FaultSite::kTraceBitFlip, 0.3);
  FaultInjector a(plan, 7);
  FaultInjector b(plan, 7);
  EXPECT_EQ(fire_sequence(a, FaultSite::kTraceBitFlip, 2000),
            fire_sequence(b, FaultSite::kTraceBitFlip, 2000));
  EXPECT_EQ(a.fires(FaultSite::kTraceBitFlip),
            b.fires(FaultSite::kTraceBitFlip));
  EXPECT_GT(a.fires(FaultSite::kTraceBitFlip), 0u);
  EXPECT_EQ(a.decisions(FaultSite::kTraceBitFlip), 2000u);
}

TEST(FaultInjector, DifferentSaltDecorrelates) {
  FaultPlan plan;
  plan.set_rate(FaultSite::kTraceBitFlip, 0.5);
  FaultInjector a(plan, 1);
  FaultInjector b(plan, 2);
  EXPECT_NE(fire_sequence(a, FaultSite::kTraceBitFlip, 2000),
            fire_sequence(b, FaultSite::kTraceBitFlip, 2000));
}

TEST(FaultInjector, SiteStreamsAreIndependent) {
  FaultPlan plan;
  plan.set_rate(FaultSite::kTraceBitFlip, 0.3);
  plan.set_rate(FaultSite::kBusError, 0.9);
  FaultInjector solo(plan, 5);
  FaultInjector interleaved(plan, 5);
  std::vector<bool> solo_seq, inter_seq;
  for (int i = 0; i < 1000; ++i) {
    solo_seq.push_back(solo.fire(FaultSite::kTraceBitFlip));
    // Draws on another site must not shift this site's sequence.
    inter_seq.push_back(interleaved.fire(FaultSite::kTraceBitFlip));
    interleaved.fire(FaultSite::kBusError);
    interleaved.fire(FaultSite::kBusError);
  }
  EXPECT_EQ(solo_seq, inter_seq);
}

TEST(FaultInjector, ZeroRateSiteNeverFires) {
  FaultPlan plan;  // all rates zero
  FaultInjector fi(plan, 1);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(fi.fire(FaultSite::kIrqLost));
  EXPECT_EQ(fi.decisions(FaultSite::kIrqLost), 100u);
  EXPECT_EQ(fi.fires(FaultSite::kIrqLost), 0u);
  EXPECT_EQ(fi.total_fires(), 0u);
}

// ----------------------------------------------------- Fifo drop policy

TEST(FifoDropPolicy, DropNewDiscardsTheNewcomer) {
  sim::Fifo<int> fifo(2);  // kDropNew default
  EXPECT_TRUE(fifo.try_push(1));
  EXPECT_TRUE(fifo.try_push(2));
  EXPECT_FALSE(fifo.try_push(3));
  EXPECT_EQ(fifo.overflows(), 1u);
  EXPECT_EQ(fifo.pushes(), 3u);
  EXPECT_EQ(*fifo.pop(), 1);
  EXPECT_EQ(*fifo.pop(), 2);
  EXPECT_FALSE(fifo.pop().has_value());
}

TEST(FifoDropPolicy, DropOldestEvictsTheHead) {
  sim::Fifo<int> fifo(2, sim::DropPolicy::kDropOldest);
  fifo.try_push(1);
  fifo.try_push(2);
  EXPECT_TRUE(fifo.try_push(3));  // accepted; 1 is sacrificed
  EXPECT_EQ(fifo.overflows(), 1u);
  EXPECT_EQ(fifo.size(), 2u);
  EXPECT_EQ(*fifo.pop(), 2);
  EXPECT_EQ(*fifo.pop(), 3);
}

TEST(FifoDropPolicy, StrictPushHonorsDropOldest) {
  // Regression: push() used to throw on a full FIFO regardless of policy,
  // so a kDropOldest FIFO could never be strict-pushed past capacity even
  // though its whole point is to accept new data by evicting the head.
  sim::Fifo<int> fifo(2, sim::DropPolicy::kDropOldest);
  fifo.push(1);
  fifo.push(2);
  fifo.push(3);  // must not throw: 1 is evicted instead
  EXPECT_EQ(fifo.overflows(), 1u);
  EXPECT_EQ(fifo.size(), 2u);
  EXPECT_EQ(*fifo.pop(), 2);
  EXPECT_EQ(*fifo.pop(), 3);
}

TEST(FifoDropPolicy, StrictPushStillThrowsUnderDropNew) {
  sim::Fifo<int> fifo(1);  // kDropNew default
  fifo.push(1);
  EXPECT_THROW(fifo.push(2), std::runtime_error);
  // The overflow throw does not corrupt the queue.
  EXPECT_EQ(fifo.size(), 1u);
  EXPECT_EQ(*fifo.pop(), 1);
}

TEST(FifoDropPolicy, RvaluePushMovesTheItem) {
  sim::Fifo<std::unique_ptr<int>> fifo(1);
  EXPECT_TRUE(fifo.try_push(std::make_unique<int>(42)));
  EXPECT_FALSE(fifo.try_push(std::make_unique<int>(43)));  // dropped new
  auto out = fifo.pop();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(**out, 42);
}

TEST(FifoDropPolicy, WakeHookFiresOnlyWhenDataIsDelivered) {
  int wakes = 0;
  sim::Fifo<int> drop_new(1);
  drop_new.set_wake_hook([&] { ++wakes; });
  drop_new.try_push(1);
  EXPECT_EQ(wakes, 1);
  drop_new.try_push(2);  // dropped: nothing changed, nobody woken
  EXPECT_EQ(wakes, 1);

  wakes = 0;
  sim::Fifo<int> drop_old(1, sim::DropPolicy::kDropOldest);
  drop_old.set_wake_hook([&] { ++wakes; });
  drop_old.try_push(1);
  drop_old.try_push(2);  // head evicted, new data delivered: hook fires
  EXPECT_EQ(wakes, 2);
}

TEST(FifoDropPolicy, ResetStatsKeepsWatermarkAtOccupancy) {
  sim::Fifo<int> fifo(8);
  for (int i = 0; i < 5; ++i) fifo.try_push(i);
  fifo.pop();
  fifo.pop();
  EXPECT_EQ(fifo.high_watermark(), 5u);
  fifo.reset_stats();
  EXPECT_EQ(fifo.pushes(), 0u);
  EXPECT_EQ(fifo.overflows(), 0u);
  // A window opened on a non-empty FIFO must not report less than what is
  // already buffered.
  EXPECT_EQ(fifo.high_watermark(), 3u);
}

// ------------------------------------------------- PFT decoder recovery

trace::TraceByte tb(std::uint8_t value) {
  return trace::TraceByte{value, 1000, 0, false};
}

/// Feed encoder-produced bytes and count decoded branches.
std::size_t feed_all(trace::PftStreamDecoder& dec,
                     const std::vector<std::uint8_t>& bytes) {
  std::size_t decoded = 0;
  for (const auto b : bytes) {
    if (dec.feed(tb(b))) ++decoded;
  }
  return decoded;
}

TEST(PftDecoderRecovery, MalformedPacketCountsAndResyncs) {
  trace::PftStreamDecoder dec;
  trace::PftEncoder enc;
  std::vector<std::uint8_t> bytes;
  enc.emit_sync(0, 1, bytes);
  EXPECT_EQ(feed_all(dec, bytes), 0u);
  EXPECT_TRUE(dec.synced());

  // A branch packet can carry at most 4 continuation bytes after its
  // header; a 5th payload byte with the continuation bit still set is
  // provably corruption (a clean encoder always clears it on the last
  // byte).
  feed_all(dec, {0x81, 0x80, 0x80, 0x80, 0x80, 0x80});
  EXPECT_GE(dec.bad_packets(), 1u);
  EXPECT_GE(dec.resyncs(), 1u);
  EXPECT_FALSE(dec.synced());
}

TEST(PftDecoderRecovery, ResyncRoundTripRecoversDecoding) {
  trace::PftStreamDecoder dec;
  trace::PftEncoder enc;
  std::vector<std::uint8_t> bytes;
  enc.emit_sync(0, 1, bytes);

  cpu::BranchEvent ev;
  ev.kind = cpu::BranchKind::kCall;
  ev.taken = true;
  ev.target = 0x5000;
  enc.encode(ev, bytes);
  EXPECT_EQ(feed_all(dec, bytes), 1u);

  // Corrupt the stream mid-packet, then resync via a fresh preamble.
  feed_all(dec, {0x81, 0x80, 0x80, 0x80, 0x80, 0x80});
  ASSERT_FALSE(dec.synced());
  const auto bad_before = dec.bad_packets();

  enc.reset();
  std::vector<std::uint8_t> recovery;
  enc.emit_sync(0, 1, recovery);
  ev.target = 0x6000;
  enc.encode(ev, recovery);
  EXPECT_EQ(feed_all(dec, recovery), 1u);
  EXPECT_TRUE(dec.synced());
  EXPECT_EQ(dec.bad_packets(), bad_before);  // clean stream adds none
  EXPECT_EQ(dec.last_address(), 0x6000u);
}

TEST(PftDecoderRecovery, GarbageStreamNeverThrows) {
  trace::PftStreamDecoder dec;
  sim::Xoshiro256 rng(99);
  for (int i = 0; i < 50'000; ++i) {
    EXPECT_NO_THROW(
        dec.feed(tb(static_cast<std::uint8_t>(rng.uniform_below(256)))));
  }
}

// -------------------------------------------------- TPIU trace corruption

struct TpiuRig {
  explicit TpiuRig(FaultPlan plan)
      : source(256), tpiu(source), faults(plan, 11) {
    tpiu.set_fault_injector(&faults);
  }

  void push_bytes(int n) {
    for (int i = 0; i < n; ++i) {
      source.push(tb(static_cast<std::uint8_t>(i + 1)));
    }
  }

  std::vector<std::uint8_t> drain(int ticks = 200) {
    std::vector<std::uint8_t> out;
    for (int t = 0; t < ticks; ++t) {
      tpiu.tick();
      while (auto w = tpiu.port().pop()) {
        for (int i = 0; i < w->count; ++i) {
          out.push_back(w->bytes[static_cast<std::size_t>(i)].value);
        }
      }
    }
    return out;
  }

  sim::Fifo<trace::TraceByte> source;
  coresight::Tpiu tpiu;
  FaultInjector faults;
};

TEST(TpiuFaults, BitFlipDamagesEveryByteAtRateOne) {
  FaultPlan plan;
  plan.set_rate(FaultSite::kTraceBitFlip, 1.0);
  TpiuRig rig(plan);
  rig.push_bytes(16);
  const auto out = rig.drain();
  ASSERT_EQ(out.size(), 16u);
  EXPECT_EQ(rig.tpiu.bits_flipped(), 16u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NE(out[i], static_cast<std::uint8_t>(i + 1));  // exactly one bit off
  }
}

TEST(TpiuFaults, DropRateOneSwallowsTheStream) {
  FaultPlan plan;
  plan.set_rate(FaultSite::kTraceDropByte, 1.0);
  TpiuRig rig(plan);
  rig.push_bytes(16);
  EXPECT_TRUE(rig.drain().empty());
  EXPECT_EQ(rig.tpiu.bytes_dropped(), 16u);
  EXPECT_EQ(rig.tpiu.words_emitted(), 0u);
}

TEST(TpiuFaults, DuplicationDoublesTheStream) {
  FaultPlan plan;
  plan.set_rate(FaultSite::kTraceDupByte, 1.0);
  TpiuRig rig(plan);
  rig.push_bytes(8);
  const auto out = rig.drain();
  ASSERT_EQ(out.size(), 16u);
  EXPECT_EQ(rig.tpiu.bytes_duplicated(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(out[2 * i], out[2 * i + 1]);  // each byte followed by its twin
  }
}

TEST(TpiuFaults, TruncationWindowSwallowsRuns) {
  FaultPlan plan;
  plan.set_rate(FaultSite::kTraceTruncate, 1.0);
  plan.truncate_bytes = 8;
  TpiuRig rig(plan);
  rig.push_bytes(16);
  EXPECT_TRUE(rig.drain().empty());
  EXPECT_EQ(rig.tpiu.bytes_truncated(), 16u);
}

TEST(TpiuFaults, CountersStayZeroWithoutInjector) {
  sim::Fifo<trace::TraceByte> source(64);
  coresight::Tpiu tpiu(source);
  for (int i = 0; i < 8; ++i) source.push(tb(0x42));
  for (int t = 0; t < 20; ++t) tpiu.tick();
  EXPECT_EQ(tpiu.corrupted_bytes(), 0u);
  EXPECT_GT(tpiu.words_emitted(), 0u);
}

// ---------------------------------------------- Interconnect penalties

TEST(InterconnectFaults, ErrorRetriesCostCyclesButPreserveData) {
  bus::Memory mem(1024);
  bus::Interconnect clean;
  clean.map("mem", 0, 1024, mem);
  const std::uint32_t clean_cost = clean.write32(0, 1);

  FaultPlan plan;
  plan.set_rate(FaultSite::kBusError, 1.0);
  FaultInjector fi(plan, 3);
  bus::Interconnect faulty;
  faulty.map("mem", 0, 1024, mem);
  faulty.set_fault_injector(&fi);

  // The calibrated return cost is unchanged; the retry surfaces only
  // through the pending penalty and the error counter.
  EXPECT_EQ(faulty.write32(4, 0xBEEF), clean_cost);
  std::uint32_t readback = 0;
  faulty.read32(4, readback);
  EXPECT_EQ(readback, 0xBEEFu);
  EXPECT_EQ(faulty.fault_errors(), 2u);  // write + read both errored
  EXPECT_GT(faulty.consume_fault_penalty(), 0u);
  EXPECT_EQ(faulty.consume_fault_penalty(), 0u);  // consumed
  EXPECT_GT(faulty.fault_cycles(), 0u);           // lifetime total remains
}

TEST(InterconnectFaults, DelayAddsConfiguredCycles) {
  bus::Memory mem(64);
  FaultPlan plan;
  plan.set_rate(FaultSite::kBusDelay, 1.0);
  plan.bus_delay_cycles = 13;
  FaultInjector fi(plan, 3);
  bus::Interconnect bus;
  bus.map("mem", 0, 64, mem);
  bus.set_fault_injector(&fi);
  bus.write32(0, 7);
  EXPECT_EQ(bus.consume_fault_penalty(), 13u);
}

// ------------------------------------------- MCM watchdog / IRQ recovery

using gpgpu::assemble;

/// Trivial model: copies the input token to the score, flags anomaly when
/// token > 100 (same toy as mcm_test).
ml::ModelImage toy_image() {
  ml::ModelImage image;
  image.name = "toy";
  image.input_addr = 0x40;
  image.input_words = 1;
  image.result_addr = 0x0;
  ml::KernelStep step;
  step.program = assemble(R"(
  s_load_dword s4, s0, 0      ; input addr
  s_load_dword s5, s0, 4      ; result addr
  s_waitcnt 0
  s_load_dword s6, s4, 0      ; token
  s_waitcnt 0
  v_cmp_lt_i32 vcc, v0, 1
  s_and_b64 exec, exec, vcc
  v_mov_b32 v2, s6
  v_cvt_f32_u32 v2, v2
  v_mov_b32 v3, 0
  global_store_dword v2, v3, s5, 4
  v_mov_b32 v4, 100.0
  v_cmp_gt_f32 vcc, v2, v4
  v_cndmask_b32 v5, 0, 1
  global_store_dword v5, v3, s5
  s_endpgm
)");
  step.workgroups = 1;
  step.kernarg_addr = 0x200;
  image.steps.push_back(std::move(step));
  image.init_blocks.emplace_back(
      0x200, std::vector<std::uint32_t>{image.input_addr, image.result_addr});
  return image;
}

struct McmRig {
  McmRig(FaultPlan plan, std::uint64_t watchdog)
      : gpu(gpgpu::GpuConfig{}),
        tpiu_fifo(64),
        image(toy_image()),
        faults(plan, 1) {
    igm::IgmConfig igm_cfg;
    igm_cfg.encoder.vocab_size = 256;
    igm_cfg.out_capacity = 64;
    igm = std::make_unique<igm::Igm>(igm_cfg, tpiu_fifo);
    mcm::McmConfig mcfg;
    mcfg.fifo_depth = 4;
    mcfg.watchdog_cycles = watchdog;
    mcm = std::make_unique<mcm::Mcm>(mcfg, *igm, gpu, &faults);
    mcm->load_model(&image);
  }

  void push_branch(std::uint64_t target) {
    std::vector<std::uint8_t> bytes;
    if (!synced) {
      enc.emit_sync(0, 1, bytes);
      synced = true;
    }
    cpu::BranchEvent ev;
    ev.kind = cpu::BranchKind::kCall;
    ev.taken = true;
    ev.target = target;
    ev.retired_ps = 1000;
    enc.encode(ev, bytes);
    coresight::TpiuWord w;
    for (const auto b : bytes) {
      w.bytes[w.count] = trace::TraceByte{b, 1000, 0, false};
      if (++w.count == 4) {
        tpiu_fifo.push(w);
        w = coresight::TpiuWord{};
      }
    }
    if (w.count > 0) tpiu_fifo.push(w);
  }

  void run(int fabric_cycles) {
    for (int i = 0; i < fabric_cycles; ++i) {
      igm->tick();
      mcm->tick();
      gpu.tick();
      gpu.tick();
    }
  }

  gpgpu::Gpu gpu;
  sim::Fifo<coresight::TpiuWord> tpiu_fifo;
  ml::ModelImage image;
  FaultInjector faults;
  std::unique_ptr<igm::Igm> igm;
  std::unique_ptr<mcm::Mcm> mcm;
  trace::PftEncoder enc;
  bool synced = false;
};

TEST(McmRecovery, WatchdogAbortsWedgedWaitDone) {
  FaultPlan plan;
  plan.set_rate(FaultSite::kMcmDoneLost, 1.0);
  McmRig rig(plan, /*watchdog=*/3000);
  rig.igm->encoder().map_address(0x50, 5);
  rig.push_branch(0x50);
  rig.run(20'000);
  // Every done indication is lost: the inference result is abandoned, the
  // FSM recovers instead of wedging forever.
  EXPECT_GE(rig.mcm->recoveries(), 1u);
  EXPECT_EQ(rig.mcm->inferences_completed(), 0u);
  EXPECT_EQ(rig.mcm->state(), mcm::McmState::kWaitInput);
}

TEST(McmRecovery, WatchdogZeroDisablesRecovery) {
  FaultPlan plan;
  plan.set_rate(FaultSite::kMcmDoneLost, 1.0);
  McmRig rig(plan, /*watchdog=*/0);
  rig.igm->encoder().map_address(0x50, 5);
  rig.push_branch(0x50);
  rig.run(20'000);
  EXPECT_EQ(rig.mcm->recoveries(), 0u);
  EXPECT_EQ(rig.mcm->state(), mcm::McmState::kWaitDone);  // wedged by design
}

TEST(McmRecovery, LostIrqSuppressesHandlerButNotObserver) {
  FaultPlan plan;
  plan.set_rate(FaultSite::kIrqLost, 1.0);
  McmRig rig(plan, 0);
  rig.igm->encoder().map_address(0x6000, 200);  // token > 100: anomaly
  int handler_calls = 0;
  int observer_calls = 0;
  bool suppressed = false;
  rig.mcm->set_interrupt_handler(
      [&](const mcm::InferenceRecord&) { ++handler_calls; });
  rig.mcm->set_inference_observer([&](const mcm::InferenceRecord& rec) {
    ++observer_calls;
    suppressed = rec.irq_suppressed;
  });
  rig.push_branch(0x6000);
  rig.run(5'000);
  EXPECT_EQ(rig.mcm->inferences_completed(), 1u);
  EXPECT_EQ(observer_calls, 1);
  EXPECT_TRUE(suppressed);
  EXPECT_EQ(handler_calls, 0);
  EXPECT_EQ(rig.mcm->irqs_lost(), 1u);
  EXPECT_EQ(rig.mcm->interrupts_fired(), 0u);
}

TEST(McmRecovery, ConsumerStallDelaysButCompletes) {
  FaultPlan plan;
  plan.set_rate(FaultSite::kMcmStall, 1.0);
  plan.stall_cycles = 64;
  McmRig rig(plan, 0);
  rig.igm->encoder().map_address(0x50, 5);
  rig.push_branch(0x50);
  rig.run(10'000);
  // Rate 1.0 stalls every vector exactly once — no livelock.
  EXPECT_EQ(rig.mcm->stalls_injected(), 1u);
  EXPECT_EQ(rig.mcm->inferences_completed(), 1u);
}

}  // namespace
}  // namespace rtad::fault
