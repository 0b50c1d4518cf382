// MCM tests: FSM sequencing, driver launch ordering, protocol-converter
// costs, FIFO overflow behaviour, interrupt firing.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rtad/mcm/mcm.hpp"
#include "rtad/ml/kernels.hpp"
#include "rtad/sim/rng.hpp"
#include "rtad/trace/pft.hpp"

namespace rtad::mcm {
namespace {

using gpgpu::assemble;

TEST(ProtocolConverter, CostsScaleWithWords) {
  ProtocolConverter pc;
  EXPECT_EQ(pc.transfer_cycles(0), 0u);
  EXPECT_EQ(pc.transfer_cycles(1), 2u + 3u);
  EXPECT_EQ(pc.transfer_cycles(32), 2u + 96u);
  EXPECT_EQ(pc.reg_write_cycles(), 5u);
}

TEST(ControlFsm, StateNames) {
  EXPECT_STREQ(to_string(McmState::kWaitInput), "WAIT_INPUT");
  EXPECT_STREQ(to_string(McmState::kReadResult), "READ_RESULT");
}

/// A harness: hand-built trivial "model" whose single kernel copies the
/// input token to the score and flags anomaly when token > 100.
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

struct Harness {
  Harness() : gpu(gpgpu::GpuConfig{}), tpiu_fifo(64), igm_cfg(), image(toy_image()) {
    igm_cfg.encoder.vocab_size = 256;
    igm_cfg.out_capacity = 64;
    igm = std::make_unique<igm::Igm>(igm_cfg, tpiu_fifo);
    McmConfig mcfg;
    mcfg.fifo_depth = 4;
    mcm = std::make_unique<Mcm>(mcfg, *igm, gpu);
    mcm->load_model(&image);
  }

  /// Push one branch-address packet worth of trace bytes.
  void push_branch(std::uint64_t target, bool injected = false) {
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
    ev.injected = injected;
    enc.encode(ev, bytes);
    coresight::TpiuWord w;
    for (const auto b : bytes) {
      w.bytes[w.count] = trace::TraceByte{b, 1000, 0, injected};
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
      // 125 MHz fabric : 50 MHz GPU = 5 GPU ticks per 2 fabric... keep it
      // simple for unit tests: tick the GPU twice per fabric cycle (faster
      // GPU only shortens WAIT_DONE).
      gpu.tick();
      gpu.tick();
    }
  }

  gpgpu::Gpu gpu;
  sim::Fifo<coresight::TpiuWord> tpiu_fifo;
  igm::IgmConfig igm_cfg;
  ml::ModelImage image;
  std::unique_ptr<igm::Igm> igm;
  std::unique_ptr<Mcm> mcm;
  trace::PftEncoder enc;
  bool synced = false;
};

TEST(Mcm, CompletesInferencePerVector) {
  Harness h;
  h.igm->encoder().map_address(0x50, 5);  // token 5 < 100: benign
  h.push_branch(0x50);
  h.run(3000);
  EXPECT_EQ(h.mcm->inferences_completed(), 1u);
  EXPECT_EQ(h.mcm->interrupts_fired(), 0u);
  EXPECT_EQ(h.mcm->state(), McmState::kWaitInput);
}

TEST(Mcm, FiresInterruptOnAnomaly) {
  Harness h;
  // Force a token > 100: map a specific address to token 200.
  h.igm->encoder().map_address(0x6000, 200);
  std::size_t irqs = 0;
  InferenceRecord last;
  h.mcm->set_interrupt_handler([&](const InferenceRecord& rec) {
    ++irqs;
    last = rec;
  });
  h.push_branch(0x6000, /*injected=*/true);
  h.run(3000);
  EXPECT_EQ(h.mcm->inferences_completed(), 1u);
  EXPECT_EQ(irqs, 1u);
  EXPECT_TRUE(last.anomaly);
  EXPECT_TRUE(last.injected);
  EXPECT_FLOAT_EQ(last.score, 200.0f);
  EXPECT_GT(last.latency_ps(), 0u);
}

TEST(Mcm, ObserverSeesEveryInference) {
  Harness h;
  std::size_t seen = 0;
  h.mcm->set_inference_observer([&](const InferenceRecord&) { ++seen; });
  for (int i = 0; i < 3; ++i) {
    h.push_branch(0x5000 + 2u * static_cast<unsigned>(i));
    h.run(3000);
  }
  EXPECT_EQ(seen, 3u);
}

TEST(Mcm, FifoOverflowDropsNewVectors) {
  Harness h;
  // Flood: many vectors while the engine grinds on the first.
  for (int i = 0; i < 40; ++i) h.push_branch(0x5000 + 2u * static_cast<unsigned>(i));
  h.run(40'000);
  EXPECT_GT(h.mcm->fifo_drops() + h.igm->drops_at_output(), 0u);
  EXPECT_GT(h.mcm->inferences_completed(), 1u);
  EXPECT_LT(h.mcm->inferences_completed(), 40u);
}

TEST(Mcm, NoModelMeansNoProcessing) {
  Harness h;
  h.mcm->load_model(nullptr);
  h.push_branch(0x50);
  h.run(2000);
  EXPECT_EQ(h.mcm->inferences_completed(), 0u);
  EXPECT_EQ(h.mcm->state(), McmState::kWaitInput);
}

TEST(Mcm, TxCyclesReflectPayloadSize) {
  Harness h;
  h.push_branch(0x50);
  h.run(3000);
  // 1-word payload through the converter: sync_stages + 1*fabric_per_gpu.
  EXPECT_EQ(h.mcm->last_tx_cycles(), 5u);
}

/// The value of `"key":` in one Chrome-trace event line, unquoted.
std::string json_field(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return {};
  std::size_t begin = at + tag.size();
  std::size_t end = line.find_first_of(",}", begin);
  if (line[begin] == '"') end = line.find('"', ++begin);
  return line.substr(begin, end - begin);
}

/// (name, duration in us) of every span on the named track, in export
/// order.
std::vector<std::pair<std::string, std::string>> spans_on(
    const obs::TraceSink& sink, const std::string& track) {
  std::ostringstream os;
  sink.write_chrome_json(os);
  std::istringstream in(os.str());
  std::string line;
  std::string tid;
  std::vector<std::pair<std::string, std::string>> spans;
  while (std::getline(in, line)) {
    if (line.find("\"args\":{\"name\":\"" + track + "\"}") !=
        std::string::npos) {
      tid = json_field(line, "tid");
    } else if (!tid.empty() && json_field(line, "ph") == "X" &&
               json_field(line, "tid") == tid) {
      spans.emplace_back(json_field(line, "name"), json_field(line, "dur"));
    }
  }
  return spans;
}

TEST(Mcm, AxiSpansCarryTheRegionNameAndCalibratedCosts) {
  Harness h;
  obs::Observer ob(/*enable_trace=*/true);
  h.mcm->set_observability(ob, "fabric");
  h.push_branch(0x50);
  h.run(3000);
  ASSERT_EQ(h.mcm->inferences_completed(), 1u);
  // The TX engine writes the 1-word vector as one burst (arbitration 2 +
  // 1 beat = 3 cycles), the RX engine reads the flag and score words
  // (2 + 2 = 4 cycles each), at the 125 MHz fabric clock (8 ns a cycle).
  // Unattached to a simulator, every span starts at 0 and the export
  // orders them by name.
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"rd:ml-miaow-mem", "0.032000"},
      {"rd:ml-miaow-mem", "0.032000"},
      {"wr_burst:ml-miaow-mem", "0.024000"}};
  EXPECT_EQ(spans_on(*ob.sink(), "mcm.axi"), expected);
  // Step 3 of Fig. 7 is the protocol converter's cost, not the bus's:
  // 2 sync stages + 1 word x 3 fabric cycles.
  EXPECT_EQ(h.mcm->last_tx_cycles(), 5u);
}

TEST(Mcm, ResetReturnsToWaitInput) {
  Harness h;
  h.push_branch(0x50);
  h.run(100);  // mid-flight
  h.mcm->reset();
  EXPECT_EQ(h.mcm->state(), McmState::kWaitInput);
  EXPECT_EQ(h.mcm->inferences_completed(), 0u);
}

TEST(Driver, SequencesAllStepsOnce) {
  gpgpu::Gpu gpu(gpgpu::GpuConfig{});
  ProtocolConverter pc;
  MlMiaowDriver driver(gpu, pc);
  auto image = toy_image();
  // Two copies of the step: a 2-step sequence.
  image.steps.push_back(image.steps[0]);
  ml::load_image(gpu, image);
  gpu.memory().write32(image.input_addr, 7);
  driver.set_model(&image);
  driver.begin_inference();
  int launches = 0;
  for (int i = 0; i < 100'000 && !driver.inference_done(); ++i) {
    if (driver.advance() > 0) ++launches;
    gpu.tick();
  }
  EXPECT_TRUE(driver.inference_done());
  EXPECT_EQ(launches, 2);
  EXPECT_EQ(driver.launches_issued(), 2u);
}

}  // namespace
}  // namespace rtad::mcm
