// Replay stage (each layer run standalone, timed per unit of work), plus the
// pinned options and training set-up of the simulator workload.
#include "replay.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "rtad/core/detection_session.hpp"
#include "rtad/core/rtad_soc.hpp"
#include "rtad/gpgpu/rtl_inventory.hpp"
#include "rtad/igm/address_mapper.hpp"
#include "rtad/igm/vector_encoder.hpp"
#include "rtad/ml/kernel_compiler.hpp"
#include "rtad/trace/decoder.hpp"
#include "rtad/trace/encoder.hpp"
#include "rtad/workloads/trace_generator.hpp"

namespace perfbench {

using namespace rtad;

namespace {

/// Events are generated and pushed through the frontend in chunks, so the
/// replay of a multi-million-event episode stays a few MiB resident.
constexpr std::size_t kChunkEvents = 1 << 16;
/// Offline GPU inferences per (model, backend) cell: the episode's own
/// count, capped so the cycle backend stays well under a second.
constexpr std::uint64_t kMaxGpuInferences = 300;
/// Simulated time the checkpoint/restore replay advances before parking.
constexpr sim::Picoseconds kCheckpointAtPs = 20 * sim::kPsPerMs;

double elapsed_ns(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0);
}

struct Frontend {
  std::unique_ptr<trace::TraceEncoder> enc;
  std::unique_ptr<trace::TraceDecoder> dec;
  std::vector<std::uint8_t> bytes;
  std::vector<trace::DecodedBranch> decoded;
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  std::uint64_t total_bytes = 0;
  std::uint64_t total_decoded = 0;
  Digest stream;  ///< decoded waypoint addresses, in order

  explicit Frontend(trace::TraceProtocol proto)
      : enc(trace::make_encoder(proto)), dec(trace::make_decoder(proto)) {
    enc->emit_sync(0, 1, bytes);
  }

  void push(const std::vector<workloads::TraceStep>& steps, bool last) {
    std::uint64_t t0 = now_ns();
    for (const auto& s : steps) enc->encode(s.event, bytes);
    if (last) enc->flush(bytes);
    encode_ns += elapsed_ns(t0);
    decoded.clear();
    t0 = now_ns();
    for (const std::uint8_t b : bytes) {
      if (auto br = dec->feed(trace::TraceByte{b, 0, 0, false})) {
        decoded.push_back(*br);
      }
    }
    decode_ns += elapsed_ns(t0);
    total_bytes += bytes.size();
    total_decoded += decoded.size();
    for (const auto& d : decoded) stream.u64(d.address);
    bytes.clear();
  }
};

/// Offline inferences on a fresh device of `engine`'s shape, µs each.
double gpu_us_per_inference(core::EngineKind engine, gpgpu::GpuBackend backend,
                            const ml::ModelImage& image,
                            const std::vector<std::vector<std::uint32_t>>& payloads,
                            std::uint64_t count, Spans& spans,
                            const char* span_name) {
  if (payloads.empty() || count == 0) return 0.0;
  gpgpu::GpuConfig cfg = core::gpu_config_for(engine, 8);
  cfg.backend = backend;
  gpgpu::Gpu gpu(cfg);
  if (engine == core::EngineKind::kMlMiaow) {
    gpu.set_trim(gpgpu::RtlInventory::instance().ml_retained());
  }
  ml::load_image(gpu, image);
  Spans::Scope scope(spans, span_name);
  const std::uint64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < count; ++i) {
    ml::run_inference_offline(gpu, image, payloads[i % payloads.size()]);
  }
  return elapsed_ns(t0) / 1e3 / static_cast<double>(count);
}

}  // namespace

core::DetectionOptions pinned_detection_options() {
  core::DetectionOptions o;
  o.sched = sim::SchedMode::kEventDriven;
  o.backend = gpgpu::GpuBackend::kFast;
  o.faults = std::nullopt;
  o.proto = trace::TraceProtocol::kPft;
  o.trace_path.clear();
  o.metrics_path.clear();
  o.cycle_accounts = false;
  o.ensemble = core::EnsembleParams{};
  return o;
}

std::shared_ptr<core::TrainedModelCache> train_setups(
    const RunConfig& cfg, Spans& spans, std::size_t times,
    const std::function<std::shared_ptr<core::TrainedModelCache>()>& make_cache,
    const std::string& benchmark, std::vector<double>& setup_s) {
  std::shared_ptr<core::TrainedModelCache> first;
  for (std::size_t i = 0; i < cfg.repeats(times); ++i) {
    auto cache = make_cache();
    Spans::Scope scope(spans, "ml.train", i);
    const std::uint64_t t0 = now_ns();
    cache->get(benchmark);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!first) first = std::move(cache);
  }
  return first;
}

double domain_cycles(std::uint64_t sim_ps) {
  const core::ClockPlan clocks;
  const double s = static_cast<double>(sim_ps) * 1e-12;
  return s * static_cast<double>(clocks.cpu_hz + clocks.fabric_hz + clocks.gpu_hz);
}

ReplayCosts run_replay(const ReplayPlan& plan, Spans& spans) {
  ReplayCosts c;
  const core::TrainedModels& models = *plan.models;
  const ml::DatasetBuilder& features = *models.features;

  // --- workloads -> trace (both grammars) -> IVG, chunk by chunk ---
  workloads::TraceGenerator gen(*plan.profile, plan.options.seed);
  Frontend pft(trace::TraceProtocol::kPft);
  Frontend etrace(trace::TraceProtocol::kEtrace);

  // IVG programmed as the SoC programs it (RtadSoc::program_igm_tables).
  igm::AddressMapper lstm_mapper;
  igm::VectorEncoder lstm_enc(igm::VectorEncoderConfig{
      igm::Encoding::kTokenStream, features.config().lstm_vocab, 32, false});
  lstm_mapper.set_pass_all(false);
  const auto& monitored = features.monitored_addresses();
  for (std::size_t i = 0; i < monitored.size(); ++i) {
    lstm_mapper.add_exact(monitored[i]);
    lstm_enc.map_address(monitored[i], static_cast<std::uint32_t>(i));
  }
  igm::AddressMapper elm_mapper;
  elm_mapper.set_pass_all(false);
  elm_mapper.add_range(workloads::kSyscallBase,
                       workloads::kSyscallStride * 256);
  igm::VectorEncoder elm_enc(igm::VectorEncoderConfig{
      igm::Encoding::kSlidingHistogram, features.config().elm_vocab,
      features.config().elm_window, true});

  const std::uint64_t gpu_count =
      std::clamp<std::uint64_t>(plan.inferences, 1, kMaxGpuInferences);
  std::vector<std::vector<std::uint32_t>> lstm_payloads;
  std::vector<std::vector<std::uint32_t>> elm_payloads;
  double gen_ns = 0.0;
  double ivg_ns = 0.0;
  std::uint64_t ivg_branches = 0;
  std::vector<workloads::TraceStep> steps;
  steps.reserve(kChunkEvents);
  {
    Spans::Scope scope(spans, "workloads.replay");
    std::uint64_t done = 0;
    while (done < plan.events) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(kChunkEvents, plan.events - done));
      steps.clear();
      std::uint64_t t0 = now_ns();
      for (std::size_t i = 0; i < n; ++i) steps.push_back(gen.next());
      gen_ns += elapsed_ns(t0);
      done += n;
      const bool last = done == plan.events;
      {
        Spans::Scope t(spans, "trace.replay");
        pft.push(steps, last);
        etrace.push(steps, last);
      }
      Spans::Scope t(spans, "igm.replay");
      igm::InputVector v;
      t0 = now_ns();
      for (const auto& d : pft.decoded) {
        const bool pass = lstm_mapper.passes(d);
        lstm_mapper.note(pass);
        if (pass && lstm_enc.encode(d, v) &&
            lstm_payloads.size() < kMaxGpuInferences) {
          lstm_payloads.push_back(v.payload);
        }
      }
      ivg_ns += elapsed_ns(t0);
      ivg_branches += pft.decoded.size();
    }
  }
  // Histogram vectors for the ELM cells, from the syscall stream of the
  // same seed with the ELM runs' compressed syscall interval (as
  // DetectionSession sets it). Untimed: only the GPU consumes them.
  {
    workloads::SpecProfile elm_profile = *plan.profile;
    elm_profile.syscall_interval_instrs = std::min(
        elm_profile.syscall_interval_instrs, plan.options.elm_syscall_interval_cap);
    workloads::TraceGenerator elm_gen(elm_profile, plan.options.seed);
    igm::InputVector v;
    while (elm_payloads.size() < gpu_count) {
      const cpu::BranchEvent ev = elm_gen.next().event;
      if (ev.kind != cpu::BranchKind::kSyscall) continue;
      const trace::DecodedBranch d{ev.target, true, 0, 0, false};
      if (elm_mapper.passes(d) && elm_enc.encode(d, v)) elm_payloads.push_back(v.payload);
    }
  }
  const double events = static_cast<double>(std::max<std::uint64_t>(plan.events, 1));
  c.gen_ns_per_event = gen_ns / events;
  c.pft_encode_ns_per_event = pft.encode_ns / events;
  c.pft_decode_ns_per_byte =
      pft.decode_ns / static_cast<double>(std::max<std::uint64_t>(pft.total_bytes, 1));
  c.pft_bytes_per_branch = static_cast<double>(pft.total_bytes) / events;
  c.etrace_encode_ns_per_event = etrace.encode_ns / events;
  c.etrace_decode_ns_per_byte =
      etrace.decode_ns /
      static_cast<double>(std::max<std::uint64_t>(etrace.total_bytes, 1));
  c.etrace_bytes_per_branch = static_cast<double>(etrace.total_bytes) / events;
  c.ivg_ns_per_branch =
      ivg_ns / static_cast<double>(std::max<std::uint64_t>(ivg_branches, 1));
  c.protocols_agree = pft.total_decoded == etrace.total_decoded &&
                      pft.total_decoded > 0 &&
                      pft.stream.value() == etrace.stream.value();

  // --- gpgpu: offline inference on both backends ---
  for (const auto backend : {gpgpu::GpuBackend::kFast, gpgpu::GpuBackend::kCycle}) {
    const bool fast = backend == gpgpu::GpuBackend::kFast;
    const double lstm = gpu_us_per_inference(
        core::EngineKind::kMiaow, backend, models.lstm_image, lstm_payloads,
        gpu_count, spans, fast ? "gpgpu.replay_fast_lstm" : "gpgpu.replay_cycle_lstm");
    const double elm = gpu_us_per_inference(
        core::EngineKind::kMlMiaow, backend, models.elm_image, elm_payloads,
        gpu_count, spans, fast ? "gpgpu.replay_fast_elm" : "gpgpu.replay_cycle_elm");
    (fast ? c.fast_lstm_1cu_us : c.cycle_lstm_1cu_us) = lstm;
    (fast ? c.fast_elm_5cu_us : c.cycle_elm_5cu_us) = elm;
  }

  // --- ml: one host-side member step (LSTM) ---
  {
    Spans::Scope scope(spans, "ml.replay_host_eval");
    auto state = models.lstm->initial_state();
    const std::uint32_t vocab = features.config().lstm_vocab;
    const std::uint64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < gpu_count; ++i) {
      models.lstm->step(state, static_cast<std::uint32_t>(i % vocab));
    }
    c.host_eval_us = elapsed_ns(t0) / 1e3 / static_cast<double>(gpu_count);
  }

  // --- core: one checkpoint and one restore of the episode ---
  {
    core::DetectionOptions o = plan.options;
    o.ensemble = core::EnsembleParams{};
    core::DetectionSession session(*plan.profile, models, plan.model,
                                   plan.engine, o);
    {
      Spans::Scope scope(spans, "core.replay_advance");
      while (session.now() < kCheckpointAtPs &&
             session.advance(2 * sim::kPsPerMs)) {
      }
    }
    std::vector<std::uint8_t> blob;
    {
      Spans::Scope scope(spans, "core.replay_checkpoint");
      const std::uint64_t t0 = now_ns();
      blob = session.checkpoint().serialize();
      c.checkpoint_us = elapsed_ns(t0) / 1e3;
    }
    Spans::Scope scope(spans, "core.replay_restore");
    const std::uint64_t t0 = now_ns();
    try {
      auto restored = core::DetectionSession::restore(
          core::SessionCheckpoint::parse(blob), *plan.profile, models);
      const double ms = elapsed_ns(t0) / 1e6;
      const double sim_ms =
          static_cast<double>(restored->replayed_ps()) / sim::kPsPerMs;
      c.restore_ms_per_sim_ms = sim_ms > 0.0 ? ms / sim_ms : 0.0;
      c.restore_ok = restored->now() == session.now() &&
                     restored->inferences() == session.inferences() && sim_ms > 0.0;
    } catch (const core::CheckpointError&) {
      c.restore_ok = false;
    }
  }
  return c;
}

void put_replay_metrics(const ReplayCosts& c, Metrics& m) {
  m.set("workloads.ns_per_event", c.gen_ns_per_event, "ns");
  m.set("trace.pft.encode_ns_per_event", c.pft_encode_ns_per_event, "ns");
  m.set("trace.pft.decode_ns_per_byte", c.pft_decode_ns_per_byte, "ns");
  m.set("trace.pft.bytes_per_branch", c.pft_bytes_per_branch, "bytes");
  m.set("trace.etrace.encode_ns_per_event", c.etrace_encode_ns_per_event, "ns");
  m.set("trace.etrace.decode_ns_per_byte", c.etrace_decode_ns_per_byte, "ns");
  m.set("trace.etrace.bytes_per_branch", c.etrace_bytes_per_branch, "bytes");
  m.set("igm.ivg_ns_per_branch", c.ivg_ns_per_branch, "ns");
  m.set("gpgpu.fast.us_per_inference.lstm_1cu", c.fast_lstm_1cu_us, "us");
  m.set("gpgpu.fast.us_per_inference.elm_5cu", c.fast_elm_5cu_us, "us");
  m.set("gpgpu.cycle.us_per_inference.lstm_1cu", c.cycle_lstm_1cu_us, "us");
  m.set("gpgpu.cycle.us_per_inference.elm_5cu", c.cycle_elm_5cu_us, "us");
  m.set("core.checkpoint_us", c.checkpoint_us, "us");
  m.set("core.restore_ms_per_sim_ms", c.restore_ms_per_sim_ms, "ms/ms");
  m.set("ml.host_eval_us", c.host_eval_us, "us");
}

}  // namespace perfbench
