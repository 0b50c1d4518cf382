// Checkpoint/restore suite for streaming detection sessions.
//
// The headline contract: a session restored from a checkpoint blob is
// byte-identical to the original for the rest of its life — same verdicts,
// same score digest, same simulated time, same rtad.metrics.v1 export —
// under every scheduler kernel × GPU backend × trace protocol combination,
// with SoC fault streams straddling the boundary, and even when the blob is
// replayed under a *different* scheduler kernel than the one it was taken
// under (state at a run-API boundary is scheduler-invariant).
//
// Plus the blob format negatives (truncation, corruption, tampering) and
// the session lifecycle negatives (advance() after done, result() twice).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "rtad/core/detection_session.hpp"
#include "rtad/core/experiment_runner.hpp"
#include "rtad/core/session_checkpoint.hpp"

namespace rtad::core {
namespace {

workloads::SpecProfile fast_profile(const std::string& name) {
  auto p = workloads::find_profile(name);
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

std::shared_ptr<TrainedModelCache> shared_cache() {
  static const auto cache = std::make_shared<TrainedModelCache>(
      fast_training(),
      [](const std::string& name) { return fast_profile(name); });
  return cache;
}

/// Every deterministic DetectionResult field (same exclusion of the
/// sim.skipped* diagnostics the serve suite makes — chunk/replay
/// boundaries regroup event-kernel skips without moving any result).
void expect_identical(const DetectionResult& a, const DetectionResult& b) {
  EXPECT_EQ(a.benchmark, b.benchmark);
  EXPECT_EQ(a.attacks, b.attacks);
  EXPECT_EQ(a.detections, b.detections);
  EXPECT_EQ(a.mean_latency_us, b.mean_latency_us);
  EXPECT_EQ(a.min_latency_us, b.min_latency_us);
  EXPECT_EQ(a.max_latency_us, b.max_latency_us);
  EXPECT_EQ(a.fifo_drops, b.fifo_drops);
  EXPECT_EQ(a.false_positives, b.false_positives);
  EXPECT_EQ(a.inferences, b.inferences);
  EXPECT_EQ(a.score_digest, b.score_digest);
  EXPECT_EQ(a.simulated_ps, b.simulated_ps);
  EXPECT_EQ(a.trace_bytes_corrupted, b.trace_bytes_corrupted);
  EXPECT_EQ(a.decode_bad_packets, b.decode_bad_packets);
  EXPECT_EQ(a.decode_resyncs, b.decode_resyncs);
  EXPECT_EQ(a.ta_dropped_branches, b.ta_dropped_branches);
  EXPECT_EQ(a.mcm_recoveries, b.mcm_recoveries);
  EXPECT_EQ(a.mcm_stalls_injected, b.mcm_stalls_injected);
  EXPECT_EQ(a.irqs_lost, b.irqs_lost);
  EXPECT_EQ(a.bus_errors, b.bus_errors);
  EXPECT_EQ(a.bus_fault_cycles, b.bus_fault_cycles);
  EXPECT_EQ(a.fault_events, b.fault_events);
}

DetectionOptions session_options() {
  DetectionOptions opt;
  opt.attacks = 1;
  opt.seed = 23;
  opt.trace_path.clear();
  opt.metrics_path.clear();
  opt.faults.reset();
  return opt;
}

std::unique_ptr<DetectionSession> make_session(const DetectionOptions& opt) {
  auto cache = shared_cache();
  return std::make_unique<DetectionSession>(
      cache->profile("astar"), cache->get("astar"), ModelKind::kLstm,
      EngineKind::kMlMiaow, opt);
}

/// Advance to a mid-episode boundary: past warm-up, before completion
/// (clean fast-profile episodes run ~11 simulated ms; faulty ones longer).
void advance_to_mid(DetectionSession& session) {
  constexpr sim::Picoseconds kChunk = sim::kPsPerMs;
  while (!session.done() && session.now() < 4 * sim::kPsPerMs) {
    session.advance(kChunk);
  }
  ASSERT_FALSE(session.done()) << "episode finished before mid-point";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// FNV-1a matching the blob's trailing digest — used to *repair* the digest
// after deliberate tampering, so the negatives below reach the layer they
// target instead of tripping the digest check first.
std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

void repair_digest(std::vector<std::uint8_t>& blob) {
  const std::uint64_t d = fnv1a(blob.data(), blob.size() - 8);
  for (int s = 0; s < 64; s += 8) {
    blob[blob.size() - 8 + static_cast<std::size_t>(s / 8)] =
        static_cast<std::uint8_t>(d >> s);
  }
}

TEST(SessionCheckpoint, BlobRoundTripsEveryField) {
  auto opt = session_options();
  opt.burst_events = 24;
  opt.cycle_accounts = true;
  opt.metrics_path = "ckpt_roundtrip_metrics.json";
  fault::FaultPlan plan;
  plan.set_rate(fault::FaultSite::kTraceBitFlip, 0.01);
  plan.serve.shard_crash = 0.5;
  plan.serve.max_events = 7;
  plan.seed = 0xBEEF;
  opt.faults = plan;

  auto session = make_session(opt);
  advance_to_mid(*session);
  const SessionCheckpoint ckpt = session->checkpoint();
  EXPECT_GT(ckpt.progress_ps, 0u);
  EXPECT_GT(ckpt.inferences, 0u);
  EXPECT_FALSE(ckpt.done);

  const auto blob = ckpt.serialize();
  // O(100 bytes): blobs park sessions, they do not serialize SoCs.
  EXPECT_LT(blob.size(), 600u);
  const SessionCheckpoint back = SessionCheckpoint::parse(blob);
  EXPECT_EQ(back.benchmark, ckpt.benchmark);
  EXPECT_EQ(back.model, ckpt.model);
  EXPECT_EQ(back.engine, ckpt.engine);
  EXPECT_EQ(back.options.attacks, ckpt.options.attacks);
  EXPECT_EQ(back.options.burst_events, 24u);
  EXPECT_EQ(back.options.seed, ckpt.options.seed);
  EXPECT_EQ(back.options.sched, ckpt.options.sched);
  EXPECT_EQ(back.options.backend, ckpt.options.backend);
  EXPECT_EQ(back.options.proto, ckpt.options.proto);
  EXPECT_TRUE(back.options.cycle_accounts);
  EXPECT_EQ(back.options.metrics_path, "ckpt_roundtrip_metrics.json");
  ASSERT_TRUE(back.options.faults.has_value());
  EXPECT_EQ(back.options.faults->rate(fault::FaultSite::kTraceBitFlip), 0.01);
  EXPECT_EQ(back.options.faults->serve.shard_crash, 0.5);
  EXPECT_EQ(back.options.faults->serve.max_events, 7u);
  EXPECT_EQ(back.options.faults->seed, 0xBEEFu);
  EXPECT_EQ(back.progress_ps, ckpt.progress_ps);
  EXPECT_EQ(back.score_digest, ckpt.score_digest);
  EXPECT_EQ(back.anomaly_flags, ckpt.anomaly_flags);
  EXPECT_EQ(back.inferences, ckpt.inferences);
  EXPECT_EQ(back.irqs_fired, ckpt.irqs_fired);
  EXPECT_EQ(back.attacks_completed, ckpt.attacks_completed);
  EXPECT_EQ(back.false_positives, ckpt.false_positives);
  EXPECT_EQ(back.phase, ckpt.phase);
  EXPECT_EQ(back.done, ckpt.done);

  // Same boundary, same bytes: the encoding itself is deterministic.
  EXPECT_EQ(blob, session->checkpoint().serialize());
}

TEST(SessionCheckpoint, ParseRejectsCorruptBlobs) {
  auto session = make_session(session_options());
  const auto blob = session->checkpoint().serialize();

  // Truncation, at the header and mid-blob.
  EXPECT_THROW(SessionCheckpoint::parse(blob.data(), 3), CheckpointError);
  EXPECT_THROW(SessionCheckpoint::parse(blob.data(), blob.size() - 5),
               CheckpointError);

  // Any flipped byte trips the digest.
  for (const std::size_t at : {std::size_t{0}, blob.size() / 2}) {
    auto bad = blob;
    bad[at] ^= 0x40;
    EXPECT_THROW(SessionCheckpoint::parse(bad), CheckpointError) << at;
  }

  // A wrong magic with a *valid* digest still parses as garbage — the
  // version gate rejects it even when the bytes are internally consistent.
  {
    auto bad = blob;
    bad[0] ^= 0x01;
    repair_digest(bad);
    EXPECT_THROW(SessionCheckpoint::parse(bad), CheckpointError);
  }

  // Trailing bytes (with a repaired digest) are a framing error.
  {
    auto bad = blob;
    bad.insert(bad.end() - 8, std::uint8_t{0});
    repair_digest(bad);
    EXPECT_THROW(SessionCheckpoint::parse(bad), CheckpointError);
  }

  // The pristine blob still parses after all that.
  EXPECT_NO_THROW(SessionCheckpoint::parse(blob));
}

TEST(SessionCheckpoint, ParseNamesOutOfRangeFields) {
  auto session = make_session(session_options());
  const SessionCheckpoint ckpt = session->checkpoint();
  const auto blob = ckpt.serialize();

  // Offsets in the layout serialize() writes: magic, length-prefixed
  // benchmark, model, engine, then 44 bytes of numeric options before the
  // sched/backend/proto bytes. The ensemble quorum is the second u32 of
  // the 32-byte ensemble shape that precedes the 58-byte progress block
  // and the 36 bytes of ensemble cursors.
  const std::size_t kinds = 8 + 4 + ckpt.benchmark.size();
  const std::size_t quorum = blob.size() - 8 - (4 + 4 * 8) - (7 * 8 + 2) -
                             (2 * 4 + 3 * 8) + 4;
  struct Case {
    const char* field;
    std::size_t at;
    std::uint8_t was;
    std::uint8_t value;
  };
  const Case cases[] = {
      {"model", kinds, static_cast<std::uint8_t>(ckpt.model), 7},
      {"engine", kinds + 1, static_cast<std::uint8_t>(ckpt.engine), 2},
      {"options.sched", kinds + 46,
       static_cast<std::uint8_t>(ckpt.options.sched), 2},
      {"options.backend", kinds + 47,
       static_cast<std::uint8_t>(ckpt.options.backend), 2},
      {"options.proto", kinds + 48,
       static_cast<std::uint8_t>(ckpt.options.proto), 2},
      // size 1, quorum 2: the combination EnsembleParams::from_env refuses.
      {"ensemble.quorum", quorum, 0, 2},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.field);
    ASSERT_EQ(blob[c.at], c.was) << "offset table out of date";
    auto bad = blob;
    bad[c.at] = c.value;
    repair_digest(bad);
    try {
      SessionCheckpoint::parse(bad);
      ADD_FAILURE() << c.field << " " << int{c.value} << " parsed";
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << e.what();
    }
  }
}

TEST(SessionCheckpoint, RestoreRejectsTamperedCursorsAndWrongProfile) {
  auto cache = shared_cache();
  auto session = make_session(session_options());
  advance_to_mid(*session);
  SessionCheckpoint ckpt = session->checkpoint();

  // A tampered progress cursor survives re-serialization (fresh digest)
  // but the replay cross-check refuses to hand back a diverged session.
  {
    SessionCheckpoint bad = SessionCheckpoint::parse(ckpt.serialize());
    bad.score_digest ^= 1;
    EXPECT_THROW(DetectionSession::restore(bad, cache->profile("astar"),
                                           cache->get("astar")),
                 CheckpointError);
  }
  {
    SessionCheckpoint bad = ckpt;
    bad.inferences += 1;
    EXPECT_THROW(DetectionSession::restore(bad, cache->profile("astar"),
                                           cache->get("astar")),
                 CheckpointError);
  }

  // Wrong profile for the blob: refused by name before any replay (astar
  // models ride along untouched — the name gate fires first).
  EXPECT_THROW(DetectionSession::restore(ckpt, cache->profile("bzip2"),
                                         cache->get("astar")),
               CheckpointError);
}

TEST(SessionLifecycle, MisuseRaisesNamedErrors) {
  auto session = make_session(session_options());

  // Harvesting before completion is a lifecycle error.
  EXPECT_THROW(session->result(), SessionLifecycleError);

  session->run_to_completion();
  EXPECT_TRUE(session->done());
  // Idempotent: finishing a finished session is a no-op...
  EXPECT_NO_THROW(session->run_to_completion());
  // ...but advancing one is a caller bug (the SoC was harvested).
  EXPECT_THROW(session->advance(sim::kPsPerMs), SessionLifecycleError);

  // The result is a one-shot handoff.
  EXPECT_NO_THROW(session->result());
  EXPECT_THROW(session->result(), SessionLifecycleError);
}

TEST(SessionCheckpoint, RestoreByteIdenticalAcrossSchedBackendProtoMatrix) {
  auto cache = shared_cache();
  for (const auto sched :
       {sim::SchedMode::kDense, sim::SchedMode::kEventDriven}) {
    for (const auto backend :
         {gpgpu::GpuBackend::kCycle, gpgpu::GpuBackend::kFast}) {
      for (const auto proto :
           {trace::TraceProtocol::kPft, trace::TraceProtocol::kEtrace}) {
        SCOPED_TRACE(std::string(sched == sim::SchedMode::kDense ? "dense"
                                                                 : "event") +
                     "/" +
                     (backend == gpgpu::GpuBackend::kCycle ? "cycle"
                                                           : "fast") +
                     "/" +
                     (proto == trace::TraceProtocol::kPft ? "pft" : "etrace"));
        auto opt = session_options();
        opt.sched = sched;
        opt.backend = backend;
        opt.proto = proto;

        // Original: run to a mid-episode boundary, snapshot, keep going —
        // with a metrics export so the comparison covers the full
        // rtad.metrics.v1 surface, not just the result struct.
        const std::string path_a = "ckpt_matrix_a.json";
        const std::string path_b = "ckpt_matrix_b.json";
        auto original_opt = opt;
        original_opt.metrics_path = path_a;
        auto original = make_session(original_opt);
        advance_to_mid(*original);
        SessionCheckpoint ckpt = original->checkpoint();
        original->run_to_completion();

        // Restored twin: same blob, metrics to its own file.
        ckpt = SessionCheckpoint::parse(ckpt.serialize());
        ckpt.options.metrics_path = path_b;
        auto restored = DetectionSession::restore(ckpt, cache->profile("astar"),
                                                  cache->get("astar"));
        EXPECT_EQ(restored->now(), ckpt.progress_ps);
        EXPECT_EQ(restored->replayed_ps(), ckpt.progress_ps);
        EXPECT_FALSE(restored->done());
        restored->run_to_completion();

        expect_identical(restored->result(), original->result());
        const std::string a = slurp(path_a);
        const std::string b = slurp(path_b);
        EXPECT_FALSE(a.empty());
        EXPECT_EQ(a, b) << "metrics export diverged after restore";
        std::remove(path_a.c_str());
        std::remove(path_b.c_str());
      }
    }
  }
}

TEST(SessionCheckpoint, RestoreUnderFaultsStraddlingTheBoundary) {
  // SoC fault streams are per-datum, so replay re-fires the identical
  // fault sequence even when fires land on both sides of the checkpoint.
  auto opt = session_options();
  fault::FaultPlan plan;
  plan.set_rate(fault::FaultSite::kTraceBitFlip, 0.02);
  plan.set_rate(fault::FaultSite::kBusDelay, 0.05);
  plan.set_rate(fault::FaultSite::kMcmStall, 0.01);
  plan.set_rate(fault::FaultSite::kIrqLost, 0.05);
  opt.faults = plan;

  auto cache = shared_cache();
  auto original = make_session(opt);
  advance_to_mid(*original);
  const SessionCheckpoint ckpt = original->checkpoint();
  original->run_to_completion();
  const auto& want = original->result();
  ASSERT_GT(want.fault_events, 0u) << "plan too timid — nothing fired";

  auto restored = DetectionSession::restore(
      SessionCheckpoint::parse(ckpt.serialize()), cache->profile("astar"),
      cache->get("astar"));
  restored->run_to_completion();
  expect_identical(restored->result(), want);
}

TEST(SessionCheckpoint, BlobTakenUnderOneKernelRestoresUnderTheOther) {
  // Session state at a run-API boundary is scheduler-invariant, so a dense
  // checkpoint may be replayed by the event kernel (and vice versa) and
  // still land bit-exactly on the recorded cursors.
  auto cache = shared_cache();
  const auto flipped = [](sim::SchedMode m) {
    return m == sim::SchedMode::kDense ? sim::SchedMode::kEventDriven
                                       : sim::SchedMode::kDense;
  };
  for (const auto sched :
       {sim::SchedMode::kDense, sim::SchedMode::kEventDriven}) {
    SCOPED_TRACE(sched == sim::SchedMode::kDense ? "dense->event"
                                                 : "event->dense");
    auto opt = session_options();
    opt.sched = sched;
    auto original = make_session(opt);
    advance_to_mid(*original);
    SessionCheckpoint ckpt = original->checkpoint();
    original->run_to_completion();

    ckpt.options.sched = flipped(sched);
    auto restored = DetectionSession::restore(ckpt, cache->profile("astar"),
                                              cache->get("astar"));
    restored->run_to_completion();
    expect_identical(restored->result(), original->result());
  }
}

TEST(SessionChunking, DenseAndEventAgreeAtEveryChunkSize) {
  // The host fetches each step on the previous retirement edge, which
  // turns the old fetch-only edge into a skippable one. Results, attacks
  // included, must not depend on the kernel or on where advance() splits
  // the run: one dense edge group (the 250 MHz host period), 1 us, or one
  // unchunked call.
  constexpr sim::Picoseconds kOneGroup = 4'000;
  const auto run = [](sim::SchedMode sched, sim::Picoseconds chunk) {
    auto opt = session_options();
    opt.sched = sched;
    auto session = make_session(opt);
    if (chunk == 0) {
      session->run_to_completion();
    } else {
      while (!session->done()) session->advance(chunk);
    }
    return session->result();
  };
  const DetectionResult want = run(sim::SchedMode::kDense, 0);
  EXPECT_EQ(want.attacks, 1u);
  EXPECT_GT(want.inferences, 0u);
  for (const auto sched :
       {sim::SchedMode::kDense, sim::SchedMode::kEventDriven}) {
    for (const sim::Picoseconds chunk :
         {kOneGroup, sim::kPsPerUs, sim::Picoseconds{0}}) {
      if (sched == sim::SchedMode::kDense && chunk == 0) continue;
      SCOPED_TRACE(std::string(sched == sim::SchedMode::kDense ? "dense"
                                                               : "event") +
                   " chunk " + std::to_string(chunk) + " ps");
      expect_identical(run(sched, chunk), want);
    }
  }
}

TEST(SessionCheckpoint, BoundaryCasesRoundTrip) {
  auto cache = shared_cache();

  // Before the first advance(): a zero-progress blob restores to a fresh
  // session (no replay at all).
  {
    auto session = make_session(session_options());
    const SessionCheckpoint ckpt = session->checkpoint();
    EXPECT_EQ(ckpt.progress_ps, 0u);
    auto restored = DetectionSession::restore(ckpt, cache->profile("astar"),
                                              cache->get("astar"));
    EXPECT_EQ(restored->now(), 0u);
    session->run_to_completion();
    restored->run_to_completion();
    expect_identical(restored->result(), session->result());
  }

  // After done(): the blob captures a finished episode; restore replays it
  // end-to-end and the result is immediately harvestable.
  {
    auto session = make_session(session_options());
    session->run_to_completion();
    const SessionCheckpoint ckpt = session->checkpoint();
    EXPECT_TRUE(ckpt.done);
    auto restored = DetectionSession::restore(ckpt, cache->profile("astar"),
                                              cache->get("astar"));
    EXPECT_TRUE(restored->done());
    expect_identical(restored->result(), session->result());
  }
}

TEST(SessionCheckpoint, UnknownVersionsAreNamedNotGarbage) {
  auto session = make_session(session_options());
  const auto current = session->checkpoint().serialize();
  // A well-formed RTADCKP tag from the future, and the retired v1 tag.
  for (const char version : {'9', '1'}) {
    auto blob = current;
    blob[7] = static_cast<std::uint8_t>(version);
    repair_digest(blob);
    const std::string tag = std::string("RTADCKP") + version;
    try {
      SessionCheckpoint::parse(blob);
      FAIL() << tag << ": unknown version must throw";
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown checkpoint version"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(tag), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace rtad::core
