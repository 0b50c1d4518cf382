// Rolling-ensemble suite (tier 2): shape validation, generation cache
// semantics, and the headline determinism contracts.
//
// The contracts under test:
//   1. A quorum larger than the ensemble is refused when the session's
//      Quorum is built, active or inert — no checkpoint could carry it.
//   2. Generation 0 *is* the anchor: the generation cache delegates to the
//      base TrainedModelCache without retraining anything. A later
//      generation is the base cache's entry for its drift phase — trained
//      once no matter how many sessions or generations ask, and equal to
//      the model a fresh builder at its exact snapshot instant trains.
//   3. Hot swaps land only at advance() boundaries and at the same
//      simulated instants for every chunk size, scheduler kernel and GPU
//      backend — the full DetectionResult (score digest, consensus
//      counters, swap count) is identical across the matrix.
//   4. A checkpoint taken between two swaps restores into a session that
//      finishes byte-identical to the uninterrupted run; restoring an
//      active-ensemble blob without a GenerationCache is a named error.
//   5. The serve fleet's ensemble counters are worker-count invariant.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "rtad/core/detection_session.hpp"
#include "rtad/core/experiment_runner.hpp"
#include "rtad/core/quorum.hpp"
#include "rtad/core/session_checkpoint.hpp"
#include "rtad/ml/dataset.hpp"
#include "rtad/serve/service.hpp"
#include "rtad/serve/shard.hpp"
#include "rtad/workloads/catalog.hpp"

namespace rtad {
namespace {

constexpr const char* kDriftBench = "astar-drift";
constexpr std::uint64_t kDriftPeriodUs = 2'000;

/// Short-episode profile (the checkpoint suite's trick) with a drifting
/// variant: 4 phases on a 2 ms period, syscall head rotated per phase.
workloads::SpecProfile fast_profile(const std::string& name) {
  auto p = workloads::find_profile(name == kDriftBench ? "astar" : name);
  p.syscall_interval_instrs = 40'000;
  if (name == kDriftBench) {
    p.name = kDriftBench;
    p.drift.period_us = kDriftPeriodUs;
    p.drift.phases = 4;
    p.drift.syscall_rotate = 7;
  }
  return p;
}

core::TrainingOptions fast_training() {
  core::TrainingOptions opt;
  opt.lstm_train_tokens = 400;
  opt.lstm_val_tokens = 150;
  opt.elm_train_windows = 100;
  opt.elm_val_windows = 40;
  opt.lstm.epochs = 1;
  return opt;
}

std::shared_ptr<core::TrainedModelCache> shared_cache() {
  static const auto cache = std::make_shared<core::TrainedModelCache>(
      fast_training(),
      [](const std::string& name) { return fast_profile(name); });
  return cache;
}

/// Ensemble of 3 staggered generations rolling every drift period, full
/// quorum — the geometry the drift bench gates on, scaled down.
core::EnsembleParams test_params() {
  core::EnsembleParams ep;
  ep.size = 3;
  ep.quorum = 0;
  ep.retrain_ps = sim::Picoseconds{kDriftPeriodUs} * sim::kPsPerUs;
  return ep;
}

core::DetectionOptions session_options() {
  core::DetectionOptions opt;
  opt.attacks = 2;
  opt.seed = 23;
  opt.trace_path.clear();
  opt.metrics_path.clear();
  opt.faults.reset();
  return opt;
}

void expect_identical(const core::DetectionResult& a,
                      const core::DetectionResult& b) {
  EXPECT_EQ(a.detections, b.detections);
  EXPECT_EQ(a.false_positives, b.false_positives);
  EXPECT_EQ(a.inferences, b.inferences);
  EXPECT_EQ(a.score_digest, b.score_digest);
  EXPECT_EQ(a.simulated_ps, b.simulated_ps);
  EXPECT_EQ(a.ensemble_size, b.ensemble_size);
  EXPECT_EQ(a.ensemble_swaps, b.ensemble_swaps);
  EXPECT_EQ(a.consensus_flags, b.consensus_flags);
  EXPECT_EQ(a.consensus_overrides, b.consensus_overrides);
  EXPECT_EQ(a.member_evals, b.member_evals);
}

TEST(EnsembleShape, QuorumAboveSizeIsRefusedInertOrActive) {
  core::EnsembleParams ep;
  ep.size = 1;
  ep.quorum = 2;
  const core::TrainedModels anchor;
  core::GenerationCache generations(shared_cache(), ep);
  for (const sim::Picoseconds cadence :
       {sim::Picoseconds{0}, kDriftPeriodUs * sim::kPsPerUs}) {
    ep.retrain_ps = cadence;
    SCOPED_TRACE(ep.active() ? "active" : "inert");
    try {
      core::Quorum(ep, core::ModelKind::kElm, kDriftBench, anchor,
                   &generations);
      ADD_FAILURE() << "size 1, quorum 2 accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("ensemble.quorum"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(EnsembleSchedule, MembershipIsAPureFunctionOfSimulatedTime) {
  core::EnsembleParams p = test_params();
  const sim::Picoseconds cadence = p.retrain_ps;
  EXPECT_EQ(p.generation_at(0), 0u);
  EXPECT_EQ(p.generation_at(cadence - 1), 0u);
  EXPECT_EQ(p.generation_at(cadence), 1u);
  EXPECT_EQ(p.generation_at(5 * cadence + 1), 5u);

  // A fleet-time origin shifts the whole schedule: a session admitted at
  // T0 sees the generations the fleet clock says are live, not its own.
  p.base_ps = 3 * cadence;
  EXPECT_EQ(p.generation_at(0), 3u);
  EXPECT_EQ(p.generation_at(cadence), 4u);

  // Training snapshots trail activation by the window, clamped at 0.
  p.base_ps = 0;
  EXPECT_EQ(p.training_snapshot_ps(0), 0u);
  EXPECT_EQ(p.training_snapshot_ps(1), 0u);  // activation == window
  EXPECT_EQ(p.training_snapshot_ps(4), 3 * cadence);
  p.window_ps = cadence / 2;
  EXPECT_EQ(p.training_snapshot_ps(4), 4 * cadence - cadence / 2);
}

TEST(GenerationCache, AnchorDelegatesAndGenerationsTrainOnce) {
  auto base = shared_cache();
  core::GenerationCache cache(base, test_params());

  // Generation 0 is the anchor entry itself — same object, no retrain.
  const core::TrainedModels& anchor =
      cache.get(kDriftBench, core::ModelKind::kElm, 0);
  EXPECT_EQ(&anchor, &base->get(kDriftBench));
  EXPECT_EQ(cache.generations_trained(), 0u);

  // Generation 1 snapshots phase 0, so it *is* the anchor; the census still
  // counts it as a scheduled generation.
  EXPECT_EQ(&cache.get(kDriftBench, core::ModelKind::kElm, 1), &anchor);
  EXPECT_EQ(cache.generations_trained(), 1u);

  // Generation 2 (phase 1) trains once (ELM side only) no matter who asks.
  const std::size_t before = base->trainings();
  const core::TrainedModels& g2 =
      cache.get(kDriftBench, core::ModelKind::kElm, 2);
  const std::size_t trained = base->trainings();
  EXPECT_LE(trained, before + 1);
  EXPECT_EQ(cache.generations_trained(), 2u);
  EXPECT_GT(cache.retrain_work_units(), 0u);
  EXPECT_EQ(&cache.get(kDriftBench, core::ModelKind::kElm, 2), &g2);
  EXPECT_EQ(cache.generations_trained(), 2u);
  EXPECT_NE(&g2, &anchor);
  EXPECT_EQ(g2.lstm, nullptr);

  // Generation 6 snapshots phase 1 again: generation 2's model, untrained.
  EXPECT_EQ(&cache.get(kDriftBench, core::ModelKind::kElm, 6), &g2);
  EXPECT_EQ(cache.generations_trained(), 3u);
  EXPECT_EQ(base->trainings(), trained);
}

TEST(GenerationCache, SamePhaseSameWeights) {
  // The phase key is sound only if a generation trained on its own — a
  // fresh builder frozen at its exact snapshot instant — equals the entry
  // of its drift phase bit for bit.
  auto base = shared_cache();
  const core::EnsembleParams params = test_params();
  core::GenerationCache cache(base, params);
  const auto profile = base->profile(kDriftBench);
  const core::TrainedModels& anchor = base->get(kDriftBench);
  const auto threshold = [](const core::TrainedModels& m,
                            core::ModelKind kind) {
    return kind == core::ModelKind::kElm ? m.elm_threshold.value()
                                         : m.lstm_threshold.value();
  };
  for (const auto kind : {core::ModelKind::kLstm, core::ModelKind::kElm}) {
    for (std::uint32_t gen = 1; gen <= 6; ++gen) {
      SCOPED_TRACE(std::string(core::to_string(kind)) + " generation " +
                   std::to_string(gen));
      const sim::Picoseconds at = params.training_snapshot_ps(gen);
      core::TrainedModels want;
      want.features = std::make_unique<ml::DatasetBuilder>(
          profile, base->options().seed, ml::FeatureConfig{}, at);
      core::train_model_side(want, kind, base->options());

      const core::TrainedModels& got = cache.get(kDriftBench, kind, gen);
      EXPECT_EQ(got.image(kind).init_blocks, want.image(kind).init_blocks);
      EXPECT_EQ(threshold(got, kind), threshold(want, kind));
      if (profile.drift.phase_at_ps(at) == 0) {
        EXPECT_EQ(&got, &anchor);
      }
    }
  }
}

TEST(TrainedModelCache, AliasesOfOneProfileTrainOnce) {
  // Entries key on the resolved profile name, not the string asked for.
  core::TrainedModelCache cache(fast_training(), [](const std::string& name) {
    return fast_profile(name);
  });
  const core::TrainedModels& by_alias = cache.get("astar");
  EXPECT_EQ(&cache.get("473.astar"), &by_alias);
  EXPECT_EQ(cache.trainings(), 1u);
}

std::unique_ptr<core::DetectionSession> make_ensemble_session(
    core::GenerationCache& mgr, const core::DetectionOptions& base_opts) {
  auto cache = shared_cache();
  core::DetectionOptions opts = base_opts;
  opts.ensemble = mgr.params();
  return std::make_unique<core::DetectionSession>(
      cache->profile(kDriftBench), cache->get(kDriftBench),
      core::ModelKind::kElm, core::EngineKind::kMlMiaow, opts, &mgr);
}

TEST(EnsembleDeterminism, SwapsLandIdenticallyForEveryChunkKernelAndBackend) {
  auto cache = shared_cache();

  struct Variant {
    const char* label;
    sim::SchedMode sched;
    gpgpu::GpuBackend backend;
    sim::Picoseconds chunk;  ///< 0 = run_to_completion
  };
  const Variant variants[] = {
      {"dense/cycle/700us", sim::SchedMode::kDense,
       gpgpu::GpuBackend::kCycle, 700 * sim::kPsPerUs},
      {"dense/cycle/3ms", sim::SchedMode::kDense, gpgpu::GpuBackend::kCycle,
       3 * sim::kPsPerMs},
      {"dense/cycle/oneshot", sim::SchedMode::kDense,
       gpgpu::GpuBackend::kCycle, 0},
      {"event/cycle/700us", sim::SchedMode::kEventDriven,
       gpgpu::GpuBackend::kCycle, 700 * sim::kPsPerUs},
      {"dense/fast/700us", sim::SchedMode::kDense, gpgpu::GpuBackend::kFast,
       700 * sim::kPsPerUs},
      {"event/fast/3ms", sim::SchedMode::kEventDriven, gpgpu::GpuBackend::kFast,
       3 * sim::kPsPerMs},
  };

  std::vector<core::DetectionResult> results;
  for (const Variant& v : variants) {
    core::GenerationCache mgr(cache, test_params());
    core::DetectionOptions opts = session_options();
    opts.sched = v.sched;
    opts.backend = v.backend;
    auto session = make_ensemble_session(mgr, opts);
    if (v.chunk == 0) {
      session->run_to_completion();
    } else {
      while (session->advance(v.chunk)) {
      }
    }
    results.push_back(session->result());
  }

  // The episode must actually cross swap boundaries with all members live,
  // or the matrix proves nothing.
  EXPECT_GE(results[0].ensemble_swaps, 2u) << "episode too short to swap";
  EXPECT_EQ(results[0].ensemble_size, 3u);
  EXPECT_GT(results[0].member_evals, results[0].inferences);
  for (std::size_t i = 1; i < std::size(results); ++i) {
    SCOPED_TRACE(variants[i].label);
    expect_identical(results[0], results[i]);
  }
}

TEST(EnsembleCheckpoint, RestoreStraddlesASwapBoundary) {
  auto cache = shared_cache();
  const auto params = test_params();

  core::GenerationCache straight_mgr(cache, params);
  auto straight = make_ensemble_session(straight_mgr, session_options());
  while (straight->advance(900 * sim::kPsPerUs)) {
  }
  const core::DetectionResult want = straight->result();

  // Park between the second and third swap (not on a boundary), round-trip
  // the blob through bytes, restore against a *fresh* manager (cold
  // generation cache — restore retrains what it needs) and finish.
  core::GenerationCache park_mgr(cache, params);
  auto parked = make_ensemble_session(park_mgr, session_options());
  const sim::Picoseconds park_at =
      2 * params.retrain_ps + params.retrain_ps / 2;
  while (!parked->done() && parked->now() < park_at) {
    parked->advance(900 * sim::kPsPerUs);
  }
  ASSERT_FALSE(parked->done()) << "episode finished before the swap window";
  const auto blob = parked->checkpoint().serialize();
  const core::SessionCheckpoint ckpt = core::SessionCheckpoint::parse(blob);
  ASSERT_TRUE(ckpt.options.ensemble.active());
  EXPECT_EQ(ckpt.ensemble_generation, 2u);
  EXPECT_EQ(ckpt.ensemble_swaps, 2u);

  core::GenerationCache resume_mgr(cache, params);
  auto resumed = core::DetectionSession::restore(
      ckpt, cache->profile(kDriftBench), cache->get(kDriftBench), &resume_mgr);
  while (resumed->advance(900 * sim::kPsPerUs)) {
  }
  expect_identical(want, resumed->result());

  // An active-ensemble blob without a source is a named restore error, and
  // a session constructed with active options but no source is a misuse.
  EXPECT_THROW(core::DetectionSession::restore(ckpt,
                                               cache->profile(kDriftBench),
                                               cache->get(kDriftBench)),
               core::CheckpointError);
  core::DetectionOptions opts = session_options();
  opts.ensemble = params;
  EXPECT_THROW(core::DetectionSession(cache->profile(kDriftBench),
                                      cache->get(kDriftBench),
                                      core::ModelKind::kElm,
                                      core::EngineKind::kMlMiaow, opts),
               std::invalid_argument);
}

TEST(EnsembleCheckpoint, RestoreNamesEveryTamperedEnsembleCursor) {
  auto cache = shared_cache();
  const auto params = test_params();
  core::GenerationCache mgr(cache, params);
  auto parked = make_ensemble_session(mgr, session_options());
  const sim::Picoseconds park_at =
      2 * params.retrain_ps + params.retrain_ps / 2;
  while (!parked->done() && parked->now() < park_at) {
    parked->advance(900 * sim::kPsPerUs);
  }
  ASSERT_FALSE(parked->done()) << "episode finished before the swap window";
  const core::SessionCheckpoint ckpt = parked->checkpoint();
  ASSERT_GT(ckpt.ensemble_swaps, 0u);
  ASSERT_GT(ckpt.member_evals, 0u);

  // Each cursor bumped alone, re-serialized under a fresh digest: the
  // replay reproduces the original cursors, so restore must refuse and
  // name the one that was tampered with.
  using Bump = void (*)(core::SessionCheckpoint&);
  const std::pair<const char*, Bump> cases[] = {
      {"ensemble_generation",
       [](core::SessionCheckpoint& c) { ++c.ensemble_generation; }},
      {"ensemble_swaps",
       [](core::SessionCheckpoint& c) { ++c.ensemble_swaps; }},
      {"consensus_flags",
       [](core::SessionCheckpoint& c) { ++c.consensus_flags; }},
      {"consensus_overrides",
       [](core::SessionCheckpoint& c) { ++c.consensus_overrides; }},
      {"member_evals", [](core::SessionCheckpoint& c) { ++c.member_evals; }},
  };
  for (const auto& [cursor, bump] : cases) {
    SCOPED_TRACE(cursor);
    core::SessionCheckpoint bad = ckpt;
    bump(bad);
    bad = core::SessionCheckpoint::parse(bad.serialize());
    try {
      core::DetectionSession::restore(bad, cache->profile(kDriftBench),
                                      cache->get(kDriftBench), &mgr);
      ADD_FAILURE() << "tampered " << cursor << " restored";
    } catch (const core::CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find(cursor), std::string::npos)
          << e.what();
    }
  }
}

serve::ServiceReport run_fleet(std::size_t jobs) {
  if (setenv("RTAD_JOBS", std::to_string(jobs).c_str(), 1) != 0) {
    throw std::runtime_error("setenv(RTAD_JOBS) failed");
  }
  serve::ServiceConfig cfg;
  cfg.shards = 2;
  cfg.lanes = 2;
  cfg.ensemble = test_params();
  serve::Service service(cfg, shared_cache());
  std::vector<serve::SessionRequest> reqs;
  for (std::size_t i = 0; i < 4; ++i) {
    serve::SessionRequest req;
    req.tenant = "tenant-" + std::to_string(i);
    req.cls = serve::TenantClass::kBatch;
    req.benchmark = kDriftBench;
    req.model = core::ModelKind::kElm;
    req.engine = core::EngineKind::kMlMiaow;
    req.arrival_ps = static_cast<sim::Picoseconds>(i) * sim::kPsPerMs;
    req.seed = 31 + 7 * i;
    req.attacks = 1;
    reqs.push_back(std::move(req));
  }
  return service.run(reqs);
}

TEST(EnsembleServe, FleetCountersAreWorkerCountInvariant) {
  const serve::ServiceReport one = run_fleet(1);
  const serve::ServiceReport four = run_fleet(4);
  ASSERT_EQ(unsetenv("RTAD_JOBS"), 0);

  EXPECT_EQ(one.sessions_completed, 4u);
  EXPECT_GT(one.ensemble_swaps, 0u);
  EXPECT_GT(one.generations_trained, 0u);
  EXPECT_GT(one.member_evals, 0u);

  EXPECT_EQ(four.sessions_completed, one.sessions_completed);
  EXPECT_EQ(four.ensemble_swaps, one.ensemble_swaps);
  EXPECT_EQ(four.consensus_flags, one.consensus_flags);
  EXPECT_EQ(four.consensus_overrides, one.consensus_overrides);
  EXPECT_EQ(four.member_evals, one.member_evals);
  EXPECT_EQ(four.generations_trained, one.generations_trained);
  EXPECT_EQ(four.retrain_work_units, one.retrain_work_units);
}

TEST(EnsembleServe, ShardRefusesActiveEnsembleWithoutManager) {
  serve::ServiceConfig cfg;
  cfg.ensemble = test_params();
  EXPECT_THROW(serve::Shard(0, cfg, shared_cache(), nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace rtad
