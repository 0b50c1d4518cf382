// fleet_storm — a seeded open-loop arrival schedule served by the fleet
// (serve::Service) under a crash / wedge / brownout storm.
//
// Tenants mix interactive LSTM and batch ELM sessions on ML-MIAOW (5 CUs),
// PFT and E-Trace hosts side by side (FleetProtocol::kMixed), on the
// drifting astar variant with a rolling ensemble of 3 that retrains during
// the run. The schedule is open in simulated time and offered at kLoad of
// the fleet's calibrated capacity. The host side is a closed loop of one
// batch: one Service::run over the whole schedule, repeated kBatches times
// on fresh services so the reported rates are medians and every repeat must
// reproduce the first bit for bit. Checkpoints every kCheckpointEvery
// quanta, so restores replay real simulated time. The schedule length
// scales with --seconds (a fixed number of sessions per second, calibrated
// on a 4-vCPU x86 host), so the simulated outputs depend on the seed and
// --seconds only.
#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "bench.hpp"
#include "replay.hpp"
#include "rtad/core/experiment_runner.hpp"
#include "rtad/serve/service.hpp"
#include "rtad/sim/rng.hpp"

namespace perfbench {

using namespace rtad;

namespace {

constexpr const char* kBase = "astar";
constexpr const char* kDrift = "astar-drift";
/// Drift geometry of the ensemble_drift bench: the syscall ranking rotates
/// every 5 ms through 4 phases.
constexpr std::uint64_t kDriftPeriodUs = 5'000;
constexpr std::uint32_t kDriftPhases = 4;
constexpr std::uint32_t kSyscallRotate = 7;
constexpr sim::Picoseconds kRetrainPs = 20 * sim::kPsPerMs;

constexpr std::size_t kShards = 4;
constexpr std::size_t kLanes = 2;
constexpr std::size_t kTenants = 4 * kShards;
/// Mean simulated length of one single-attack astar episode (measured),
/// and the offered share of the fleet's capacity it implies.
constexpr double kEpisodeSimMs = 24.0;
constexpr double kLoad = 0.8;
/// Sessions offered per --seconds of measurement.
constexpr double kSessionsPerSecond = 4.5;
/// Repeats of the batch per run; rates are the median over repeats.
constexpr std::size_t kBatches = 3;
constexpr std::uint64_t kCheckpointEvery = 2;
constexpr std::size_t kSetups = 3;
/// Episode seeds are per ticket, not per workload seed: the seed moves the
/// arrival schedule (and with it queueing, crashes and restores) over the
/// same episodes, so the fleet's work per run stays comparable.
constexpr std::uint64_t kSessionSeedBase = 0x5E55;

core::TrainingOptions reduced_training() {
  core::TrainingOptions t;
  t.lstm_train_tokens = 400;
  t.lstm_val_tokens = 150;
  t.elm_train_windows = 100;
  t.elm_val_windows = 40;
  t.lstm.epochs = 1;
  return t;
}

workloads::SpecProfile resolve(const std::string& name) {
  workloads::SpecProfile p = workloads::find_profile(name == kDrift ? kBase : name);
  if (name == kDrift) {
    p.name = kDrift;
    p.drift.period_us = kDriftPeriodUs;
    p.drift.phases = kDriftPhases;
    p.drift.syscall_rotate = kSyscallRotate;
  }
  return p;
}

fault::ServeFaultPlan storm_plan(sim::Picoseconds horizon_ps) {
  fault::ServeFaultPlan plan;
  plan.shard_crash = 0.9;
  plan.lane_wedge = 0.45;
  plan.brownout = 0.2;
  plan.crash_epoch_us = 6'000;
  plan.crash_downtime_us = 2'000;
  plan.wedge_us = 3'000;
  plan.brownout_us = 1'500;
  plan.horizon_us = std::max<std::uint64_t>(1, horizon_ps / sim::kPsPerUs);
  plan.max_events = 3;
  return plan;
}

serve::ServiceConfig pinned_service_config(sim::Picoseconds horizon_ps) {
  serve::ServiceConfig c;
  c.shards = kShards;
  c.lanes = kLanes;
  c.queue_capacity = 8;
  c.policy = serve::OverloadPolicy::kShed;
  c.quantum_ps = 2 * sim::kPsPerMs;
  c.proto = serve::FleetProtocol::kMixed;
  c.detection = pinned_detection_options();
  c.detection.attacks = 1;
  c.serve_faults = storm_plan(horizon_ps);
  c.fault_seed = 0xFA017;
  c.retry_budget = 6;
  c.retry_base_us = 500;
  c.checkpoint_every = kCheckpointEvery;
  c.checkpoint_cap_kb = 0;
  c.rebalance_gap_ps = 40'000 * sim::kPsPerUs;
  c.migrate_ps = 200 * sim::kPsPerUs;
  c.telemetry = telemetry::StoreConfig{};
  c.ensemble.size = 3;
  c.ensemble.quorum = 0;
  c.ensemble.retrain_ps = kRetrainPs;
  c.ensemble.window_ps = 0;
  return c;
}

/// Tenant `t`'s name: the first "tenant-<t>-<salt>" that routes to shard
/// t % kShards and whose host speaks PFT for even t / kShards, E-Trace for
/// odd. Sessions cycle through the tenants, so every shard serves the same
/// number of sessions and the same class and protocol mix: the fleet's
/// wall time then follows the work, not which shard a seed overloads.
std::string tenant_name(std::size_t t) {
  const auto proto = (t / kShards) % 2 == 0 ? trace::TraceProtocol::kPft
                                            : trace::TraceProtocol::kEtrace;
  for (std::size_t salt = 0;; ++salt) {
    std::string name = "tenant-" + std::to_string(t) + "-" + std::to_string(salt);
    if (serve::shard_for(name, kShards) == t % kShards &&
        serve::tenant_protocol(name) == proto) {
      return name;
    }
  }
}

std::vector<serve::SessionRequest> schedule(std::uint64_t seed, std::size_t sessions) {
  const double capacity = static_cast<double>(kShards * kLanes);
  const double mean_gap_ps = kEpisodeSimMs * sim::kPsPerMs / (capacity * kLoad);
  std::vector<std::string> tenants;
  for (std::size_t t = 0; t < kTenants; ++t) tenants.push_back(tenant_name(t));
  // Gaps are uniform in [0.5, 1.5) x mean, rescaled so the schedule always
  // spans sessions x mean: the seed moves arrivals, not the offered load.
  sim::Xoshiro256 rng(mix_seed(seed, 0xF1EE7));
  std::vector<double> gaps(sessions);
  double sum = 0.0;
  for (double& g : gaps) sum += (g = 0.5 + rng.uniform());
  const double scale = mean_gap_ps * static_cast<double>(sessions) / sum;
  std::vector<serve::SessionRequest> out;
  sim::Picoseconds at = 0;
  for (std::size_t i = 0; i < sessions; ++i) {
    at += std::max<sim::Picoseconds>(1, static_cast<sim::Picoseconds>(gaps[i] * scale));
    const std::size_t t = i % kTenants;
    serve::SessionRequest req;
    req.tenant = tenants[t];
    // One tenant in four (one per shard) is a batch ELM host.
    req.cls = t / kShards == 2 ? serve::TenantClass::kBatch
                               : serve::TenantClass::kInteractive;
    req.benchmark = kDrift;
    req.model = req.cls == serve::TenantClass::kBatch ? core::ModelKind::kElm
                                                      : core::ModelKind::kLstm;
    req.engine = core::EngineKind::kMlMiaow;
    req.arrival_ps = at;
    req.seed = mix_seed(kSessionSeedBase, i);
    req.attacks = 1;
    out.push_back(std::move(req));
  }
  return out;
}

/// Every simulated output of one fleet session the benchmark checks: its
/// fate in the fleet, its verdict, and its ensemble and trace counters.
std::uint64_t verdict_digest(const serve::SessionOutcome& o) {
  const core::DetectionResult& r = o.detection;
  return Digest()
      .u64(o.shed)
      .u64(o.degraded)
      .u64(o.recovered)
      .u64(o.completion_ps)
      .u64(o.sojourn_ps)
      .u64(r.score_digest)
      .u64(r.attacks)
      .u64(r.detections)
      .u64(r.false_positives)
      .u64(r.inferences)
      .u64(r.simulated_ps)
      .u64(r.fifo_drops)
      .f64(r.mean_latency_us)
      .u64(r.ensemble_swaps)
      .u64(r.consensus_flags)
      .u64(r.consensus_overrides)
      .u64(r.member_evals)
      .u64(r.trace_events_traced)
      .u64(r.trace_bytes_generated)
      .value();
}

}  // namespace

Outcome run_fleet_storm(const RunConfig& cfg, Spans& spans) {
  Outcome out;

  // --- set-up: reduced-corpus training of the drifting profile ---
  std::vector<double> setup_s;
  const auto cache = train_setups(
      cfg, spans, kSetups,
      [] { return std::make_shared<core::TrainedModelCache>(reduced_training(), resolve); },
      kDrift, setup_s);
  const core::TrainedModels& models = cache->get(kDrift);

  const auto sessions = static_cast<std::size_t>(std::max(
      8.0, std::round(kSessionsPerSecond * cfg.seconds / static_cast<double>(kBatches))));
  const auto requests = schedule(cfg.seed, sessions);
  const serve::ServiceConfig scfg = pinned_service_config(requests.back().arrival_ps);

  // --- measured: kBatches runs of the same batch, each on a fresh Service
  // (so the ensemble retrains every time); the report is the median rate ---
  std::vector<double> run_s, session_rate, inference_rate, event_rate;
  std::vector<std::uint64_t> doc_digest;
  std::vector<std::vector<std::uint64_t>> verdicts;
  serve::ServiceReport rep;
  for (std::size_t b = 0; b < cfg.repeats(kBatches); ++b) {
    serve::Service service(scfg, cache, cfg.jobs);
    const std::uint64_t t0 = now_ns();
    serve::ServiceReport r;
    {
      Spans::Scope scope(spans, "serve.run", b);
      r = service.run(requests);
    }
    const double s = static_cast<double>(now_ns() - t0) / 1e9;
    std::uint64_t inf = 0, ev = 0;
    for (const auto& o : r.outcomes) {
      inf += o.detection.inferences;
      ev += o.detection.trace_events_traced;
    }
    run_s.push_back(s);
    session_rate.push_back(static_cast<double>(r.sessions_completed) / s);
    inference_rate.push_back(static_cast<double>(inf) / s);
    event_rate.push_back(static_cast<double>(ev) / s);
    std::ostringstream doc;
    serve::write_serve_json(doc, scfg, r);
    doc_digest.push_back(Digest().str(doc.str()).value());
    verdicts.emplace_back();
    for (const auto& o : r.outcomes) verdicts.back().push_back(verdict_digest(o));
    if (b == 0) rep = std::move(r);
  }

  // The run's digest covers the fleet document and every session's verdict
  // of batch 0; each later batch must reproduce both. A session fails when
  // it is shed or its verdict diverges from batch 0's.
  out.op_digests = verdicts.front();
  Digest all;
  all.u64(doc_digest.front());
  for (const std::uint64_t d : out.op_digests) all.u64(d);
  out.digest = all.value();
  for (std::size_t b = 0; b < verdicts.size(); ++b) {
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < out.op_digests.size(); ++i) {
      if (rep.outcomes[i].shed || i >= verdicts[b].size() ||
          verdicts[b][i] != out.op_digests[i]) {
        ++failed;
      }
    }
    // A document that diverges with every verdict intact still fails once.
    if (failed == 0 && doc_digest[b] != doc_digest.front()) failed = 1;
    out.attempted += out.op_digests.size();
    out.failed += failed;
  }

  std::uint64_t inferences = 0, sim_ps = 0, attacks = 0, detections = 0,
                false_positives = 0, skipped_groups = 0, skipped_cycles = 0,
                fast_launches = 0, launches = 0, gpu_wall_ns = 0, events = 0,
                trace_bytes = 0, busy_cycles = 0, fifo_drops = 0, quanta = 0;
  const serve::SessionOutcome* traced = nullptr;
  for (const auto& o : rep.outcomes) {
    if (o.shed) continue;
    const core::DetectionResult& r = o.detection;
    if (traced == nullptr && o.request.model == core::ModelKind::kLstm) traced = &o;
    inferences += r.inferences;
    sim_ps += r.simulated_ps;
    attacks += r.attacks;
    detections += r.detections;
    false_positives += r.false_positives;
    skipped_groups += r.skipped_edge_groups;
    skipped_cycles += r.skipped_cycles;
    fast_launches += r.gpu_fast_launches;
    launches += r.inferences * models.image(o.request.model).steps.size();
    gpu_wall_ns += r.gpu_exec_wall_ns;
    events += r.trace_events_traced;
    trace_bytes += r.trace_bytes_generated;
    busy_cycles += r.igm_busy_cycles;
    fifo_drops += r.fifo_drops;
    quanta += (r.simulated_ps + scfg.quantum_ps - 1) / scfg.quantum_ps;
  }

  const double replay_ms =
      static_cast<double>(rep.recovery_replay_ps) / sim::kPsPerMs;
  out.gates.emplace_back("serve.recovered > 0 with serve.replay_sim_ms > 0",
                         rep.sessions_recovered > 0 && replay_ms > 0.0);
  out.gates.emplace_back("ensemble.generations_trained > 0",
                         rep.generations_trained > 0);
  out.gates.emplace_back("completed sessions on both PFT and E-Trace",
                         rep.sessions_pft > 0 && rep.sessions_etrace > 0);

  Metrics& e = out.end_to_end;
  e.set("setup_s", median(setup_s), "s");
  e.set("ops_per_s", median(session_rate), "1/s");
  e.set("items_per_s", median(event_rate), "1/s");
  if (!cfg.trace) return out;

  Metrics& m = out.per_layer;
  seed_per_layer_defaults(m);
  const double inf = static_cast<double>(std::max<std::uint64_t>(inferences, 1));
  const double batch_s = median(run_s);
  m.set("sim_ms_per_s", static_cast<double>(sim_ps) / sim::kPsPerMs / batch_s, "ms/s");
  m.set("inferences_per_s", median(inference_rate), "1/s");
  m.set("sessions_per_s", median(session_rate), "1/s");
  m.set("detect_rate",
        static_cast<double>(detections) / static_cast<double>(std::max<std::uint64_t>(attacks, 1)),
        "ratio");
  m.set("fp_per_kinf", static_cast<double>(false_positives) * 1e3 / inf, "1/kinf");
  m.set("sojourn_ms_p99", rep.interactive.sojourn_us.percentile(99.0) / 1e3, "ms");
  m.set("workloads.events", static_cast<double>(events), "count");
  m.set("coresight.trace_bytes", static_cast<double>(trace_bytes), "bytes");
  m.set("igm.vectors", static_cast<double>(inferences + fifo_drops), "count");
  m.set("igm.busy_cycles", static_cast<double>(busy_cycles), "cycles");
  m.set("mcm.inferences", static_cast<double>(inferences), "count");
  m.set("mcm.fifo_drops", static_cast<double>(fifo_drops), "count");
  m.set("mcm.drop_share",
        static_cast<double>(fifo_drops) /
            static_cast<double>(std::max<std::uint64_t>(inferences + fifo_drops, 1)),
        "ratio");
  m.set("gpgpu.fast_launch_share",
        static_cast<double>(fast_launches) / static_cast<double>(std::max<std::uint64_t>(launches, 1)),
        "ratio");
  const double worker_ms = batch_s * 1e3 * static_cast<double>(std::min(cfg.jobs, kShards));
  m.set("gpgpu.inflight_wall_share", static_cast<double>(gpu_wall_ns) / 1e6 / worker_ms,
        "ratio");
  m.set("sim.skipped_edge_groups", static_cast<double>(skipped_groups), "count");
  m.set("sim.skip_share", static_cast<double>(skipped_cycles) / domain_cycles(sim_ps),
        "ratio");
  m.set("ml.train_ms", median(setup_s) * 1e3, "ms");
  m.set("ensemble.retrain_ms", static_cast<double>(rep.retrain_wall_ns) / 1e6, "ms");
  m.set("ensemble.generations_trained", static_cast<double>(rep.generations_trained), "count");
  m.set("ensemble.member_evals", static_cast<double>(rep.member_evals), "count");
  m.set("ensemble.swaps", static_cast<double>(rep.ensemble_swaps), "count");
  m.set("serve.run_s", batch_s, "s");
  m.set("serve.quanta", static_cast<double>(quanta), "count");
  m.set("serve.offered", static_cast<double>(rep.sessions_offered), "count");
  m.set("serve.completed", static_cast<double>(rep.sessions_completed), "count");
  m.set("serve.shed", static_cast<double>(rep.sessions_shed), "count");
  m.set("serve.recovered", static_cast<double>(rep.sessions_recovered), "count");
  m.set("serve.replay_sim_ms", replay_ms, "ms");
  m.set("serve.checkpoints", static_cast<double>(rep.checkpoints), "count");
  m.set("serve.failover_rounds", static_cast<double>(rep.failover_rounds), "count");
  m.set("serve.migrations", static_cast<double>(rep.migrations), "count");
  m.set("serve.queue_depth_max", static_cast<double>(rep.queue_high_watermark), "count");

  if (traced != nullptr) {
    const workloads::SpecProfile profile = cache->profile(kDrift);
    ReplayPlan plan;
    plan.profile = &profile;
    plan.models = &models;
    plan.model = traced->request.model;
    plan.engine = traced->request.engine;
    plan.options = scfg.detection;
    plan.options.seed = traced->request.seed;
    plan.options.proto = traced->request.proto;
    plan.events = traced->detection.trace_events_traced;
    plan.inferences = traced->detection.inferences;
    const ReplayCosts costs = run_replay(plan, spans);
    put_replay_metrics(costs, m);
    out.gates.emplace_back("replay: PFT and E-Trace decode the same waypoints",
                           costs.protocols_agree);
    out.gates.emplace_back("replay: restore lands on the checkpoint", costs.restore_ok);
  }
  return out;
}

}  // namespace perfbench
