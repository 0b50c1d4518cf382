#include "rtad/serve/service.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "rtad/core/env.hpp"
#include "rtad/obs/json.hpp"
#include "rtad/sim/fan_out.hpp"
#include "rtad/telemetry/query.hpp"

namespace rtad::serve {

const char* fleet_protocol_name(FleetProtocol proto) noexcept {
  switch (proto) {
    case FleetProtocol::kPft:
      return "pft";
    case FleetProtocol::kEtrace:
      return "etrace";
    case FleetProtocol::kMixed:
      return "mixed";
  }
  return "pft";
}

ServiceConfig ServiceConfig::from_env() {
  constexpr std::uint64_t kMaxKb = UINT64_MAX / 1024;
  ServiceConfig cfg;
  cfg.detection = core::DetectionOptions::from_env();
  if (cfg.detection.proto == trace::TraceProtocol::kEtrace) {
    cfg.proto = FleetProtocol::kEtrace;
  }
  if (const auto& plan = cfg.detection.faults) {
    cfg.serve_faults = plan->serve;
    cfg.fault_seed = plan->seed;
  }
  cfg.policy = core::env::choice_or("RTAD_SERVE_POLICY", {"shed", "degrade"},
                                    "shed") == "shed"
                   ? OverloadPolicy::kShed
                   : OverloadPolicy::kDegrade;
  cfg.telemetry.spill_path = core::env::string_or("RTAD_TELEMETRY", "");
  cfg.telemetry.cap_bytes =
      core::env::u64_or("RTAD_TELEMETRY_CAP_KB", 0, kMaxKb) * 1024;
  return cfg;
}

void FleetCounters::merge(const FleetCounters& o) {
  sessions_offered += o.sessions_offered;
  sessions_admitted += o.sessions_admitted;
  sessions_degraded += o.sessions_degraded;
  degraded_inferences += o.degraded_inferences;
  sessions_completed += o.sessions_completed;
  sessions_pft += o.sessions_pft;
  sessions_etrace += o.sessions_etrace;
  queue_depth.merge(o.queue_depth);
  queue_high_watermark = std::max(queue_high_watermark, o.queue_high_watermark);
  shard_crashes += o.shard_crashes;
  lane_wedges += o.lane_wedges;
  brownout_refusals += o.brownout_refusals;
  sessions_recovered += o.sessions_recovered;
  sessions_parked += o.sessions_parked;
  sessions_retried += o.sessions_retried;
  queue_flushed += o.queue_flushed;
  checkpoints += o.checkpoints;
  checkpoint_evictions += o.checkpoint_evictions;
  recovery_replay_ps += o.recovery_replay_ps;
  parked_bytes_hwm = std::max(parked_bytes_hwm, o.parked_bytes_hwm);
  checkpoint_bytes.merge(o.checkpoint_bytes);
  evicted_blob_bytes.merge(o.evicted_blob_bytes);
  recovery_latency_us.merge(o.recovery_latency_us);
  ensemble_swaps += o.ensemble_swaps;
  consensus_flags += o.consensus_flags;
  consensus_overrides += o.consensus_overrides;
  member_evals += o.member_evals;
}

std::size_t failover_target(std::size_t from_shard,
                            sim::Picoseconds reoffer_ps,
                            const std::vector<ShardHeat>& heat,
                            sim::Picoseconds rebalance_gap_ps,
                            bool* migrated) {
  *migrated = false;
  const std::size_t n = heat.size();
  const auto up = [&](std::size_t s) {
    return heat[s].down_until <= reoffer_ps;
  };
  bool any_up = false;
  for (std::size_t s = 0; s < n; ++s) any_up = any_up || up(s);
  // When the whole fleet is inside a downtime window the orphan has to
  // queue and wait wherever it lands, so both walks degenerate to the
  // legacy all-shard scan; otherwise down shards are excluded.
  const auto eligible = [&](std::size_t s) { return !any_up || up(s); };
  // Ring heir: the first eligible shard after the crashed one (the naive
  // successor may have crashed in the same storm).
  std::size_t target = (from_shard + 1) % n;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t candidate = (from_shard + 1 + k) % n;
    if (eligible(candidate)) {
      target = candidate;
      break;
    }
  }
  // Coolest scan, down shards excluded: a freshly-crashed shard's flushed
  // queue can make its horizon the smallest in the fleet exactly while it
  // refuses work.
  std::size_t coolest = target;
  for (std::size_t s = 0; s < n; ++s) {
    if (!eligible(s)) continue;
    if (heat[s].horizon < heat[coolest].horizon) coolest = s;
  }
  if (target != coolest &&
      heat[target].horizon > heat[coolest].horizon + rebalance_gap_ps) {
    *migrated = true;
    return coolest;
  }
  return target;
}

Service::Service(ServiceConfig cfg,
                 std::shared_ptr<core::TrainedModelCache> cache,
                 std::size_t jobs)
    : cfg_(std::move(cfg)),
      cache_(cache ? std::move(cache)
                   : std::make_shared<core::TrainedModelCache>()),
      jobs_(core::resolve_jobs(jobs)) {
  if (cfg_.quantum_ps == 0) {
    throw std::invalid_argument("Service: quantum_ps must be nonzero");
  }
  if (cfg_.shards == 0) cfg_.shards = 1;
  if (cfg_.ensemble.active()) {
    generations_ =
        std::make_unique<core::GenerationCache>(cache_, cfg_.ensemble);
  }
}

ServiceReport Service::run(std::vector<SessionRequest> requests) {
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].ticket = i;
    requests[i].origin_arrival_ps = requests[i].arrival_ps;
    switch (cfg_.proto) {
      case FleetProtocol::kPft:
        requests[i].proto = trace::TraceProtocol::kPft;
        break;
      case FleetProtocol::kEtrace:
        requests[i].proto = trace::TraceProtocol::kEtrace;
        break;
      case FleetProtocol::kMixed:
        requests[i].proto = tenant_protocol(requests[i].tenant);
        break;
    }
  }

  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(cfg_.shards);
  for (std::size_t s = 0; s < cfg_.shards; ++s) {
    shards.push_back(
        std::make_unique<Shard>(s, cfg_, cache_, generations_.get()));
  }
  for (auto& req : requests) {
    shards[shard_of(req.tenant)]->enqueue(std::move(req));
  }

  ServiceReport rep;
  rep.outcomes.reserve(requests.size());

  // Round loop. Round 0 replays the offered schedule; each later round
  // replays the re-offers born from the previous round's crashes. Each
  // shard runs whole on one fan-out index, results merge in shard-index
  // order, and the inter-round orphan routing is single-threaded over a
  // canonically sorted list — so the merged report is byte-identical for
  // any worker count. Rounds are bounded: every crash/wedge fires at most
  // once, so orphans cannot regenerate forever (the cap is a backstop).
  constexpr std::size_t kMaxRounds = 16;
  for (std::size_t round = 0;; ++round) {
    auto ran = sim::fan_out(jobs_, shards.size(), [&shards](std::size_t s) {
      return shards[s]->run();
    });
    std::vector<FailoverItem> orphans;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      for (auto& o : ran[s]) rep.outcomes.push_back(std::move(o));
      for (auto& item : shards[s]->take_failover()) {
        orphans.push_back(std::move(item));
      }
    }
    if (orphans.empty()) break;
    if (round + 1 >= kMaxRounds) {
      // Backstop: a fleet that cannot absorb its orphans sheds them
      // honestly rather than looping.
      for (auto& item : orphans) {
        SessionOutcome o;
        o.request = std::move(item.request);
        o.shed = true;
        rep.outcomes.push_back(std::move(o));
      }
      break;
    }
    ++rep.failover_rounds;
    std::sort(orphans.begin(), orphans.end(),
              [](const FailoverItem& a, const FailoverItem& b) {
                return a.orphaned_ps != b.orphaned_ps
                           ? a.orphaned_ps < b.orphaned_ps
                           : a.request.ticket < b.request.ticket;
              });
    // One heat snapshot per round: horizons only move inside run(), so the
    // snapshot is exact for every orphan routed at this barrier.
    std::vector<ShardHeat> heat;
    heat.reserve(shards.size());
    for (const auto& shard : shards) {
      heat.push_back(ShardHeat{shard->horizon(), shard->down_until()});
    }
    for (auto& item : orphans) {
      SessionRequest req = std::move(item.request);
      const sim::Picoseconds reoffer_ps =
          item.orphaned_ps + retry_backoff_ps(cfg_.fault_seed, req.ticket,
                                              req.attempts,
                                              cfg_.retry_base_us);
      bool migrated = false;
      const std::size_t target =
          failover_target(item.from_shard, reoffer_ps, heat,
                          cfg_.rebalance_gap_ps, &migrated);
      sim::Picoseconds migrate_cost = 0;
      if (migrated) {
        migrate_cost = cfg_.migrate_ps;
        ++rep.migrations;
      }
      req.arrival_ps = reoffer_ps + migrate_cost;
      if (!item.blob.empty()) {
        shards[target]->stage_parked(req.ticket, std::move(item.blob),
                                     item.orphaned_ps);
      }
      shards[target]->enqueue(std::move(req));
    }
  }

  if (generations_) {
    rep.generations_trained = generations_->generations_trained();
    rep.retrain_work_units = generations_->retrain_work_units();
    rep.retrain_wall_ns = generations_->retrain_wall_ns();
  }

  for (const auto& shard : shards) rep.merge(shard->counters());

  // Fleet telemetry: harvest every shard's committed records in shard-index
  // order, canonicalize, and ingest into one store. The sort key is the
  // stream clock (tenant, at_ps, ticket) — per-tenant streams interleave
  // identically however the fleet sharded them. An evicted-blob restart
  // re-executes from scratch and re-commits samples an earlier run already
  // committed; determinism makes the duplicates byte-equal, so adjacent
  // dedupe on (tenant, ticket, at_ps) restores the fault-free stream.
  std::vector<TelemetryRecord> records;
  for (auto& shard : shards) {
    auto taken = shard->take_telemetry();
    for (auto& rec : taken) records.push_back(std::move(rec));
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const TelemetryRecord& a, const TelemetryRecord& b) {
                     if (a.tenant != b.tenant) return a.tenant < b.tenant;
                     if (a.sample.at_ps != b.sample.at_ps) {
                       return a.sample.at_ps < b.sample.at_ps;
                     }
                     return a.ticket < b.ticket;
                   });
  records.erase(
      std::unique(records.begin(), records.end(),
                  [](const TelemetryRecord& a, const TelemetryRecord& b) {
                    return a.tenant == b.tenant && a.ticket == b.ticket &&
                           a.sample.at_ps == b.sample.at_ps;
                  }),
      records.end());
  rep.telemetry = std::make_shared<telemetry::TelemetryStore>(cfg_.telemetry);
  for (const TelemetryRecord& rec : records) {
    rep.telemetry->append(rec.tenant, rec.sample);
  }

  std::sort(rep.outcomes.begin(), rep.outcomes.end(),
            [](const SessionOutcome& a, const SessionOutcome& b) {
              return a.request.ticket < b.request.ticket;
            });

  for (const SessionOutcome& o : rep.outcomes) {
    ClassSlo& slo = o.request.cls == TenantClass::kInteractive
                        ? rep.interactive
                        : rep.batch;
    ++slo.offered;
    if (o.shed) {
      // Shed *sessions* (not shed offers: a retried request can be refused
      // several times but sheds at most once).
      ++rep.sessions_shed;
      ++slo.shed;
      continue;
    }
    ++slo.completed;
    if (o.degraded) ++slo.degraded;
    if (o.recovered) ++slo.recovered;
    slo.sojourn_us.record(sim::to_us(o.sojourn_ps));
  }
  return rep;
}

namespace {

void write_class(obs::JsonWriter& json, const char* name, const ClassSlo& slo,
                 bool failure_domain) {
  json.key(name).begin_object();
  json.field("offered", slo.offered);
  json.field("completed", slo.completed);
  json.field("shed", slo.shed);
  json.field("degraded", slo.degraded);
  // Per-class recovery impact exists only when the failure domain is
  // active: the legacy document stays byte-identical otherwise.
  if (failure_domain) json.field("recovered", slo.recovered);
  json.key("sojourn_us").begin_object();
  json.field("count", static_cast<std::uint64_t>(slo.sojourn_us.count()));
  json.field("mean", slo.sojourn_us.mean());
  json.field("p50", slo.sojourn_us.percentile(50.0));
  json.field("p95", slo.sojourn_us.percentile(95.0));
  json.field("p99", slo.sojourn_us.percentile(99.0));
  json.field("max", slo.sojourn_us.max());
  json.end_object();
  json.end_object();
}

}  // namespace

void write_serve_json(std::ostream& os, const ServiceConfig& cfg,
                      const ServiceReport& report) {
  obs::JsonWriter json(os);
  json.begin_object();
  json.field("schema", "rtad.serve.v1");
  json.key("service");
  write_serve_report(json, cfg, report);
  json.end_object();
  os << '\n';
}

void write_serve_report(obs::JsonWriter& json, const ServiceConfig& cfg,
                        const ServiceReport& report) {
  json.begin_object();
  json.key("config").begin_object();
  json.field("shards", static_cast<std::uint64_t>(cfg.shards));
  json.field("lanes", static_cast<std::uint64_t>(cfg.lanes));
  json.field("queue_capacity",
             static_cast<std::uint64_t>(cfg.queue_capacity));
  json.field("policy", overload_policy_name(cfg.policy));
  json.field("quantum_us", sim::to_us(cfg.quantum_ps));
  json.field("proto", fleet_protocol_name(cfg.proto));
  json.end_object();
  json.key("fleet").begin_object();
  json.field("serve.sessions_offered", report.sessions_offered);
  json.field("serve.sessions_admitted", report.sessions_admitted);
  json.field("serve.sessions_shed", report.sessions_shed);
  json.field("serve.sessions_degraded", report.sessions_degraded);
  json.field("serve.degraded_inferences", report.degraded_inferences);
  json.field("serve.sessions_completed", report.sessions_completed);
  json.field("serve.sessions_pft", report.sessions_pft);
  json.field("serve.sessions_etrace", report.sessions_etrace);
  json.end_object();
  // The ensemble section exists only when the rolling ensemble is active —
  // a plain configuration emits the exact legacy document. It sits in the
  // quantum-invariant prefix (before telemetry): every counter here is a
  // pure function of the arrival schedule.
  if (cfg.ensemble.active()) {
    json.key("ensemble").begin_object();
    json.field("size", static_cast<std::uint64_t>(cfg.ensemble.size));
    json.field("quorum", static_cast<std::uint64_t>(cfg.ensemble.quorum));
    json.field("retrain_us", sim::to_us(cfg.ensemble.retrain_ps));
    json.field("window_us",
               sim::to_us(cfg.ensemble.window_ps != 0
                              ? cfg.ensemble.window_ps
                              : cfg.ensemble.retrain_ps));
    json.field("serve.generations_trained", report.generations_trained);
    json.field("serve.ensemble_swaps", report.ensemble_swaps);
    json.field("serve.consensus_flags", report.consensus_flags);
    json.field("serve.consensus_overrides", report.consensus_overrides);
    json.field("serve.member_evals", report.member_evals);
    json.field("serve.retrain_work_units", report.retrain_work_units);
    json.end_object();
  }
  // The failure-domain section exists only when the fleet can actually
  // fault or retry — a plain configuration emits the exact legacy document.
  const bool failure_domain =
      cfg.serve_faults.any() || cfg.retry_budget > 0;
  if (failure_domain) {
    json.key("failure").begin_object();
    json.field("retry_budget", static_cast<std::uint64_t>(cfg.retry_budget));
    json.field("checkpoint_every", cfg.checkpoint_every);
    json.field("serve.shard_crashes", report.shard_crashes);
    json.field("serve.lane_wedges", report.lane_wedges);
    json.field("serve.brownout_refusals", report.brownout_refusals);
    json.field("serve.sessions_recovered", report.sessions_recovered);
    json.field("serve.sessions_parked", report.sessions_parked);
    json.field("serve.sessions_retried", report.sessions_retried);
    json.field("serve.queue_flushed", report.queue_flushed);
    json.field("serve.migrations", report.migrations);
    json.field("serve.checkpoints", report.checkpoints);
    json.field("serve.checkpoint_evictions", report.checkpoint_evictions);
    json.field("serve.failover_rounds", report.failover_rounds);
    json.field("serve.recovery_replay_ps", report.recovery_replay_ps);
    json.key("checkpoint_bytes").begin_object();
    json.field("samples",
               static_cast<std::uint64_t>(report.checkpoint_bytes.count()));
    json.field("mean", report.checkpoint_bytes.mean());
    json.field("max", report.checkpoint_bytes.max());
    json.field("parked_high_watermark", report.parked_bytes_hwm);
    json.end_object();
    json.key("evicted_blob_bytes").begin_object();
    json.field("samples",
               static_cast<std::uint64_t>(report.evicted_blob_bytes.count()));
    json.field("mean", report.evicted_blob_bytes.mean());
    json.field("max", report.evicted_blob_bytes.max());
    json.end_object();
    json.key("recovery_latency_us").begin_object();
    json.field("count",
               static_cast<std::uint64_t>(report.recovery_latency_us.count()));
    json.field("mean", report.recovery_latency_us.mean());
    json.field("p50", report.recovery_latency_us.percentile(50.0));
    json.field("p99", report.recovery_latency_us.percentile(99.0));
    json.field("max", report.recovery_latency_us.max());
    json.end_object();
    json.end_object();
  }
  json.key("ingress_depth").begin_object();
  json.field("samples",
             static_cast<std::uint64_t>(report.queue_depth.count()));
  json.field("mean", report.queue_depth.mean());
  json.field("max", report.queue_depth.max());
  json.field("high_watermark",
             static_cast<std::uint64_t>(report.queue_high_watermark));
  json.end_object();
  json.key("classes").begin_object();
  write_class(json, "interactive", report.interactive, failure_domain);
  write_class(json, "batch", report.batch, failure_domain);
  json.end_object();
  // Telemetry last: everything above is quantum-invariant; telemetry
  // samples once per quantum (see the write_serve_report doc).
  if (report.telemetry) {
    const telemetry::TelemetryStore& tel = *report.telemetry;
    json.key("telemetry").begin_object();
    json.field("serve.telemetry_tenants", tel.tenants());
    json.field("serve.telemetry_samples", tel.samples());
    json.field("serve.telemetry_flagged", tel.flagged());
    json.field("serve.telemetry_pages", tel.pages_sealed());
    json.field("serve.telemetry_evicted_pages", tel.pages_evicted());
    json.field("serve.telemetry_spilled_pages", tel.pages_spilled());
    json.field("serve.telemetry_resident_bytes", tel.resident_bytes());
    telemetry::RankQuery rq;
    rq.top_k = 5;
    const auto ranked = telemetry::rank_tenants(tel, rq);
    json.key("top").begin_array();
    for (const auto& entry : ranked) {
      json.begin_object();
      json.field("tenant", entry.tenant);
      json.field("severity", entry.severity);
      json.field("anomaly_rate", entry.anomaly_rate);
      json.field("peak_score", entry.peak_score);
      json.field("samples", entry.samples);
      json.field("health", entry.health);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_object();
}

}  // namespace rtad::serve
