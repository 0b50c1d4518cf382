// Serve throughput — the streaming fleet under a deterministic open loop.
//
// Sweeps offered load against the multi-tenant detection service
// (src/rtad/serve/): a seeded open-loop arrival process on the simulated
// fleet clock (no wall clock anywhere) offers detection episodes from a mix
// of interactive (LSTM) and batch (ELM) tenants, and each sweep point
// reports throughput plus p50/p95/p99 simulated sojourn latency per tenant
// class, the ingress-depth distribution, and the overload counters
// (serve.sessions_shed / serve.degraded_inferences).
//
// Load calibration: one episode per tenant class measures the mean service
// time; offered load L then sets the arrival rate to L x fleet_capacity /
// mean_service. Interarrivals are bounded-jitter (mean x [0.5, 1.5), from
// the shared xoshiro RNG), so a below-saturation point cannot shed by
// freak burst — the regression gates hold shed+degraded == 0 for L < 1 and
// > 0 for the deep-overload point, deterministically.
//
// The workload is astar, one attack per episode, seed 2026: 32 sessions
// from 12 tenants at offered loads 0.5 / 1.5 / 6, or under RTAD_SMOKE=1 16
// sessions from 3 tenants at loads 0.5 / 6 on the reduced corpus (the
// smallest shape that still sheds at load 6 under the shed policy and
// degrades under degrade). Environment knobs: the fleet shape parsed
// by ServiceConfig::from_env (RTAD_SERVE_POLICY / RETRY /
// CHECKPOINT_CAP_KB), RTAD_SMOKE and RTAD_BENCH_JSON (default
// BENCH_serve.json) as in bench/common.hpp, and RTAD_JOBS / RTAD_SCHED as
// everywhere. stdout and BENCH_serve.json are
// byte-identical across both schedulers and any worker count; wall-clock
// diagnostics go to stderr.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "rtad/core/experiment.hpp"
#include "rtad/core/report.hpp"
#include "rtad/obs/json.hpp"
#include "rtad/serve/service.hpp"
#include "rtad/sim/rng.hpp"

using namespace rtad;

namespace {

constexpr std::size_t kAttacks = 1;
constexpr std::uint64_t kSeed = 2026;

/// The sweep's size: sessions per load point, the tenants they cycle
/// through, and the offered loads (below saturation first, deep overload
/// last).
struct Shape {
  std::size_t sessions;
  std::size_t tenants;
  std::vector<double> loads;
};
const Shape kPaperShape{32, 12, {0.5, 1.5, 6.0}};
const Shape kSmokeShape{16, 3, {0.5, 6.0}};

serve::TenantClass class_of(std::size_t tenant_index) {
  // Two batch tenants out of every six; the rest interactive.
  return tenant_index % 3 == 2 ? serve::TenantClass::kBatch
                               : serve::TenantClass::kInteractive;
}

core::ModelKind model_of(serve::TenantClass cls) {
  return cls == serve::TenantClass::kInteractive ? core::ModelKind::kLstm
                                                 : core::ModelKind::kElm;
}

int run() {
  const std::string benchmark = workloads::find_profile("astar").name;
  const Shape& shape = bench::smoke() ? kSmokeShape : kPaperShape;

  serve::ServiceConfig scfg = serve::ServiceConfig::from_env();
  scfg.detection.attacks = kAttacks;
  scfg.detection.trace_path.clear();
  scfg.detection.metrics_path.clear();
  const auto cache = bench::model_cache();
  std::cout << "SERVE THROUGHPUT: MULTI-TENANT FLEET UNDER OPEN-LOOP LOAD\n\n";

  // --- calibration: one episode per tenant class, serve-identical options
  const auto profile = cache->profile(benchmark);
  const core::TrainedModels& models = cache->get(benchmark);
  core::DetectionOptions copt = scfg.detection;
  copt.seed = kSeed;
  const auto cal_lstm = core::measure_detection(
      profile, models, core::ModelKind::kLstm, core::EngineKind::kMlMiaow,
      copt);
  const auto cal_elm = core::measure_detection(
      profile, models, core::ModelKind::kElm, core::EngineKind::kMlMiaow,
      copt);
  const double interactive_frac = 2.0 / 3.0;
  const double mean_service_ps =
      interactive_frac * static_cast<double>(cal_lstm.simulated_ps) +
      (1.0 - interactive_frac) * static_cast<double>(cal_elm.simulated_ps);
  const double capacity =
      static_cast<double>(scfg.shards) * static_cast<double>(scfg.lanes);

  std::cout << "Benchmark: " << benchmark << ", " << shape.sessions
            << " sessions from " << shape.tenants << " tenants, " << kAttacks
            << " attack(s) per episode\n";
  std::cout << "Fleet: " << scfg.shards << " shard(s) x " << scfg.lanes
            << " lane(s), ingress queue " << scfg.queue_capacity
            << ", policy " << serve::overload_policy_name(scfg.policy)
            << "\n";
  std::cout << "Calibrated service: interactive "
            << core::fmt(sim::to_us(cal_lstm.simulated_ps), 1)
            << " us, batch " << core::fmt(sim::to_us(cal_elm.simulated_ps), 1)
            << " us\n\n";

  serve::Service service(scfg, cache);

  struct Point {
    double load = 0.0;
    double interarrival_us = 0.0;
    double throughput_per_s = 0.0;
    serve::ServiceReport report;
  };
  std::vector<Point> points;

  for (std::size_t li = 0; li < shape.loads.size(); ++li) {
    const double load = shape.loads[li];
    // Open-loop generator: arrival rate = load x capacity / mean service.
    const double mean_gap_ps = mean_service_ps / (load * capacity);
    sim::Xoshiro256 rng(kSeed ^ (0x5EDFEEDULL + li));
    std::vector<serve::SessionRequest> requests;
    requests.reserve(shape.sessions);
    sim::Picoseconds at = 0;
    for (std::size_t i = 0; i < shape.sessions; ++i) {
      const auto gap = static_cast<sim::Picoseconds>(
          mean_gap_ps * (0.5 + rng.uniform()));
      at += std::max<sim::Picoseconds>(1, gap);
      const std::size_t t = i % shape.tenants;
      serve::SessionRequest req;
      req.tenant = "tenant-" + std::to_string(t);
      req.cls = class_of(t);
      req.benchmark = benchmark;
      req.model = model_of(req.cls);
      req.engine = core::EngineKind::kMlMiaow;
      req.arrival_ps = at;
      req.seed = kSeed + 101 * i;
      req.attacks = kAttacks;
      requests.push_back(std::move(req));
    }

    Point p;
    p.load = load;
    p.interarrival_us = mean_gap_ps / static_cast<double>(sim::kPsPerUs);
    std::cerr << "serve_throughput: load " << load << " (" << shape.sessions
              << " sessions)...\n";
    p.report = service.run(std::move(requests));
    sim::Picoseconds makespan = 0;
    for (const auto& o : p.report.outcomes) {
      if (!o.shed) makespan = std::max(makespan, o.completion_ps);
    }
    p.throughput_per_s =
        makespan == 0 ? 0.0
                      : static_cast<double>(p.report.sessions_completed) /
                            (static_cast<double>(makespan) * 1e-12);
    points.push_back(std::move(p));
  }

  // --- regression gates: overload behaviour brackets the saturation point
  bench::Gates gates("serve_throughput");
  for (const auto& p : points) {
    const std::uint64_t overload =
        p.report.sessions_shed + p.report.sessions_degraded;
    const std::string load = "load " + core::fmt(p.load, 2);
    gates.check(p.load >= 1.0 || overload == 0,
                load + " below saturation shed/degraded " +
                    std::to_string(overload) + " sessions");
    gates.check(p.load < 4.0 || overload != 0,
                load + " deep overload yet nothing shed or degraded");
  }
  const bool ok = gates.ok();

  // --- stdout report (deterministic across RTAD_SCHED / RTAD_JOBS) ---
  core::Table table({"Load", "offered", "done", "shed", "degr",
                     "tput (/s)", "q-mean", "int p50", "int p95", "int p99",
                     "bat p50", "bat p99"});
  for (const auto& p : points) {
    const auto& r = p.report;
    table.add_row(
        {core::fmt(p.load, 2), core::fmt_count(r.sessions_offered),
         core::fmt_count(r.sessions_completed),
         core::fmt_count(r.sessions_shed),
         core::fmt_count(r.sessions_degraded),
         core::fmt(p.throughput_per_s, 1), core::fmt(r.queue_depth.mean(), 2),
         core::fmt(r.interactive.sojourn_us.percentile(50.0), 1),
         core::fmt(r.interactive.sojourn_us.percentile(95.0), 1),
         core::fmt(r.interactive.sojourn_us.percentile(99.0), 1),
         core::fmt(r.batch.sojourn_us.percentile(50.0), 1),
         core::fmt(r.batch.sojourn_us.percentile(99.0), 1)});
  }
  table.print(std::cout);
  std::cout << "\nSojourn latencies in simulated us (arrival -> verdict); "
               "'degr' = sessions downgraded to the cheap model.\n";
  std::cout << "Saturation gates: " << (ok ? "PASS" : "FAIL") << "\n";

  // --- JSON artifact ---
  const auto body = [&](obs::JsonWriter& json) {
    json.field("schema", "rtad.serve.bench.v1");
    json.field("benchmark", benchmark);
    json.field("sessions", static_cast<std::uint64_t>(shape.sessions));
    json.field("tenants", static_cast<std::uint64_t>(shape.tenants));
    json.field("attacks_per_session", static_cast<std::uint64_t>(kAttacks));
    json.field("seed", kSeed);
    json.key("calibration").begin_object();
    json.field("interactive_service_us", sim::to_us(cal_lstm.simulated_ps));
    json.field("batch_service_us", sim::to_us(cal_elm.simulated_ps));
    json.field("mean_service_us", mean_service_ps * 1e-6);
    json.end_object();
    json.field("gates_pass", ok);
    json.key("points").begin_array();
    for (const auto& p : points) {
      json.begin_object();
      json.field("offered_load", p.load);
      json.field("mean_interarrival_us", p.interarrival_us);
      json.field("throughput_sessions_per_s", p.throughput_per_s);
      json.key("service");
      serve::write_serve_report(json, scfg, p.report);
      json.end_object();
    }
    json.end_array();
  };
  bench::write_json("serve_throughput", "BENCH_serve.json", body);
  return gates.exit_code();
}

}  // namespace

int main() { return bench::run("serve_throughput", run); }
