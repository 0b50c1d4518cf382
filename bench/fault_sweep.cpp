// Fault sweep — degradation curves for the trace-to-inference path.
//
// Runs the detection experiment across a sweep of fault rates. Bin 0 (rate
// 0) doubles as a regression gate: an all-zero FaultPlan must produce
// results byte-identical to a run with no plan at all (the fault layer must
// be invisible when idle). Nonzero bins assert that faults actually fired
// and that the recovery machinery (decoder resyncs, MCM watchdog, drop
// policies) engaged — a sweep that silently injects nothing tests nothing.
//
// Per rate bin r the plan scales every site from one knob:
//   trace.bit_flip=r  trace.drop=r/2  trace.dup=r/2  trace.truncate=r/10
//   mcm.stall=20r  mcm.done_lost=10r  bus.delay=5r  bus.error=2r
//   irq.lost=10r   (all capped at 1.0)
// plus, for r>0, a 20k-cycle watchdog and the IGM drop-and-resync overflow
// policy so every recovery path is exercised.
//
// The cell is astar, LSTM on ML-MIAOW. Environment knobs:
// RTAD_SWEEP_ATTACKS=N (default 4); RTAD_SWEEP_RATES="0,0.002,0.02"
// (sorted+deduped; default "0,0.0002,0.001,0.005,0.02"); RTAD_BENCH_JSON
// (default BENCH_fault_sweep.json) and RTAD_FAST_TRAIN=1 as in
// bench/common.hpp; RTAD_JOBS / RTAD_SCHED as everywhere — stdout is
// byte-identical across both and across worker counts (wall-clock
// diagnostics go to stderr).
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "rtad/core/env.hpp"
#include "rtad/core/experiment_runner.hpp"
#include "rtad/core/report.hpp"
#include "rtad/obs/json.hpp"

using namespace rtad;

namespace {

constexpr core::ModelKind kModel = core::ModelKind::kLstm;
constexpr core::EngineKind kEngine = core::EngineKind::kMlMiaow;

std::vector<double> selected_rates() {
  const std::vector<std::string> ladder{"0", "0.0002", "0.001", "0.005",
                                        "0.02"};
  std::vector<double> rates;
  for (const auto& item : core::env::list_or("RTAD_SWEEP_RATES", ladder)) {
    rates.push_back(core::env::number("RTAD_SWEEP_RATES", item, 0.0, 0.1));
  }
  std::sort(rates.begin(), rates.end());
  rates.erase(std::unique(rates.begin(), rates.end()), rates.end());
  return rates;
}

fault::FaultPlan plan_for(double rate) {
  using fault::FaultSite;
  const auto capped = [](double v) { return std::min(1.0, v); };
  fault::FaultPlan plan;
  plan.set_rate(FaultSite::kTraceBitFlip, capped(rate));
  plan.set_rate(FaultSite::kTraceDropByte, capped(rate * 0.5));
  plan.set_rate(FaultSite::kTraceDupByte, capped(rate * 0.5));
  plan.set_rate(FaultSite::kTraceTruncate, capped(rate * 0.1));
  plan.set_rate(FaultSite::kMcmStall, capped(rate * 20.0));
  plan.set_rate(FaultSite::kMcmDoneLost, capped(rate * 10.0));
  plan.set_rate(FaultSite::kBusDelay, capped(rate * 5.0));
  plan.set_rate(FaultSite::kBusError, capped(rate * 2.0));
  plan.set_rate(FaultSite::kIrqLost, capped(rate * 10.0));
  if (rate > 0.0) {
    // 20k fabric cycles (160 us): far above any legitimate kWaitDone stretch
    // (the watchdog additionally requires an idle GPU), small enough that
    // lost-done recoveries land well inside the attack deadline.
    plan.watchdog_cycles = 20'000;
    plan.igm_drop_resync = true;
  }
  return plan;
}

/// Sum of every "the pipeline recovered from something" counter.
std::uint64_t recovery_sum(const core::DetectionResult& d) {
  return d.decode_resyncs + d.ta_dropped_branches + d.mcm_recoveries +
         d.mcm_stalls_injected + d.bus_errors + d.irqs_lost;
}

int run() {
  const std::string benchmark = workloads::find_profile("astar").name;
  const auto rates = selected_rates();
  core::DetectionOptions dopt;
  dopt.attacks = core::env::positive_or("RTAD_SWEEP_ATTACKS", 4);
  std::cout << "FAULT SWEEP: DETECTION UNDER DETERMINISTIC FAULT INJECTION\n\n";

  // Cell layout: one baseline cell (no plan at all), then one cell per rate
  // bin (bin 0 runs the engaged-but-all-zero plan so the baseline
  // comparison proves plan-present == plan-absent).
  std::vector<core::DetectionCell> cells;
  auto base = dopt;
  base.faults.reset();
  cells.push_back({benchmark, kModel, kEngine, base});
  for (const double rate : rates) {
    auto opts = dopt;
    opts.faults = plan_for(rate);
    cells.push_back({benchmark, kModel, kEngine, opts});
  }

  core::ExperimentRunner runner(0, bench::model_cache());
  std::cerr << "fault_sweep: " << cells.size() << " cells on "
            << runner.pool().worker_count() << " workers...\n";
  const auto results = runner.run_detection_matrix(cells);

  // --- regression gates ---
  bench::Gates gates("fault_sweep");
  const auto& baseline = results[0].detection;
  for (std::size_t b = 0; b < rates.size(); ++b) {
    const auto& d = results[1 + b].detection;
    const std::string bin = "rate " + core::fmt(rates[b], 4);
    if (rates[b] == 0.0) {
      // Zero-fault identity: same digest, same simulated time, same
      // outcome — the fault layer must be invisible when idle.
      const bool identical = d.score_digest == baseline.score_digest &&
                             d.simulated_ps == baseline.simulated_ps &&
                             d.detections == baseline.detections &&
                             d.inferences == baseline.inferences &&
                             d.fault_events == 0;
      gates.check(identical, "zero-rate bin differs from the no-plan baseline");
    } else {
      gates.check(d.fault_events != 0, bin + " injected no faults");
      if (b + 1 == rates.size()) {
        gates.check(recovery_sum(d) != 0,
                    "max-rate bin shows no recovery activity");
      }
    }
  }

  // --- stdout report (deterministic across RTAD_SCHED / RTAD_JOBS) ---
  core::Table table({"Rate", "Model", "Engine", "det", "FP", "mean (us)",
                     "infer", "faults", "corrupt", "resync", "ta_drop",
                     "mcm_rec", "bus_err", "irq_lost"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& d = results[i].detection;
    const std::string rate_label = i == 0 ? "none" : core::fmt(rates[i - 1], 4);
    table.add_row({rate_label, core::to_string(cells[i].model),
                   core::to_string(cells[i].engine),
                   std::to_string(d.detections) + "/" +
                       std::to_string(d.attacks),
                   core::fmt_count(d.false_positives),
                   core::fmt(d.mean_latency_us, 1),
                   core::fmt_count(d.inferences),
                   core::fmt_count(d.fault_events),
                   core::fmt_count(d.trace_bytes_corrupted),
                   core::fmt_count(d.decode_resyncs),
                   core::fmt_count(d.ta_dropped_branches),
                   core::fmt_count(d.mcm_recoveries),
                   core::fmt_count(d.bus_errors),
                   core::fmt_count(d.irqs_lost)});
  }
  std::cout << "Benchmark: " << benchmark << ", " << dopt.attacks
            << " attacks per cell ('none' = no FaultPlan; rate 0 = all-zero "
               "plan, asserted identical):\n";
  table.print(std::cout);
  std::cout << "\n";
  core::ExperimentRunner::print_health(std::cout, cells, results);
  std::cout << "\nZero-fault identity: " << (gates.ok() ? "PASS" : "FAIL")
            << "\n";

  // --- JSON artifact (rate bins ascending; deterministic fields only) ---
  const auto body = [&](obs::JsonWriter& json) {
    json.field("benchmark", benchmark);
    json.field("attacks_per_cell", static_cast<std::uint64_t>(dopt.attacks));
    json.field("zero_fault_identical", gates.ok());
    json.key("bins").begin_array();
    // The baseline cell (i = 0) is a gate, not a bin.
    for (std::size_t i = 1; i < cells.size(); ++i) {
      const auto& d = results[i].detection;
      json.begin_object();
      json.field("rate", rates[i - 1]);
      json.field("model", core::to_string(cells[i].model));
      json.field("engine", core::to_string(cells[i].engine));
      json.field("detections", d.detections);
      json.field("attacks", d.attacks);
      json.field("mean_latency_us", d.mean_latency_us);
      json.field("false_positives", d.false_positives);
      json.field("inferences", d.inferences);
      json.field("fault_events", d.fault_events);
      json.field("trace_bytes_corrupted", d.trace_bytes_corrupted);
      json.field("decode_bad_packets", d.decode_bad_packets);
      json.field("decode_resyncs", d.decode_resyncs);
      json.field("ta_dropped_branches", d.ta_dropped_branches);
      json.field("fifo_drops", d.fifo_drops);
      json.field("mcm_recoveries", d.mcm_recoveries);
      json.field("mcm_stalls_injected", d.mcm_stalls_injected);
      json.field("bus_errors", d.bus_errors);
      json.field("bus_fault_cycles", d.bus_fault_cycles);
      json.field("irqs_lost", d.irqs_lost);
      json.end_object();
    }
    json.end_array();
  };
  bench::write_json("fault_sweep", "BENCH_fault_sweep.json", body);

  runner.print_cell_costs(std::cerr, cells, results);
  return gates.exit_code();
}

}  // namespace

int main() { return bench::run("fault_sweep", run); }
