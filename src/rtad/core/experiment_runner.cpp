#include "rtad/core/experiment_runner.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "rtad/core/env.hpp"
#include "rtad/core/report.hpp"
#include "rtad/obs/observer.hpp"
#include "rtad/sim/time.hpp"

namespace rtad::core {

namespace {

/// Bugfix: these tables used to silently truncate to the shorter of the two
/// lists, hiding dropped results (or mislabelled rows) from the caller.
void check_paired(const char* what, std::size_t n_cells,
                  std::size_t n_results) {
  if (n_cells != n_results) {
    throw std::invalid_argument(
        std::string(what) + ": cells/results size mismatch (" +
        std::to_string(n_cells) + " cells vs " + std::to_string(n_results) +
        " results)");
  }
}

}  // namespace

TrainedModelCache::TrainedModelCache(TrainingOptions options,
                                     ProfileResolver resolver)
    : options_(options),
      resolver_(resolver ? std::move(resolver) : [](const std::string& name) {
        return workloads::find_profile(name);
      }) {}

const TrainedModels& TrainedModelCache::get(const std::string& benchmark) {
  Entry* entry;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = entries_[benchmark];
    if (!slot) slot = std::make_unique<Entry>();
    entry = slot.get();
  }
  // Training runs outside the map lock so distinct benchmarks train
  // concurrently; peers of the *same* benchmark block here on the thread
  // actively training it.
  std::call_once(entry->once, [&] {
    entry->models = std::make_unique<const TrainedModels>(
        train_models(resolver_(benchmark), options_));
    trainings_.fetch_add(1, std::memory_order_relaxed);
  });
  return *entry->models;
}

GenerationCache::GenerationCache(std::shared_ptr<TrainedModelCache> base,
                                 EnsembleParams params, sim::ThreadPool* pool)
    : base_(std::move(base)), params_(params), pool_(pool) {}

const TrainedModels& GenerationCache::get(const std::string& benchmark,
                                          ModelKind kind,
                                          std::uint32_t generation) {
  if (generation == 0) return base_->get(benchmark);

  Entry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = entries_[Key{benchmark, static_cast<std::uint8_t>(kind),
                              generation}];
    if (!slot) slot = std::make_unique<Entry>();
    entry = slot.get();
  }
  std::call_once(entry->once, [&] {
    const auto t0 = std::chrono::steady_clock::now();
    const TrainingOptions& opts = base_->options();
    auto models = std::make_unique<TrainedModels>();
    models->features = std::make_unique<ml::DatasetBuilder>(
        base_->profile(benchmark), opts.seed, ml::FeatureConfig{},
        params_.training_snapshot_ps(generation));
    train_model_side(*models, kind, opts);
    entry->models = std::move(models);
    generations_trained_.fetch_add(1, std::memory_order_relaxed);
    retrain_work_units_.fetch_add(
        kind == ModelKind::kElm ? opts.elm_train_windows + opts.elm_val_windows
                                : opts.lstm_train_tokens + opts.lstm_val_tokens,
        std::memory_order_relaxed);
    retrain_wall_ns_.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()),
        std::memory_order_relaxed);
  });
  return *entry->models;
}

void GenerationCache::prefetch(const std::string& benchmark, ModelKind kind,
                               std::uint32_t up_to_generation) {
  for (std::uint32_t gen = 1; gen <= up_to_generation; ++gen) {
    if (pool_ == nullptr) {
      get(benchmark, kind, gen);
      continue;
    }
    auto fut = pool_->submit(
        [this, benchmark, kind, gen] { get(benchmark, kind, gen); });
    std::lock_guard<std::mutex> lock(mutex_);
    prefetches_.push_back(std::move(fut));
  }
}

void GenerationCache::drain() {
  std::vector<std::future<void>> pending;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending.swap(prefetches_);
  }
  for (auto& f : pending) f.get();
}

std::size_t resolve_jobs(std::size_t jobs) {
  if (jobs != 0) return jobs;
  return env::positive_or("RTAD_JOBS",
                          std::max(1u, std::thread::hardware_concurrency()));
}

ExperimentRunner::ExperimentRunner(std::size_t jobs,
                                   std::shared_ptr<TrainedModelCache> cache)
    : cache_(cache ? std::move(cache)
                   : std::make_shared<TrainedModelCache>()),
      pool_(resolve_jobs(jobs)) {}

std::vector<CellResult> ExperimentRunner::run_detection_matrix(
    const std::vector<DetectionCell>& cells) {
  const bool multi_cell = cells.size() > 1;
  return run_indexed(cells.size(), [this, &cells, multi_cell](std::size_t i) {
    const auto& cell = cells[i];
    const auto t0 = std::chrono::steady_clock::now();
    const auto& models = cache_->get(cell.benchmark);
    DetectionOptions options = cell.options;
    if (multi_cell) {
      // A shared export path (e.g. one RTAD_TRACE for the whole matrix)
      // would be clobbered by concurrently finishing cells; suffix with the
      // submission index so names and contents are worker-count-stable.
      options.trace_path = obs::indexed_path(options.trace_path, i);
      options.metrics_path = obs::indexed_path(options.metrics_path, i);
    }
    CellResult out;
    out.detection = measure_detection(cache_->profile(cell.benchmark), models,
                                      cell.model, cell.engine, options);
    out.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    return out;
  });
}

void ExperimentRunner::print_cell_costs(
    std::ostream& os, const std::vector<DetectionCell>& cells,
    const std::vector<CellResult>& results) const {
  check_paired("print_cell_costs", cells.size(), results.size());
  Table table({"Benchmark", "Model", "Engine", "sim (ms)", "wall (ms)",
               "sim/wall", "inferences"});
  double total_wall_ms = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& r = results[i];
    const double sim_ms =
        static_cast<double>(r.detection.simulated_ps) / sim::kPsPerMs;
    total_wall_ms += r.wall_ms;
    table.add_row({cells[i].benchmark, to_string(cells[i].model),
                   to_string(cells[i].engine), fmt(sim_ms, 1),
                   fmt(r.wall_ms, 1),
                   fmt(r.wall_ms > 0.0 ? sim_ms / r.wall_ms : 0.0, 3),
                   fmt_count(r.detection.inferences)});
  }
  os << "Per-cell cost (" << pool_.worker_count()
     << " workers; wall-clock includes any training this cell waited on):\n";
  table.print(os);
  os << "Sum of per-cell wall-clock: " << fmt(total_wall_ms / 1000.0, 2)
     << " s across " << pool_.worker_count() << " workers\n";
}

void ExperimentRunner::print_health(std::ostream& os,
                                    const std::vector<DetectionCell>& cells,
                                    const std::vector<CellResult>& results) {
  check_paired("print_health", cells.size(), results.size());
  Table table({"Benchmark", "Model", "Engine", "corrupt", "bad_pkt", "resync",
               "ta_drop", "fifo_drop", "mcm_rec", "stalls", "bus_err",
               "irq_lost"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& d = results[i].detection;
    table.add_row({cells[i].benchmark, to_string(cells[i].model),
                   to_string(cells[i].engine),
                   fmt_count(d.trace_bytes_corrupted),
                   fmt_count(d.decode_bad_packets), fmt_count(d.decode_resyncs),
                   fmt_count(d.ta_dropped_branches), fmt_count(d.fifo_drops),
                   fmt_count(d.mcm_recoveries), fmt_count(d.mcm_stalls_injected),
                   fmt_count(d.bus_errors), fmt_count(d.irqs_lost)});
  }
  os << "Pipeline health (all counters are zero in fault-free runs):\n";
  table.print(os);
}

void ExperimentRunner::print_cycle_accounts(
    std::ostream& os, const std::vector<DetectionCell>& cells,
    const std::vector<CellResult>& results) {
  check_paired("print_cycle_accounts", cells.size(), results.size());
  Table table({"Benchmark", "Model", "Engine", "Component", "Domain", "busy",
               "idle", "st_fifo", "st_bus", "st_done", "total"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    for (const auto& acct : results[i].detection.cycle_accounts) {
      table.add_row({cells[i].benchmark, to_string(cells[i].model),
                     to_string(cells[i].engine), acct.component, acct.domain,
                     fmt_count(acct.cycles.busy), fmt_count(acct.cycles.idle),
                     fmt_count(acct.cycles.stall_fifo),
                     fmt_count(acct.cycles.stall_bus),
                     fmt_count(acct.cycles.stall_done),
                     fmt_count(acct.cycles.total())});
    }
  }
  os << "Cycle accounts (buckets sum to each component's domain cycles):\n";
  table.print(os);
}

}  // namespace rtad::core
