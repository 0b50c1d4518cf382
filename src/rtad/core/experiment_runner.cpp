#include "rtad/core/experiment_runner.hpp"

#include <algorithm>
#include <chrono>
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
  return train_once(resolver_(benchmark), std::nullopt, 0);
}

const TrainedModels& TrainedModelCache::get(const std::string& benchmark,
                                            ModelKind kind,
                                            std::uint32_t phase) {
  return train_once(resolver_(benchmark),
                    phase == 0 ? std::nullopt : std::optional(kind), phase);
}

const TrainedModels& TrainedModelCache::train_once(
    const workloads::SpecProfile& profile, std::optional<ModelKind> kind,
    std::uint32_t phase) {
  Entry* entry;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = entries_[Key{profile.name, kind, phase}];
    if (!slot) slot = std::make_unique<Entry>();
    entry = slot.get();
  }
  // Training runs outside the map lock so distinct keys train concurrently;
  // peers of the *same* key block here on the thread actively training it.
  std::call_once(entry->once, [&] {
    if (!kind) {
      entry->models = std::make_unique<const TrainedModels>(
          train_models(profile, options_));
    } else {
      auto models = std::make_unique<TrainedModels>();
      models->features = std::make_unique<ml::DatasetBuilder>(
          profile, options_.seed, ml::FeatureConfig{},
          phase * profile.drift.period_us * sim::kPsPerUs);
      train_model_side(*models, *kind, options_);
      entry->models = std::move(models);
    }
    trainings_.fetch_add(1, std::memory_order_relaxed);
  });
  return *entry->models;
}

GenerationCache::GenerationCache(std::shared_ptr<TrainedModelCache> base,
                                 EnsembleParams params)
    : base_(std::move(base)), params_(params) {}

const TrainedModels& GenerationCache::get(const std::string& benchmark,
                                          ModelKind kind,
                                          std::uint32_t generation) {
  if (generation == 0) return base_->get(benchmark);
  const std::uint32_t phase = base_->profile(benchmark).drift.phase_at_ps(
      params_.training_snapshot_ps(generation));
  const auto t0 = std::chrono::steady_clock::now();
  const TrainedModels& models = base_->get(benchmark, kind, phase);
  const std::chrono::nanoseconds wall = std::chrono::steady_clock::now() - t0;
  std::lock_guard<std::mutex> lock(mutex_);
  note(benchmark, kind, generation);
  if (phase != 0) retrain_wall_ns_ += wall.count();
  return models;
}

void GenerationCache::schedule(const std::string& benchmark, ModelKind kind,
                               std::uint32_t up_to_generation) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::uint32_t gen = 1; gen <= up_to_generation; ++gen) {
    note(benchmark, kind, gen);
  }
}

void GenerationCache::note(const std::string& benchmark, ModelKind kind,
                           std::uint32_t generation) {
  if (!census_.emplace(benchmark, kind, generation).second) return;
  const TrainingOptions& opts = base_->options();
  retrain_work_units_ +=
      kind == ModelKind::kElm ? opts.elm_train_windows + opts.elm_val_windows
                              : opts.lstm_train_tokens + opts.lstm_val_tokens;
}

std::uint64_t GenerationCache::generations_trained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return census_.size();
}

std::uint64_t GenerationCache::retrain_work_units() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return retrain_work_units_;
}

std::uint64_t GenerationCache::retrain_wall_ns() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return retrain_wall_ns_;
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
