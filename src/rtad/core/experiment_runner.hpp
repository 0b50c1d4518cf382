// Parallel experiment engine for the paper's evaluation matrix (§IV).
//
// Every cell of the benchmark x model x engine matrix is an independent
// deterministic simulation (each owns its RtadSoc; shared inputs —
// TrainedModels, the profile catalog, the RTL inventory — are read-only),
// so the matrix fans out across a work-stealing pool. Two invariants:
//
//   1. Train once per benchmark. TrainedModelCache runs LSTM BPTT + the
//      ELM solve exactly once per profile (and drift phase) and deploys the
//      same images on both MIAOW and ML-MIAOW — retraining per engine would
//      double the dominant cost and is what the serial benches used to do.
//   2. Results are collected in submission order. Output is byte-identical
//      for any worker count (RTAD_JOBS=1 vs =N); only wall-clock differs.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "rtad/core/experiment.hpp"
#include "rtad/sim/thread_pool.hpp"

namespace rtad::core {

/// The one train-once cache, keyed by what training reads: the resolved
/// profile name (so aliases share an entry), the trained side and the drift
/// phase of the snapshot (a frozen DatasetBuilder reads its instant only
/// through DriftSchedule::phase_at_ps). Safe for concurrent get(): the
/// first caller of a key trains inline on its own thread (call_once); peers
/// needing the same key block on that running training, never on a queued
/// task, so pool workers cannot deadlock.
class TrainedModelCache {
 public:
  /// Maps a benchmark name to the profile to train/run with. The default
  /// is workloads::find_profile; tests substitute trimmed profiles (e.g.
  /// capped syscall intervals) without touching the global catalog.
  using ProfileResolver =
      std::function<workloads::SpecProfile(const std::string&)>;

  explicit TrainedModelCache(TrainingOptions options = {},
                             ProfileResolver resolver = {});

  /// The profile a benchmark name resolves to (shared by training here and
  /// the detection runs in ExperimentRunner).
  workloads::SpecProfile profile(const std::string& benchmark) const {
    return resolver_(benchmark);
  }

  /// The anchor for `benchmark` (a name accepted by the resolver): both
  /// sides trained at drift phase 0 from one DatasetBuilder. The reference
  /// stays valid for the cache's lifetime.
  const TrainedModels& get(const std::string& benchmark);

  /// `kind`'s models trained at drift phase `phase` (below the profile's
  /// DriftSchedule::phases): the anchor for phase 0; else only that side
  /// (the other stays empty), from a DatasetBuilder frozen at the phase's
  /// first instant.
  const TrainedModels& get(const std::string& benchmark, ModelKind kind,
                           std::uint32_t phase);

  /// Number of trainings actually run: one per distinct key.
  std::size_t trainings() const noexcept {
    return trainings_.load(std::memory_order_relaxed);
  }

  const TrainingOptions& options() const noexcept { return options_; }

 private:
  struct Entry {
    std::once_flag once;
    std::unique_ptr<const TrainedModels> models;
  };
  /// (profile name, trained side or nullopt for both, drift phase).
  using Key =
      std::tuple<std::string, std::optional<ModelKind>, std::uint32_t>;

  const TrainedModels& train_once(const workloads::SpecProfile& profile,
                                  std::optional<ModelKind> kind,
                                  std::uint32_t phase);

  TrainingOptions options_;
  ProfileResolver resolver_;
  mutable std::mutex mutex_;  ///< guards the map; entries train unlocked
  std::map<Key, std::unique_ptr<Entry>> entries_;
  std::atomic<std::size_t> trainings_{0};
};

/// The fleet's view of a rolling-ensemble schedule, one per fleet. It
/// trains nothing: get() maps generation g to the drift phase of
/// EnsembleParams::training_snapshot_ps(g) and returns the base cache's
/// entry, so generations sharing a phase are one model and phase-0
/// generations (all of them, without active drift) are the anchor itself.
/// It also keeps the census of scheduled (benchmark, kind, generation >= 1)
/// keys noted by get() or schedule(): a pure function of the keys
/// requested, so its counters are byte-identical across worker counts.
class GenerationCache {
 public:
  GenerationCache(std::shared_ptr<TrainedModelCache> base,
                  EnsembleParams params);

  /// Models of `generation` for (benchmark, kind). Blocks until trained;
  /// the reference stays valid for the base cache's lifetime.
  const TrainedModels& get(const std::string& benchmark, ModelKind kind,
                           std::uint32_t generation);

  /// Note generations 1..`up_to_generation` of (benchmark, kind) in the
  /// census without obtaining their models.
  void schedule(const std::string& benchmark, ModelKind kind,
                std::uint32_t up_to_generation);

  const EnsembleParams& params() const noexcept { return params_; }

  /// Scheduled generations (excludes the anchor). Counts generations, not
  /// trainings: see TrainedModelCache::trainings() for those.
  std::uint64_t generations_trained() const;
  /// Training tokens + windows of one training per scheduled generation
  /// (the deterministic cost proxy reported in rtad.serve.v1).
  std::uint64_t retrain_work_units() const;
  /// Host wall clock get() spent obtaining models off phase 0. Diagnostics
  /// only — stderr and the bench host object, never byte-stable output.
  std::uint64_t retrain_wall_ns() const;

 private:
  void note(const std::string& benchmark, ModelKind kind,
            std::uint32_t generation);  ///< caller holds mutex_

  std::shared_ptr<TrainedModelCache> base_;
  EnsembleParams params_;
  mutable std::mutex mutex_;  ///< guards the census and its counters
  std::set<std::tuple<std::string, ModelKind, std::uint32_t>> census_;
  std::uint64_t retrain_work_units_ = 0;
  std::uint64_t retrain_wall_ns_ = 0;
};

/// One cell of the detection matrix (Fig. 8 and the ablations).
struct DetectionCell {
  std::string benchmark;
  ModelKind model = ModelKind::kLstm;
  EngineKind engine = EngineKind::kMlMiaow;
  DetectionOptions options{};
};

/// A cell's outcome plus cost accounting. `detection` (and the simulated
/// time inside it) is deterministic; `wall_ms` is host time and must never
/// be printed into byte-stable output (the benches route it to stderr).
struct CellResult {
  DetectionResult detection;
  double wall_ms = 0.0;
};

/// Worker count for a pool: `jobs` itself when nonzero, else RTAD_JOBS if
/// set, else std::thread::hardware_concurrency() (at least 1). A
/// set-but-malformed RTAD_JOBS (non-numeric, zero, negative) throws
/// std::invalid_argument.
std::size_t resolve_jobs(std::size_t jobs);

class ExperimentRunner {
 public:
  /// `jobs == 0` resolves via resolve_jobs (RTAD_JOBS). Pass a
  /// cache to share trained models across runners (the determinism test
  /// runs the same matrix at several worker counts on one cache).
  explicit ExperimentRunner(std::size_t jobs = 0,
                            std::shared_ptr<TrainedModelCache> cache = {});

  sim::ThreadPool& pool() noexcept { return pool_; }
  TrainedModelCache& cache() noexcept { return *cache_; }

  /// Fan the cells across the pool. results[i] corresponds to cells[i]
  /// regardless of completion order or worker count. When more than one
  /// cell carries an RTAD_TRACE/RTAD_METRICS path, each cell's export is
  /// suffixed with its submission index (obs::indexed_path) so racing
  /// cells never clobber a shared file and names are worker-count-stable.
  std::vector<CellResult> run_detection_matrix(
      const std::vector<DetectionCell>& cells);

  /// Generic deterministic fan-out: out[i] = fn(i), submission order.
  /// For bench stages that are not detection cells (offline inference
  /// sweeps, competing trainings).
  template <typename Fn>
  auto run_indexed(std::size_t n, Fn fn)
      -> std::vector<std::invoke_result_t<Fn, std::size_t>> {
    using R = std::invoke_result_t<Fn, std::size_t>;
    std::vector<std::future<R>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      futures.push_back(pool_.submit([fn, i] { return fn(i); }));
    }
    std::vector<R> out;
    out.reserve(n);
    for (auto& f : futures) out.push_back(f.get());
    return out;
  }

  /// Per-cell cost table (simulated ms, wall ms, speed ratio, inferences)
  /// via core::Table. Wall-clock is non-deterministic, so benches print
  /// this to stderr to keep stdout byte-identical across RTAD_JOBS.
  /// Throws std::invalid_argument if cells/results lengths differ.
  void print_cell_costs(std::ostream& os,
                        const std::vector<DetectionCell>& cells,
                        const std::vector<CellResult>& results) const;

  /// Per-cell pipeline-health table (corruption, resync, drop and recovery
  /// counters from DetectionResult). Fully deterministic — fault benches
  /// print it to stdout as part of the byte-identity surface.
  /// Throws std::invalid_argument if cells/results lengths differ.
  static void print_health(std::ostream& os,
                           const std::vector<DetectionCell>& cells,
                           const std::vector<CellResult>& results);

  /// Per-component cycle-account table (busy/idle/stall buckets from the
  /// observability layer). Rows appear only for cells run with accounts
  /// enabled. Deterministic across scheduler modes and worker counts.
  /// Throws std::invalid_argument if cells/results lengths differ.
  static void print_cycle_accounts(std::ostream& os,
                                   const std::vector<DetectionCell>& cells,
                                   const std::vector<CellResult>& results);

 private:
  std::shared_ptr<TrainedModelCache> cache_;
  sim::ThreadPool pool_;
};

}  // namespace rtad::core
