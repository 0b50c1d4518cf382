// Shared plumbing of the benchmark binary, rtad_perfbench: the run context
// handed to each workload, the metric sheet it fills, span recording for the
// traced run, and the digest / timing helpers every workload uses.
//
// The benchmark calls only public APIs of the layers it measures. Spans are
// recorded here, around the benchmark's own calls into each layer; nothing in
// src/ is instrumented for the benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------------ time

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Linear-interpolated percentile (p in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// Peak resident set size of this process, MiB (getrusage ru_maxrss).
double peak_rss_mb();

// ---------------------------------------------------------------- digests

/// FNV-1a, the construction the simulator's own score digest uses.
class Digest {
 public:
  Digest& bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
    return *this;
  }
  Digest& u64(std::uint64_t v) { return bytes(&v, sizeof v); }
  Digest& f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return u64(bits);
  }
  Digest& str(const std::string& s) { return u64(s.size()).bytes(s.data(), s.size()); }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

std::string hex64(std::uint64_t v);

// ------------------------------------------------------------------ spans

/// In-memory span log of the traced run. Disabled (the untraced run) it
/// records nothing and costs one branch per span. Spans nest through a
/// stack: a span's parent is the innermost span open when it began.
class Spans {
 public:
  struct Span {
    std::string name;   ///< "<layer>.<operation>", e.g. "core.advance"
    std::string layer;  ///< module name: the part before the first '.'
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index into spans(); -1 = root
    std::uint64_t request = 0;  ///< episode / session / query id
  };

  explicit Spans(bool enabled) : enabled_(enabled) {}

  /// RAII scope; a no-op when recording is off.
  class Scope {
   public:
    Scope(Spans& spans, const char* name, std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_ = nullptr;
    std::size_t index_ = 0;
  };

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self time per layer, ms: each span's duration minus the part its
  /// direct children cover.
  std::map<std::string, double> self_ms_by_layer() const;
  /// Summed duration of every span called `name`, ms.
  double total_ms(const std::string& name) const;

  /// Host cost of recording one span (open plus close), ns: the median of
  /// a few timed batches of empty scopes on a scratch log.
  static double scope_cost_ns();

  /// Write the log as JSON lines (one span per line) to `path`.
  void dump(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

// ---------------------------------------------------------------- results

/// Ordered metric sheet: name -> (value, unit).
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  const std::vector<Entry>& entries() const noexcept { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// What one workload run reports back to main().
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Digest of every simulated output of the run, keyed so it does not
  /// depend on host speed (see each workload for what it covers).
  std::uint64_t digest = 0;
  /// Per-operation output digests (sessions, query shapes), in a
  /// fixed order, so a mismatch can be counted per operation.
  std::vector<std::uint64_t> op_digests;
  /// Gate name -> passed. A failed gate fails the run.
  std::vector<std::pair<std::string, bool>> gates;
  Metrics end_to_end;
  Metrics per_layer;  ///< filled only by the traced run
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::size_t jobs = 1;  ///< pool workers the fleet may use
  /// Compute the output digests only: one set-up, one repeat, the least
  /// work that covers every checked output (run.py --record).
  bool digest_only = false;

  /// `n` repeats of a measured step, or 1 in digest-only mode.
  std::size_t repeats(std::size_t n) const { return digest_only ? 1 : n; }
};

/// Per-layer metrics every traced run emits, with the value 0 where the
/// workload does not exercise the layer. Keeps one schema across
/// workloads; each workload overwrites the rows it measures.
void seed_per_layer_defaults(Metrics& m);

/// Per-layer self times, the span count, and the tracing overhead: the
/// span count times Spans::scope_cost_ns() over the run's wall time `run_ns`.
void add_span_metrics(const Spans& spans, std::uint64_t run_ns, Metrics& m);

Outcome run_fleet_storm(const RunConfig& cfg, Spans& spans);
Outcome run_telemetry_rank(const RunConfig& cfg, Spans& spans);

/// Deterministic 64-bit mix for deriving sub-seeds from the workload seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
