// Lightweight statistics registry shared by all hardware models.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rtad::sim {

/// Named monotonically increasing counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Streaming summary of a sampled quantity (latencies, occupancies, ...).
/// Keeps count/sum/min/max plus all samples for exact percentiles; sample
/// counts in RTAD experiments are small (thousands), so storing is fine.
class Sampler {
 public:
  void record(double v) {
    samples_.push_back(v);
    sum_ += v;
    min_ = samples_.size() == 1 ? v : std::min(min_, v);
    max_ = samples_.size() == 1 ? v : std::max(max_, v);
  }

  std::size_t count() const noexcept { return samples_.size(); }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept {
    return samples_.empty() ? 0.0 : sum_ / static_cast<double>(samples_.size());
  }
  double min() const noexcept { return samples_.empty() ? 0.0 : min_; }
  double max() const noexcept { return samples_.empty() ? 0.0 : max_; }

  /// Exact percentile (q in [0,100]) by nearest-rank: the smallest sample
  /// such that at least q% of the set is <= it; q=0 maps to the minimum.
  /// Throws std::invalid_argument for q outside [0,100] (even when empty);
  /// returns 0.0 on an empty sampler like the other accessors.
  double percentile(double q) const;

  /// Fold another sampler's samples in, as if its record() calls had
  /// happened here (append order: this sampler's samples first). Used to
  /// aggregate per-cell samplers in submission order after a parallel run.
  void merge(const Sampler& other);

  void reset() {
    samples_.clear();
    sum_ = 0.0;
    min_ = max_ = 0.0;
  }

  const std::vector<double>& samples() const noexcept { return samples_; }

 private:
  std::vector<double> samples_;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Registry of named counters and samplers, used for experiment reports.
class StatsRegistry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Sampler& sampler(const std::string& name) { return samplers_[name]; }

  const std::map<std::string, Counter>& counters() const noexcept {
    return counters_;
  }
  const std::map<std::string, Sampler>& samplers() const noexcept {
    return samplers_;
  }

  void reset();

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Sampler> samplers_;
};

/// Geometric mean of a set of ratios (used for SPEC-style overhead summaries).
double geometric_mean(const std::vector<double>& values);

}  // namespace rtad::sim
