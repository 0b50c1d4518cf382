#include "rtad/sim/stats.hpp"

#include <cmath>
#include <stdexcept>

namespace rtad::sim {

double Sampler::percentile(double q) const {
  // Validate before the empty-set early-out: an out-of-range q is a caller
  // bug regardless of how many samples happen to be recorded. NaN compares
  // false against both bounds, so reject non-finite q explicitly — feeding
  // NaN into ceil and the size_t cast below is undefined behaviour.
  if (!std::isfinite(q) || q < 0.0 || q > 100.0)
    throw std::invalid_argument("percentile out of range");
  if (samples_.empty()) return 0.0;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const auto n = sorted.size();
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(n)));
  return sorted[rank == 0 ? 0 : rank - 1];
}

void Sampler::merge(const Sampler& other) {
  if (other.samples_.empty()) return;
  const bool was_empty = samples_.empty();
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  sum_ += other.sum_;
  min_ = was_empty ? other.min_ : std::min(min_, other.min_);
  max_ = was_empty ? other.max_ : std::max(max_, other.max_);
}

void StatsRegistry::reset() {
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, s] : samplers_) s.reset();
}

double geometric_mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) {
    if (v <= 0.0) throw std::invalid_argument("geometric mean needs positive values");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace rtad::sim
