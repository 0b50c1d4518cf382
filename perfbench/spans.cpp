// Span log, metric sheet and helpers shared by the workloads.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

double peak_rss_mb() {
  // VmHWM, not ru_maxrss: Linux carries ru_maxrss over exec, so a binary
  // started by a larger parent (python3 run.py) would report the parent's.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // KiB
  }
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ------------------------------------------------------------------ spans

Spans::Scope::Scope(Spans& spans, const char* name, std::uint64_t request) {
  if (!spans.enabled_) return;
  spans_ = &spans;
  index_ = spans.spans_.size();
  Span s;
  s.name = name;
  s.layer = s.name.substr(0, s.name.find('.'));
  s.parent = spans.open_.empty()
                 ? -1
                 : static_cast<std::int64_t>(spans.open_.back());
  s.request = request;
  spans.spans_.push_back(std::move(s));
  spans.open_.push_back(index_);
  spans.spans_.back().start_ns = now_ns();
}

Spans::Scope::~Scope() {
  if (spans_ == nullptr) return;
  spans_->spans_[index_].end_ns = now_ns();
  spans_->open_.pop_back();
}

std::map<std::string, double> Spans::self_ms_by_layer() const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::uint64_t dur = s.end_ns - s.start_ns;
    const std::uint64_t self = dur > child_ns[i] ? dur - child_ns[i] : 0;
    out[s.layer] += static_cast<double>(self) / 1e6;
  }
  return out;
}

double Spans::total_ms(const std::string& name) const {
  double ms = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  return ms;
}

double Spans::scope_cost_ns() {
  constexpr std::size_t kScopes = 4096;
  std::vector<double> batch_ns;
  for (int b = 0; b < 9; ++b) {
    Spans scratch(true);
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < kScopes; ++i) {
      Scope scope(scratch, "bench.overhead", i);
    }
    batch_ns.push_back(static_cast<double>(now_ns() - t0) / kScopes);
  }
  return median(batch_ns);
}

void Spans::dump(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"layer\":\""
        << s.layer << "\",\"start_ns\":" << s.start_ns - t0
        << ",\"end_ns\":" << s.end_ns - t0 << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  }
  if (!out) throw std::runtime_error("short write to span file " + path);
}

// ---------------------------------------------------------------- metrics

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back(Entry{name, value, unit});
}

namespace {

/// Layers the benchmark records spans for; each reports <layer>.self_ms.
const char* const kSpanLayers[] = {"bench", "core",      "ml",
                                   "serve", "telemetry", "workloads",
                                   "trace", "igm",       "gpgpu"};

}  // namespace

void seed_per_layer_defaults(Metrics& m) {
  struct Row {
    const char* name;
    const char* unit;
  };
  static const Row kRows[] = {
      // Workload views: the end-to-end quantities of one workload each,
      // read from the traced run.
      {"fail_frac", "ratio"},
      {"sim_ms_per_s", "ms/s"},
      {"inferences_per_s", "1/s"},
      {"sessions_per_s", "1/s"},
      {"ingest_msamples_per_s", "M/s"},
      {"query_ms_p50", "ms"},
      {"query_ms_p90", "ms"},
      {"detect_rate", "ratio"},
      {"fp_per_kinf", "1/kinf"},
      {"sojourn_ms_p99", "ms"},
      // core
      {"core.checkpoint_us", "us"},
      {"core.restore_ms_per_sim_ms", "ms/ms"},
      // workloads
      {"workloads.ns_per_event", "ns"},
      {"workloads.events", "count"},
      // trace (both grammars)
      {"trace.pft.encode_ns_per_event", "ns"},
      {"trace.pft.decode_ns_per_byte", "ns"},
      {"trace.pft.bytes_per_branch", "bytes"},
      {"trace.etrace.encode_ns_per_event", "ns"},
      {"trace.etrace.decode_ns_per_byte", "ns"},
      {"trace.etrace.bytes_per_branch", "bytes"},
      // coresight / igm
      {"coresight.trace_bytes", "bytes"},
      {"igm.ivg_ns_per_branch", "ns"},
      {"igm.vectors", "count"},
      {"igm.busy_cycles", "cycles"},
      // mcm
      {"mcm.inferences", "count"},
      {"mcm.fifo_drops", "count"},
      {"mcm.drop_share", "ratio"},
      // gpgpu
      {"gpgpu.fast.us_per_inference.lstm_1cu", "us"},
      {"gpgpu.fast.us_per_inference.elm_5cu", "us"},
      {"gpgpu.cycle.us_per_inference.lstm_1cu", "us"},
      {"gpgpu.cycle.us_per_inference.elm_5cu", "us"},
      {"gpgpu.fast_launch_share", "ratio"},
      {"gpgpu.inflight_wall_share", "ratio"},
      // sim
      {"sim.skipped_edge_groups", "count"},
      {"sim.skip_share", "ratio"},
      // ml
      {"ml.train_ms", "ms"},
      {"ml.host_eval_us", "us"},
      // ensemble
      {"ensemble.retrain_ms", "ms"},
      {"ensemble.generations_trained", "count"},
      {"ensemble.member_evals", "count"},
      {"ensemble.swaps", "count"},
      // serve
      {"serve.run_s", "s"},
      {"serve.quanta", "count"},
      {"serve.offered", "count"},
      {"serve.completed", "count"},
      {"serve.shed", "count"},
      {"serve.recovered", "count"},
      {"serve.replay_sim_ms", "ms"},
      {"serve.checkpoints", "count"},
      {"serve.failover_rounds", "count"},
      {"serve.migrations", "count"},
      {"serve.queue_depth_max", "count"},
      // telemetry
      {"telemetry.append_ns_per_sample", "ns"},
      {"telemetry.rank_ms.full_window", "ms"},
      {"telemetry.rank_ms.recent_half", "ms"},
      {"telemetry.rank_ms.early_half", "ms"},
      {"telemetry.rank_ms.fast_decay", "ms"},
      {"telemetry.pages_sealed", "count"},
      {"telemetry.pages_evicted", "count"},
      {"telemetry.resident_mb", "MiB"},
      // the benchmark itself
      {"bench.spans", "count"},
      {"bench.trace_overhead_share", "ratio"},
  };
  for (const Row& r : kRows) m.set(r.name, 0.0, r.unit);
  for (const char* layer : kSpanLayers) {
    m.set(std::string(layer) + ".self_ms", 0.0, "ms");
  }
}

void add_span_metrics(const Spans& spans, std::uint64_t run_ns, Metrics& m) {
  const auto self = spans.self_ms_by_layer();
  for (const char* layer : kSpanLayers) {
    const auto it = self.find(layer);
    if (it != self.end()) m.set(std::string(layer) + ".self_ms", it->second, "ms");
  }
  const double n = static_cast<double>(spans.spans().size());
  m.set("bench.spans", n, "count");
  m.set("bench.trace_overhead_share",
        n * Spans::scope_cost_ns() / static_cast<double>(std::max<std::uint64_t>(run_ns, 1)),
        "ratio");
}

}  // namespace perfbench
