#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "rtad/obs/cycle_account.hpp"
#include "rtad/obs/trace_sink.hpp"

namespace rtad::obs {

/// Per-run observability context: an optional trace sink plus a registry of
/// per-component cycle accounts. One Observer per SoC instance; components
/// receive raw pointers/handles into it and the SoC run must not outlive it.
class Observer {
 public:
  /// `enable_trace` controls whether a TraceSink exists; cycle accounts are
  /// always collected once components register (registering is the opt-in).
  explicit Observer(bool enable_trace) {
    if (enable_trace) sink_ = std::make_unique<TraceSink>();
  }

  /// Null when tracing is disabled; components must tolerate that.
  TraceSink* sink() const { return sink_.get(); }

  /// Registers (component, clock-domain) and returns a stable pointer the
  /// component bumps per cycle. Registration order is the export order.
  CycleAccount* account(std::string component, std::string domain) {
    entries_.push_back(Entry{std::move(component), std::move(domain), {}});
    return &entries_.back().cycles;
  }

  /// Labelled copies of every registered account, in registration order.
  std::vector<ComponentCycles> snapshot_accounts() const {
    std::vector<ComponentCycles> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_)
      out.push_back(ComponentCycles{e.component, e.domain, e.cycles});
    return out;
  }

 private:
  struct Entry {
    std::string component;
    std::string domain;
    CycleAccount cycles;
  };

  std::unique_ptr<TraceSink> sink_;
  std::deque<Entry> entries_;  // deque: account pointers stay stable
};

/// Derives the per-cell output path for run index `index` by inserting
/// ".cellNNN" before a trailing ".json" (or appending it otherwise), so a
/// matrix run never has two cells racing on one file. Empty base stays empty.
std::string indexed_path(const std::string& base, std::size_t index);

}  // namespace rtad::obs
