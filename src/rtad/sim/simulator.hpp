// Multi-clock-domain cycle scheduler.
//
// The RTAD prototype runs three synchronous islands: the Cortex-A9 host at
// 250 MHz, the MLPU fabric (IGM + MCM) at 125 MHz, and ML-MIAOW at 50 MHz
// (§IV). The simulator advances a global picosecond clock and fires each
// domain's rising edge at exact multiples of its period. Within one edge,
// components tick in registration order (stable and documented, like an RTL
// evaluation order); cross-domain communication always goes through FIFO
// models so one-edge skew cannot change functional results.
//
// Two scheduling kernels share the same edge grid:
//
//   * kDense       — fire every edge of every non-empty domain (the
//                    original kernel, kept as the bit-identity reference).
//   * kEventDriven — after each fired edge group the scheduler collects
//                    WakeHints from the domain's components; a domain whose
//                    components are all idle/blocked sleeps until its hint
//                    expires or a request_wake() lands, and the skipped
//                    edges are replayed in bulk via on_cycles_skipped().
//                    Skipped work is recorded in `sim.skipped_edge_groups`
//                    and `sim.skipped_cycles.<domain>` counters.
//
// Both kernels fire the surviving edges at identical timestamps in identical
// component order, so any observable that only changes inside tick() is
// bit-identical between them.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "rtad/sim/clock.hpp"
#include "rtad/sim/component.hpp"
#include "rtad/sim/stats.hpp"
#include "rtad/sim/time.hpp"

namespace rtad::sim {

enum class SchedMode : std::uint8_t {
  kDense,        ///< tick every edge (reference kernel)
  kEventDriven,  ///< skip quiescent edge groups via wake hints
};

const char* to_string(SchedMode mode) noexcept;

class Simulator {
 public:
  Simulator() {
    skipped_groups_ = &stats_.counter("sim.skipped_edge_groups");
  }

  /// Create a clock domain owned by the simulator.
  ClockDomain& add_clock(std::string name, std::uint64_t freq_hz);

  /// Attach a component (not owned) to a domain's rising edge. Safe
  /// mid-run: the first attach to a previously-empty domain clamps the
  /// domain's next edge to the first multiple of its period >= now().
  void attach(ClockDomain& domain, Component& component);

  /// Select the scheduling kernel. Call before running (switching between
  /// runs is fine; hints are re-collected from scratch).
  void set_mode(SchedMode mode) noexcept;
  SchedMode mode() const noexcept { return mode_; }

  /// Current global time.
  Picoseconds now() const noexcept { return now_ps_; }

  /// Reset all attached components and rewind time to zero.
  void reset();

  /// Advance until `deadline_ps` (inclusive of edges at the deadline).
  void run_until(Picoseconds deadline_ps);

  /// Advance edge-group by edge-group while `keep_going()` is true, up to a
  /// hard deadline (guards against wedged conditions). Returns time
  /// stopped; on edge exhaustion `now()` advances to the deadline, matching
  /// run_until.
  Picoseconds run_while(const std::function<bool()>& keep_going,
                        Picoseconds deadline_ps);

  /// Advance exactly `n` cycles of `domain`.
  void run_cycles(ClockDomain& domain, Cycle n);

  /// Fire the next pending edge group on the dense grid (every non-empty
  /// domain whose next edge is earliest), regardless of wake hints, if it
  /// lands at or before `deadline_ps`. Returns whether a group fired.
  /// Experiment drivers use this to replicate the dense kernel's
  /// one-group-past-a-window stop behaviour exactly in both modes.
  bool step_group(Picoseconds deadline_ps);

  StatsRegistry& stats() noexcept { return stats_; }
  const StatsRegistry& stats() const noexcept { return stats_; }

  /// Name and elapsed cycle count of every clock domain, in creation order.
  /// Identical across scheduler modes at every run-API boundary (skipped
  /// edges are caught up before control returns to the host).
  std::vector<std::pair<std::string, Cycle>> domain_cycles() const;

 private:
  friend class Component;

  using WakeHeap = std::priority_queue<Picoseconds, std::vector<Picoseconds>,
                                       std::greater<Picoseconds>>;

  struct DomainSlot {
    std::unique_ptr<ClockDomain> domain;
    Picoseconds next_edge_ps;
    std::vector<Component*> components;
    /// Aggregated hint collected after the domain's last fired edge:
    /// 0 = some component is active, WakeHint::kBlockedCycles = all
    /// blocked, otherwise the smallest idle_for() across components.
    Cycle idle_cycles = 0;
    /// Pending request_wake() timestamps (min-heap; stale entries are
    /// popped when the domain fires).
    WakeHeap wakes;
    Counter* skipped_cycles = nullptr;  ///< sim.skipped_cycles.<name>
    /// Memoized due() — the scheduler queries due() several times per
    /// group for every slot, while a group only mutates the slots that
    /// fired. Mutable: refreshed from within the const accessor; every
    /// mutation of next_edge_ps/idle_cycles/wakes sets due_dirty.
    mutable Picoseconds due_cache = 0;
    mutable bool due_dirty = true;
  };

  /// Earliest timestamp at which `slot` must fire given its hint and
  /// pending wakes (always edge-aligned).
  Picoseconds due(const DomainSlot& slot) const;
  /// min of due() over non-empty domains; kNever when nothing is attached.
  Picoseconds next_due() const;
  /// Fire every domain due at `t` (forced: every domain whose next edge is
  /// at `t`), catching up skipped cycles first and re-collecting hints.
  void fire_group_at(Picoseconds t, bool forced);
  /// Replay `slot`'s skipped edges up to the last one <= `limit_ps` and
  /// shrink its remaining idle allowance accordingly.
  void catch_up_slot(DomainSlot& slot, Picoseconds limit_ps);
  /// Advance now() to at least `deadline_ps`, account the skipped dense
  /// groups, and catch every sleeping domain up to the new now(). Every
  /// public run API ends with this so host code between calls observes the
  /// same component state the dense kernel would show. Only legal when
  /// next_due() > deadline_ps (callers guarantee it).
  void advance_to(Picoseconds deadline_ps);
  /// Catch one domain up to dense-visible state mid-group (see
  /// Component::sync_domain()).
  void sync_domain(std::size_t index);
  /// Aggregate hint for a domain (0 as soon as one component is active).
  Cycle collect_hint(const DomainSlot& slot) const;
  /// Dense edge-group timestamps in (from, to] — the groups the dense
  /// kernel would have fired there. Used for the skip accounting.
  std::uint64_t dense_groups_in(Picoseconds from, Picoseconds to) const;
  void rebuild_group_grid();
  void wake_domain(std::size_t index);
  bool has_components() const noexcept;

  static constexpr Picoseconds kNever = ~Picoseconds{0};
  static constexpr std::size_t kNotFiring = ~std::size_t{0};

  std::vector<DomainSlot> domains_;
  Picoseconds now_ps_ = 0;
  /// Index of the domain currently being ticked inside fire_group_at();
  /// kNotFiring between groups. Decides same-timestamp wake visibility.
  std::size_t firing_index_ = kNotFiring;
  SchedMode mode_ = SchedMode::kEventDriven;
  StatsRegistry stats_;
  Counter* skipped_groups_ = nullptr;

  // Cached description of the dense group grid (rebuilt on attach):
  // when every attached period is a multiple of the smallest one, dense
  // groups are exactly the multiples of that period (one division per
  // query); otherwise fall back to inclusion-exclusion over subset lcms.
  Picoseconds grid_min_period_ = 0;  ///< 0 = no attached domains
  bool grid_uniform_ = true;
  struct GridTerm {
    Picoseconds lcm;
    std::int64_t sign;
  };
  std::vector<GridTerm> grid_terms_;
};

}  // namespace rtad::sim
