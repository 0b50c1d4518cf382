#include "rtad/sim/simulator.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace rtad::sim {

const char* to_string(SchedMode mode) noexcept {
  return mode == SchedMode::kDense ? "dense" : "event";
}

void Component::request_wake() {
  if (sim_ != nullptr) sim_->wake_domain(domain_index_);
}

Picoseconds Component::sim_now() const {
  return sim_ != nullptr ? sim_->now() : 0;
}

ClockDomain& Simulator::add_clock(std::string name, std::uint64_t freq_hz) {
  auto domain = std::make_unique<ClockDomain>(std::move(name), freq_hz);
  ClockDomain& ref = *domain;
  DomainSlot slot;
  slot.domain = std::move(domain);
  slot.next_edge_ps = ref.period_ps();
  slot.skipped_cycles = &stats_.counter("sim.skipped_cycles." + ref.name());
  domains_.push_back(std::move(slot));
  return ref;
}

void Simulator::attach(ClockDomain& domain, Component& component) {
  for (std::size_t i = 0; i < domains_.size(); ++i) {
    auto& slot = domains_[i];
    if (slot.domain.get() != &domain) continue;
    if (slot.components.empty()) {
      // The scheduler ignores empty domains, so next_edge_ps never advanced
      // while this domain had no components; clamp to the first edge at or
      // after now() so a mid-run attach cannot fire edges in the past.
      const Picoseconds period = domain.period_ps();
      const Picoseconds first =
          now_ps_ == 0 ? period : ((now_ps_ + period - 1) / period) * period;
      slot.next_edge_ps = std::max(first, period);
    }
    slot.components.push_back(&component);
    component.sim_ = this;
    component.domain_index_ = i;
    slot.idle_cycles = 0;  // a fresh component defaults to active
    slot.due_dirty = true;
    rebuild_group_grid();
    return;
  }
  throw std::invalid_argument("clock domain does not belong to this simulator");
}

void Simulator::set_mode(SchedMode mode) noexcept {
  mode_ = mode;
  for (auto& slot : domains_) {
    slot.idle_cycles = 0;
    slot.wakes = WakeHeap{};
    slot.due_dirty = true;
  }
}

void Simulator::reset() {
  now_ps_ = 0;
  for (auto& slot : domains_) {
    slot.next_edge_ps = slot.domain->period_ps();
    slot.domain->cycles_ = 0;
    slot.idle_cycles = 0;
    slot.wakes = WakeHeap{};
    slot.due_dirty = true;
    for (Component* c : slot.components) c->reset();
  }
}

bool Simulator::has_components() const noexcept {
  for (const auto& slot : domains_) {
    if (!slot.components.empty()) return true;
  }
  return false;
}

Cycle Simulator::collect_hint(const DomainSlot& slot) const {
  if (mode_ != SchedMode::kEventDriven) return 0;
  Cycle min_idle = WakeHint::kBlockedCycles;
  for (const Component* c : slot.components) {
    const Cycle n = c->next_wake().idle_cycles;
    if (n == 0) return 0;
    min_idle = std::min(min_idle, n);
  }
  return min_idle;
}

Picoseconds Simulator::due(const DomainSlot& slot) const {
  if (!slot.due_dirty) return slot.due_cache;
  const Picoseconds edge = slot.next_edge_ps;
  Picoseconds d = edge;
  if (mode_ == SchedMode::kEventDriven && slot.idle_cycles != 0) {
    const Picoseconds period = slot.domain->period_ps();
    d = kNever;
    if (slot.idle_cycles != WakeHint::kBlockedCycles &&
        slot.idle_cycles < (kNever - edge) / period) {
      d = edge + slot.idle_cycles * period;
    }
    if (!slot.wakes.empty()) {
      const Picoseconds w = slot.wakes.top();
      const Picoseconds aligned =
          w <= edge ? edge : edge + ((w - edge + period - 1) / period) * period;
      d = std::min(d, aligned);
    }
  }
  slot.due_cache = d;
  slot.due_dirty = false;
  return d;
}

Picoseconds Simulator::next_due() const {
  Picoseconds best = kNever;
  for (const auto& slot : domains_) {
    if (!slot.components.empty()) best = std::min(best, due(slot));
  }
  return best;
}

void Simulator::rebuild_group_grid() {
  std::vector<Picoseconds> periods;
  for (const auto& slot : domains_) {
    if (slot.components.empty()) continue;
    const Picoseconds p = slot.domain->period_ps();
    if (std::find(periods.begin(), periods.end(), p) == periods.end()) {
      periods.push_back(p);
    }
  }
  grid_terms_.clear();
  if (periods.empty()) {
    grid_min_period_ = 0;
    grid_uniform_ = true;
    return;
  }
  grid_min_period_ = *std::min_element(periods.begin(), periods.end());
  grid_uniform_ = true;
  for (const Picoseconds p : periods) {
    if (p % grid_min_period_ != 0) grid_uniform_ = false;
  }
  if (grid_uniform_ || periods.size() > 12) {
    // With > 12 distinct non-nested periods (never in practice) the
    // inclusion-exclusion table explodes; approximate with the min grid.
    grid_uniform_ = true;
    return;
  }
  // Inclusion-exclusion over subset lcms: |union of multiples of p_i|.
  const std::size_t n = periods.size();
  for (std::size_t mask = 1; mask < (std::size_t{1} << n); ++mask) {
    Picoseconds l = 1;
    bool overflow = false;
    int bits = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!(mask & (std::size_t{1} << i))) continue;
      ++bits;
      const Picoseconds g = std::gcd(l, periods[i]);
      const Picoseconds q = periods[i] / g;
      if (l > kNever / q) {
        overflow = true;  // lcm beyond any timestamp: contributes nothing
        break;
      }
      l *= q;
    }
    if (overflow) continue;
    grid_terms_.push_back({l, (bits % 2 == 1) ? std::int64_t{1} : -1});
  }
}

std::uint64_t Simulator::dense_groups_in(Picoseconds from,
                                         Picoseconds to) const {
  if (grid_min_period_ == 0 || to <= from) return 0;
  if (grid_uniform_) {
    return to / grid_min_period_ - from / grid_min_period_;
  }
  std::int64_t total = 0;
  for (const auto& term : grid_terms_) {
    total += term.sign *
             static_cast<std::int64_t>(to / term.lcm - from / term.lcm);
  }
  return total > 0 ? static_cast<std::uint64_t>(total) : 0;
}

void Simulator::wake_domain(std::size_t index) {
  DomainSlot& slot = domains_[index];
  if (mode_ != SchedMode::kEventDriven || slot.idle_cycles == 0) return;
  // A wake requested by a domain that ticks *before* the target within a
  // group may take effect at the current timestamp (the target's edge at t,
  // if any, has not fired yet). A wake from the target itself, a later
  // domain, or host code between groups becomes visible at the next edge
  // strictly after t — exactly when the dense kernel would first observe
  // the state change (the target's edge at t already evaluated, seeing the
  // pre-change state).
  const bool forward = firing_index_ != kNotFiring && firing_index_ < index;
  slot.wakes.push(forward ? now_ps_ : now_ps_ + 1);
  slot.due_dirty = true;
}

void Simulator::fire_group_at(Picoseconds t, bool forced) {
  if (mode_ == SchedMode::kEventDriven && t > now_ps_) {
    const std::uint64_t dense_groups = dense_groups_in(now_ps_, t);
    if (dense_groups > 1) skipped_groups_->add(dense_groups - 1);
  }
  now_ps_ = t;
  // Fire every domain due at t. Faster domains were registered first in the
  // SoC builders, so e.g. the CPU produces trace bytes before the IGM edge
  // at coincident timestamps — matching the producer-before-consumer skew
  // of the hardware. due() is recomputed per slot inside the loop so a wake
  // raised by an earlier domain at t can pull a sleeping, edge-aligned
  // later domain into this same group.
  for (std::size_t i = 0; i < domains_.size(); ++i) {
    DomainSlot& slot = domains_[i];
    if (slot.components.empty()) continue;
    if (forced ? slot.next_edge_ps != t : due(slot) != t) continue;
    const Picoseconds period = slot.domain->period_ps();
    const Cycle skipped = (t - slot.next_edge_ps) / period;
    if (skipped > 0) {
      for (Component* c : slot.components) c->on_cycles_skipped(skipped);
      slot.domain->cycles_ += skipped;
      slot.skipped_cycles->add(skipped);
      slot.next_edge_ps += skipped * period;
    }
    firing_index_ = i;
    for (Component* c : slot.components) c->tick();
    firing_index_ = kNotFiring;
    slot.domain->advance_one_cycle();
    slot.next_edge_ps += period;
    while (!slot.wakes.empty() && slot.wakes.top() <= t) slot.wakes.pop();
    slot.idle_cycles = collect_hint(slot);
    slot.due_dirty = true;
  }
}

void Simulator::catch_up_slot(DomainSlot& slot, Picoseconds limit_ps) {
  if (slot.components.empty() || slot.idle_cycles == 0) return;
  if (slot.next_edge_ps > limit_ps) return;
  const Picoseconds period = slot.domain->period_ps();
  const Cycle skipped = (limit_ps - slot.next_edge_ps) / period + 1;
  for (Component* c : slot.components) c->on_cycles_skipped(skipped);
  slot.domain->cycles_ += skipped;
  slot.skipped_cycles->add(skipped);
  slot.next_edge_ps += skipped * period;
  // The replayed edges consume part of the slot's idle allowance; keeping
  // the old count would push the idle-based due() `skipped` periods late.
  if (slot.idle_cycles != WakeHint::kBlockedCycles) {
    slot.idle_cycles =
        slot.idle_cycles > skipped ? slot.idle_cycles - skipped : 0;
  }
  slot.due_dirty = true;
}

void Simulator::advance_to(Picoseconds deadline_ps) {
  if (mode_ == SchedMode::kEventDriven) {
    if (deadline_ps > now_ps_) {
      skipped_groups_->add(dense_groups_in(now_ps_, deadline_ps));
    }
    // Replay every sleeping domain's edges up to the deadline: after this,
    // component state is exactly what the dense kernel would show — public
    // run APIs call this on every exit path so host code (e.g. arming an
    // attack off program_instructions()) never observes a lazily-deferred
    // edge.
    const Picoseconds limit = std::max(now_ps_, deadline_ps);
    for (auto& slot : domains_) catch_up_slot(slot, limit);
  }
  now_ps_ = std::max(now_ps_, deadline_ps);
}

void Simulator::sync_domain(std::size_t index) {
  if (mode_ != SchedMode::kEventDriven) return;
  DomainSlot& slot = domains_[index];
  // A domain firing earlier in the current group mutates state its target
  // domain's edge at now() has not seen yet in dense order; edges strictly
  // before now() have fired either way. Everywhere else (a later domain or
  // host code) the target's edge at now() has already fired densely.
  const bool target_fires_later =
      firing_index_ != kNotFiring && firing_index_ < index;
  const Picoseconds limit =
      target_fires_later ? (now_ps_ == 0 ? 0 : now_ps_ - 1) : now_ps_;
  catch_up_slot(slot, limit);
}

void Component::sync_domain() {
  if (sim_ != nullptr) sim_->sync_domain(domain_index_);
}

void Simulator::run_until(Picoseconds deadline_ps) {
  for (;;) {
    const Picoseconds t = next_due();
    if (t > deadline_ps) break;  // kNever (nothing attached) included
    fire_group_at(t, /*forced=*/false);
  }
  advance_to(deadline_ps);
}

Picoseconds Simulator::run_while(const std::function<bool()>& keep_going,
                                 Picoseconds deadline_ps) {
  while (keep_going()) {
    const Picoseconds t = next_due();
    if (t > deadline_ps) {
      // Edge exhaustion: advance to the deadline like run_until does.
      advance_to(deadline_ps);
      return now_ps_;
    }
    fire_group_at(t, /*forced=*/false);
  }
  advance_to(now_ps_);  // settle lazily-skipped edges <= now for the caller
  return now_ps_;
}

void Simulator::run_cycles(ClockDomain& domain, Cycle n) {
  DomainSlot* target = nullptr;
  for (auto& slot : domains_) {
    if (slot.domain.get() == &domain) target = &slot;
  }
  if (target == nullptr) {
    throw std::invalid_argument("clock domain does not belong to this simulator");
  }
  if (!has_components() || target->components.empty()) {
    throw std::runtime_error("simulator has no attached components");
  }
  const Cycle goal = domain.cycles() + n;
  while (domain.cycles() < goal) {
    // Timestamp of the goal-th edge of the target domain; nothing past it
    // may fire, and a fully quiescent window is skipped in one step.
    const Picoseconds finish =
        target->next_edge_ps +
        (goal - domain.cycles() - 1) * domain.period_ps();
    const Picoseconds t = next_due();
    if (t <= finish) {
      fire_group_at(t, /*forced=*/false);
    } else {
      advance_to(finish);
    }
  }
  advance_to(now_ps_);
}

bool Simulator::step_group(Picoseconds deadline_ps) {
  // Normalize sleeping domains onto edges after now() (legal: at an API
  // boundary every due() is > now()), then fire the next dense-grid group.
  advance_to(now_ps_);
  Picoseconds t = kNever;
  for (const auto& slot : domains_) {
    if (!slot.components.empty()) t = std::min(t, slot.next_edge_ps);
  }
  if (t == kNever || t > deadline_ps) return false;
  fire_group_at(t, /*forced=*/true);
  advance_to(now_ps_);
  return true;
}

std::vector<std::pair<std::string, Cycle>> Simulator::domain_cycles() const {
  std::vector<std::pair<std::string, Cycle>> out;
  out.reserve(domains_.size());
  for (const auto& slot : domains_)
    out.emplace_back(slot.domain->name(), slot.domain->cycles());
  return out;
}

}  // namespace rtad::sim
