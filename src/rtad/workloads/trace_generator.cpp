#include "rtad/workloads/trace_generator.hpp"

#include <algorithm>
#include <cassert>

namespace rtad::workloads {

namespace {
constexpr std::size_t kMaxCallDepth = 64;

// Call-target dynamics: a local random walk over the call graph (programs
// traverse clusters of related functions — a module's helpers sit close
// together) with Zipf-distributed restarts (returns to hot entry points).
// The restart distribution makes long-run function popularity heavy-tailed
// — so a *rate-targeted* monitored subset exists at every depth — while
// the local walk gives the call sequence the temporal structure the LSTM
// branch models learn.
constexpr double kCallRestartProbability = 0.15;
constexpr std::int64_t kCallWalkSpan = 3;  ///< walk step in [-span, +span]

std::size_t function_count(const SpecProfile& p) {
  // Large enough that the restart-Zipf tail offers arbitrarily quiet
  // "modules": the monitored-site rate calibration needs windows whose mass
  // sits below ~1e-3 even for programs with sparse call activity.
  return std::max<std::size_t>(4096, p.branch_sites);
}
}  // namespace

TraceGenerator::TraceGenerator(const SpecProfile& profile, std::uint64_t seed,
                               DriftCursor drift)
    : profile_(profile),
      drift_(drift),
      rng_(seed),
      site_zipf_(std::min(profile.phase_window, profile.branch_sites),
                 profile.zipf_skew),
      func_restart_zipf_(function_count(profile), kFuncRestartSkew),
      syscall_zipf_(profile.syscall_kinds, profile.syscall_zipf_skew),
      gap_geo_(profile.branch_fraction),
      phase_geo_(1.0 / static_cast<double>(profile.phase_length_branches)),
      syscall_geo_(1.0 /
                   static_cast<double>(profile.syscall_interval_instrs)) {
  sites_.reserve(profile_.branch_sites);
  for (std::size_t i = 0; i < profile_.branch_sites; ++i) {
    // ~16-byte average spacing with deterministic jitter; even addresses
    // (PFT never traces bit 0).
    const std::uint64_t jitter = ((i * 2654435761ULL) >> 27) & 0xEULL;
    sites_.push_back(profile_.code_base + i * 16 + jitter);
  }
  const std::size_t n_funcs = function_count(profile_);
  funcs_.reserve(n_funcs);
  for (std::size_t j = 0; j < n_funcs; ++j) {
    funcs_.push_back(profile_.code_base + 0x8'0000 + j * 256);
  }
  branches_until_phase_switch_ = 1 + phase_geo_.sample(rng_);
  instrs_until_syscall_ =
      static_cast<std::int64_t>(1 + syscall_geo_.sample(rng_));
  refresh_drift_phase();
}

void TraceGenerator::refresh_drift_phase() noexcept {
  const DriftSchedule& d = profile_.drift;
  if (!d.active() || drift_.frozen) {
    drift_phase_ = d.phase_at_ps(drift_.base_ps);
    drift_refresh_at_ = ~std::uint64_t{0};
    return;
  }
  const std::uint64_t at = drift_.base_ps + instructions_ * kNominalPsPerInstr;
  drift_phase_ = d.phase_at_ps(at);
  // First instruction count whose program time reaches the next period
  // boundary; the phase cannot change before it.
  const std::uint64_t period_ps = d.period_us * 1'000'000ULL;
  const std::uint64_t boundary = (at / period_ps + 1) * period_ps;
  drift_refresh_at_ =
      (boundary - drift_.base_ps + kNominalPsPerInstr - 1) / kNominalPsPerInstr;
}

std::uint64_t TraceGenerator::sample_site_in_phase() {
  // maybe_switch_phase() keeps phase_offset_ < sites - window (or 0 when
  // the window covers every site) and the draw is < window, so the index
  // never wraps.
  const std::size_t idx = phase_offset_ + site_zipf_.sample(rng_);
  assert(idx < sites_.size());
  return sites_[idx];
}

void TraceGenerator::maybe_switch_phase() {
  if (--branches_until_phase_switch_ > 0) return;
  const std::size_t window = std::min(profile_.phase_window, sites_.size());
  const std::size_t span = sites_.size() > window ? sites_.size() - window : 1;
  phase_offset_ = rng_.uniform_below(span);
  branches_until_phase_switch_ = 1 + phase_geo_.sample(rng_);
}

TraceStep TraceGenerator::next() {
  TraceStep step;
  // gap ~ Geometric(f) non-branch instructions, then the branch itself:
  // one branch per 1/f instructions on average.
  const std::uint32_t gap = static_cast<std::uint32_t>(gap_geo_.sample(rng_));
  step.instr_gap = gap;
  instructions_ += gap + 1;  // the branch is an instruction too
  ++branches_;
  if (instructions_ >= drift_refresh_at_) refresh_drift_phase();
  maybe_switch_phase();
  // Drift phase of this branch. Every phase effect below reshapes an
  // existing draw — none adds or removes one — so generators with and
  // without an active schedule stay in RNG lockstep.
  const std::uint32_t drift_ph = drift_phase_;

  cpu::BranchEvent& ev = step.event;
  ev.source = sample_site_in_phase();
  ev.taken = true;

  instrs_until_syscall_ -= gap + 1;
  if (instrs_until_syscall_ <= 0) {
    ev.kind = cpu::BranchKind::kSyscall;
    std::size_t id = syscall_zipf_.sample(rng_);
    id = (id + static_cast<std::size_t>(drift_ph) *
                   profile_.drift.syscall_rotate) %
         profile_.syscall_kinds;
    ev.target = syscall_address(id);
    instrs_until_syscall_ =
        static_cast<std::int64_t>(1 + syscall_geo_.sample(rng_));
    return step;
  }

  const double u = rng_.uniform();
  const double call_cut = profile_.call_fraction;
  const double ret_cut = call_cut + profile_.return_fraction;
  const double ind_cut = ret_cut + profile_.indirect_fraction;

  if (u < call_cut) {
    ev.kind = cpu::BranchKind::kCall;
    if (rng_.chance(kCallRestartProbability)) {
      current_func_ = func_restart_zipf_.sample(rng_);
    } else {
      const std::int64_t raw =
          static_cast<std::int64_t>(rng_.uniform_below(2 * kCallWalkSpan)) -
          kCallWalkSpan;
      std::int64_t step = raw >= 0 ? raw + 1 : raw;
      if (drift_ph != 0) {
        step += (drift_ph % 2 != 0) ? profile_.drift.walk_bias
                                    : -profile_.drift.walk_bias;
      }
      // Saturate at the ends (no wrap-around: index distance is "module
      // distance", and the hot head must not leak into the deep tail).
      const auto n = static_cast<std::int64_t>(funcs_.size());
      const std::int64_t next =
          std::clamp<std::int64_t>(
              static_cast<std::int64_t>(current_func_) + step, 0, n - 1);
      current_func_ = static_cast<std::size_t>(next);
    }
    ev.target = funcs_[current_func_];
    if (call_stack_.size() >= kMaxCallDepth) {
      call_stack_.erase(call_stack_.begin());
    }
    call_stack_.push_back(ev.source + 4);
  } else if (u < ret_cut && !call_stack_.empty()) {
    ev.kind = cpu::BranchKind::kReturn;
    ev.target = call_stack_.back();
    call_stack_.pop_back();
  } else if (u < ind_cut) {
    ev.kind = cpu::BranchKind::kIndirectJump;
    ev.target = sample_site_in_phase();
  } else {
    ev.kind = cpu::BranchKind::kConditional;
    double taken_rate = profile_.cond_taken_rate;
    if (drift_ph != 0) {
      taken_rate += (drift_ph % 2 != 0) ? profile_.drift.taken_swing
                                        : -profile_.drift.taken_swing;
      taken_rate = std::clamp(taken_rate, 0.01, 0.99);
    }
    ev.taken = rng_.chance(taken_rate);
    // Short forward/backward offset; atoms do not carry it, but keeping a
    // plausible target makes the event stream self-consistent.
    const std::uint64_t offset = (rng_.uniform_below(64) + 1) * 2;
    ev.target = rng_.chance(0.5) ? ev.source + offset
                                 : (ev.source > offset ? ev.source - offset
                                                       : ev.source + offset);
  }
  return step;
}

std::ptrdiff_t TraceGenerator::function_index(
    std::uint64_t address) const noexcept {
  const std::uint64_t base = profile_.code_base + 0x8'0000;
  if (address < base || (address - base) % 256 != 0) return -1;
  const std::uint64_t idx = (address - base) / 256;
  if (idx >= funcs_.size()) return -1;
  return static_cast<std::ptrdiff_t>(idx);
}

std::vector<TraceStep> TraceGenerator::take(std::size_t n) {
  std::vector<TraceStep> steps;
  steps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) steps.push_back(next());
  return steps;
}

}  // namespace rtad::workloads
