#include "rtad/gpgpu/gpu.hpp"

#include <algorithm>
#include <stdexcept>

#include "rtad/gpgpu/fastpath/fast_backend.hpp"

namespace rtad::gpgpu {

const char* to_string(GpuBackend backend) noexcept {
  return backend == GpuBackend::kFast ? "fast" : "cycle";
}

Gpu::Gpu(GpuConfig config)
    : sim::Component("gpu"),
      config_(config),
      mem_(std::make_unique<DeviceMemory>(config.memory_bytes)),
      coverage_(RtlInventory::instance().num_units(), 0) {
  if (config.num_cus == 0) throw std::invalid_argument("need >= 1 CU");
  for (std::uint32_t i = 0; i < config.num_cus; ++i) {
    cus_.push_back(std::make_unique<ComputeUnit>(
        i, *mem_, config.collect_coverage ? &coverage_ : nullptr, nullptr));
  }
  if (config_.backend == GpuBackend::kFast) {
    fast_ = std::make_unique<fastpath::FastBackend>(*mem_);
  }
}

Gpu::~Gpu() = default;

void Gpu::reset() {
  // Device memory contents survive reset (it is SRAM with a loaded model);
  // only execution state clears.
  program_ = nullptr;
  launch_active_ = false;
  next_workgroup_ = 0;
  workgroups_ = 0;
  groups_in_flight_ = 0;
  dispatch_cooldown_ = 0;
  cycle_ = 0;
  fast_pending_ = false;
  fast_running_ = false;
  fast_done_cycle_ = 0;
}

void Gpu::set_trim(std::optional<std::vector<bool>> retained) {
  if (retained && retained->size() != RtlInventory::instance().num_units()) {
    throw std::invalid_argument("trim mask size mismatch");
  }
  retained_ = std::move(retained);
  for (auto& cu : cus_) {
    cu->set_retained(retained_ ? &*retained_ : nullptr);
  }
}

void Gpu::set_coverage_enabled(bool on) {
  config_.collect_coverage = on;
  for (auto& cu : cus_) cu->set_coverage(on ? &coverage_ : nullptr);
}

void Gpu::reset_coverage() {
  std::fill(coverage_.begin(), coverage_.end(), 0);
}

void Gpu::launch(const LaunchConfig& launch) {
  if (launch_active_) throw std::logic_error("GPU already running a launch");
  if (launch.program == nullptr || launch.workgroups == 0 ||
      launch.waves_per_group == 0 || launch.waves_per_group > 8) {
    throw std::invalid_argument("bad launch configuration");
  }
  // Launches arrive from the MCM (fabric domain) while this domain may be
  // asleep with idle edges not yet replayed; catch up before sampling
  // cycle_ so last_launch_cycles() doesn't absorb the pre-launch sleep.
  sync_domain();
  program_ = launch.program;
  workgroups_ = launch.workgroups;
  waves_per_group_ = launch.waves_per_group;
  kernarg_addr_ = launch.kernarg_addr;
  next_workgroup_ = 0;
  groups_in_flight_ = 0;
  dispatch_cooldown_ = config_.dispatch_latency;
  launch_active_ = true;
  launch_start_cycle_ = cycle_;
  // Coverage collection needs the per-issue recording only the cycle
  // backend performs; the fast-path decision is re-taken per launch.
  fast_pending_ =
      config_.backend == GpuBackend::kFast && !config_.collect_coverage;
  launch_wall_start_ = std::chrono::steady_clock::now();
  kernel_trace_.begin(launch.program->name, sim_now());
  // The GPU domain sleeps between launches; pull it back onto its edges.
  request_wake();
}

void Gpu::set_observability(obs::Observer& ob, const std::string& domain) {
  acct_ = ob.account(name(), domain);
  obs::TraceSink* sink = ob.sink();
  if (sink == nullptr) return;
  kernel_trace_ = obs::TraceHandle(sink, sink->track("gpu.kernel"));
  cu_traces_.clear();
  for (std::size_t i = 0; i < cus_.size(); ++i) {
    cu_traces_.emplace_back(sink,
                            sink->track("gpu.cu" + std::to_string(i)));
  }
}

void Gpu::on_cycles_skipped(sim::Cycle n) {
  // Skips happen between launches (idle) or while a fast-backend launch
  // waits out its planned cycle count (busy — the cycle backend would have
  // ticked through those cycles, so the accounts must match it).
  obs::bump(acct_,
            launch_active_ ? obs::CycleBucket::kBusy : obs::CycleBucket::kIdle,
            n);
  cycle_ += n;
  for (auto& cu : cus_) cu->skip_cycles(n);
}

bool Gpu::idle() const noexcept { return !launch_active_; }

std::uint64_t Gpu::instructions_issued() const {
  std::uint64_t total = 0;
  for (const auto& cu : cus_) total += cu->instructions_issued();
  return total;
}

void Gpu::account_launch_wall() {
  launch_wall_ns_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - launch_wall_start_)
          .count());
}

bool Gpu::plan_fast_launch() {
  const fastpath::FastProgram* fp =
      fast_->prepare(*program_, retained_ ? &*retained_ : nullptr);
  if (fp == nullptr) return false;

  const fastpath::LaunchPlan plan =
      fast_->run(*fp, workgroups_, waves_per_group_, kernarg_addr_,
                 static_cast<std::uint32_t>(cus_.size()),
                 config_.dispatch_latency, launch_start_cycle_);
  fast_done_cycle_ = plan.done_cycle;
  for (std::size_t i = 0; i < cus_.size(); ++i) {
    cus_[i]->credit_issued(plan.issued_per_cu[i]);
  }

  // Emit the per-CU workgroup spans now, stamped with the timestamps the
  // cycle backend's edges would have carried. sim_now() is the edge of the
  // current cycle_; spans lie at planned future cycles of the same domain.
  const sim::Picoseconds now = sim_now();
  for (const fastpath::WorkgroupSpan& span : plan.spans) {
    if (span.cu >= cu_traces_.size()) continue;
    cu_traces_[span.cu].begin(
        program_->name,
        now + (span.dispatch_cycle - cycle_) * config_.clock_period_ps);
    cu_traces_[span.cu].end(
        now + (span.complete_cycle - cycle_) * config_.clock_period_ps);
  }
  ++fast_launches_;
  return true;
}

void Gpu::tick() {
  obs::bump(acct_, launch_active_ ? obs::CycleBucket::kBusy
                                  : obs::CycleBucket::kIdle);
  ++cycle_;

  if (fast_pending_) {
    // First edge after launch(): memory holds the final kernargs, so the
    // whole launch can execute functionally here. On fallback the cycle
    // dispatcher below takes over this very tick, exactly as if the launch
    // had been cycle-backed all along.
    fast_pending_ = false;
    fast_running_ = plan_fast_launch();
  }
  if (fast_running_) {
    for (auto& cu : cus_) cu->skip_cycles(1);
    if (cycle_ >= fast_done_cycle_) {
      fast_running_ = false;
      launch_active_ = false;
      last_launch_cycles_ = cycle_ - launch_start_cycle_;
      account_launch_wall();
      kernel_trace_.end(sim_now());
      if (completion_hook_) completion_hook_();
    }
    return;
  }

  if (launch_active_) {
    // Serial dispatcher: one workgroup assignment per dispatch_latency.
    if (dispatch_cooldown_ > 0) {
      --dispatch_cooldown_;
    }
    if (dispatch_cooldown_ == 0 && next_workgroup_ < workgroups_) {
      for (std::size_t i = 0; i < cus_.size(); ++i) {
        ComputeUnit& cu = *cus_[i];
        if (cu.idle()) {
          cu.start(WorkgroupTask{program_, next_workgroup_, waves_per_group_,
                                 kernarg_addr_});
          if (i < cu_traces_.size())
            cu_traces_[i].begin(program_->name, sim_now());
          ++next_workgroup_;
          ++groups_in_flight_;
          dispatch_cooldown_ = config_.dispatch_latency;
          break;
        }
      }
    }
  }

  for (std::size_t i = 0; i < cus_.size(); ++i) {
    if (cus_[i]->tick()) {
      --groups_in_flight_;
      if (i < cu_traces_.size()) cu_traces_[i].end(sim_now());
    }
  }

  if (launch_active_ && next_workgroup_ >= workgroups_ &&
      groups_in_flight_ == 0) {
    launch_active_ = false;
    last_launch_cycles_ = cycle_ - launch_start_cycle_;
    account_launch_wall();
    kernel_trace_.end(sim_now());
    if (completion_hook_) completion_hook_();
  }
}

std::uint64_t Gpu::run_to_completion(std::uint64_t max_cycles) {
  const std::uint64_t start = cycle_;
  while (launch_active_) {
    if (cycle_ - start >= max_cycles) {
      throw std::runtime_error("kernel did not complete within cycle limit");
    }
    tick();
    // Offline use has no event scheduler to honor the idle hint; replay the
    // fast backend's dead cycles in bulk here (capped so the cycle-limit
    // check above still fires at the same threshold).
    if (fast_running_ && fast_done_cycle_ > cycle_ + 1) {
      std::uint64_t n = fast_done_cycle_ - cycle_ - 1;
      n = std::min(n, start + max_cycles - cycle_);
      if (n > 0) on_cycles_skipped(n);
    }
  }
  return cycle_ - start;
}

}  // namespace rtad::gpgpu
