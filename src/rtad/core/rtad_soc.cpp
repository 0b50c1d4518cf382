#include "rtad/core/rtad_soc.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "rtad/gpgpu/rtl_inventory.hpp"

namespace rtad::core {

const char* to_string(EngineKind kind) noexcept {
  switch (kind) {
    case EngineKind::kMiaow: return "MIAOW";
    case EngineKind::kMlMiaow: return "ML-MIAOW";
  }
  return "?";
}

const char* to_string(ModelKind kind) noexcept {
  switch (kind) {
    case ModelKind::kElm: return "ELM";
    case ModelKind::kLstm: return "LSTM";
  }
  return "?";
}

gpgpu::GpuConfig gpu_config_for(EngineKind kind,
                                std::uint32_t dispatch_latency) {
  gpgpu::GpuConfig cfg;
  cfg.dispatch_latency = dispatch_latency;
  cfg.num_cus = kind == EngineKind::kMlMiaow ? 5 : 1;
  return cfg;
}

RtadSoc::RtadSoc(SocConfig config, const ml::ModelImage* image,
                 const ml::DatasetBuilder* features)
    : config_(std::move(config)) {
  if (image != nullptr && features == nullptr) {
    throw std::invalid_argument("a model image requires feature tables");
  }
  sim_.set_mode(config_.sched);

  // --- fault layer (absent unless the plan actually does something, so
  // fault-free runs are byte-identical to a build without it) ---
  if (config_.faults && config_.faults->any()) {
    fault_injector_ =
        std::make_unique<fault::FaultInjector>(*config_.faults, config_.seed);
  }

  // --- workload + attack path ---
  generator_ = std::make_unique<workloads::TraceGenerator>(
      config_.profile, config_.seed,
      workloads::DriftCursor{config_.drift_base_ps, /*frozen=*/false});
  generator_source_ = std::make_unique<cpu::GeneratorSource>(*generator_);

  std::vector<std::uint64_t> pool;
  attack::AttackConfig attack_cfg =
      config_.attack.value_or(attack::AttackConfig{});
  if (features != nullptr) {
    if (config_.model == ModelKind::kElm) {
      attack_cfg.as_syscalls = true;
      for (std::size_t i = 0; i < config_.profile.syscall_kinds; ++i) {
        pool.push_back(workloads::TraceGenerator::syscall_address(i));
      }
    } else {
      attack_cfg.as_syscalls = false;
      pool = features->monitored_addresses();
    }
  } else {
    pool.push_back(config_.profile.code_base);  // unused placeholder
  }
  injector_ =
      std::make_unique<attack::AttackInjector>(*generator_source_, pool,
                                               attack_cfg);

  // --- clock domains (register fast first: producers tick before
  // consumers at coincident edges) ---
  auto& cpu_clk = sim_.add_clock("cpu", config_.clocks.cpu_hz);
  auto& fabric_clk = sim_.add_clock("mlpu", config_.clocks.fabric_hz);
  auto& gpu_clk = sim_.add_clock("gpu", config_.clocks.gpu_hz);

  // --- CoreSight ---
  coresight::TraceSourceConfig source_cfg = config_.trace_source;
  source_cfg.enabled = cpu::uses_hw_trace(config_.mode);
  source_cfg.protocol = config_.trace_proto;
  trace_source_ = std::make_unique<coresight::TraceSource>(source_cfg);
  tpiu_ = std::make_unique<coresight::Tpiu>(trace_source_->tx_fifo());
  tpiu_->set_fault_injector(fault_injector_.get());

  // --- host CPU ---
  cpu::HostCpuConfig cpu_cfg;
  cpu_cfg.clock_period_ps = cpu_clk.period_ps();
  cpu_cfg.mode = config_.mode;
  cpu_ = std::make_unique<cpu::HostCpu>(cpu_cfg, *injector_,
                                        trace_source_.get());

  // --- MLPU ---
  igm::IgmConfig igm_cfg = config_.igm;
  igm_cfg.clock_period_ps = fabric_clk.period_ps();
  igm_cfg.protocol = config_.trace_proto;
  if (config_.model == ModelKind::kElm) {
    igm_cfg.encoder.encoding = igm::Encoding::kSlidingHistogram;
    igm_cfg.encoder.hash_fallback = true;
    if (features != nullptr) {
      igm_cfg.encoder.vocab_size = features->config().elm_vocab;
      igm_cfg.encoder.window = features->config().elm_window;
    }
  } else {
    igm_cfg.encoder.encoding = igm::Encoding::kTokenStream;
    igm_cfg.encoder.hash_fallback = false;
    if (features != nullptr) {
      igm_cfg.encoder.vocab_size = features->config().lstm_vocab;
    }
  }
  mcm::McmConfig mcm_cfg = config_.mcm;
  if (fault_injector_ != nullptr) {
    // Structural degradation knobs from the plan (only applied when the
    // fault layer is live, preserving fault-free configurations exactly).
    const auto& plan = fault_injector_->plan();
    if (plan.fifo_squeeze > 0) {
      igm_cfg.out_capacity = std::min(igm_cfg.out_capacity, plan.fifo_squeeze);
      mcm_cfg.fifo_depth = std::min(mcm_cfg.fifo_depth, plan.fifo_squeeze);
    }
    if (plan.igm_drop_resync) {
      igm_cfg.ta_overflow = igm::OverflowPolicy::kDropResync;
    }
    if (plan.mcm_drop_oldest) {
      mcm_cfg.drop_policy = sim::DropPolicy::kDropOldest;
    }
    if (plan.watchdog_cycles > 0) {
      mcm_cfg.watchdog_cycles = plan.watchdog_cycles;
    }
  }

  igm_ = std::make_unique<igm::Igm>(igm_cfg, tpiu_->port());

  gpgpu::GpuConfig gpu_cfg =
      gpu_config_for(config_.engine, config_.gpu_dispatch_latency);
  gpu_cfg.backend = config_.gpu_backend;
  gpu_cfg.clock_period_ps = gpu_clk.period_ps();
  gpu_ = std::make_unique<gpgpu::Gpu>(gpu_cfg);
  if (config_.engine == EngineKind::kMlMiaow) {
    gpu_->set_trim(gpgpu::RtlInventory::instance().ml_retained());
  }

  mcm_cfg.clock_period_ps = fabric_clk.period_ps();
  mcm_ = std::make_unique<mcm::Mcm>(mcm_cfg, *igm_, *gpu_,
                                    fault_injector_.get());

  // IRQ wiring: MCM interrupt manager -> host CPU.
  mcm_->set_interrupt_handler([this](const mcm::InferenceRecord& rec) {
    cpu_->raise_irq(rec.completed_ps);
  });

  // --- IGM tables + model load ---
  if (features != nullptr) program_igm_tables(*features);
  if (image != nullptr) mcm_->load_model(image);

  // --- attach to clocks ---
  sim_.attach(cpu_clk, *cpu_);
  sim_.attach(cpu_clk, *trace_source_);
  const bool mlpu_active = cpu::uses_hw_trace(config_.mode);
  if (mlpu_active) {
    sim_.attach(fabric_clk, *tpiu_);
    sim_.attach(fabric_clk, *igm_);
    sim_.attach(fabric_clk, *mcm_);
    sim_.attach(gpu_clk, *gpu_);
  }

  // --- observability (installed last, per the SocConfig contract, so
  // construction and model-load traffic is outside the trace). Only
  // attached components register accounts: detached modules never tick,
  // and a permanently-zero account would break the buckets == domain
  // cycles conservation check. ---
  if (config_.observer != nullptr) {
    obs::Observer& ob = *config_.observer;
    cpu_->set_observability(ob, "cpu");
    trace_source_->set_observability(ob, "cpu");
    if (mlpu_active) {
      tpiu_->set_observability(ob, "mlpu");
      igm_->set_observability(ob, "mlpu");
      mcm_->set_observability(ob, "mlpu");
      gpu_->set_observability(ob, "gpu");
    }
  }
}

RtadSoc::~RtadSoc() = default;

void RtadSoc::program_igm_tables(const ml::DatasetBuilder& features) {
  auto& mapper = igm_->mapper();
  auto& encoder = igm_->encoder();
  mapper.clear();
  if (config_.model == ModelKind::kElm) {
    // Pass the kernel syscall-entry range; histogram buckets come from the
    // shared hash, so no per-address conversion entries are needed.
    mapper.add_range(workloads::kSyscallBase,
                     workloads::kSyscallStride * 256);
  } else {
    const auto& monitored = features.monitored_addresses();
    for (std::size_t i = 0; i < monitored.size(); ++i) {
      mapper.add_exact(monitored[i]);
      encoder.map_address(monitored[i], static_cast<std::uint32_t>(i));
    }
  }
}

void RtadSoc::run_for_instructions(std::uint64_t n,
                                   sim::Picoseconds deadline_ps) {
  const std::uint64_t target = cpu_->program_instructions() + n;
  // The fence caps instruction-gap skipping so the predicate flips at the
  // exact edge the dense kernel would stop on.
  cpu_->set_instruction_fence(target);
  sim_.run_while(
      [this, target] { return cpu_->program_instructions() < target; },
      deadline_ps);
  cpu_->set_instruction_fence(cpu::HostCpu::kNoFence);
}

sim::Picoseconds RtadSoc::run_while(const std::function<bool()>& keep_going,
                                    sim::Picoseconds deadline_ps) {
  return sim_.run_while(keep_going, deadline_ps);
}

void RtadSoc::arm_attack(std::uint64_t trigger_instruction) {
  if (trigger_instruction <= injector_->instructions_seen()) {
    std::string what = "RtadSoc::arm_attack: trigger ";
    what += std::to_string(trigger_instruction);
    what += " is not past the injector's instructions_seen() ";
    what += std::to_string(injector_->instructions_seen());
    what += " (the step in flight is already fetched)";
    throw AttackTriggerError(what);
  }
  injector_->arm(trigger_instruction);
}

}  // namespace rtad::core
