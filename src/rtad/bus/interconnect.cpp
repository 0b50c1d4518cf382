#include "rtad/bus/interconnect.hpp"

#include <algorithm>

namespace rtad::bus {

namespace {
constexpr std::size_t kMaxBeatsPerTxn = 16;  // AXI3 burst length limit
}

std::uint32_t Interconnect::read32(std::uint64_t addr, std::uint32_t& out) {
  out = slave_.read32(addr);
  const std::uint32_t cost =
      timing_.arbitration_cycles + timing_.read_beat_cycles;
  complete_transaction(cost, "rd");
  return cost;
}

std::uint32_t Interconnect::write32(std::uint64_t addr, std::uint32_t value) {
  slave_.write32(addr, value);
  const std::uint32_t cost =
      timing_.arbitration_cycles + timing_.write_beat_cycles;
  complete_transaction(cost, "wr");
  return cost;
}

std::uint32_t Interconnect::write_burst(std::uint64_t addr,
                                        const std::vector<std::uint32_t>& beats) {
  std::uint32_t cost = 0;
  std::size_t i = 0;
  while (i < beats.size()) {
    const std::size_t n = std::min(kMaxBeatsPerTxn, beats.size() - i);
    for (std::size_t b = 0; b < n; ++b) {
      slave_.write32(addr + (i + b) * 4, beats[i + b]);
    }
    const std::uint32_t txn_cost =
        timing_.arbitration_cycles +
        static_cast<std::uint32_t>(n) * timing_.write_beat_cycles;
    complete_transaction(txn_cost, "wr_burst");
    cost += txn_cost;
    i += n;
  }
  return cost;
}

void Interconnect::apply_faults(std::uint32_t base_cost) {
  std::uint32_t penalty = 0;
  if (faults_->fire(fault::FaultSite::kBusDelay)) {
    penalty += faults_->plan().bus_delay_cycles;
  }
  if (faults_->fire(fault::FaultSite::kBusError)) {
    // SLVERR: the master replays the transaction — one more arbitration
    // pass plus the full transfer cost.
    ++fault_errors_;
    penalty += timing_.arbitration_cycles + base_cost;
  }
  pending_fault_cycles_ += penalty;
  fault_cycles_total_ += penalty;
}

}  // namespace rtad::bus
