// AXI interconnect tests, against the one slave it carries traffic to:
// ML-MIAOW's internal memory.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "rtad/bus/interconnect.hpp"
#include "rtad/gpgpu/device_memory.hpp"

namespace rtad::bus {
namespace {

using gpgpu::DeviceMemory;

TEST(Interconnect, IdentityMapsTheSlave) {
  DeviceMemory mem(1024);
  Interconnect bus(mem, "mem");
  bus.write32(0x10, 5);
  EXPECT_EQ(mem.read32(0x10), 5u);
  mem.write32(0x20, 6);
  std::uint32_t v = 0;
  bus.read32(0x20, v);
  EXPECT_EQ(v, 6u);
}

TEST(Interconnect, AddressPastTheSlaveThrows) {
  DeviceMemory mem(64);
  Interconnect bus(mem, "mem");
  std::uint32_t v;
  EXPECT_THROW(bus.read32(64, v), std::out_of_range);
  EXPECT_THROW(bus.write32(0x9998, 1), std::out_of_range);
  EXPECT_THROW(bus.write_burst(60, {1, 2}), std::out_of_range);
}

TEST(Interconnect, SingleBeatCosts) {
  BusTiming t;
  DeviceMemory mem(64);
  Interconnect bus(mem, "mem", t);
  EXPECT_EQ(bus.write32(0, 1), t.arbitration_cycles + t.write_beat_cycles);
  std::uint32_t v;
  EXPECT_EQ(bus.read32(0, v), t.arbitration_cycles + t.read_beat_cycles);
}

TEST(Interconnect, BurstSplitsAtAxi3Limit) {
  BusTiming t;
  DeviceMemory mem(512);
  Interconnect bus(mem, "mem", t);
  std::vector<std::uint32_t> beats(20);
  for (std::size_t i = 0; i < beats.size(); ++i) {
    beats[i] = static_cast<std::uint32_t>(i);
  }
  // 20 beats = one 16-beat txn + one 4-beat txn.
  const std::uint32_t cost = bus.write_burst(0, beats);
  EXPECT_EQ(cost, 2 * t.arbitration_cycles + 20 * t.write_beat_cycles);
  EXPECT_EQ(mem.read32(4 * 19), 19u);
  EXPECT_EQ(bus.transactions(), 2u);
}

TEST(Interconnect, TransferHookFiresOncePerTransaction) {
  DeviceMemory mem(512);
  Interconnect bus(mem, "mem");
  std::uint64_t hook_calls = 0;
  bus.set_transfer_hook([&] { ++hook_calls; });
  bus.write32(0, 1);
  std::uint32_t v;
  bus.read32(0, v);
  std::vector<std::uint32_t> beats(20, 7);  // splits into 16 + 4 beats
  bus.write_burst(0, beats);
  EXPECT_EQ(hook_calls, bus.transactions());
  EXPECT_EQ(hook_calls, 4u);  // 1 + 1 + 2
}

}  // namespace
}  // namespace rtad::bus
