// ML-MIAOW internal memory.
//
// "When the data is delivered via the [AXI] interface, ML-MIAOW stores the
// data in its internal memory. ML-MIAOW then uses the stored data for its
// operation." (§III-B). Kernel arguments, model weights, input vectors and
// inference results all live here; the MCM TX/RX engines access it as an
// AXI slave while wavefronts access it through vector/scalar memory ops.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "rtad/bus/slave.hpp"

namespace rtad::gpgpu {

class DeviceMemory final : public bus::Slave {
 public:
  explicit DeviceMemory(std::size_t size_bytes);

  // Defined inline: both kernel interpreters issue one call per lane per
  // memory instruction, which makes these the hottest functions in the
  // whole simulator. The class is final, so direct calls devirtualize.
  std::uint32_t read32(std::uint64_t addr) const override {
    check(addr);
    ++reads_;
    std::uint32_t v;
    std::memcpy(&v, bytes_.data() + addr, 4);
    return v;
  }
  void write32(std::uint64_t addr, std::uint32_t value) override {
    check(addr);
    ++writes_;
    std::memcpy(bytes_.data() + addr, &value, 4);
  }

  float read_f32(std::uint64_t addr) const {
    const std::uint32_t bits = read32(addr);
    float f;
    std::memcpy(&f, &bits, 4);
    return f;
  }
  void write_f32(std::uint64_t addr, float value) {
    std::uint32_t bits;
    std::memcpy(&bits, &value, 4);
    write32(addr, bits);
  }

  // Whole-wave access for the fast-path SoA interpreter: it validates all
  // 64 lane addresses with ok32() first, then peeks/pokes without the
  // per-lane check and accounts the counters in one add. Any wave with a
  // potentially faulting lane must take the per-lane read32/write32 path
  // instead, so the fault fires on the same lane with the same counter
  // values as the cycle-level interpreter.
  bool ok32(std::uint64_t addr) const noexcept {
    return addr % 4 == 0 && addr <= bytes_.size() - 4;
  }
  std::uint32_t peek32(std::uint64_t addr) const noexcept {
    std::uint32_t v;
    std::memcpy(&v, bytes_.data() + addr, 4);
    return v;
  }
  void poke32(std::uint64_t addr, std::uint32_t value) noexcept {
    std::memcpy(bytes_.data() + addr, &value, 4);
  }
  void account_reads(std::uint64_t n) const noexcept { reads_ += n; }
  void account_writes(std::uint64_t n) noexcept { writes_ += n; }

  /// Bulk helpers for loaders (host-side model images).
  void write_block(std::uint64_t addr, const std::uint32_t* words,
                   std::size_t count);
  void read_block(std::uint64_t addr, std::uint32_t* words,
                  std::size_t count) const;

  std::size_t size() const noexcept { return bytes_.size(); }
  void clear() noexcept;

  std::uint64_t reads() const noexcept { return reads_; }
  std::uint64_t writes() const noexcept { return writes_; }

 private:
  // `addr > size - 4`, not `addr + 4 > size`: the sum wraps for addresses
  // within 4 of 2^64. The constructor guarantees size >= 4.
  void check(std::uint64_t addr) const {
    if (addr % 4 != 0 || addr > bytes_.size() - 4) fail(addr);
  }
  [[noreturn]] void fail(std::uint64_t addr) const;
  std::vector<std::uint8_t> bytes_;
  mutable std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
};

}  // namespace rtad::gpgpu
