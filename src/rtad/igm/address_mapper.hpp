// Address mapper — first half of the Input Vector Generator (§III-A).
//
// "Lets only the relevant branch addresses be passed by filtering out the
// addresses not existing within a lookup table. Users can configure the
// table to select branches related to their ML models, such as system calls
// or critical API function calls." We support both exact-match entries
// (hardware CAM) and address ranges (base/mask registers), because syscall
// filtering is naturally a range over the kernel entry area while critical
// API filtering is a set of exact entry points.
//
// The mapper consumes protocol-neutral DecodedBranch records. Its lookup
// keys are full 64-bit values, but both trace protocols (PFT and E-Trace)
// decode 32-bit, 2-byte-aligned branch targets: bit 0 of a target is never
// traced, and no decoded address exceeds 32 bits. Tables built for one
// protocol therefore carry over to the other; a protocol that traced wider
// or finer-grained targets would need its own tables.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "rtad/trace/stream.hpp"

namespace rtad::igm {

class AddressMapper {
 public:
  struct Range {
    std::uint64_t base = 0;
    std::uint64_t size = 0;
  };

  /// Pass-everything default (general-branch models like the LSTM).
  AddressMapper() = default;

  void set_pass_all(bool on) noexcept { pass_all_ = on; }
  void add_exact(std::uint64_t address) { exact_.insert(address); }
  void add_range(std::uint64_t base, std::uint64_t size) {
    ranges_.push_back(Range{base, size});
  }
  void clear();

  bool passes(const trace::DecodedBranch& branch) const noexcept;

  std::uint64_t accepted() const noexcept { return accepted_; }
  std::uint64_t filtered() const noexcept { return filtered_; }
  void note(bool passed) noexcept { (passed ? accepted_ : filtered_)++; }

  std::size_t exact_entries() const noexcept { return exact_.size(); }

 private:
  bool pass_all_ = true;
  std::unordered_set<std::uint64_t> exact_;
  std::vector<Range> ranges_;
  std::uint64_t accepted_ = 0;
  std::uint64_t filtered_ = 0;
};

}  // namespace rtad::igm
