#include "rtad/igm/address_mapper.hpp"

namespace rtad::igm {

void AddressMapper::clear() {
  pass_all_ = false;
  exact_.clear();
  ranges_.clear();
  accepted_ = 0;
  filtered_ = 0;
}

bool AddressMapper::passes(const trace::DecodedBranch& branch) const noexcept {
  if (pass_all_) return true;
  if (exact_.contains(branch.address)) return true;
  for (const auto& r : ranges_) {
    if (branch.address >= r.base && branch.address < r.base + r.size) {
      return true;
    }
  }
  return false;
}

}  // namespace rtad::igm
