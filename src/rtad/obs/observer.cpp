#include "rtad/obs/observer.hpp"

#include <cstdio>

namespace rtad::obs {

std::string indexed_path(const std::string& base, std::size_t index) {
  if (base.empty()) return base;
  char suffix[16];
  std::snprintf(suffix, sizeof suffix, ".cell%03zu", index);
  const std::string ext = ".json";
  if (base.size() > ext.size() &&
      base.compare(base.size() - ext.size(), ext.size(), ext) == 0) {
    return base.substr(0, base.size() - ext.size()) + suffix + ext;
  }
  return base + suffix;
}

}  // namespace rtad::obs
