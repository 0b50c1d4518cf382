#include "rtad/fault/fault_plan.hpp"

#include <optional>
#include <stdexcept>
#include <string>


namespace rtad::fault {

const char* to_string(FaultSite site) noexcept {
  switch (site) {
    case FaultSite::kTraceBitFlip: return "trace.bit_flip";
    case FaultSite::kTraceDropByte: return "trace.drop";
    case FaultSite::kTraceDupByte: return "trace.dup";
    case FaultSite::kTraceTruncate: return "trace.truncate";
    case FaultSite::kMcmStall: return "mcm.stall";
    case FaultSite::kMcmDoneLost: return "mcm.done_lost";
    case FaultSite::kBusDelay: return "bus.delay";
    case FaultSite::kBusError: return "bus.error";
    case FaultSite::kIrqLost: return "irq.lost";
  }
  return "?";
}

bool FaultPlan::any() const noexcept {
  for (const double r : rates) {
    if (r > 0.0) return true;
  }
  return fifo_squeeze > 0 || watchdog_cycles > 0 || igm_drop_resync ||
         mcm_drop_oldest;
}

namespace {

double parse_rate(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  double r = 0.0;
  try {
    r = std::stod(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != value.size() || r < 0.0 || r > 1.0) {
    throw std::invalid_argument("RTAD_FAULTS: rate '" + key +
                                "' must be in [0,1], got '" + value + "'");
  }
  return r;
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  std::uint64_t v = 0;
  try {
    v = std::stoull(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != value.size()) {
    throw std::invalid_argument("RTAD_FAULTS: '" + key +
                                "' needs an unsigned integer, got '" + value +
                                "'");
  }
  return v;
}

bool parse_bool(const std::string& key, const std::string& value) {
  if (value == "1" || value == "true") return true;
  if (value == "0" || value == "false") return false;
  throw std::invalid_argument("RTAD_FAULTS: '" + key + "' needs 0/1, got '" +
                              value + "'");
}

std::optional<FaultSite> site_for_key(const std::string& key) {
  for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
    const auto site = static_cast<FaultSite>(i);
    if (key == to_string(site)) return site;
  }
  return std::nullopt;
}

}  // namespace

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    const std::string_view item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;

    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument("RTAD_FAULTS: expected key=value, got '" +
                                  std::string(item) + "'");
    }
    const std::string key(item.substr(0, eq));
    const std::string value(item.substr(eq + 1));

    if (const auto site = site_for_key(key)) {
      plan.set_rate(*site, parse_rate(key, value));
    } else if (key == "trace.truncate_bytes") {
      plan.truncate_bytes = static_cast<std::uint32_t>(parse_u64(key, value));
    } else if (key == "mcm.stall_cycles") {
      plan.stall_cycles = static_cast<std::uint32_t>(parse_u64(key, value));
    } else if (key == "mcm.watchdog") {
      plan.watchdog_cycles = parse_u64(key, value);
    } else if (key == "bus.delay_cycles") {
      plan.bus_delay_cycles = static_cast<std::uint32_t>(parse_u64(key, value));
    } else if (key == "fifo.squeeze") {
      plan.fifo_squeeze = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "igm.drop_resync") {
      plan.igm_drop_resync = parse_bool(key, value);
    } else if (key == "mcm.drop_oldest") {
      plan.mcm_drop_oldest = parse_bool(key, value);
    } else if (key == "seed") {
      plan.seed = parse_u64(key, value);
    } else if (key == "serve.shard_crash") {
      plan.serve.shard_crash = parse_rate(key, value);
    } else if (key == "serve.lane_wedge") {
      plan.serve.lane_wedge = parse_rate(key, value);
    } else if (key == "serve.brownout") {
      plan.serve.brownout = parse_rate(key, value);
    } else if (key == "serve.crash_epoch_us") {
      plan.serve.crash_epoch_us = parse_u64(key, value);
    } else if (key == "serve.crash_downtime_us") {
      plan.serve.crash_downtime_us = parse_u64(key, value);
    } else if (key == "serve.wedge_us") {
      plan.serve.wedge_us = parse_u64(key, value);
    } else if (key == "serve.brownout_us") {
      plan.serve.brownout_us = parse_u64(key, value);
    } else if (key == "serve.horizon_us") {
      plan.serve.horizon_us = parse_u64(key, value);
    } else if (key == "serve.max_events") {
      plan.serve.max_events = static_cast<std::uint32_t>(parse_u64(key, value));
    } else {
      throw std::invalid_argument("RTAD_FAULTS: unknown key '" + key + "'");
    }
  }
  return plan;
}

}  // namespace rtad::fault
