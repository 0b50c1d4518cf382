// Tenant model for the streaming detection service.
//
// A tenant is one monitored host (a VM, a container fleet node) whose branch
// trace streams into the detection fleet. Each SessionRequest is one
// detection episode: "watch this tenant's workload for N attack windows and
// report verdicts". Tenants carry a service class — interactive tenants are
// the latency-sensitive ones the SLO accounting tracks at p99; batch tenants
// absorb queueing.
//
// Routing is a stable FNV-1a hash of the tenant name: a tenant always lands
// on the same shard for a given fleet size, independent of request order,
// worker count, or platform (std::hash is implementation-defined and banned
// from anything that feeds the byte-identity surface).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "rtad/core/blob_codec.hpp"
#include "rtad/core/config.hpp"
#include "rtad/sim/time.hpp"
#include "rtad/trace/protocol.hpp"

namespace rtad::serve {

enum class TenantClass : std::uint8_t {
  kInteractive,  ///< latency-sensitive; the p99 the service is judged on
  kBatch,        ///< throughput-oriented; tolerates queueing
};

constexpr const char* tenant_class_name(TenantClass cls) noexcept {
  return cls == TenantClass::kInteractive ? "interactive" : "batch";
}

/// One detection episode offered to the fleet.
struct SessionRequest {
  std::string tenant;
  TenantClass cls = TenantClass::kInteractive;
  std::string benchmark;  ///< workload profile the tenant runs
  core::ModelKind model = core::ModelKind::kLstm;
  core::EngineKind engine = core::EngineKind::kMlMiaow;
  /// Fleet-clock arrival time (simulated; the bench's open-loop generator
  /// stamps these — no wall clock anywhere).
  sim::Picoseconds arrival_ps = 0;
  std::uint64_t seed = 17;
  std::size_t attacks = 2;  ///< attack windows to observe in this episode
  /// Global submission index: ties on arrival_ps break by ticket, and the
  /// service merges shard outcomes back into ticket order.
  std::uint64_t ticket = 0;
  /// The tenant's original arrival instant. Retry/failover re-offers move
  /// arrival_ps forward; sojourn (the SLO) is always measured from here.
  /// Stamped by Service::run alongside the ticket; zero-fault runs keep it
  /// equal to arrival_ps.
  sim::Picoseconds origin_arrival_ps = 0;
  /// Re-offer count so far (admission retries + failover re-offers). Seeds
  /// the per-attempt backoff jitter, so retry spacing is a pure function of
  /// (ticket, attempt) — independent of execution order.
  std::size_t attempts = 0;
  /// Set by admission control under the degrade policy: run the cheap
  /// model (ELM) instead of the requested one.
  bool degraded = false;
  /// Trace protocol this tenant's SoC frontend speaks. Service::run assigns
  /// it from ServiceConfig::proto before routing, overwriting any caller
  /// value; heterogeneous fleets mix PFT and E-Trace hosts behind one
  /// detection service.
  trace::TraceProtocol proto = trace::TraceProtocol::kPft;
};

/// FNV-1a over the tenant name (the same construction as the score digest:
/// stable across platforms, unlike std::hash).
constexpr std::uint64_t tenant_hash(std::string_view tenant) noexcept {
  return core::blob::fnv1a(tenant);
}

/// Stable tenant → shard routing.
constexpr std::size_t shard_for(std::string_view tenant,
                                std::size_t shard_count) noexcept {
  return shard_count == 0
             ? 0
             : static_cast<std::size_t>(tenant_hash(tenant) % shard_count);
}

/// Per-tenant protocol assignment for mixed fleets: a stable hash bit
/// disjoint from the shard-routing modulus, so the protocol split is
/// independent of fleet width, request order and worker count.
constexpr trace::TraceProtocol tenant_protocol(
    std::string_view tenant) noexcept {
  return ((tenant_hash(tenant) >> 32) & 1) != 0
             ? trace::TraceProtocol::kEtrace
             : trace::TraceProtocol::kPft;
}

}  // namespace rtad::serve
