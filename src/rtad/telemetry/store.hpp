// Tiered, byte-bounded ring store for per-tenant telemetry streams.
//
// The netdata-dbengine shape, deterministic: every tenant owns a stream of
// tier-0 pages (raw Samples, simulated-time keyed); a page that reaches
// `page_samples` is sealed and folded into one tier-1 SummaryBin, and every
// `fanout` tier-1 bins of a stream make one tier-2 bin. While resident
// sealed bytes exceed `cap_bytes` the oldest sealed page (seal order: FIFO,
// the ring) is evicted, spilled to `spill_path` if set: its payload goes,
// its tier-1 bin stays, so only raw-point extraction loses coverage.
//
// Layout: three store-wide arenas, no per-stream or per-page container.
//   * Streams: a vector in first-append order (an id is the index), found
//     by name through one ordered index.
//   * The seal log: one Sealed entry (tier-1 bin, owner id, payload slot)
//     per sealed page, in seal order, in chunks that never move. Eviction
//     is FIFO in seal order, so the entries from pages_evicted() on are the
//     ring, and a stream's evicted pages are a prefix of its pages.
//   * The pool: `page_samples`-sized payload slots and a free list. An open
//     tail fills a slot, its seal leaves the payload in place, its eviction
//     frees the slot. A Page is built only to spill one.
// In steady state neither append() nor a seal allocates. No member points
// into another, so the store is movable (not copyable: it owns the spill
// file stream).
//
// Determinism: append() is single-writer and eviction follows seal order,
// so all observable state, the spill file included, is byte-identical
// across RTAD_SCHED, RTAD_JOBS and RTAD_BACKEND. No output depends on the
// order of streams: rank_tenants() sorts by a total order, and the serve
// document writes only aggregates and the ranking.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "rtad/telemetry/page.hpp"

namespace rtad::telemetry {

/// Plain data; serve::ServiceConfig::from_env fills it from RTAD_TELEMETRY
/// (spill path), RTAD_TELEMETRY_CAP_KB and RTAD_TELEMETRY_PAGE.
struct StoreConfig {
  std::size_t page_samples = 64;  ///< tier-0 samples per page, < 2^32
  std::size_t fanout = 16;        ///< tier-1 bins per tier-2 bin
  std::uint64_t cap_bytes = 0;    ///< resident sealed-page cap; 0 = unbounded
  std::string spill_path;         ///< evicted pages land here; empty = drop
};

/// Tenant-name order for the name index (transparent: lookups copy no key).
struct TenantLess {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const noexcept {
    return a < b;
  }
};

class TelemetryStore {
 public:
  /// One tenant's counters and open tier-0 tail; its pages are in the log.
  struct Stream {
    std::string tenant;         ///< the stream's tenant name
    std::uint64_t evicted = 0;  ///< leading pages whose payload is gone
    std::uint32_t tail = 0;     ///< pool slot of the open tail, if `open`
    std::uint32_t open = 0;     ///< samples in the open tail
    std::uint64_t samples = 0;  ///< total samples ever appended
    std::uint64_t health = 0;
    sim::Picoseconds last_ps = 0;
  };

  /// A sealed page: its tier-1 bin, its stream and its payload's pool slot.
  struct Sealed {
    SummaryBin bin;
    std::uint32_t owner = 0;
    std::uint32_t slot = 0;
  };

  explicit TelemetryStore(StoreConfig cfg = {});

  /// Append one sample to `tenant`'s stream (creates the stream on first
  /// use). Samples must arrive in non-decreasing at_ps per tenant — the
  /// Service's canonical merge guarantees it; violations throw.
  void append(const std::string& tenant, const Sample& sample);

  /// Every stream, in first-append order.
  const std::vector<Stream>& streams() const noexcept { return streams_; }
  const Stream* stream(const std::string& tenant) const {
    const auto it = ids_.find(tenant);
    return it == ids_.end() ? nullptr : &streams_[it->second];
  }
  /// The i-th sealed page in seal order, i < pages_sealed().
  const Sealed& sealed(std::uint64_t i) const noexcept {
    return log_[i / kChunk][i % kChunk];
  }
  /// A resident sealed page's samples (log index >= pages_evicted()).
  std::span<const Sample> payload(const Sealed& page) const noexcept {
    return {slot(page.slot), cfg_.page_samples};
  }
  /// A stream's open tier-0 tail (not yet a page).
  std::span<const Sample> tail(const Stream& stream) const noexcept {
    if (stream.open == 0) return {};
    return {slot(stream.tail), stream.open};
  }

  const StoreConfig& config() const noexcept { return cfg_; }
  std::uint64_t tenants() const noexcept { return streams_.size(); }
  std::uint64_t samples() const noexcept { return samples_; }
  std::uint64_t flagged() const noexcept { return flagged_; }
  std::uint64_t pages_sealed() const noexcept { return pages_sealed_; }
  std::uint64_t pages_evicted() const noexcept { return pages_evicted_; }
  std::uint64_t pages_spilled() const noexcept { return pages_spilled_; }
  /// Resident bytes of sealed tier-0 payloads (what the cap bounds) and the
  /// deepest that figure ever reached.
  std::uint64_t resident_bytes() const noexcept { return resident_bytes_; }
  std::uint64_t resident_bytes_hwm() const noexcept {
    return resident_bytes_hwm_;
  }
  /// Stream-clock span over everything ever appended (0/0 when empty).
  sim::Picoseconds first_ps() const noexcept { return first_ps_; }
  sim::Picoseconds last_ps() const noexcept { return last_ps_; }

 private:
  /// Log entries or pool slots per chunk (96 KiB of 64-sample slots).
  static constexpr std::size_t kChunk = 64;

  Sample* slot(std::uint32_t s) const noexcept {
    return pool_[s / kChunk].get() + s % kChunk * cfg_.page_samples;
  }
  void seal(std::uint32_t id);
  void evict_until_capped();

  StoreConfig cfg_;
  std::vector<Stream> streams_;
  std::map<std::string, std::uint32_t, TenantLess> ids_;  ///< name -> id
  std::uint32_t last_ = 0;  ///< id append() touched last (once non-empty)
  std::vector<std::unique_ptr<Sealed[]>> log_;  ///< kChunk entries each
  std::vector<std::unique_ptr<Sample[]>> pool_;  ///< kChunk slots each
  std::vector<std::uint32_t> free_;  ///< slots no tail or page holds
  std::ofstream spill_;
  std::uint64_t samples_ = 0;
  std::uint64_t flagged_ = 0;
  std::uint64_t pages_sealed_ = 0;
  std::uint64_t pages_evicted_ = 0;
  std::uint64_t pages_spilled_ = 0;
  std::uint64_t resident_bytes_ = 0;
  std::uint64_t resident_bytes_hwm_ = 0;
  sim::Picoseconds first_ps_ = 0;
  sim::Picoseconds last_ps_ = 0;
};

}  // namespace rtad::telemetry
