// Tiered, byte-bounded ring store for per-tenant telemetry streams.
//
// The netdata-dbengine shape, deterministic: every tenant owns a stream of
// tier-0 pages (raw Samples, simulated-time keyed); when a page reaches
// `page_samples` the store seals it, folds it into one tier-1 SummaryBin,
// and every `fanout` tier-1 bins fold into one tier-2 bin. Summaries are
// tiny and stay resident forever; sealed tier-0 payloads are what the byte
// cap governs. When resident sealed bytes exceed `cap_bytes` the oldest
// sealed page (global seal order — FIFO, the ring) is evicted: its
// serialized bytes are appended to the `spill_path` file if one is
// configured, then the in-memory payload is dropped. Evicted pages keep
// their identity and their tier-1 summary, so ranked queries never lose
// coverage — only raw-point extraction does.
//
// Determinism: append() is single-writer (the Service ingests the merged
// per-shard record list in canonical order), streams iterate in tenant-name
// order (std::map), and eviction follows seal order — so the store's entire
// observable state, including the spill file, is byte-identical across
// RTAD_SCHED, RTAD_JOBS, and RTAD_BACKEND.
//
// Ingest cost: append() remembers the stream it touched last (its map key
// and its Stream, both stable in std::map nodes) and searches the map only
// when the tenant changes, so a tenant's back-to-back samples cost one
// string compare each. The first sample after a seal reserves a full page
// for the open tail.
//
// A store is neither copyable nor movable: the eviction ring and the append
// cache point into its own map, so a copy would point into the original.
// Hold it in place, in a unique_ptr or in a shared_ptr.
//
// StoreConfig is plain data; serve::ServiceConfig::from_env fills it from
// RTAD_TELEMETRY (spill path), RTAD_TELEMETRY_CAP_KB and
// RTAD_TELEMETRY_PAGE.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "rtad/telemetry/page.hpp"

namespace rtad::telemetry {

struct StoreConfig {
  std::size_t page_samples = 64;  ///< tier-0 samples per page
  std::size_t fanout = 16;        ///< tier-1 bins per tier-2 bin
  std::uint64_t cap_bytes = 0;    ///< resident sealed-page cap; 0 = unbounded
  std::string spill_path;         ///< evicted pages land here; empty = drop
};

class TelemetryStore {
 public:
  /// One tenant's stream: sealed tier-0 pages (seal order), the open tier-0
  /// tail, and the resident summary tiers.
  struct Stream {
    std::vector<Page> pages;        ///< sealed tier-0 pages, oldest first
    std::vector<bool> evicted;      ///< parallel to pages: payload dropped
    std::vector<Sample> open;       ///< open tier-0 tail (not yet a page)
    std::vector<SummaryBin> tier1;  ///< one bin per sealed page
    std::vector<SummaryBin> tier2;  ///< one bin per `fanout` tier-1 bins
    std::uint64_t next_seq = 0;     ///< next tier-0 page number
    std::uint64_t samples = 0;      ///< total samples ever appended
    std::uint64_t flagged = 0;
    std::uint64_t health = 0;
    sim::Picoseconds first_ps = 0;
    sim::Picoseconds last_ps = 0;
  };

  explicit TelemetryStore(StoreConfig cfg = {});
  TelemetryStore(const TelemetryStore&) = delete;
  TelemetryStore& operator=(const TelemetryStore&) = delete;
  TelemetryStore(TelemetryStore&&) = delete;
  TelemetryStore& operator=(TelemetryStore&&) = delete;

  /// Append one sample to `tenant`'s stream (creates the stream on first
  /// use). Samples must arrive in non-decreasing at_ps per tenant — the
  /// Service's canonical merge guarantees it; violations throw.
  void append(const std::string& tenant, const Sample& sample);

  /// Tenant-name-ordered stream map (the query engine's iteration order).
  const std::map<std::string, Stream>& streams() const noexcept {
    return streams_;
  }
  const Stream* stream(const std::string& tenant) const;

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
  void seal(const std::string& tenant, Stream& stream);
  void evict_until_capped();

  StoreConfig cfg_;
  std::map<std::string, Stream> streams_;
  /// Global seal order: (stream, page index) pairs awaiting eviction.
  /// Stream pointers are stable (std::map nodes); page vectors only grow.
  std::deque<std::pair<Stream*, std::size_t>> ring_;
  /// The stream append() touched last, by its map key and value (null
  /// before the first append).
  const std::string* last_tenant_ = nullptr;
  Stream* last_stream_ = nullptr;
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
