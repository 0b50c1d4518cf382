// Tiered, byte-bounded ring store for per-tenant telemetry streams.
//
// The netdata-dbengine shape, deterministic: every tenant owns a stream of
// tier-0 pages (raw Samples, simulated-time keyed); when a page reaches
// `page_samples` the store seals it, folds it into one tier-1 SummaryBin,
// and every `fanout` tier-1 bins fold into one tier-2 bin. Summaries are
// tiny and stay resident forever; sealed tier-0 payloads are what the byte
// cap governs. When resident sealed bytes exceed `cap_bytes` the oldest
// sealed page (global seal order — FIFO, the ring) is evicted: it is
// serialized and appended to the `spill_path` file if one is configured,
// then its in-memory payload is dropped. Evicted pages keep their index
// and their tier-1 summary, so ranked queries never lose coverage — only
// raw-point extraction does.
//
// Layout: streams are a vector in first-append order, so a stream id is
// its index; one ordered name index maps tenants to ids. The ring holds
// one stream id per sealed page. It is FIFO in seal order and a stream
// seals its pages in index order, so each stream's evicted pages are a
// prefix of its pages: one count says which payloads are gone. A Page is
// built only to spill one.
//
// Determinism: append() is single-writer (the Service ingests the merged
// per-shard record list in canonical order) and eviction follows seal
// order, so the store's entire observable state, including the spill file,
// is byte-identical across RTAD_SCHED, RTAD_JOBS, and RTAD_BACKEND. No
// output depends on the streams' iteration order: rank_tenants() sorts by
// a total order, and the serve document writes only aggregates and the
// ranking.
//
// Ingest cost: append() remembers the id of the stream it touched last and
// searches the name index only when the tenant changes, so a tenant's
// back-to-back samples cost one string compare each. The first sample
// after a seal reserves a full page for the open tail.
//
// The store holds no pointer into its own containers, so it is movable
// (not copyable: it owns the spill file stream).
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
  /// One tenant's stream: sealed tier-0 payloads (seal order), the open
  /// tier-0 tail, and the resident summary tiers.
  struct Stream {
    std::string tenant;  ///< the stream's tenant name
    /// Sealed tier-0 payloads, oldest first; page i has seq i. The first
    /// `evicted` are empty: their payload was dropped under the byte cap.
    std::vector<std::vector<Sample>> pages;
    std::uint64_t evicted = 0;  ///< leading pages whose payload is gone
    std::vector<Sample> open;       ///< open tier-0 tail (not yet a page)
    std::vector<SummaryBin> tier1;  ///< one bin per sealed page
    std::vector<SummaryBin> tier2;  ///< one bin per `fanout` tier-1 bins
    std::uint64_t samples = 0;      ///< total samples ever appended
    std::uint64_t flagged = 0;
    std::uint64_t health = 0;
    sim::Picoseconds first_ps = 0;
    sim::Picoseconds last_ps = 0;
  };

  explicit TelemetryStore(StoreConfig cfg = {});

  /// Append one sample to `tenant`'s stream (creates the stream on first
  /// use). Samples must arrive in non-decreasing at_ps per tenant — the
  /// Service's canonical merge guarantees it; violations throw.
  void append(const std::string& tenant, const Sample& sample);

  /// Every stream, in first-append order.
  const std::vector<Stream>& streams() const noexcept { return streams_; }
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
  void seal(std::uint32_t id);
  void evict_until_capped();

  StoreConfig cfg_;
  std::vector<Stream> streams_;
  std::map<std::string, std::uint32_t> ids_;  ///< tenant name -> stream id
  /// Global seal order: one stream id per sealed page awaiting eviction.
  std::deque<std::uint32_t> ring_;
  std::uint32_t last_ = 0;  ///< id append() touched last (once non-empty)
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
