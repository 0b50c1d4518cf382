// Byte-stable page format for the fleet telemetry store.
//
// A page is one sealed run of raw Samples of a tenant's stream (one per
// shard quantum boundary); the store (store.hpp) folds each into a tier-1
// SummaryBin. Only tier-0 pages are ever written (to the spill file, on
// eviction); summary bins never leave memory.
//
// Pages serialize to a self-delimiting byte format (the RTAD_TELEMETRY
// spill file is a plain concatenation of pages):
//
//   magic "RTADTEL1" (8)        format + version in one token
//   u8  tier                    always 0 (raw samples)
//   u32 total_bytes             whole page including the digest
//   str tenant                  u32 length + bytes
//   u64 seq                     per-tenant page number, from 0
//   u32 count                   samples
//   payload                     21 bytes/sample
//   u64 digest                  FNV-1a over every preceding byte
//
// All integers little-endian, doubles as IEEE-754 bit patterns — the same
// wire discipline as core::SessionCheckpoint, so a page is byte-identical
// across schedulers, worker counts, backends, and hosts. parse() verifies
// the digest before reading a field and rejects truncation, bit flips, bad
// magic, a non-zero tier, length mismatches, and trailing bytes with a
// TelemetryError.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "rtad/sim/time.hpp"

namespace rtad::telemetry {

/// A page (or spill file) that cannot be trusted: truncated, tampered,
/// wrong magic, or internally inconsistent. Runtime error — spill files
/// cross process boundaries, so corruption is an input condition, not a
/// caller bug.
class TelemetryError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr char kPageMagic[9] = "RTADTEL1";

/// One per-tenant observation at a shard quantum boundary (tier 0).
struct Sample {
  /// Stream clock: the session's origin arrival plus its own simulated
  /// time — a pure function of the episode, invariant to queueing, faults,
  /// scheduler kernel, backend, and worker count.
  sim::Picoseconds at_ps = 0;
  double score = 0.0;   ///< latest anomaly score the MCM produced
  bool flagged = false; ///< an anomaly verdict reached the host this quantum
  std::uint32_t health = 0;  ///< recovery events (1 on the first sample
                             ///< after a checkpoint restore)
};

/// Downsampled summary of a run of consecutive samples: one sealed tier-0
/// page makes one tier-1 bin; `fanout` tier-1 bins make one tier-2 bin.
struct SummaryBin {
  sim::Picoseconds first_ps = 0;
  sim::Picoseconds last_ps = 0;
  std::uint64_t count = 0;
  double sum_score = 0.0;
  double min_score = 0.0;
  double max_score = 0.0;
  std::uint64_t flagged = 0;
  std::uint64_t health = 0;

  void fold(const Sample& s);
  void fold(const SummaryBin& b);
};

/// One sealed tier-0 page of a tenant stream: its identity (tenant, seq)
/// and its samples. The store builds one only to spill it.
struct Page {
  std::string tenant;
  std::uint64_t seq = 0;
  std::vector<Sample> samples;

  std::vector<std::uint8_t> serialize() const;
  static Page parse(const std::uint8_t* data, std::size_t size);
  static Page parse(const std::vector<std::uint8_t>& bytes) {
    return parse(bytes.data(), bytes.size());
  }
};

/// Exact serialized size in bytes of a page of `samples` samples for a
/// tenant name of `tenant_bytes` bytes, without encoding (byte-cap
/// accounting).
std::size_t encoded_size(std::size_t tenant_bytes,
                         std::size_t samples) noexcept;
inline std::size_t encoded_size(const Page& page) noexcept {
  return encoded_size(page.tenant.size(), page.samples.size());
}

/// Split a spill file (back-to-back serialized pages) into pages, verifying
/// each one. Throws TelemetryError on any malformed page or dangling tail.
std::vector<Page> parse_spill(const std::vector<std::uint8_t>& bytes);

}  // namespace rtad::telemetry
