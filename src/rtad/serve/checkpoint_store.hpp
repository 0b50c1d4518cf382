// Bounded parking lot for session checkpoint blobs.
//
// When a session is orphaned (shard crash, lane wedge) or migrated, its
// whole existence shrinks to a SessionCheckpoint blob in a CheckpointStore
// until a lane thaws it — that is what bounds fleet memory: a parked
// session costs O(100 bytes), not a live SoC. The store keys blobs by
// ticket (globally unique per Service::run), accounts bytes exactly, and
// optionally enforces a byte cap: a put() that would exceed the cap parks
// the session with an *empty* blob instead (progress discarded, counted in
// evictions()). An evicted session restarts from scratch on thaw — slower,
// never wrong: the episode result is a pure function of its configuration,
// so eviction can change completion times but never verdicts.
//
// Single-writer discipline: each Shard owns one store and runs whole on one
// fan-out index; the Service moves entries between stores only at round
// barriers. No locking, no iteration-order dependence (lookups by ticket
// only), fully deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "rtad/sim/stats.hpp"
#include "rtad/sim/time.hpp"

namespace rtad::serve {

class CheckpointStore {
 public:
  struct Entry {
    std::vector<std::uint8_t> blob;  ///< empty = restart from scratch
    sim::Picoseconds parked_at = 0;  ///< fleet time the session was orphaned
  };

  /// `cap_bytes == 0` means unbounded.
  explicit CheckpointStore(std::uint64_t cap_bytes = 0)
      : cap_bytes_(cap_bytes) {}

  /// Park a session. Replaces any existing entry for the ticket. If the cap
  /// would be exceeded, the blob is discarded (empty entry, eviction
  /// counted) — parking always succeeds; only the saved progress is shed.
  void put(std::uint64_t ticket, std::vector<std::uint8_t> blob,
           sim::Picoseconds parked_at);

  /// Thaw: remove and return the entry, or nullopt if the ticket is not
  /// parked here.
  std::optional<Entry> take(std::uint64_t ticket);

  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }
  /// Bytes currently parked / the deepest that figure ever reached.
  std::uint64_t bytes() const noexcept { return bytes_; }
  std::uint64_t bytes_high_watermark() const noexcept { return bytes_hwm_; }
  /// Total park events (put() calls) and cap-driven progress discards.
  std::uint64_t parks() const noexcept { return parks_; }
  std::uint64_t evictions() const noexcept { return evictions_; }
  /// Size of every blob actually parked (the checkpoint-bytes
  /// distribution). Cap-evicted blobs are excluded — they never occupied
  /// store memory.
  const sim::Sampler& blob_bytes() const noexcept { return blob_bytes_; }
  /// Original size of every blob the cap discarded (the progress the store
  /// shed; surfaced as serve.evicted_blob_bytes).
  const sim::Sampler& evicted_blob_bytes() const noexcept {
    return evicted_blob_bytes_;
  }

 private:
  std::uint64_t cap_bytes_;
  std::map<std::uint64_t, Entry> entries_;
  std::uint64_t bytes_ = 0;
  std::uint64_t bytes_hwm_ = 0;
  std::uint64_t parks_ = 0;
  std::uint64_t evictions_ = 0;
  sim::Sampler blob_bytes_;
  sim::Sampler evicted_blob_bytes_;
};

}  // namespace rtad::serve
