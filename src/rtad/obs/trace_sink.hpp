#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace rtad::obs {

using TrackId = std::uint32_t;

/// Collects span/instant/counter events keyed by *simulated picoseconds*
/// (never wall clock) and exports them as Chrome-trace / Perfetto JSON.
///
/// Determinism contract: every recording site runs only inside ticks that
/// fire under both schedulers (a skipped tick is by definition a no-op tick,
/// and no-op ticks record nothing), and counters are deduplicated on value,
/// so the emitted byte stream is identical across RTAD_SCHED=dense|event and
/// any RTAD_JOBS count. The export is sorted, which extends that to
/// RTAD_BACKEND=cycle|fast (see write_chrome_json).
class TraceSink {
 public:
  /// Registers a span/instant track (rendered as a named thread).
  TrackId track(std::string name);
  /// Registers a counter track (rendered as a counter plot).
  TrackId counter_track(std::string name);

  /// Opens a span on a track; a still-open span is closed at `ts_ps` first,
  /// so back-to-back residencies never overlap.
  void begin(TrackId t, std::string_view name, std::uint64_t ts_ps);
  /// Closes the open span on a track (no-op when none is open).
  void end(TrackId t, std::uint64_t ts_ps);
  /// Records a closed span in one call.
  void complete(TrackId t, std::string_view name, std::uint64_t start_ps,
                std::uint64_t dur_ps);
  /// Records a zero-duration marker.
  void instant(TrackId t, std::string_view name, std::uint64_t ts_ps);
  /// Records a counter sample; consecutive identical values are elided.
  void counter(TrackId t, std::int64_t value, std::uint64_t ts_ps);

  std::size_t event_count() const { return events_.size(); }

  /// Emits the Chrome-trace JSON ("traceEvents" array), events sorted by
  /// (timestamp, track, kind, name). Timestamps are microseconds printed
  /// exactly from integer picoseconds (six fractional digits), so output is
  /// byte-stable. Spans still open are not emitted.
  void write_chrome_json(std::ostream& os) const;

 private:
  enum class Kind : std::uint8_t { kComplete, kInstant, kCounter };

  struct Track {
    std::string name;
    bool is_counter = false;
    bool open = false;          // span tracks: an un-ended begin()
    std::string open_name;
    std::uint64_t open_start_ps = 0;
    bool has_value = false;     // counter tracks: dedup state
    std::int64_t last_value = 0;
  };

  struct Event {
    Kind kind;
    TrackId track;
    std::string name;           // span/instant name; empty for counters
    std::uint64_t ts_ps;
    std::uint64_t dur_ps = 0;   // kComplete only
    std::int64_t value = 0;     // kCounter only
  };

  std::vector<Track> tracks_;
  std::vector<Event> events_;
};

/// Cheap value handle a component stores for one track. Default-constructed
/// handles are inert: every method is an inline null-check, which is the
/// entire cost of the layer when tracing is disabled.
class TraceHandle {
 public:
  TraceHandle() = default;
  TraceHandle(TraceSink* sink, TrackId track) : sink_(sink), track_(track) {}

  explicit operator bool() const { return sink_ != nullptr; }

  void begin(std::string_view name, std::uint64_t ts_ps) {
    if (sink_ != nullptr) sink_->begin(track_, name, ts_ps);
  }
  void end(std::uint64_t ts_ps) {
    if (sink_ != nullptr) sink_->end(track_, ts_ps);
  }
  void complete(std::string_view name, std::uint64_t start_ps,
                std::uint64_t dur_ps) {
    if (sink_ != nullptr) sink_->complete(track_, name, start_ps, dur_ps);
  }
  void instant(std::string_view name, std::uint64_t ts_ps) {
    if (sink_ != nullptr) sink_->instant(track_, name, ts_ps);
  }
  void counter(std::int64_t value, std::uint64_t ts_ps) {
    if (sink_ != nullptr) sink_->counter(track_, value, ts_ps);
  }

 private:
  TraceSink* sink_ = nullptr;
  TrackId track_ = 0;
};

}  // namespace rtad::obs
