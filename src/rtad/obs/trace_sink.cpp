#include "rtad/obs/trace_sink.hpp"

#include <algorithm>
#include <ostream>
#include <tuple>

namespace rtad::obs {
namespace {

// Picoseconds -> microsecond timestamp string, exact and locale-independent:
// integer part plus six zero-padded fractional digits (1 ps resolution).
void write_us(std::ostream& os, std::uint64_t ps) {
  os << ps / 1'000'000u << '.';
  const auto frac = ps % 1'000'000u;
  std::uint64_t digit = 100'000u;
  while (digit > 0) {
    os << static_cast<char>('0' + (frac / digit) % 10);
    digit /= 10;
  }
}

void write_escaped(std::ostream& os, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default: os << c; break;
    }
  }
}

}  // namespace

TrackId TraceSink::track(std::string name) {
  tracks_.emplace_back();
  tracks_.back().name = std::move(name);
  return static_cast<TrackId>(tracks_.size() - 1);
}

TrackId TraceSink::counter_track(std::string name) {
  const TrackId t = track(std::move(name));
  tracks_[t].is_counter = true;
  return t;
}

void TraceSink::begin(TrackId t, std::string_view name, std::uint64_t ts_ps) {
  Track& track = tracks_[t];
  if (track.open) end(t, ts_ps);
  track.open = true;
  track.open_name.assign(name);
  track.open_start_ps = ts_ps;
}

void TraceSink::end(TrackId t, std::uint64_t ts_ps) {
  Track& track = tracks_[t];
  if (!track.open) return;
  track.open = false;
  const std::uint64_t start = track.open_start_ps;
  const std::uint64_t dur = ts_ps >= start ? ts_ps - start : 0;
  events_.push_back(
      Event{Kind::kComplete, t, std::move(track.open_name), start, dur, 0});
  track.open_name.clear();
}

void TraceSink::complete(TrackId t, std::string_view name,
                         std::uint64_t start_ps, std::uint64_t dur_ps) {
  events_.push_back(
      Event{Kind::kComplete, t, std::string(name), start_ps, dur_ps, 0});
}

void TraceSink::instant(TrackId t, std::string_view name,
                        std::uint64_t ts_ps) {
  events_.push_back(Event{Kind::kInstant, t, std::string(name), ts_ps, 0, 0});
}

void TraceSink::counter(TrackId t, std::int64_t value, std::uint64_t ts_ps) {
  Track& track = tracks_[t];
  if (track.has_value && track.last_value == value) return;
  track.has_value = true;
  track.last_value = value;
  events_.push_back(Event{Kind::kCounter, t, std::string(), ts_ps, 0, value});
}

void TraceSink::write_chrome_json(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  const auto comma = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  comma();
  os << R"({"ph":"M","pid":0,"tid":0,"name":"process_name",)"
     << R"("args":{"name":"rtad-soc"}})";
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i].is_counter) continue;
    comma();
    os << R"({"ph":"M","pid":0,"tid":)" << i + 1
       << R"(,"name":"thread_name","args":{"name":")";
    write_escaped(os, tracks_[i].name);
    os << "\"}}";
  }
  // Export in (ts, track, kind, name) order, ties in recording order. The
  // cycle and fast GPU backends record the same events, but the fast one
  // records a kernel's spans when it launches rather than as the cycles
  // retire; sorting makes the file independent of that.
  std::vector<const Event*> order;
  order.reserve(events_.size());
  for (const Event& e : events_) order.push_back(&e);
  std::stable_sort(order.begin(), order.end(),
                   [](const Event* a, const Event* b) {
                     return std::tie(a->ts_ps, a->track, a->kind, a->name) <
                            std::tie(b->ts_ps, b->track, b->kind, b->name);
                   });
  for (const Event* ep : order) {
    const Event& e = *ep;
    comma();
    switch (e.kind) {
      case Kind::kComplete:
        os << R"({"ph":"X","pid":0,"tid":)" << e.track + 1 << ",\"ts\":";
        write_us(os, e.ts_ps);
        os << ",\"dur\":";
        write_us(os, e.dur_ps);
        os << ",\"name\":\"";
        write_escaped(os, e.name);
        os << "\"}";
        break;
      case Kind::kInstant:
        os << R"({"ph":"i","pid":0,"tid":)" << e.track + 1 << ",\"ts\":";
        write_us(os, e.ts_ps);
        os << ",\"s\":\"t\",\"name\":\"";
        write_escaped(os, e.name);
        os << "\"}";
        break;
      case Kind::kCounter:
        os << R"({"ph":"C","pid":0,"ts":)";
        write_us(os, e.ts_ps);
        os << ",\"name\":\"";
        write_escaped(os, tracks_[e.track].name);
        os << R"(","args":{"value":)" << e.value << "}}";
        break;
    }
  }
  os << "\n]}\n";
}

}  // namespace rtad::obs
