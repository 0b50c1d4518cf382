#include "rtad/telemetry/query.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace rtad::telemetry {

namespace {

bool overlaps(const SummaryBin& bin, sim::Picoseconds t0,
              sim::Picoseconds t1) {
  return bin.count != 0 && bin.last_ps >= t0 && bin.first_ps <= t1;
}

/// The open tier-0 tail folded into one synthetic bin: together with the
/// tier-1 bins it covers every sample of the stream exactly once.
SummaryBin tail_bin(const TelemetryStore::Stream& stream) {
  SummaryBin bin;
  for (const Sample& s : stream.open) bin.fold(s);
  return bin;
}

/// A tenant's RankEntry fields with the name left in its stream; only
/// tenants that make the returned ranking get their name copied.
struct Scored {
  const std::string* tenant = nullptr;
  double severity = 0.0;
  double anomaly_rate = 0.0;
  double peak_score = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t health = 0;
};

/// The rank order: severity descending, then tenant name ascending. Names
/// are unique, so it is a strict total order.
bool ranks_before(const Scored& a, const Scored& b) {
  if (a.severity != b.severity) return a.severity > b.severity;
  return *a.tenant < *b.tenant;
}

/// Score one stream's effective tier-1 view over the query window; false
/// when no bin overlaps it.
bool score_stream(const TelemetryStore::Stream& stream, const RankQuery& query,
                  sim::Picoseconds window_end, sim::Picoseconds half_life,
                  Scored& out) {
  double weighted_flagged = 0.0;
  double weighted_count = 0.0;
  bool any = false;
  auto score_bin = [&](const SummaryBin& bin) {
    if (!overlaps(bin, query.t0, query.t1)) return;
    const double age = bin.last_ps >= window_end
                           ? 0.0
                           : static_cast<double>(window_end - bin.last_ps);
    const double w = std::exp2(-age / static_cast<double>(half_life));
    weighted_flagged += w * static_cast<double>(bin.flagged);
    weighted_count += w * static_cast<double>(bin.count);
    out.samples += bin.count;
    out.health += bin.health;
    out.peak_score = any ? std::max(out.peak_score, bin.max_score)
                         : bin.max_score;
    any = true;
    out.anomaly_rate += static_cast<double>(bin.flagged);
  };
  for (const SummaryBin& bin : stream.tier1) score_bin(bin);
  score_bin(tail_bin(stream));
  if (!any) return false;
  out.severity =
      weighted_count > 0.0 ? weighted_flagged / weighted_count : 0.0;
  out.anomaly_rate = out.samples == 0 ? 0.0
                                      : out.anomaly_rate /
                                            static_cast<double>(out.samples);
  return true;
}

}  // namespace

Series series(const TelemetryStore& store, const std::string& tenant,
              std::uint8_t tier, sim::Picoseconds t0, sim::Picoseconds t1) {
  if (tier > 2) {
    throw TelemetryError("telemetry::series: tier must be 0, 1, or 2");
  }
  Series out;
  out.tenant = tenant;
  out.tier = tier;
  const TelemetryStore::Stream* stream = store.stream(tenant);
  if (stream == nullptr) return out;

  if (tier == 0) {
    auto clip = [&](const Sample& s) {
      if (s.at_ps < t0 || s.at_ps > t1) return;
      out.points.push_back(SeriesPoint{s.at_ps, s.score, s.flagged, s.health});
    };
    // The first `evicted` payloads are gone; their summaries live on.
    for (std::size_t p = stream->evicted; p < stream->pages.size(); ++p) {
      for (const Sample& s : stream->pages[p]) clip(s);
    }
    for (const Sample& s : stream->open) clip(s);
    return out;
  }

  const std::vector<SummaryBin>& bins =
      tier == 1 ? stream->tier1 : stream->tier2;
  for (const SummaryBin& bin : bins) {
    if (overlaps(bin, t0, t1)) out.bins.push_back(bin);
  }
  if (tier == 1) {
    const SummaryBin tail = tail_bin(*stream);
    if (overlaps(tail, t0, t1)) out.bins.push_back(tail);
  }
  return out;
}

std::vector<RankEntry> rank_tenants(const TelemetryStore& store,
                                    const RankQuery& query) {
  // Decay anchor and default half-life come from the window clipped to the
  // store's populated extent, so an open-ended query behaves sensibly.
  const sim::Picoseconds window_end = std::min(query.t1, store.last_ps());
  const sim::Picoseconds window_begin = std::max(query.t0, store.first_ps());
  sim::Picoseconds half_life = query.half_life_ps;
  if (half_life == 0) {
    half_life = window_end > window_begin ? (window_end - window_begin) / 4
                                          : sim::Picoseconds{1};
    if (half_life == 0) half_life = 1;
  }

  const std::size_t k = query.top_k;
  const std::size_t n = store.tenants();
  std::vector<Scored> kept;
  kept.reserve(k == 0 ? n : std::min(k, n));
  for (const TelemetryStore::Stream& stream : store.streams()) {
    Scored s;
    if (!score_stream(stream, query, window_end, half_life, s)) continue;
    s.tenant = &stream.tenant;
    if (k == 0 || kept.size() < k) {
      kept.push_back(s);
      // Once k candidates are in, keep them as a heap whose front is the
      // one that ranks last: the bar a newcomer must clear.
      if (kept.size() == k) {
        std::make_heap(kept.begin(), kept.end(), ranks_before);
      }
    } else if (ranks_before(s, kept.front())) {
      std::pop_heap(kept.begin(), kept.end(), ranks_before);
      kept.back() = s;
      std::push_heap(kept.begin(), kept.end(), ranks_before);
    }
  }
  // top_k == 0 sorts every scored tenant: the reference the heap must match.
  std::sort(kept.begin(), kept.end(), ranks_before);

  std::vector<RankEntry> ranked;
  ranked.reserve(kept.size());
  for (const Scored& s : kept) {
    ranked.push_back(RankEntry{*s.tenant, s.severity, s.anomaly_rate,
                               s.peak_score, s.samples, s.health});
  }
  return ranked;
}

}  // namespace rtad::telemetry
