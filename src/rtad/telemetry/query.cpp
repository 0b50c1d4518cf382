#include "rtad/telemetry/query.hpp"

#include <algorithm>
#include <cmath>

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
    for (std::size_t p = 0; p < stream->pages.size(); ++p) {
      if (stream->evicted[p]) continue;  // payload gone; summary lives on
      for (const Sample& s : stream->pages[p].samples) clip(s);
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

  std::vector<RankEntry> ranked;
  for (const auto& [tenant, stream] : store.streams()) {
    RankEntry entry;
    entry.tenant = tenant;
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
      entry.samples += bin.count;
      entry.health += bin.health;
      entry.peak_score =
          any ? std::max(entry.peak_score, bin.max_score) : bin.max_score;
      any = true;
      entry.anomaly_rate += static_cast<double>(bin.flagged);
    };
    for (const SummaryBin& bin : stream.tier1) score_bin(bin);
    score_bin(tail_bin(stream));
    if (!any) continue;
    entry.severity =
        weighted_count > 0.0 ? weighted_flagged / weighted_count : 0.0;
    entry.anomaly_rate = entry.samples == 0
                             ? 0.0
                             : entry.anomaly_rate /
                                   static_cast<double>(entry.samples);
    ranked.push_back(std::move(entry));
  }

  std::sort(ranked.begin(), ranked.end(),
            [](const RankEntry& a, const RankEntry& b) {
              if (a.severity != b.severity) return a.severity > b.severity;
              return a.tenant < b.tenant;
            });
  if (query.top_k != 0 && ranked.size() > query.top_k) {
    ranked.resize(query.top_k);
  }
  return ranked;
}

}  // namespace rtad::telemetry
