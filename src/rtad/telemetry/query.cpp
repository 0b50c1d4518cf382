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
/// stream's tier-1 bins it covers every sample of the stream exactly once.
SummaryBin tail_bin(const TelemetryStore& store,
                    const TelemetryStore::Stream& stream) {
  SummaryBin bin;
  for (const Sample& s : store.tail(stream)) bin.fold(s);
  return bin;
}

/// A tenant's RankEntry fields, its name left in its stream (copied only if
/// ranked). While bins fold, severity sums w*flagged, anomaly_rate flagged.
struct Scored {
  const std::string* tenant = nullptr;
  double severity = 0.0;
  double anomaly_rate = 0.0;
  double peak_score = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t health = 0;
  double weighted_count = 0.0;
};

/// The rank order: severity descending, then tenant name ascending. Names
/// are unique, so it is a strict total order.
bool ranks_before(const Scored& a, const Scored& b) {
  if (a.severity != b.severity) return a.severity > b.severity;
  return *a.tenant < *b.tenant;
}

}  // namespace

Series series(const TelemetryStore& store, const std::string& tenant,
              std::uint8_t tier, sim::Picoseconds t0, sim::Picoseconds t1) {
  if (tier > 2) {
    throw TelemetryError("telemetry::series: tier must be 0, 1, or 2");
  }
  Series out{tenant, tier, {}, {}};
  const TelemetryStore::Stream* stream = store.stream(tenant);
  if (stream == nullptr) return out;
  const auto id = static_cast<std::uint32_t>(stream - store.streams().data());

  if (tier == 0) {
    auto clip = [&](const Sample& s) {
      if (s.at_ps < t0 || s.at_ps > t1) return;
      out.points.push_back(SeriesPoint{s.at_ps, s.score, s.flagged, s.health});
    };
    // Evicted payloads are gone; their summaries live on.
    for (auto i = store.pages_evicted(); i < store.pages_sealed(); ++i) {
      const TelemetryStore::Sealed& page = store.sealed(i);
      if (page.owner != id) continue;
      for (const Sample& s : store.payload(page)) clip(s);
    }
    for (const Sample& s : store.tail(*stream)) clip(s);
    return out;
  }

  // Each bin folds a complete run of `fanout` tier-1 bins (1 at tier 1).
  const std::size_t fanout = tier == 1 ? 1 : store.config().fanout;
  SummaryBin coarse;
  std::size_t folded = 0;
  for (std::uint64_t i = 0; i < store.pages_sealed(); ++i) {
    if (store.sealed(i).owner != id) continue;
    coarse.fold(store.sealed(i).bin);
    if (++folded % fanout != 0) continue;
    if (overlaps(coarse, t0, t1)) out.bins.push_back(coarse);
    coarse = {};
  }
  const SummaryBin tail = tier == 1 ? tail_bin(store, *stream) : SummaryBin{};
  if (overlaps(tail, t0, t1)) out.bins.push_back(tail);
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
  auto score_bin = [&](Scored& s, const SummaryBin& bin) {
    if (!overlaps(bin, query.t0, query.t1)) return;
    const double age = bin.last_ps >= window_end
                           ? 0.0
                           : static_cast<double>(window_end - bin.last_ps);
    const double w = std::exp2(-age / static_cast<double>(half_life));
    s.severity += w * static_cast<double>(bin.flagged);
    s.weighted_count += w * static_cast<double>(bin.count);
    s.peak_score =
        s.samples != 0 ? std::max(s.peak_score, bin.max_score) : bin.max_score;
    s.samples += bin.count;
    s.health += bin.health;
    s.anomaly_rate += static_cast<double>(bin.flagged);
  };

  // Pass 1: the seal log in seal order, which is each stream's page order.
  const std::size_t n = store.tenants();
  std::vector<Scored> scored(n);
  for (std::uint64_t i = 0; i < store.pages_sealed(); ++i) {
    const TelemetryStore::Sealed& page = store.sealed(i);
    score_bin(scored[page.owner], page.bin);
  }

  // Pass 2: fold each open tail, then rank the tenants the window covers.
  const std::size_t k = query.top_k;
  std::vector<Scored> kept;
  kept.reserve(k == 0 ? n : std::min(k, n));
  for (std::size_t id = 0; id < n; ++id) {
    const TelemetryStore::Stream& stream = store.streams()[id];
    Scored& s = scored[id];
    if (stream.open != 0) score_bin(s, tail_bin(store, stream));
    if (s.samples == 0) continue;
    s.tenant = &stream.tenant;
    s.severity =
        s.weighted_count > 0.0 ? s.severity / s.weighted_count : 0.0;
    s.anomaly_rate /= static_cast<double>(s.samples);
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
