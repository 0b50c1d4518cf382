// Query engine over the telemetry store: per-tenant series extraction and
// the "Anomaly Advisor" ranked-tenant evaluation.
//
// rank_tenants() walks every stream's effective tier-1 view — all tier-1
// bins plus one synthetic bin folded from the open tier-0 tail, which
// together cover every sample exactly once — and scores each tenant by a
// recency-decayed anomaly rate over the query window:
//
//   severity = sum(w_i * flagged_i) / sum(w_i * count_i)
//   w_i      = 2^(-(window_end - last_ps_i) / half_life)
//
// so a tenant flagging *now* outranks one that flagged the same fraction of
// its samples long ago. Ties (including the all-zero tail) break by tenant
// name, so the ranking is a total order — byte-identical across runs,
// schedulers, and worker counts.
//
// Cost: one pass over the seal log folds each tier-1 bin into a dense
// per-stream accumulator (seal order is each stream's page order), and one
// pass over the streams folds each open tail and ranks. top_k = k keeps a
// k-entry heap and copies k names: O(n log k) for n tenants; top_k = 0
// sorts all n. The order is total, so both agree on the first k entries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "rtad/telemetry/store.hpp"

namespace rtad::telemetry {

struct SeriesPoint {
  sim::Picoseconds at_ps = 0;
  double score = 0.0;
  bool flagged = false;
  std::uint32_t health = 0;
};

struct Series {
  std::string tenant;
  std::uint8_t tier = 0;
  std::vector<SeriesPoint> points;  ///< tier 0
  std::vector<SummaryBin> bins;     ///< tiers 1/2
};

/// Extract `tenant`'s stream at `tier` over [t0, t1]: tier 0 the points of
/// its resident pages and open tail, clipped exactly; tier 1 its tier-1
/// bins and the open tail's bin, tier 2 each complete run of `fanout`
/// tier-1 bins folded into one, each kept when its [first_ps, last_ps]
/// overlaps the window. Unknown tenants yield an empty series; tier > 2
/// throws TelemetryError. It scans the whole seal log, O(pages sealed) per
/// call: for tests and inspection, not a query path.
Series series(const TelemetryStore& store, const std::string& tenant,
              std::uint8_t tier, sim::Picoseconds t0, sim::Picoseconds t1);

struct RankEntry {
  std::string tenant;
  double severity = 0.0;      ///< recency-decayed anomaly rate
  double anomaly_rate = 0.0;  ///< unweighted flagged/count in the window
  double peak_score = 0.0;    ///< max score of any bin in the window
  std::uint64_t samples = 0;  ///< samples covered in the window
  std::uint64_t health = 0;   ///< recovery events in the window
};

struct RankQuery {
  sim::Picoseconds t0 = 0;
  sim::Picoseconds t1 = ~sim::Picoseconds{0};
  /// Recency half-life; 0 means (window span)/4, where the span is the
  /// query window clipped to the store's populated extent.
  sim::Picoseconds half_life_ps = 0;
  std::size_t top_k = 0;  ///< truncate the ranking; 0 = all tenants
};

/// Evaluate every tenant stream over the window and return them ranked by
/// severity (descending; ties by tenant name ascending). Tenants with no
/// samples in the window are omitted. With top_k set the result is exactly
/// the first top_k entries of the top_k = 0 ranking.
std::vector<RankEntry> rank_tenants(const TelemetryStore& store,
                                    const RankQuery& query = {});

}  // namespace rtad::telemetry
