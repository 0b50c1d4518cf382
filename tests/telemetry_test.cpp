// Telemetry subsystem suite (tier 1): page wire format, tiered ring store,
// and the ranked anomaly query engine.
//
// The headline contracts:
//   1. Pages are byte-stable: the serialized form is pinned down to the
//      byte (magic, little-endian fields, FNV-1a digest), round-trips
//      exactly, and parse() rejects truncation, bit flips, bad magic, and
//      trailing bytes before believing a single field.
//   2. Downsampling conserves: tier-1 bins plus the open tail cover every
//      sample exactly once (counts, flags, score sums), and tier-2 bins
//      conserve the tier-1 runs they fold.
//   3. The byte cap evicts in seal order, spills evicted pages to the
//      RTAD_TELEMETRY file verbatim, and never loses summary coverage.
//   4. rank_tenants() is a recency-weighted total order: repeatable,
//      tie-broken by tenant name, and biased toward tenants flagging now.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "rtad/telemetry/page.hpp"
#include "rtad/telemetry/query.hpp"
#include "rtad/telemetry/store.hpp"

namespace rtad::telemetry {
namespace {

/// Independent FNV-1a so the test pins the published constants rather than
/// round-tripping through the implementation under test.
std::uint64_t test_fnv1a(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Re-seal a mutated page: overwrite its trailing digest with the FNV-1a of
/// the bytes before it, so parse() reaches the field under test instead of
/// stopping at the digest check.
void repair_digest(std::vector<std::uint8_t>& bytes) {
  const std::uint64_t digest = test_fnv1a(bytes.data(), bytes.size() - 8);
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + i] = static_cast<std::uint8_t>(digest >> (8 * i));
  }
}

Sample make_sample(sim::Picoseconds at, double score, bool flagged = false,
                   std::uint32_t health = 0) {
  Sample s;
  s.at_ps = at;
  s.score = score;
  s.flagged = flagged;
  s.health = health;
  return s;
}

TEST(TelemetryPage, SerializedBytesAreGolden) {
  Page page;
  page.tenant = "t";
  page.tier = 0;
  page.seq = 1;
  page.samples.push_back(make_sample(2, 1.5, true, 3));

  const auto bytes = page.serialize();
  ASSERT_EQ(bytes.size(), 59u);
  EXPECT_EQ(encoded_size(page), bytes.size());

  // Every byte before the digest, by hand: magic, tier, LE total_bytes,
  // LE-length-prefixed tenant, LE seq/count, then the 21-byte sample
  // (u64 at, IEEE-754 score bits, flag byte, u32 health).
  const std::vector<std::uint8_t> golden{
      'R',  'T',  'A',  'D',  'T',  'E',  'L',  '1',   // magic
      0x00,                                            // tier
      0x3B, 0x00, 0x00, 0x00,                          // total_bytes = 59
      0x01, 0x00, 0x00, 0x00, 't',                     // tenant
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // seq = 1
      0x01, 0x00, 0x00, 0x00,                          // count = 1
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // at_ps = 2
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF8, 0x3F,  // score = 1.5
      0x01,                                            // flagged
      0x03, 0x00, 0x00, 0x00,                          // health = 3
  };
  ASSERT_EQ(bytes.size(), golden.size() + 8);
  EXPECT_EQ(std::vector<std::uint8_t>(bytes.begin(), bytes.end() - 8),
            golden);

  // The trailing u64 is FNV-1a over everything before it.
  const std::uint64_t digest = test_fnv1a(bytes.data(), bytes.size() - 8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(bytes[bytes.size() - 8 + i],
              static_cast<std::uint8_t>(digest >> (8 * i)));
  }
}

TEST(TelemetryPage, RoundTripsAllTiersExactly) {
  Page tier0;
  tier0.tenant = "tenant-42";
  tier0.tier = 0;
  tier0.seq = 7;
  for (int i = 0; i < 5; ++i) {
    tier0.samples.push_back(
        make_sample(100 + i, 0.25 * i, i % 2 == 0, i == 3 ? 1 : 0));
  }
  const auto parsed = Page::parse(tier0.serialize());
  EXPECT_EQ(parsed.tenant, tier0.tenant);
  EXPECT_EQ(parsed.tier, tier0.tier);
  EXPECT_EQ(parsed.seq, tier0.seq);
  ASSERT_EQ(parsed.samples.size(), tier0.samples.size());
  for (std::size_t i = 0; i < parsed.samples.size(); ++i) {
    EXPECT_EQ(parsed.samples[i].at_ps, tier0.samples[i].at_ps);
    EXPECT_EQ(parsed.samples[i].score, tier0.samples[i].score);
    EXPECT_EQ(parsed.samples[i].flagged, tier0.samples[i].flagged);
    EXPECT_EQ(parsed.samples[i].health, tier0.samples[i].health);
  }

  Page tier1;
  tier1.tenant = "tenant-42";
  tier1.tier = 1;
  tier1.seq = 3;
  SummaryBin bin;
  for (const Sample& s : tier0.samples) bin.fold(s);
  tier1.bins.push_back(bin);
  const auto parsed1 = Page::parse(tier1.serialize());
  ASSERT_EQ(parsed1.bins.size(), 1u);
  EXPECT_EQ(parsed1.bins[0].first_ps, bin.first_ps);
  EXPECT_EQ(parsed1.bins[0].last_ps, bin.last_ps);
  EXPECT_EQ(parsed1.bins[0].count, bin.count);
  EXPECT_EQ(parsed1.bins[0].sum_score, bin.sum_score);
  EXPECT_EQ(parsed1.bins[0].min_score, bin.min_score);
  EXPECT_EQ(parsed1.bins[0].max_score, bin.max_score);
  EXPECT_EQ(parsed1.bins[0].flagged, bin.flagged);
  EXPECT_EQ(parsed1.bins[0].health, bin.health);

  // Serialization is a pure function — byte-identical on repeat.
  EXPECT_EQ(tier0.serialize(), tier0.serialize());
}

TEST(TelemetryPage, ParseRejectsEveryCorruption) {
  Page page;
  page.tenant = "tenant";
  page.tier = 0;
  page.seq = 0;
  page.samples.push_back(make_sample(5, 0.5, true));
  const auto bytes = page.serialize();

  // Too short to even hold magic + digest.
  EXPECT_THROW(Page::parse(bytes.data(), 8), TelemetryError);
  // Truncation anywhere invalidates the digest first.
  EXPECT_THROW(Page::parse(bytes.data(), bytes.size() - 1), TelemetryError);
  // A single bit flip anywhere — header, payload, or digest — is caught.
  for (const std::size_t at :
       {std::size_t{0}, std::size_t{9}, bytes.size() / 2, bytes.size() - 1}) {
    auto flipped = bytes;
    flipped[at] ^= 0x10;
    EXPECT_THROW(Page::parse(flipped), TelemetryError) << "offset " << at;
  }
  // Wrong magic with a recomputed (valid) digest still fails.
  {
    auto wrong = bytes;
    wrong[7] = '2';  // "RTADTEL2"
    repair_digest(wrong);
    EXPECT_THROW(Page::parse(wrong), TelemetryError);
  }
  // Trailing bytes past the declared length are rejected, not ignored.
  {
    auto padded = bytes;
    padded.push_back(0x00);
    EXPECT_THROW(Page::parse(padded), TelemetryError);
  }
  // The original still parses — the mutations above copied.
  EXPECT_NO_THROW(Page::parse(bytes));
}

TEST(TelemetryPage, ForgedHeadersWithValidDigestsAreNamedErrors) {
  Page page;
  page.tenant = "tenant";
  page.tier = 0;
  page.samples.push_back(make_sample(5, 0.5, true));
  const auto bytes = page.serialize();
  // Offsets: magic 0..7, tier 8, total 9..12, tenant length 13..16, tenant
  // 17..22, seq 23..30, count 31..34, then one 21-byte sample.
  struct Forgery {
    const char* what;
    std::size_t offset;
    std::vector<std::uint8_t> patch;
    const char* field;  ///< the error must name it
  };
  const Forgery forgeries[] = {
      {"tier 7", 8, {7}, "tier"},
      {"tier 3", 8, {3}, "tier"},
      {"tier 1 over a sample payload", 8, {1}, "count"},
      {"count 0xFFFFFFFF", 31, {0xFF, 0xFF, 0xFF, 0xFF}, "count"},
      {"count one past the payload", 31, {2, 0, 0, 0}, "count"},
  };
  for (const Forgery& f : forgeries) {
    auto forged = bytes;
    std::copy(f.patch.begin(), f.patch.end(),
              forged.begin() + static_cast<std::ptrdiff_t>(f.offset));
    repair_digest(forged);
    try {
      Page::parse(forged);
      ADD_FAILURE() << f.what << ": parsed";
    } catch (const TelemetryError& e) {
      EXPECT_NE(std::string(e.what()).find(f.field), std::string::npos)
          << f.what << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << f.what << ": unnamed " << e.what();
    }
  }
}

TEST(TelemetryStore, TiersConserveSamplesFlagsAndScoreMass) {
  StoreConfig cfg;
  cfg.page_samples = 4;
  cfg.fanout = 2;
  TelemetryStore store(cfg);

  // 27 samples: 6 sealed pages of 4 (-> 6 tier-1 bins -> 3 tier-2 bins)
  // plus an open tail of 3.
  double sum = 0.0;
  std::uint64_t flagged = 0;
  for (int i = 0; i < 27; ++i) {
    const double score = 0.125 * (i % 7);
    const bool flag = i % 3 == 0;
    store.append("tenant", make_sample(10 * (i + 1), score, flag, i % 5 == 0));
    sum += score;
    if (flag) ++flagged;
  }
  EXPECT_EQ(store.samples(), 27u);
  EXPECT_EQ(store.flagged(), flagged);
  EXPECT_EQ(store.pages_sealed(), 6u);

  const auto* stream = store.stream("tenant");
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(stream->tier1.size(), 6u);
  EXPECT_EQ(stream->tier2.size(), 3u);
  EXPECT_EQ(stream->open.size(), 3u);

  // Tier-1 bins + the open tail cover every sample exactly once.
  SummaryBin tier1_total;
  for (const SummaryBin& b : stream->tier1) tier1_total.fold(b);
  for (const Sample& s : stream->open) tier1_total.fold(s);
  EXPECT_EQ(tier1_total.count, 27u);
  EXPECT_EQ(tier1_total.flagged, flagged);
  EXPECT_DOUBLE_EQ(tier1_total.sum_score, sum);
  EXPECT_EQ(tier1_total.first_ps, 10u);
  EXPECT_EQ(tier1_total.last_ps, 270u);

  // Tier-2 bins conserve the tier-1 runs they fold (all 6 here).
  SummaryBin tier2_total;
  for (const SummaryBin& b : stream->tier2) tier2_total.fold(b);
  EXPECT_EQ(tier2_total.count, 24u);  // 6 sealed pages of 4
  SummaryBin sealed_total;
  for (const SummaryBin& b : stream->tier1) sealed_total.fold(b);
  EXPECT_EQ(tier2_total.flagged, sealed_total.flagged);
  EXPECT_DOUBLE_EQ(tier2_total.sum_score, sealed_total.sum_score);
  EXPECT_EQ(tier2_total.min_score, sealed_total.min_score);
  EXPECT_EQ(tier2_total.max_score, sealed_total.max_score);
}

TEST(TelemetryStore, RejectsOutOfOrderStreamClock) {
  TelemetryStore store;
  store.append("tenant", make_sample(100, 0.0));
  store.append("tenant", make_sample(100, 0.0));  // equal instants are fine
  EXPECT_THROW(store.append("tenant", make_sample(99, 0.0)), TelemetryError);
  // Other tenants keep their own clocks.
  EXPECT_NO_THROW(store.append("other", make_sample(1, 0.0)));
}

TEST(TelemetryStore, ByteCapEvictsInSealOrderAndSpillRoundTrips) {
  const std::string spill = testing::TempDir() + "rtad_telemetry_spill.bin";

  StoreConfig cfg;
  cfg.page_samples = 4;
  cfg.cap_bytes = 256;  // a handful of sealed pages
  cfg.spill_path = spill;
  std::uint64_t evicted = 0;
  std::uint64_t sealed = 0;
  {
    TelemetryStore store(cfg);
    for (int i = 0; i < 40; ++i) {
      store.append("alpha", make_sample(10 * (i + 1), 0.1 * i, i % 4 == 0));
    }
    EXPECT_LE(store.resident_bytes(), cfg.cap_bytes);
    EXPECT_GT(store.pages_evicted(), 0u);
    EXPECT_EQ(store.pages_spilled(), store.pages_evicted());
    evicted = store.pages_evicted();
    sealed = store.pages_sealed();

    // Eviction never loses summary coverage: the ranked view still sees
    // every sample.
    const auto ranked = rank_tenants(store);
    ASSERT_EQ(ranked.size(), 1u);
    EXPECT_EQ(ranked[0].samples, store.samples());

    // Raw extraction honestly drops evicted payloads (oldest first).
    const auto raw = series(store, "alpha", 0, 0, ~sim::Picoseconds{0});
    EXPECT_EQ(raw.points.size(),
              store.samples() - evicted * cfg.page_samples);
    EXPECT_EQ(raw.points.front().at_ps, 10 * (evicted * cfg.page_samples + 1));
  }  // closes the spill stream

  // The spill file is a plain concatenation of the evicted pages, verbatim
  // and verifiable: the oldest `evicted` seqs, in seal order.
  std::ifstream in(spill, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  const auto pages = parse_spill(bytes);
  ASSERT_EQ(pages.size(), evicted);
  ASSERT_LE(evicted, sealed);
  for (std::size_t i = 0; i < pages.size(); ++i) {
    EXPECT_EQ(pages[i].tenant, "alpha");
    EXPECT_EQ(pages[i].tier, 0);
    EXPECT_EQ(pages[i].seq, i);
    ASSERT_EQ(pages[i].samples.size(), cfg.page_samples);
    EXPECT_EQ(pages[i].samples.front().at_ps, 10 * (i * cfg.page_samples + 1));
  }

  // A corrupted spill is rejected, not silently truncated.
  bytes.push_back(0xFF);
  EXPECT_THROW(parse_spill(bytes), TelemetryError);
}

TEST(TelemetryQuery, SeriesClipsWindowsAndValidatesTier) {
  StoreConfig cfg;
  cfg.page_samples = 3;
  TelemetryStore store(cfg);
  for (int i = 1; i <= 8; ++i) {
    store.append("tenant", make_sample(100 * i, i, i == 5));
  }

  const auto mid = series(store, "tenant", 0, 250, 650);
  ASSERT_EQ(mid.points.size(), 4u);  // 300, 400, 500, 600
  EXPECT_EQ(mid.points.front().at_ps, 300u);
  EXPECT_EQ(mid.points.back().at_ps, 600u);
  EXPECT_TRUE(mid.points[2].flagged);

  // Tier 1: two sealed bins plus the synthetic open-tail bin.
  const auto bins = series(store, "tenant", 1, 0, ~sim::Picoseconds{0});
  ASSERT_EQ(bins.bins.size(), 3u);
  EXPECT_EQ(bins.bins[0].count + bins.bins[1].count + bins.bins[2].count, 8u);
  // Bin-granularity clipping: a window touching only the tail keeps it.
  const auto tail = series(store, "tenant", 1, 750, 900);
  ASSERT_EQ(tail.bins.size(), 1u);
  EXPECT_EQ(tail.bins[0].first_ps, 700u);

  EXPECT_TRUE(series(store, "nobody", 0, 0, 1000).points.empty());
  EXPECT_THROW(series(store, "tenant", 3, 0, 1000), TelemetryError);
}

TEST(TelemetryQuery, RankPrefersRecentFlagsAndBreaksTiesByName) {
  StoreConfig cfg;
  cfg.page_samples = 4;
  TelemetryStore store(cfg);

  // "warm" flags early, "hot" flags late; same sample count, same number
  // of flags, same scores — only recency differs.
  for (int i = 0; i < 16; ++i) {
    store.append("warm", make_sample(100 * (i + 1), 0.5, i < 4));
    store.append("hot", make_sample(100 * (i + 1), 0.5, i >= 12));
    store.append("quiet-b", make_sample(100 * (i + 1), 0.1, false));
    store.append("quiet-a", make_sample(100 * (i + 1), 0.1, false));
  }

  const auto ranked = rank_tenants(store);
  ASSERT_EQ(ranked.size(), 4u);
  EXPECT_EQ(ranked[0].tenant, "hot");
  EXPECT_EQ(ranked[1].tenant, "warm");
  EXPECT_GT(ranked[0].severity, ranked[1].severity);
  // Unweighted rates are identical — only the decay separates them.
  EXPECT_DOUBLE_EQ(ranked[0].anomaly_rate, ranked[1].anomaly_rate);
  // The all-zero tail ties at severity 0 and falls back to name order.
  EXPECT_EQ(ranked[2].tenant, "quiet-a");
  EXPECT_EQ(ranked[3].tenant, "quiet-b");
  EXPECT_EQ(ranked[2].severity, 0.0);

  // The ranking is a pure function of the store: repeat queries agree
  // field-for-field.
  const auto again = rank_tenants(store);
  ASSERT_EQ(again.size(), ranked.size());
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    EXPECT_EQ(again[i].tenant, ranked[i].tenant);
    EXPECT_EQ(again[i].severity, ranked[i].severity);
    EXPECT_EQ(again[i].samples, ranked[i].samples);
  }

  // top_k truncates after the total order is fixed.
  RankQuery top2;
  top2.top_k = 2;
  const auto truncated = rank_tenants(store, top2);
  ASSERT_EQ(truncated.size(), 2u);
  EXPECT_EQ(truncated[0].tenant, "hot");
  EXPECT_EQ(truncated[1].tenant, "warm");

  // Windowed rank sees only the window: early flags only -> warm leads.
  RankQuery early;
  early.t1 = 450;
  const auto head = rank_tenants(store, early);
  ASSERT_FALSE(head.empty());
  EXPECT_EQ(head[0].tenant, "warm");
}

TEST(TelemetryQuery, ExplicitHalfLifeReplacesTheSpanQuarterDefault) {
  StoreConfig cfg;
  cfg.page_samples = 4;
  TelemetryStore store(cfg);
  for (int i = 0; i < 16; ++i) {
    store.append("warm", make_sample(100 * (i + 1), 0.5, i < 4));
    store.append("hot", make_sample(100 * (i + 1), 0.5, i >= 12));
  }

  // Unset half-life: a quarter of the populated span (100..1600 ps), field
  // for field the same as passing that half-life explicitly.
  const auto by_default = rank_tenants(store);
  RankQuery quarter;
  quarter.half_life_ps = (1600 - 100) / 4;
  const auto via_quarter = rank_tenants(store, quarter);
  ASSERT_EQ(by_default.size(), via_quarter.size());
  for (std::size_t i = 0; i < by_default.size(); ++i) {
    EXPECT_EQ(by_default[i].tenant, via_quarter[i].tenant);
    EXPECT_EQ(by_default[i].severity, via_quarter[i].severity);
    EXPECT_EQ(by_default[i].samples, via_quarter[i].samples);
  }

  // An explicit half-life replaces the rule: one far beyond the span
  // weighs early and late flags almost alike, so the recency gap between
  // the hot and the warm tenant all but closes.
  RankQuery explicit_hl;
  explicit_hl.half_life_ps = 250u * 1'000'000ULL;
  const auto flat = rank_tenants(store, explicit_hl);
  ASSERT_EQ(flat.size(), 2u);
  ASSERT_EQ(by_default[0].tenant, "hot");
  const double default_gap = by_default[0].severity - by_default[1].severity;
  EXPECT_LT(std::abs(flat[0].severity - flat[1].severity), default_gap / 100);
}

}  // namespace
}  // namespace rtad::telemetry
