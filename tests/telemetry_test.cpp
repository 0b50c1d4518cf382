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
//   3. The byte cap evicts in seal order (so each stream loses a prefix of
//      its pages), spills evicted pages to the RTAD_TELEMETRY file
//      verbatim, and never loses summary coverage.
//   4. rank_tenants() is a recency-weighted total order: repeatable,
//      tie-broken by tenant name, and biased toward tenants flagging now;
//      its top_k answer is exactly the prefix of the full ranking.
//   5. A store is a movable value: moved mid-ingest, it ends exactly like
//      an unmoved twin.
//   6. The flat seal log and slot pool match a per-stream reference store
//      bit for bit: counters, series at every tier, rankings and spill.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <type_traits>
#include <utility>
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

/// The whole file at `path` (empty when it cannot be read).
std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
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

TEST(TelemetryPage, RoundTripsExactly) {
  Page tier0;
  tier0.tenant = "tenant-42";
  tier0.seq = 7;
  for (int i = 0; i < 5; ++i) {
    tier0.samples.push_back(
        make_sample(100 + i, 0.25 * i, i % 2 == 0, i == 3 ? 1 : 0));
  }
  const auto parsed = Page::parse(tier0.serialize());
  EXPECT_EQ(parsed.tenant, tier0.tenant);
  EXPECT_EQ(parsed.seq, tier0.seq);
  ASSERT_EQ(parsed.samples.size(), tier0.samples.size());
  for (std::size_t i = 0; i < parsed.samples.size(); ++i) {
    EXPECT_EQ(parsed.samples[i].at_ps, tier0.samples[i].at_ps);
    EXPECT_EQ(parsed.samples[i].score, tier0.samples[i].score);
    EXPECT_EQ(parsed.samples[i].flagged, tier0.samples[i].flagged);
    EXPECT_EQ(parsed.samples[i].health, tier0.samples[i].health);
  }

  // Serialization is a pure function — byte-identical on repeat.
  EXPECT_EQ(tier0.serialize(), tier0.serialize());
}

TEST(TelemetryPage, ParseRejectsEveryCorruption) {
  Page page;
  page.tenant = "tenant";
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
      {"tier 1 over a sample payload", 8, {1}, "tier"},
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
  const auto all = ~sim::Picoseconds{0};
  // Tier 1 is the six sealed pages' bins and then the open tail's bin.
  const std::vector<SummaryBin> tier1 = series(store, "tenant", 1, 0, all).bins;
  const std::vector<SummaryBin> tier2 = series(store, "tenant", 2, 0, all).bins;
  ASSERT_EQ(tier1.size(), 7u);
  EXPECT_EQ(tier2.size(), 3u);
  EXPECT_EQ(stream->open, 3u);
  EXPECT_EQ(store.tail(*stream).size(), 3u);
  EXPECT_EQ(tier1.back().count, 3u);

  // Tier-1 bins + the open tail cover every sample exactly once.
  SummaryBin tier1_total;
  for (const SummaryBin& b : tier1) tier1_total.fold(b);
  EXPECT_EQ(tier1_total.count, 27u);
  EXPECT_EQ(tier1_total.flagged, flagged);
  EXPECT_DOUBLE_EQ(tier1_total.sum_score, sum);
  EXPECT_EQ(tier1_total.first_ps, 10u);
  EXPECT_EQ(tier1_total.last_ps, 270u);

  // Tier-2 bins conserve the tier-1 runs they fold (all 6 here).
  SummaryBin tier2_total;
  for (const SummaryBin& b : tier2) tier2_total.fold(b);
  EXPECT_EQ(tier2_total.count, 24u);  // 6 sealed pages of 4
  SummaryBin sealed_total;
  for (std::size_t i = 0; i < 6; ++i) sealed_total.fold(tier1[i]);
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

TEST(TelemetryStore, RejectsPageSizesBeyondThirtyTwoBits) {
  // The open-tail fill is a 32-bit count, and a pool chunk of 64 pages of
  // 2^58 samples would wrap std::size_t: both are refused up front.
  for (const std::size_t page : {std::size_t{1} << 32, std::size_t{1} << 58}) {
    StoreConfig cfg;
    cfg.page_samples = page;
    EXPECT_THROW(TelemetryStore{cfg}, TelemetryError) << page;
  }
  StoreConfig widest;
  widest.page_samples = UINT32_MAX;
  EXPECT_NO_THROW(TelemetryStore{widest});  // allocates on first append
}

TEST(TelemetryStore, AppendNeverMisroutesInterleavedTenants) {
  // Names sharing prefixes, interleaved so the last-stream check misses on
  // most appends and hits on the repeats. Each sample's score names its
  // tenant, so a misrouted sample shows in the series and the spill.
  const std::vector<std::string> names = {"a", "ab", "b"};
  const std::vector<std::size_t> pattern = {0, 1, 0, 0, 2, 1, 1};
  // Cap 1 evicts every sealed page at once (spill = seals); 400 bytes keep
  // the last four of the 80- and 81-byte pages resident.
  for (const std::uint64_t cap : {std::uint64_t{1}, std::uint64_t{400}}) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    StoreConfig cfg;
    cfg.page_samples = 2;
    cfg.cap_bytes = cap;
    cfg.spill_path = testing::TempDir() + "rtad_telemetry_interleaved_" +
                     std::to_string(cap) + ".bin";

    std::vector<std::uint64_t> count(names.size(), 0);
    std::vector<std::pair<std::string, std::uint64_t>> seals;  // tenant, seq
    std::uint64_t evicted = 0;
    {
      TelemetryStore store(cfg);
      auto append = [&](std::size_t t) {
        const sim::Picoseconds at = 100 * (count[t] + 1);
        store.append(names[t], make_sample(at, static_cast<double>(t)));
        if (++count[t] % cfg.page_samples == 0) {
          seals.emplace_back(names[t], count[t] / cfg.page_samples - 1);
        }
      };
      for (int round = 0; round < 5; ++round) {
        for (const std::size_t t : pattern) append(t);
      }

      // Out-of-order samples still throw right after a last-stream hit, and
      // the rejected sample leaves the stream as it was.
      append(0);
      const sim::Picoseconds last = 100 * count[0];
      EXPECT_THROW(store.append("a", make_sample(last - 1, 0.0)),
                   TelemetryError);
      EXPECT_EQ(store.stream("a")->last_ps, last);

      // The seal log holds every sealed page in seal order.
      ASSERT_EQ(store.pages_sealed(), seals.size());
      for (std::size_t i = 0; i < seals.size(); ++i) {
        EXPECT_EQ(store.streams()[store.sealed(i).owner].tenant,
                  seals[i].first)
            << "seal " << i;
      }
      evicted = store.pages_evicted();
      if (cap == 1) {
        EXPECT_EQ(evicted, seals.size());
      } else {
        EXPECT_GT(evicted, 0u);
        EXPECT_LT(evicted, seals.size());
      }
      ASSERT_EQ(store.tenants(), names.size());
      for (std::size_t t = 0; t < names.size(); ++t) {
        SCOPED_TRACE(names[t]);
        const auto* stream = store.stream(names[t]);
        ASSERT_NE(stream, nullptr);
        EXPECT_EQ(stream->samples, count[t]);
        const auto id =
            static_cast<std::uint32_t>(stream - store.streams().data());
        std::uint64_t pages = 0;
        for (std::uint64_t i = 0; i < store.pages_sealed(); ++i) {
          if (store.sealed(i).owner == id) ++pages;
        }
        EXPECT_EQ(pages, count[t] / cfg.page_samples);
        EXPECT_EQ(stream->open, count[t] % cfg.page_samples);
        // A stream's evicted pages are its share of the oldest seals.
        const auto own = static_cast<std::uint64_t>(std::count_if(
            seals.begin(), seals.begin() + static_cast<std::ptrdiff_t>(evicted),
            [&](const auto& seal) { return seal.first == names[t]; }));
        EXPECT_EQ(stream->evicted, own);
        // Raw points are exactly the un-evicted pages plus the open tail.
        const auto raw = series(store, names[t], 0, 0, ~sim::Picoseconds{0});
        const std::uint64_t gone = own * cfg.page_samples;
        ASSERT_EQ(raw.points.size(), count[t] - gone);
        for (std::size_t i = 0; i < raw.points.size(); ++i) {
          EXPECT_EQ(raw.points[i].at_ps, 100 * (gone + i + 1));
          EXPECT_EQ(raw.points[i].score, t);
        }
      }
    }  // closes the spill stream

    const auto pages = parse_spill(read_bytes(cfg.spill_path));
    ASSERT_EQ(pages.size(), evicted);
    for (std::size_t i = 0; i < pages.size(); ++i) {
      EXPECT_EQ(pages[i].tenant, seals[i].first) << "page " << i;
      EXPECT_EQ(pages[i].seq, seals[i].second) << "page " << i;
      const auto t = static_cast<double>(
          std::find(names.begin(), names.end(), pages[i].tenant) -
          names.begin());
      ASSERT_EQ(pages[i].samples.size(), cfg.page_samples);
      for (const Sample& s : pages[i].samples) EXPECT_EQ(s.score, t);
    }
  }
}

TEST(TelemetryStore, MovedMidIngestMatchesAnUnmovedTwin) {
  // The store holds ids, not pointers into its own containers, so the
  // implicit moves are correct; it owns the spill stream, so no copies.
  // The implicit moves are not noexcept: std::ofstream's moves are not.
  static_assert(std::is_move_constructible_v<TelemetryStore> &&
                std::is_move_assignable_v<TelemetryStore> &&
                !std::is_copy_constructible_v<TelemetryStore> &&
                !std::is_copy_assignable_v<TelemetryStore>);

  StoreConfig cfg;
  cfg.page_samples = 3;
  cfg.fanout = 2;
  cfg.cap_bytes = 300;  // two of the 102-byte pages stay resident
  const std::vector<std::string> names = {"t0", "t1", "t2"};
  auto feed = [&names](TelemetryStore& store, int from, int to) {
    for (int i = from; i < to; ++i) {
      for (int t = 0; t < 3; ++t) {
        store.append(names[t],
                     make_sample(10 * (i + 1), 0.125 * ((i + t) % 5),
                                 (i + t) % 4 == 0, i % 7 == 0 ? 1 : 0));
      }
    }
  };
  StoreConfig twin_cfg = cfg;
  twin_cfg.spill_path = testing::TempDir() + "rtad_telemetry_twin.bin";
  cfg.spill_path = testing::TempDir() + "rtad_telemetry_moved.bin";
  {
    TelemetryStore twin(twin_cfg);
    feed(twin, 0, 20);

    TelemetryStore source(cfg);
    feed(source, 0, 10);  // three pages and an open tail per tenant
    ASSERT_GT(source.pages_spilled(), 0u);
    ASSERT_LT(source.pages_evicted(), source.pages_sealed());
    TelemetryStore constructed(std::move(source));
    TelemetryStore moved;
    moved = std::move(constructed);
    feed(moved, 10, 20);

    EXPECT_EQ(moved.tenants(), twin.tenants());
    EXPECT_EQ(moved.samples(), twin.samples());
    EXPECT_EQ(moved.flagged(), twin.flagged());
    EXPECT_EQ(moved.pages_sealed(), twin.pages_sealed());
    EXPECT_EQ(moved.pages_evicted(), twin.pages_evicted());
    EXPECT_EQ(moved.pages_spilled(), twin.pages_spilled());
    EXPECT_EQ(moved.resident_bytes(), twin.resident_bytes());
    EXPECT_EQ(moved.resident_bytes_hwm(), twin.resident_bytes_hwm());
    EXPECT_EQ(moved.first_ps(), twin.first_ps());
    EXPECT_EQ(moved.last_ps(), twin.last_ps());

    for (const std::string& name : names) {
      const auto raw = series(moved, name, 0, 0, ~sim::Picoseconds{0});
      const auto want = series(twin, name, 0, 0, ~sim::Picoseconds{0});
      ASSERT_EQ(raw.points.size(), want.points.size()) << name;
      for (std::size_t i = 0; i < raw.points.size(); ++i) {
        EXPECT_EQ(raw.points[i].at_ps, want.points[i].at_ps) << name;
        EXPECT_EQ(raw.points[i].score, want.points[i].score) << name;
        EXPECT_EQ(raw.points[i].flagged, want.points[i].flagged) << name;
        EXPECT_EQ(raw.points[i].health, want.points[i].health) << name;
      }
      for (const std::uint8_t tier : {1, 2}) {
        const auto bins = series(moved, name, tier, 0, ~sim::Picoseconds{0});
        const auto twin_bins =
            series(twin, name, tier, 0, ~sim::Picoseconds{0});
        ASSERT_EQ(bins.bins.size(), twin_bins.bins.size()) << name;
        for (std::size_t i = 0; i < bins.bins.size(); ++i) {
          const SummaryBin& a = bins.bins[i];
          const SummaryBin& b = twin_bins.bins[i];
          EXPECT_EQ(a.first_ps, b.first_ps) << name;
          EXPECT_EQ(a.last_ps, b.last_ps) << name;
          EXPECT_EQ(a.count, b.count) << name;
          EXPECT_EQ(a.sum_score, b.sum_score) << name;
          EXPECT_EQ(a.min_score, b.min_score) << name;
          EXPECT_EQ(a.max_score, b.max_score) << name;
          EXPECT_EQ(a.flagged, b.flagged) << name;
          EXPECT_EQ(a.health, b.health) << name;
        }
      }
    }

    const auto ranked = rank_tenants(moved);
    const auto twin_ranked = rank_tenants(twin);
    ASSERT_EQ(ranked.size(), twin_ranked.size());
    for (std::size_t i = 0; i < ranked.size(); ++i) {
      EXPECT_EQ(ranked[i].tenant, twin_ranked[i].tenant);
      EXPECT_EQ(ranked[i].severity, twin_ranked[i].severity);
      EXPECT_EQ(ranked[i].anomaly_rate, twin_ranked[i].anomaly_rate);
      EXPECT_EQ(ranked[i].peak_score, twin_ranked[i].peak_score);
      EXPECT_EQ(ranked[i].samples, twin_ranked[i].samples);
      EXPECT_EQ(ranked[i].health, twin_ranked[i].health);
    }
  }  // closes both spill streams

  const auto spilled = read_bytes(cfg.spill_path);
  EXPECT_FALSE(spilled.empty());
  EXPECT_EQ(spilled, read_bytes(twin_cfg.spill_path));
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
  std::vector<std::uint8_t> bytes = read_bytes(spill);
  const auto pages = parse_spill(bytes);
  ASSERT_EQ(pages.size(), evicted);
  ASSERT_LE(evicted, sealed);
  for (std::size_t i = 0; i < pages.size(); ++i) {
    EXPECT_EQ(pages[i].tenant, "alpha");
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

TEST(TelemetryQuery, TopKIsExactlyThePrefixOfTheFullRanking) {
  StoreConfig cfg;
  cfg.page_samples = 4;
  TelemetryStore store(cfg);

  // 50 tenants: most never flag (severity 0, ordered by name alone), six
  // share one flag pattern and so one non-zero severity bit for bit, and
  // three flag on patterns of their own.
  constexpr int kTenants = 50;
  for (int i = 0; i < 14; ++i) {  // three sealed pages and an open tail
    for (int t = 0; t < kTenants; ++t) {
      bool flag = false;
      if (t % 8 == 3) flag = i % 3 == 0;  // the six-way tie
      if (t == 10 || t == 20 || t == 30) flag = i >= 12 - t / 10;
      // Built by appending: `"t" + std::to_string(...)` trips a GCC 12
      // -Wrestrict false positive in Release builds.
      std::string name = "t";
      name += std::to_string((t * 37) % kTenants);
      store.append(name, make_sample(100 * (i + 1), 0.01 * t, flag));
    }
  }

  auto expect_bitwise_equal = [](double a, double b) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b));
  };
  RankQuery recent;
  recent.t0 = 650;
  for (const RankQuery& base : {RankQuery{}, recent}) {
    const auto full = rank_tenants(store, base);
    const std::size_t n = full.size();
    ASSERT_EQ(n, static_cast<std::size_t>(kTenants));
    // Find the six-way tie among the flaggers; k = tie + 3 cuts inside it.
    std::size_t tie = 0;
    while (tie + 1 < n && full[tie].severity != full[tie + 1].severity) {
      ++tie;
    }
    ASSERT_GT(full[tie].severity, 0.0);
    ASSERT_EQ(full[tie].severity, full[tie + 5].severity);
    ASSERT_NE(full[tie + 5].severity, full[tie + 6].severity);
    for (const std::size_t k : {std::size_t{1}, tie + 3, n - 1, n, n + 1}) {
      RankQuery query = base;
      query.top_k = k;
      const auto top = rank_tenants(store, query);
      ASSERT_EQ(top.size(), std::min(k, n)) << "k=" << k;
      for (std::size_t i = 0; i < top.size(); ++i) {
        SCOPED_TRACE("k=" + std::to_string(k) + " i=" + std::to_string(i));
        EXPECT_EQ(top[i].tenant, full[i].tenant);
        expect_bitwise_equal(top[i].severity, full[i].severity);
        expect_bitwise_equal(top[i].anomaly_rate, full[i].anomaly_rate);
        expect_bitwise_equal(top[i].peak_score, full[i].peak_score);
        EXPECT_EQ(top[i].samples, full[i].samples);
        EXPECT_EQ(top[i].health, full[i].health);
      }
    }
  }
}

/// The store's earlier per-stream layout, kept as the reference the flat
/// seal log and slot pool must match bit for bit: each stream owns its
/// sealed page vectors, its tier-1 and tier-2 bin vectors (tier 2 rolled up
/// at seal) and its open tail; a FIFO ring of stream ids orders eviction;
/// the spill lands in memory; the ranking scores each stream's bins, sorts
/// every tenant and truncates.
class ReferenceStore {
 public:
  struct Stream {
    std::string tenant;
    std::vector<std::vector<Sample>> pages;
    std::uint64_t evicted = 0;
    std::vector<Sample> open;
    std::vector<SummaryBin> tier1;
    std::vector<SummaryBin> tier2;
    std::uint64_t samples = 0;
    std::uint64_t health = 0;
    sim::Picoseconds last_ps = 0;
  };

  explicit ReferenceStore(const StoreConfig& cfg) : cfg_(cfg) {}

  void append(const std::string& tenant, const Sample& sample) {
    const auto [it, added] = ids_.try_emplace(tenant, streams_.size());
    if (added) streams_.emplace_back().tenant = tenant;
    Stream& st = streams_[it->second];
    st.last_ps = sample.at_ps;
    ++st.samples;
    st.health += sample.health;
    st.open.push_back(sample);
    if (samples == 0) first_ps = sample.at_ps;
    first_ps = std::min(first_ps, sample.at_ps);
    last_ps = std::max(last_ps, sample.at_ps);
    ++samples;
    if (sample.flagged) ++flagged;
    if (st.open.size() < cfg_.page_samples) return;

    SummaryBin bin;
    for (const Sample& s : st.open) bin.fold(s);
    st.tier1.push_back(bin);
    if (st.tier1.size() % cfg_.fanout == 0) {
      SummaryBin coarse;
      for (std::size_t i = st.tier1.size() - cfg_.fanout; i < st.tier1.size();
           ++i) {
        coarse.fold(st.tier1[i]);
      }
      st.tier2.push_back(coarse);
    }
    resident_bytes += encoded_size(st.tenant.size(), st.open.size());
    resident_bytes_hwm = std::max(resident_bytes_hwm, resident_bytes);
    st.pages.push_back(std::exchange(st.open, {}));
    ring_.push_back(it->second);
    ++pages_sealed;
    while (cfg_.cap_bytes != 0 && resident_bytes > cfg_.cap_bytes &&
           !ring_.empty()) {
      Stream& victim = streams_[ring_.front()];
      ring_.pop_front();
      const std::uint64_t seq = victim.evicted++;
      Page page{victim.tenant, seq, std::exchange(victim.pages[seq], {})};
      resident_bytes -= encoded_size(page);
      if (!cfg_.spill_path.empty()) {
        const auto bytes = page.serialize();
        spill.insert(spill.end(), bytes.begin(), bytes.end());
        ++pages_spilled;
      }
      ++pages_evicted;
    }
  }

  const Stream* stream(const std::string& tenant) const {
    const auto it = ids_.find(tenant);
    return it == ids_.end() ? nullptr : &streams_[it->second];
  }
  const std::vector<Stream>& streams() const { return streams_; }

  Series series(const std::string& tenant, std::uint8_t tier,
                sim::Picoseconds t0, sim::Picoseconds t1) const {
    Series out;
    out.tenant = tenant;
    out.tier = tier;
    const Stream* st = stream(tenant);
    if (st == nullptr) return out;
    if (tier == 0) {
      std::vector<Sample> raw;
      for (std::size_t p = st->evicted; p < st->pages.size(); ++p) {
        raw.insert(raw.end(), st->pages[p].begin(), st->pages[p].end());
      }
      raw.insert(raw.end(), st->open.begin(), st->open.end());
      for (const Sample& s : raw) {
        if (s.at_ps < t0 || s.at_ps > t1) continue;
        out.points.push_back({s.at_ps, s.score, s.flagged, s.health});
      }
      return out;
    }
    std::vector<SummaryBin> bins = tier == 1 ? st->tier1 : st->tier2;
    if (tier == 1) bins.push_back(tail_bin(*st));
    for (const SummaryBin& b : bins) {
      if (b.count != 0 && b.last_ps >= t0 && b.first_ps <= t1) {
        out.bins.push_back(b);
      }
    }
    return out;
  }

  std::vector<RankEntry> rank(const RankQuery& query) const {
    const sim::Picoseconds end = std::min(query.t1, last_ps);
    const sim::Picoseconds begin = std::max(query.t0, first_ps);
    sim::Picoseconds half_life = query.half_life_ps;
    if (half_life == 0) {
      half_life = end > begin ? (end - begin) / 4 : 1;
      if (half_life == 0) half_life = 1;
    }
    std::vector<RankEntry> all;
    for (const Stream& st : streams_) {
      RankEntry e;
      e.tenant = st.tenant;
      double wf = 0.0;
      double wc = 0.0;
      double flags = 0.0;
      std::vector<SummaryBin> bins = st.tier1;
      bins.push_back(tail_bin(st));
      for (const SummaryBin& b : bins) {
        if (b.count == 0 || b.last_ps < query.t0 || b.first_ps > query.t1) {
          continue;
        }
        const double age =
            b.last_ps >= end ? 0.0 : static_cast<double>(end - b.last_ps);
        const double w = std::exp2(-age / static_cast<double>(half_life));
        wf += w * static_cast<double>(b.flagged);
        wc += w * static_cast<double>(b.count);
        e.peak_score =
            e.samples == 0 ? b.max_score : std::max(e.peak_score, b.max_score);
        e.samples += b.count;
        e.health += b.health;
        flags += static_cast<double>(b.flagged);
      }
      if (e.samples == 0) continue;
      e.severity = wc > 0.0 ? wf / wc : 0.0;
      e.anomaly_rate = flags / static_cast<double>(e.samples);
      all.push_back(e);
    }
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      if (a.severity != b.severity) return a.severity > b.severity;
      return a.tenant < b.tenant;
    });
    if (query.top_k != 0 && all.size() > query.top_k) all.resize(query.top_k);
    return all;
  }

  std::uint64_t samples = 0;
  std::uint64_t flagged = 0;
  std::uint64_t pages_sealed = 0;
  std::uint64_t pages_evicted = 0;
  std::uint64_t pages_spilled = 0;
  std::uint64_t resident_bytes = 0;
  std::uint64_t resident_bytes_hwm = 0;
  sim::Picoseconds first_ps = 0;
  sim::Picoseconds last_ps = 0;
  std::vector<std::uint8_t> spill;

 private:
  static SummaryBin tail_bin(const Stream& st) {
    SummaryBin bin;
    for (const Sample& s : st.open) bin.fold(s);
    return bin;
  }

  StoreConfig cfg_;
  std::vector<Stream> streams_;
  std::map<std::string, std::size_t> ids_;
  std::deque<std::size_t> ring_;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_same_bins(const std::vector<SummaryBin>& got,
                      const std::vector<SummaryBin>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("bin " + std::to_string(i));
    EXPECT_EQ(got[i].first_ps, want[i].first_ps);
    EXPECT_EQ(got[i].last_ps, want[i].last_ps);
    EXPECT_EQ(got[i].count, want[i].count);
    EXPECT_TRUE(same_bits(got[i].sum_score, want[i].sum_score));
    EXPECT_TRUE(same_bits(got[i].min_score, want[i].min_score));
    EXPECT_TRUE(same_bits(got[i].max_score, want[i].max_score));
    EXPECT_EQ(got[i].flagged, want[i].flagged);
    EXPECT_EQ(got[i].health, want[i].health);
  }
}

TEST(TelemetryStore, MatchesThePerStreamReferenceBitForBit) {
  std::mt19937_64 rng(20260522);
  auto below = [&rng](std::uint64_t n) { return rng() % n; };
  int config = 0;
  for (const std::size_t page : {1, 3, 8}) {
    for (const std::size_t fanout : {1, 2, 16}) {
      // No cap; about three resident pages; about half of what seals.
      const std::uint64_t page_bytes = encoded_size(4, page);
      for (const std::uint64_t cap :
           {std::uint64_t{0}, 3 * page_bytes, 60 * page_bytes}) {
        for (const bool spill : {false, true}) {
          SCOPED_TRACE("page " + std::to_string(page) + " fanout " +
                       std::to_string(fanout) + " cap " + std::to_string(cap) +
                       (spill ? " spill" : " no spill"));
          StoreConfig cfg;
          cfg.page_samples = page;
          cfg.fanout = fanout;
          cfg.cap_bytes = cap;
          if (spill) {
            cfg.spill_path = testing::TempDir() + "rtad_telemetry_diff_" +
                             std::to_string(config++) + ".bin";
          }
          ReferenceStore ref(cfg);
          const std::size_t tenants = 1 + below(50);
          std::vector<std::string> names;
          for (std::size_t t = 0; t < tenants; ++t) {
            std::string name = "t";  // shared prefixes: t1, t10, t11...
            name += std::to_string(t);
            names.push_back(name);
          }
          std::vector<sim::Picoseconds> clock(tenants, 0);
          {
            TelemetryStore store(cfg);
            // Runs of one tenant between switches, so the last-stream
            // check both hits and misses.
            for (std::size_t n = 0, t = 0; n < 120 * page; ++n) {
              if (below(3) == 0) t = below(tenants);
              clock[t] += below(4) * 10;  // equal instants happen
              const Sample s = make_sample(clock[t], 0.125 * below(9),
                                           below(5) == 0, below(11) == 0);
              store.append(names[t], s);
              ref.append(names[t], s);
            }

            EXPECT_EQ(store.tenants(), ref.streams().size());
            EXPECT_EQ(store.samples(), ref.samples);
            EXPECT_EQ(store.flagged(), ref.flagged);
            EXPECT_EQ(store.pages_sealed(), ref.pages_sealed);
            EXPECT_EQ(store.pages_evicted(), ref.pages_evicted);
            EXPECT_EQ(store.pages_spilled(), ref.pages_spilled);
            EXPECT_EQ(store.resident_bytes(), ref.resident_bytes);
            EXPECT_EQ(store.resident_bytes_hwm(), ref.resident_bytes_hwm);
            EXPECT_EQ(store.first_ps(), ref.first_ps);
            EXPECT_EQ(store.last_ps(), ref.last_ps);

            const sim::Picoseconds span = ref.last_ps + 1;
            for (const std::string& name : names) {
              SCOPED_TRACE(name);
              const auto* got = store.stream(name);
              const auto* want = ref.stream(name);
              ASSERT_EQ(got == nullptr, want == nullptr);
              if (want == nullptr) continue;
              EXPECT_EQ(got->samples, want->samples);
              EXPECT_EQ(got->health, want->health);
              EXPECT_EQ(got->evicted, want->evicted);
              EXPECT_EQ(got->open, want->open.size());
              EXPECT_EQ(got->last_ps, want->last_ps);
              for (int w = 0; w < 3; ++w) {
                sim::Picoseconds t0 = w == 0 ? 0 : below(span);
                sim::Picoseconds t1 = w == 0 ? ~sim::Picoseconds{0}
                                             : below(span);
                if (t0 > t1) std::swap(t0, t1);
                const auto raw = series(store, name, 0, t0, t1);
                const auto raw_want = ref.series(name, 0, t0, t1);
                ASSERT_EQ(raw.points.size(), raw_want.points.size());
                for (std::size_t i = 0; i < raw.points.size(); ++i) {
                  const SeriesPoint& a = raw.points[i];
                  const SeriesPoint& b = raw_want.points[i];
                  EXPECT_EQ(a.at_ps, b.at_ps);
                  EXPECT_TRUE(same_bits(a.score, b.score));
                  EXPECT_EQ(a.flagged, b.flagged);
                  EXPECT_EQ(a.health, b.health);
                }
                for (const std::uint8_t tier : {1, 2}) {
                  SCOPED_TRACE("tier " + std::to_string(tier));
                  expect_same_bins(series(store, name, tier, t0, t1).bins,
                                   ref.series(name, tier, t0, t1).bins);
                }
              }
            }

            for (int q = 0; q < 8; ++q) {
              RankQuery query;
              if (q != 0) {
                query.t0 = below(span);
                query.t1 = below(2) == 0 ? ~sim::Picoseconds{0}
                                         : query.t0 + below(span);
                query.half_life_ps = below(2) == 0 ? 0 : 1 + below(span);
              }
              const std::size_t k = 2 + below(tenants);
              for (const std::size_t top_k : {std::size_t{0}, std::size_t{1},
                                              k}) {
                query.top_k = top_k;
                SCOPED_TRACE("query " + std::to_string(q) + " top_k " +
                             std::to_string(top_k));
                const auto got = rank_tenants(store, query);
                const auto want = ref.rank(query);
                ASSERT_EQ(got.size(), want.size());
                for (std::size_t i = 0; i < got.size(); ++i) {
                  EXPECT_EQ(got[i].tenant, want[i].tenant);
                  EXPECT_TRUE(same_bits(got[i].severity, want[i].severity));
                  EXPECT_TRUE(
                      same_bits(got[i].anomaly_rate, want[i].anomaly_rate));
                  EXPECT_TRUE(same_bits(got[i].peak_score, want[i].peak_score));
                  EXPECT_EQ(got[i].samples, want[i].samples);
                  EXPECT_EQ(got[i].health, want[i].health);
                }
              }
            }
          }  // closes the spill stream
          if (spill) {
            EXPECT_EQ(read_bytes(cfg.spill_path), ref.spill);
          }
          if (cap != 0) {
            EXPECT_GT(ref.pages_evicted, 0u);
          }
        }
      }
    }
  }
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
