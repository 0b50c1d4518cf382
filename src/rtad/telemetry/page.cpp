#include "rtad/telemetry/page.hpp"

#include <algorithm>
#include <string>

#include "rtad/core/blob_codec.hpp"

namespace rtad::telemetry {

namespace {

using core::blob::Writer;
using Reader = core::blob::Reader<TelemetryError>;

constexpr std::size_t kSampleBytes = 8 + 8 + 1 + 4;  ///< at/score/flag/health

}  // namespace

void SummaryBin::fold(const Sample& s) {
  if (count == 0) {
    first_ps = s.at_ps;
    min_score = max_score = s.score;
  } else {
    min_score = std::min(min_score, s.score);
    max_score = std::max(max_score, s.score);
  }
  last_ps = s.at_ps;
  ++count;
  sum_score += s.score;
  if (s.flagged) ++flagged;
  health += s.health;
}

void SummaryBin::fold(const SummaryBin& b) {
  if (b.count == 0) return;
  if (count == 0) {
    first_ps = b.first_ps;
    min_score = b.min_score;
    max_score = b.max_score;
  } else {
    min_score = std::min(min_score, b.min_score);
    max_score = std::max(max_score, b.max_score);
  }
  last_ps = b.last_ps;
  count += b.count;
  sum_score += b.sum_score;
  flagged += b.flagged;
  health += b.health;
}

std::size_t encoded_size(std::size_t tenant_bytes,
                         std::size_t samples) noexcept {
  // magic + tier + total_bytes + tenant(len + bytes) + seq + count +
  // payload + digest.
  return 8 + 1 + 4 + (4 + tenant_bytes) + 8 + 4 + samples * kSampleBytes + 8;
}

std::vector<std::uint8_t> Page::serialize() const {
  Writer w;
  for (std::size_t i = 0; i < 8; ++i) {
    w.u8(static_cast<std::uint8_t>(kPageMagic[i]));
  }
  w.u8(0);  // tier
  const std::size_t total_at = w.size();
  w.u32(0);  // total_bytes, patched below
  w.str(tenant);
  w.u64(seq);
  w.u32(static_cast<std::uint32_t>(samples.size()));
  for (const Sample& s : samples) {
    w.u64(s.at_ps);
    w.f64(s.score);
    w.u8(s.flagged ? 1 : 0);
    w.u32(s.health);
  }
  w.patch_u32(total_at, static_cast<std::uint32_t>(w.size() + 8));
  return std::move(w).finish();
}

Page Page::parse(const std::uint8_t* data, std::size_t size) {
  if (size < 16) {
    throw TelemetryError("telemetry::Page: page too short");
  }
  // Digest covers everything before its own 8 bytes — verified first, so a
  // bit flip anywhere is caught before any field is believed.
  if (!core::blob::digest_matches(data, size)) {
    throw TelemetryError("telemetry::Page: digest mismatch");
  }

  Reader r(data, size - 8, "telemetry::Page: truncated page");
  for (std::size_t i = 0; i < 8; ++i) {
    if (r.u8() != static_cast<std::uint8_t>(kPageMagic[i])) {
      throw TelemetryError("telemetry::Page: bad magic/version");
    }
  }

  if (const std::uint8_t tier = r.u8(); tier != 0) {
    std::string what = "telemetry::Page: tier ";
    what += std::to_string(tier);
    throw TelemetryError(what + " is not 0");
  }
  const std::uint32_t total = r.u32();
  if (total != size) {
    throw TelemetryError("telemetry::Page: length mismatch");
  }
  Page page;
  page.tenant = r.str();
  page.seq = r.u64();
  const std::uint32_t count = r.u32();
  // Bound count by the bytes actually present before reserving: a forged
  // count must be a named error, not a multi-gigabyte allocation.
  if (count > r.remaining() / kSampleBytes) {
    std::string what = "telemetry::Page: count ";
    what += std::to_string(count);
    throw TelemetryError(what + " exceeds the payload");
  }
  page.samples.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Sample s;
    s.at_ps = r.u64();
    s.score = r.f64();
    s.flagged = r.u8() != 0;
    s.health = r.u32();
    page.samples.push_back(s);
  }
  if (r.remaining() != 0) {
    throw TelemetryError("telemetry::Page: trailing bytes");
  }
  return page;
}

std::vector<Page> parse_spill(const std::vector<std::uint8_t>& bytes) {
  std::vector<Page> pages;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < 13) {
      throw TelemetryError("telemetry::parse_spill: dangling tail");
    }
    // total_bytes sits at a fixed offset (magic + tier), which is what
    // makes the spill self-delimiting before the digest is checked.
    const auto total =
        core::blob::load_le<std::uint32_t>(bytes.data() + pos + 9);
    if (total < 16 || total > bytes.size() - pos) {
      throw TelemetryError("telemetry::parse_spill: bad page length");
    }
    pages.push_back(Page::parse(bytes.data() + pos, total));
    pos += total;
  }
  return pages;
}

}  // namespace rtad::telemetry
