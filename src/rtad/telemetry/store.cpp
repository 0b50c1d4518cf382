#include "rtad/telemetry/store.hpp"

#include <algorithm>
#include <utility>

namespace rtad::telemetry {

TelemetryStore::TelemetryStore(StoreConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.page_samples == 0) cfg_.page_samples = 1;
  if (cfg_.fanout == 0) cfg_.fanout = 1;
}

const TelemetryStore::Stream* TelemetryStore::stream(
    const std::string& tenant) const {
  const auto it = streams_.find(tenant);
  return it == streams_.end() ? nullptr : &it->second;
}

void TelemetryStore::append(const std::string& tenant, const Sample& sample) {
  if (last_stream_ == nullptr || *last_tenant_ != tenant) {
    const auto it = streams_.try_emplace(tenant).first;
    last_tenant_ = &it->first;
    last_stream_ = &it->second;
  }
  Stream& stream = *last_stream_;
  if (stream.samples == 0) {
    stream.first_ps = sample.at_ps;
  } else if (sample.at_ps < stream.last_ps) {
    throw TelemetryError(
        "TelemetryStore::append: samples must arrive in stream-clock order");
  }
  stream.last_ps = sample.at_ps;
  ++stream.samples;
  if (sample.flagged) ++stream.flagged;
  stream.health += sample.health;
  // seal() moved the last page's buffer out; a stream that has filled one
  // page gets its next page's buffer in one allocation.
  if (stream.open.empty() && !stream.pages.empty()) {
    stream.open.reserve(cfg_.page_samples);
  }
  stream.open.push_back(sample);

  if (samples_ == 0) first_ps_ = sample.at_ps;
  first_ps_ = std::min(first_ps_, sample.at_ps);
  last_ps_ = std::max(last_ps_, sample.at_ps);
  ++samples_;
  if (sample.flagged) ++flagged_;

  if (stream.open.size() >= cfg_.page_samples) seal(tenant, stream);
}

void TelemetryStore::seal(const std::string& tenant, Stream& stream) {
  Page page;
  page.tenant = tenant;
  page.tier = 0;
  page.seq = stream.next_seq++;
  page.samples = std::move(stream.open);
  stream.open.clear();

  SummaryBin bin;
  for (const Sample& s : page.samples) bin.fold(s);
  stream.tier1.push_back(bin);
  // Tier-2 rollup: whenever a full fanout of tier-1 bins exists past the
  // last rollup, fold them into one coarser bin.
  if (stream.tier1.size() >= (stream.tier2.size() + 1) * cfg_.fanout) {
    SummaryBin coarse;
    const std::size_t begin = stream.tier2.size() * cfg_.fanout;
    for (std::size_t i = begin; i < begin + cfg_.fanout; ++i) {
      coarse.fold(stream.tier1[i]);
    }
    stream.tier2.push_back(coarse);
  }

  resident_bytes_ += encoded_size(page);
  resident_bytes_hwm_ = std::max(resident_bytes_hwm_, resident_bytes_);
  stream.pages.push_back(std::move(page));
  stream.evicted.push_back(false);
  ring_.emplace_back(&stream, stream.pages.size() - 1);
  ++pages_sealed_;

  if (cfg_.cap_bytes != 0) evict_until_capped();
}

void TelemetryStore::evict_until_capped() {
  while (resident_bytes_ > cfg_.cap_bytes && !ring_.empty()) {
    auto [victim, index] = ring_.front();
    ring_.pop_front();
    Page& page = victim->pages[index];
    resident_bytes_ -= encoded_size(page);
    if (!cfg_.spill_path.empty()) {
      if (!spill_.is_open()) {
        spill_.open(cfg_.spill_path, std::ios::binary | std::ios::trunc);
      }
      const std::vector<std::uint8_t> bytes = page.serialize();
      spill_.write(reinterpret_cast<const char*>(bytes.data()),
                   static_cast<std::streamsize>(bytes.size()));
      ++pages_spilled_;
    }
    page.samples.clear();
    page.samples.shrink_to_fit();
    victim->evicted[index] = true;
    ++pages_evicted_;
  }
}

}  // namespace rtad::telemetry
