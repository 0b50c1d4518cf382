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
  const auto it = ids_.find(tenant);
  return it == ids_.end() ? nullptr : &streams_[it->second];
}

void TelemetryStore::append(const std::string& tenant, const Sample& sample) {
  if (streams_.empty() || streams_[last_].tenant != tenant) {
    const auto [it, added] =
        ids_.try_emplace(tenant, static_cast<std::uint32_t>(streams_.size()));
    if (added) streams_.emplace_back().tenant = tenant;
    last_ = it->second;
  }
  Stream& stream = streams_[last_];
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

  if (stream.open.size() >= cfg_.page_samples) seal(last_);
}

void TelemetryStore::seal(std::uint32_t id) {
  Stream& stream = streams_[id];
  SummaryBin bin;
  for (const Sample& s : stream.open) bin.fold(s);
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

  resident_bytes_ += encoded_size(stream.tenant.size(), stream.open.size());
  resident_bytes_hwm_ = std::max(resident_bytes_hwm_, resident_bytes_);
  stream.pages.push_back(std::exchange(stream.open, {}));
  ring_.push_back(id);
  ++pages_sealed_;

  if (cfg_.cap_bytes != 0) evict_until_capped();
}

void TelemetryStore::evict_until_capped() {
  while (resident_bytes_ > cfg_.cap_bytes && !ring_.empty()) {
    Stream& victim = streams_[ring_.front()];
    ring_.pop_front();
    // The victim's oldest resident page: the ring is FIFO in seal order.
    const std::uint64_t seq = victim.evicted++;
    std::vector<Sample> samples = std::exchange(victim.pages[seq], {});
    resident_bytes_ -= encoded_size(victim.tenant.size(), samples.size());
    if (!cfg_.spill_path.empty()) {
      if (!spill_.is_open()) {
        spill_.open(cfg_.spill_path, std::ios::binary | std::ios::trunc);
      }
      const Page page{victim.tenant, seq, std::move(samples)};
      const std::vector<std::uint8_t> bytes = page.serialize();
      spill_.write(reinterpret_cast<const char*>(bytes.data()),
                   static_cast<std::streamsize>(bytes.size()));
      ++pages_spilled_;
    }
    ++pages_evicted_;
  }
}

}  // namespace rtad::telemetry
