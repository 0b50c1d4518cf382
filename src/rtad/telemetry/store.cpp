#include "rtad/telemetry/store.hpp"

#include <algorithm>
#include <utility>

namespace rtad::telemetry {

TelemetryStore::TelemetryStore(StoreConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.page_samples == 0) cfg_.page_samples = 1;
  if (cfg_.page_samples > UINT32_MAX) {  // Stream::open counts in 32 bits
    throw TelemetryError("TelemetryStore: page_samples exceeds 2^32 - 1");
  }
  if (cfg_.fanout == 0) cfg_.fanout = 1;
}

void TelemetryStore::append(const std::string& tenant, const Sample& sample) {
  if (streams_.empty() || streams_[last_].tenant != tenant) {
    const auto [it, added] =
        ids_.try_emplace(tenant, static_cast<std::uint32_t>(streams_.size()));
    if (added) streams_.emplace_back().tenant = tenant;
    last_ = it->second;
  }
  Stream& stream = streams_[last_];
  if (sample.at_ps < stream.last_ps) {
    throw TelemetryError(
        "TelemetryStore::append: samples must arrive in stream-clock order");
  }
  if (stream.open == 0) {  // the tail takes a free slot
    if (free_.empty()) {    // a new pool chunk; its lowest slot goes first
      pool_.push_back(std::make_unique<Sample[]>(kChunk * cfg_.page_samples));
      for (std::size_t s = pool_.size() * kChunk; free_.size() < kChunk;) {
        free_.push_back(static_cast<std::uint32_t>(--s));
      }
    }
    stream.tail = free_.back();
    free_.pop_back();
  }
  slot(stream.tail)[stream.open++] = sample;
  stream.last_ps = sample.at_ps;
  ++stream.samples;
  stream.health += sample.health;

  first_ps_ = samples_ == 0 ? sample.at_ps : std::min(first_ps_, sample.at_ps);
  last_ps_ = std::max(last_ps_, sample.at_ps);
  ++samples_;
  if (sample.flagged) ++flagged_;

  if (stream.open >= cfg_.page_samples) seal(last_);
}

void TelemetryStore::seal(std::uint32_t id) {
  Stream& stream = streams_[id];
  if (pages_sealed_ % kChunk == 0) {
    log_.push_back(std::make_unique<Sealed[]>(kChunk));
  }
  Sealed& page = log_.back()[pages_sealed_ % kChunk];
  page = Sealed{{}, id, stream.tail};
  for (const Sample& s : tail(stream)) page.bin.fold(s);
  resident_bytes_ += encoded_size(stream.tenant.size(), stream.open);
  resident_bytes_hwm_ = std::max(resident_bytes_hwm_, resident_bytes_);
  stream.open = 0;
  ++pages_sealed_;

  if (cfg_.cap_bytes != 0) evict_until_capped();
}

void TelemetryStore::evict_until_capped() {
  while (resident_bytes_ > cfg_.cap_bytes && pages_evicted_ < pages_sealed_) {
    const Sealed& page = sealed(pages_evicted_);
    Stream& victim = streams_[page.owner];
    // The victim's oldest resident page: the log is FIFO in seal order.
    const std::uint64_t seq = victim.evicted++;
    resident_bytes_ -= encoded_size(victim.tenant.size(), cfg_.page_samples);
    if (!cfg_.spill_path.empty()) {
      if (!spill_.is_open()) {
        spill_.open(cfg_.spill_path, std::ios::binary | std::ios::trunc);
      }
      const std::span<const Sample> samples = payload(page);
      const Page spilled{victim.tenant, seq, {samples.begin(), samples.end()}};
      const std::vector<std::uint8_t> bytes = spilled.serialize();
      spill_.write(reinterpret_cast<const char*>(bytes.data()),
                   static_cast<std::streamsize>(bytes.size()));
      ++pages_spilled_;
    }
    free_.push_back(page.slot);
    ++pages_evicted_;
  }
}

}  // namespace rtad::telemetry
