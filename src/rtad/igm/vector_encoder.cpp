#include "rtad/igm/vector_encoder.hpp"

#include <stdexcept>

namespace rtad::igm {

VectorEncoder::VectorEncoder(VectorEncoderConfig config)
    : config_(config), counts_(config.vocab_size, 0) {
  if (config.vocab_size == 0) {
    throw std::invalid_argument("vocab size must be > 0");
  }
  if (config.encoding == Encoding::kSlidingHistogram && config.window == 0) {
    throw std::invalid_argument("histogram window must be > 0");
  }
}

void VectorEncoder::reset() {
  window_tokens_.clear();
  std::fill(counts_.begin(), counts_.end(), 0);
  vectors_emitted_ = 0;
  taint_remaining_ = 0;
}

void VectorEncoder::map_address(std::uint64_t address, std::uint32_t token) {
  if (token >= config_.vocab_size) {
    throw std::invalid_argument("token exceeds vocabulary");
  }
  table_[address] = token;
}

std::uint32_t VectorEncoder::hash_bucket(std::uint64_t address,
                                         std::uint32_t vocab) noexcept {
  std::uint64_t z = address + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return static_cast<std::uint32_t>(z % vocab);
}

std::uint32_t VectorEncoder::token_for(std::uint64_t address) const noexcept {
  if (auto it = table_.find(address); it != table_.end()) return it->second;
  if (config_.hash_fallback) return hash_bucket(address, config_.vocab_size);
  return config_.vocab_size - 1;  // reserved "unknown" bucket
}

bool VectorEncoder::encode(const trace::DecodedBranch& branch,
                           InputVector& out) {
  const std::uint32_t token = token_for(branch.address);
  ++vectors_emitted_;

  switch (config_.encoding) {
    case Encoding::kTokenStream:
      out.payload.assign(1, token);
      out.origin_ps = branch.origin_ps;
      out.event_seq = branch.event_seq;
      out.injected = branch.injected;
      return true;

    case Encoding::kSlidingHistogram: {
      window_tokens_.push_back(token);
      ++counts_[token];
      if (window_tokens_.size() > config_.window) {
        --counts_[window_tokens_.front()];
        window_tokens_.pop_front();
      }
      // An injected event taints every window it participates in.
      if (branch.injected) {
        taint_remaining_ = config_.window;
      } else if (taint_remaining_ > 0) {
        --taint_remaining_;
      }
      out.payload.assign(counts_.begin(), counts_.end());
      out.origin_ps = branch.origin_ps;
      out.event_seq = branch.event_seq;
      out.injected = branch.injected || taint_remaining_ > 0;
      return true;
    }
  }
  return false;
}

}  // namespace rtad::igm
