// Vector encoder (VE) — second half of the Input Vector Generator.
//
// "The filtered address values are transferred in real time to VE as input
// and then converted into vector format following a conversion table that
// can be configured to match the need of target ML models." Two encodings
// cover the two model families evaluated in the paper:
//   * kTokenStream      — one token per branch (general-branch LSTM [8]):
//                         table lookup with optional hash fallback for
//                         addresses outside the table (vocabulary bucketing);
//   * kSlidingHistogram — per-event count vector over the last `window`
//                         accepted events (syscall-window ELM [2]).
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "rtad/sim/time.hpp"
#include "rtad/trace/stream.hpp"

namespace rtad::igm {

/// A ready ML input: payload words to be written into ML-MIAOW memory plus
/// simulation sidebands for latency accounting.
struct InputVector {
  std::vector<std::uint32_t> payload;
  sim::Picoseconds origin_ps = 0;
  std::uint64_t event_seq = 0;
  bool injected = false;
};

enum class Encoding : std::uint8_t {
  kTokenStream,
  kSlidingHistogram,
};

struct VectorEncoderConfig {
  Encoding encoding = Encoding::kTokenStream;
  std::uint32_t vocab_size = 256;
  std::uint32_t window = 32;     ///< sliding-histogram window length
  bool hash_fallback = true;     ///< bucket unknown addresses by hash
};

class VectorEncoder {
 public:
  explicit VectorEncoder(VectorEncoderConfig config);

  /// Install/extend the conversion table (address -> token).
  void map_address(std::uint64_t address, std::uint32_t token);

  /// Encode one accepted branch. Returns true and fills `out` when a vector
  /// is emitted (every event for both current encodings).
  bool encode(const trace::DecodedBranch& branch, InputVector& out);

  /// The token a given address maps to (fallback hashing included).
  std::uint32_t token_for(std::uint64_t address) const noexcept;

  void reset();

  const VectorEncoderConfig& config() const noexcept { return config_; }
  std::uint64_t vectors_emitted() const noexcept { return vectors_emitted_; }

  /// The hash-bucketing function, exposed so offline training uses the
  /// exact same address-to-token mapping as the hardware.
  static std::uint32_t hash_bucket(std::uint64_t address,
                                   std::uint32_t vocab) noexcept;

 private:
  VectorEncoderConfig config_;
  std::unordered_map<std::uint64_t, std::uint32_t> table_;
  std::deque<std::uint32_t> window_tokens_;
  std::vector<std::uint32_t> counts_;
  std::uint64_t vectors_emitted_ = 0;
  std::uint32_t taint_remaining_ = 0;
};

}  // namespace rtad::igm
