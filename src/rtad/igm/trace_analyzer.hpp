// Trace Analyzer (TA) — the main IGM submodule (§III-A, Fig. 2).
//
// Receives the TPIU trace stream through a 32-bit port and decodes it into
// branch target addresses. Four TA units each own one byte lane, but the
// packet state machine is inherently serial, so the four units form a
// combinational ripple chain within a cycle: up to `width` bytes decoded per
// 125 MHz cycle, producing up to `width` addresses in the worst case — which
// is why the P2S converter follows (§III-A).
//
// The packet grammar itself lives behind trace::TraceDecoder: the TA owns
// byte-lane pacing, backpressure, and residual-word state, while the decoder
// selected by TraceProtocol owns the state machine that turns bytes into
// DecodedBranch records.
#pragma once

#include <cstdint>
#include <memory>

#include "rtad/coresight/tpiu.hpp"
#include "rtad/sim/component.hpp"
#include "rtad/sim/fifo.hpp"
#include "rtad/trace/decoder.hpp"
#include "rtad/trace/protocol.hpp"
#include "rtad/trace/stream.hpp"

namespace rtad::igm {

/// What the TA does when its output FIFO toward the P2S is full.
enum class OverflowPolicy : std::uint8_t {
  kStall,       ///< hold the byte stream (backpressure into the TPIU port)
  kDropResync,  ///< keep decoding, drop branches that find no room
};

class TraceAnalyzer final : public sim::Component {
 public:
  /// `width` = number of TA units (bytes decoded per cycle), 1..4.
  TraceAnalyzer(sim::Fifo<coresight::TpiuWord>& port, std::uint32_t width = 4,
                std::size_t out_capacity = 16,
                OverflowPolicy overflow = OverflowPolicy::kStall,
                trace::TraceProtocol proto = trace::TraceProtocol::kPft);

  sim::Fifo<trace::DecodedBranch>& out() noexcept { return out_; }
  const sim::Fifo<trace::DecodedBranch>& out() const noexcept { return out_; }

  void tick() override;
  void reset() override;

  /// True when a tick would be a pure no-op: no partially-consumed word and
  /// nothing waiting on the port. Note this is *not* `out().empty()` — a
  /// stalled tick (pending word, full output) still counts stall_cycles_.
  bool quiescent() const noexcept { return !has_pending_ && port_.empty(); }

  sim::WakeHint next_wake() const override {
    return quiescent() ? sim::WakeHint::blocked() : sim::WakeHint::active();
  }

  std::uint32_t width() const noexcept { return width_; }
  OverflowPolicy overflow_policy() const noexcept { return overflow_; }
  trace::TraceProtocol protocol() const noexcept {
    return decoder_->protocol();
  }
  const trace::TraceDecoder& decoder() const noexcept { return *decoder_; }
  std::uint64_t stall_cycles() const noexcept { return stall_cycles_; }
  /// Branches decoded but discarded on a full output under kDropResync.
  std::uint64_t dropped_branches() const noexcept { return dropped_branches_; }

 private:
  sim::Fifo<coresight::TpiuWord>& port_;
  std::unique_ptr<trace::TraceDecoder> decoder_;
  sim::Fifo<trace::DecodedBranch> out_;
  std::uint32_t width_;
  OverflowPolicy overflow_;

  // Residual bytes of a word that could not be fully consumed this cycle
  // (width < 4, or output backpressure).
  coresight::TpiuWord pending_{};
  std::uint8_t pending_pos_ = 0;
  bool has_pending_ = false;

  std::uint64_t stall_cycles_ = 0;
  std::uint64_t dropped_branches_ = 0;
};

}  // namespace rtad::igm
