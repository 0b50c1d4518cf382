// Parallel-to-serial converter between TA and the input vector generator.
//
// The 32-bit TPIU word can decode into as many as four branch addresses in
// one cycle; the IVG datapath accepts one address per cycle, so the P2S
// buffers the burst and serializes it (§III-A).
#pragma once

#include "rtad/sim/component.hpp"
#include "rtad/sim/fifo.hpp"
#include "rtad/trace/stream.hpp"

namespace rtad::igm {

class P2s final : public sim::Component {
 public:
  explicit P2s(sim::Fifo<trace::DecodedBranch>& in,
               std::size_t out_capacity = 8);

  sim::Fifo<trace::DecodedBranch>& out() noexcept { return out_; }
  const sim::Fifo<trace::DecodedBranch>& out() const noexcept { return out_; }

  void tick() override;
  void reset() override;

  /// A tick forwards nothing when the input is empty (the full-output case
  /// is reported active: the consumer draining `out` un-stalls us within
  /// the same fabric domain, which a blocked hint could not observe).
  sim::WakeHint next_wake() const override {
    return in_.empty() ? sim::WakeHint::blocked() : sim::WakeHint::active();
  }

  std::uint64_t forwarded() const noexcept { return forwarded_; }

 private:
  sim::Fifo<trace::DecodedBranch>& in_;
  sim::Fifo<trace::DecodedBranch> out_;
  std::uint64_t forwarded_ = 0;
};

}  // namespace rtad::igm
