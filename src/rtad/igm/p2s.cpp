#include "rtad/igm/p2s.hpp"

namespace rtad::igm {

P2s::P2s(sim::Fifo<trace::DecodedBranch>& in, std::size_t out_capacity)
    : sim::Component("p2s"), in_(in), out_(out_capacity) {}

void P2s::reset() {
  out_.clear();
  forwarded_ = 0;
}

void P2s::tick() {
  if (in_.empty() || out_.full()) return;
  out_.push(*in_.pop());
  ++forwarded_;
}

}  // namespace rtad::igm
