#include "rtad/igm/igm.hpp"

namespace rtad::igm {

Igm::Igm(IgmConfig config, sim::Fifo<coresight::TpiuWord>& tpiu_port)
    : sim::Component("igm"),
      config_(config),
      ta_(tpiu_port, config.ta_width, 16, config.ta_overflow,
          config.protocol),
      p2s_(ta_.out()),
      encoder_(config.encoder),
      out_(config.out_capacity) {}

void Igm::reset() {
  ta_.reset();
  p2s_.reset();
  encoder_.reset();
  out_.clear();
  vectors_out_ = 0;
  cycles_ = 0;
  busy_cycles_ = 0;
}

void Igm::set_observability(obs::Observer& ob, const std::string& domain) {
  acct_ = ob.account(name(), domain);
  obs::TraceSink* sink = ob.sink();
  if (sink == nullptr) return;
  active_trace_ = obs::TraceHandle(sink, sink->track("igm.active"));
  obs::TraceHandle occ(sink, sink->counter_track("igm.out"));
  out_.set_occupancy_hook(
      [this, occ](std::size_t n) mutable {
        occ.counter(static_cast<std::int64_t>(n), sim_now());
      });
}

void Igm::tick() {
  ++cycles_;
  // Bucket from start-of-tick state (a pure function of it, so dense and
  // event modes agree): quiescent pipelines are idle, an IVG held up by a
  // full vector FIFO toward the MCM is a downstream-FIFO stall, anything
  // else is real pipeline work.
  const bool start_quiescent =
      ta_.quiescent() && ta_.out().empty() && p2s_.out().empty();
  if (!start_quiescent) ++busy_cycles_;
  if (acct_ != nullptr) {
    if (start_quiescent)
      ++acct_->idle;
    else if (!p2s_.out().empty() && out_.full())
      ++acct_->stall_fifo;
    else
      ++acct_->busy;
  }
  // IVG stage: consume one address produced by the P2S last cycle.
  if (!p2s_.out().empty() && !out_.full()) {
    const trace::DecodedBranch branch = *p2s_.out().pop();
    const bool pass = mapper_.passes(branch);
    mapper_.note(pass);
    if (pass) {
      InputVector vec;
      if (encoder_.encode(branch, vec)) {
        out_.try_push(vec);
        ++vectors_out_;
        if (emit_observer_) emit_observer_(vec, local_time_ps());
      }
    }
  }
  // Upstream stages (consumer-first evaluation).
  p2s_.tick();
  ta_.tick();
  // Activity window spans open/close on the end-of-tick quiescence edge —
  // the same predicate the wake hint uses, so the closing tick still fires
  // under the event kernel and both modes record identical spans.
  if (active_trace_) {
    const bool quiescent =
        ta_.quiescent() && ta_.out().empty() && p2s_.out().empty();
    if (!quiescent && !traced_active_) {
      active_trace_.begin("active", sim_now());
      traced_active_ = true;
    } else if (quiescent && traced_active_) {
      active_trace_.end(sim_now());
      traced_active_ = false;
    }
  }
}

}  // namespace rtad::igm
