#include "rtad/serve/admission.hpp"

#include <algorithm>
#include <utility>

#include "rtad/sim/rng.hpp"

namespace rtad::serve {

sim::Picoseconds retry_backoff_ps(std::uint64_t seed, std::uint64_t ticket,
                                  std::size_t attempt,
                                  std::uint64_t base_us) {
  if (base_us == 0) base_us = 1;
  // Exponent capped so a long retry chain cannot overflow or stall the
  // schedule into the far future.
  const std::size_t exponent = std::min<std::size_t>(
      attempt > 0 ? attempt - 1 : 0, 6);
  const std::uint64_t backoff_us = base_us << exponent;
  sim::Xoshiro256 jitter(seed + 0x9E3779B97F4A7C15ULL * (ticket + 1) +
                         0xBF58476D1CE4E5B9ULL * (attempt + 1));
  return (backoff_us + jitter.uniform_below(base_us)) * sim::kPsPerUs;
}

AdmissionController::AdmissionController(const ServiceConfig& cfg)
    : cfg_(cfg), queue_(cfg_.queue_capacity, sim::DropPolicy::kDropNew) {}

AdmissionController::Verdict AdmissionController::offer(SessionRequest req) {
  ++offered_;
  const bool degrade = cfg_.policy == OverloadPolicy::kDegrade &&
                       queue_.size() >= degrade_watermark();
  if (degrade) req.degraded = true;
  if (!queue_.try_push(std::move(req))) {
    // Post-decision depth: a shed arrival saw (and records) the full queue.
    // Sampling before try_push under-reported by one at every offer and
    // could never observe capacity — serve.ingress_depth looked healthier
    // than the queue ever was.
    ++shed_;
    depth_seen_.record(static_cast<double>(queue_.size()));
    return Verdict::kShed;
  }
  depth_seen_.record(static_cast<double>(queue_.size()));
  ++admitted_;
  if (degrade) {
    ++degraded_;
    return Verdict::kAcceptedDegraded;
  }
  return Verdict::kAccepted;
}

}  // namespace rtad::serve
