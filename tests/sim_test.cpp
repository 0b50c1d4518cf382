// Simulation-kernel unit tests: clocks, scheduler, FIFOs, RNG, stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "rtad/igm/vector_encoder.hpp"
#include "rtad/sim/clock.hpp"
#include "rtad/sim/fifo.hpp"
#include "rtad/sim/rng.hpp"
#include "rtad/sim/simulator.hpp"
#include "rtad/sim/stats.hpp"
#include "rtad/workloads/spec_model.hpp"
#include "rtad/workloads/trace_generator.hpp"

namespace rtad::sim {
namespace {

class TickCounter final : public Component {
 public:
  explicit TickCounter(std::string name) : Component(std::move(name)) {}
  void tick() override { ++ticks; }
  void reset() override { ticks = 0; }
  std::uint64_t ticks = 0;
};

TEST(ClockDomain, PeriodsAreExact) {
  ClockDomain cpu("cpu", 250'000'000);
  ClockDomain fabric("fabric", 125'000'000);
  ClockDomain gpu("gpu", 50'000'000);
  EXPECT_EQ(cpu.period_ps(), 4'000u);
  EXPECT_EQ(fabric.period_ps(), 8'000u);
  EXPECT_EQ(gpu.period_ps(), 20'000u);
}

TEST(ClockDomain, RejectsNonIntegerPeriod) {
  EXPECT_THROW(ClockDomain("odd", 333'333'333), std::invalid_argument);
  EXPECT_THROW(ClockDomain("zero", 0), std::invalid_argument);
}

TEST(ClockDomain, CycleConversions) {
  ClockDomain gpu("gpu", 50'000'000);
  EXPECT_EQ(gpu.cycles_to_ps(5), 100'000u);
  EXPECT_EQ(gpu.ps_to_cycles(100'000), 5u);
  EXPECT_EQ(gpu.ps_to_cycles(99'999), 4u);
}

TEST(Simulator, TicksAtFrequencyRatio) {
  Simulator sim;
  auto& fast = sim.add_clock("fast", 250'000'000);
  auto& slow = sim.add_clock("slow", 50'000'000);
  TickCounter a("a"), b("b");
  sim.attach(fast, a);
  sim.attach(slow, b);
  sim.run_until(kPsPerUs);  // 1 us
  EXPECT_EQ(a.ticks, 250u);
  EXPECT_EQ(b.ticks, 50u);
}

TEST(Simulator, CoincidentEdgesFireFastDomainFirst) {
  Simulator sim;
  auto& fast = sim.add_clock("fast", 250'000'000);
  auto& slow = sim.add_clock("slow", 125'000'000);
  std::vector<std::string> order;
  class Probe final : public Component {
   public:
    Probe(std::string name, std::vector<std::string>& log)
        : Component(name), log_(log) {}
    void tick() override { log_.push_back(name()); }
    std::vector<std::string>& log_;
  };
  Probe pf("fast", order), ps("slow", order);
  sim.attach(fast, pf);
  sim.attach(slow, ps);
  sim.run_until(8'000);  // one slow edge at 8 ns, fast edges at 4 and 8 ns
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "fast");
  EXPECT_EQ(order[1], "fast");  // 8 ns edge: fast (registered first) ...
  EXPECT_EQ(order[2], "slow");  // ... then slow
}

TEST(Simulator, RunWhileStopsOnPredicate) {
  Simulator sim;
  auto& clk = sim.add_clock("clk", 100'000'000);
  TickCounter c("c");
  sim.attach(clk, c);
  sim.run_while([&] { return c.ticks < 10; }, kPsPerMs);
  EXPECT_EQ(c.ticks, 10u);
}

TEST(Simulator, RunCyclesAdvancesExactCount) {
  Simulator sim;
  auto& clk = sim.add_clock("clk", 125'000'000);
  TickCounter c("c");
  sim.attach(clk, c);
  sim.run_cycles(clk, 17);
  EXPECT_EQ(c.ticks, 17u);
  EXPECT_EQ(clk.cycles(), 17u);
}

TEST(Simulator, ResetRewindsTimeAndComponents) {
  Simulator sim;
  auto& clk = sim.add_clock("clk", 125'000'000);
  TickCounter c("c");
  sim.attach(clk, c);
  sim.run_cycles(clk, 5);
  sim.reset();
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_EQ(c.ticks, 0u);
  EXPECT_EQ(clk.cycles(), 0u);
}

TEST(Simulator, ThrowsWithNoComponents) {
  Simulator sim;
  sim.add_clock("clk", 1'000'000);
  EXPECT_THROW(sim.run_cycles(*&sim.add_clock("c2", 1'000'000), 1),
               std::runtime_error);
}

TEST(Simulator, AttachToEmptyDomainMidRunClampsNextEdge) {
  Simulator sim;
  auto& running = sim.add_clock("running", 250'000'000);  // 4 ns
  auto& late = sim.add_clock("late", 125'000'000);        // 8 ns
  TickCounter a("a");
  sim.attach(running, a);
  sim.run_until(102'000);
  // First component lands in a domain that never advanced its edge clock;
  // its first edge must be the first multiple of the period >= now (104 ns),
  // not a stale edge in the past.
  TickCounter b("b");
  sim.attach(late, b);
  sim.run_until(120'000);
  EXPECT_EQ(b.ticks, 3u);  // edges at 104, 112, 120 ns
  EXPECT_EQ(late.cycles(), 3u);
}

TEST(Simulator, RunWhileAdvancesNowOnEdgeExhaustion) {
  Simulator sim;
  auto& clk = sim.add_clock("clk", 125'000'000);
  TickCounter c("c");
  sim.attach(clk, c);
  const Picoseconds stopped = sim.run_while([] { return true; }, 123'456);
  EXPECT_EQ(stopped, 123'456u);  // matches run_until semantics
  EXPECT_EQ(sim.now(), 123'456u);
}

namespace {

/// Does real work on one tick, then reports idle for `idle_span` cycles.
class PeriodicWorker final : public Component {
 public:
  PeriodicWorker(std::string name, Cycle idle_span)
      : Component(std::move(name)), idle_span_(idle_span) {}
  void tick() override { ++ticks; }
  WakeHint next_wake() const override { return WakeHint::idle_for(idle_span_); }
  void on_cycles_skipped(Cycle n) override { skipped += n; }
  std::uint64_t ticks = 0;
  std::uint64_t skipped = 0;

 private:
  Cycle idle_span_;
};

/// Ticks once, then sleeps until an external request_wake().
class BlockedAfterFirstTick final : public Component {
 public:
  explicit BlockedAfterFirstTick(std::string name)
      : Component(std::move(name)) {}
  void tick() override { ++ticks; }
  WakeHint next_wake() const override { return WakeHint::blocked(); }
  void on_cycles_skipped(Cycle n) override { skipped += n; }
  std::uint64_t ticks = 0;
  std::uint64_t skipped = 0;
};

}  // namespace

TEST(EventScheduler, SkipsIdleCyclesAndReplaysThemExactly) {
  Simulator sim;
  sim.set_mode(SchedMode::kEventDriven);
  auto& clk = sim.add_clock("clk", 125'000'000);  // 8 ns period
  PeriodicWorker w("w", 9);
  sim.attach(clk, w);
  sim.run_until(80 * 8'000);  // 80 edges on the dense grid
  // Fires at edges 1, 11, 21, ..., 71 (idle_for(9) after each), then the
  // tail is fast-forwarded: every dense cycle is accounted for.
  EXPECT_EQ(w.ticks, 8u);
  EXPECT_EQ(w.skipped, 72u);
  EXPECT_EQ(clk.cycles(), 80u);
  EXPECT_EQ(sim.stats().counter("sim.skipped_cycles.clk").value(), 72u);
  EXPECT_EQ(sim.stats().counter("sim.skipped_edge_groups").value(), 72u);
}

TEST(EventScheduler, DenseModeNeverSkips) {
  Simulator sim;
  sim.set_mode(SchedMode::kDense);
  auto& clk = sim.add_clock("clk", 125'000'000);
  PeriodicWorker w("w", 9);
  sim.attach(clk, w);
  sim.run_until(80 * 8'000);
  EXPECT_EQ(w.ticks, 80u);
  EXPECT_EQ(w.skipped, 0u);
  EXPECT_EQ(sim.stats().counter("sim.skipped_edge_groups").value(), 0u);
}

namespace {

/// Pushes `count` items into a FIFO after `delay` warm-up ticks.
class DelayedProducer final : public Component {
 public:
  DelayedProducer(std::string name, Fifo<int>& out, Cycle delay, int count)
      : Component(std::move(name)), out_(out), delay_(delay), count_(count) {}
  void tick() override {
    if (delay_ > 0) {
      --delay_;
      return;
    }
    if (count_ > 0) {
      out_.try_push(1);
      --count_;
    }
  }
  WakeHint next_wake() const override {
    if (delay_ > 0) return WakeHint::idle_for(delay_);
    return count_ > 0 ? WakeHint::active() : WakeHint::blocked();
  }
  void on_cycles_skipped(Cycle n) override { delay_ -= n; }

 private:
  Fifo<int>& out_;
  Cycle delay_;
  int count_;
};

/// Pops one item per tick; blocked while its input FIFO is empty.
class FifoConsumer final : public Component {
 public:
  FifoConsumer(std::string name, Fifo<int>& in)
      : Component(std::move(name)), in_(in) {
    in_.set_wake_hook([this] { request_wake(); });
  }
  void tick() override {
    ++ticks;
    if (!in_.empty()) {
      in_.pop();
      ++consumed;
    }
  }
  WakeHint next_wake() const override {
    return in_.empty() ? WakeHint::blocked() : WakeHint::active();
  }
  std::uint64_t ticks = 0;
  std::uint64_t consumed = 0;

 private:
  Fifo<int>& in_;
};

}  // namespace

TEST(EventScheduler, FifoPushWakesConsumerAcrossDomains) {
  Simulator sim;
  sim.set_mode(SchedMode::kEventDriven);
  auto& fast = sim.add_clock("fast", 250'000'000);  // 4 ns, producer
  auto& slow = sim.add_clock("slow", 125'000'000);  // 8 ns, consumer
  Fifo<int> fifo(8);
  DelayedProducer prod("prod", fifo, 5, 2);
  FifoConsumer cons("cons", fifo);
  sim.attach(fast, prod);
  sim.attach(slow, cons);
  sim.run_until(200'000);
  // Producer pushes at 24 ns (coincident with a sleeping consumer edge:
  // same-timestamp wake, producer domain fires first) and at 28 ns (the
  // consumer wakes on its next edge, 32 ns). The consumer's only other
  // tick is its initial edge at 8 ns, before it first reports blocked.
  EXPECT_EQ(cons.consumed, 2u);
  EXPECT_EQ(cons.ticks, 3u);
  EXPECT_TRUE(fifo.empty());
  // Both domains slept through the 200 ns window's dense grid.
  EXPECT_GT(sim.stats().counter("sim.skipped_cycles.fast").value(), 0u);
  EXPECT_GT(sim.stats().counter("sim.skipped_cycles.slow").value(), 0u);
}

TEST(EventScheduler, FifoWakeIsEquivalentToDense) {
  for (const SchedMode mode : {SchedMode::kDense, SchedMode::kEventDriven}) {
    Simulator sim;
    sim.set_mode(mode);
    auto& fast = sim.add_clock("fast", 250'000'000);
    auto& slow = sim.add_clock("slow", 125'000'000);
    Fifo<int> fifo(8);
    DelayedProducer prod("prod", fifo, 5, 2);
    FifoConsumer cons("cons", fifo);
    sim.attach(fast, prod);
    sim.attach(slow, cons);
    sim.run_until(200'000);
    EXPECT_EQ(cons.consumed, 2u) << to_string(mode);
    EXPECT_TRUE(fifo.empty()) << to_string(mode);
    EXPECT_EQ(slow.cycles(), 25u) << to_string(mode);
    EXPECT_EQ(fast.cycles(), 50u) << to_string(mode);
  }
}

TEST(EventScheduler, RunCyclesOnQuiescentDomainAdvancesExactly) {
  Simulator sim;
  sim.set_mode(SchedMode::kEventDriven);
  auto& clk = sim.add_clock("clk", 125'000'000);
  BlockedAfterFirstTick b("b");
  sim.attach(clk, b);
  sim.run_cycles(clk, 50);
  EXPECT_EQ(clk.cycles(), 50u);
  EXPECT_EQ(b.ticks, 1u);  // initial edge only; the rest is replayed
  EXPECT_EQ(b.skipped, 49u);
  // A second call starts fully quiescent (no initial active edge at all).
  sim.run_cycles(clk, 30);
  EXPECT_EQ(clk.cycles(), 80u);
  EXPECT_EQ(b.ticks, 1u);
  EXPECT_EQ(b.skipped, 79u);
}

TEST(EventScheduler, RequestWakeEndsBlockedSleep) {
  Simulator sim;
  sim.set_mode(SchedMode::kEventDriven);
  auto& fast = sim.add_clock("fast", 250'000'000);
  auto& slow = sim.add_clock("slow", 125'000'000);
  Fifo<int> fifo(4);
  // Producer pushes once at 40 ns then blocks; nothing else is attached to
  // the fast domain, so after 40 ns both domains are fully quiescent.
  DelayedProducer prod("prod", fifo, 9, 1);
  FifoConsumer cons("cons", fifo);
  sim.attach(fast, prod);
  sim.attach(slow, cons);
  sim.run_until(kPsPerMs);  // 1 ms: ~250k dense groups, almost all skipped
  EXPECT_EQ(cons.consumed, 1u);
  EXPECT_EQ(slow.cycles(), kPsPerMs / 8'000);
  EXPECT_GT(sim.stats().counter("sim.skipped_edge_groups").value(), 200'000u);
}

TEST(Fifo, WakeHookFiresOnAcceptedPushOnly) {
  Fifo<int> f(2);
  int wakes = 0;
  f.set_wake_hook([&] { ++wakes; });
  EXPECT_TRUE(f.try_push(1));
  EXPECT_TRUE(f.try_push(2));
  EXPECT_FALSE(f.try_push(3));  // dropped: occupancy unchanged, no wake
  EXPECT_EQ(wakes, 2);
}

TEST(Fifo, PushPopOrder) {
  Fifo<int> f(4);
  EXPECT_TRUE(f.try_push(1));
  EXPECT_TRUE(f.try_push(2));
  EXPECT_TRUE(f.try_push(3));
  EXPECT_EQ(*f.pop(), 1);
  EXPECT_EQ(*f.pop(), 2);
  EXPECT_EQ(*f.pop(), 3);
  EXPECT_FALSE(f.pop().has_value());
}

TEST(Fifo, OverflowDropsNewAndCounts) {
  Fifo<int> f(2);
  EXPECT_TRUE(f.try_push(1));
  EXPECT_TRUE(f.try_push(2));
  EXPECT_FALSE(f.try_push(3));  // dropped
  EXPECT_EQ(f.overflows(), 1u);
  EXPECT_EQ(f.pushes(), 3u);
  EXPECT_EQ(*f.pop(), 1);  // old data survives, new was lost
}

TEST(Fifo, HighWatermarkTracksDeepestOccupancy) {
  Fifo<int> f(8);
  f.try_push(1);
  f.try_push(2);
  f.try_push(3);
  f.pop();
  f.pop();
  EXPECT_EQ(f.high_watermark(), 3u);
}

TEST(Fifo, StrictPushThrowsWhenFull) {
  Fifo<int> f(1);
  f.push(1);
  EXPECT_THROW(f.push(2), std::runtime_error);
}

TEST(Fifo, ZeroCapacityRejected) {
  EXPECT_THROW(Fifo<int>(0), std::invalid_argument);
}

TEST(Fifo, RingKeepsOrderThroughManyWrapArounds) {
  // Capacity 5 against pushes and pops of uneven sizes: the ring's head
  // and tail wrap hundreds of times, and the storage grows as occupancy
  // climbs (8 slots suffice before the capacity is reached).
  Fifo<int> f(5);
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 1000; ++round) {
    const int pushes = 1 + round % 5;
    for (int i = 0; i < pushes && !f.full(); ++i) f.push(next_in++);
    const int pops = 1 + (round * 7) % 4;
    for (int i = 0; i < pops && !f.empty(); ++i) {
      ASSERT_EQ(f.front(), next_out);
      ASSERT_EQ(*f.pop(), next_out++);
    }
    ASSERT_EQ(f.size(), static_cast<std::size_t>(next_in - next_out));
  }
  while (auto v = f.pop()) EXPECT_EQ(*v, next_out++);
  EXPECT_EQ(next_out, next_in);
  EXPECT_GT(next_in, 1000);
  EXPECT_EQ(f.overflows(), 0u);
}

TEST(Fifo, DropOldestEvictsHeadsInOrderAndFiresHooks) {
  Fifo<int> f(3, DropPolicy::kDropOldest);
  int wakes = 0;
  std::vector<std::size_t> occupancy;
  f.set_wake_hook([&] { ++wakes; });
  f.set_occupancy_hook([&](std::size_t n) { occupancy.push_back(n); });
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(f.try_push(i));
  // Wrap the ring with evictions: each overflow drops the oldest entry.
  EXPECT_TRUE(f.try_push(3));
  EXPECT_TRUE(f.try_push(4));
  f.push(5);  // push agrees with try_push under kDropOldest
  EXPECT_EQ(f.overflows(), 3u);
  EXPECT_EQ(f.pushes(), 6u);
  EXPECT_EQ(wakes, 6);
  EXPECT_EQ(occupancy,
            (std::vector<std::size_t>{1, 2, 3, 3, 3, 3}));
  EXPECT_EQ(*f.pop(), 3);
  EXPECT_EQ(*f.pop(), 4);
  EXPECT_EQ(*f.pop(), 5);
  EXPECT_FALSE(f.pop().has_value());
  EXPECT_EQ(occupancy.back(), 0u);
}

TEST(Fifo, ClearThenReuseStartsFresh) {
  Fifo<int> f(4);
  std::vector<std::size_t> occupancy;
  f.set_occupancy_hook([&](std::size_t n) { occupancy.push_back(n); });
  for (int i = 0; i < 4; ++i) f.push(i);
  f.pop();
  f.push(4);  // tail wrapped before the clear
  f.clear();
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(occupancy.back(), 0u);
  EXPECT_FALSE(f.pop().has_value());
  for (int i = 10; i < 14; ++i) EXPECT_TRUE(f.try_push(i));
  EXPECT_FALSE(f.try_push(14));
  for (int i = 10; i < 14; ++i) EXPECT_EQ(*f.pop(), i);
  // Counters span the clear; only reset_stats() restarts them.
  EXPECT_EQ(f.pushes(), 10u);
  EXPECT_EQ(f.overflows(), 1u);
  EXPECT_EQ(f.high_watermark(), 4u);
}

TEST(Fifo, HighWatermarkAfterWrapAndReset) {
  Fifo<int> f(4);
  for (int i = 0; i < 3; ++i) f.push(i);
  f.pop();
  f.pop();
  for (int i = 3; i < 6; ++i) f.push(i);  // wraps: occupancy 4
  EXPECT_EQ(f.high_watermark(), 4u);
  f.pop();
  f.pop();
  f.reset_stats();  // restarts from the current occupancy, not zero
  EXPECT_EQ(f.high_watermark(), 2u);
  f.push(6);
  EXPECT_EQ(f.high_watermark(), 3u);
  EXPECT_EQ(f.pushes(), 1u);
}

TEST(Fifo, PopReleasesOwnedPayloads) {
  // A popped (or evicted, or cleared) slot must not keep its payload's
  // memory alive: track live payloads through a shared_ptr's use count.
  const auto payload = std::make_shared<int>(7);
  Fifo<std::shared_ptr<int>> f(4, DropPolicy::kDropOldest);
  for (int i = 0; i < 4; ++i) f.push(payload);
  EXPECT_EQ(payload.use_count(), 5);
  f.pop();
  EXPECT_EQ(payload.use_count(), 4);
  f.push(payload);  // wraps
  f.push(payload);  // evicts the head
  EXPECT_EQ(payload.use_count(), 5);
  f.clear();
  EXPECT_EQ(payload.use_count(), 1);

  // The pipeline's owning payload type moves out whole.
  Fifo<igm::InputVector> vectors(2);
  igm::InputVector in;
  in.payload.assign(64, 3);
  vectors.push(std::move(in));
  const auto out = vectors.pop();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->payload, std::vector<std::uint32_t>(64, 3));
}

TEST(Rng, Deterministic) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformBelowRespectsBound) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform_below(17), 17u);
}

TEST(Rng, GeometricMeanMatchesTheory) {
  Xoshiro256 rng(11);
  const double p = 0.2;
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.geometric(p));
  const double mean = sum / n;  // E = (1-p)/p = 4
  EXPECT_NEAR(mean, 4.0, 0.15);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Xoshiro256 rng(13);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Zipf, HeavyHeadOrdering) {
  Xoshiro256 rng(5);
  ZipfSampler zipf(100, 1.2);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[90]);
}

TEST(Zipf, CoversSupport) {
  Xoshiro256 rng(6);
  ZipfSampler zipf(4, 1.0);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 10000; ++i) ++counts[zipf.sample(rng)];
  for (int c : counts) EXPECT_GT(c, 0);
}

// The cached-log1p sampler must reproduce Xoshiro256::geometric exactly:
// workload traces (and therefore every downstream experiment number) are
// derived from this stream.
TEST(Rng, GeometricSamplerBitIdenticalToAdHocGeometric) {
  for (const double p : {0.08, 0.26, 1.0 / 5'000'000.0}) {
    Xoshiro256 a(77), b(77);
    const GeometricSampler geo(p);
    for (int i = 0; i < 5000; ++i) {
      ASSERT_EQ(geo.sample(a), b.geometric(p)) << "p=" << p << " i=" << i;
    }
  }
}

// The bucket index only narrows the binary-search bounds; every draw must
// land on the same index a full search over the cdf would return.
TEST(Zipf, BucketIndexBitIdenticalToFullBinarySearch) {
  // Every skew a generator builds a sampler with: the catalog's site and
  // syscall skews plus the call-walk restart skew.
  std::vector<double> skews{workloads::kFuncRestartSkew};
  for (const auto& p : workloads::spec_cint2006()) {
    skews.push_back(p.zipf_skew);
    skews.push_back(p.syscall_zipf_skew);
  }
  std::sort(skews.begin(), skews.end());
  skews.erase(std::unique(skews.begin(), skews.end()), skews.end());

  for (const std::size_t n : {1, 2, 16, 137, 256, 4096}) {
    for (const double s : skews) {
      std::vector<double> cdf(n);
      double sum = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
        cdf[i] = sum;
      }
      for (auto& c : cdf) c /= sum;
      const auto full_search = [&](double u) {
        std::size_t lo = 0, hi = n - 1;
        while (lo < hi) {
          const std::size_t mid = (lo + hi) / 2;
          if (cdf[mid] < u) {
            lo = mid + 1;
          } else {
            hi = mid;
          }
        }
        return lo;
      };

      const ZipfSampler zipf(n, s);
      const std::size_t buckets = zipf.buckets();
      ASSERT_EQ(buckets, std::min<std::size_t>(4096, std::bit_ceil(4 * n)));
      // Draws on and just below every bucket edge k / buckets.
      for (std::size_t k = 0; k < buckets; ++k) {
        const double edge =
            static_cast<double>(k) / static_cast<double>(buckets);
        ASSERT_EQ(zipf.index_of(edge), full_search(edge))
            << "n=" << n << " s=" << s << " k=" << k;
        if (k == 0) continue;
        const double below = std::nextafter(edge, 0.0);
        ASSERT_EQ(zipf.index_of(below), full_search(below))
            << "n=" << n << " s=" << s << " below k=" << k;
      }
      Xoshiro256 a(123), b(123);
      for (int i = 0; i < 20000; ++i) {
        ASSERT_EQ(zipf.sample(a), full_search(b.uniform()))
            << "n=" << n << " s=" << s << " i=" << i;
      }
    }
  }
}

TEST(Stats, SamplerSummary) {
  Sampler s;
  s.record(1.0);
  s.record(3.0);
  s.record(2.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(Stats, PercentileNearestRank) {
  Sampler s;
  for (int i = 1; i <= 100; ++i) s.record(i);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
}

TEST(Stats, PercentileEmptySamplerIsZeroButStillValidatesQ) {
  Sampler s;
  EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 0.0);
  // Out-of-range q is a caller bug even with no samples recorded.
  EXPECT_THROW(s.percentile(-0.1), std::invalid_argument);
  EXPECT_THROW(s.percentile(100.1), std::invalid_argument);
}

TEST(Stats, PercentileRejectsNonFiniteQ) {
  // Regression: NaN compares false against both range bounds, so it used to
  // slip past the guard and feed std::ceil + a size_t cast (UB). Any
  // non-finite q must be rejected like an out-of-range one.
  Sampler s;
  s.record(1.0);
  s.record(2.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(s.percentile(nan), std::invalid_argument);
  EXPECT_THROW(s.percentile(inf), std::invalid_argument);
  EXPECT_THROW(s.percentile(-inf), std::invalid_argument);
  Sampler empty;
  EXPECT_THROW(empty.percentile(nan), std::invalid_argument);
}

TEST(Stats, PercentileSingleSampleIsThatSampleEverywhere) {
  Sampler s;
  s.record(7.5);
  EXPECT_DOUBLE_EQ(s.percentile(0), 7.5);
  EXPECT_DOUBLE_EQ(s.percentile(50), 7.5);
  EXPECT_DOUBLE_EQ(s.percentile(100), 7.5);
}

TEST(Stats, PercentileBoundariesHitMinAndMax) {
  Sampler s;
  s.record(40.0);
  s.record(10.0);
  s.record(30.0);
  s.record(20.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  // Nearest-rank on n=4: q=25 -> rank ceil(1)=1 -> first sorted sample;
  // q just above 25 must move to the second.
  EXPECT_DOUBLE_EQ(s.percentile(25), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(25.01), 20.0);
  EXPECT_DOUBLE_EQ(s.percentile(75), 30.0);
  EXPECT_DOUBLE_EQ(s.percentile(75.01), 40.0);
}

TEST(Stats, SamplerMergeCombinesAndResetClears) {
  Sampler a, b;
  a.record(2.0);
  a.record(4.0);
  b.record(1.0);
  b.record(9.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.sum(), 16.0);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
  EXPECT_DOUBLE_EQ(a.percentile(100), 9.0);

  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), 0.0);
  // Recording after a post-merge reset starts a fresh min/max window.
  a.record(5.0);
  EXPECT_DOUBLE_EQ(a.min(), 5.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);
}

TEST(Stats, SamplerMergeIntoEmptyAdoptsExtremes) {
  Sampler a, b;
  b.record(-3.0);
  b.record(8.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.min(), -3.0);
  EXPECT_DOUBLE_EQ(a.max(), 8.0);
  // Merging an empty sampler is a no-op (does not drag min toward 0).
  Sampler empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.min(), -3.0);
}

TEST(Stats, CounterAddsAndResetClears) {
  Counter a;
  a.add(3);
  a.add(4);
  EXPECT_EQ(a.value(), 7u);
  a.reset();
  EXPECT_EQ(a.value(), 0u);
  a.add();
  EXPECT_EQ(a.value(), 1u);
}

TEST(Stats, GeometricMean) {
  EXPECT_NEAR(geometric_mean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_THROW(geometric_mean({1.0, 0.0}), std::invalid_argument);
}

TEST(Stats, RegistryCountersAccumulate) {
  StatsRegistry reg;
  reg.counter("x").add();
  reg.counter("x").add(4);
  EXPECT_EQ(reg.counter("x").value(), 5u);
  reg.reset();
  EXPECT_EQ(reg.counter("x").value(), 0u);
}

}  // namespace
}  // namespace rtad::sim
