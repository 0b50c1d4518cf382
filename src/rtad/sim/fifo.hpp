// Bounded hardware FIFO model with overflow accounting.
//
// Overflow behaviour matters for the paper's evaluation: §IV-C observes that
// with the original MIAOW the MCM input FIFO occasionally overflows on
// branch-heavy benchmarks (471.omnetpp) and *drops newly arriving data*.
// `try_push` models exactly that drop-new policy and counts the losses; a
// drop-oldest variant (evict the head, accept the newcomer) is selectable
// for robustness experiments that compare loss policies under pressure.
//
// Storage is a ring buffer that grows on demand (doubling) up to the
// capacity and never shrinks, so a steady stream through a bounded FIFO
// allocates nothing after warm-up, and a deep but mostly empty queue (the
// serve admission queue) does not reserve its capacity up front.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace rtad::sim {

/// What a full FIFO does with an arriving item.
enum class DropPolicy : std::uint8_t {
  kDropNew,     ///< discard the newcomer (the paper's §IV-C behaviour)
  kDropOldest,  ///< evict the head to make room; the newcomer is accepted
};

template <typename T>
class Fifo {
 public:
  explicit Fifo(std::size_t capacity, DropPolicy policy = DropPolicy::kDropNew)
      : capacity_(capacity), policy_(policy) {
    if (capacity == 0) throw std::invalid_argument("FIFO capacity must be > 0");
  }

  std::size_t capacity() const noexcept { return capacity_; }
  DropPolicy policy() const noexcept { return policy_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  bool full() const noexcept { return size_ >= capacity_; }

  /// Push under the drop policy (hardware FIFOs do not exert backpressure
  /// on the trace path). On a full FIFO the overflow is counted and either
  /// the item is dropped (kDropNew, returns false) or the oldest entry is
  /// evicted to admit it (kDropOldest, returns true). Returns whether the
  /// pushed item was accepted.
  bool try_push(const T& item) { return push_impl(item); }
  bool try_push(T&& item) { return push_impl(std::move(item)); }

  /// Install a hook invoked after every *accepted* push. The consumer side
  /// registers `request_wake()` here so the event scheduler un-blocks its
  /// clock domain the moment data crosses into it. A kDropNew overflow
  /// leaves the occupancy unchanged and wakes nobody; a kDropOldest
  /// overflow still delivers new data (head evicted) and therefore fires
  /// the hook — the consumer's view changed even though size() did not.
  void set_wake_hook(std::function<void()> hook) {
    wake_hook_ = std::move(hook);
  }

  /// Install a hook invoked with the new size() whenever occupancy may have
  /// changed (accepted push, non-empty pop, clear). The observability layer
  /// registers a trace-counter emitter here; the sink dedups repeats, so a
  /// kDropOldest overflow (size unchanged) costs nothing in the trace.
  void set_occupancy_hook(std::function<void(std::size_t)> hook) {
    occupancy_hook_ = std::move(hook);
  }

  /// Push that requires space; throws on overflow *under kDropNew only*.
  /// Under kDropOldest a full-FIFO push is defined to evict the head and
  /// succeed, so push and try_push agree on the same policy. For paths with
  /// real backpressure where the producer checked `full()` first.
  void push(const T& item) {
    if (full() && policy_ == DropPolicy::kDropNew)
      throw std::runtime_error("push into full FIFO");
    try_push(item);
  }

  std::optional<T> pop() {
    if (size_ == 0) return std::nullopt;
    T item = std::move(slots_[head_]);
    drop_head();
    if (occupancy_hook_) occupancy_hook_(size_);
    return item;
  }

  const T& front() const { return slots_[head_]; }

  void clear() {
    while (size_ > 0) drop_head();
    head_ = 0;
    if (occupancy_hook_) occupancy_hook_(0);
  }

  /// Total push attempts (accepted + dropped).
  std::uint64_t pushes() const noexcept { return pushes_; }
  /// Items lost to a full FIFO (the newcomer under kDropNew, the evicted
  /// head under kDropOldest).
  std::uint64_t overflows() const noexcept { return overflows_; }
  /// Deepest occupancy ever observed (since construction or the last
  /// reset_stats()).
  std::size_t high_watermark() const noexcept { return high_watermark_; }

  /// Restart the counters for a new measurement window. The high watermark
  /// restarts from the *current* occupancy — not zero — so a window opened
  /// on a non-empty FIFO never reports a watermark below what is already
  /// buffered.
  void reset_stats() noexcept {
    pushes_ = 0;
    overflows_ = 0;
    high_watermark_ = size_;
  }

 private:
  static constexpr std::size_t kMinSlots = 8;

  template <typename U>
  bool push_impl(U&& item) {
    ++pushes_;
    if (full()) {
      ++overflows_;
      if (policy_ == DropPolicy::kDropNew) return false;
      drop_head();  // kDropOldest: sacrifice the head
    }
    if (size_ == slots_.size()) grow();
    std::size_t tail = head_ + size_;
    if (tail >= slots_.size()) tail -= slots_.size();
    slots_[tail] = std::forward<U>(item);
    ++size_;
    high_watermark_ = std::max(high_watermark_, size_);
    if (occupancy_hook_) occupancy_hook_(size_);
    if (wake_hook_) wake_hook_();
    return true;
  }

  /// Remove the head. A slot that owns resources (an InputVector's
  /// payload) is reset so a popped item's memory is released at once.
  void drop_head() {
    if constexpr (!std::is_trivially_destructible_v<T>) slots_[head_] = T{};
    if (++head_ == slots_.size()) head_ = 0;
    --size_;
  }

  /// Double the ring (at least kMinSlots, at most capacity_), unrolling
  /// the live items to the front of the new storage.
  void grow() {
    std::vector<T> bigger(
        std::min(capacity_, std::max(kMinSlots, 2 * slots_.size())));
    for (std::size_t i = 0, at = head_; i < size_; ++i) {
      bigger[i] = std::move(slots_[at]);
      if (++at == slots_.size()) at = 0;
    }
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::size_t capacity_;
  DropPolicy policy_;
  std::vector<T> slots_;  ///< ring storage; live items [head_, head_+size_)
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t pushes_ = 0;
  std::uint64_t overflows_ = 0;
  std::size_t high_watermark_ = 0;
  std::function<void()> wake_hook_;
  std::function<void(std::size_t)> occupancy_hook_;
};

}  // namespace rtad::sim
