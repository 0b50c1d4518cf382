// Deterministic index fan-out for independent simulations.
//
// fan_out(jobs, n, fn) returns out[i] = fn(i) for every i in [0, n), in
// index order. It runs on min(jobs, n) threads, the caller's among them
// (jobs 0 acts as 1); they pull indices from one atomic counter, so only
// the schedule depends on the worker count, never the result. fn is called
// concurrently through a const reference, so it must be safe to call from
// several threads and whatever it computes must depend solely on i.
//
// Every call to fn returns before fan_out returns or throws: no call ever
// outlives state the caller lent it. If calls threw, the exception of the
// lowest index is rethrown, so the error too is the same for any worker
// count.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

namespace rtad::sim {

template <typename Fn>
auto fan_out(std::size_t jobs, std::size_t n, const Fn& fn)
    -> std::vector<std::invoke_result_t<const Fn&, std::size_t>> {
  using R = std::invoke_result_t<const Fn&, std::size_t>;
  std::vector<std::optional<R>> slots(n);
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < n;) {
      try {
        slots[i].emplace(fn(i));
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  const std::size_t threads = std::min(jobs, n);
  std::vector<std::thread> helpers;
  helpers.reserve(threads);
  for (std::size_t t = 1; t < threads; ++t) {
    try {
      helpers.emplace_back(work);
    } catch (...) {
      break;  // fewer threads drain the same counter to the same result
    }
  }
  work();
  for (auto& h : helpers) h.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  std::vector<R> out;
  out.reserve(n);
  for (auto& s : slots) out.push_back(std::move(*s));
  return out;
}

}  // namespace rtad::sim
