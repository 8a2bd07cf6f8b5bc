#pragma once

/// \file parallel_for.hpp
/// Blocked parallel-for with the paper's "w-particle aggregation".
///
/// The paper sorts particles in Peano-Hilbert order and aggregates the force
/// computation for blocks of `w` consecutive particles into one unit of
/// thread work. `parallel_for_blocked` implements exactly that: the index
/// range is cut into blocks of `block_size`, workers claim blocks from a
/// shared atomic counter (dynamic scheduling, which is what keeps load
/// balance high on non-uniform distributions), and each worker records how
/// much work it performed so the bench harness can compute the measured
/// load-balance speedup model (see WorkStats).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace treecode {

/// Per-thread work measurements collected by a parallel region.
///
/// `work[t]` is an application-defined cost of everything thread t executed
/// (the treecode reports multipole terms evaluated + direct interactions;
/// that is the same proxy for serial computation time the paper uses).
/// `seconds[t]` is the wall time thread t spent inside the region.
struct WorkStats {
  std::vector<std::uint64_t> work;
  std::vector<double> seconds;

  /// Total work over all threads.
  [[nodiscard]] std::uint64_t total_work() const {
    std::uint64_t s = 0;
    for (auto w : work) s += w;
    return s;
  }

  /// Maximum per-thread work (the critical path under perfect overlap).
  [[nodiscard]] std::uint64_t max_work() const {
    std::uint64_t m = 0;
    for (auto w : work) m = m > w ? m : w;
    return m;
  }

  /// Load balance in (0, 1]: mean/max per-thread work. 1.0 = perfect.
  [[nodiscard]] double load_balance() const {
    if (work.empty() || max_work() == 0) return 1.0;
    return static_cast<double>(total_work()) /
           (static_cast<double>(work.size()) * static_cast<double>(max_work()));
  }

  /// Brent-style modeled speedup on `work.size()` processors: total work
  /// divided by the largest per-thread share actually measured. This is the
  /// quantity we report for the paper's Table 2 when the host machine has
  /// fewer physical cores than the Origin 2000's 32 (see DESIGN.md).
  [[nodiscard]] double modeled_speedup() const {
    if (max_work() == 0) return 1.0;
    return static_cast<double>(total_work()) / static_cast<double>(max_work());
  }
};

/// Cooperative cancellation flag shared between the caller and the workers
/// of a parallel region. Workers check it before claiming each block, so a
/// cancel (from outside, from a body, or automatically when a body throws)
/// stops the remaining sweep early instead of completing every block.
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }
  /// Re-arm a token for reuse across successive parallel regions.
  void reset() noexcept { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Body signature: body(begin, end, thread_index) -> cost of the block.
using BlockedBody = std::function<std::uint64_t(std::size_t, std::size_t, unsigned)>;

/// Run `body` over [0, n) in blocks of `block_size`, dynamically scheduled
/// over the pool's workers. Returns per-thread WorkStats sized pool.width().
///
/// Failure semantics: if a body throws, the sweep is cancelled — no worker
/// claims another block — and the first exception is rethrown on the
/// calling thread once every worker has drained. An optional external
/// `cancel` token lets the caller (or the body itself) stop the sweep
/// early without an exception; blocks already running complete normally.
///
/// When phase tracing is active each worker's participation in the region
/// is recorded as one trace span named `trace_name` (string literal;
/// defaults to "parallel_for"), so Perfetto shows per-thread occupancy of
/// every parallel region.
WorkStats parallel_for_blocked(ThreadPool& pool, std::size_t n, std::size_t block_size,
                               const BlockedBody& body, CancellationToken* cancel = nullptr,
                               const char* trace_name = nullptr);

/// Convenience: parallel loop whose body has no interesting cost to report.
void parallel_for(ThreadPool& pool, std::size_t n, std::size_t block_size,
                  const std::function<void(std::size_t, std::size_t, unsigned)>& body,
                  CancellationToken* cancel = nullptr, const char* trace_name = nullptr);

/// Run fn(j) for every j in [0, count): over `pool` in blocks of 8 (each
/// worker's share traced as `trace_name`) when it has workers to spare,
/// inline when it is null or one wide.
template <typename Fn>
void for_each_node(ThreadPool* pool, std::size_t count, const char* trace_name, const Fn& fn) {
  if (pool == nullptr || pool->width() <= 1) {
    for (std::size_t j = 0; j < count; ++j) fn(j);
    return;
  }
  parallel_for(
      *pool, count, 8,
      [&](std::size_t b, std::size_t e, unsigned) {
        for (std::size_t j = b; j < e; ++j) fn(j);
      },
      nullptr, trace_name);
}

}  // namespace treecode
