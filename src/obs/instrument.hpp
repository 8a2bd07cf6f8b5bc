#pragma once

/// \file instrument.hpp
/// Hot-loop instrumentation helpers shared by the evaluators.
///
/// The evaluators must record degree distributions and per-level
/// interaction counts without touching shared state inside traversal loops.
/// The pattern: each worker owns plain fixed-size arrays in its per-thread
/// accumulator (one `++` on thread-private memory per event — the same cost
/// class as the existing counters), and the reduction after the parallel
/// region flushes them into named registry histograms in one batch.

#include <array>
#include <cstdint>
#include <string_view>

#include "obs/metrics.hpp"

namespace treecode::obs {

/// Slots for per-tree-level tallies. The octree's height is bounded by the
/// SFC key depth (21 levels per axis) + root; anything deeper clamps into
/// the last slot.
inline constexpr std::size_t kLevelSlots = 24;
/// Slots for per-degree tallies; EvalConfig::max_degree defaults to 30 and
/// degrees beyond 63 clamp into the last slot.
inline constexpr std::size_t kDegreeSlots = 64;

using LevelCounts = std::array<std::uint64_t, kLevelSlots>;
using DegreeCounts = std::array<std::uint64_t, kDegreeSlots>;

template <std::size_t N>
inline void count_slot(std::array<std::uint64_t, N>& counts, int slot,
                       std::uint64_t n = 1) noexcept {
  const std::size_t i = slot < 0 ? 0 : static_cast<std::size_t>(slot);
  counts[i < N ? i : N - 1] += n;
}

/// Merge `counts`, `times` over, into the registry histogram `name`
/// (integer buckets 0..N-1) as batched observations — one registry lookup
/// per flush, not per event.
template <std::size_t N>
inline void flush_counts(std::string_view name, const std::array<std::uint64_t, N>& counts,
                         std::uint64_t times = 1) {
  bool any = false;
  for (const std::uint64_t c : counts) {
    if (c != 0) {
      any = true;
      break;
    }
  }
  if (!any) return;
  static const std::vector<double> bounds = integer_buckets(static_cast<int>(N) - 1);
  Histogram& h = registry().histogram(name, bounds);
  for (std::size_t i = 0; i < N; ++i) {
    if (counts[i] != 0) h.observe_n(static_cast<double>(i), counts[i] * times);
  }
}

}  // namespace treecode::obs
