#pragma once

/// \file traversal.hpp
/// The alpha-MAC traversal: the one place a (target, cluster) pair is
/// accepted by the alpha-criterion and charged its Theorem-1 bound at its
/// Theorem-3 degree, or opened. Plan compile records its decisions;
/// BarnesHutEvaluator (also the engine's traversal rung) and
/// DipoleBarnesHutEvaluator apply them as they are made. A replay is
/// therefore bitwise a fresh traversal by construction: both see the same
/// decisions in the same order.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "multipole/error_bounds.hpp"
#include "obs/instrument.hpp"
#include "tree/octree.hpp"

namespace treecode {

/// The alpha-criterion. Accept the cluster when its radius-to-distance
/// ratio is at most alpha (and the point is strictly outside the cluster
/// sphere, which alpha < 1 implies for r > 0).
[[nodiscard]] inline bool mac_accepts(const TreeNode& node, const Vec3& point, double alpha,
                                      double& r_out) noexcept {
  const double r = distance(point, node.center);
  r_out = r;
  return r > 0.0 && node.radius <= alpha * r;
}

/// One worker's traversal statistics, merged in thread order after the
/// sweep; cache-line aligned so neighbouring workers never share a line.
struct alignas(64) TraversalTally {
  std::uint64_t terms = 0;
  std::uint64_t m2p = 0;
  std::uint64_t p2p = 0;
  std::uint64_t budget_refine = 0;
  std::uint64_t budget_refine_leaf = 0;
  double max_bound = 0.0;  ///< largest Theorem-2 bound among accepted clusters
  /// Expansion degrees actually evaluated — not the degree table's range,
  /// which over-reports when budget enforcement demotes clusters.
  int min_deg = std::numeric_limits<int>::max();
  int max_deg = -1;
  obs::LevelCounts m2p_by_level{};
  obs::LevelCounts p2p_by_level{};
  obs::DegreeCounts degree_used{};
  std::vector<int> stack;  ///< DFS scratch, reused across this worker's targets

  /// Multipole terms plus direct pairs: the cost unit of a target block.
  [[nodiscard]] std::uint64_t work() const noexcept { return terms + p2p; }
};

/// The inputs of every decision: tree, degree table, alpha, and whether
/// Theorem-1 bounds are computed (`thm1`) and enforced against `budget`.
struct TraversalParams {
  std::span<const TreeNode> nodes;
  std::span<const int> degree;
  double alpha = 0.0;
  bool thm1 = false;
  bool enforce = false;
  double budget = 0.0;
};

/// Merge the tallies, in thread order, into `stats` and the three histograms.
inline void merge_tallies(std::span<const TraversalTally> tallies, EvalStats& stats,
                          obs::LevelCounts& m2p_by_level, obs::LevelCounts& p2p_by_level,
                          obs::DegreeCounts& degree_used) {
  int min_deg = std::numeric_limits<int>::max();
  int max_deg = -1;
  for (const TraversalTally& a : tallies) {
    stats.multipole_terms += a.terms;
    stats.m2p_count += a.m2p;
    stats.p2p_pairs += a.p2p;
    stats.budget_refinements += a.budget_refine;
    stats.budget_refinements_leaf += a.budget_refine_leaf;
    stats.max_interaction_bound = std::max(stats.max_interaction_bound, a.max_bound);
    min_deg = std::min(min_deg, a.min_deg);
    max_deg = std::max(max_deg, a.max_deg);
    for (std::size_t i = 0; i < m2p_by_level.size(); ++i) {
      m2p_by_level[i] += a.m2p_by_level[i];
      p2p_by_level[i] += a.p2p_by_level[i];
    }
    for (std::size_t i = 0; i < degree_used.size(); ++i) degree_used[i] += a.degree_used[i];
  }
  // No multipole interaction evaluated (tiny system, or the budget demoted
  // everything to P2P): no degree was used.
  stats.min_degree_used = max_deg >= 0 ? min_deg : 0;
  stats.max_degree_used = max_deg >= 0 ? max_deg : 0;
}

/// Walk the tree depth-first for target `x`, demote MAC-accepted clusters
/// that would overrun the budget, update the tally, and call
/// on_m2p(node_index, node, r, thm1, degree) for each accepted cluster and
/// on_p2p(node_index, node) for each leaf summed directly, in DFS order.
/// Returns the target's accumulated Theorem-1 bound. With kBounds false
/// (dipole sources, for which Theorem 1 is not stated) no bound of either
/// theorem is computed and nothing is demoted.
///
/// A non-finite target (kept, zeroed, under a sanitizing validation
/// policy) visits nothing: a NaN coordinate fails every MAC test and would
/// otherwise degrade to an all-P2P sweep that still produces NaN.
template <bool kBounds = true, typename OnM2P, typename OnP2P>
inline double traverse_target(const TraversalParams& p, const Vec3& x, TraversalTally& a,
                              OnM2P&& on_m2p, OnP2P&& on_p2p) {
  double bound = 0.0;
  if (!std::isfinite(x.x) || !std::isfinite(x.y) || !std::isfinite(x.z)) return bound;
  std::vector<int>& stack = a.stack;
  stack.clear();
  stack.push_back(0);
  while (!stack.empty()) {
    const int ni = stack.back();
    stack.pop_back();
    const TreeNode& node = p.nodes[static_cast<std::size_t>(ni)];
    if (node.count() == 0) continue;
    double r = 0.0;
    bool approximate = mac_accepts(node, x, p.alpha, r);
    const int deg = approximate ? p.degree[static_cast<std::size_t>(ni)] : 0;
    // Theorem 1 with the actual cluster radius and distance — rigorous and
    // tighter than the alpha-form of Theorem 2.
    double thm1 = 0.0;
    if (kBounds && approximate && p.thm1) {
      thm1 = multipole_error_bound(node.abs_charge, node.radius, r, deg);
      // Budget enforcement: if approximating this cluster would blow the
      // target's budget, recurse into the children (tighter bounds) or, at
      // a leaf, fall back to exact P2P (zero error contribution).
      if (p.enforce && bound + thm1 > p.budget) {
        approximate = false;
        ++a.budget_refine;
        if (node.is_leaf()) ++a.budget_refine_leaf;
      }
    }
    if (approximate) {
      on_m2p(ni, node, r, thm1, deg);
      a.terms += static_cast<std::uint64_t>(deg + 1) * static_cast<std::uint64_t>(deg + 1);
      ++a.m2p;
      a.min_deg = std::min(a.min_deg, deg);
      a.max_deg = std::max(a.max_deg, deg);
      obs::count_slot(a.degree_used, deg);
      obs::count_slot(a.m2p_by_level, node.level);
      if constexpr (kBounds) {
        a.max_bound = std::max(a.max_bound, mac_error_bound(node.abs_charge, r, p.alpha, deg));
        bound += thm1;
      }
    } else if (node.is_leaf()) {
      on_p2p(ni, node);
      a.p2p += node.count();
      obs::count_slot(a.p2p_by_level, node.level, node.count());
    } else {
      for (int c = 0; c < node.num_children; ++c) stack.push_back(node.first_child + c);
    }
  }
  return bound;
}

}  // namespace treecode
