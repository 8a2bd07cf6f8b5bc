#include "core/barnes_hut.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "analysis/invariants.hpp"
#include "core/traversal.hpp"
#include "multipole/operators.hpp"
#include "obs/audit.hpp"
#include "obs/instrument.hpp"
#include "obs/metric_names.hpp"
#include "obs/recorder.hpp"
#include "obs/report.hpp"
#include "util/timer.hpp"
#include "obs/spans.hpp"
#include "util/validate.hpp"

namespace treecode {

BarnesHutEvaluator::BarnesHutEvaluator(const Tree& tree, const EvalConfig& config,
                                       ThreadPool* pool, std::span<const double> sorted_charges)
    : tree_(tree), config_(config), degrees_(assign_degrees(tree, config)) {
  if (!sorted_charges.empty() && sorted_charges.size() != tree.num_particles()) {
    throw std::invalid_argument("BarnesHutEvaluator: charge override size mismatch");
  }
  // Override charges bypass the tree's input validation (the BEM operator
  // swaps densities every GMRES iteration); re-check them here so one NaN
  // density fails loudly instead of poisoning every multipole.
  if (!all_finite(sorted_charges)) {
    throw std::invalid_argument("BarnesHutEvaluator: charge override has non-finite values");
  }
  charges_ = sorted_charges.empty() ? std::span<const double>(tree_.charges())
                                    : sorted_charges;
  const ScopedTimer phase_timer(obs::span::kBhP2m, &build_seconds_);
  const auto& nodes = tree_.nodes();
  multipoles_.resize(nodes.size());
  const auto& pos = tree_.positions();
  const auto& q = charges_;
  for_each_node(pool, nodes.size(), obs::span::kBhP2mWorker, [&](std::size_t i) {
    const TreeNode& node = nodes[i];
    if (node.count() == 0) return;
    multipoles_[i].reset(degrees_.degree[i]);
    p2m(node.center,
        std::span<const Vec3>(pos.data() + node.begin, node.count()),
        std::span<const double>(q.data() + node.begin, node.count()), multipoles_[i]);
  });
}

std::uint64_t BarnesHutEvaluator::stored_coefficients() const noexcept {
  std::uint64_t total = 0;
  for (const auto& m : multipoles_) total += m.size();
  return total;
}

EvalResult BarnesHutEvaluator::evaluate(ThreadPool& pool) const {
  return run(pool, tree_.positions(), /*self=*/true);
}

EvalResult BarnesHutEvaluator::evaluate_at(ThreadPool& pool,
                                           std::span<const Vec3> points) const {
  // External targets get the same policy treatment as source particles:
  // kThrow fails fast on non-finite coordinates; kSanitize/kWarn keep the
  // offending targets' output slots zeroed (run() skips them) so result
  // indexing still matches `points`.
  enforce_validation(validate_targets(points), tree_.config().validation,
                     "BarnesHutEvaluator::evaluate_at");
  return run(pool, points, /*self=*/false);
}

EvalResult BarnesHutEvaluator::run(ThreadPool& pool, std::span<const Vec3> points,
                                   bool self) const {
  EvalResult result;
  const std::size_t n = points.size();
  // In self mode results are scattered into the caller's particle order,
  // which is indexed by the *source* system (validation may have dropped
  // particles, leaving zero-filled slots).
  const std::size_t out_n = self ? tree_.source_size() : n;
  const bool enforce = config_.enforce_budget;
  const bool want_grad = config_.compute_gradient;
  const bool want_bounds = config_.track_error_bounds || enforce;
  // Audit target indices are sorted-order point indices in both self and
  // external mode, so a self evaluation and an evaluate_at over the sorted
  // positions audit identical interactions.
  const bool auditing = config_.audit_samples > 0;
  result.potential.assign(out_n, 0.0);
  if (want_grad) result.gradient.assign(out_n, Vec3{});
  if (want_bounds) result.error_bound.assign(out_n, 0.0);
  result.stats.reference_charge = degrees_.reference_charge;
  result.stats.build_seconds = build_seconds_;
  if (n == 0 || tree_.num_particles() == 0) return result;

  const auto& nodes = tree_.nodes();
  const auto& pos = tree_.positions();
  const auto& q = charges_;
  const double softening2 = config_.softening * config_.softening;
  const TraversalParams walk{.nodes = nodes,
                             .degree = degrees_.degree,
                             .alpha = config_.alpha,
                             .thm1 = want_bounds || auditing,
                             .enforce = enforce,
                             .budget = config_.error_budget};

  // Results are computed into sorted-order slots, then scattered to the
  // caller's order at the end (self mode only; external points are already
  // in caller order).
  std::vector<double> phi(n, 0.0);
  std::vector<Vec3> grad(want_grad ? n : 0, Vec3{});
  std::vector<double> bound(want_bounds ? n : 0, 0.0);
  std::vector<TraversalTally> acc(pool.width());
  std::vector<obs::audit::Reservoir> reservoirs(auditing ? pool.width() : 0);
  for (auto& r : reservoirs) r.set_capacity(config_.audit_samples);

  {
    const ScopedTimer phase_timer(obs::span::kBhTraverse, &result.stats.eval_seconds);
    result.stats.work = parallel_for_blocked(
      pool, n, config_.block_size,
      [&](std::size_t block_begin, std::size_t block_end, unsigned t) -> std::uint64_t {
        TraversalTally& a = acc[t];
        const std::uint64_t work_before = a.work();
        for (std::size_t i = block_begin; i < block_end; ++i) {
          const Vec3 x = points[i];
          // Per-target acceptance ordinal: combined with the target index it
          // keys the audit sampling, and both are schedule-independent (the
          // DFS visit order per target is fixed), so the sampled set is
          // bitwise identical across thread counts and block sizes.
          std::uint64_t audit_ord = 0;
          const double my_bound = traverse_target(
              walk, x, a,
              [&](int ni, const TreeNode& node, double r, double thm1, int deg) {
                const MultipoleExpansion& m = multipoles_[static_cast<std::size_t>(ni)];
                double contribution;
                if (want_grad) {
                  const PotentialGrad pg = m2p_grad(m, node.center, x);
                  contribution = pg.potential;
                  grad[i] += pg.gradient;
                } else {
                  contribution = m2p(m, node.center, x);
                }
                phi[i] += contribution;
                if (auditing) {
                  reservoirs[t].offer(obs::audit::make_sample(
                      config_.audit_seed, i, audit_ord, ni, node.level, deg, node.abs_charge,
                      node.radius, r, contribution, thm1));
                }
                ++audit_ord;
              },
              [&](int, const TreeNode& node) {
                const std::span<const Vec3> ppos(pos.data() + node.begin, node.count());
                const std::span<const double> pq(q.data() + node.begin, node.count());
                if (want_grad) {
                  const PotentialGrad pg = p2p_grad(x, ppos, pq, softening2);
                  phi[i] += pg.potential;
                  grad[i] += pg.gradient;
                } else {
                  phi[i] += p2p(x, ppos, pq, softening2);
                }
              });
          // Inputs are validated at tree build, but override charges,
          // softening underflow, or an evaluation point sitting exactly on
          // an expansion center can still poison a potential; fail loudly
          // (parallel_for cancels the remaining blocks) instead of
          // returning garbage.
          if (!std::isfinite(phi[i])) {
            obs::recorder::record(obs::recorder::Category::kNonFinite,
                                  "bh.nonfinite_potential", static_cast<double>(i));
            obs::recorder::trigger("bh: non-finite potential");
            throw std::runtime_error(
                "BarnesHutEvaluator: non-finite potential at evaluation point " +
                std::to_string(i));
          }
          if (want_bounds) bound[i] = my_bound;
        }
        return a.work() - work_before;  // cost of this block
      },
      nullptr, obs::span::kBhTraverseWorker);
  }

  // Merge per-thread tallies into the stats; flushed to the registry below.
  obs::LevelCounts m2p_by_level{};
  obs::LevelCounts p2p_by_level{};
  obs::DegreeCounts degree_used{};
  merge_tallies(acc, result.stats, m2p_by_level, p2p_by_level, degree_used);

  if (auditing) {
    // Audit the global K winners of the thread-private reservoirs (thread
    // order is irrelevant: merge() selects and sorts by the samples alone)
    // against exact P2P partial sums. Multipole-approximated interactions
    // are unsoftened, so the exact comparator is too.
    const std::vector<obs::audit::Sample> winners =
        obs::audit::merge(reservoirs, config_.audit_samples);
    const obs::audit::Summary summary = obs::audit::finalize(
        winners, [&](const obs::audit::Sample& s) {
          const TreeNode& node = nodes[static_cast<std::size_t>(s.node)];
          return p2p(points[s.target],
                     std::span<const Vec3>(pos.data() + node.begin, node.count()),
                     std::span<const double>(q.data() + node.begin, node.count()),
                     /*softening2=*/0.0);
        });
    result.stats.audit_samples = summary.samples;
    result.stats.audit_bound_violations = summary.bound_violations;
    result.stats.audit_max_tightness = summary.max_tightness;
    result.stats.audit_mean_tightness = summary.mean_tightness;
  }
  if (result.stats.budget_refinements > 0) {
    obs::recorder::record(obs::recorder::Category::kBudget, "bh.budget_refinements",
                          static_cast<double>(result.stats.budget_refinements));
  }

  obs::Registry& reg = obs::registry();
  reg.counter(obs::metric::kBhMultipoleTerms).add(result.stats.multipole_terms);
  reg.counter(obs::metric::kBhM2pCount).add(result.stats.m2p_count);
  reg.counter(obs::metric::kBhP2pPairs).add(result.stats.p2p_pairs);
  reg.counter(obs::metric::kBhBudgetRefinements).add(result.stats.budget_refinements);
  reg.counter(obs::metric::kBhBudgetRefinementsLeaf).add(result.stats.budget_refinements_leaf);
  reg.gauge(obs::metric::kBhMaxInteractionBound).record_max(result.stats.max_interaction_bound);
  obs::flush_counts(obs::metric::kBhM2pPerLevel, m2p_by_level);
  obs::flush_counts(obs::metric::kBhP2pPerLevel, p2p_by_level);
  obs::flush_counts(obs::metric::kBhDegreeUsed, degree_used);

  // A budget that demotes most MAC-accepted interactions is unachievably
  // tight: the traversal is quietly degenerating toward direct summation.
  const std::uint64_t mac_accepted =
      result.stats.m2p_count + result.stats.budget_refinements;
  if (enforce && mac_accepted > 0 &&
      result.stats.budget_refinements * 2 > mac_accepted) {
    char msg[160];
    std::snprintf(msg, sizeof(msg),
                  "bh: error budget %.3g demoted %.0f%% of MAC-accepted interactions; "
                  "the budget is likely unachievably tight",
                  config_.error_budget,
                  100.0 * static_cast<double>(result.stats.budget_refinements) /
                      static_cast<double>(mac_accepted));
    obs::warn(msg);
  }

  if (self) {
    // Scatter from sorted order back to the caller's particle order.
    const auto& orig = tree_.original_index();
    for (std::size_t i = 0; i < n; ++i) {
      result.potential[orig[i]] = phi[i];
      if (want_grad) result.gradient[orig[i]] = grad[i];
      if (want_bounds) result.error_bound[orig[i]] = bound[i];
    }
  } else {
    result.potential = std::move(phi);
    if (want_grad) result.gradient = std::move(grad);
    if (want_bounds) result.error_bound = std::move(bound);
  }
  TREECODE_ASSERT_EVAL_INVARIANTS(tree_, degrees_, config_, result, out_n,
                                  "BarnesHutEvaluator::run");
  return result;
}

EvalResult evaluate_barnes_hut(const Tree& tree, const EvalConfig& config) {
  ThreadPool pool(config.threads);
  BarnesHutEvaluator eval(tree, config, &pool);
  return eval.evaluate(pool);
}

}  // namespace treecode
