#include "core/dipole_barnes_hut.hpp"

#include <stdexcept>

#include "analysis/invariants.hpp"
#include "core/traversal.hpp"
#include "multipole/operators.hpp"
#include "obs/instrument.hpp"
#include "obs/metric_names.hpp"
#include "parallel/parallel_for.hpp"
#include "util/timer.hpp"
#include "obs/spans.hpp"
#include "util/validate.hpp"

namespace treecode {

DipoleBarnesHutEvaluator::DipoleBarnesHutEvaluator(const Tree& tree, const EvalConfig& config,
                                                   std::span<const Vec3> sorted_moments,
                                                   ThreadPool* pool)
    : tree_(tree),
      config_(config),
      degrees_(assign_degrees(tree, config)),
      moments_(sorted_moments) {
  if (moments_.size() != tree.num_particles()) {
    throw std::invalid_argument("DipoleBarnesHutEvaluator: moment count mismatch");
  }
  // Moments bypass the tree's input validation; one NaN moment would
  // poison every expansion, so re-check the span here.
  if (!all_finite(moments_)) {
    throw std::invalid_argument("DipoleBarnesHutEvaluator: non-finite dipole moment");
  }
  const ScopedTimer build_phase(obs::span::kDipoleBhP2m);
  const auto& nodes = tree_.nodes();
  multipoles_.resize(nodes.size());
  const auto& pos = tree_.positions();
  for_each_node(pool, nodes.size(), obs::span::kDipoleBhP2mWorker, [&](std::size_t i) {
    const TreeNode& node = nodes[i];
    if (node.count() == 0) return;
    multipoles_[i].reset(degrees_.degree[i]);
    p2m_dipole(node.center,
               std::span<const Vec3>(pos.data() + node.begin, node.count()),
               moments_.subspan(node.begin, node.count()), multipoles_[i]);
  });
}

EvalResult DipoleBarnesHutEvaluator::evaluate_at(ThreadPool& pool,
                                                 std::span<const Vec3> points) const {
  // Same target policy as BarnesHutEvaluator::evaluate_at: throw under
  // kThrow, otherwise skip non-finite targets leaving their slots zero.
  enforce_validation(validate_targets(points), tree_.config().validation,
                     "DipoleBarnesHutEvaluator::evaluate_at");
  EvalResult result;
  const std::size_t n = points.size();
  result.potential.assign(n, 0.0);
  if (n == 0 || tree_.num_particles() == 0) return result;

  const auto& pos = tree_.positions();
  // Theorem 1 is stated for monopole sources, so the dipole walk computes
  // no bounds and demotes nothing.
  const TraversalParams walk{.nodes = tree_.nodes(),
                             .degree = degrees_.degree,
                             .alpha = config_.alpha};
  std::vector<TraversalTally> acc(pool.width());

  {
  const ScopedTimer eval_phase(obs::span::kDipoleBhTraverse, &result.stats.eval_seconds);
  result.stats.work = parallel_for_blocked(
      pool, n, config_.block_size,
      [&](std::size_t block_begin, std::size_t block_end, unsigned t) -> std::uint64_t {
        TraversalTally& a = acc[t];
        const std::uint64_t work_before = a.work();
        for (std::size_t i = block_begin; i < block_end; ++i) {
          const Vec3 x = points[i];
          traverse_target</*kBounds=*/false>(
              walk, x, a,
              [&](int ni, const TreeNode& node, double, double, int) {
                result.potential[i] +=
                    m2p(multipoles_[static_cast<std::size_t>(ni)], node.center, x);
              },
              [&](int, const TreeNode& node) {
                result.potential[i] +=
                    p2p_dipole(x, std::span<const Vec3>(pos.data() + node.begin, node.count()),
                               moments_.subspan(node.begin, node.count()));
              });
        }
        return a.work() - work_before;
      },
      nullptr, obs::span::kDipoleBhTraverseWorker);
  }
  obs::LevelCounts m2p_by_level{};
  obs::LevelCounts p2p_by_level{};
  obs::DegreeCounts degree_used{};
  merge_tallies(acc, result.stats, m2p_by_level, p2p_by_level, degree_used);
  obs::Registry& reg = obs::registry();
  reg.counter(obs::metric::kDipoleBhMultipoleTerms).add(result.stats.multipole_terms);
  reg.counter(obs::metric::kDipoleBhP2pPairs).add(result.stats.p2p_pairs);
#if defined(TREECODE_CHECK_INVARIANTS)
  // The dipole evaluator produces potentials only; check against a config
  // copy with the unproduced outputs switched off.
  EvalConfig checked = config_;
  checked.compute_gradient = false;
  checked.track_error_bounds = false;
  checked.enforce_budget = false;
  TREECODE_ASSERT_EVAL_INVARIANTS(tree_, degrees_, checked, result, n,
                                  "DipoleBarnesHutEvaluator::evaluate_at");
#endif
  return result;
}

}  // namespace treecode
