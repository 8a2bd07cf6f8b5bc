#pragma once

/// \file dipole_barnes_hut.hpp
/// Barnes-Hut evaluation of *dipole* source fields.
///
/// The monopole evaluator's alpha-MAC walk (core/traversal.hpp), run with
/// bounds off: Theorem 1 is stated for monopole sources, so no bound is
/// computed and no budget demotes a cluster. Node expansions are built
/// with p2m_dipole and the near field uses the exact dipole kernel
/// d . (x - y)/|x - y|^3. This powers the double-layer boundary operator
/// (bem/double_layer.hpp), whose sources are oriented surface elements
/// rather than charges.
///
/// The tree is built once over the source *positions* (use |moment|-sized
/// placeholder charges so the adaptive degree assignment sees the source
/// strength distribution); moments may change per evaluation, mirroring
/// the monopole evaluator's charge-override mechanism.

#include "core/config.hpp"
#include "core/degree_policy.hpp"
#include "multipole/expansion.hpp"
#include "parallel/thread_pool.hpp"
#include "tree/octree.hpp"

namespace treecode {

/// Reusable dipole-field Barnes-Hut operator over one tree + config.
class DipoleBarnesHutEvaluator {
 public:
  /// `sorted_moments` must be in the tree's sorted particle order (map the
  /// caller order through tree.original_index()) and outlive the evaluator.
  DipoleBarnesHutEvaluator(const Tree& tree, const EvalConfig& config,
                           std::span<const Vec3> sorted_moments, ThreadPool* pool = nullptr);

  /// Potentials of the dipole field at arbitrary points.
  [[nodiscard]] EvalResult evaluate_at(ThreadPool& pool, std::span<const Vec3> points) const;

  [[nodiscard]] const DegreeAssignment& degrees() const noexcept { return degrees_; }

 private:
  const Tree& tree_;
  EvalConfig config_;
  DegreeAssignment degrees_;
  std::span<const Vec3> moments_;
  std::vector<MultipoleExpansion> multipoles_;
};

}  // namespace treecode
