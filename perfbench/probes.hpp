#pragma once
// Layer probes: facts read from a compiled plan through the engine's
// public API, timed engine calls on a session, kernel timings on inputs
// drawn from a workload's own tree, and the thread-scaling probe.

#include <functional>
#include <memory>
#include <random>
#include <span>
#include <vector>

#include "common.hpp"
#include "core/config.hpp"
#include "engine/eval_session.hpp"
#include "tree/octree.hpp"

namespace perfbench {

/// Charge-independent facts of one compiled plan. Bytes are computed from
/// array sizes, not measured.
struct PlanFacts {
  double entries = 0;          ///< interaction entries (M2P + P2P)
  double m2p_entries = 0;
  double covered_entries = 0;  ///< M2P entries with a precomputed basis
  double work = 0;             ///< multipole terms + P2P pairs (target_cost sum)
  double terms = 0;
  double pairs = 0;
  double refresh_terms = 0;    ///< sum over m2p_nodes of particles * (p+1)^2
  double schedule_bytes = 0;   ///< plan bytes other than the m2p basis
  double basis_bytes = 0;      ///< m2p basis + its per-entry offsets
  double other_bytes = 0;      ///< governor ledger minus the plan
  double replay_bytes = 0;     ///< plan arrays streamed by one replay
};

[[nodiscard]] PlanFacts plan_facts(const treecode::engine::EvalSession& session,
                                   const treecode::engine::EvalPlan& plan);

/// Makes one charge vector in the session's caller order.
using ChargeMaker = std::function<std::vector<double>(int)>;

/// Median seconds of the engine phases on a warm session.
struct EngineTimes {
  double update_s = 0;   ///< try_update_charges
  double eval_s = 0;     ///< try_evaluate right after an update (refresh + replay)
  double replay_s = 0;   ///< try_evaluate with no stale node
};

/// Time `reps` update/evaluate pairs and `reps` bare re-evaluations on
/// `plan`. Each call is wrapped in an engine span.
[[nodiscard]] EngineTimes time_engine(treecode::engine::EvalSession& session,
                                      const treecode::engine::EvalPlan& plan,
                                      const ChargeMaker& charges, int reps);

/// Build a session over `tree` with `cfg` (targets empty = self plan),
/// compile, and evaluate once, timing each step.
struct BuiltSession {
  std::unique_ptr<treecode::engine::EvalSession> session;
  std::shared_ptr<const treecode::engine::EvalPlan> plan;
  double session_s = 0;
  double compile_s = 0;
  double first_eval_s = 0;
};
[[nodiscard]] BuiltSession build_session(treecode::Tree tree,
                                         const treecode::EvalConfig& cfg,
                                         std::span<const treecode::Vec3> targets);

/// Set every engine.* per-layer metric from a built session.
void add_engine_metrics(const BuiltSession& built, const EngineTimes& times, Result& r);

/// multipole.* kernel timings on nodes and leaves of `tree`.
void add_kernel_metrics(const treecode::Tree& tree, Result& r);

/// Median seconds of update + evaluate on a fresh session at `threads`.
[[nodiscard]] double engine_op_seconds(const treecode::Tree& tree, treecode::EvalConfig cfg,
                                       std::span<const treecode::Vec3> targets,
                                       const ChargeMaker& charges, unsigned threads,
                                       int reps);

/// Relative 2-norm error of `approx` against direct summation from
/// `sources` at the `sample` target indices of `targets`.
[[nodiscard]] double sampled_rel_err(const std::vector<treecode::Vec3>& src_pos,
                                     const std::vector<double>& src_q,
                                     const std::vector<treecode::Vec3>& targets,
                                     const std::vector<double>& approx,
                                     const std::vector<std::size_t>& sample,
                                     unsigned threads);

/// `k` distinct target indices out of `n`, seeded.
[[nodiscard]] std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k,
                                                      std::mt19937_64& rng);

}  // namespace perfbench
