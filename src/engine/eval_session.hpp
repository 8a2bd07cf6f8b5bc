#pragma once

/// \file eval_session.hpp
/// The evaluation engine: compile an interaction plan once, replay it for
/// every subsequent charge vector.
///
/// An EvalSession owns a built Tree plus everything derived from it that is
/// charge-independent: the Theorem-3 degree table, the thread pool, and an
/// LRU cache of compiled EvalPlans. The intended lifecycle, mirroring the
/// paper's GMRES-over-fixed-geometry application:
///
///     engine::EvalSession session(std::move(tree), config);
///     auto plan = session.compile(targets);     // one alpha-MAC traversal
///     for (each solver iteration) {
///       session.update_charges(q);              // geometry untouched
///       EvalResult r = session.evaluate(*plan); // list replay, no tree walk
///     }
///
/// Charge refresh is lazy and partial: update_charges only bumps an epoch;
/// the next evaluate rebuilds (P2M, from the node's own particles) exactly
/// the stale nodes the plan's M2P list references, reusing the allocated
/// coefficient storage. Nodes never referenced by any plan — typically the
/// top levels, which never pass the MAC for surface targets yet carry the
/// highest degrees and largest particle counts — are never built at all.
///
/// Plans stay valid as long as the session's tree and config live, i.e.
/// forever: geometry, degrees, and per-node |q| aggregates are frozen at
/// construction, and update_charges touches none of them. A different
/// particle set or config means a new session.
///
/// ## Failure taxonomy and the try_ API
///
/// Every fallible entry point comes in two forms: `try_foo()` returns
/// `Expected<...>` carrying a typed ErrorCode (util/expected.hpp) and never
/// throws; the legacy `foo()` wrapper unwraps via EngineError for callers
/// that prefer exceptions. Engine code itself contains no `throw` —
/// enforced by scripts/treecode_lint.py rule `engine-returns-expected`.
/// Every constructed Error increments `engine.errors` and arms the flight
/// recorder with the error-code name as the trigger reason.
///
/// ## Resource governance and the degradation ladder
///
/// When EvalConfig::memory_budget_bytes is set, every durable allocation —
/// compiled plan storage, the m2p evaluation basis, multipole coefficient
/// batches, the p2m refresh basis — is first reserved against the
/// session's ResourceGovernor. A denial does not fail the evaluation: the
/// session steps down a fixed ladder, reporting the serving rung in
/// EvalStats::served_rung:
///
///   rung 0  kBasisReplay  compiled plan + precomputed m2p basis
///   rung 1  kPlainReplay  compiled plan, full m2p kernels
///   rung 2  kTraversal    uncompiled alpha-MAC traversal (transient
///                         multipoles, nothing retained)
///   rung 3  kDirect       per-target exact P2P (no multipoles at all)
///
/// Rungs 0-2 produce bitwise-identical potentials and Theorem-1 bounds
/// (replay is entry-for-entry the fresh traversal; the basis is bitwise-
/// equal to the full kernel); rung 3 is exact summation with zero
/// truncation error. Rung choice depends only on the governor's byte
/// ledger and (serially ordered) injected faults — never wall time or
/// thread scheduling — so it is bitwise-deterministic across thread
/// counts. Governance covers the durable evaluation state; the tree,
/// charges, and transient compile scratch are documented headroom.
///
/// ## Deadlines
///
/// EvalConfig::deadline_seconds arms a wall-clock deadline per evaluation,
/// enforced cooperatively: replay and direct-summation workers poll
/// between blocks and cancel the sweep via a CancellationToken on expiry.
/// The outcome is kDeadline — a hard error by default, or a partial result
/// (EvalStats::targets_served valid targets) under deadline_partial. The
/// deadline never influences rung choice, only completion.
///
/// Determinism: compile records the decisions of the one alpha-MAC walk
/// (core/traversal.hpp) that BarnesHutEvaluator applies as it goes, and a
/// replay performs the identical kernel calls in the identical order (see
/// eval_plan.hpp), so potentials — and tracked error bounds — are
/// bitwise-equal to BarnesHutEvaluator output at every thread count and
/// block size.
///
/// Thread safety: the session parallelizes internally over its own pool
/// but external calls must be serialized — compile, update_charges, and
/// evaluate all mutate session state (cache, epochs, multipoles).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/degree_policy.hpp"
#include "engine/eval_plan.hpp"
#include "engine/plan_cache.hpp"
#include "multipole/expansion.hpp"
#include "parallel/thread_pool.hpp"
#include "tree/octree.hpp"
#include "util/expected.hpp"
#include "util/resource_governor.hpp"

namespace treecode::engine {

/// Compile-once / replay-many treecode evaluator over one tree + config.
class EvalSession {
 public:
  /// Session tuning knobs (none affect results — replay output is
  /// bitwise-identical to a fresh traversal regardless).
  struct Options {
    /// Compiled plans kept per session, evicted LRU.
    std::size_t plan_cache_capacity = 8;
    /// Byte bound on the *total* resident compiled plans (the cache evicts
    /// LRU past it, and declines to retain a single plan larger than it).
    /// 0 = count-bounded only.
    std::size_t plan_cache_byte_capacity = 0;
    /// Per-plan byte budget for the precomputed m2p evaluation basis (the
    /// charge-independent 1/r + Y_n^m factors; see eval_plan.hpp). Compile
    /// covers entries in schedule order until the budget is exhausted;
    /// uncovered entries replay through the full m2p kernel with identical
    /// results. 0 disables precomputation entirely.
    std::size_t basis_budget_bytes = std::size_t{512} << 20;
    /// Session-wide byte budget for the p2m refresh basis (per-particle rho
    /// powers and conjugated harmonics, shared across plans). Nodes are
    /// covered on first refresh until the budget is exhausted; uncovered
    /// nodes rebuild through the full p2m kernel with identical results.
    std::size_t refresh_basis_budget_bytes = std::size_t{512} << 20;
    /// Master switch for both basis precomputes (gradient plans never
    /// precompute the m2p side: m2p_grad has no basis form).
    bool precompute_basis = true;
  };

  /// Takes ownership of the tree; validates the config and assigns
  /// Theorem-3 degrees. No multipole is built yet — the first evaluate
  /// builds exactly what its plan references. The governor budget comes
  /// from EvalConfig::memory_budget_bytes.
  EvalSession(Tree tree, const EvalConfig& config, const Options& options);
  EvalSession(Tree tree, const EvalConfig& config, std::size_t plan_cache_capacity = 8)
      : EvalSession(std::move(tree), config,
                    Options{.plan_cache_capacity = plan_cache_capacity}) {}

  /// Compile (or fetch from the LRU cache) the interaction plan for
  /// arbitrary evaluation points. Target coordinates are validated under
  /// the tree's ValidationPolicy: kThrow yields kNonFinite on non-finite
  /// targets; kSanitize/kWarn keep the offending targets' output slots
  /// (zeroed) and record them in the plan's skipped_targets. A governor
  /// denial of the plan's bytes yields kMemoryBudget (the ladder in
  /// try_evaluate_at then serves without a plan); a denial of only the
  /// basis bytes silently yields a basis-free (rung-1) plan.
  [[nodiscard]] Expected<std::shared_ptr<const EvalPlan>> try_compile(
      std::span<const Vec3> targets);

  /// Plan for evaluating at the tree's own particles (self-interaction
  /// excluded by the P2P kernels' r == 0 skip, as in BarnesHutEvaluator).
  [[nodiscard]] Expected<std::shared_ptr<const EvalPlan>> try_compile_self();

  /// Replace the source charges, given in the *caller's original* particle
  /// order (size tree().source_size()). O(n) gather + epoch bump; the
  /// multipole refresh happens lazily in the next evaluate. Errors:
  /// kInvalidArgument on size mismatch, kNonFinite on non-finite values
  /// (the session's charges are left untouched — no poisoned basis pools).
  [[nodiscard]] Expected<void> try_update_charges(std::span<const double> charges);

  /// Same, but already in the tree's sorted order (size
  /// tree().num_particles()) — the BEM matvec hot path, which gathers
  /// through original_index() itself.
  [[nodiscard]] Expected<void> try_update_charges_sorted(
      std::span<const double> charges);

  /// Replay a compiled plan against the current charges: refresh stale
  /// plan-referenced multipoles, then accumulate the frozen interaction
  /// lists. No tree walk, no MAC tests, no degree decisions. The plan must
  /// come from this session (kInvalidArgument otherwise, shape-checked).
  /// A governor denial during refresh degrades to rungs 2-3 over the
  /// plan's own targets.
  [[nodiscard]] Expected<EvalResult> try_evaluate(const EvalPlan& plan);

  /// Multi-RHS batched replay: evaluate `plan` against k charge columns
  /// (each in the *caller's original* particle order, size
  /// tree().source_size()) in one walk of the frozen entry stream per
  /// column block (SoA blocks of up to 8 columns). Column c of the result
  /// is bitwise-identical to try_update_charges(charge_columns[c]) followed
  /// by try_evaluate(plan), at every thread count and batch width: the
  /// batch shares only charge-independent work (distances, the shared
  /// sqrt denominator, the streamed m2p/p2m bases) and performs each
  /// column's arithmetic on identical operands in identical order. The
  /// batched path leaves the session's own charges, epochs, and multipoles
  /// untouched. Gradient or audit configs — and a governor denial of the
  /// batch workspace (engine.batch_denied) — fall back to a sequential
  /// per-column replay (engine.batch_fallbacks), still bitwise-identical
  /// but leaving the session's charges at the last column. Errors:
  /// kInvalidArgument (no columns, size mismatch, foreign plan),
  /// kNonFinite (bad column input, or a non-finite computed potential —
  /// the message names the target and column), kDeadline.
  [[nodiscard]] Expected<std::vector<EvalResult>> try_evaluate_batch(
      const EvalPlan& plan,
      std::span<const std::span<const double>> charge_columns);

  /// Compile + evaluate with the full degradation ladder: warm calls with
  /// a cached plan skip straight to replay; a compile denied by the
  /// governor falls through to the uncompiled traversal or direct rungs.
  [[nodiscard]] Expected<EvalResult> try_evaluate_at(std::span<const Vec3> targets);

  /// Ladder evaluation at the tree's own particles, results in the
  /// caller's original particle order (validation-dropped slots stay zero).
  [[nodiscard]] Expected<EvalResult> try_evaluate();

  // Legacy exception wrappers: unwrap the Expected, converting an Error to
  // EngineError (a std::runtime_error carrying the ErrorCode).
  [[nodiscard]] std::shared_ptr<const EvalPlan> compile(std::span<const Vec3> targets) {
    return try_compile(targets).value_or_throw();
  }
  [[nodiscard]] std::shared_ptr<const EvalPlan> compile_self() {
    return try_compile_self().value_or_throw();
  }
  void update_charges(std::span<const double> charges) {
    try_update_charges(charges).value_or_throw();
  }
  void update_charges_sorted(std::span<const double> charges) {
    try_update_charges_sorted(charges).value_or_throw();
  }
  [[nodiscard]] EvalResult evaluate(const EvalPlan& plan) {
    return try_evaluate(plan).value_or_throw();
  }
  [[nodiscard]] EvalResult evaluate_at(std::span<const Vec3> targets) {
    return try_evaluate_at(targets).value_or_throw();
  }
  [[nodiscard]] EvalResult evaluate() { return try_evaluate().value_or_throw(); }

  [[nodiscard]] const Tree& tree() const noexcept { return tree_; }
  [[nodiscard]] const EvalConfig& config() const noexcept { return config_; }
  [[nodiscard]] const DegreeAssignment& degrees() const noexcept { return degrees_; }
  [[nodiscard]] ThreadPool& pool() noexcept { return pool_; }
  [[nodiscard]] const ThreadPool& pool() const noexcept { return pool_; }
  [[nodiscard]] const PlanCache& cache() const noexcept { return cache_; }
  [[nodiscard]] PlanCache& cache() noexcept { return cache_; }
  /// The session's byte ledger + deadline (budget from the config; tests
  /// may tighten it mid-session via set_budget).
  [[nodiscard]] ResourceGovernor& governor() noexcept { return governor_; }
  [[nodiscard]] const ResourceGovernor& governor() const noexcept { return governor_; }
  /// Current charges in tree-sorted order (what the next evaluate uses).
  [[nodiscard]] std::span<const double> sorted_charges() const noexcept {
    return sorted_charges_;
  }

 private:
  struct ColumnView;

  // Entry-point bodies: each public try_* above is a thin wrapper that
  // times the call and emits one obs::telemetry RequestRecord at exit
  // (api, plan key, rung, outcome, wall seconds, resident bytes, deadline
  // slack, audit tightness) — success or failure.
  Expected<std::shared_ptr<const EvalPlan>> try_compile_impl(
      std::span<const Vec3> targets, bool self);
  Expected<void> try_update_charges_impl(std::span<const double> charges);
  Expected<void> try_update_charges_sorted_impl(std::span<const double> charges);
  Expected<EvalResult> try_evaluate_impl(const EvalPlan& plan);
  Expected<std::vector<EvalResult>> try_evaluate_batch_impl(
      const EvalPlan& plan, std::span<const std::span<const double>> charge_columns);
  /// Per-column single-RHS replay: the batch path for configs without a
  /// batched kernel form (gradients, audits) or when the workspace was
  /// denied. Mutates the session's charges (last column wins).
  Expected<std::vector<EvalResult>> evaluate_batch_sequential(
      const EvalPlan& plan, std::span<const std::span<const double>> charge_columns);
  /// Best-effort p2m-basis coverage of `node_list` (charge-independent,
  /// budget-gated, one session pool): assigns and fills pool storage for
  /// every listed node not yet covered, in list order. Called by both the
  /// single-RHS and the batch refresh. Never fails: uncovered nodes rebuild
  /// through the full p2m kernel with identical coefficients.
  void cover_p2m_basis(std::span<const std::int32_t> node_list);
  /// Shared ladder body for try_evaluate_at / try_evaluate; `key_out`
  /// reports the compiled plan's cache key (0 if compile was denied).
  Expected<EvalResult> try_evaluate_at_impl(std::span<const Vec3> targets,
                                            bool self, std::uint64_t& key_out);
  /// P2M of node `nu` from tree-sorted `charges` into `m` (reset to the
  /// node's degree): through the p2m pool when the node is covered, else
  /// the full kernel — the same coefficients bit for bit.
  void p2m_node(std::size_t nu, const double* charges, MultipoleExpansion& m) const;
  /// Rungs 0-1: refresh the session's multipoles, then replay `plan` as
  /// the k = 1 column view of replay_columns.
  Expected<EvalResult> replay(const EvalPlan& plan);
  /// The one replay walk, shared by try_evaluate (k = 1, the only width
  /// with gradient and audit branches) and try_evaluate_batch: walk each
  /// target's frozen entries once per block of up to 8 columns, then
  /// check, count (`replay_metric` once, work counters per column), and
  /// scatter every column to the caller's order.
  Expected<std::vector<EvalResult>> replay_columns(const EvalPlan& plan,
                                                   const ColumnView& cols,
                                                   double refresh_seconds,
                                                   const char* replay_metric);
  /// Rebuild the plan-referenced multipoles whose epoch is stale,
  /// reserving first-build coefficient bytes against the governor.
  Expected<void> try_ensure_refreshed(const EvalPlan& plan);
  /// Rungs 2-3 over raw targets, entered when a plan cannot be afforded.
  Expected<EvalResult> serve_degraded(std::span<const Vec3> targets, bool self);
  /// Rung 2: transient BarnesHutEvaluator traversal.
  Expected<EvalResult> serve_traversal(std::span<const Vec3> targets, bool self);
  /// Rung 3: exact per-target P2P summation.
  Expected<EvalResult> serve_direct(std::span<const Vec3> targets, bool self);
  /// Transient multipole bytes a rung-2 traversal needs (all nodes at
  /// their assigned degrees); computed once, geometry is frozen.
  [[nodiscard]] std::size_t traversal_reserve_bytes();

  Tree tree_;
  EvalConfig config_;
  Options options_;
  DegreeAssignment degrees_;
  ThreadPool pool_;
  ResourceGovernor governor_;
  /// Active charges in tree-sorted order; starts as the tree's own.
  std::vector<double> sorted_charges_;
  /// Lazily built per-node expansions; entry i is valid iff
  /// node_epoch_[i] == charge_epoch_.
  std::vector<MultipoleExpansion> multipoles_;
  std::vector<std::uint64_t> node_epoch_;  ///< 0 = never built
  std::uint64_t charge_epoch_ = 1;
  std::vector<std::int32_t> stale_;  ///< refresh scratch, reused across evaluates
  /// Per-node offset into the pooled p2m refresh basis (EvalPlan::kNoBasis
  /// = not covered; assigned on first refresh, budget-gated, then frozen —
  /// the basis depends only on geometry and the node's frozen degree).
  std::vector<std::uint64_t> p2m_basis_offset_;
  std::vector<double> p2m_basis_pool_;
  /// Budget reservations backing the two durable session pools above
  /// (multipole coefficients, p2m refresh basis). Grown by absorb() on
  /// each governed expansion; the bytes return to the ledger when the
  /// session dies. Declared after governor_: destroyed first, releasing
  /// into a live ledger.
  ResourceGovernor::Reservation multipole_reservation_;
  ResourceGovernor::Reservation p2m_reservation_;
  std::size_t traversal_bytes_ = 0;  ///< lazy traversal_reserve_bytes() memo
  PlanCache cache_;
};

}  // namespace treecode::engine
