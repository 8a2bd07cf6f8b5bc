#include "engine/eval_session.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>

#include "analysis/invariants.hpp"
#include "core/barnes_hut.hpp"
#include "core/traversal.hpp"
#include "multipole/error_bounds.hpp"
#include "multipole/operators.hpp"
#include "obs/audit.hpp"
#include "obs/instrument.hpp"
#include "obs/metric_names.hpp"
#include "obs/recorder.hpp"
#include "obs/report.hpp"
#include "obs/reqtrace.hpp"
#include "obs/telemetry.hpp"
#include "util/timer.hpp"
#include "obs/spans.hpp"
#include "util/fault_inject.hpp"
#include "util/validate.hpp"

namespace treecode::engine {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline void fnv_mix(std::uint64_t& h, const void* data, std::size_t size) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
}

template <typename T>
inline void fnv_mix_value(std::uint64_t& h, const T& value) noexcept {
  fnv_mix(h, &value, sizeof(T));
}

/// Hash of the target set plus every EvalConfig field that influences a
/// traversal decision (MAC acceptance, degree law, budget demotion) or the
/// shape of the compiled schedule (bounds, gradients). Fields that only
/// affect execution (threads, block_size, memory budget, deadline) are
/// deliberately excluded so the same plan replays at any parallelism.
std::uint64_t plan_key(std::span<const Vec3> targets, bool self, const EvalConfig& c) {
  std::uint64_t h = kFnvOffset;
  fnv_mix_value(h, self);
  fnv_mix_value(h, c.alpha);
  fnv_mix_value(h, c.degree);
  fnv_mix_value(h, c.max_degree);
  fnv_mix_value(h, static_cast<int>(c.mode));
  fnv_mix_value(h, static_cast<int>(c.law));
  fnv_mix_value(h, static_cast<int>(c.reference));
  fnv_mix_value(h, c.reference_charge);
  fnv_mix_value(h, c.error_budget);
  fnv_mix_value(h, c.enforce_budget);
  fnv_mix_value(h, c.track_error_bounds);
  fnv_mix_value(h, c.compute_gradient);
  fnv_mix_value(h, c.softening);
  if (!targets.empty()) fnv_mix(h, targets.data(), targets.size() * sizeof(Vec3));
  return h;
}

/// Construct an Error, counting it and arming the flight recorder — every
/// engine failure leaves a metrics + recorder trail regardless of whether
/// the ladder absorbs it or the caller sees it.
Error engine_error(ErrorCode code, std::string message) {
  obs::registry().counter(obs::metric::kEngineErrors).add(1);
  obs::recorder::record(obs::recorder::Category::kCustom, error_code_name(code), 0.0);
  obs::recorder::trigger(error_code_name(code));
  return Error{code, std::move(message)};
}

/// Errors the degradation ladder absorbs by stepping down a rung; every
/// other code (bad input, NaN, deadline) propagates — no rung fixes those.
bool memory_class(ErrorCode code) noexcept {
  return code == ErrorCode::kMemoryBudget || code == ErrorCode::kFaultInjected;
}

/// Widest column block one replay walk accumulates in registers.
constexpr std::size_t kMaxWidth = 8;

ErrorCode denial_code(const ResourceGovernor& governor) noexcept {
  return governor.last_denial_was_fault() ? ErrorCode::kFaultInjected
                                          : ErrorCode::kMemoryBudget;
}

/// Arm the session deadline for the dynamic extent of one public
/// evaluation, unless an outer scope already did (evaluate_at -> evaluate
/// must not re-arm and extend the window).
class DeadlineScope {
 public:
  DeadlineScope(ResourceGovernor& governor, double seconds)
      : governor_(governor), armed_here_(seconds > 0.0 && !governor.deadline_armed()) {
    if (armed_here_) governor_.arm_deadline(seconds);
  }
  ~DeadlineScope() {
    if (armed_here_) governor_.disarm_deadline();
  }
  DeadlineScope(const DeadlineScope&) = delete;
  DeadlineScope& operator=(const DeadlineScope&) = delete;

 private:
  ResourceGovernor& governor_;
  bool armed_here_;
};

/// Emit one telemetry RequestRecord at a public entry point's exit — the
/// per-request tuple (plan, rung, outcome, wall, bytes, deadline slack,
/// audit tightness) the serving layer records; see obs/telemetry.hpp.
/// One relaxed load and a branch while telemetry is disabled.
void emit_request(obs::telemetry::Api api, std::uint64_t key, double wall,
                  bool ok, ErrorCode code, const EvalStats* stats,
                  const PlanCache& cache, const EvalConfig& config,
                  unsigned threads, obs::reqtrace::RequestScope& scope,
                  std::uint32_t batch_width = 0) {
  // Counted before the telemetry-enabled gate: engine.requests is the SLO
  // error-rate denominator (obs/slo.cpp) and must cover every entry-point
  // call, with or without a telemetry session.
  obs::registry().counter(obs::metric::kEngineRequests).add(1);
  // Finish the request trace before the telemetry gate, so every exit path
  // records its span and runs the tail decision even with telemetry off.
  obs::reqtrace::Verdict verdict;
  verdict.ok = ok;
  verdict.error_code = static_cast<std::uint8_t>(code);
  if (stats != nullptr) {
    verdict.rung = static_cast<std::int8_t>(stats->served_rung);
  }
  verdict.deadline_missed = code == ErrorCode::kDeadline;
  verdict.wall_seconds = wall;
  scope.finish(verdict);
  if (!obs::telemetry::enabled()) return;
  obs::telemetry::RequestRecord r;
  r.api = api;
  r.plan_key = key;
  if (stats != nullptr) {
    r.rung = static_cast<std::int8_t>(stats->served_rung);
    r.targets = stats->targets_served;
    r.audit_max_tightness = stats->audit_max_tightness;
  }
  r.outcome = static_cast<std::uint8_t>(code);
  r.outcome_name = error_code_name(code);
  r.ok = ok;
  r.wall_seconds = wall;
  r.plan_bytes = cache.bytes();
  r.basis_bytes = cache.basis_bytes();
  r.deadline_slack_seconds = config.deadline_seconds > 0.0
                                 ? config.deadline_seconds - wall
                                 : std::numeric_limits<double>::quiet_NaN();
  r.threads = threads;
  r.batch_width = batch_width;
  r.trace_hi = scope.context().trace_hi;
  r.trace_lo = scope.context().trace_lo;
  obs::telemetry::emit(r);
}

}  // namespace

EvalSession::EvalSession(Tree tree, const EvalConfig& config, const Options& options)
    : tree_(std::move(tree)),
      config_(config),
      options_(options),
      degrees_(assign_degrees(tree_, config_)),  // validates config
      pool_(config.threads),
      governor_(config.memory_budget_bytes),
      sorted_charges_(tree_.charges().begin(), tree_.charges().end()),
      multipoles_(tree_.nodes().size()),
      node_epoch_(tree_.nodes().size(), 0),
      cache_(options.plan_cache_capacity, options.plan_cache_byte_capacity) {}

Expected<std::shared_ptr<const EvalPlan>> EvalSession::try_compile(
    std::span<const Vec3> targets) {
  const Timer timer;
  obs::reqtrace::RequestScope rscope(obs::span::kReqEngineCompile);
  Expected<std::shared_ptr<const EvalPlan>> plan =
      try_compile_impl(targets, /*self=*/false);
  emit_request(obs::telemetry::Api::kCompile,
               plan.ok() ? plan.value()->key : 0, timer.seconds(), plan.ok(),
               plan.ok() ? ErrorCode::kOk : plan.error().code,
               /*stats=*/nullptr, cache_, config_, pool_.width(), rscope);
  return plan;
}

Expected<std::shared_ptr<const EvalPlan>> EvalSession::try_compile_self() {
  const Timer timer;
  obs::reqtrace::RequestScope rscope(obs::span::kReqEngineCompileSelf);
  Expected<std::shared_ptr<const EvalPlan>> plan =
      try_compile_impl(tree_.positions(), /*self=*/true);
  emit_request(obs::telemetry::Api::kCompileSelf,
               plan.ok() ? plan.value()->key : 0, timer.seconds(), plan.ok(),
               plan.ok() ? ErrorCode::kOk : plan.error().code,
               /*stats=*/nullptr, cache_, config_, pool_.width(), rscope);
  return plan;
}

Expected<void> EvalSession::try_update_charges(std::span<const double> charges) {
  const Timer timer;
  obs::reqtrace::RequestScope rscope(obs::span::kReqEngineUpdateCharges);
  Expected<void> result = try_update_charges_impl(charges);
  emit_request(obs::telemetry::Api::kUpdateCharges, 0, timer.seconds(),
               result.ok(), result.ok() ? ErrorCode::kOk : result.error().code,
               /*stats=*/nullptr, cache_, config_, pool_.width(), rscope);
  return result;
}

Expected<void> EvalSession::try_update_charges_impl(std::span<const double> charges) {
  if (charges.size() != tree_.source_size()) {
    return engine_error(ErrorCode::kInvalidArgument,
                        "EvalSession: charge vector size mismatch");
  }
  if (!all_finite(charges)) {
    return engine_error(ErrorCode::kNonFinite,
                        "EvalSession: charge vector has non-finite values");
  }
  const auto& orig = tree_.original_index();
  for (std::size_t si = 0; si < orig.size(); ++si) {
    sorted_charges_[si] = charges[orig[si]];
  }
  if (fault::fire(fault::Site::kNanCharge) && !sorted_charges_.empty()) {
    // Simulate a corruption that slipped past input validation; the replay's
    // non-finite detector must catch it downstream (kNonFinite).
    sorted_charges_[0] = std::numeric_limits<double>::quiet_NaN();
  }
  ++charge_epoch_;
  return {};
}

Expected<void> EvalSession::try_update_charges_sorted(std::span<const double> charges) {
  const Timer timer;
  obs::reqtrace::RequestScope rscope(obs::span::kReqEngineUpdateChargesSorted);
  Expected<void> result = try_update_charges_sorted_impl(charges);
  emit_request(obs::telemetry::Api::kUpdateChargesSorted, 0, timer.seconds(),
               result.ok(), result.ok() ? ErrorCode::kOk : result.error().code,
               /*stats=*/nullptr, cache_, config_, pool_.width(), rscope);
  return result;
}

Expected<void> EvalSession::try_update_charges_sorted_impl(
    std::span<const double> charges) {
  if (charges.size() != tree_.num_particles()) {
    return engine_error(ErrorCode::kInvalidArgument,
                        "EvalSession: sorted charge vector size mismatch");
  }
  if (!all_finite(charges)) {
    return engine_error(ErrorCode::kNonFinite,
                        "EvalSession: sorted charge vector has non-finite values");
  }
  std::copy(charges.begin(), charges.end(), sorted_charges_.begin());
  if (fault::fire(fault::Site::kNanCharge) && !sorted_charges_.empty()) {
    sorted_charges_[0] = std::numeric_limits<double>::quiet_NaN();
  }
  ++charge_epoch_;
  return {};
}

Expected<std::shared_ptr<const EvalPlan>> EvalSession::try_compile_impl(
    std::span<const Vec3> targets, bool self) {
  // Self targets are the tree's own particles, validated at tree build;
  // external targets get the same policy treatment as source particles.
  ValidationReport report;
  const ValidationPolicy policy = tree_.config().validation;
  if (!self) {
    report = validate_targets(targets);
    // Under kThrow policy enforce_validation throws ValidationError;
    // convert at this edge so the entry point keeps its typed-Expected
    // contract (kWarn/kSanitize pass straight through).
    try {
      enforce_validation(report, policy, "EvalSession::compile");
    } catch (const ValidationError&) {
      return engine_error(ErrorCode::kNonFinite,
                          "EvalSession::compile: " + report.summary());
    }
  }

  const std::uint64_t key = plan_key(targets, self, config_);
  obs::Registry& reg = obs::registry();
  if (auto hit = cache_.find(key, targets, self)) {
    reg.counter(obs::metric::kEnginePlanCacheHits).add(1);
    return hit;
  }
  reg.counter(obs::metric::kEnginePlanCacheMisses).add(1);

  auto plan = std::make_shared<EvalPlan>();
  plan->targets.assign(targets.begin(), targets.end());
  plan->self = self;
  plan->key = key;
  for (const std::size_t idx : report.non_finite_positions) {
    plan->skipped_targets.push_back(static_cast<std::uint32_t>(idx));
  }

  const ScopedTimer phase_timer(obs::span::kEngineCompile, &plan->compile_seconds);

  const std::size_t n = targets.size();
  const auto& nodes = tree_.nodes();
  const bool want_bounds = config_.track_error_bounds || config_.enforce_budget;
  const TraversalParams walk{.nodes = nodes,
                             .degree = degrees_.degree,
                             .alpha = config_.alpha,
                             .thm1 = want_bounds,
                             .enforce = config_.enforce_budget,
                             .budget = config_.error_budget};

  // The one alpha-MAC traversal per target, parallel over target blocks,
  // recording each decision (and its Theorem-1 bound) for replay.
  std::vector<std::vector<std::int32_t>> per_entries(n);
  std::vector<std::vector<double>> per_bounds(want_bounds ? n : 0);
  std::vector<TraversalTally> acc(pool_.width());
  plan->target_cost.resize(n, 0);

  // The runtime rethrows a worker's exception on this thread (a traversal
  // worker can only hit bad_alloc growing its per-target entry vectors);
  // each fan-out edge converts it to a typed error.
  if (n > 0 && tree_.num_particles() > 0) try {
    parallel_for_blocked(
        pool_, n, config_.block_size,
        [&](std::size_t block_begin, std::size_t block_end, unsigned t) -> std::uint64_t {
          TraversalTally& a = acc[t];
          const std::uint64_t work_before = a.work();
          for (std::size_t i = block_begin; i < block_end; ++i) {
            const std::uint64_t target_before = a.work();
            traverse_target(
                walk, targets[i], a,
                [&](int ni, const TreeNode&, double, double thm1, int) {
                  per_entries[i].push_back(EvalPlan::make_entry(ni, /*p2p=*/false));
                  if (want_bounds) per_bounds[i].push_back(thm1);
                },
                [&](int ni, const TreeNode&) {
                  per_entries[i].push_back(EvalPlan::make_entry(ni, /*p2p=*/true));
                  if (want_bounds) per_bounds[i].push_back(0.0);
                });
            plan->target_cost[i] = a.work() - target_before;
          }
          return a.work() - work_before;
        },
        nullptr, obs::span::kEngineCompileWorker);
  } catch (const std::exception& e) {
    return engine_error(ErrorCode::kInternal,
                        std::string("EvalSession::compile: worker exception: ") +
                            e.what());
  }

  // Serial flatten into the plan's replay layout.
  plan->offsets.resize(n + 1);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    plan->offsets[i] = total;
    total += per_entries[i].size();
  }
  plan->offsets[n] = total;
  plan->entries.reserve(total);
  if (want_bounds) plan->entry_bounds.reserve(total);
  std::vector<char> referenced(nodes.size(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<std::int32_t>& ent = per_entries[i];
    plan->entries.insert(plan->entries.end(), ent.begin(), ent.end());
    if (want_bounds) {
      plan->entry_bounds.insert(plan->entry_bounds.end(), per_bounds[i].begin(),
                                per_bounds[i].end());
    }
    for (const std::int32_t e : ent) {
      if (!EvalPlan::is_p2p(e)) referenced[static_cast<std::size_t>(EvalPlan::node_of(e))] = 1;
    }
  }
  for (std::size_t nu = 0; nu < referenced.size(); ++nu) {
    if (referenced[nu] != 0) plan->m2p_nodes.push_back(static_cast<std::int32_t>(nu));
  }

  // Governed commit of the plan's durable core (everything but the basis).
  // A denial discards the compiled schedule; the ladder serves rung 2/3.
  // The RAII reservation travels with cache residency: released on
  // eviction, replacement, clear — or right here if anything below throws
  // before the insert.
  const std::size_t plan_core_bytes = plan->memory_bytes();
  ResourceGovernor::Reservation plan_reservation =
      governor_.reserve(plan_core_bytes, "engine.plan");
  if (!plan_reservation) {
    reg.counter(obs::metric::kEnginePlanDenied).add(1);
    return engine_error(denial_code(governor_),
                        "EvalSession::compile: plan storage denied (" +
                            std::to_string(plan_core_bytes) + " bytes)");
  }

  // Precompute the charge-independent m2p evaluation basis (1/r and the
  // Y_n^m harmonics per entry). Replay then pays only the coefficient dot
  // product; the harmonics fill, the larger part of an m2p call, moves into
  // compile. Offsets are laid out serially (budget-gated, in
  // schedule order); the fill itself is parallel over target blocks.
  // m2p_grad has no basis form, so gradient plans skip the whole pass.
  // The basis budget is clamped to the governor's remaining bytes, so a
  // tight session budget yields a thinner basis (or none: rung 1), never a
  // failed compile.
  if (options_.precompute_basis && options_.basis_budget_bytes > 0 &&
      !config_.compute_gradient && total > 0) {
    plan->basis_offset.assign(total, EvalPlan::kNoBasis);
    std::uint64_t budget_bytes = options_.basis_budget_bytes;
    if (governor_.enabled()) {
      const std::size_t offsets_bytes = static_cast<std::size_t>(total) *
                                        sizeof(std::uint64_t);
      const std::size_t rem = governor_.remaining();
      budget_bytes = std::min<std::uint64_t>(
          budget_bytes, rem > offsets_bytes ? rem - offsets_bytes : 0);
    }
    const std::uint64_t budget_doubles = budget_bytes / sizeof(double);
    std::uint64_t basis_total = 0;
    bool any = false;
    for (std::uint64_t idx = 0; idx < total; ++idx) {
      const std::int32_t e = plan->entries[idx];
      if (EvalPlan::is_p2p(e)) continue;
      const auto nu = static_cast<std::size_t>(EvalPlan::node_of(e));
      const auto need =
          static_cast<std::uint64_t>(m2p_basis_size(degrees_.degree[nu]));
      if (basis_total + need > budget_doubles) break;
      plan->basis_offset[idx] = basis_total;
      basis_total += need;
      any = true;
    }
    if (any) {
      plan->basis.resize(basis_total);
      const std::size_t basis_delta = plan->memory_bytes() - plan_core_bytes;
      ResourceGovernor::Reservation basis_reservation =
          governor_.reserve(basis_delta, "engine.basis");
      if (!basis_reservation) {
        // Basis denied (budget raced tighter, or an injected fault): keep
        // the plan, drop the basis — a rung-1 plan with identical results.
        reg.counter(obs::metric::kEngineBasisDenied).add(1);
        std::vector<std::uint64_t>().swap(plan->basis_offset);
        std::vector<double>().swap(plan->basis);
      } else try {
        plan_reservation.absorb(std::move(basis_reservation));
        parallel_for_blocked(
            pool_, n, config_.block_size,
            [&](std::size_t block_begin, std::size_t block_end,
                unsigned) -> std::uint64_t {
              std::uint64_t filled = 0;
              for (std::size_t i = block_begin; i < block_end; ++i) {
                const Vec3 x = targets[i];
                for (std::uint64_t idx = plan->offsets[i]; idx < plan->offsets[i + 1];
                     ++idx) {
                  const std::uint64_t off = plan->basis_offset[idx];
                  if (off == EvalPlan::kNoBasis) continue;
                  const auto nu =
                      static_cast<std::size_t>(EvalPlan::node_of(plan->entries[idx]));
                  const int deg = degrees_.degree[nu];
                  m2p_basis(deg, nodes[nu].center, x,
                            std::span<double>(plan->basis.data() + off,
                                              m2p_basis_size(deg)));
                  ++filled;
                }
              }
              return filled;
            },
            nullptr, obs::span::kEngineCompileWorker);
      } catch (const std::exception& e) {
        return engine_error(
            ErrorCode::kInternal,
            std::string("EvalSession::compile: basis worker exception: ") +
                e.what());
      }
    } else {
      plan->basis_offset.clear();
    }
  }

  // Merge per-thread statistics in thread order (same as the fresh run).
  merge_tallies(acc, plan->stats, plan->m2p_by_level, plan->p2p_by_level, plan->degree_used);
  plan->stats.reference_charge = degrees_.reference_charge;

  reg.counter(obs::metric::kEnginePlanCompiles).add(1);
  reg.gauge(obs::metric::kEnginePlanEntries).record_max(static_cast<double>(total));
  reg.gauge(obs::metric::kEnginePlanBytes).record_max(static_cast<double>(plan->memory_bytes()));
  reg.gauge(obs::metric::kEngineBasisBytes)
      .record_max(static_cast<double>(plan->basis.size() * sizeof(double)));

  TREECODE_ASSERT_PLAN_INVARIANTS(*plan, tree_, degrees_, config_,
                                  "EvalSession::compile");
  cache_.insert(plan, std::move(plan_reservation));
  return std::shared_ptr<const EvalPlan>(plan);
}

Expected<void> EvalSession::try_ensure_refreshed(const EvalPlan& plan) {
  stale_.clear();
  for (const std::int32_t ni : plan.m2p_nodes) {
    if (node_epoch_[static_cast<std::size_t>(ni)] != charge_epoch_) stale_.push_back(ni);
  }
  if (stale_.empty()) return {};
  // Governed batch reservation for first-build multipole coefficients —
  // session-durable storage (reused across every later refresh), reserved
  // once, serially, before the parallel rebuild so the decision is
  // identical at every thread count.
  std::size_t first_build_bytes = 0;
  for (const std::int32_t ni : stale_) {
    const auto nu = static_cast<std::size_t>(ni);
    if (node_epoch_[nu] == 0) {
      first_build_bytes += tri_size(degrees_.degree[nu]) * sizeof(Complex);
    }
  }
  if (first_build_bytes > 0) {
    ResourceGovernor::Reservation r =
        governor_.reserve(first_build_bytes, "engine.multipoles");
    if (!r) {
      obs::registry().counter(obs::metric::kEngineRefreshDenied).add(1);
      return engine_error(denial_code(governor_),
                          "EvalSession: multipole refresh denied (" +
                              std::to_string(first_build_bytes) + " bytes)");
    }
    multipole_reservation_.absorb(std::move(r));
  }
  cover_p2m_basis(stale_);

  try {
    for_each_node(&pool_, stale_.size(), obs::span::kEngineRefreshWorker, [&](std::size_t j) {
      const auto nu = static_cast<std::size_t>(stale_[j]);
      MultipoleExpansion& m = multipoles_[nu];
      // First build allocates to the node's assigned degree; later refreshes
      // reuse the storage (the degree table is frozen for the session).
      if (node_epoch_[nu] == 0) {
        m.reset(degrees_.degree[nu]);
      } else {
        m.clear();
      }
      p2m_node(nu, sorted_charges_.data(), m);
      node_epoch_[nu] = charge_epoch_;
    });
  } catch (const std::exception& e) {
    return engine_error(ErrorCode::kInternal,
                        std::string("EvalSession: refresh worker exception: ") +
                            e.what());
  }
  obs::registry().counter(obs::metric::kEngineNodesRefreshed).add(stale_.size());
  return {};
}

void EvalSession::cover_p2m_basis(std::span<const std::int32_t> node_list) {
  if (!options_.precompute_basis || options_.refresh_basis_budget_bytes == 0) return;
  const auto& nodes = tree_.nodes();
  const auto& pos = tree_.positions();
  if (p2m_basis_offset_.empty()) {
    p2m_basis_offset_.assign(nodes.size(), EvalPlan::kNoBasis);
  }
  // Offsets are assigned serially (the pool layout must not depend on
  // thread timing) in list order. Geometry and degrees are frozen, so a
  // node's basis is computed exactly once: whichever refresh reaches it
  // first covers it, and every later single or batch refresh reuses it.
  const std::uint64_t budget_doubles =
      options_.refresh_basis_budget_bytes / sizeof(double);
  const std::uint64_t old_pool = p2m_basis_pool_.size();
  std::uint64_t pool_size = old_pool;
  std::vector<std::int32_t> fresh;
  for (const std::int32_t ni : node_list) {
    const auto nu = static_cast<std::size_t>(ni);
    if (p2m_basis_offset_[nu] != EvalPlan::kNoBasis) continue;
    const auto need = static_cast<std::uint64_t>(
        p2m_basis_size(degrees_.degree[nu], nodes[nu].count()));
    if (pool_size + need > budget_doubles) continue;
    p2m_basis_offset_[nu] = pool_size;
    pool_size += need;
    fresh.push_back(ni);
  }
  if (pool_size == old_pool) return;
  auto uncover = [&] {
    for (const std::int32_t ni : fresh) {
      p2m_basis_offset_[static_cast<std::size_t>(ni)] = EvalPlan::kNoBasis;
    }
  };
  const std::size_t growth_bytes =
      static_cast<std::size_t>(pool_size - old_pool) * sizeof(double);
  ResourceGovernor::Reservation growth =
      governor_.reserve(growth_bytes, "engine.p2m_basis");
  if (!growth) {
    // The full p2m kernel produces identical coefficients, just slower.
    obs::registry().counter(obs::metric::kEngineP2mBasisDenied).add(1);
    uncover();
    return;
  }
  try {
    p2m_basis_pool_.resize(pool_size);
    p2m_reservation_.absorb(std::move(growth));
    for_each_node(&pool_, fresh.size(), obs::span::kEngineRefreshWorker, [&](std::size_t j) {
      const auto nu = static_cast<std::size_t>(fresh[j]);
      const TreeNode& node = nodes[nu];
      const int deg = degrees_.degree[nu];
      p2m_basis(deg, node.center,
                std::span<const Vec3>(pos.data() + node.begin, node.count()),
                std::span<double>(p2m_basis_pool_.data() + p2m_basis_offset_[nu],
                                  p2m_basis_size(deg, node.count())));
    });
    obs::registry()
        .gauge(obs::metric::kEngineRefreshBasisBytes)
        .record_max(static_cast<double>(pool_size * sizeof(double)));
  } catch (const std::exception&) {
    // Allocation or worker failure: roll the coverage back so no node
    // points at unfilled pool storage; the full p2m kernel serves instead.
    uncover();
  }
}

void EvalSession::p2m_node(std::size_t nu, const double* charges,
                           MultipoleExpansion& m) const {
  const TreeNode& node = tree_.nodes()[nu];
  const std::span<const double> pq(charges + node.begin, node.count());
  const std::uint64_t off =
      p2m_basis_offset_.empty() ? EvalPlan::kNoBasis : p2m_basis_offset_[nu];
  if (off != EvalPlan::kNoBasis) {
    p2m_apply_basis(pq, p2m_basis_pool_.data() + off, m);
  } else {
    p2m(node.center,
        std::span<const Vec3>(tree_.positions().data() + node.begin, node.count()), pq, m);
  }
}

/// The per-column operands of one replay walk: column c of node nu reads
/// its multipole at multipoles[slot(nu) * k + c] and its tree-sorted
/// charges at charges + c * stride. A single-RHS replay is the k = 1 view
/// of the session's own multipoles_ (slot = node index) and charges.
struct EvalSession::ColumnView {
  std::size_t k = 1;
  const double* charges = nullptr;
  std::size_t stride = 0;
  const MultipoleExpansion* multipoles = nullptr;
  const std::int32_t* slot = nullptr;  ///< node -> multipole slot; null = node index

  [[nodiscard]] const MultipoleExpansion& multipole(std::size_t nu,
                                                    std::size_t c) const noexcept {
    const std::size_t j = slot != nullptr ? static_cast<std::size_t>(slot[nu]) : nu;
    return multipoles[j * k + c];
  }
  [[nodiscard]] std::span<const double> node_charges(const TreeNode& node,
                                                     std::size_t c) const noexcept {
    return {charges + c * stride + node.begin, node.count()};
  }
};

Expected<EvalResult> EvalSession::replay(const EvalPlan& plan) {
  double refresh_seconds = 0.0;
  if (plan.num_targets() > 0 && tree_.num_particles() > 0) {
    const ScopedTimer refresh_timer(obs::span::kEngineRefresh, &refresh_seconds);
    Expected<void> refreshed = try_ensure_refreshed(plan);
    if (!refreshed.ok()) return refreshed.error();
  }
  const ColumnView cols{.k = 1,
                        .charges = sorted_charges_.data(),
                        .stride = sorted_charges_.size(),
                        .multipoles = multipoles_.data()};
  Expected<std::vector<EvalResult>> served =
      replay_columns(plan, cols, refresh_seconds, obs::metric::kEngineReplays);
  if (!served.ok()) return served.error();
  return std::move(served.value().front());
}

Expected<std::vector<EvalResult>> EvalSession::replay_columns(
    const EvalPlan& plan, const ColumnView& cols, double refresh_seconds,
    const char* replay_metric) {
  const std::size_t n = plan.num_targets();
  const std::size_t k = cols.k;
  const std::size_t out_n = plan.self ? tree_.source_size() : n;
  const bool have_basis = !plan.basis_offset.empty();
  const ServeRung rung = have_basis ? ServeRung::kBasisReplay : ServeRung::kPlainReplay;
  // Gradients and audits have no batched form, so only a k = 1 walk asks
  // for them (try_evaluate_batch serves such configs column by column).
  const bool want_grad = config_.compute_gradient;
  const bool want_bounds = config_.track_error_bounds || config_.enforce_budget;
  const bool auditing = config_.audit_samples > 0;
  std::vector<EvalResult> results(k);
  for (EvalResult& r : results) {
    r.stats = plan.stats;  // charge-independent schedule statistics
    r.stats.build_seconds = refresh_seconds;
    r.stats.eval_seconds = 0.0;
    r.stats.work = WorkStats{};
    r.stats.served_rung = rung;
    r.stats.outcome = ErrorCode::kOk;
    r.stats.targets_served = static_cast<std::uint64_t>(n);
    r.potential.assign(out_n, 0.0);
    if (want_grad) r.gradient.assign(out_n, Vec3{});
    if (want_bounds) r.error_bound.assign(out_n, 0.0);
  }
  if (n == 0 || tree_.num_particles() == 0) return results;

  const auto& nodes = tree_.nodes();
  const auto& pos = tree_.positions();
  const double softening2 = config_.softening * config_.softening;
  const bool have_entry_bounds = !plan.entry_bounds.empty();

  std::vector<double> phi(k * n, 0.0);  // phi[c * n + i]
  std::vector<Vec3> grad(want_grad ? n : 0, Vec3{});
  std::vector<double> bound(want_bounds ? n : 0, 0.0);  // shared by every column
  std::vector<obs::audit::Reservoir> reservoirs(auditing ? pool_.width() : 0);
  for (auto& r : reservoirs) r.set_capacity(config_.audit_samples);

  // Failure channels out of the parallel region: a detected non-finite
  // potential or an expired deadline cancels the sweep cooperatively
  // (blocks already running complete; unclaimed blocks are skipped).
  CancellationToken cancel;
  std::atomic<bool> deadline_hit{false};
  // Packed (target * k + column) of the first non-finite potential seen.
  std::atomic<std::int64_t> nonfinite_at{-1};
  const bool deadline_active = governor_.deadline_armed();
  std::vector<char> done(deadline_active ? n : 0, 0);

  // One walk of target i's entries for the column block [c0, c0 + width),
  // width <= W: the plan entries, the m2p basis, and the leaf positions
  // stream from memory once per block while each column's accumulator
  // stays in a register. Per column the kernel calls, operands, and
  // accumulation order are exactly those of a k = 1 walk, so each batch
  // column is bitwise its single-RHS replay. An uncovered m2p entry fills
  // its basis once into the thread's workspace and applies it to every
  // column; m2p() is exactly that fill plus apply. Returns the offset of
  // the block's first non-finite column, or -1.
  auto walk = [&]<std::size_t W>(std::integral_constant<std::size_t, W>, std::size_t i,
                                 std::size_t c0, unsigned t) -> int {
    const std::size_t width = W == 1 ? 1 : std::min(W, k - c0);
    const Vec3 x = plan.targets[i];
    double acc[W] = {};
    double my_bound = 0.0;
    Vec3 my_grad{};
    // Replay audits mirror the fresh traversal exactly: M2P entries appear
    // in the plan in per-target DFS acceptance order, so the (target,
    // ordinal) sampling keys — and therefore the audited interactions and
    // their bitwise contributions — match a fresh evaluation.
    std::uint64_t audit_ord = 0;
    for (std::uint64_t idx = plan.offsets[i]; idx < plan.offsets[i + 1]; ++idx) {
      const std::int32_t e = plan.entries[idx];
      const auto nu = static_cast<std::size_t>(EvalPlan::node_of(e));
      const TreeNode& node = nodes[nu];
      if (EvalPlan::is_p2p(e)) {
        const std::span<const Vec3> ppos(pos.data() + node.begin, node.count());
        if constexpr (W == 1) {
          if (want_grad) {
            const PotentialGrad pg =
                p2p_grad(x, ppos, cols.node_charges(node, c0), softening2);
            acc[0] += pg.potential;
            my_grad += pg.gradient;
          } else {
            acc[0] += p2p(x, ppos, cols.node_charges(node, c0), softening2);
          }
        } else {
          std::span<const double> cq[W];
          double p2p_out[W];
          for (std::size_t w = 0; w < width; ++w) cq[w] = cols.node_charges(node, c0 + w);
          p2p_batch(x, ppos, std::span<const std::span<const double>>(cq, width),
                    softening2, std::span<double>(p2p_out, width));
          for (std::size_t w = 0; w < width; ++w) acc[w] += p2p_out[w];
        }
        continue;
      }
      const MultipoleExpansion& m = cols.multipole(nu, c0);
      double contribution;  // column c0's, for the audit sample
      if (W == 1 && want_grad) {
        const PotentialGrad pg = m2p_grad(m, node.center, x);
        contribution = pg.potential;
        my_grad += pg.gradient;
        acc[0] += contribution;
      } else {
        const std::uint64_t off = have_basis ? plan.basis_offset[idx] : EvalPlan::kNoBasis;
        const double* basis =
            off != EvalPlan::kNoBasis
                ? plan.basis.data() + off
                : m2p_basis_workspace(degrees_.degree[nu], node.center, x);
        contribution = m2p_apply_basis(m, basis);
        acc[0] += contribution;
        for (std::size_t w = 1; w < width; ++w) {
          acc[w] += m2p_apply_basis(cols.multipole(nu, c0 + w), basis);
        }
      }
      if (want_bounds && c0 == 0) my_bound += plan.entry_bounds[idx];
      if (W == 1 && auditing) {
        // Plans compiled without bound tracking carry no per-entry bounds;
        // recompute Theorem 1 with the same arguments the fresh traversal
        // uses so audits stay bitwise comparable.
        const double r = distance(x, node.center);
        reservoirs[t].offer(obs::audit::make_sample(
            config_.audit_seed, i, audit_ord, EvalPlan::node_of(e), node.level, m.degree(),
            node.abs_charge, node.radius, r, contribution,
            have_entry_bounds ? plan.entry_bounds[idx]
                              : multipole_error_bound(node.abs_charge, node.radius, r,
                                                      degrees_.degree[nu])));
      }
      ++audit_ord;
    }
    for (std::size_t w = 0; w < width; ++w) {
      if (!std::isfinite(acc[w])) return static_cast<int>(w);
      phi[(c0 + w) * n + i] = acc[w];
    }
    if (c0 == 0) {
      if (want_bounds) bound[i] = my_bound;
      if (want_grad) grad[i] = my_grad;
    }
    return -1;
  };

  WorkStats work;
  double eval_seconds = 0.0;
  try {
    const ScopedTimer phase_timer(obs::span::kEngineReplay, &eval_seconds);
    work = parallel_for_blocked(
        pool_, n, config_.block_size,
        [&](std::size_t block_begin, std::size_t block_end, unsigned t) -> std::uint64_t {
          if (deadline_active && governor_.deadline_expired()) {
            deadline_hit.store(true, std::memory_order_relaxed);
            cancel.cancel();
            return 0;
          }
          if constexpr (fault::kEnabled) {
            if (fault::fire(fault::Site::kSlowWorker)) {
              std::this_thread::sleep_for(std::chrono::milliseconds(2));
            }
          }
          std::uint64_t cost = 0;
          for (std::size_t i = block_begin; i < block_end; ++i) {
            for (std::size_t c0 = 0; c0 < k; c0 += kMaxWidth) {
              const int bad =
                  k == 1 ? walk(std::integral_constant<std::size_t, 1>{}, i, c0, t)
                         : walk(std::integral_constant<std::size_t, kMaxWidth>{}, i, c0, t);
              if (bad >= 0) {
                obs::recorder::record(obs::recorder::Category::kNonFinite,
                                      "engine.nonfinite_potential",
                                      static_cast<double>(i));
                std::int64_t expected_idx = -1;
                nonfinite_at.compare_exchange_strong(
                    expected_idx, static_cast<std::int64_t>(i * k + c0) + bad,
                    std::memory_order_relaxed);
                cancel.cancel();
                return cost;
              }
            }
            if (deadline_active) done[i] = 1;
            cost += plan.target_cost[i] * k;
          }
          return cost;
        },
        &cancel, obs::span::kEngineReplayWorker);
  } catch (const std::exception& e) {
    return engine_error(ErrorCode::kInternal,
                        std::string("EvalSession: replay worker exception: ") +
                            e.what());
  }

  const std::int64_t bad = nonfinite_at.load(std::memory_order_relaxed);
  if (bad >= 0) {
    const auto kk = static_cast<std::int64_t>(k);
    return engine_error(ErrorCode::kNonFinite,
                        "EvalSession: non-finite potential at evaluation point " +
                            std::to_string(bad / kk) +
                            (k > 1 ? " in batch column " + std::to_string(bad % kk)
                                   : std::string()));
  }
  std::uint64_t served = static_cast<std::uint64_t>(n);
  if (deadline_hit.load(std::memory_order_relaxed)) {
    obs::registry().counter(obs::metric::kEngineDeadlineExpirations).add(1);
    if (!config_.deadline_partial) {
      return engine_error(ErrorCode::kDeadline,
                          "EvalSession: deadline expired during replay");
    }
    served = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (done[i] != 0) {
        ++served;
      } else {
        for (std::size_t c = 0; c < k; ++c) phi[c * n + i] = 0.0;
        if (want_grad) grad[i] = Vec3{};
        if (want_bounds) bound[i] = 0.0;
      }
    }
  }

  obs::audit::Summary audit;
  if (auditing) {
    const std::vector<obs::audit::Sample> winners =
        obs::audit::merge(reservoirs, config_.audit_samples);
    audit = obs::audit::finalize(winners, [&](const obs::audit::Sample& s) {
      const TreeNode& node = nodes[static_cast<std::size_t>(s.node)];
      return p2p(plan.targets[s.target],
                 std::span<const Vec3>(pos.data() + node.begin, node.count()),
                 cols.node_charges(node, 0), /*softening2=*/0.0);
    });
  }

  // The replay and rung counters count the call; the work counters and
  // histograms count each column like one single-RHS replay.
  obs::Registry& reg = obs::registry();
  reg.counter(replay_metric).add(1);
  reg.counter(rung == ServeRung::kBasisReplay ? obs::metric::kEngineServeBasisReplay
                                              : obs::metric::kEngineServePlainReplay)
      .add(1);
  reg.counter(obs::metric::kEngineMultipoleTerms).add(plan.stats.multipole_terms * k);
  reg.counter(obs::metric::kEngineM2pCount).add(plan.stats.m2p_count * k);
  reg.counter(obs::metric::kEngineP2pPairs).add(plan.stats.p2p_pairs * k);
  obs::flush_counts(obs::metric::kEngineM2pPerLevel, plan.m2p_by_level, k);
  obs::flush_counts(obs::metric::kEngineP2pPerLevel, plan.p2p_by_level, k);
  obs::flush_counts(obs::metric::kEngineDegreeUsed, plan.degree_used, k);

  const auto& orig = tree_.original_index();
  for (std::size_t c = 0; c < k; ++c) {
    EvalResult& r = results[c];
    r.stats.eval_seconds = eval_seconds;
    r.stats.work = work;
    r.stats.targets_served = served;
    if (served != static_cast<std::uint64_t>(n)) r.stats.outcome = ErrorCode::kDeadline;
    r.stats.audit_samples = audit.samples;
    r.stats.audit_bound_violations = audit.bound_violations;
    r.stats.audit_max_tightness = audit.max_tightness;
    r.stats.audit_mean_tightness = audit.mean_tightness;
    const double* row = phi.data() + c * n;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t o = plan.self ? orig[i] : i;
      r.potential[o] = row[i];
      if (want_grad) r.gradient[o] = grad[i];
      if (want_bounds) r.error_bound[o] = bound[i];
    }
    TREECODE_ASSERT_EVAL_INVARIANTS(tree_, degrees_, config_, r, out_n,
                                    "EvalSession::replay");
  }
  return results;
}

std::size_t EvalSession::traversal_reserve_bytes() {
  if (traversal_bytes_ == 0) {
    std::size_t total = 0;
    const std::size_t num_nodes = tree_.nodes().size();
    for (std::size_t nu = 0; nu < num_nodes; ++nu) {
      total += tri_size(degrees_.degree[nu]) * sizeof(Complex);
    }
    traversal_bytes_ = total;
  }
  return traversal_bytes_;
}

Expected<EvalResult> EvalSession::serve_degraded(std::span<const Vec3> targets,
                                                 bool self) {
  obs::registry().counter(obs::metric::kEngineDegradedServes).add(1);
  // Rung 2 needs transient multipoles for the whole tree; reserve them for
  // the duration of the traversal so a concurrent-session budget still
  // holds, then hand the bytes back.
  const std::size_t traversal_bytes = traversal_reserve_bytes();
  if (ResourceGovernor::Reservation traversal =
          governor_.reserve(traversal_bytes, "engine.traversal")) {
    // Held for the dynamic extent of the traversal; returned on any exit.
    return serve_traversal(targets, self);
  }
  return serve_direct(targets, self);
}

Expected<EvalResult> EvalSession::serve_traversal(std::span<const Vec3> targets,
                                                  bool self) {
  if (governor_.deadline_expired() && !config_.deadline_partial) {
    return engine_error(ErrorCode::kDeadline,
                        "EvalSession: deadline expired before traversal fallback");
  }
  // The fresh evaluator re-runs validation, degree assignment, and the full
  // upward pass — this is the degraded path; nothing durable is kept.
  try {
    const BarnesHutEvaluator fresh(tree_, config_, &pool_, sorted_charges_);
    EvalResult result = self ? fresh.evaluate(pool_) : fresh.evaluate_at(pool_, targets);
    result.stats.served_rung = ServeRung::kTraversal;
    result.stats.outcome = ErrorCode::kOk;
    result.stats.targets_served = static_cast<std::uint64_t>(targets.size());
    obs::registry().counter(obs::metric::kEngineServeTraversal).add(1);
    return result;
  } catch (const std::invalid_argument& e) {
    return engine_error(ErrorCode::kInvalidArgument, e.what());
  } catch (const std::exception& e) {
    const std::string what = e.what();
    const ErrorCode code = what.find("non-finite") != std::string::npos
                               ? ErrorCode::kNonFinite
                               : ErrorCode::kInternal;
    return engine_error(code, what);
  }
}

Expected<EvalResult> EvalSession::serve_direct(std::span<const Vec3> targets, bool self) {
  const std::size_t n = targets.size();
  EvalResult result;
  result.stats.served_rung = ServeRung::kDirect;
  result.stats.outcome = ErrorCode::kOk;
  result.stats.targets_served = static_cast<std::uint64_t>(n);
  const std::size_t out_n = self ? tree_.source_size() : n;
  const bool want_grad = config_.compute_gradient;
  const bool want_bounds = config_.track_error_bounds || config_.enforce_budget;
  result.potential.assign(out_n, 0.0);
  if (want_grad) result.gradient.assign(out_n, Vec3{});
  // Direct summation is exact: the Theorem-1 truncation error of every
  // interaction is zero, so the a-posteriori bound vector is identically
  // zero and trivially within any error budget.
  if (want_bounds) result.error_bound.assign(out_n, 0.0);
  obs::registry().counter(obs::metric::kEngineServeDirect).add(1);
  if (n == 0 || tree_.num_particles() == 0) return result;

  std::vector<char> skip(n, 0);
  if (!self) {
    const ValidationReport report = validate_targets(targets);
    if (tree_.config().validation == ValidationPolicy::kThrow && report.has_errors()) {
      return engine_error(ErrorCode::kNonFinite,
                          "EvalSession::direct: " + report.summary());
    }
    for (const std::size_t idx : report.non_finite_positions) skip[idx] = 1;
  }

  const auto& pos = tree_.positions();
  const auto& q = sorted_charges_;
  const std::span<const Vec3> sources(pos.data(), tree_.num_particles());
  const std::span<const double> charges(q.data(), tree_.num_particles());
  const double softening2 = config_.softening * config_.softening;
  const auto pairs_per_target = static_cast<std::uint64_t>(tree_.num_particles());

  CancellationToken cancel;
  std::atomic<bool> deadline_hit{false};
  std::atomic<std::int64_t> nonfinite_at{-1};
  const bool deadline_active = governor_.deadline_armed();
  std::vector<char> done(deadline_active ? n : 0, 0);
  std::vector<double> phi(n, 0.0);
  std::vector<Vec3> grad(want_grad ? n : 0, Vec3{});

  try {
    const ScopedTimer phase_timer(obs::span::kEngineDirect, &result.stats.eval_seconds);
    result.stats.work = parallel_for_blocked(
        pool_, n, config_.block_size,
        [&](std::size_t block_begin, std::size_t block_end, unsigned) -> std::uint64_t {
          if (deadline_active && governor_.deadline_expired()) {
            deadline_hit.store(true, std::memory_order_relaxed);
            cancel.cancel();
            return 0;
          }
          if constexpr (fault::kEnabled) {
            if (fault::fire(fault::Site::kSlowWorker)) {
              std::this_thread::sleep_for(std::chrono::milliseconds(2));
            }
          }
          std::uint64_t cost = 0;
          for (std::size_t i = block_begin; i < block_end; ++i) {
            if (skip[i] != 0) {
              if (deadline_active) done[i] = 1;
              continue;
            }
            const Vec3 x = targets[i];
            double my_phi;
            if (want_grad) {
              const PotentialGrad pg = p2p_grad(x, sources, charges, softening2);
              my_phi = pg.potential;
              grad[i] = pg.gradient;
            } else {
              my_phi = p2p(x, sources, charges, softening2);
            }
            if (!std::isfinite(my_phi)) {
              obs::recorder::record(obs::recorder::Category::kNonFinite,
                                    "engine.nonfinite_potential",
                                    static_cast<double>(i));
              std::int64_t expected_idx = -1;
              nonfinite_at.compare_exchange_strong(expected_idx,
                                                   static_cast<std::int64_t>(i),
                                                   std::memory_order_relaxed);
              cancel.cancel();
              return cost;
            }
            phi[i] = my_phi;
            if (deadline_active) done[i] = 1;
            cost += pairs_per_target;
          }
          return cost;
        },
        &cancel, obs::span::kEngineDirectWorker);
  } catch (const std::exception& e) {
    return engine_error(ErrorCode::kInternal,
                        std::string("EvalSession: direct worker exception: ") +
                            e.what());
  }

  const std::int64_t bad_target = nonfinite_at.load(std::memory_order_relaxed);
  if (bad_target >= 0) {
    return engine_error(ErrorCode::kNonFinite,
                        "EvalSession: non-finite potential at evaluation point " +
                            std::to_string(bad_target));
  }
  if (deadline_hit.load(std::memory_order_relaxed)) {
    obs::registry().counter(obs::metric::kEngineDeadlineExpirations).add(1);
    if (!config_.deadline_partial) {
      return engine_error(ErrorCode::kDeadline,
                          "EvalSession: deadline expired during direct fallback");
    }
    result.stats.outcome = ErrorCode::kDeadline;
    std::uint64_t served = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (done[i] != 0) {
        ++served;
      } else {
        phi[i] = 0.0;
        if (want_grad) grad[i] = Vec3{};
      }
    }
    result.stats.targets_served = served;
  }
  result.stats.p2p_pairs = result.stats.work.total_work();

  if (self) {
    const auto& orig = tree_.original_index();
    for (std::size_t i = 0; i < n; ++i) {
      result.potential[orig[i]] = phi[i];
      if (want_grad) result.gradient[orig[i]] = grad[i];
    }
  } else {
    result.potential = std::move(phi);
    if (want_grad) result.gradient = std::move(grad);
  }
  return result;
}

Expected<EvalResult> EvalSession::try_evaluate(const EvalPlan& plan) {
  const Timer timer;
  obs::reqtrace::RequestScope rscope(obs::span::kReqEngineEvaluatePlan);
  Expected<EvalResult> served = try_evaluate_impl(plan);
  emit_request(obs::telemetry::Api::kEvaluatePlan, plan.key, timer.seconds(),
               served.ok(), served.ok() ? served.value().stats.outcome
                                        : served.error().code,
               served.ok() ? &served.value().stats : nullptr, cache_, config_,
               pool_.width(), rscope);
  return served;
}

Expected<EvalResult> EvalSession::try_evaluate_impl(const EvalPlan& plan) {
  const DeadlineScope deadline(governor_, config_.deadline_seconds);
  if (plan.offsets.size() != plan.num_targets() + 1) {
    return engine_error(ErrorCode::kInvalidArgument,
                        "EvalSession: plan offsets inconsistent with targets");
  }
  Expected<EvalResult> served = replay(plan);
  if (served.ok() || !memory_class(served.error().code)) return served;
  return serve_degraded(plan.targets, plan.self);
}

Expected<std::vector<EvalResult>> EvalSession::try_evaluate_batch(
    const EvalPlan& plan, std::span<const std::span<const double>> charge_columns) {
  const Timer timer;
  obs::reqtrace::RequestScope rscope(obs::span::kReqEngineEvaluateBatch);
  Expected<std::vector<EvalResult>> served =
      try_evaluate_batch_impl(plan, charge_columns);
  const EvalStats* stats =
      served.ok() && !served.value().empty() ? &served.value().front().stats : nullptr;
  emit_request(obs::telemetry::Api::kEvaluateBatch, plan.key, timer.seconds(),
               served.ok(),
               served.ok() ? (stats != nullptr ? stats->outcome : ErrorCode::kOk)
                           : served.error().code,
               stats, cache_, config_, pool_.width(), rscope,
               static_cast<std::uint32_t>(charge_columns.size()));
  return served;
}

Expected<std::vector<EvalResult>> EvalSession::evaluate_batch_sequential(
    const EvalPlan& plan, std::span<const std::span<const double>> charge_columns) {
  obs::registry().counter(obs::metric::kEngineBatchFallbacks).add(1);
  std::vector<EvalResult> results;
  results.reserve(charge_columns.size());
  for (std::size_t c = 0; c < charge_columns.size(); ++c) {
    Expected<void> updated = try_update_charges_impl(charge_columns[c]);
    if (!updated.ok()) return updated.error();
    Expected<EvalResult> served = try_evaluate_impl(plan);
    if (!served.ok()) return served.error();
    results.push_back(std::move(served).value());
  }
  return results;
}

Expected<std::vector<EvalResult>> EvalSession::try_evaluate_batch_impl(
    const EvalPlan& plan, std::span<const std::span<const double>> charge_columns) {
  const DeadlineScope deadline(governor_, config_.deadline_seconds);
  if (plan.offsets.size() != plan.num_targets() + 1) {
    return engine_error(ErrorCode::kInvalidArgument,
                        "EvalSession: plan offsets inconsistent with targets");
  }
  const std::size_t k = charge_columns.size();
  if (k == 0) {
    return engine_error(ErrorCode::kInvalidArgument,
                        "EvalSession: batch has no charge columns");
  }
  for (std::size_t c = 0; c < k; ++c) {
    if (charge_columns[c].size() != tree_.source_size()) {
      return engine_error(ErrorCode::kInvalidArgument,
                          "EvalSession: batch column " + std::to_string(c) +
                              " size mismatch");
    }
    if (!all_finite(charge_columns[c])) {
      return engine_error(ErrorCode::kNonFinite,
                          "EvalSession: batch column " + std::to_string(c) +
                              " has non-finite values");
    }
  }
  obs::Registry& reg = obs::registry();
  reg.counter(obs::metric::kEngineBatchColumns).add(k);

  // Gradient and audit evaluations have no batched kernel form (m2p_grad
  // carries no basis; audit reservoirs key on a single charge vector) —
  // serve them column-by-column through the single-RHS path, which is
  // trivially bitwise-identical.
  if (config_.compute_gradient || config_.audit_samples > 0) {
    return evaluate_batch_sequential(plan, charge_columns);
  }

  const std::size_t np = tree_.num_particles();
  const auto& nodes = tree_.nodes();
  const std::size_t num_m2p = plan.m2p_nodes.size();
  ResourceGovernor::Reservation workspace;
  std::vector<double> sorted;
  std::vector<MultipoleExpansion> batch_m;
  std::vector<std::int32_t> m2p_slot;
  double refresh_seconds = 0.0;
  if (plan.num_targets() > 0 && np > 0) {
    // Governed batch workspace: k per-column copies of every plan-referenced
    // multipole, the k sorted charge columns, and the k potential rows.
    // Reserved before any allocation; a denial falls back to the sequential
    // path rather than failing the batch.
    std::size_t coeff_bytes = 0;
    for (const std::int32_t ni : plan.m2p_nodes) {
      coeff_bytes +=
          tri_size(degrees_.degree[static_cast<std::size_t>(ni)]) * sizeof(Complex);
    }
    workspace = governor_.reserve(
        coeff_bytes * k + k * np * sizeof(double) + k * plan.num_targets() * sizeof(double),
        "engine.batch");
    if (!workspace) {
      reg.counter(obs::metric::kEngineBatchDenied).add(1);
      return evaluate_batch_sequential(plan, charge_columns);
    }

    const ScopedTimer refresh_timer(obs::span::kEngineRefresh, &refresh_seconds);
    // Gather each column into tree-sorted order — the identical permutation
    // try_update_charges performs (a pure copy, no arithmetic).
    sorted.resize(k * np);
    const auto& orig = tree_.original_index();
    for (std::size_t c = 0; c < k; ++c) {
      double* col = sorted.data() + c * np;
      const std::span<const double> src = charge_columns[c];
      for (std::size_t si = 0; si < orig.size(); ++si) col[si] = src[orig[si]];
    }

    // Per-column multipoles for every node the plan references, rebuilt from
    // the column's charges exactly as the single-RHS refresh would: reset to
    // the node's frozen degree, then p2m through the shared basis pool when
    // covered (bitwise-equal to the full kernel) or the full p2m otherwise.
    // A covered node's basis is read once for all k columns.
    cover_p2m_basis(plan.m2p_nodes);
    batch_m.resize(num_m2p * k);
    try {
      for_each_node(&pool_, num_m2p, obs::span::kEngineRefreshWorker, [&](std::size_t j) {
        const auto nu = static_cast<std::size_t>(plan.m2p_nodes[j]);
        for (std::size_t c = 0; c < k; ++c) {
          MultipoleExpansion& m = batch_m[j * k + c];
          m.reset(degrees_.degree[nu]);
          p2m_node(nu, sorted.data() + c * np, m);
        }
      });
    } catch (const std::exception& e) {
      return engine_error(ErrorCode::kInternal,
                          std::string("EvalSession: batch refresh worker exception: ") +
                              e.what());
    }
    m2p_slot.assign(nodes.size(), -1);
    for (std::size_t j = 0; j < num_m2p; ++j) {
      m2p_slot[static_cast<std::size_t>(plan.m2p_nodes[j])] = static_cast<std::int32_t>(j);
    }
  }

  const ColumnView cols{.k = k,
                        .charges = sorted.data(),
                        .stride = np,
                        .multipoles = batch_m.data(),
                        .slot = m2p_slot.data()};
  return replay_columns(plan, cols, refresh_seconds, obs::metric::kEngineBatchReplays);
}

Expected<EvalResult> EvalSession::try_evaluate_at(std::span<const Vec3> targets) {
  const Timer timer;
  obs::reqtrace::RequestScope rscope(obs::span::kReqEngineEvaluateAt);
  std::uint64_t key = 0;
  Expected<EvalResult> served = try_evaluate_at_impl(targets, /*self=*/false, key);
  emit_request(obs::telemetry::Api::kEvaluateAt, key, timer.seconds(),
               served.ok(), served.ok() ? served.value().stats.outcome
                                        : served.error().code,
               served.ok() ? &served.value().stats : nullptr, cache_, config_,
               pool_.width(), rscope);
  return served;
}

Expected<EvalResult> EvalSession::try_evaluate() {
  const Timer timer;
  obs::reqtrace::RequestScope rscope(obs::span::kReqEngineEvaluateSelf);
  std::uint64_t key = 0;
  Expected<EvalResult> served =
      try_evaluate_at_impl(tree_.positions(), /*self=*/true, key);
  emit_request(obs::telemetry::Api::kEvaluateSelf, key, timer.seconds(),
               served.ok(), served.ok() ? served.value().stats.outcome
                                        : served.error().code,
               served.ok() ? &served.value().stats : nullptr, cache_, config_,
               pool_.width(), rscope);
  return served;
}

Expected<EvalResult> EvalSession::try_evaluate_at_impl(std::span<const Vec3> targets,
                                                       bool self,
                                                       std::uint64_t& key_out) {
  const DeadlineScope deadline(governor_, config_.deadline_seconds);
  Expected<std::shared_ptr<const EvalPlan>> plan = try_compile_impl(targets, self);
  if (plan.ok()) {
    key_out = plan.value()->key;
    Expected<EvalResult> served = replay(*plan.value());
    if (served.ok() || !memory_class(served.error().code)) return served;
  } else if (!memory_class(plan.error().code)) {
    return plan.error();
  }
  return serve_degraded(targets, self);
}

}  // namespace treecode::engine
