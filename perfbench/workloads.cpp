#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <numbers>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "bem/bem_operator.hpp"
#include "bem/meshgen.hpp"
#include "bem/quadrature.hpp"
#include "core/barnes_hut.hpp"
#include "core/treecode.hpp"
#include "dist/distributions.hpp"
#include "linalg/gmres.hpp"
#include "probes.hpp"
#include "service/eval_service.hpp"
#include "util/stats.hpp"

namespace perfbench {

using namespace treecode;

namespace {

constexpr int kRhsCharges = 4;  // point charges per GMRES right-hand side

// Accuracy gate of every op: relative 2-norm error against direct summation
// (or apply_direct). The paper's configuration reaches 1e-6 or better on
// these inputs, so a breach means a wrong answer, not a noisy one.
constexpr double kRelErrTol = 1e-4;

// Stream purposes (see stream()).
enum Purpose : std::uint64_t {
  kRhs = 1,
  kCharges,
  kSample,
  kCloud,
  kShellGeometry,
  kPool,
  kArrivals,
};

EvalConfig paper_config(unsigned threads) {
  EvalConfig cfg;
  cfg.alpha = 0.5;
  cfg.degree = 4;
  cfg.mode = DegreeMode::kAdaptive;
  cfg.threads = threads;
  return cfg;
}

ParticleSystem gauss_particles(const std::vector<MeshQuadPoint>& quad) {
  std::vector<Vec3> pos;
  std::vector<double> q;
  for (const MeshQuadPoint& g : quad) {
    pos.push_back(g.position);
    q.push_back(g.weight);
  }
  return ParticleSystem(std::move(pos), std::move(q));
}

/// Set-up runs per process (setup_s is their median): at least 3, and up
/// to 7 while they have taken less than 4 s in total.
bool more_setups(const std::vector<double>& setups) {
  return setups.size() < 3 || (setups.size() < 7 && sum(setups) < 4.0);
}

/// Relative 2-norm error of `approx` (at every source point, in caller
/// order) against direct summation over all of them.
double full_rel_err(const std::vector<Vec3>& pos, const std::vector<double>& q,
                    const std::vector<double>& approx, unsigned threads) {
  const EvalResult exact = evaluate_direct(ParticleSystem(pos, q), threads);
  return relative_error_2norm(exact.potential, approx);
}

/// Ops of one pass: op(i) runs op i and returns its measured latency in
/// seconds (checks excluded). Runs until `seconds` of wall time have gone
/// and at least `min_ops` ran.
std::vector<double> run_pass(const Args& a, int min_ops, const std::function<double(int)>& op) {
  std::vector<double> lat;
  const Clock::time_point start = Clock::now();
  for (int i = 0;; ++i) {
    if (i >= min_ops && seconds_between(start, Clock::now()) >= a.seconds) break;
    lat.push_back(op(i));
  }
  return lat;
}

/// The untraced pass and, in a traced run, the same ops again with spans
/// on. Sets obs.trace_overhead_frac.
std::vector<double> run_passes(const Args& a, int min_ops, Result& r,
                               const std::function<double(int)>& op) {
  Tracer& tracer = Tracer::get();
  tracer.set_enabled(false);
  std::vector<double> untraced = run_pass(a, min_ops, op);
  for (const double t : untraced) r.op_ms.push_back(t * 1e3);
  if (a.trace) {
    tracer.set_enabled(true);
    const std::vector<double> traced = run_pass(a, min_ops, op);
    r.set_layer("obs.trace_overhead_frac", median(traced) / median(untraced) - 1.0, "ratio");
  }
  return untraced;
}

void set_e2e(Result& r, const std::vector<double>& setups, double latency_s,
             double throughput, double rss_mb, const std::vector<double>& rel_errs) {
  r.set_e2e("setup_s", median(setups), "s");
  r.set_e2e("latency_ms", latency_s * 1e3, "ms");
  r.set_e2e("throughput_per_s", throughput, "1/s");
  r.set_e2e("peak_rss_mb", rss_mb, "MB");
  r.set_e2e("rel_err", median(rel_errs), "1");
}

void check_rel_err(Result& r, double err, const std::string& what) {
  if (!(err <= kRelErrTol)) {
    r.fail(what + ": rel_err " + std::to_string(err) + " above tolerance " +
           std::to_string(kRelErrTol));
  }
}

double span_median_total(const std::map<std::string, SpanStats>& st, const std::string& name) {
  const auto it = st.find(name);
  return it == st.end() ? 0.0 : median(it->second.total_s);
}

void add_tree_metrics(const Tree& tree, double build_s, Result& r) {
  r.set_layer("tree.build_s", build_s, "s");
  r.set_layer("tree.nodes", static_cast<double>(tree.num_nodes()), "count");
  r.set_layer("tree.height", tree.height(), "count");
}

void add_core_metrics(const EvalStats& st, double eval_s, Result& r) {
  const auto terms = static_cast<double>(st.multipole_terms);
  const auto pairs = static_cast<double>(st.p2p_pairs);
  r.set_layer("core.eval_s", eval_s, "s");
  r.set_layer("core.terms", terms, "count");
  r.set_layer("core.p2p_pairs", pairs, "count");
  r.set_layer("core.m2p", static_cast<double>(st.m2p_count), "count");
  r.set_layer("core.max_degree", st.max_degree_used, "count");
  r.set_layer("core.ns_per_work", eval_s * 1e9 / (terms + pairs), "ns");
  r.work["core.terms"] = terms;
  r.work["core.p2p_pairs"] = pairs;
}

/// Fresh alpha-MAC traversal at `targets` (empty = self) on a tree.
double fresh_traversal(const Tree& tree, const EvalConfig& cfg,
                       std::span<const Vec3> targets, EvalStats& stats) {
  const Span s("core.evaluate");
  const Clock::time_point t0 = Clock::now();
  EvalResult res;
  if (targets.empty()) {
    res = evaluate_potentials(tree, cfg);
  } else {
    ThreadPool pool(cfg.threads);
    const BarnesHutEvaluator bh(tree, cfg, &pool);
    res = bh.evaluate_at(pool, targets);
  }
  const double secs = seconds_between(t0, Clock::now());
  stats = res.stats;
  return secs;
}

void add_parallel_metrics(double t1, double tn, bool replay, unsigned threads, Result& r) {
  const double speedup = t1 / tn;
  r.set_layer("parallel.replay_speedup", replay ? speedup : 0.0, "x");
  r.set_layer("parallel.oneshot_speedup", replay ? 0.0 : speedup, "x");
  r.set_layer("parallel.efficiency", speedup / threads, "ratio");
}

/// Forwards to a LinearOperator, wrapping every apply in a bem.matvec
/// span (inside the linalg.gmres span of the solve). With tracing off it
/// appends each apply's duration in seconds to `times`.
class TimedOperator final : public LinearOperator {
 public:
  TimedOperator(const LinearOperator& inner, std::vector<double>& times)
      : inner_(inner), times_(times) {}
  [[nodiscard]] std::size_t rows() const override { return inner_.rows(); }
  [[nodiscard]] std::size_t cols() const override { return inner_.cols(); }
  void apply(std::span<const double> x, std::span<double> y) const override {
    const Span s("bem.matvec");
    const Clock::time_point t0 = Clock::now();
    inner_.apply(x, y);
    if (!Tracer::get().enabled()) times_.push_back(seconds_between(t0, Clock::now()));
  }

 private:
  const LinearOperator& inner_;
  std::vector<double>& times_;
};

}  // namespace

// ---------------------------------------------------------------------------
// bem_gmres: Table-3 GMRES(10) solves through SingleLayerOperator.

void run_bem_gmres(const Args& a, Result& r) {
  Tracer::get().set_enabled(a.trace);
  const LatLonSize ls = latlon_for_triangles(6000);
  const TriangleMesh mesh = make_propeller(ls.n_lat, ls.n_lon);
  SingleLayerOperator::Options opt;
  opt.eval = paper_config(a.threads);
  opt.gauss_points = 6;

  std::unique_ptr<SingleLayerOperator> op;
  std::vector<double> setups;
  std::vector<double> operator_s;
  const std::vector<double> ones(mesh.num_vertices(), 1.0);
  std::vector<double> y(mesh.num_vertices());
  while (more_setups(setups)) {
    op.reset();
    const Clock::time_point t0 = Clock::now();
    {
      const Span s("bem.operator");
      op = std::make_unique<SingleLayerOperator>(mesh, opt);
    }
    const Clock::time_point t1 = Clock::now();
    {
      const Span s("bem.first_apply");
      op->apply(ones, y);  // compiles the vertex plan and warms the bases
    }
    setups.push_back(seconds_between(t0, Clock::now()));
    operator_s.push_back(seconds_between(t0, t1));
  }
  r.detail["mesh.elements"] = {static_cast<double>(mesh.num_triangles()), "count"};
  r.detail["mesh.vertices"] = {static_cast<double>(mesh.num_vertices()), "count"};
  r.detail["mesh.sources"] = {static_cast<double>(op->num_sources()), "count"};

  GmresOptions gopt;
  gopt.restart = 10;
  gopt.tolerance = 1e-6;
  gopt.max_iterations = 500;
  // rel_err is the median over solves 0..kMinSolves-1, so it does not
  // depend on how many solves a run reaches.
  constexpr int kMinSolves = 3;
  std::vector<double> rel_errs(kMinSolves);
  std::vector<double> iters;
  std::vector<double> matvec_s;  // untraced pass: every matvec of every solve
  auto solve = [&](int i) {
    // Four exterior unit point charges at radius 3 in seeded directions.
    std::mt19937_64 rng = stream(a.seed, kRhs, static_cast<std::uint64_t>(i));
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    std::vector<double> f(op->rows(), 0.0);
    for (int c = 0; c < kRhsCharges; ++c) {
      const double z = u(rng);
      const double phi = std::numbers::pi * u(rng);
      const double s = std::sqrt(1.0 - z * z);
      const std::vector<double> fc = op->point_charge_rhs(
          {3.0 * s * std::cos(phi), 3.0 * s * std::sin(phi), 3.0 * z}, 1.0);
      for (std::size_t k = 0; k < f.size(); ++k) f[k] += fc[k];
    }
    std::vector<double> x(op->cols(), 0.0);
    const TimedOperator timed(*op, matvec_s);
    GmresResult g;
    const Clock::time_point t0 = Clock::now();
    {
      const Span op_span("op.solve");
      const Span gs("linalg.gmres");
      g = gmres(timed, f, x, gopt);
    }
    const double secs = seconds_between(t0, Clock::now());
    ++r.attempted;
    iters.push_back(g.iterations);
    if (!g.converged) {
      r.fail("solve " + std::to_string(i) + ": GMRES did not converge (" +
             to_string(g.failure_reason) + ")");
    }
    std::vector<double> y_tree(op->rows());
    std::vector<double> y_direct(op->rows());
    op->apply(x, y_tree);
    op->apply_direct(x, y_direct);
    const double err = relative_error_2norm(y_direct, y_tree);
    if (i < kMinSolves) rel_errs[static_cast<std::size_t>(i)] = err;
    check_rel_err(r, err, "solve " + std::to_string(i));
    return secs;
  };
  const std::vector<double> lat = run_passes(a, kMinSolves, r, solve);
  // Throughput is matvecs per second, from the median of every matvec of
  // the untraced pass: it does not depend on how many iterations a
  // seed's right-hand sides take, and one slow solve does not move it.
  set_e2e(r, setups, median(lat), 1.0 / median(matvec_s), peak_rss_mb(), rel_errs);
  r.detail["solve_s"] = {median(lat), "s"};
  r.detail["solves_per_s"] = {static_cast<double>(lat.size()) / sum(lat), "1/s"};
  r.work["linalg.gmres_iters"] = iters.front();
  r.work["core.terms"] = static_cast<double>(op->last_stats().multipole_terms);
  r.work["core.p2p_pairs"] = static_cast<double>(op->last_stats().p2p_pairs);
  if (!a.trace) return;

  const std::vector<SpanRecord> spans = Tracer::get().snapshot();
  r.set_layer("bem.operator_s", median(operator_s), "s");
  const std::map<std::string, SpanStats> st = span_stats(spans);
  r.set_layer("bem.matvec_s", span_median_total(st, "bem.matvec"), "s");
  r.set_layer("bem.matvecs",
              static_cast<double>(st.at("bem.matvec").total_s.size()) /
                  static_cast<double>(st.at("op.solve").total_s.size()),
              "count");
  r.set_layer("linalg.gmres_iters", median(iters), "count");
  r.set_layer("linalg.other_s", median(st.at("linalg.gmres").self_s), "s");

  // Layer probes on the operator's own geometry, with the operator gone.
  const std::vector<MeshQuadPoint> quad = quadrature_points(mesh, triangle_rule(6));
  Tree tree = op->tree();
  EvalStats fresh;
  op.reset();
  const double fresh_s = fresh_traversal(tree, opt.eval, mesh.vertices(), fresh);
  add_core_metrics(fresh, fresh_s, r);
  {
    const Clock::time_point t0 = Clock::now();
    const Span s("tree.build");
    const Tree rebuilt(gauss_particles(quad), opt.tree);
    add_tree_metrics(rebuilt, seconds_between(t0, Clock::now()), r);
  }
  add_kernel_metrics(tree, r);
  const std::size_t n = tree.source_size();
  const ChargeMaker charges = [&](int i) {
    std::mt19937_64 rng = stream(a.seed, kCharges, static_cast<std::uint64_t>(i));
    return positive_charges(rng, n);
  };
  double tn = 0.0;
  {
    BuiltSession twin = build_session(tree, opt.eval, mesh.vertices());
    const EngineTimes t = time_engine(*twin.session, *twin.plan, charges, 5);
    add_engine_metrics(twin, t, r);
    tn = t.eval_s;
  }
  const double t1 = engine_op_seconds(tree, opt.eval, mesh.vertices(), charges, 1, 3);
  add_parallel_metrics(t1, tn, true, a.threads, r);
}

// ---------------------------------------------------------------------------
// shell_replay: warm self-plan replay on a 36,000-point spherical shell.

void run_shell_replay(const Args& a, Result& r) {
  Tracer::get().set_enabled(a.trace);
  constexpr std::size_t kPoints = 36'000;
  const ParticleSystem ps = dist::spherical_shell(kPoints, stream(a.seed, kShellGeometry)());
  const EvalConfig cfg = paper_config(a.threads);

  BuiltSession built;
  std::vector<double> setups;
  std::vector<double> tree_s;
  std::vector<double> session_s;
  std::vector<double> compile_s;
  std::vector<double> first_eval_s;
  while (more_setups(setups)) {
    built = {};
    const Clock::time_point t0 = Clock::now();
    std::optional<Tree> tree;
    {
      const Span s("tree.build");
      tree.emplace(ps, TreeConfig{});
    }
    tree_s.push_back(seconds_between(t0, Clock::now()));
    built = build_session(std::move(*tree), cfg, {});
    setups.push_back(seconds_between(t0, Clock::now()));
    session_s.push_back(built.session_s);
    compile_s.push_back(built.compile_s);
    first_eval_s.push_back(built.first_eval_s);
  }
  engine::EvalSession& session = *built.session;
  const engine::EvalPlan& plan = *built.plan;

  std::mt19937_64 sample_rng = stream(a.seed, kSample);
  const std::vector<std::size_t> sample = sample_indices(kPoints, 256, sample_rng);
  std::vector<double> rel_errs;  // op 0 against direct summation at every point
  const ChargeMaker charges = [&](int i) {
    std::mt19937_64 rng = stream(a.seed, kCharges, static_cast<std::uint64_t>(i));
    return positive_charges(rng, kPoints);
  };
  auto op = [&](int i) {
    const std::vector<double> q = charges(i);
    EvalResult res;
    const Clock::time_point t0 = Clock::now();
    {
      const Span op_span("op.eval");
      {
        const Span s("engine.update");
        session.try_update_charges(q).value_or_throw();
      }
      const Span s("engine.evaluate");
      res = session.try_evaluate(plan).value_or_throw();
    }
    const double secs = seconds_between(t0, Clock::now());
    ++r.attempted;
    const double err = sampled_rel_err(ps.positions(), q, ps.positions(), res.potential, sample,
                                       a.threads);
    check_rel_err(r, err, "eval " + std::to_string(i));
    if (i == 0 && rel_errs.empty()) {
      rel_errs.push_back(full_rel_err(ps.positions(), q, res.potential, a.threads));
      check_rel_err(r, rel_errs.back(), "eval 0 at every point");
    }
    return secs;
  };
  const std::vector<double> lat = run_passes(a, 5, r, op);
  set_e2e(r, setups, median(lat), static_cast<double>(lat.size()) / sum(lat), peak_rss_mb(),
          rel_errs);
  r.detail["eval_s"] = {median(lat), "s"};
  const PlanFacts facts = plan_facts(session, plan);
  r.work["engine.plan_entries"] = facts.entries;
  r.work["engine.refresh_terms"] = facts.refresh_terms;
  r.work["engine.replay_bytes"] = facts.replay_bytes;
  r.work["core.terms"] = facts.terms;
  if (!a.trace) return;

  const std::vector<SpanRecord> spans = Tracer::get().snapshot();
  built.session_s = median(session_s);
  built.compile_s = median(compile_s);
  built.first_eval_s = median(first_eval_s);
  const EngineTimes t = time_engine(session, plan, charges, 3);
  add_engine_metrics(built, t, r);
  const Tree tree = session.tree();
  built = {};
  add_tree_metrics(tree, median(tree_s), r);
  add_kernel_metrics(tree, r);
  EvalStats fresh;
  const double fresh_s = fresh_traversal(tree, cfg, {}, fresh);
  add_core_metrics(fresh, fresh_s, r);
  const double t1 = engine_op_seconds(tree, cfg, {}, charges, 1, 2);
  add_parallel_metrics(t1, t.eval_s + t.update_s, true, a.threads, r);
}

// ---------------------------------------------------------------------------
// cloud_oneshot: a new cloud, tree, and fresh Barnes-Hut evaluation per op.

void run_cloud_oneshot(const Args& a, Result& r) {
  Tracer::get().set_enabled(a.trace);
  constexpr std::size_t kPoints = 20'000;
  const EvalConfig cfg = paper_config(a.threads);
  std::mt19937_64 sample_rng = stream(a.seed, kSample);
  const std::vector<std::size_t> sample = sample_indices(kPoints, 2048, sample_rng);

  // rel_err is the median over clouds 0..kMinOps-1, so it does not depend
  // on how many ops a run reaches.
  constexpr int kMinOps = 10;
  std::vector<double> rel_errs(kMinOps);
  std::vector<double> ns_per_work;
  EvalStats first_stats;
  auto oneshot = [&](std::uint64_t cloud, bool check) {
    const Clock::time_point t0 = Clock::now();
    std::optional<ParticleSystem> ps;
    std::optional<Tree> tree;
    EvalResult res;
    {
      const Span op_span("op.oneshot");
      {
        const Span s("dist.generate");
        ps.emplace(dist::overlapped_gaussians(kPoints, 4, stream(a.seed, kCloud, cloud)()));
      }
      {
        const Span s("tree.build");
        tree.emplace(*ps, TreeConfig{});
      }
      const Clock::time_point te = Clock::now();
      const Span s("core.evaluate");
      res = evaluate_potentials(*tree, cfg);
      const double eval_s = seconds_between(te, Clock::now());
      ns_per_work.push_back(eval_s * 1e9 / static_cast<double>(res.stats.multipole_terms +
                                                               res.stats.p2p_pairs));
    }
    const double secs = seconds_between(t0, Clock::now());
    if (cloud == 0) first_stats = res.stats;
    if (check) {
      ++r.attempted;
      const double err = sampled_rel_err(ps->positions(), ps->charges(), ps->positions(),
                                         res.potential, sample, a.threads);
      if (cloud < static_cast<std::uint64_t>(kMinOps)) rel_errs[cloud] = err;
      check_rel_err(r, err, "cloud " + std::to_string(cloud));
    }
    return secs;
  };
  // Nothing outlives an op, so set-up is op 0 itself, repeated; only the
  // first repeat is cold (fresh heap and page faults), and it is reported
  // on its own as detail cold_op_s.
  std::vector<double> setups;
  while (more_setups(setups)) setups.push_back(oneshot(0, false));
  r.detail["cold_op_s"] = {setups.front(), "s"};
  const std::vector<double> lat = run_passes(a, kMinOps, r, [&](int i) {
    return oneshot(static_cast<std::uint64_t>(i), true);
  });
  set_e2e(r, setups, median(lat), static_cast<double>(lat.size()) / sum(lat), peak_rss_mb(),
          rel_errs);
  r.detail["oneshot_s"] = {median(lat), "s"};
  r.work["core.terms"] = static_cast<double>(first_stats.multipole_terms);
  r.work["core.p2p_pairs"] = static_cast<double>(first_stats.p2p_pairs);
  if (!a.trace) return;

  const std::vector<SpanRecord> spans = Tracer::get().snapshot();
  const std::map<std::string, SpanStats> st = span_stats(spans);
  const double eval_s = span_median_total(st, "core.evaluate");
  add_core_metrics(first_stats, eval_s, r);
  r.set_layer("core.ns_per_work", median(ns_per_work), "ns");
  const ParticleSystem ps0 = dist::overlapped_gaussians(kPoints, 4, stream(a.seed, kCloud, 0)());
  const Tree tree(ps0, TreeConfig{});
  add_tree_metrics(tree, span_median_total(st, "tree.build"), r);
  add_kernel_metrics(tree, r);
  EvalConfig serial = cfg;
  serial.threads = 1;
  EvalStats s1;
  EvalStats sn;
  const double t1 = fresh_traversal(tree, serial, {}, s1);
  std::vector<double> tn;
  for (int k = 0; k < 2; ++k) tn.push_back(fresh_traversal(tree, cfg, {}, sn));
  if (s1.multipole_terms != sn.multipole_terms || s1.p2p_pairs != sn.p2p_pairs) {
    r.fail("cloud work counts differ between 1 and " + std::to_string(a.threads) + " threads");
  }
  add_parallel_metrics(t1, median(tn), false, a.threads, r);
}

// ---------------------------------------------------------------------------
// service_mix: three tenants behind one EvalService; open-loop Poisson
// traffic at two fixed rates, then a closed-loop capacity phase.

namespace {

struct TenantSpec {
  const char* name;
  double share;  ///< share of open-loop arrivals
};
constexpr TenantSpec kTenants[] = {{"bem-a", 0.45}, {"bem-b", 0.45}, {"cloud", 0.10}};
/// Open-loop client threads per tenant. Each submits its requests and
/// waits for them itself, so no request waits on a hand-off between
/// benchmark threads.
constexpr std::size_t kClientsPerTenant = 16;
/// Requests each tenant keeps outstanding in the closed-loop phase.
constexpr std::size_t kOutstanding = 16;
constexpr std::size_t kPoolSize = 12;

/// One tenant's geometry, charge pool, and single-RHS reference answers.
struct TenantData {
  ParticleSystem particles;
  std::vector<Vec3> targets;  ///< empty = self plan
  std::vector<std::vector<double>> pool;
  std::vector<std::vector<double>> reference;
  std::vector<double> rel_err;
};

struct Req {
  int phase = 0;  ///< 0 low, 1 high, 2 capacity
  std::size_t tenant = 0;
  std::size_t pool = 0;
  std::int64_t due_ns = 0;
  std::int64_t submit_ns = 0;
  std::int64_t submitted_ns = 0;
  std::int64_t wait_ns = 0;
  std::int64_t done_ns = 0;
  bool ok = false;
};

}  // namespace

void run_service_mix(const Args& a, Result& r) {
  Tracer::get().set_enabled(a.trace);
  const EvalConfig cfg = paper_config(a.threads);
  const LatLonSize ls = latlon_for_triangles(1400);
  const TriangleMesh mesh = make_propeller(ls.n_lat, ls.n_lon);
  const std::vector<MeshQuadPoint> quad = quadrature_points(mesh, triangle_rule(6));
  std::vector<TenantData> data(3);
  data[0].particles = gauss_particles(quad);
  data[0].targets = mesh.vertices();
  data[1] = data[0];
  data[2].particles = dist::overlapped_gaussians(4000, 4, 7);  // fixed tenant geometry
  r.detail["mesh.elements"] = {static_cast<double>(mesh.num_triangles()), "count"};

  // Charge pools and single-RHS references from an independent session.
  for (std::size_t t = 0; t < 3; ++t) {
    TenantData& d = data[t];
    BuiltSession ref = build_session(Tree(d.particles, TreeConfig{}), cfg, d.targets);
    const std::vector<Vec3>& tgt = d.targets.empty() ? d.particles.positions() : d.targets;
    std::vector<std::size_t> every(tgt.size());
    for (std::size_t i = 0; i < every.size(); ++i) every[i] = i;
    const PlanFacts f = plan_facts(*ref.session, *ref.plan);
    r.work["engine.plan_entries"] += f.entries;
    r.work["engine.refresh_terms"] += f.refresh_terms;
    r.work["engine.replay_bytes"] += f.replay_bytes;
    r.work["core.terms"] += f.terms;
    for (std::size_t k = 0; k < kPoolSize; ++k) {
      std::mt19937_64 rng = stream(a.seed, kPool, t * kPoolSize + k);
      d.pool.push_back(positive_charges(rng, d.particles.size()));
      ref.session->try_update_charges(d.pool.back()).value_or_throw();
      d.reference.push_back(ref.session->try_evaluate(*ref.plan).value_or_throw().potential);
      d.rel_err.push_back(sampled_rel_err(d.particles.positions(), d.pool.back(), tgt,
                                          d.reference.back(), every, a.threads));
    }
  }

  service::EvalService::TenantOptions topt;
  topt.eval = cfg;
  std::unique_ptr<service::EvalService> svc;
  std::vector<double> setups;
  std::map<std::string, std::vector<double>> register_s;
  while (more_setups(setups)) {
    svc.reset();
    const Clock::time_point t0 = Clock::now();
    svc = std::make_unique<service::EvalService>();
    for (std::size_t t = 0; t < 3; ++t) {
      const Clock::time_point tr = Clock::now();
      const Span s("service.register");
      svc->try_register_tenant(kTenants[t].name, data[t].particles, data[t].targets, topt)
          .value_or_throw();
      register_s[kTenants[t].name].push_back(seconds_between(tr, Clock::now()));
    }
    for (std::size_t t = 0; t < 3; ++t) {
      const Span s("service.first_request");
      (void)svc->try_submit(kTenants[t].name, data[t].pool[0]).value_or_throw().wait()
          .value_or_throw();
    }
    setups.push_back(seconds_between(t0, Clock::now()));
  }

  // Open-loop schedule: Poisson arrivals at a fixed rate per phase.
  // 120 req/s is above serialized capacity (about 110 req/s from the k=1
  // per-RHS times) and well below coalesced capacity (about 200 req/s), so
  // a slow spell of the host does not tip it into an unbounded backlog.
  const double rates[2] = {60.0, 120.0};
  const double phase_s[3] = {0.2 * a.seconds, 0.3 * a.seconds, 0.5 * a.seconds};
  std::vector<Req> schedule;
  {
    // The same schedule for every run seed (the seed draws the charge
    // pools), so runs on different seeds differ in charges only, not in
    // their bursts of arrivals.
    constexpr std::uint64_t kScheduleSeed = 1;
    std::mt19937_64 rng = stream(kScheduleSeed, kArrivals);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::uniform_int_distribution<std::size_t> pick(0, kPoolSize - 1);
    double t = 0.0;
    for (int ph = 0; ph < 2; ++ph) {
      const double end = t + phase_s[ph];
      std::exponential_distribution<double> gap(rates[ph]);
      for (t += gap(rng); t < end; t += gap(rng)) {
        Req q;
        q.phase = ph;
        const double x = u(rng);
        q.tenant = x < kTenants[0].share ? 0 : x < kTenants[0].share + kTenants[1].share ? 1 : 2;
        q.pool = pick(rng);
        q.due_ns = static_cast<std::int64_t>(t * 1e9);
        schedule.push_back(q);
      }
      t = end;
    }
  }

  struct PassOut {
    std::vector<Req> reqs;
    double capacity_rps = 0.0;
    std::map<std::string, double> batches[2];
    std::map<std::string, double> columns[2];
  };
  auto batch_counts = [&](std::map<std::string, double>& batches,
                          std::map<std::string, double>& columns) {
    const obs::Json doc = svc->state_json();
    const obs::Json& ts = doc.at("tenants");
    for (std::size_t i = 0; i < ts.size(); ++i) {
      const std::string name = ts.at(i).at("name").as_string();
      batches[name] = ts.at(i).at("batches").as_double();
      columns[name] = ts.at(i).at("batch_columns").as_double();
    }
  };
  // A request's two service calls, on the calling client thread: submit
  // returns false if the service refused it (q.ok stays false); finish
  // waits, checks the answer bitwise against the single-RHS reference, and
  // in a traced run records the op with both calls.
  using Ticket = service::EvalService::Ticket;
  auto submit = [&](Req& q, Ticket& ticket) {
    q.submit_ns = Tracer::now_ns();
    Expected<Ticket> admitted =
        svc->try_submit(kTenants[q.tenant].name, data[q.tenant].pool[q.pool]);
    q.submitted_ns = Tracer::now_ns();
    q.done_ns = q.submitted_ns;
    if (!admitted.ok()) return false;
    ticket = std::move(admitted).value();
    return true;
  };
  auto finish = [&](Req& q, Ticket& ticket) {
    q.wait_ns = Tracer::now_ns();
    Expected<EvalResult> res = ticket.wait();
    q.done_ns = Tracer::now_ns();
    const std::vector<double>& ref = data[q.tenant].reference[q.pool];
    q.ok = res.ok() && res.value().potential.size() == ref.size() &&
           std::memcmp(res.value().potential.data(), ref.data(), ref.size() * sizeof(double)) == 0;
    Tracer& tr = Tracer::get();
    if (tr.enabled()) {
      const std::int64_t op = tr.record("op.request", q.submit_ns, q.done_ns, -1);
      tr.record("service.submit", q.submit_ns, q.submitted_ns, op);
      tr.record("service.wait", q.wait_ns, q.done_ns, op);
    }
  };

  auto run_traffic = [&]() {
    PassOut out;
    out.reqs = schedule;
    std::vector<Req>& reqs = out.reqs;
    std::map<std::string, double> b0;
    std::map<std::string, double> c0;
    batch_counts(b0, c0);
    const std::int64_t origin = Tracer::now_ns();
    for (Req& q : reqs) q.due_ns += origin;
    auto at = [](std::int64_t ns) { return Clock::time_point(std::chrono::nanoseconds(ns)); };

    // Open loop: client c of tenant t sends the tenant's scheduled requests
    // c, c + kClientsPerTenant, ..., each at its due time.
    std::vector<std::vector<std::size_t>> mine(3 * kClientsPerTenant);
    std::size_t seen[3] = {0, 0, 0};
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const std::size_t t = reqs[i].tenant;
      mine[t * kClientsPerTenant + seen[t]++ % kClientsPerTenant].push_back(i);
    }
    std::vector<std::thread> clients;
    for (const std::vector<std::size_t>& list : mine) {
      clients.emplace_back([&, list] {
        for (const std::size_t i : list) {
          std::this_thread::sleep_until(at(reqs[i].due_ns));
          Ticket ticket;
          if (submit(reqs[i], ticket)) finish(reqs[i], ticket);
        }
      });
    }
    std::this_thread::sleep_until(at(origin + static_cast<std::int64_t>(phase_s[0] * 1e9)));
    batch_counts(out.batches[0], out.columns[0]);
    for (std::thread& c : clients) c.join();
    clients.clear();
    batch_counts(out.batches[1], out.columns[1]);
    for (const auto& [name, v] : out.batches[1]) {
      out.batches[1][name] = v - out.batches[0][name];
      out.columns[1][name] -= out.columns[0][name];
      out.batches[0][name] -= b0[name];
      out.columns[0][name] -= c0[name];
    }

    // Closed loop: one client per tenant keeps kOutstanding requests in
    // flight and waits for them in submission order, the order in which
    // the service completes a tenant's requests.
    const std::int64_t cap_start = Tracer::now_ns();
    const auto cap_end = cap_start + static_cast<std::int64_t>(phase_s[2] * 1e9);
    std::vector<std::vector<Req>> cap(3);
    for (std::size_t t = 0; t < 3; ++t) {
      clients.emplace_back([&, t] {
        std::deque<std::pair<Req, Ticket>> inflight;
        std::size_t k = 0;
        auto next = [&] {
          Req q;
          q.phase = 2;
          q.tenant = t;
          q.pool = k++ % kPoolSize;
          q.due_ns = Tracer::now_ns();
          Ticket ticket;
          if (submit(q, ticket)) {
            inflight.emplace_back(q, std::move(ticket));
          } else {
            cap[t].push_back(q);
          }
        };
        for (std::size_t w = 0; w < kOutstanding; ++w) next();
        while (!inflight.empty()) {
          auto [q, ticket] = std::move(inflight.front());
          inflight.pop_front();
          finish(q, ticket);
          cap[t].push_back(q);
          if (q.done_ns < cap_end) next();
        }
      });
    }
    for (std::thread& c : clients) c.join();
    // Completions per second: the completions in the phase, in order, are
    // cut into chunks of equal count, one per second of the phase, and each
    // chunk's rate is its count over the time it spans. The median chunk
    // rate is the figure, so a short stall of the host moves one chunk only.
    std::vector<std::int64_t> done;
    for (const auto& v : cap) {
      for (const Req& q : v) {
        reqs.push_back(q);
        if (q.ok && q.done_ns < cap_end) done.push_back(q.done_ns);
      }
    }
    std::sort(done.begin(), done.end());
    const auto chunks = static_cast<std::size_t>(std::max(1.0, std::round(phase_s[2])));
    std::vector<double> chunk_rps;
    for (std::size_t k = 0; k < chunks && done.size() > chunks; ++k) {
      const std::size_t lo = k * (done.size() - 1) / chunks;
      const std::size_t hi = (k + 1) * (done.size() - 1) / chunks;
      if (done[hi] > done[lo]) {
        chunk_rps.push_back(static_cast<double>(hi - lo) / (static_cast<double>(done[hi] - done[lo]) * 1e-9));
      }
    }
    out.capacity_rps = median(chunk_rps);
    return out;
  };

  Tracer::get().set_enabled(false);
  const PassOut pass = run_traffic();
  const double rss = peak_rss_mb();
  auto latencies = [&](const PassOut& p, int phase, int tenant) {
    std::vector<double> ms;
    for (const Req& q : p.reqs) {
      if (q.phase != phase || (tenant >= 0 && q.tenant != static_cast<std::size_t>(tenant))) {
        continue;
      }
      // A failed or refused request counts as infinitely late.
      ms.push_back(q.ok ? static_cast<double>(q.done_ns - q.due_ns) * 1e-6 : 1e300);
    }
    return ms;
  };
  auto account = [&](const PassOut& p) {
    for (const Req& q : p.reqs) {
      ++r.attempted;
      if (!q.ok) {
        r.fail(std::string("request to ") + kTenants[q.tenant].name +
               " failed, was refused, or differs from its single-RHS reference");
      }
    }
  };
  account(pass);
  std::vector<double> rel_errs;
  for (const TenantData& d : data) rel_errs.insert(rel_errs.end(), d.rel_err.begin(), d.rel_err.end());
  for (const double e : rel_errs) check_rel_err(r, e, "tenant reference");
  const std::vector<double> high = latencies(pass, 1, -1);
  const std::vector<double> low = latencies(pass, 0, -1);
  // latency_ms comes from the closed-loop phase: on a shared 4-core host
  // the open-loop medians spread 0.18-0.38 between seeds (arrival bursts,
  // thread wake-ups), beyond any bound BENCHMARK.json allows. They stay
  // in `detail` and as per-layer metrics.
  const std::vector<double> saturated = latencies(pass, 2, -1);
  set_e2e(r, setups, median(saturated) * 1e-3, pass.capacity_rps, rss, rel_errs);
  r.detail["low.p50_ms"] = {median(low), "ms"};
  r.detail["low.p95_ms"] = {quantile(low, 0.95), "ms"};
  r.detail["low.samples"] = {static_cast<double>(low.size()), "count"};
  r.detail["high.p50_ms"] = {median(high), "ms"};
  r.detail["high.p95_ms"] = {quantile(high, 0.95), "ms"};
  r.detail["high.samples"] = {static_cast<double>(high.size()), "count"};
  r.detail["capacity_rps"] = {pass.capacity_rps, "1/s"};
  r.detail["capacity.p50_ms"] = {median(saturated), "ms"};
  r.detail["capacity.samples"] = {static_cast<double>(saturated.size()), "count"};
  if (!a.trace) return;

  Tracer::get().set_enabled(true);
  const PassOut traced = run_traffic();
  account(traced);
  r.set_layer("obs.trace_overhead_frac",
              median(latencies(traced, 2, -1)) / median(saturated) - 1.0, "ratio");
  const std::vector<SpanRecord> spans = Tracer::get().snapshot();
  const std::map<std::string, SpanStats> st = span_stats(spans);
  for (const auto& [name, v] : register_s) r.set_layer("service.register_s." + name, median(v), "s");
  {
    const auto it = st.find("service.submit");
    std::vector<double> us;
    if (it != st.end()) {
      for (const double s : it->second.total_s) us.push_back(s * 1e6);
    }
    r.set_layer("service.submit_us.p50", median(us), "us");
    r.set_layer("service.submit_us.p95", quantile(us, 0.95), "us");
  }
  const char* phase_names[2] = {"low", "high"};
  double late_ms = 0.0;
  for (const Req& q : traced.reqs) {
    if (q.phase < 2) late_ms = std::max(late_ms, static_cast<double>(q.submit_ns - q.due_ns) * 1e-6);
  }
  r.set_layer("service.generator_late_ms", late_ms, "ms");
  for (int ph = 0; ph < 2; ++ph) {
    double b = 0;
    double c = 0;
    for (const auto& [name, v] : traced.batches[ph]) {
      b += v;
      c += traced.columns[ph].at(name);
    }
    const std::string p = phase_names[ph];
    r.set_layer("service.batches." + p, b, "count");
    r.set_layer("service.batch_width_mean." + p, b > 0 ? c / b : 0.0, "columns");
    r.set_layer("service." + p + ".p50_ms", median(latencies(traced, ph, -1)), "ms");
    r.set_layer("service." + p + ".p95_ms", quantile(latencies(traced, ph, -1), 0.95), "ms");
    for (std::size_t t = 0; t < 3; ++t) {
      r.set_layer(std::string("service.p50_ms.") + kTenants[t].name + "." + p,
                  median(latencies(traced, ph, static_cast<int>(t))), "ms");
    }
  }
  svc.reset();

  // Engine probes on twin sessions of the tenant plans.
  const std::size_t nb = data[0].particles.size();
  const ChargeMaker charges = [&](int i) {
    std::mt19937_64 rng = stream(a.seed, kCharges, static_cast<std::uint64_t>(i));
    return positive_charges(rng, nb);
  };
  const Tree bem_tree(data[0].particles, TreeConfig{});
  {
    const Clock::time_point t0 = Clock::now();
    const Span s("tree.build");
    const Tree rebuilt(data[0].particles, TreeConfig{});
    add_tree_metrics(rebuilt, seconds_between(t0, Clock::now()), r);
  }
  add_kernel_metrics(bem_tree, r);
  EvalStats fresh;
  const double fresh_s = fresh_traversal(bem_tree, cfg, data[0].targets, fresh);
  add_core_metrics(fresh, fresh_s, r);
  double tn = 0.0;
  for (std::size_t t : {std::size_t{0}, std::size_t{2}}) {
    BuiltSession twin = build_session(Tree(data[t].particles, TreeConfig{}), cfg, data[t].targets);
    if (t == 0) {
      const EngineTimes et = time_engine(*twin.session, *twin.plan, charges, 5);
      add_engine_metrics(twin, et, r);
      tn = et.eval_s + et.update_s;
    }
    for (const std::size_t k : {1, 2, 4, 8}) {
      std::vector<std::span<const double>> cols;
      for (std::size_t c = 0; c < k; ++c) cols.emplace_back(data[t].pool[c]);
      std::vector<double> secs;
      for (int rep = 0; rep < 5; ++rep) {
        const Span s("engine.evaluate_batch");
        const Clock::time_point t0 = Clock::now();
        const std::vector<EvalResult> res =
            twin.session->try_evaluate_batch(*twin.plan, cols).value_or_throw();
        secs.push_back(seconds_between(t0, Clock::now()));
        for (std::size_t c = 0; c < k; ++c) {
          if (std::memcmp(res[c].potential.data(), data[t].reference[c].data(),
                          res[c].potential.size() * sizeof(double)) != 0) {
            r.fail("batch column differs from its single-RHS reference");
          }
        }
      }
      r.set_layer(std::string("engine.batch_per_rhs_ms.") + (t == 0 ? "bem" : "cloud") + ".k" +
                      std::to_string(k),
                  median(secs) * 1e3 / static_cast<double>(k), "ms");
    }
  }
  const double t1 = engine_op_seconds(bem_tree, cfg, data[0].targets, charges, 1, 5);
  add_parallel_metrics(t1, tn, true, a.threads, r);
}

}  // namespace perfbench
