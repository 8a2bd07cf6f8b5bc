#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/direct.hpp"
#include "multipole/expansion.hpp"
#include "multipole/operators.hpp"
#include "util/stats.hpp"

namespace perfbench {

using namespace treecode;
using engine::EvalPlan;
using engine::EvalSession;

namespace {

/// Keeps kernel results observable so the timed loops are not elided.
volatile double g_sink = 0.0;

}  // namespace

PlanFacts plan_facts(const EvalSession& session, const EvalPlan& plan) {
  PlanFacts f;
  const Tree& tree = session.tree();
  const std::vector<int>& degree = session.degrees().degree;
  f.entries = static_cast<double>(plan.num_entries());
  const bool has_basis = !plan.basis_offset.empty();
  for (std::size_t e = 0; e < plan.entries.size(); ++e) {
    if (EvalPlan::is_p2p(plan.entries[e])) continue;
    f.m2p_entries += 1;
    if (has_basis && plan.basis_offset[e] != EvalPlan::kNoBasis) f.covered_entries += 1;
  }
  f.terms = static_cast<double>(plan.stats.multipole_terms);
  f.pairs = static_cast<double>(plan.stats.p2p_pairs);
  f.work = static_cast<double>(
      std::accumulate(plan.target_cost.begin(), plan.target_cost.end(), std::uint64_t{0}));
  for (const std::int32_t node : plan.m2p_nodes) {
    const auto n = static_cast<std::size_t>(node);
    const double p1 = degree[n] + 1.0;
    f.refresh_terms += static_cast<double>(tree.node(n).count()) * p1 * p1;
  }
  const double basis_bytes =
      static_cast<double>(plan.basis.size() * sizeof(double) +
                          plan.basis_offset.size() * sizeof(std::uint64_t));
  const auto plan_bytes = static_cast<double>(plan.memory_bytes());
  f.basis_bytes = basis_bytes;
  f.schedule_bytes = plan_bytes - basis_bytes;
  f.other_bytes = std::max(0.0, static_cast<double>(session.governor().used()) - plan_bytes);
  // One replay streams the entry stream, its partition, the basis offsets
  // and basis, reads every target once and writes one double per target.
  f.replay_bytes = static_cast<double>(
      plan.entries.size() * sizeof(std::int32_t) + plan.offsets.size() * sizeof(std::uint64_t) +
      plan.basis_offset.size() * sizeof(std::uint64_t) + plan.basis.size() * sizeof(double) +
      plan.num_targets() * (sizeof(Vec3) + sizeof(double)));
  return f;
}

EngineTimes time_engine(EvalSession& session, const EvalPlan& plan, const ChargeMaker& charges,
                        int reps) {
  std::vector<double> upd;
  std::vector<double> eval;
  std::vector<double> replay;
  for (int i = 0; i < reps; ++i) {
    const std::vector<double> q = charges(i);
    Clock::time_point t0 = Clock::now();
    {
      const Span s("engine.update");
      session.try_update_charges(q).value_or_throw();
    }
    Clock::time_point t1 = Clock::now();
    {
      const Span s("engine.evaluate");
      (void)session.try_evaluate(plan).value_or_throw();
    }
    Clock::time_point t2 = Clock::now();
    {
      const Span s("engine.replay");
      (void)session.try_evaluate(plan).value_or_throw();
    }
    Clock::time_point t3 = Clock::now();
    upd.push_back(seconds_between(t0, t1));
    eval.push_back(seconds_between(t1, t2));
    replay.push_back(seconds_between(t2, t3));
  }
  return {median(upd), median(eval), median(replay)};
}

BuiltSession build_session(Tree tree, const EvalConfig& cfg, std::span<const Vec3> targets) {
  BuiltSession b;
  Clock::time_point t0 = Clock::now();
  {
    const Span s("engine.session");
    b.session = std::make_unique<EvalSession>(std::move(tree), cfg, EvalSession::Options{});
  }
  Clock::time_point t1 = Clock::now();
  {
    const Span s("engine.compile");
    b.plan = targets.empty() ? b.session->try_compile_self().value_or_throw()
                             : b.session->try_compile(targets).value_or_throw();
  }
  Clock::time_point t2 = Clock::now();
  {
    const Span s("engine.first_eval");
    (void)b.session->try_evaluate(*b.plan).value_or_throw();
  }
  Clock::time_point t3 = Clock::now();
  b.session_s = seconds_between(t0, t1);
  b.compile_s = seconds_between(t1, t2);
  b.first_eval_s = seconds_between(t2, t3);
  return b;
}

void add_engine_metrics(const BuiltSession& built, const EngineTimes& t, Result& r) {
  const PlanFacts f = plan_facts(*built.session, *built.plan);
  const double refresh_s = std::max(0.0, t.eval_s - t.replay_s);
  r.set_layer("engine.session_s", built.session_s, "s");
  r.set_layer("engine.compile_s", built.compile_s, "s");
  r.set_layer("engine.compile_ns_per_entry", built.compile_s * 1e9 / f.entries, "ns");
  r.set_layer("engine.first_eval_s", built.first_eval_s, "s");
  r.set_layer("engine.plan_entries", f.entries, "count");
  r.set_layer("engine.m2p_entries", f.m2p_entries, "count");
  r.set_layer("engine.basis_coverage", f.m2p_entries > 0 ? f.covered_entries / f.m2p_entries : 0,
              "ratio");
  r.set_layer("engine.schedule_mb", f.schedule_bytes / 1e6, "MB");
  r.set_layer("engine.basis_mb", f.basis_bytes / 1e6, "MB");
  r.set_layer("engine.other_mb", f.other_bytes / 1e6, "MB");
  r.set_layer("engine.update_s", t.update_s, "s");
  r.set_layer("engine.replay_s", t.replay_s, "s");
  r.set_layer("engine.refresh_s", refresh_s, "s");
  r.set_layer("engine.replay_ns_per_entry", t.replay_s * 1e9 / f.entries, "ns");
  r.set_layer("engine.replay_ns_per_work", t.replay_s * 1e9 / f.work, "ns");
  r.set_layer("engine.refresh_terms", f.refresh_terms, "count");
  r.set_layer("engine.refresh_ns_per_term",
              f.refresh_terms > 0 ? refresh_s * 1e9 / f.refresh_terms : 0, "ns");
  r.set_layer("engine.replay_bytes", f.replay_bytes, "bytes");
  r.set_layer("engine.replay_gbps", f.replay_bytes / t.replay_s / 1e9, "GB/s");
  r.work["engine.plan_entries"] = f.entries;
  r.work["engine.refresh_terms"] = f.refresh_terms;
  r.work["engine.replay_bytes"] = f.replay_bytes;
  r.work["engine.plan_terms"] = f.terms;
  r.work["engine.plan_pairs"] = f.pairs;
}

void add_kernel_metrics(const Tree& tree, Result& r) {
  const Span span("multipole.kernels");
  // Up to 48 internal or leaf clusters of at least 16 particles, spread
  // over the tree, each seen from 32 directions at distance 2.5 a.
  std::vector<std::size_t> nodes;
  for (std::size_t i = 1; i < tree.num_nodes(); ++i) {
    if (tree.node(i).count() >= 16 && tree.node(i).radius > 0) nodes.push_back(i);
  }
  if (nodes.size() > 48) {
    std::vector<std::size_t> picked;
    for (std::size_t k = 0; k < 48; ++k) picked.push_back(nodes[k * nodes.size() / 48]);
    nodes.swap(picked);
  }
  std::vector<Vec3> dirs;
  for (int k = 0; k < 32; ++k) {
    const double z = -1.0 + (2.0 * k + 1.0) / 32.0;
    const double phi = 2.399963229728653 * k;  // golden angle
    const double s = std::sqrt(1.0 - z * z);
    dirs.push_back({s * std::cos(phi), s * std::sin(phi), z});
  }
  auto span_of = [&](std::size_t n) {
    const TreeNode& nd = tree.node(n);
    return std::pair{std::span<const Vec3>(tree.positions()).subspan(nd.begin, nd.count()),
                     std::span<const double>(tree.charges()).subspan(nd.begin, nd.count())};
  };
  auto target = [&](std::size_t n, std::size_t d) {
    const TreeNode& nd = tree.node(n);
    return nd.center + dirs[d] * (2.5 * nd.radius);
  };
  const double min_s = 0.02;  // time each kernel for at least this long
  for (const int p : {4, 8}) {
    std::vector<MultipoleExpansion> ms;
    for (const std::size_t n : nodes) {
      ms.emplace_back(p);
      const auto [pos, q] = span_of(n);
      p2m(tree.node(n).center, pos, q, ms.back());
    }
    const std::size_t bsize = m2p_basis_size(p);
    std::vector<double> basis(nodes.size() * dirs.size() * bsize);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      for (std::size_t d = 0; d < dirs.size(); ++d) {
        m2p_basis(p, tree.node(nodes[i]).center, target(nodes[i], d),
                  std::span<double>(basis).subspan((i * dirs.size() + d) * bsize, bsize));
      }
    }
    double calls = 0;
    double acc = 0;
    const Clock::time_point t0 = Clock::now();
    do {
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        for (std::size_t d = 0; d < dirs.size(); ++d) {
          acc += m2p(ms[i], tree.node(nodes[i]).center, target(nodes[i], d));
        }
      }
      calls += static_cast<double>(nodes.size() * dirs.size());
    } while (seconds_between(t0, Clock::now()) < min_s);
    const double m2p_ns = seconds_between(t0, Clock::now()) * 1e9 / calls;
    calls = 0;
    const Clock::time_point t1 = Clock::now();
    do {
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        for (std::size_t d = 0; d < dirs.size(); ++d) {
          acc += m2p_apply_basis(ms[i], basis.data() + (i * dirs.size() + d) * bsize);
        }
      }
      calls += static_cast<double>(nodes.size() * dirs.size());
    } while (seconds_between(t1, Clock::now()) < min_s);
    const double basis_ns = seconds_between(t1, Clock::now()) * 1e9 / calls;
    g_sink = g_sink + acc;
    const std::string suffix = ".p" + std::to_string(p);
    r.set_layer("multipole.m2p_ns" + suffix, m2p_ns, "ns");
    r.set_layer("multipole.m2p_basis_ns" + suffix, basis_ns, "ns");
  }
  {
    // P2M at degree 4 over the same clusters: ns per particle-term.
    double terms = 0;
    const Clock::time_point t0 = Clock::now();
    do {
      for (const std::size_t n : nodes) {
        MultipoleExpansion m(4);
        const auto [pos, q] = span_of(n);
        p2m(tree.node(n).center, pos, q, m);
        g_sink = g_sink + m.coeff(0, 0).real();
        terms += static_cast<double>(pos.size()) * 25.0;
      }
    } while (seconds_between(t0, Clock::now()) < min_s);
    r.set_layer("multipole.p2m_ns_per_term", seconds_between(t0, Clock::now()) * 1e9 / terms,
                "ns");
  }
  {
    // P2P: every particle of a leaf against the particles of the next leaf.
    std::vector<std::size_t> leaves;
    for (std::size_t i = 0; i < tree.num_nodes(); ++i) {
      if (tree.node(i).is_leaf() && tree.node(i).count() > 0) leaves.push_back(i);
    }
    const std::size_t stride = std::max<std::size_t>(1, leaves.size() / 256);
    double pairs = 0;
    double acc = 0;
    const Clock::time_point t0 = Clock::now();
    do {
      for (std::size_t k = 0; k + stride < leaves.size(); k += stride) {
        const auto [pos, q] = span_of(leaves[k + stride]);
        for (const Vec3& x : span_of(leaves[k]).first) {
          acc += p2p(x, pos, q);
          pairs += static_cast<double>(pos.size());
        }
      }
    } while (seconds_between(t0, Clock::now()) < min_s);
    g_sink = g_sink + acc;
    r.set_layer("multipole.p2p_ns_per_pair", seconds_between(t0, Clock::now()) * 1e9 / pairs,
                "ns");
  }
}

double engine_op_seconds(const Tree& tree, EvalConfig cfg, std::span<const Vec3> targets,
                         const ChargeMaker& charges, unsigned threads, int reps) {
  cfg.threads = threads;
  const Span span("parallel.scaling");
  BuiltSession b = build_session(tree, cfg, targets);
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const std::vector<double> q = charges(i);
    const Clock::time_point t0 = Clock::now();
    b.session->try_update_charges(q).value_or_throw();
    (void)b.session->try_evaluate(*b.plan).value_or_throw();
    times.push_back(seconds_between(t0, Clock::now()));
  }
  return median(times);
}

double sampled_rel_err(const std::vector<Vec3>& src_pos, const std::vector<double>& src_q,
                       const std::vector<Vec3>& targets, const std::vector<double>& approx,
                       const std::vector<std::size_t>& sample, unsigned threads) {
  const ParticleSystem ps(src_pos, src_q);
  std::vector<Vec3> pts;
  std::vector<double> got;
  for (const std::size_t i : sample) {
    pts.push_back(targets[i]);
    got.push_back(approx[i]);
  }
  const EvalResult exact = evaluate_direct_at(ps, pts, threads);
  return relative_error_2norm(exact.potential, got);
}

std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k, std::mt19937_64& rng) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  k = std::min(k, n);
  for (std::size_t i = 0; i < k; ++i) {
    std::uniform_int_distribution<std::size_t> pick(i, n - 1);
    std::swap(idx[i], idx[pick(rng)]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace perfbench
