#!/usr/bin/env python3
"""Per-rule self-tests for treecode-analyze.

Every rule is exercised with a synthetic translation unit in three
states — violating (the rule fires), clean (the idiomatic fix, no
finding), suppressed (the violation plus an ``// analyze-allow`` comment,
finding present but suppressed) — through the token frontend. The
lock-order-cycle case is genuinely cross-TU: the A-before-B edge lives in
one file, the B-before-A edge in another, and the cycle only exists in
the merged acquisition graph.

When the libclang frontend is importable the violating TUs are re-run
through it as well, asserting the same rule fires: the two frontends must
stay interchangeable (same fact model, same rule outcomes).

Run directly or via ctest (analyze_rule_matrix).
"""

from __future__ import annotations

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import frontend_tokens  # noqa: E402
import rules as rules_mod  # noqa: E402
from model import Finding  # noqa: E402


def _token_findings(sources: dict[str, str], rule: str) -> list[Finding]:
    facts = [frontend_tokens.extract(rel, text, rel)
             for rel, text in sorted(sources.items())]
    return rules_mod.run_rules(facts, {rule})


# --- the per-rule TU matrix -----------------------------------------------
# rule -> {"bad": {rel: text}, "clean": {rel: text}, "suppressed": {rel: text}}

FP_UNORDERED_BAD = """
#include <unordered_map>
class Accumulator {
 public:
  double total() const;
 private:
  std::unordered_map<int, double> weights_;
};
double Accumulator::total() const {
  double sum = 0.0;
  for (const auto& kv : weights_) {
    sum += kv.second;
  }
  return sum;
}
"""

FP_UNORDERED_CLEAN = FP_UNORDERED_BAD.replace(
    "#include <unordered_map>", "#include <map>").replace(
    "std::unordered_map", "std::map")

FP_UNORDERED_SUPPRESSED = FP_UNORDERED_BAD.replace(
    "    sum += kv.second;",
    "    // analyze-allow(fp-unordered-accumulation)\n"
    "    sum += kv.second;")

FP_ATOMIC_BAD = """
#include <atomic>
class Tally {
 public:
  void add(double w);
 private:
  std::atomic<double> total_;
};
void Tally::add(double w) {
  total_ += w;
}
"""

FP_ATOMIC_CLEAN = FP_ATOMIC_BAD.replace(
    "std::atomic<double> total_;", "std::atomic<long> total_;").replace(
    "void add(double w);", "void add(long w);").replace(
    "void Tally::add(double w)", "void Tally::add(long w)")

FP_ATOMIC_SUPPRESSED = FP_ATOMIC_BAD.replace(
    "  total_ += w;",
    "  // analyze-allow(fp-atomic-accumulation)\n  total_ += w;")

FP_POLICY_BAD = """
#include <execution>
#include <numeric>
#include <vector>
void reduce_all(const std::vector<double>& v, double* out) {
  *out = std::reduce(std::execution::par, v.begin(), v.end(), 0.0);
}
"""

FP_POLICY_CLEAN = FP_POLICY_BAD.replace("std::execution::par, ", "")

FP_POLICY_SUPPRESSED = FP_POLICY_BAD.replace(
    "  *out = std::reduce",
    "  // analyze-allow(fp-parallel-reduction)\n  *out = std::reduce")

FP_PARFOR_BAD = """
void sweep(int n) {
  double total = 0.0;
  parallel_for(0, n, [&](int i) {
    total += 1.0;
  });
  (void)total;
}
"""

FP_PARFOR_CLEAN = """
void sweep(int n, double* out) {
  parallel_for(0, n, [&](int i) {
    double local = 0.0;
    local += 1.0;
    out[i] = local;
  });
}
"""

FP_PARFOR_SUPPRESSED = FP_PARFOR_BAD.replace(
    "    total += 1.0;",
    "    // analyze-allow(fp-parallel-for-accumulation)\n    total += 1.0;")

GOVERNOR_BAD = """
class Cache {
 public:
  bool grow(unsigned long bytes);
 private:
  ResourceGovernor governor_;
};
bool Cache::grow(unsigned long bytes) {
  if (!governor_.try_reserve(bytes, "cache")) {
    return false;
  }
  governor_.release(bytes);
  return true;
}
"""

GOVERNOR_CLEAN = """
class Cache {
 public:
  bool grow(unsigned long bytes);
 private:
  ResourceGovernor governor_;
};
bool Cache::grow(unsigned long bytes) {
  ResourceGovernor::Reservation held = governor_.reserve(bytes, "cache");
  return static_cast<bool>(held);
}
"""

GOVERNOR_SUPPRESSED = GOVERNOR_BAD.replace(
    "  if (!governor_.try_reserve",
    "  // analyze-allow(governor-raii)\n  if (!governor_.try_reserve").replace(
    "  governor_.release(bytes);",
    "  // analyze-allow(governor-raii)\n  governor_.release(bytes);")

THROW_BAD = """
#include <stdexcept>
class FakeEngine {
 public:
  bool try_run();
 private:
  void check_invariants();
};
bool FakeEngine::try_run() {
  check_invariants();
  return true;
}
void FakeEngine::check_invariants() {
  throw std::runtime_error("bad");
}
"""

THROW_CLEAN = THROW_BAD.replace(
    "  check_invariants();\n  return true;",
    "  try {\n    check_invariants();\n  } catch (...) {\n"
    "    return false;\n  }\n  return true;")

# Suppression on a call edge of the reported path, not the throw line:
# the path rules honor allows on any reported line.
THROW_SUPPRESSED = THROW_BAD.replace(
    "  check_invariants();",
    "  // analyze-allow(engine-throw-path)\n  check_invariants();")

_LOCK_CLASSES = """
#include <mutex>
class Beta;
class Alpha {
 public:
  void poke();
  void alpha_work();
 private:
  std::mutex mu_;
  Beta* peer_;
};
class Beta {
 public:
  void poke();
  void beta_work();
 private:
  std::mutex mu_;
  Alpha* peer_;
};
"""

LOCK_CYCLE_A = _LOCK_CLASSES + """
void Alpha::poke() {
  std::lock_guard<std::mutex> lk(mu_);
  peer_->beta_work();
}
void Alpha::alpha_work() {
  std::lock_guard<std::mutex> lk(mu_);
}
"""

LOCK_CYCLE_B = _LOCK_CLASSES + """
void Beta::poke() {
  std::lock_guard<std::mutex> lk(mu_);
  peer_->alpha_work();
}
void Beta::beta_work() {
  std::lock_guard<std::mutex> lk(mu_);
}
"""

# One-directional: Beta never calls back into Alpha under its lock.
LOCK_CYCLE_B_CLEAN = _LOCK_CLASSES + """
void Beta::poke() {
  peer_->alpha_work();
}
void Beta::beta_work() {
  std::lock_guard<std::mutex> lk(mu_);
}
"""

LOCK_CYCLE_A_SUPPRESSED = LOCK_CYCLE_A.replace(
    "  peer_->beta_work();",
    "  // analyze-allow(lock-order-cycle)\n  peer_->beta_work();")

LOCK_PAR_BAD = """
#include <mutex>
class Sweeper {
 public:
  void sweep(int n);
 private:
  std::mutex mu_;
};
void Sweeper::sweep(int n) {
  std::lock_guard<std::mutex> lk(mu_);
  parallel_for(0, n, [&](int i) {
    (void)i;
  });
}
"""

LOCK_PAR_CLEAN = LOCK_PAR_BAD.replace(
    "  std::lock_guard<std::mutex> lk(mu_);",
    "  {\n    std::lock_guard<std::mutex> lk(mu_);\n  }")

LOCK_PAR_SUPPRESSED = LOCK_PAR_BAD.replace(
    "  parallel_for(0, n,",
    "  // analyze-allow(lock-across-parallel)\n  parallel_for(0, n,")

TELE_BAD = """
class FakeEngine {
 public:
  bool try_poll();
 private:
  bool ready_ = false;
};
bool FakeEngine::try_poll() {
  if (!ready_) {
    return false;
  }
  emit_request();
  return true;
}
"""

TELE_CLEAN = """
class FakeEngine {
 public:
  bool try_poll();
 private:
  bool ready_ = false;
};
bool FakeEngine::try_poll() {
  emit_request();
  if (!ready_) {
    return false;
  }
  return true;
}
"""

TELE_SUPPRESSED = TELE_BAD.replace(
    "    return false;",
    "    // analyze-allow(try-telemetry-exit)\n    return false;")

COUNT_BAD = """
namespace obs {
bool enabled();
void emit_request() {
  if (!enabled()) {
    return;
  }
}
}
"""

COUNT_CLEAN = """
namespace obs {
bool enabled();
void emit_request() {
  registry().counter(obs::metric::kEngineRequests).add(1);
  if (!enabled()) {
    return;
  }
}
}
"""

COUNT_SUPPRESSED = COUNT_BAD.replace(
    "void emit_request() {",
    "// analyze-allow(engine-request-count)\nvoid emit_request() {")

MATRIX: dict[str, dict[str, dict[str, str]]] = {
    "fp-unordered-accumulation": {
        "bad": {"src/fake/unordered.cpp": FP_UNORDERED_BAD},
        "clean": {"src/fake/unordered.cpp": FP_UNORDERED_CLEAN},
        "suppressed": {"src/fake/unordered.cpp": FP_UNORDERED_SUPPRESSED},
    },
    "fp-atomic-accumulation": {
        "bad": {"src/fake/atomic.cpp": FP_ATOMIC_BAD},
        "clean": {"src/fake/atomic.cpp": FP_ATOMIC_CLEAN},
        "suppressed": {"src/fake/atomic.cpp": FP_ATOMIC_SUPPRESSED},
    },
    "fp-parallel-reduction": {
        "bad": {"src/fake/policy.cpp": FP_POLICY_BAD},
        "clean": {"src/fake/policy.cpp": FP_POLICY_CLEAN},
        "suppressed": {"src/fake/policy.cpp": FP_POLICY_SUPPRESSED},
    },
    "fp-parallel-for-accumulation": {
        "bad": {"src/fake/parfor.cpp": FP_PARFOR_BAD},
        "clean": {"src/fake/parfor.cpp": FP_PARFOR_CLEAN},
        "suppressed": {"src/fake/parfor.cpp": FP_PARFOR_SUPPRESSED},
    },
    "governor-raii": {
        "bad": {"src/fake/governor.cpp": GOVERNOR_BAD},
        "clean": {"src/fake/governor.cpp": GOVERNOR_CLEAN},
        "suppressed": {"src/fake/governor.cpp": GOVERNOR_SUPPRESSED},
    },
    "engine-throw-path": {
        "bad": {"src/engine/fake_throw.cpp": THROW_BAD},
        "clean": {"src/engine/fake_throw.cpp": THROW_CLEAN},
        "suppressed": {"src/engine/fake_throw.cpp": THROW_SUPPRESSED},
    },
    "lock-order-cycle": {
        "bad": {"src/fake/lock_a.cpp": LOCK_CYCLE_A,
                "src/fake/lock_b.cpp": LOCK_CYCLE_B},
        "clean": {"src/fake/lock_a.cpp": LOCK_CYCLE_A,
                  "src/fake/lock_b.cpp": LOCK_CYCLE_B_CLEAN},
        "suppressed": {"src/fake/lock_a.cpp": LOCK_CYCLE_A_SUPPRESSED,
                       "src/fake/lock_b.cpp": LOCK_CYCLE_B},
    },
    "lock-across-parallel": {
        "bad": {"src/fake/lock_par.cpp": LOCK_PAR_BAD},
        "clean": {"src/fake/lock_par.cpp": LOCK_PAR_CLEAN},
        "suppressed": {"src/fake/lock_par.cpp": LOCK_PAR_SUPPRESSED},
    },
    "try-telemetry-exit": {
        "bad": {"src/engine/fake_tele.cpp": TELE_BAD},
        "clean": {"src/engine/fake_tele.cpp": TELE_CLEAN},
        "suppressed": {"src/engine/fake_tele.cpp": TELE_SUPPRESSED},
    },
    "engine-request-count": {
        "bad": {"src/obs/fake_emit.cpp": COUNT_BAD},
        "clean": {"src/obs/fake_emit.cpp": COUNT_CLEAN},
        "suppressed": {"src/obs/fake_emit.cpp": COUNT_SUPPRESSED},
    },
}


class RuleMatrixTest(unittest.TestCase):
    """Violating fires, clean is silent, suppressed is found-but-allowed."""

    def test_matrix_covers_every_rule(self):
        self.assertEqual(set(MATRIX), set(rules_mod.RULES))

    def test_bad_tu_fires(self):
        for rule, tus in MATRIX.items():
            with self.subTest(rule=rule):
                found = _token_findings(tus["bad"], rule)
                unsuppressed = [f for f in found if not f.suppressed]
                self.assertTrue(
                    unsuppressed,
                    f"{rule}: seeded violation not detected")

    def test_clean_tu_is_silent(self):
        for rule, tus in MATRIX.items():
            with self.subTest(rule=rule):
                found = _token_findings(tus["clean"], rule)
                self.assertEqual(
                    [], found,
                    f"{rule}: clean counterpart flagged: {found}")

    def test_suppressed_tu_is_found_but_allowed(self):
        for rule, tus in MATRIX.items():
            with self.subTest(rule=rule):
                found = _token_findings(tus["suppressed"], rule)
                self.assertTrue(found, f"{rule}: suppressed variant should "
                                       "still produce findings")
                unsuppressed = [f for f in found if not f.suppressed]
                self.assertEqual(
                    [], unsuppressed,
                    f"{rule}: analyze-allow comment not honored")


TELE_HELPER_NO_FINISH = """
namespace treecode::engine {
void emit_request(RequestScope& scope) {
  registry().counter(obs::metric::kEngineRequests).add(1);
}
}
"""

TELE_HELPER_FINISHES = """
namespace treecode::engine {
void emit_request(RequestScope& scope) {
  registry().counter(obs::metric::kEngineRequests).add(1);
  scope.finish(verdict);
}
}
"""

TELE_HELPER_FREE_FINISH = TELE_HELPER_FINISHES.replace(
    "scope.finish(verdict);", "reqtrace::finish_request(ctx, verdict);")


class TraceFinishTest(unittest.TestCase):
    """The telemetry emit helper must also finish the request's trace
    context, so every entry-point verdict reaches the tail sampler."""

    def test_helper_without_finish_fires(self):
        found = _token_findings(
            {"src/engine/fake_emit.cpp": TELE_HELPER_NO_FINISH},
            "try-telemetry-exit")
        self.assertTrue(found, "finish-less emit helper not flagged")
        self.assertIn("tail-based", found[0].message)

    def test_helper_with_scope_finish_is_silent(self):
        self.assertEqual([], _token_findings(
            {"src/engine/fake_emit.cpp": TELE_HELPER_FINISHES},
            "try-telemetry-exit"))

    def test_helper_with_free_finish_request_is_silent(self):
        self.assertEqual([], _token_findings(
            {"src/engine/fake_emit.cpp": TELE_HELPER_FREE_FINISH},
            "try-telemetry-exit"))


class CrossTuLockCycleTest(unittest.TestCase):
    """The cycle exists only in the merged graph, never in either TU alone."""

    def test_single_tu_has_no_cycle(self):
        for rel in ("src/fake/lock_a.cpp", "src/fake/lock_b.cpp"):
            text = MATRIX["lock-order-cycle"]["bad"][rel]
            facts = [frontend_tokens.extract(rel, text, rel)]
            self.assertEqual([], rules_mod.run_rules(facts,
                                                     {"lock-order-cycle"}),
                             f"{rel} alone must not contain a cycle")

    def test_merged_graph_reports_both_edges(self):
        found = _token_findings(MATRIX["lock-order-cycle"]["bad"],
                                "lock-order-cycle")
        self.assertEqual(1, len(found))
        msg = found[0].message
        self.assertIn("Alpha::mu_", msg)
        self.assertIn("Beta::mu_", msg)
        self.assertIn("src/fake/lock_a.cpp", msg)
        self.assertIn("src/fake/lock_b.cpp", msg)


# A visitor lambda nested in the parallel body runs on the body's worker:
# accumulating into a double declared in the body is per-worker state, while
# accumulating into a double captured from outside the parallel call is not.
FP_PARFOR_NESTED_LOCAL = """
template <class F> void visit(int n, F f);
void sweep(int n, double* out) {
  parallel_for(0, n, [&](int i) {
    double local = 0.0;
    visit(i, [&](int j) {
      local += 1.0;
    });
    out[i] = local;
  });
}
"""

FP_PARFOR_NESTED_CAPTURED = """
template <class F> void visit(int n, F f);
void sweep(int n) {
  double total = 0.0;
  parallel_for(0, n, [&](int i) {
    visit(i, [&](int j) {
      total += 1.0;
    });
  });
  (void)total;
}
"""

NESTED_RULE = "fp-parallel-for-accumulation"


class NestedLambdaParallelBodyTest(unittest.TestCase):
    """The parallel body is the lambda passed to parallel_for, not the
    innermost lambda around the accumulation."""

    def test_body_local_from_nested_lambda_is_silent(self):
        self.assertEqual([], _token_findings(
            {"src/fake/nested.cpp": FP_PARFOR_NESTED_LOCAL}, NESTED_RULE))

    def test_captured_outer_from_nested_lambda_fires(self):
        found = _token_findings(
            {"src/fake/nested.cpp": FP_PARFOR_NESTED_CAPTURED}, NESTED_RULE)
        self.assertEqual(1, len(found), found)


class LibclangParityTest(unittest.TestCase):
    """When libclang is importable, the violating TUs must fire there too."""

    # C++ the synthetic TUs reference but do not define; libclang needs
    # real declarations where the token frontend pattern-matches.
    _PRELUDE = """
#pragma once
#include <cstddef>
template <class F> void parallel_for(int lo, int hi, F f);
class ResourceGovernor {
 public:
  class Reservation {
   public:
    explicit operator bool() const { return false; }
  };
  bool try_reserve(unsigned long bytes, const char* label);
  Reservation reserve(unsigned long bytes, const char* label) noexcept;
  void release(unsigned long bytes);
};
void emit_request();
"""

    def test_bad_tus_fire_under_libclang(self):
        import frontend_clang
        ok, detail = frontend_clang.available()
        if not ok:
            self.skipTest(f"libclang unavailable: {detail}")
        with tempfile.TemporaryDirectory() as tmp:
            prelude = os.path.join(tmp, "prelude.hpp")
            with open(prelude, "w", encoding="utf-8") as fh:
                fh.write(self._PRELUDE)
            for rule, tus in MATRIX.items():
                if rule == "engine-request-count":
                    # The clean/bad distinction is a call-argument detail
                    # the prelude cannot model without the obs headers.
                    continue
                with self.subTest(rule=rule):
                    facts = []
                    for rel, text in sorted(tus["bad"].items()):
                        path = os.path.join(tmp, rel.replace("/", "_"))
                        body = f'#include "{prelude}"\n' + text
                        with open(path, "w", encoding="utf-8") as fh:
                            fh.write(body)
                        facts.append(frontend_clang.extract(
                            path, body, rel, build_dir=tmp))
                    found = [f for f in rules_mod.run_rules(facts, {rule})
                             if not f.suppressed]
                    self.assertTrue(
                        found, f"{rule}: violation undetected by libclang")

    def test_nested_lambda_under_libclang(self):
        import frontend_clang
        ok, detail = frontend_clang.available()
        if not ok:
            self.skipTest(f"libclang unavailable: {detail}")
        with tempfile.TemporaryDirectory() as tmp:
            prelude = os.path.join(tmp, "prelude.hpp")
            with open(prelude, "w", encoding="utf-8") as fh:
                fh.write(self._PRELUDE)
            for text, expected in ((FP_PARFOR_NESTED_LOCAL, 0),
                                   (FP_PARFOR_NESTED_CAPTURED, 1)):
                with self.subTest(expected=expected):
                    path = os.path.join(tmp, "src_fake_nested.cpp")
                    body = f'#include "{prelude}"\n' + text
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(body)
                    facts = [frontend_clang.extract(
                        path, body, "src/fake/nested.cpp", build_dir=tmp)]
                    found = rules_mod.run_rules(facts, {NESTED_RULE})
                    self.assertEqual(expected, len(found), found)


if __name__ == "__main__":
    unittest.main()
