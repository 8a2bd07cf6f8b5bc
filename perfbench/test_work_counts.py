#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/test_work_counts.py [--workloads bem_gmres,...]

First it checks the span coverage check of run.py on made-up spans: it
must fail, naming the op, when leaf layer spans cover less than 95% of an
op, and a wrapper span around the whole op must not count as cover. Then,
for each workload, it checks that
  * the work counts (multipole terms, P2P pairs, plan entries, refresh
    terms, computed replay bytes, GMRES iterations) repeat exactly across
    two runs of one seed, and between 1 thread and nproc threads (the
    engine's thread-count determinism contract);
  * a traced run on a held-out seed passes every check, span coverage of
    at least 95% of each op's wall time included, and reports every
    per-layer metric of BENCHMARK.json.
Takes a few minutes; exits 1 if any check fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402

SEED = 7
HELD_OUT_SEED = 1001


def span(sid, name, start, end, parent=-1, lane=0):
    return {"name": name, "id": sid, "parent": parent, "start_ns": start, "end_ns": end,
            "lane": lane}


def coverage_checks():
    """The coverage check on made-up spans with known answers."""
    spans = [
        # Covered: two leaf calls back to back.
        span(0, "op.eval", 0, 100),
        span(1, "engine.update", 0, 40, 0),
        span(2, "engine.evaluate", 40, 100, 0),
        # Short: a wrapper spans the whole op, its leaves only 60%.
        span(3, "op.solve", 200, 300),
        span(4, "linalg.gmres", 200, 300, 3),
        span(5, "bem.matvec", 210, 250, 4),
        span(6, "bem.matvec", 260, 280, 4),
        # Short: the leaf is not a module call.
        span(7, "op.request", 400, 500),
        span(8, "service.submit", 400, 410, 7),
        span(9, "bench.client", 410, 500, 7),
        # Covered: while its caller (lane 1) waits on an earlier request,
        # the later one is covered by that wait ...
        span(10, "op.request", 600, 700, lane=1),
        span(11, "service.submit", 600, 610, 10, lane=1),
        span(12, "service.wait", 610, 700, 10, lane=1),
        span(13, "op.request", 605, 750, lane=1),
        span(14, "service.submit", 610, 615, 13, lane=1),
        span(15, "service.wait", 700, 750, 13, lane=1),
        # ... but not by a wait of another caller (lane 2).
        span(16, "op.request", 620, 720, lane=2),
        span(17, "service.submit", 620, 630, 16, lane=2),
        span(18, "service.wait", 700, 720, 16, lane=2),
    ]
    cov = dict(bench.span_coverage(spans))
    report = {"attempted": 6, "failed": 0, "layer": {"check.failed_frac": {"value": 0.0}}}
    short = bench.check_coverage(report, spans)
    return [
        ("coverage: leaves back to back cover the op", cov["op.eval#0"] == 1.0),
        ("coverage: wrapper self time is not cover", abs(cov["op.solve#0"] - 0.6) < 1e-12),
        ("coverage: a non-module span is not cover", abs(cov["op.request#0"] - 0.1) < 1e-12),
        ("coverage: a caller's wait covers its later request", cov["op.request#2"] == 1.0),
        ("coverage: another caller's wait does not", abs(cov["op.request#3"] - 0.3) < 1e-12),
        ("coverage: short ops fail, named",
         [op for op, _ in short] == ["op.solve#0", "op.request#0", "op.request#3"]),
        ("coverage: failures counted", report["failed"] == 3),
        ("coverage: minimum reported", report["layer"]["obs.span_coverage_min"]["value"] == 0.1),
    ]


def run(workload, seed, trace=0, threads=0, seconds=1):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--threads", str(threads)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited with {out.returncode}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    layer_names = {m["name"] for m in spec["per_layer"]}
    failures = 0
    for name, ok in coverage_checks():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        failures += not ok
    for w in args.workloads.split(","):
        a, ra = run(w, SEED)
        b, rb = run(w, SEED)
        one, r1 = run(w, SEED, threads=1)
        checks = [
            ("work counts present", bool(a["work"])),
            ("same seed, same work", a["work"] == b["work"]),
            ("1 thread and nproc threads, same work", a["work"] == one["work"]),
            ("untraced runs correct", ra["correct"] and rb["correct"] and r1["correct"]),
        ]
        traced, rt = run(w, HELD_OUT_SEED, trace=1)
        checks += [
            ("held-out seed, traced run correct", rt["correct"]),
            ("every per-layer metric reported", set(rt["metrics"]) == layer_names),
            ("span coverage >= 0.95", traced["layer"]["obs.span_coverage_min"]["value"] >= 0.95),
        ]
        for name, ok in checks:
            print(f"{'ok  ' if ok else 'FAIL'} {w}: {name}")
            failures += not ok
        print(f"     {w}: work {json.dumps(a['work'], sort_keys=True)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
