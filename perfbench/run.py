#!/usr/bin/env python3
"""Build the treecode benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload shell_replay --seed 1 --seconds 10 --trace 0

The program is built (Release, no test instrumentation) under
.bench_build/perfbench on first use. Build output goes to stderr. Standard
output ends with two lines: the program's full report (provenance, work
counts, every metric it measured) and then the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). A traced run also checks the span coverage of
every op (see span_coverage). Exits non-zero without a result line when the
program cannot be built or run.
"""

import argparse
import bisect
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD = ROOT / ".bench_build" / "perfbench"
EXE = BUILD / "perfbench"
RUN_TIMEOUT_S = 170

# Modules of src/ whose public calls the benchmark wraps in spans; a span's
# layer is its name up to the first dot.
LAYERS = {"tree", "core", "engine", "multipole", "parallel", "bem", "linalg", "service", "dist"}
MIN_COVERAGE = 0.95

# Per-layer metrics on a layer that a workload never calls read 0 there.
NOT_ON_PATH = {
    "bem_gmres": ("engine.batch_per_rhs_ms.", "service."),
    "shell_replay": ("bem.", "linalg.", "engine.batch_per_rhs_ms.", "service."),
    "cloud_oneshot": ("bem.", "linalg.", "engine.", "service."),
    "service_mix": ("bem.", "linalg."),
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build the benchmark target."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").exists():
            cfg = [
                "cmake", "-S", str(HERE), "-B", str(BUILD),
                "-DCMAKE_BUILD_TYPE=Release",
                "-DTREECODE_CHECK_INVARIANTS=OFF",
                "-DTREECODE_FAULT_INJECT=OFF",
                "-DTREECODE_SANITIZE=",
            ]
            if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                return False
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs]
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def span_coverage(spans):
    """Share of each op's wall time during which its caller was inside a
    module call.

    An op is a span named "op.*" without a parent, and a leaf is a span
    without children whose layer is in LAYERS. The ops one thread records
    form its lane. An op counts as covered where a leaf under any op of its
    lane runs: a caller that waits for its requests in the order the
    system completes them is, while inside the call for an earlier one,
    waiting on this one too. The self time of a wrapper span (say
    linalg.gmres around its matvecs) and time spent outside every module
    call count as uncovered. Returns [(op label, coverage)] in start order.
    """
    by_id = {s["id"]: s for s in spans}
    parents = {s["parent"] for s in spans}

    def root_of(s):
        while s["parent"] >= 0:
            s = by_id[s["parent"]]
        return s

    leaves = {}
    for s in spans:
        if s["id"] in parents or s["name"].split(".")[0] not in LAYERS:
            continue
        root = root_of(s)
        if root["name"].startswith("op."):
            leaves.setdefault(root["lane"], []).append((s["start_ns"], s["end_ns"]))
    merged = {}
    for lane, iv in leaves.items():
        out = []
        for a, b in sorted(iv):
            if out and a <= out[-1][1]:
                out[-1][1] = max(out[-1][1], b)
            else:
                out.append([a, b])
        merged[lane] = out
    result = []
    seen = {}
    ops = [s for s in spans if s["parent"] < 0 and s["name"].startswith("op.")]
    for s in sorted(ops, key=lambda s: s["start_ns"]):
        lo, hi = s["start_ns"], s["end_ns"]
        label = f'{s["name"]}#{seen.setdefault(s["name"], 0)}'
        seen[s["name"]] += 1
        if hi <= lo:
            continue
        iv = merged.get(s["lane"], [])
        k = max(0, bisect.bisect_left(iv, [lo, lo]) - 1)
        covered = 0
        while k < len(iv) and iv[k][0] < hi:
            covered += max(0, min(hi, iv[k][1]) - max(lo, iv[k][0]))
            k += 1
        result.append((label, covered / (hi - lo)))
    return result


def check_coverage(report, spans):
    """Add obs.span_coverage_min to a traced report and count each op under
    MIN_COVERAGE as a failed check."""
    cov = span_coverage(spans)
    short = [(op, c) for op, c in cov if c < MIN_COVERAGE]
    for op, c in short[:8]:
        log(f"check failed: span coverage {c:.4f} below {MIN_COVERAGE} in {op}")
    if not cov:
        log("check failed: traced run recorded no op spans")
    report["failed"] = int(report["failed"]) + len(short) + (not cov)
    attempted = int(report["attempted"])
    report["layer"]["check.failed_frac"]["value"] = (
        report["failed"] / attempted if attempted else 1.0)
    value = min(c for _, c in cov) if cov else 0.0
    report["layer"]["obs.span_coverage_min"] = {"value": value, "unit": "ratio"}
    return short


def source_id():
    """Git commit when run inside a clone, else a digest of the sources."""
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def result_line(spec, report, trace):
    """The BENCHMARK.json result object for one report, or raise."""
    workload = report["workload"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = report["layer"] if trace else report["e2e"]
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name in measured:
            got = measured[name]
            if got["unit"] != unit:
                raise ValueError(f"{name}: unit {got['unit']!r}, BENCHMARK.json says {unit!r}")
            metrics[name] = {"value": got["value"], "unit": unit}
        elif trace and name.startswith(NOT_ON_PATH[workload]):
            metrics[name] = {"value": 0, "unit": unit}
        else:
            raise ValueError(f"{workload} did not report {name}")
        if metrics[name]["value"] is None:
            raise ValueError(f"{name} is not finite")
    extra = sorted(set(measured) - {m["name"] for m in wanted})
    if extra:
        raise ValueError(f"metrics missing from BENCHMARK.json: {extra}")
    attempted, failed = int(report["attempted"]), int(report["failed"])
    return {
        "correct": failed == 0 and attempted >= 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=0, help="0 = nproc")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    if args.workload not in known:
        log(f"unknown workload {args.workload!r}; known: {known}")
        return 2
    if not build():
        log("build failed")
        return 1

    trace_dir = ROOT / ".bench_build" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_out = trace_dir / f"{args.workload}-{args.seed}.json"
    cmd = [
        str(EXE), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--threads", str(args.threads), "--trace-out", str(trace_out),
        "--source-id", source_id(),
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"{args.workload} exited with code {proc.returncode}")
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
        if args.trace == 1:
            check_coverage(report, json.loads(trace_out.read_text()))
        result = result_line(spec, report, args.trace == 1)
    except (IndexError, KeyError, ValueError, OSError) as e:
        log(f"bad report: {e}")
        return 1
    print(json.dumps(report), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
