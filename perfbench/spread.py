#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--workloads shell_replay,service_mix]
                                [--out spread.json]

Runs perfbench/run.py once per (workload, seed) with BENCHMARK.json's
run_seconds and untraced, then prints, per workload and end-to-end metric,
the median of the runs and the distance between the first and third
quartiles (statistics.quantiles(values, n=4)) as a share of the median,
next to the metric's bound. A spread above a third of the bound is marked.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    runs = {}
    for w in workloads:
        runs[w] = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if out.returncode != 0:
                print(f"{w} seed {seed}: exit {out.returncode}", file=sys.stderr)
                return 1
            lines = out.stdout.strip().splitlines()
            report, result = json.loads(lines[-2]), json.loads(lines[-1])
            runs[w].append({"seed": seed, "result": result, "work": report["work"],
                            "detail": report["detail"]})
            print(f"{w} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  file=sys.stderr, flush=True)
    worst = 0.0
    for w, rs in runs.items():
        print(f"== {w} ({len(rs)} runs)")
        for m in spec["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in rs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
            rel = (q[2] - q[0]) / med if med else float("inf")
            flag = "" if rel < m["bound"] / 3 else "  <-- above bound/3"
            if m["name"] != "setup_s":
                worst = max(worst, rel / m["bound"])
            print(f"  {m['name']:18s} median {med:12.6g} {m['unit']:4s} "
                  f"IQR/median {rel:6.3f} (bound {m['bound']}){flag}")
        for name in sorted(rs[0]["detail"]):
            vals = [r["detail"][name]["value"] for r in rs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
            rel = (q[2] - q[0]) / med if med else 0.0
            print(f"  ({name:16s} median {med:12.6g} IQR/median {rel:6.3f})")
        works = {json.dumps(r["work"], sort_keys=True) for r in rs}
        print(f"  work counts: {len(works)} distinct across seeds")
        if not all(r["result"]["correct"] for r in rs):
            print("  some runs reported correct=false")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))
    print(f"largest spread/bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
