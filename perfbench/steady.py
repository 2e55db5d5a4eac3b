"""Steadiness check: run the benchmark on several seeds per workload and
report, per end-to-end metric, the median, the quartiles and their spread
(IQR over median) against the metric's bound.

Usage (from the repository root):

    python3 perfbench/steady.py --seeds 1-10 --out perfbench/reference/set1.json
    python3 perfbench/steady.py --seeds 1-10 --trace --out perfbench/reference/trace.json
    python3 perfbench/steady.py --compare perfbench/reference/set1.json perfbench/reference/set2.json

Runs are sequential; each is ``python3 perfbench/run.py`` with the
``run_seconds`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - start
    result["log"] = lines[:-1]
    return result


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else 0.0  # layers absent from a workload
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="ensemble,large_graphs,labels")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    if args.compare:
        first, second = (json.loads(p.read_text()) for p in args.compare)
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        worst = 0.0
        for workload, metrics in first["summary"].items():
            for name, a in metrics.items():
                b = second["summary"][workload][name]
                change = (b["median"] - a["median"]) / a["median"]
                worse = change if better[name] == "lower" else -change
                worst = max(worst, worse / bounds[name])
                print(f"{workload:13s} {name:26s} {a['median']:12.5g} {b['median']:12.5g}"
                      f" {100 * change:+6.1f}%  worse by {100 * worse:+6.1f}%"
                      f" (bound {100 * bounds[name]:.0f}%)")
        print(f"largest worsening as a share of its bound: {worst:.2f}")
        return 0

    result = {"seeds": _seeds(args.seeds), "trace": args.trace, "runs": {}, "summary": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in result["seeds"]:
            out = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append(out)
            print(f"{workload} seed {seed}: attempted {out['attempted']} failed "
                  f"{out['failed']} correct {out['correct']} in {out['wall_s']:.0f} s",
                  file=sys.stderr)
        result["runs"][workload] = runs
        names = runs[0]["metrics"]
        result["summary"][workload] = {
            name: summarise([r["metrics"][name]["value"] for r in runs]) for name in names
        }
        for name, s in result["summary"][workload].items():
            flag = ""
            if name in bounds and name != "setup_s":
                flag = "ok" if s["spread"] < bounds[name] / 3 else (
                    "within bound" if s["spread"] <= bounds[name] else "TOO WIDE")
            print(f"{workload:13s} {name:32s} median {s['median']:12.5g}"
                  f"  q1 {s['q1']:12.5g}  q3 {s['q3']:12.5g}"
                  f"  spread {100 * s['spread']:5.1f}%  {flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
