"""Steadiness and baseline runs of the benchmark.

    python3 bench/prove.py [--runs 10] [--workloads a,b] [--seed-base 101]
                           [--traced] [--out bench/results/baseline.json]

Runs ``bench/run.py`` once per seed and workload (seeds seed-base,
seed-base+1, ...; workloads interleaved within each seed), then prints, for
every end-to-end metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median
next to the metric's bound from BENCHMARK.json.  With --traced it adds one
traced run per workload and keeps its per-layer report.  With --out it
writes everything, with the environment stamp, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import common
import workloads

BENCHMARK = os.path.join(common.ROOT, "BENCHMARK.json")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    res = subprocess.run([sys.executable, os.path.join(common.BENCH_DIR, "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=common.ROOT, capture_output=True, text=True, timeout=900)
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if res.returncode == 0 and lines else None
    return {"seed": seed, "rc": res.returncode, "result": result,
            "report": [ln for ln in lines[:-1] if not ln.startswith("# env ")],
            "stderr": res.stderr.strip()[-2000:]}


def summarize(runs: list, spec: dict) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs if r["result"]]
        if len(values) < 2:
            continue
        q1, med, q3 = common.quartiles(values)
        out[metric["name"]] = {"unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / med, "bound": metric["bound"],
                               "runs": len(values), "values": values}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    ap.add_argument("--seed-base", type=int, default=101)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    names = args.workloads.split(",")
    seconds = spec["run_seconds"]

    runs = {w: [] for w in names}
    for k in range(args.runs):
        for w in names:
            r = run_once(w, args.seed_base + k, seconds, 0)
            runs[w].append(r)
            status = "ok" if r["result"] and r["result"]["correct"] else f"FAILED rc={r['rc']}"
            print(f"{w} seed {r['seed']}: {status}", file=sys.stderr, flush=True)

    report = {"stamp": common.env_stamp(args.seed_base), "run_seconds": seconds,
              "seeds": [args.seed_base + k for k in range(args.runs)], "workloads": {}}
    print(f"Environment: `{common.emit(report['stamp'])}`\n")
    print(f"{args.runs} runs per workload of {seconds} s, seeds {report['seeds'][0]}.."
          f"{report['seeds'][-1]}; spread = (q3 - q1) / median.\n")
    print(f"| workload | metric | unit | median | q1 | q3 | spread | bound | bound/3 |")
    print(f"|---|---|---|---|---|---|---|---|---|")
    for w in names:
        summary = summarize(runs[w], spec)
        failed = [r["seed"] for r in runs[w] if not (r["result"] and r["result"]["correct"])]
        report["workloads"][w] = {"summary": summary, "failed_seeds": failed,
                                  "attempted": [r["result"]["attempted"] for r in runs[w] if r["result"]]}
        for name, m in summary.items():
            flag = "" if m["spread"] <= m["bound"] / 3 else " (above bound/3)"
            print(f"| {w} | {name} | {m['unit']} | {m['median']:.6g} | {m['q1']:.6g} | "
                  f"{m['q3']:.6g} | {m['spread']:.4f}{flag} | {m['bound']} | {m['bound'] / 3:.4f} |")
        if failed:
            print(f"| {w} | FAILED seeds | {failed} |")
    if args.traced:
        report["traced"] = {}
        for w in names:
            r = run_once(w, args.seed_base, seconds, 1)
            report["traced"][w] = {"seed": r["seed"], "rc": r["rc"], "report": r["report"],
                                   "metrics": r["result"]["metrics"] if r["result"] else None}
            print(f"\n### traced {w} (seed {r['seed']}, rc {r['rc']})\n\n```")
            print("\n".join(r["report"]))
            print("```")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
