"""Run the benchmark several times per workload and summarise the spread.

    python3 perfbench/collect.py --seeds 1-10 --sets 2 --out perfbench/out/runs.json

Runs ``run.py`` once per seed and workload, untraced, with ``run_seconds``
from BENCHMARK.json; with ``--sets 2`` the whole round is repeated with the
next block of seeds (11-20 after 1-10).  Then it makes one traced run per
workload.  For each set and end-to-end metric it reports the median and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to a
third of the metric's bound.  For each later set it also reports how much
worse its median is than the first set's, as a share of the first.  Every
run is kept in the output file.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall_s = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError("%s failed (%d):\n%s" % (" ".join(cmd), proc.returncode, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2][len("info "):])
    return {"seed": seed, "trace": trace, "wall_s": wall_s, "info": info, **json.loads(lines[-1])}


def summarise(runs, spec):
    out = {}
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median
        out[m["name"]] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                          "bound": m["bound"], "below_third_of_bound": spread < m["bound"] / 3}
    return out


def worsening(first, later, spec):
    """How much worse each median of `later` is than `first`, as a share."""
    out = {}
    for m in spec["end_to_end"]:
        a, b = first[m["name"]]["median"], later[m["name"]]["median"]
        out[m["name"]] = (b - a) / a if m["better"] == "lower" else (a - b) / a
    return out


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="first-last seed of the first set")
    ap.add_argument("--sets", type=int, default=1, help="repeat with the next seeds")
    ap.add_argument("--workloads", default=None, help="comma-separated; default: all")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    first = parse_seeds(args.seeds)
    report = {"python": sys.version.split()[0], "cpus": os.cpu_count(),
              "run_seconds": spec["run_seconds"], "sets": [], "traced": {}}

    def save():
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")

    for s in range(args.sets):
        seeds = [seed + s * len(first) for seed in first]
        entry = {"seeds": seeds, "workloads": {}}
        report["sets"].append(entry)
        for workload in workloads:
            runs = []
            for seed in seeds:
                runs.append(run(workload, seed, spec["run_seconds"], 0))
                print("set %d %s seed %d: %s correct=%s (%.0fs)" % (
                    s + 1, workload, seed,
                    " ".join("%s=%.4g %s" % (k, v["value"], v["unit"])
                             for k, v in runs[-1]["metrics"].items()),
                    runs[-1]["correct"], runs[-1]["wall_s"]), flush=True)
            summary = summarise(runs, spec)
            entry["workloads"][workload] = {"runs": runs, "summary": summary}
            for name, x in summary.items():
                print("  %-12s median %.4g spread %.3f (bound/3 %.3f)%s" % (
                    name, x["median"], x["spread"], x["bound"] / 3,
                    "" if x["below_third_of_bound"] else "  ABOVE A THIRD OF THE BOUND"))
            if s > 0:
                worse = worsening(report["sets"][0]["workloads"][workload]["summary"], summary, spec)
                entry["workloads"][workload]["worse_than_set_1"] = worse
                print("  worse than set 1: " + json.dumps({k: round(v, 3) for k, v in worse.items()}))
            save()
    for workload in workloads:
        report["traced"][workload] = run(workload, first[0], spec["run_seconds"], 1)
        print("traced %s: overhead %.3f" % (
            workload, report["traced"][workload]["metrics"]["trace.overhead_frac"]["value"]))
        save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
