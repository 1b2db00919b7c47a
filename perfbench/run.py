"""dcalc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload rewrite --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  The inputs are generated from the seed and
passed as text to fresh worker processes (``worker.py``) that import dcalc
from ``src`` and parse them.  Set-up is done several times and its median
reported.  Then each of ``REPEATS`` workers runs every round of ops once,
back to back, one client in a closed loop, one worker at a time.
``--seconds`` sets the amount of work: the number of rounds the seed commit
runs in that time over all repeats, so that every run of a workload, fast
or slow, measures the same ops.  Every op is checked against its known
answer and, for the default seed, against the output digests recorded at
the seed commit (``digests/``).

Timings are taken at a reference speed, so that the shared machine's
changes of speed, which last from seconds to minutes, do not show as
changes of the program.  Before each op the worker times a fixed
calibration loop (``speed.py``) that does not touch the program; each op's
latency is scaled by ``CALIBRATION_REF_S`` over the median of the
calibrations around it.  An op's latency is then the least of its scaled
timings in the repeats.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end
ones; with ``--trace 1`` a traced worker runs instead, followed by an
untraced one over the same rounds, and the metrics are the per-layer ones
and the tracing overhead.  See README.md for what each metric means.

``--record-digests`` runs the rounds of the default seed once and writes the
digests file instead of measuring.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import threading
from collections import Counter
from time import perf_counter

from speed import scaled

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
DIGESTS = os.path.join(BENCH, "digests")

# Module and function that generate each workload's inputs.  Only derivs
# imports the program.
GENERATORS = {
    "rewrite": ("gen", "rewrite_inputs"),
    "search": ("derivs", "search_inputs"),
    "parse": ("gen", "parse_inputs"),
    "roundtrip": ("derivs", "roundtrip_inputs"),
}
DEFAULT_SEED = 0
SETUPS = 12
# Workers that run every op; an op's latency is the least of their timings.
REPEATS = 2
# Rounds the seed commit runs per second of measuring (2 CPUs, Python 3.11).
ROUNDS_PER_SECOND = {"rewrite": 2.1, "search": 0.19, "parse": 0.55, "roundtrip": 3.2}
# A run is stopped, and fails, if a worker is still running after this long.
WORKER_TIMEOUT_S = 150

class BenchError(RuntimeError):
    pass


def spawn(job, deadline_s):
    """Run one worker; returns (set-up seconds, ready line, result or None)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    payload = json.dumps(job)
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        text=True,
    )
    watchdog = threading.Timer(deadline_s, proc.kill)
    watchdog.start()
    try:
        proc.stdin.write(payload)
        proc.stdin.close()
        line = proc.stdout.readline()
        setup_s = perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not line:
        raise BenchError("worker exited with code %s" % code)
    ready = json.loads(line)
    result = json.loads(rest.strip().splitlines()[-1]) if job["mode"] == "run" else None
    return setup_s, ready, result


def describe(raw_rounds, latencies):
    """Op count, input-size distribution, share of negative inputs (no
    proof, no reading) and median latency per input class.  A class is the
    search group and family size, else the input size."""
    ops = [op for ops_of_round in raw_rounds for op in ops_of_round]
    sizes = Counter(op["size"] for op in ops)
    negative = [op for op in ops if op.get("provable", op.get("reading", True)) is False]
    by_class = {}
    for op, lat in zip(ops, latencies):
        key = "%s-%s" % (op["group"], op.get("k", op["size"])) if "group" in op else str(op["size"])
        by_class.setdefault(key, []).append(lat)
    return {
        "ops": len(ops),
        "sizes": {str(k): sizes[k] for k in sorted(sizes)},
        "negative_share": len(negative) / len(ops),
        "class_p50_ms": {k: statistics.median(v) * 1e3 for k, v in sorted(by_class.items())},
    }


def timings(lat):
    """The latency metrics of a list of op latencies in seconds."""
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3,
    }


def digest_failures(expected, got):
    """Indices (in run order) of ops whose digest differs from the record."""
    flat_expected = [d for r in expected for d in r]
    flat_got = [d for r in got for d in r]
    return [i for i, (want, have) in enumerate(zip(flat_expected, flat_got)) if want != have]


def make_job(workload, inputs, mode, trace, digests, trace_path=None):
    return {
        "workload": workload,
        "inputs": inputs,
        "workdir": OUT,
        "mode": mode,
        "trace": trace,
        "digests": digests,
        "trace_path": trace_path,
    }


def load_spec():
    """BENCHMARK.json: the names and units of the metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def measure(args, inputs, started):
    digest_path = os.path.join(DIGESTS, args.workload + ".json")
    expected = None
    if args.seed == DEFAULT_SEED and os.path.exists(digest_path):
        with open(digest_path, encoding="utf-8") as handle:
            expected = json.load(handle)["digests"]
    record = expected is not None

    def remaining():
        return max(1.0, WORKER_TIMEOUT_S - (perf_counter() - started))

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "rounds": len(inputs["rounds"]),
            "python": sys.version.split()[0], "cpus": os.cpu_count()}
    if args.trace:
        trace_path = os.path.join(OUT, "trace-%s-seed%d.json" % (args.workload, args.seed))
        job = make_job(args.workload, inputs, "run", 1, record, trace_path=trace_path)
        _, ready, traced = spawn(job, remaining())
        _, _, untraced = spawn(make_job(args.workload, inputs, "run", 0, False), remaining())
        results = [traced]
        lat = traced["latencies_s"]
        values = dict(traced["layers"])
        values["setup.import_s"] = ready["import_s"]
        values["setup.parse_s"] = ready["parse_s"]
        values["trace.overhead_frac"] = traced["elapsed_s"] / untraced["elapsed_s"] - 1.0
        values["trace.spans"] = traced["spans"] / max(len(lat), 1)
        # a layer the workload does not reach has no figures and reads 0
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in load_spec()["per_layer"]}
        info["trace_file"] = os.path.relpath(trace_path, ROOT)
        info["untraced_s"] = untraced["elapsed_s"]
        info["traced_s"] = traced["elapsed_s"]
    else:
        setups, results = [], []
        for n in range(SETUPS):
            mode = "run" if n >= SETUPS - REPEATS else "setup"
            setup_s, ready, result = spawn(make_job(args.workload, inputs, mode, 0, record),
                                           remaining())
            setups.append(setup_s)
            if result is not None:
                results.append(result)
        # an op's latency is the least of its timings in the repeats
        raw = [min(ts) for ts in zip(*(r["latencies_s"] for r in results))]
        lat = [min(ts) for ts in zip(*(scaled(r["latencies_s"], r["calibration_s"])
                                       for r in results))]
        values = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in results) / 1024.0,
            **timings(lat),
        }
        info["raw"] = timings(raw)
        info["calibration_median_s"] = [statistics.median(r["calibration_s"]) for r in results]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in load_spec()["end_to_end"]}
        info["setup_runs_s"] = setups
        info["import_s"] = ready["import_s"]
        info["parse_s"] = ready["parse_s"]

    failed = set()
    for result in results:
        failed.update(result["failed_ops"])
        if record:
            mismatched = digest_failures(expected, result["digests"])
            info["digest_mismatches"] = info.get("digest_mismatches", 0) + len(mismatched)
            failed.update(mismatched)
    attempted = len(lat)
    info["elapsed_s"] = [r["elapsed_s"] for r in results]
    info.update(describe(inputs["rounds"], lat))
    info["failed_ops_frac"] = len(failed) / attempted
    info["failed_op_indices"] = sorted(failed)[:20]
    print("info " + json.dumps(info, sort_keys=True))
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }


def record_digests(args, inputs):
    _, _, result = spawn(make_job(args.workload, inputs, "run", 0, True), 3600)
    if result["failed_ops"]:
        raise BenchError("ops failed while recording digests: %s" % result["failed_ops"][:20])
    os.makedirs(DIGESTS, exist_ok=True)
    path = os.path.join(DIGESTS, args.workload + ".json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "digests": result["digests"]},
                  handle, indent=0)
        handle.write("\n")
    print("wrote %s (%d rounds)" % (os.path.relpath(path, ROOT), len(result["digests"])))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=GENERATORS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    started = perf_counter()
    if not os.path.isdir(os.path.join(SRC, "dcalc")):
        print("error: no dcalc package under %s; run from a checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    module, function = GENERATORS[args.workload]

    os.makedirs(OUT, exist_ok=True)
    rounds = max(1, round(args.seconds * ROUNDS_PER_SECOND[args.workload] / REPEATS))
    inputs = getattr(importlib.import_module(module), function)(args.seed, rounds)
    if args.record_digests:
        if args.seed != DEFAULT_SEED:
            print("error: digests are recorded for seed %d only" % DEFAULT_SEED, file=sys.stderr)
            return 2
        record_digests(args, inputs)
        return 0
    try:
        out = measure(args, inputs, started)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
