"""Benchmark worker: one fresh process runs one workload.

It reads a job (JSON) on stdin, imports dcalc, parses the inputs and prints a
``ready`` line.  A set-up-only job stops there.  Otherwise it runs every round
of ops once, back to back, times the calibration loop of ``speed.py`` before
each op and after the last, and prints one JSON result line.  The parent sets
PYTHONPATH to the checkout's ``src``.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from time import perf_counter

from speed import calibrate

MAX_TRACEBACKS = 3


def main() -> int:
    job = json.load(sys.stdin)
    t0 = perf_counter()
    # import time is part of set-up: every module the ops use
    from dcalc import bridge, cli, hseq, mseq, syntax, terms  # noqa: F401

    t1 = perf_counter()
    import ops
    from spans import NullRecorder, Recorder

    workload = ops.WORKLOADS[job["workload"]]()
    rounds = workload.prepare(job["inputs"], job["workdir"])
    t2 = perf_counter()
    print(json.dumps({"ready": True, "import_s": t1 - t0, "parse_s": t2 - t1}), flush=True)
    if job["mode"] == "setup":
        _close(workload)
        return 0

    rec = Recorder() if job["trace"] else NullRecorder()
    if job["trace"]:
        for module, names in ops.TRACED_IMPORTS.items():
            rec.wrap_imports(module, names)
    layers = ops.bind_layers(rec)
    record = job["digests"]

    latencies, failed_ops, digests = [], [], []
    calibration = []  # one before each op and one after the last
    tracebacks = 0
    outside_s = 0.0  # digesting and calibrating are not part of the timed phase
    start = perf_counter()
    try:
        for ops_of_round in rounds:
            round_digests = []
            for op in ops_of_round:
                t = perf_counter()
                calibration.append(calibrate())
                outside_s += perf_counter() - t
                rec.op = len(latencies)
                t = perf_counter()
                try:
                    ok, detail = workload.run(op, layers, rec)
                except Exception:  # an undocumented failure counts as a failed op
                    ok, detail = False, None
                    if tracebacks < MAX_TRACEBACKS:
                        tracebacks += 1
                        traceback.print_exc()
                latencies.append(perf_counter() - t)
                if not ok:
                    failed_ops.append(len(latencies) - 1)
                if record:
                    t = perf_counter()
                    round_digests.append(workload.digest(detail) if detail is not None else None)
                    outside_s += perf_counter() - t
            if record:
                digests.append(round_digests)
        t = perf_counter()
        calibration.append(calibrate())
        elapsed = t - start - outside_s
    finally:
        _close(workload)

    result = {
        "elapsed_s": elapsed,
        "latencies_s": latencies,
        "calibration_s": calibration,
        "failed_ops": failed_ops,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "digests": digests,
    }
    if job["trace"]:
        result["layers"] = layer_metrics(rec, len(latencies))
        result["spans"] = len(rec.starts)
        rec.write(job["trace_path"], start)
    print(json.dumps(result))
    return 0


SELF_TIME = ("bridge.lift", "bridge.lower", "cli.main")
# metrics that are the call count of a span
CALL_COUNTS = {"mseq.structural_steps": "mseq.structural_step"}


def layer_metrics(rec, n_ops):
    """Per-op figures from the spans and counters of a traced run."""
    secs, calls = rec.totals()
    own = rec.self_times(SELF_TIME)
    per_op = max(n_ops, 1)
    out = {}
    for name in secs:
        out[name + ".s"] = secs[name] / per_op
        out[name + ".calls"] = calls[name] / per_op
    for name in SELF_TIME:
        out[name + ".self_s"] = own[name] / per_op
    for name, value in rec.counters.items():
        out[name] = value / per_op
    for metric, name in CALL_COUNTS.items():
        out[metric] = calls[name] / per_op
    return out


def _close(workload):
    close = getattr(workload, "close", None)
    if close is not None:
        close()


if __name__ == "__main__":
    sys.exit(main())
