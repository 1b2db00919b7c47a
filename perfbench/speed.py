"""The reference speed that the benchmark's timings are given at.

The benchmark runs on a share of a host whose speed changes by 15-30 % in
steps that last from seconds to minutes.  So a fixed calibration loop is
timed next to every op, and each op's time is scaled by
``CALIBRATION_REF_S`` over the median of the calibrations nearest to it.  A
scaled time is the time the same work takes on a machine where the loop
takes ``CALIBRATION_REF_S``.

The loop is gen.py's own term code on fixed terms.  It does not touch the
program under test, so no change to the program changes it, but it does the
same kind of work (nested tuples, recursion, small lists), so that its time
follows the machine's speed as the program's does.
"""

from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter

import gen

# Seconds the loop takes at the reference speed, about the usual speed of
# the 2-CPU machine the baseline was recorded on.
CALIBRATION_REF_S = 0.00075
# Calibrations on either side of a time that give its speed.
CALIBRATION_WINDOW = 6

_rng = random.Random("calibration")
CALIBRATION_TERMS = [gen.random_term(_rng, list(gen.LEAF_PATTERN[:14])) for _ in range(10)]


def _loop():
    for term in CALIBRATION_TERMS:
        gen.flat(term)
        gen.term_text(term)
    for path in gen.leaf_paths(CALIBRATION_TERMS[0]):
        gen.extraction_index(CALIBRATION_TERMS[0], path)


def calibrate() -> float:
    """Seconds the loop takes now.  An untimed first pass brings the loop's
    data into the caches, so that what the program left there does not
    count; the garbage collector is off, so that the program's heap does
    not count either."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _loop()
        start = perf_counter()
        _loop()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(times, calibrations):
    """`times` at the reference speed.  calibrations[i] was taken just
    before times[i], and one more after the last."""
    out = []
    for i, t in enumerate(times):
        near = calibrations[max(0, i - CALIBRATION_WINDOW + 1) : i + CALIBRATION_WINDOW + 1]
        out.append(t * CALIBRATION_REF_S / statistics.median(near))
    return out
