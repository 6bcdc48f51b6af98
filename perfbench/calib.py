"""Times at a fixed reference speed.

Other tenants of a shared host slow this machine by up to a half, in
spells that last from seconds to minutes, so raw times of one run can
differ from the next by more than any bound worth setting. A fixed piece
of pure-Python work, `reference()`, slows down in step with the library:
over a minute of such spells, the ratio of a library call's time to the
reference time measured next to it stayed within 2% on 10 s windows
while the raw time moved by 45%.

Every time the benchmark reports is therefore scaled by
REFERENCE_S / (reference time measured around it): the time the op would
take when `reference()` takes REFERENCE_S. The unit stays seconds.
Deadlines are set in the same unit.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

# a typical reading of reference() on the machine the baseline was
# measured on (2 vCPUs, Python 3.11.7)
REFERENCE_S = 0.005
PROCESS_REFERENCE_S = 0.1
WINDOW = 6  # reference measurements a segment's scale is the median of
SEGMENT_S = 0.25  # raw seconds of ops between two reference measurements

# For ops that are whole processes (CLI requests, set-up probes): start an
# interpreter, import stdlib modules the CLI imports, and do a little
# Fraction work. Most of a request is process start and imports, which
# the in-process kernel tracks poorly.
_PROCESS_CODE = """\
import argparse, dataclasses, fractions, itertools, json, math, re
acc = fractions.Fraction(0)
for i in range(1, 4000):
    acc += fractions.Fraction(i % 7 + 1, i % 11 + 2)
"""


def _kernel() -> None:
    # the library's mix: Fraction arithmetic, small tuples as dict keys,
    # Euclid-style integer loops
    acc = Fraction(0)
    seen: dict = {}
    for i in range(1, 800):
        acc += Fraction(i % 7 + 1, i % 11 + 2)
        key = tuple(range(i % 5 + 3))
        seen[key] = seen.get(key, 0) + i
    for _ in range(40):
        a, b = 10007, 3001
        while b:
            a, b = b, a % b


def reference() -> float:
    """Seconds taken by the fixed work, the fastest of three tries."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t0)
    return best


def process_reference() -> float:
    """Seconds taken by a fixed stdlib-only child process."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", _PROCESS_CODE], check=True, capture_output=True)
    return perf_counter() - t0


class Calibrated:
    """Scales op times by the reference time measured around them.

    Ops are collected in segments of at least SEGMENT_S raw seconds, with
    a reference measurement between segments. Each segment is scaled by
    `reference_s` over the median of the WINDOW measurements around it:
    spells of contention last seconds, while one measurement of a few
    milliseconds can be off by a tenth.
    """

    def __init__(self, ref=reference, reference_s: float = REFERENCE_S) -> None:
        self.ref = ref
        self.reference_s = reference_s
        self.readings = [ref()]
        self.segments: list[list] = [[]]  # segment i lies between readings i and i + 1
        self.pending_s = 0.0

    @property
    def slowdown(self) -> float:
        """How much slower than the reference speed the machine ran lately."""
        return statistics.median(self.readings[-WINDOW:]) / self.reference_s

    def add(self, key, seconds: float) -> None:
        self.segments[-1].append((key, seconds))
        self.pending_s += seconds
        if self.pending_s >= SEGMENT_S:
            self.readings.append(self.ref())
            self.segments.append([])
            self.pending_s = 0.0

    def close(self) -> dict:
        """Every op's time at reference speed, by key."""
        if self.segments[-1]:
            self.readings.append(self.ref())
            self.segments.append([])
        times = {}
        half = WINDOW // 2
        for i, segment in enumerate(self.segments):
            window = self.readings[max(0, i + 1 - half): i + 1 + half]
            scale = self.reference_s / statistics.median(window)
            for key, seconds in segment:
                times[key] = seconds * scale
        return times
