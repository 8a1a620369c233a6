"""Verdict records, the run loop and the end-to-end metrics."""

from __future__ import annotations

import itertools
import math
import resource
import statistics
import time
from dataclasses import dataclass, field

TAIL_QUANTILE = 0.75  # a run has at least 40 verdict times, so ten lie beyond it
SETUP_REPEATS = 3     # set-up is repeated and its median reported


@dataclass
class Verdict:
    """One timed verdict: its kind, wall time and the checks that failed.

    `known_fault` names the one check that is allowed to fail because of
    a known fault in the program; any other failed check makes the run
    incorrect.
    """

    kind: str
    seconds: float
    failures: list = field(default_factory=list)
    known_fault: str | None = None
    info: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.failures)

    @property
    def expected(self) -> bool:
        return all(f == self.known_fault for f in self.failures)


class Checks:
    """Collects the names of failed checks for one verdict."""

    def __init__(self):
        self.failures = []

    def __call__(self, name: str, ok) -> bool:
        if not ok and name not in self.failures:
            self.failures.append(name)
        return bool(ok)

    def close(self, name: str, value, ref, rtol: float) -> bool:
        ok = math.isfinite(value) and abs(value - ref) <= rtol * max(abs(ref), 1e-300)
        return self(name, ok)


def timed(fn, *args, **kwargs):
    """(result, seconds, exception) of one call."""
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # a raising verdict is a failed verdict, not a crash
        return None, time.perf_counter() - t0, exc
    return out, time.perf_counter() - t0, None


def median_setup(build, repeats: int = SETUP_REPEATS):
    """Run `build` several times; return its last result and the median seconds."""
    times, out = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = build()
        times.append(time.perf_counter() - t0)
    return out, statistics.median(times)


def run_rounds(items, run_one, seconds: float, min_rounds: int) -> list:
    """Whole rounds over `items`, in order, until `seconds` have passed and
    at least `min_rounds` rounds are done; every verdict of every round."""
    verdicts = []
    start = time.perf_counter()
    for done in itertools.count(1):
        verdicts.extend(run_one(item) for item in items)
        if time.perf_counter() - start >= seconds and done >= min_rounds:
            return verdicts


def tail(values, q: float = TAIL_QUANTILE) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def end_to_end(times, setup_s: float, peak_rss_mb: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (len(times) / sum(times), "1/s"),
        "verdict_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "verdict_tail_ms": (tail(times) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
