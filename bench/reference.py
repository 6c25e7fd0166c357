"""A fixed pure-Python reference loop, timed beside the workload.

The machine this benchmark runs on shares its cores with others, and the
speed of one core drifts by 10-40% over seconds to minutes.  The
benchmark therefore times this loop in the same process as the work it
measures, interleaved with it, and reports every time in *reference
seconds*: measured time x scale(measured time of one unit of this loop).
A time in reference seconds is what the work would take on a machine
where one unit takes REF_SECONDS; the raw times stay in the detail line.

The loop does not import circwords, so no change to the package moves
it.  It does what the package does, in small: slices circular binary
words, counts their factors in dicts, splits them into runs and builds
small frozen records, over a fixed set of words.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from random import Random

#: About the median time of one unit on the machine the benchmark was
#: calibrated on (2-vCPU Intel Xeon virtual machine, CPython 3.11.7), in
#: seconds.
REF_SECONDS = 0.02

#: How much the package's ops slow down per unit of slow-down of this
#: loop, on a log scale: on the machine above, the slope of log(op time)
#: on log(unit time) between the passes of one run was 0.74 to 0.79 on
#: every workload.
#: It only sets how much of the machine's speed change is cancelled; at a
#: fixed machine speed a time in reference seconds is proportional to the
#: measured time, so a change to the package moves it in full.
SPEED_EXPONENT = 0.75

_rng = Random(20161)
_WORDS = tuple(tuple(_rng.getrandbits(1) for _ in range(8 + i % 24)) for i in range(1000))
del _rng


@dataclass(frozen=True)
class _Run:
    letter: int
    start: int
    length: int


def _unit() -> int:
    total = 0
    for w in _WORDS:
        n = len(w)
        doubled = w + w[:3]
        counts: dict[tuple[int, ...], int] = {}
        for i in range(n):
            f = doubled[i : i + 4]
            counts[f] = counts.get(f, 0) + 1
        runs = []
        start = 0
        for i in range(1, n + 1):
            if i == n or w[i] != w[start]:
                runs.append(_Run(w[start], start, i - start))
                start = i
        total += counts.get((0, 0, 1, 1), 0) - counts.get((1, 1, 0, 0), 0)
        total += sum(r.length * (r.letter + 1) for r in runs) % 7
    return total


#: The result of one unit; a unit that returns anything else is broken.
UNIT_RESULT = _unit()


def unit_seconds(units: int) -> list[float]:
    """Seconds of each of `units` timed units of the loop."""
    times = []
    for _ in range(units):
        start = time.perf_counter()
        result = _unit()
        times.append(time.perf_counter() - start)
        if result != UNIT_RESULT:
            raise AssertionError("reference loop gave a different result")
    return times


def median_unit_seconds(units: int) -> float:
    return statistics.median(unit_seconds(units))


def scale(unit_s: float) -> float:
    """Factor from measured seconds to reference seconds, given the unit's time."""
    return (REF_SECONDS / unit_s) ** SPEED_EXPONENT
