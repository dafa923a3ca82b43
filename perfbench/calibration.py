"""Host-speed calibration for the ``host_*`` metrics.

A shared host changes speed by up to 1.7x within a minute (measured on a
2-core host: medians of 25 consecutive samples of a pure-Python loop ranged
over 1.66x in 60 s), so raw wall times of runs made minutes apart are not
comparable. Every timed call is therefore bracketed by a fixed calibration
loop, and its wall time is rescaled to the speed at which that loop takes
:data:`REFERENCE_S`. In that 60-s trial the ratio of a B+tree search loop's
time to the calibration time varied by 2% (CV of 25-sample medians) against
19% for the raw time.

One calibration sample is too short to be exact, so the speed used for a
timed call is the median of the samples nearest to it in time
(:data:`WINDOW` on each side): the host's speed drifts over seconds, much
slower than that window spans.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: seconds the calibration loop takes at the reference speed (its median
#: over 30 s on the 2-core host the benchmark was tuned on)
REFERENCE_S = 4.5e-3
#: calibration samples on each side of a timed call that set its speed
WINDOW = 8


def _loop() -> int:
    table: dict[int, int] = {}
    items: list[int] = []
    acc = 0
    for i in range(18000):
        table[i & 511] = i
        acc += table.get((i * 7) & 511, 0)
        if i & 7 == 0:
            items.append(acc & 0xFFFF)
    return acc + len(items)


def calibrate() -> float:
    """Seconds the calibration loop takes now."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


@dataclass
class Timing:
    wall_s: float = 0.0
    #: index of the calibration sample taken just before the call
    cal: int = 0


class HostSpeed:
    """The calibration samples of one run, in time order."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    @contextmanager
    def timed(self):
        """Time the enclosed block, with a calibration sample on each side."""
        timing = Timing(cal=len(self.samples))
        self.samples.append(calibrate())
        t0 = time.perf_counter()
        try:
            yield timing
        finally:
            timing.wall_s = time.perf_counter() - t0
            self.samples.append(calibrate())

    def normalized(self, wall_s: float, cal: int) -> float:
        """``wall_s``, timed after calibration sample ``cal``, rescaled to
        the reference speed."""
        near = self.samples[max(0, cal - WINDOW + 1) : cal + 1 + WINDOW]
        return wall_s * REFERENCE_S / statistics.median(near)
