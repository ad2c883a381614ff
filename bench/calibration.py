"""Machine-speed calibration for the benchmark's timings.

A shared host's speed can swing by a factor of two over seconds as other
tenants come and go (seen on a 2-core Intel Xeon VM).  So a fixed
pure-Python calibration loop runs between ops, at least every CAL_EVERY
seconds, and each op's wall time is scaled by REFERENCE_CAL_S over the
median of the nearby calibration times: timings are reported at a
reference machine speed, where the loop takes REFERENCE_CAL_S.  The loop
never calls the program, so a change to the program moves the scaled
figures as it moves the raw ones.
"""

from __future__ import annotations

import statistics
import time

CAL_ROUNDS = 1000
CAL_EVERY = 0.02
CAL_WINDOW = 5  # calibrations on each side of an op's own
REFERENCE_CAL_S = 0.002
_CAL_NAMES = [f"v{i}" for i in range(24)]


def calibration_loop() -> float:
    """Time of fixed work resembling the program's: sorted tuples of
    names as keys, dict updates, sorting with a key, a filtered rebuild."""
    start = time.perf_counter()
    table: dict[tuple, int] = {}
    for i in range(CAL_ROUNDS):
        key = tuple(sorted({_CAL_NAMES[i % 23], _CAL_NAMES[i % 19], _CAL_NAMES[i * 7 % 24]}))
        table[key] = table.get(key, 0) + i
    {k: v for k, v in sorted(table.items(), key=lambda kv: (len(kv[0]), kv[0])) if v}
    return time.perf_counter() - start


def speed_factors(cal: list[float]) -> list[float]:
    """REFERENCE_CAL_S over the local median calibration time."""
    return [
        REFERENCE_CAL_S / statistics.median(cal[max(0, i - CAL_WINDOW) : i + CAL_WINDOW + 1])
        for i in range(len(cal))
    ]
