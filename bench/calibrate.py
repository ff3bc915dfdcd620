"""Host speed calibration for the end-to-end times.

On the shared 2-core host the benchmark was tuned on, CPU speed changes by
30 to 50 % for seconds to minutes at a time, and a fixed pure-Python loop
slows by the same factor as the program's requests.  Wall times taken a
few minutes apart then differ more than any bound a regression check could
use.  So every timed interval is paired with runs of a fixed loop that does
not touch lipgames, and the interval is scaled by ``REFERENCE_S`` over the
loop's time around it: the end-to-end times read as times on a host where
the loop takes ``REFERENCE_S``.  A change that slows the program still
slows the scaled time by the same share; only the host's drift cancels.
The unscaled times are printed beside them.
"""

from __future__ import annotations

import statistics
import time

#: About the loop's time at full speed on the 2-core tuning host.
REFERENCE_S = 1.8e-3
#: Loop times around a sample that give its host speed (centred window).
WINDOW = 5


def loop_seconds() -> float:
    """Time one run of the fixed calibration loop.

    Integer arithmetic, then tuple keys counted in a dict and sorted: the
    interpreter work the program's pure-Python paths do.  Nothing is
    imported, so the loop adds no module to the worker's memory.
    """
    start = time.perf_counter()
    total = 0
    for i in range(12_000):
        total += i * i % 7
    counts: dict = {}
    for i in range(1_500):
        key = (i % 97, i % 13, str(i % 50))
        counts[key] = counts.get(key, 0) + 1
    total += len(sorted(counts.items(), key=lambda item: (item[1], item[0][1])))
    return time.perf_counter() - start


def scale(samples: list[float], loops: list[float], window: int = WINDOW) -> list[float]:
    """Each sample times ``REFERENCE_S`` over the median loop time of the
    ``window`` loops centred on it; ``loops[i]`` was timed next to ``samples[i]``."""
    half = window // 2
    return [sample * REFERENCE_S / statistics.median(loops[max(0, i - half):i + half + 1])
            for i, sample in enumerate(samples)]
