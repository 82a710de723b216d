"""Machine-speed reference used to rescale the benchmark's timings.

On a shared virtual machine with 2 Xeon vCPUs and a 105 MB L3, the
speed of the same code changes by up to 2x within tens of seconds, and
CPU time moves with wall time, so raw medians differ by 30-50% between
runs. A fixed pure-Python task (BFS over a fixed 3,000-node tree, the
kind of interpreter work taxovec does) is timed before an op, at most
every REF_INTERVAL_S; each timing is rescaled by REF_NOMINAL_S over the
median reference time around it. On that VM this cut the spread of
10-second medians from about 45% to about 3%. A reference of a few
milliseconds tracks the ops' slowdowns one to one, where a
sub-millisecond one overstated them by about 30%. Reported times are
thus seconds at the reference speed; the raw reference time is reported
next to them.

The reference code lives here, not in taxovec, so no change to the
program under test can move it.
"""

from __future__ import annotations

import time

import numpy as np

import gen

REF_NODES = 3000
REF_REPEATS = 8  # BFS runs per reference sample
REF_NOMINAL_S = 0.0005  # one BFS on that VM at its fast state
REF_WINDOW = 9  # reference samples around a timing that set its scale
REF_INTERVAL_S = 0.1


class SpeedRef:
    def __init__(self):
        # a fixed seed: the reference must not change with the workload seed
        self.adj = gen.undirected(gen.make_dag(np.random.default_rng(0), REF_NODES))
        self.stamps: list[float] = []
        self.secs: list[float] = []
        self._arrays: tuple[np.ndarray, np.ndarray] | None = None

    def measure(self) -> None:
        """Take a reference sample unless one is under REF_INTERVAL_S old."""
        t0 = time.perf_counter()
        if self.stamps and t0 - self.stamps[-1] < REF_INTERVAL_S:
            return
        for _ in range(REF_REPEATS):
            gen.bfs(self.adj, 0)
        self.stamps.append(t0)
        self.secs.append((time.perf_counter() - t0) / REF_REPEATS)
        self._arrays = None

    def factor(self, t: float) -> float:
        """REF_NOMINAL_S over the median of the REF_WINDOW reference times nearest t."""
        if self._arrays is None:
            self._arrays = np.asarray(self.stamps), np.asarray(self.secs)
        stamps, secs = self._arrays
        pos = int(np.searchsorted(stamps, t))
        lo = max(0, min(pos - REF_WINDOW // 2, len(secs) - REF_WINDOW))
        return REF_NOMINAL_S / float(np.median(secs[lo:lo + REF_WINDOW]))

    def median_ms(self) -> float:
        return 1e3 * float(np.median(self.secs))
