"""Host-speed normalisation of wall times.

On a shared host the machine's speed changes in phases lasting seconds.
On a shared 2-core Xeon, the median latency of the same baseline-k16 scenes
moved between 13 and 22 ms from one 10 s window to the next, with CPU time
equal to wall time. Every wall time moves together in such a phase, so
run-to-run spreads of raw times reach 10-30%.

:class:`HostProbe` is a fixed kernel owned by the benchmark that never calls
``lcapa``. The workloads run it between units of work. Each timed segment of
program work is reported *host-normalised*: its wall time multiplied by
``REFERENCE_S`` over the median probe time among the ``WINDOW`` probes
nearest to it. A program change moves only the numerator. The probe mixes
the kinds of work the layers do:

- small matmuls with elementwise ops (the GNN at small batch);
- complex exponentials over a 2048-point grid (channel sampling);
- a loop of tiny numpy calls (per-call overhead);
- a 16x16 Hermitian eigensolve (WMMSE).

Over 30 s windows on that host this cut the spread of the median latency
from 0.13-0.16 to 0.015-0.04 of its value.
"""

from __future__ import annotations

import time
from array import array

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

clock = time.perf_counter


HOT_PROBES = 60           # probes run back to back by hot_median_ms; the first ...
HOT_WARMUP = 10           # ... ten are dropped as warm-up
# Post-run over pre-import hot medians beyond this factor (either way) flag
# the run.  Host phases alone moved the ratio over 0.47-1.90 in 60 runs on
# the reference host (ORIGIN.md), so only a larger slowdown is flagged.
PROBE_DRIFT_LIMIT = 2.0


def hot_median_ms() -> float:
    """Median time (ms) of a fresh probe run ``HOT_PROBES`` times back to back."""
    probe = HostProbe()
    for _ in range(HOT_PROBES):
        probe()
    return 1e3 * float(np.median(probe.durations[HOT_WARMUP:]))


def drift(pre_import_ms: float, post_run_ms: float) -> dict:
    """Record fields comparing the hot probe before ``import lcapa`` and after the run.

    The in-run probe shares the process with the program, so a change that
    slows the whole process cancels out of the normalised metrics.  The two
    hot batches differ only in that the package is loaded and has run.
    """
    ratio = post_run_ms / pre_import_ms
    return {"probe_pre_import_ms": pre_import_ms, "probe_post_run_ms": post_run_ms,
            "probe_drift": ratio,
            "probe_drift_flag": not 1 / PROBE_DRIFT_LIMIT <= ratio <= PROBE_DRIFT_LIMIT}


class HostProbe:
    REFERENCE_S = 0.6e-3     # about the probe's median time on the host above
    WINDOW = 25

    def __init__(self):
        rng = np.random.default_rng(0)
        self._w = rng.standard_normal((64, 64)) / 8.0
        self._x = rng.standard_normal((16, 64))
        self._points = rng.standard_normal((2048, 3))
        a = rng.standard_normal((16, 16))
        self._h = a @ a.T
        self.ends = array("d")
        self.durations = array("d")

    def __call__(self) -> None:
        start = clock()
        y = self._x
        for _ in range(6):
            y = y @ self._w
            y = np.where(y > 0.0, y, 0.2 * y)
        d = np.linalg.norm(self._points - (20.0, 5.0, 3.0), axis=1)
        np.sum(np.exp(-587j * d) / d)
        for i in range(40):
            float(np.sum(self._x[i % 16, :8]))
        np.linalg.eigh(self._h)
        end = clock()
        self.ends.append(end)
        self.durations.append(end - start)

    def factors(self, at) -> np.ndarray:
        """``REFERENCE_S`` over the local probe time, at each instant in ``at``."""
        d = np.asarray(self.durations)
        k = min(self.WINDOW, len(d))
        local = np.median(sliding_window_view(
            np.pad(d, (k // 2, k - 1 - k // 2), mode="edge"), k), axis=1)
        idx = np.clip(np.searchsorted(self.ends, at), 0, len(d) - 1)
        return self.REFERENCE_S / local[idx]
