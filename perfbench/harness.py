"""One benchmark run: set-up, timed phase, output checks, metrics.

An untraced run reports the end-to-end metrics; its timing metrics are
host-normalised (see :mod:`perfbench.hostprobe`) and the raw wall-clock
figures go into the run record.  A traced run (``trace``)
installs the :class:`~perfbench.tracer.Tracer` for set-up and for the first
half of its time budget; the second half runs untraced on the same inputs in
the same process, and the ratio of the two throughputs is the tracing
overhead (any warm-up cost falls on the traced half, so it is not hidden).
"""

from __future__ import annotations

import resource
import statistics
import time

import numpy as np

from .hostprobe import HostProbe
from .tracer import Tracer

SETUP_REPEATS = 3
SETUP_PROBES = 5          # probes run before and after each set-up


def measure(workload, seed: int, seconds: float, trace: bool,
            setup_repeats: int = SETUP_REPEATS, max_units: int = 10 ** 9,
            import_s: float = 0.0, trace_path: str | None = None) -> tuple[dict, dict]:
    """Run ``workload`` once; returns (result object, run record)."""
    tracer = Tracer()
    if trace:
        tracer.install()
    probe = HostProbe()
    setup_s, setup_factor = [], []
    for _ in range(setup_repeats):
        for _ in range(SETUP_PROBES):
            probe()
        t0 = time.perf_counter()
        workload.setup(seed)
        setup_s.append(time.perf_counter() - t0)
        for _ in range(SETUP_PROBES):
            probe()
        setup_factor.append(HostProbe.REFERENCE_S
                            / float(np.median(probe.durations[-2 * SETUP_PROBES:])))

    traced = None
    if trace:
        try:
            traced = workload.run(seconds / 2, 1, max_units, probe)
        finally:
            tracer.uninstall()
        outcome = workload.run(seconds / 2, 1, max_units, probe)
    else:
        outcome = workload.run(seconds, workload.min_units, max_units, probe)
    # Set-up and the timed phase only: the checks and the reference scorer
    # below are the benchmark's own work.
    peak_rss_mb = _peak_rss_mb()

    checks = workload.check()
    scores = workload.score()
    timing = _timing(outcome, probe, workload.tail_percentile)
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "units": outcome.units, "latency_samples": int(np.sum(outcome.is_unit)),
        "tail_percentile": workload.tail_percentile,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "error_rate": outcome.failed / max(outcome.attempted, 1),
        "checks": checks, "scored_scenes": scores["scored"],
        "import_s": import_s, "setup_runs_s": setup_s,
        "raw_setup_s": import_s + statistics.median(setup_s),
        "peak_rss_mb_after_checks": _peak_rss_mb(),
    }
    record.update(workload.facts())
    record.update({f"raw_{k}": v for k, v in timing["raw"].items()})
    record.update(probe_median_ms=1e3 * float(np.median(probe.durations)),
                  probes=len(probe.durations))
    if trace:
        overhead = (timing["normalized"]["scenes_per_s"]
                    / _timing(traced, probe, workload.tail_percentile)["normalized"]["scenes_per_s"])
        scale = probe.factors([span[3] for span in tracer.spans])
        metrics = _layer_metrics(tracer, scale, scores, overhead - 1.0)
        if trace_path:
            tracer.dump(trace_path)
        record["spans"] = len(tracer.spans)
    else:
        metrics = {
            "setup_s": (statistics.median((import_s + s) * f
                                          for s, f in zip(setup_s, setup_factor)), "s"),
            "scenes_per_s": (timing["normalized"]["scenes_per_s"], "1/s"),
            "latency_p50_ms": (timing["normalized"]["latency_p50_ms"], "ms"),
            "latency_tail_ms": (timing["normalized"]["latency_tail_ms"], "ms"),
            "sum_se": (scores["sum_se"], "bit/s/Hz"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    result = {
        "correct": bool(all(checks.values())),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timing(outcome, probe: HostProbe, tail_percentile: float) -> dict:
    """Throughput and unit latencies, host-normalised and raw."""
    seconds, unit = outcome.seconds, outcome.is_unit
    out = {}
    for kind, s in (("normalized", seconds * probe.factors(outcome.starts)),
                    ("raw", seconds)):
        lat_ms = 1e3 * s[unit]
        out[kind] = {"scenes_per_s": outcome.work / float(np.sum(s)),
                     "latency_p50_ms": float(np.percentile(lat_ms, 50)),
                     "latency_tail_ms": float(np.percentile(lat_ms, tail_percentile))}
    return out


def _layer_metrics(tracer: Tracer, scale, scores: dict, overhead_frac: float) -> dict:
    metrics = {}
    for name, row in tracer.layer_table(scale).items():
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.self_ms"] = (row["self_ms"], "ms")
    c = tracer.counters
    baseline_calls = sum(1 for s in tracer.spans if s[2] == "wmmse.baseline_se")
    metrics.update({
        "quadrature.gram_pair.gflop": (c["quadrature.gram_pair.gflop"], "GFLOP-computed"),
        "quadrature.se_abs_err": (scores.get("se_abs_err", 0.0), "bit/s/Hz"),
        "wmmse.iterations": (c["wmmse.iterations"], "count"),
        "wmmse.converged_frac": (c["wmmse.converged"] / max(baseline_calls, 1), "fraction"),
        "gnn.gnn_forward.gflop": (c["gnn.gnn_forward.gflop"], "GFLOP-computed"),
        "gnn.gnn_backward.gflop": (c["gnn.gnn_backward.gflop"], "GFLOP-computed"),
        "training.save_checkpoint.bytes": (c["training.save_checkpoint.bytes"], "bytes"),
        "training.skipped_batches": (c["training.skipped_batches"], "count"),
        "trace.overhead_frac": (overhead_frac, "fraction"),
    })
    return metrics

