"""In-memory span tracer around the public functions of the ``lcapa`` layers.

The package re-exports with ``from .x import y``, so one function object is
bound in several namespaces (``gram_pair`` lives in ``lcapa.quadrature`` and
is also a global of ``lcapa.wmmse``, ``lcapa.training`` and
``lcapa.objective``).  :meth:`Tracer.install` therefore replaces the function
in *every* ``lcapa`` module that binds it; methods (``Adam.step``) and
classmethods (``ScenePool.generate``) are replaced on their class.  Nothing
under ``src/lcapa`` is edited, and :meth:`Tracer.uninstall` restores every
binding.

Each call records a span ``[id, parent_id, name, start, end]`` (parent -1 at
the top level).  A span's self time is its duration minus the durations of
its direct children; calls are single-threaded and properly nested, so the
children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter

# Modules whose namespaces are searched for bindings of a traced function.
LCAPA_MODULES = ("lcapa", "lcapa.scene", "lcapa.quadrature", "lcapa.objective",
                 "lcapa.wmmse", "lcapa.gnn", "lcapa.heads", "lcapa.optim",
                 "lcapa.training", "lcapa.experiments", "lcapa.cli")


def _gram_pair_gflop(counters, args, kwargs, result):
    # Two K x K Grams, K(K+1)/2 pairs each, 8 real flops per complex term.
    k, m = args[0].shape
    counters["quadrature.gram_pair.gflop"] += 8.0 * m * k * (k + 1) / 1e9


def _gnn_matmul_flops(spec, n: int, k: int) -> float:
    """Real flops of the dense products in one forward pass over (N, K)."""
    flops = 0.0
    for t in range(spec.transitions):
        dv_in, dv_out = spec.vertex_widths[t], spec.vertex_widths[t + 1]
        de_in, de_out = spec.edge_widths[t], spec.edge_widths[t + 1]
        flops += 2.0 * n * k * dv_out * (2 * dv_in + 2 * de_in)
        if de_out > 0:
            flops += 2.0 * n * k * k * de_out * de_in
            flops += 2.0 * 2 * n * k * dv_in * de_out
            if spec.edge_aggregation:
                flops += 2.0 * n * k * k * de_out * de_in
    return flops


def _gnn_forward_gflop(counters, args, kwargs, result):
    n, k = args[2].shape[:2]
    counters["gnn.gnn_forward.gflop"] += _gnn_matmul_flops(args[0], n, k) / 1e9


def _gnn_backward_gflop(counters, args, kwargs, result):
    # Weight gradients and input gradients each repeat the forward products.
    n, k = args[2].d_inputs[0].shape[:2]
    counters["gnn.gnn_backward.gflop"] += 2.0 * _gnn_matmul_flops(args[0], n, k) / 1e9


def _baseline_counts(counters, args, kwargs, result):
    counters["wmmse.iterations"] += result.info.iterations
    counters["wmmse.converged"] += int(result.info.converged)


def _skipped_batches(counters, args, kwargs, result):
    counters["training.skipped_batches"] += result[1].skipped_batches


def _checkpoint_bytes(counters, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counters["training.save_checkpoint.bytes"] += os.path.getsize(path)


# (module, attribute path, counter hook).  The traced name of each entry is
# "<module>.<attribute path>", e.g. "optim.Adam.step".
TRACED = (
    ("scene", "sample_scene", None),
    ("scene", "channel_response", None),
    ("quadrature", "build_grid", None),
    ("quadrature", "channel_matrix", None),
    ("quadrature", "gram_pair", _gram_pair_gflop),
    ("quadrature", "integral_power", None),
    ("quadrature", "integral_couplings", None),
    ("objective", "project_weights", None),
    ("objective", "sinr_vector", None),
    ("objective", "sum_se", None),
    ("wmmse", "baseline_se", _baseline_counts),
    ("wmmse", "wmmse_precoding", None),
    ("wmmse", "lift_precoder", None),
    ("gnn", "gnn_forward", _gnn_forward_gflop),
    ("gnn", "gnn_backward", _gnn_backward_gflop),
    ("heads", "policy_forward", None),
    ("heads", "policy_backward", None),
    ("heads", "proj_forward", None),
    ("heads", "proj_backward", None),
    ("heads", "value_forward", None),
    ("heads", "value_backward", None),
    ("optim", "Adam.step", None),
    ("training", "gen_supervised_dataset", None),
    ("training", "ScenePool.generate", None),
    ("training", "train_supervised", None),
    ("training", "train_policy", _skipped_batches),
    ("training", "surrogate_chain_loss_and_grads", None),
    ("training", "exact_policy_se", None),
    ("training", "save_checkpoint", _checkpoint_bytes),
    ("training", "load_checkpoint", None),
)

TRACED_NAMES = tuple(f"{mod}.{attr}" for mod, attr, _ in TRACED)


class Tracer:
    """Records nested spans and counters while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    # -- recording -----------------------------------------------------------
    def _wrap(self, name, fn, hook):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, clock(), 0.0]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [importlib.import_module(m) for m in LCAPA_MODULES]
        for mod, attr, hook in TRACED:
            name = f"{mod}.{attr}"
            owner = importlib.import_module(f"lcapa.{mod}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self.originals[name] = raw.__func__
                    self._set(cls, meth, classmethod(self._wrap(name, raw.__func__, hook)))
                else:
                    self.originals[name] = raw
                    self._set(cls, meth, self._wrap(name, raw, hook))
                continue
            original = getattr(owner, attr)
            self.originals[name] = original
            wrapped = self._wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- summaries -----------------------------------------------------------
    def self_times(self) -> list[float]:
        """Self time (seconds) of every span, indexed by span id."""
        out = [end - start for _, _, _, start, end in self.spans]
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def layer_table(self, scale=None) -> dict[str, dict[str, float]]:
        """Per traced name: number of calls and summed self time in ms.

        ``scale`` optionally weights each span's self time (one factor per span).
        """
        table = {name: {"calls": 0, "self_ms": 0.0} for name in TRACED_NAMES}
        self_s = self.self_times()
        if scale is not None:
            self_s = [s * f for s, f in zip(self_s, scale)]
        for span, s in zip(self.spans, self_s):
            row = table[span[2]]
            row["calls"] += 1
            row["self_ms"] += 1e3 * s
        return table

    def dump(self, path: str) -> None:
        """Write every span as one JSON line ``[id, parent, name, start, end]``."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

