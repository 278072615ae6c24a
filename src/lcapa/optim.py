"""Adaptive-moment first-order optimizer over GNN parameter trees."""

from __future__ import annotations

import numpy as np

from .gnn import GnnParams


class Adam:
    """Standard adaptive moment estimation on a :class:`GnnParams` tree.

    m <- b1 m + (1 - b1) g ;  v <- b2 v + (1 - b2) g^2 ;
    p <- p - lr * m_hat / (sqrt(v_hat) + eps)  with bias-corrected moments.
    Updates are applied in place.

    Adam is elementwise, so the moments live in one flat array each, in the
    tree's :meth:`~lcapa.gnn.GnnParams.iter_arrays` order.  Each step copies
    the gradient tree into one flat array and evaluates the update in one
    pass over every parameter; each parameter array then subtracts its
    slice in place.  The arithmetic per element is that of a per-array
    loop, so the results are bit-identical to one.  A gradient tree whose
    array names or shapes differ from the parameters' raises
    :class:`ValueError` before any state changes.
    """

    def __init__(self, params: GnnParams, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        named = list(params.iter_arrays())
        self._layout = [(name, arr.shape) for name, arr in named]
        self._arrays = [arr for _, arr in named]
        ends = np.cumsum([arr.size for arr in self._arrays]).tolist()
        self._slices = [slice(lo, hi) for lo, hi in zip([0] + ends, ends)]
        self._m = np.zeros(ends[-1])
        self._v = np.zeros(ends[-1])

    def _check_layout(self, layout) -> None:
        if layout == self._layout:
            return
        for i, want in enumerate(self._layout):
            if i >= len(layout):
                raise ValueError(f"gradient tree has no array {want[0]}")
            if layout[i] != want:
                raise ValueError(
                    f"gradient array {layout[i][0]} {layout[i][1]} does not "
                    f"match parameter {want[0]} {want[1]}")
        raise ValueError(
            f"gradient tree has an extra array {layout[len(self._layout)][0]}")

    def step(self, grads: GnnParams) -> None:
        named = list(grads.iter_arrays())
        self._check_layout([(name, g.shape) for name, g in named])
        g = np.concatenate([arr.ravel() for _, arr in named])
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        update = self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
        for p, part in zip(self._arrays, self._slices):
            p -= update[part].reshape(p.shape)
