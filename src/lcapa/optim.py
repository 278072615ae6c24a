"""Adaptive-moment first-order optimizer over GNN parameter trees."""

from __future__ import annotations

import numpy as np

from .gnn import GnnParams


class Adam:
    """Standard adaptive moment estimation on a :class:`GnnParams` tree.

    m <- b1 m + (1 - b1) g ;  v <- b2 v + (1 - b2) g^2 ;
    p <- p - lr * m_hat / (sqrt(v_hat) + eps)  with bias-corrected moments.
    Updates are applied in place.

    Adam is elementwise, and every tree keeps its arrays as views of one
    flat buffer (:attr:`GnnParams.flat`), so each step is one pass over the
    gradient buffer: the moments are flat arrays of the same layout, the
    update is formed in two preallocated scratch arrays, and the parameter
    buffer subtracts it in place.  The arithmetic per element is that of a
    per-array loop, so the results are bit-identical to one.  A tree's
    structure is fixed by type, so its arrays are always views of its flat
    buffer.  The gradient tree must be laid out as the parameters are
    (:attr:`GnnParams.layout`, as :func:`~lcapa.gnn.zeros_like_params` and
    the backward passes make it); any other raises :class:`ValueError`
    before any state changes.
    """

    def __init__(self, params: GnnParams, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        size = params.flat.size
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        self._scratch = np.empty((2, size))

    def step(self, grads: GnnParams) -> None:
        if grads.layout != self.params.layout:
            raise ValueError("gradient tree is laid out for another network")
        g = grads.flat
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        m, v = self._m, self._v
        s, r = self._scratch
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=s)
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=s)
        v += np.multiply(s, g, out=s)
        # lr * (m / c1) / (sqrt(v / c2) + eps)
        np.divide(m, c1, out=s)
        s *= self.lr
        np.divide(v, c2, out=r)
        np.sqrt(r, out=r)
        r += self.eps
        s /= r
        flat = self.params.flat
        flat -= s
