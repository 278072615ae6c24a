"""Head wiring for the three network instantiations.

Maps between domain quantities (positions, complex weight matrices, powers,
couplings) and the raw real feature/action tensors of :mod:`lcapa.gnn`,
applying the normalization constants recorded alongside each network:

* ``pos_scale``  -- positions are divided by the region's outer radius;
* ``a_scale``    -- weight-matrix entries are divided by a dataset-level RMS;
* ``out_scale``  -- raw head outputs are multiplied back to physical units
  (for the policy head this doubles as the emitted-weight scale, keeping the
  frozen surrogates in-distribution during policy training).

Every forward returns a cache, and every backward consumes one, so gradients
chain exactly through feature packing and scaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gnn import (POSITION_SCALE, GnnParams, GnnSpec, _diagonal_index,
                  gnn_backward, gnn_forward)


# The normalization constants each head kind reads.
HEAD_NORMS = {"policy": ("pos_scale", "out_scale"),
              "proj": ("pos_scale", "a_scale", "out_scale"),
              "value": ("pos_scale", "a_scale", "out_scale")}


@dataclass
class GnnModel:
    """A network instantiation: architecture, parameters, normalization."""

    spec: GnnSpec
    params: GnnParams
    norms: dict = field(default_factory=dict)

    def norm(self, name: str, default: float = 1.0) -> float:
        return float(self.norms.get(name, default))


def _as_batched_positions(positions: np.ndarray) -> tuple[np.ndarray, bool]:
    pos = np.asarray(positions, dtype=float)
    if pos.ndim == 2:
        return pos[None, ...], True
    return pos, False


def _as_batched_matrix(mat: np.ndarray) -> np.ndarray:
    m = np.asarray(mat, dtype=complex)
    return m[None, ...] if m.ndim == 2 else m


def _pack_weight_features(weights: np.ndarray, a_scale: float,
                          positions: np.ndarray, pos_scale: float
                          ) -> tuple[np.ndarray, np.ndarray]:
    idx = _diagonal_index(weights.shape[1])
    diag = weights[:, idx, idx]
    d0 = np.concatenate([positions / pos_scale,
                         diag.real[..., None] / a_scale,
                         diag.imag[..., None] / a_scale], axis=2)
    e0 = np.stack([weights.real, weights.imag], axis=3) / a_scale
    return d0, e0


def _weight_grad_from_features(gd0: np.ndarray, ge0: np.ndarray, a_scale: float
                               ) -> tuple[np.ndarray, np.ndarray]:
    g_re = ge0[..., 0] / a_scale
    g_im = ge0[..., 1] / a_scale
    idx = _diagonal_index(gd0.shape[1])
    g_re[:, idx, idx] = gd0[:, :, 3] / a_scale
    g_im[:, idx, idx] = gd0[:, :, 4] / a_scale
    return g_re, g_im


def _unpack_complex(d_out: np.ndarray, e_out: np.ndarray, scale: float
                    ) -> np.ndarray:
    """Complex K x K output: entry (k, j) from edge (k, j), a_kk from vertex k."""
    out = (e_out[..., 0] + 1j * e_out[..., 1]) * scale
    idx = _diagonal_index(out.shape[1])
    out[:, idx, idx] = (d_out[:, :, 0] + 1j * d_out[:, :, 1]) * scale
    return out


def _complex_head_backward(model: GnnModel, cache, grad_re: np.ndarray,
                           grad_im: np.ndarray, wrt: str):
    """gnn_backward from dLoss/d(Re, Im) of a :func:`_unpack_complex` output."""
    g_re = _as_batched_matrix(grad_re).real.astype(float)
    g_im = _as_batched_matrix(grad_im).real.astype(float)
    scale = model.norm("out_scale")
    idx = _diagonal_index(g_re.shape[1])
    gd = np.zeros(cache.zv_out.shape)
    gd[:, :, 0] = g_re[:, idx, idx] * scale
    gd[:, :, 1] = g_im[:, idx, idx] * scale
    ge = np.stack([g_re, g_im], axis=3) * scale
    return gnn_backward(model.spec, model.params, cache, gd, ge, wrt=wrt)


# -- PolicyNet ----------------------------------------------------------------

def policy_forward(model: GnnModel, positions: np.ndarray):
    """Positions (K,3) or (N,K,3) -> complex weight matrix (plus cache).

    Vertex k's action is the diagonal entry a_kk; edge (k, j)'s action is
    a_kj.  Edge representations start as a single zero feature.
    """
    pos, squeeze = _as_batched_positions(positions)
    n, k = pos.shape[:2]
    d0 = pos / model.norm("pos_scale", POSITION_SCALE)
    e0 = np.zeros((n, k, k, model.spec.edge_widths[0]))
    d_out, e_out, cache = gnn_forward(model.spec, model.params, d0, e0)
    weights = _unpack_complex(d_out, e_out, model.norm("out_scale"))
    return (weights[0] if squeeze else weights), cache


def policy_backward(model: GnnModel, cache, grad_re: np.ndarray,
                    grad_im: np.ndarray) -> GnnParams:
    """Parameter gradients of the policy from dLoss/d(Re A, Im A)."""
    grads, _, _ = _complex_head_backward(model, cache, grad_re, grad_im,
                                         wrt="params")
    return grads


# -- ProjNet ------------------------------------------------------------------

def proj_forward(model: GnnModel, positions: np.ndarray, weights: np.ndarray):
    """(S, A) -> strictly positive per-user power estimates (plus cache)."""
    pos, squeeze = _as_batched_positions(positions)
    w = _as_batched_matrix(weights)
    d0, e0 = _pack_weight_features(w, model.norm("a_scale"),
                                   pos, model.norm("pos_scale", POSITION_SCALE))
    d_out, _, cache = gnn_forward(model.spec, model.params, d0, e0)
    powers = d_out[:, :, 0] * model.norm("out_scale")
    return (powers[0] if squeeze else powers), cache


def proj_backward(model: GnnModel, cache, grad_powers: np.ndarray,
                  wrt: str = "both"
                  ) -> tuple[GnnParams | None, np.ndarray | None, np.ndarray | None]:
    """Gradients of the power head: (params, dLoss/dRe A, dLoss/dIm A).

    ``wrt`` is passed to :func:`~lcapa.gnn.gnn_backward`: ``"params"``
    computes the parameter gradients only and returns None for both weight
    gradients; ``"inputs"`` computes the weight gradients only and returns
    None for the parameters, so the first return value may be None.  Every
    array returned equals (``np.array_equal``) the same one under
    ``"both"``.
    """
    gp = np.asarray(grad_powers, dtype=float)
    if gp.ndim == 1:
        gp = gp[None, ...]
    gd = gp[..., None] * model.norm("out_scale")
    grads, gd0, ge0 = gnn_backward(model.spec, model.params, cache, gd, None,
                                   wrt=wrt)
    if gd0 is None:
        return grads, None, None
    g_re, g_im = _weight_grad_from_features(gd0, ge0, model.norm("a_scale"))
    return grads, g_re, g_im


# -- ValueNet -----------------------------------------------------------------

def value_forward(model: GnnModel, positions: np.ndarray, weights: np.ndarray):
    """(S, projected A) -> complex coupling estimates (plus cache)."""
    pos, squeeze = _as_batched_positions(positions)
    w = _as_batched_matrix(weights)
    d0, e0 = _pack_weight_features(w, model.norm("a_scale"),
                                   pos, model.norm("pos_scale", POSITION_SCALE))
    d_out, e_out, cache = gnn_forward(model.spec, model.params, d0, e0)
    couplings = _unpack_complex(d_out, e_out, model.norm("out_scale"))
    return (couplings[0] if squeeze else couplings), cache


def value_backward(model: GnnModel, cache, grad_re: np.ndarray,
                   grad_im: np.ndarray, wrt: str = "both"
                   ) -> tuple[GnnParams | None, np.ndarray | None, np.ndarray | None]:
    """Gradients of the coupling head: (params, dLoss/dRe A, dLoss/dIm A).

    ``wrt`` selects the outputs as in :func:`proj_backward`; the first
    return value is None under ``"inputs"``, the other two under
    ``"params"``, and every array returned equals the same one under
    ``"both"``.
    """
    grads, gd0, ge0 = _complex_head_backward(model, cache, grad_re, grad_im,
                                             wrt=wrt)
    if gd0 is None:
        return grads, None, None
    g_re_in, g_im_in = _weight_grad_from_features(gd0, ge0, model.norm("a_scale"))
    return grads, g_re_in, g_im_in
