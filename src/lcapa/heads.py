"""Head wiring for the three network instantiations.

Maps between domain quantities (positions, complex weight matrices, powers,
couplings) and the raw real feature/action tensors of :mod:`lcapa.gnn`,
applying the normalization constants recorded alongside each network:

* ``pos_scale``  -- positions are divided by the region's outer radius;
* ``a_scale``    -- weight-matrix entries are divided by a dataset-level RMS;
* ``out_scale``  -- raw head outputs are multiplied back to physical units
  (for the policy head this doubles as the emitted-weight scale, keeping the
  frozen surrogates in-distribution during policy training).

Complex quantities cross this module as complex arrays, and so do their
gradients: the gradient of the real loss L with respect to a complex array Z
is the one complex array dL/dRe Z + i dL/dIm Z.  The network reads and
writes (Re, Im) pairs as the last feature axis, so packing is a reshape of a
C-contiguous array's float view (``.view(float)``, ``.view(complex)``); only
an input that is not C-contiguous is copied.

Every forward returns a cache, and every backward consumes one, so gradients
chain exactly through feature packing and scaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gnn import (POSITION_SCALE, GnnParams, GnnSpec, _diagonal, gnn_backward,
                  gnn_forward)


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


def _as_pairs(z: np.ndarray) -> np.ndarray:
    """The (..., 2) float view of a complex array's (Re, Im) pairs."""
    z = np.ascontiguousarray(z)
    return z.view(float).reshape(z.shape + (2,))


def _as_complex(pairs: np.ndarray) -> np.ndarray:
    """The complex view of a C-contiguous (..., 2) float array of pairs."""
    return pairs.view(complex)[..., 0]


def _pack_weight_features(weights: np.ndarray, a_scale: float,
                          positions: np.ndarray, pos_scale: float
                          ) -> tuple[np.ndarray, np.ndarray]:
    e0 = _as_pairs(weights) / a_scale
    d0 = np.concatenate([positions / pos_scale, _diagonal(e0)], axis=2)
    return d0, e0


def _weight_grad_from_features(gd0: np.ndarray, ge0: np.ndarray, a_scale: float
                               ) -> np.ndarray:
    g = np.ascontiguousarray(ge0) / a_scale
    _diagonal(g)[...] = gd0[:, :, 3:5] / a_scale
    return _as_complex(g)


def _unpack_complex(d_out: np.ndarray, e_out: np.ndarray, scale: float
                    ) -> np.ndarray:
    """Complex K x K output: entry (k, j) from edge (k, j), a_kk from vertex k."""
    out = np.ascontiguousarray(e_out) * scale
    _diagonal(out)[...] = d_out * scale
    return _as_complex(out)


def _complex_head_backward(model: GnnModel, cache, grad: np.ndarray, wrt: str):
    """gnn_backward from dLoss/dZ of a :func:`_unpack_complex` output Z."""
    ge = _as_pairs(_as_batched_matrix(grad)) * model.norm("out_scale")
    return gnn_backward(model.spec, model.params, cache, _diagonal(ge), ge,
                        wrt=wrt)


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


def policy_backward(model: GnnModel, cache, grad: np.ndarray) -> GnnParams:
    """Parameter gradients of the policy from dLoss/dA."""
    grads, _, _ = _complex_head_backward(model, cache, grad, wrt="params")
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
                  ) -> tuple[GnnParams | None, np.ndarray | None]:
    """Gradients of the power head: (params, dLoss/dA).

    ``wrt`` is passed to :func:`~lcapa.gnn.gnn_backward`: ``"params"``
    computes the parameter gradients only and returns None for the weight
    gradient; ``"inputs"`` computes the weight gradient only and returns
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
        return grads, None
    return grads, _weight_grad_from_features(gd0, ge0, model.norm("a_scale"))


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


def value_backward(model: GnnModel, cache, grad: np.ndarray, wrt: str = "both"
                   ) -> tuple[GnnParams | None, np.ndarray | None]:
    """Gradients of the coupling head from dLoss/dG: (params, dLoss/dA).

    ``wrt`` selects the outputs as in :func:`proj_backward`; the first
    return value is None under ``"inputs"``, the second under ``"params"``,
    and every array returned equals the same one under ``"both"``.
    """
    grads, gd0, ge0 = _complex_head_backward(model, cache, grad, wrt=wrt)
    if gd0 is None:
        return grads, None
    return grads, _weight_grad_from_features(gd0, ge0, model.norm("a_scale"))
