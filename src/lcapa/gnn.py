"""Permutation-equivariant vertex+edge graph network with exact gradients.

Each user is a vertex of a complete directed graph.  One shared update per
layer transforms all vertex representations and all edge representations:

    d_k  <-  act( W_self d_k + sum_{i != k} (W_other d_i + W_ein e_ik
                                             + W_eout e_ki) + b_v )
    e_kj <-  act( U_edge e_kj + U_src d_k + U_dst d_j + b_e
                  [+ U_agg sum_{i != k,j} (e_ki + e_ij)] )

All weights are shared across vertices/edges, which is what makes every
instantiation permutation equivariant.  The network is real-valued; complex
quantities enter and leave as (real, imaginary) feature pairs.  Forward
passes retain every pre-activation in a cache so the backward pass can
accumulate exact reverse-mode gradients; no autodiff framework is involved.

Kernel contract.  The elementwise work runs no select kernel and makes few
fresh full-size (N, K, K, width) arrays.  Per edge layer the forward pass
allocates only what it keeps: the cached pre-activation and its activation.
The backward pass scales the spent edge gradient in place; it allocates the
activation derivative, one buffer that holds the ``gze @ U`` products, and
the edge gradient it passes down.  Edge aggregation adds its aggregate
and, in the forward pass, the products formed from it.  The backward pass
computes only the outputs its ``wrt`` argument names and returns None for
the rest: ``"inputs"`` (the frozen surrogates in the policy chain) runs no
weight-gradient GEMM and builds no gradient tree, and ``"params"`` (every
trained net) forms no layer-0 input gradient, so its layer 0 skips the
``gze @ U`` buffer and the aggregation spread.  Each output computed
equals (``np.array_equal``) that of ``"both"``.
The leaky ReLU is ``max(z, slope z)`` and its derivative
``max(1{z > 0}, slope)``, exact for ``0 <= hidden_slope <= 1``, which
:class:`GnnSpec` enforces; self-edges are zeroed by index.  Forward outputs,
every cached pre-activation and every gradient equal (``np.array_equal``)
those of the select-and-mask forms ``where(z > 0, z, slope z)`` and
``x * offdiag_mask``, which the tests keep as oracles.  The one exception is
``slope = 0`` with a ``+inf`` pre-activation: ``0 * inf`` makes it NaN where
the select form gives ``inf``.

Three head configurations are provided: ``policy`` (positions -> weight
matrix), ``proj`` (positions + raw weights -> per-user powers through a
strictly positive output), and ``value`` (positions + projected weights ->
coupling matrix).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

POSITION_SCALE = 30.0     # outer radius of the default user region

_HEAD_KINDS = ("policy", "proj", "value")


@dataclass(frozen=True)
class GnnSpec:
    """Architecture description of one network instantiation.

    ``vertex_widths`` / ``edge_widths`` list the representation widths per
    layer (length L >= 2; entry 0 is the feature width, entry L-1 the action
    width).  An edge action width of 0 means the final layer has no edge
    head, which only the ``proj`` kind uses.
    """

    kind: str
    vertex_widths: tuple[int, ...]
    edge_widths: tuple[int, ...]
    hidden_slope: float = 0.2
    edge_aggregation: bool = False

    def __post_init__(self):
        if self.kind not in _HEAD_KINDS:
            raise ValueError(f"unknown network kind {self.kind!r}")
        if len(self.vertex_widths) < 2:
            raise ValueError("need at least input and output layers")
        if len(self.edge_widths) != len(self.vertex_widths):
            raise ValueError("vertex and edge width lists must align")
        if any(w < 1 for w in self.vertex_widths):
            raise ValueError("vertex widths must be >= 1")
        if any(w < 1 for w in self.edge_widths[:-1]) or self.edge_widths[-1] < 0:
            raise ValueError("edge widths must be >= 1 (final may be 0)")
        if not 0.0 <= self.hidden_slope <= 1.0:
            # the max-form leaky ReLU and its derivative are exact only here
            raise ValueError(f"hidden_slope must be a finite number in [0, 1], "
                             f"got {self.hidden_slope!r}")

    @property
    def layers(self) -> int:
        return len(self.vertex_widths)

    @property
    def transitions(self) -> int:
        return self.layers - 1

    @property
    def vertex_head_activation(self) -> str:
        return "softplus" if self.kind == "proj" else "identity"

    def to_dict(self) -> dict:
        return {"kind": self.kind,
                "vertex_widths": list(self.vertex_widths),
                "edge_widths": list(self.edge_widths),
                "hidden_slope": self.hidden_slope,
                "edge_aggregation": self.edge_aggregation}

    @classmethod
    def from_dict(cls, data: dict) -> "GnnSpec":
        return cls(kind=data["kind"],
                   vertex_widths=tuple(data["vertex_widths"]),
                   edge_widths=tuple(data["edge_widths"]),
                   hidden_slope=data.get("hidden_slope", 0.2),
                   edge_aggregation=data.get("edge_aggregation", False))


def _hidden_widths(hidden: int, layers: int) -> tuple[int, ...]:
    """The widths of the ``layers - 2`` hidden representations; ``layers``
    counts the input and output representations, so it must be >= 2."""
    if layers < 2:
        raise ValueError(f"layers must be >= 2, got {layers!r}")
    return (hidden,) * (layers - 2)


def policy_spec(hidden: int = 64, layers: int = 4, **kw) -> GnnSpec:
    """Positions in, complex weight matrix out (edges start as a zero feature)."""
    widths = _hidden_widths(hidden, layers)
    return GnnSpec(kind="policy", vertex_widths=(3,) + widths + (2,),
                   edge_widths=(1,) + widths + (2,), **kw)


def proj_spec(hidden: int = 64, layers: int = 4, **kw) -> GnnSpec:
    """Positions + raw weights in, strictly positive per-user powers out."""
    widths = _hidden_widths(hidden, layers)
    return GnnSpec(kind="proj", vertex_widths=(5,) + widths + (1,),
                   edge_widths=(2,) + widths + (0,), **kw)


def value_spec(hidden: int = 64, layers: int = 4, **kw) -> GnnSpec:
    """Positions + projected weights in, complex coupling matrix out."""
    widths = _hidden_widths(hidden, layers)
    return GnnSpec(kind="value", vertex_widths=(5,) + widths + (2,),
                   edge_widths=(2,) + widths + (2,), **kw)


@dataclass
class LayerParams:
    w_self: np.ndarray
    w_other: np.ndarray
    w_ein: np.ndarray
    w_eout: np.ndarray
    b_v: np.ndarray
    u_edge: np.ndarray | None
    u_src: np.ndarray | None
    u_dst: np.ndarray | None
    b_e: np.ndarray | None
    u_agg: np.ndarray | None = None


# Array names of one layer, in field order (also the checkpoint's key order).
PARAM_NAMES = tuple(f.name for f in fields(LayerParams))


@dataclass
class GnnParams:
    """Per-transition shared weight matrices."""

    layers: list[LayerParams]

    def iter_arrays(self):
        for idx, layer in enumerate(self.layers):
            for name in PARAM_NAMES:
                arr = getattr(layer, name)
                if arr is not None:
                    yield f"layer{idx}.{name}", arr

    def copy(self) -> "GnnParams":
        return GnnParams(layers=[
            LayerParams(**{name: (getattr(l, name).copy()
                                  if getattr(l, name) is not None else None)
                           for name in PARAM_NAMES})
            for l in self.layers])


def init_params(spec: GnnSpec, seed: int) -> GnnParams:
    """Uniform(-a, a) matrices with a = 1/sqrt(fan_in); zero biases."""
    rng = np.random.default_rng(seed)

    def mat(out_dim, in_dim):
        bound = 1.0 / np.sqrt(max(in_dim, 1))
        return rng.uniform(-bound, bound, size=(out_dim, in_dim))

    layers = []
    for t in range(spec.transitions):
        dv_in, dv_out = spec.vertex_widths[t], spec.vertex_widths[t + 1]
        de_in, de_out = spec.edge_widths[t], spec.edge_widths[t + 1]
        has_edge = de_out > 0
        layers.append(LayerParams(
            w_self=mat(dv_out, dv_in),
            w_other=mat(dv_out, dv_in),
            w_ein=mat(dv_out, de_in),
            w_eout=mat(dv_out, de_in),
            b_v=np.zeros(dv_out),
            u_edge=mat(de_out, de_in) if has_edge else None,
            u_src=mat(de_out, dv_in) if has_edge else None,
            u_dst=mat(de_out, dv_in) if has_edge else None,
            b_e=np.zeros(de_out) if has_edge else None,
            u_agg=(mat(de_out, de_in) if has_edge and spec.edge_aggregation
                   else None),
        ))
    return GnnParams(layers=layers)


def zeros_like_params(params: GnnParams) -> GnnParams:
    out = params.copy()
    for _, arr in out.iter_arrays():
        arr[...] = 0.0
    return out


# -- activations --------------------------------------------------------------

def _leaky(z, slope):
    # max(z, slope z) is the leaky ReLU for 0 <= slope <= 1, with no select
    y = z * slope
    return np.maximum(z, y, out=y)


def _dleaky(z, slope):
    # max(1{z > 0}, slope) is 1 or slope for 0 <= slope <= 1, with no select
    d = (z > 0.0).astype(float)
    return np.maximum(d, slope, out=d)


def _softplus(z):
    return np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)


def _dsoftplus(z):
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _apply_act(z, name, slope):
    if name == "leaky":
        return _leaky(z, slope)
    if name == "softplus":
        return _softplus(z)
    return z


def _act_grad(z, name, slope):
    if name == "leaky":
        return _dleaky(z, slope)
    if name == "softplus":
        return _dsoftplus(z)
    return np.ones_like(z)


# -- forward / backward -------------------------------------------------------

@dataclass
class GnnCache:
    spec: GnnSpec
    params: GnnParams
    d_inputs: list[np.ndarray]
    e_inputs: list[np.ndarray]
    zv: list[np.ndarray]
    ze: list[np.ndarray | None]


def _zero_diagonal(x: np.ndarray) -> np.ndarray:
    """Zero the unused self-edges x[:, k, k] in place; returns x."""
    idx = np.arange(x.shape[1])
    x[:, idx, idx] = 0.0
    return x


def gnn_forward(spec: GnnSpec, params: GnnParams, d0: np.ndarray,
                e0: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, GnnCache]:
    """Batched forward pass.

    ``d0`` is (N, K, Fv) and ``e0`` is (N, K, K, Fe) with the diagonal unused
    (forced to zero).  Returns vertex outputs (N, K, out), edge outputs
    (N, K, K, out) or None when the spec has no edge head, and the cache for
    :func:`gnn_backward`.  An identity-activated output is the cached
    pre-activation itself, so callers must not write to the outputs.
    Neighbor sums run over numpy's fixed deterministic reduction order, so
    identical inputs give bit-identical outputs.
    """
    d0 = np.asarray(d0, dtype=float)
    e0 = np.asarray(e0, dtype=float)
    if d0.ndim != 3 or e0.ndim != 4:
        raise ValueError("expected batched features (N,K,Fv) and (N,K,K,Fe)")
    n, k = d0.shape[:2]
    if e0.shape[:3] != (n, k, k):
        raise ValueError(f"edge feature shape {e0.shape} does not match "
                         f"vertex batch {(n, k)}")
    if d0.shape[2] != spec.vertex_widths[0] or e0.shape[3] != spec.edge_widths[0]:
        raise ValueError(
            f"feature widths {(d0.shape[2], e0.shape[3])} do not match spec "
            f"{(spec.vertex_widths[0], spec.edge_widths[0])}")

    d, e = d0, _zero_diagonal(e0.copy())
    cache = GnnCache(spec=spec, params=params, d_inputs=[], e_inputs=[],
                     zv=[], ze=[])
    for t, lp in enumerate(params.layers):
        last = t == spec.transitions - 1
        v_act = spec.vertex_head_activation if last else "leaky"
        e_act = "identity" if last else "leaky"

        cache.d_inputs.append(d)
        cache.e_inputs.append(e)

        sum_d = d.sum(axis=1, keepdims=True)
        col = e.sum(axis=1)            # sum_i e[i, k]
        row = e.sum(axis=2)            # sum_i e[k, i]
        zv = d @ lp.w_self.T
        zv += (sum_d - d) @ lp.w_other.T
        zv += col @ lp.w_ein.T
        zv += row @ lp.w_eout.T
        zv += lp.b_v
        cache.zv.append(zv)

        if lp.u_edge is not None:
            ze = e @ lp.u_edge.T
            ze += (d @ lp.u_src.T)[:, :, None, :]
            ze += (d @ lp.u_dst.T)[:, None, :, :]
            ze += lp.b_e
            if lp.u_agg is not None:
                agg = row[:, :, None, :] + col[:, None, :, :]
                agg -= 2.0 * e
                ze += agg @ lp.u_agg.T
            cache.ze.append(_zero_diagonal(ze))
            # both edge activations map 0 to 0, so e keeps a zero diagonal
            e = _apply_act(ze, e_act, spec.hidden_slope)
        else:
            cache.ze.append(None)
            e = None
        d = _apply_act(zv, v_act, spec.hidden_slope)
    return d, e, cache


def _wgrad(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Weight gradient sum over all leading axes of g[..., p] x[..., q]."""
    return g.reshape(-1, g.shape[-1]).T @ x.reshape(-1, x.shape[-1])


_WRT = ("both", "params", "inputs")


def gnn_backward(spec: GnnSpec, params: GnnParams, cache: GnnCache,
                 d_out_grad: np.ndarray, e_out_grad: np.ndarray | None,
                 wrt: str = "both"
                 ) -> tuple[GnnParams | None, np.ndarray | None, np.ndarray | None]:
    """Exact reverse-mode gradients for a cached forward pass.

    Returns (parameter gradients, input vertex-feature gradients, input
    edge-feature gradients).  The cache must come from a forward call with
    the same parameter object.

    ``wrt`` names the outputs the caller uses; the others are not computed
    and come back as None.  ``"both"`` computes all three.  ``"params"``
    computes the parameter gradients only: it skips the layer-0 input
    gradients.  ``"inputs"`` computes the two input gradients only: it
    skips every weight-gradient GEMM and the gradient tree.  Each output
    that is computed equals (``np.array_equal``) the same output of
    ``"both"``, because it comes from the same operations.

    Each weight gradient is one GEMM over the flattened batch, vertex and
    edge axes; the per-source and per-destination edge sums are reduced
    before their GEMM.  Reproducibility: repeated calls on one cache give
    bit-identical results on one numpy/BLAS build.  The summation order
    differs from the direct contractions (``einsum("nijp,niq->pq", ...)``
    and the like), so across the two forms every returned array, parameter
    and input gradients alike, agrees to within 1e-12 of its largest entry.
    """
    if wrt not in _WRT:
        raise ValueError(f"wrt must be one of {_WRT}, got {wrt!r}")
    if cache.params is not params or cache.spec is not spec:
        raise ValueError("cache does not belong to these parameters (stale cache)")
    want_inputs = wrt != "params"
    grads = zeros_like_params(params) if wrt != "inputs" else None

    gd = np.asarray(d_out_grad, dtype=float)
    if gd.shape != cache.zv[-1].shape:
        raise ValueError("vertex output gradient has wrong shape")
    last_lp = params.layers[-1]
    if last_lp.u_edge is not None:
        if e_out_grad is None:
            raise ValueError("edge output gradient required for this spec")
        # a private copy: every layer scales its ge in place
        ge = _zero_diagonal(np.array(e_out_grad, dtype=float))
    else:
        ge = None

    for t in range(spec.transitions - 1, -1, -1):
        lp = params.layers[t]
        gl = grads.layers[t] if grads is not None else None
        # this layer's input gradients feed the layer below or the caller
        pass_down = want_inputs or t > 0
        last = t == spec.transitions - 1
        v_act = spec.vertex_head_activation if last else "leaky"
        e_act = "identity" if last else "leaky"

        d_in = cache.d_inputs[t]
        e_in = cache.e_inputs[t]

        gzv = _act_grad(cache.zv[t], v_act, spec.hidden_slope)
        gzv *= gd

        if gl is not None:
            sum_d = d_in.sum(axis=1, keepdims=True)
            col = e_in.sum(axis=1)
            row = e_in.sum(axis=2)
            gl.w_self += _wgrad(gzv, d_in)
            gl.w_other += _wgrad(gzv, sum_d - d_in)
            gl.w_ein += _wgrad(gzv, col)
            gl.w_eout += _wgrad(gzv, row)
            gl.b_v += gzv.sum(axis=(0, 1))

        if pass_down:
            sum_gzv = gzv.sum(axis=1, keepdims=True)
            gd_prev = gzv @ lp.w_self
            gd_prev += (sum_gzv - gzv) @ lp.w_other
            ge_prev = ((gzv @ lp.w_ein)[:, None, :, :]
                       + (gzv @ lp.w_eout)[:, :, None, :])

        if lp.u_edge is not None:
            # ge has a zero diagonal, so gze does too
            gze = ge
            gze *= _act_grad(cache.ze[t], e_act, spec.hidden_slope)
            gze_src = gze.sum(axis=2)      # sum_j gze[k, j]
            gze_dst = gze.sum(axis=1)      # sum_i gze[i, k]
            if gl is not None:
                gl.u_edge += _wgrad(gze, e_in)
                gl.u_src += _wgrad(gze_src, d_in)
                gl.u_dst += _wgrad(gze_dst, d_in)
                gl.b_e += gze.sum(axis=(0, 1, 2))
            buf = agg = None               # reused as scratch when both exist
            if pass_down:
                gd_prev += gze_src @ lp.u_src + gze_dst @ lp.u_dst
                buf = gze @ lp.u_edge      # (N, K, K, in width)
                ge_prev += buf
            if lp.u_agg is not None:
                if gl is not None:
                    agg = row[:, :, None, :] + col[:, None, :, :]
                    agg -= np.multiply(e_in, 2.0, out=buf)
                    gl.u_agg += _wgrad(gze, agg)
                if pass_down:
                    z = np.matmul(gze, lp.u_agg, out=buf)
                    spread = np.add(z.sum(axis=2)[:, :, None, :],
                                    z.sum(axis=1)[:, None, :, :], out=agg)
                    z *= 2.0
                    spread -= z
                    ge_prev += spread

        if pass_down:
            gd, ge = gd_prev, _zero_diagonal(ge_prev)
    if not want_inputs:
        return grads, None, None
    return grads, gd, ge
