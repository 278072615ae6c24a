"""Permutation-equivariant vertex+edge graph network with exact gradients.

Each user is a vertex of a complete directed graph.  One shared update per
layer transforms all vertex representations and all edge representations:

    d_k  <-  act( W_self d_k + sum_{i != k} (W_other d_i + W_ein e_ik
                                             + W_eout e_ki) + b_v )
    e_kj <-  act( U_edge e_kj + U_src d_k + U_dst d_j + b_e )

All weights are shared across vertices/edges, which is what makes every
instantiation permutation equivariant.  The network is real-valued; complex
quantities enter and leave as (real, imaginary) feature pairs.  A forward
pass keeps in its :class:`GnnCache` what the backward pass reads: each
layer's message input X = [d, sum_{i != k} d_i, sum_i e_ik, sum_i e_ki],
its vertex and edge inputs, and the output layer's vertex pre-activation.
The backward pass accumulates exact reverse-mode gradients from it and
reduces no layer input again; no autodiff framework is involved.

Kernel contract.  Every parameter tree (:class:`GnnParams`, made by
:func:`init_params`, :func:`zeros_like_params` and the like) is one flat
buffer laid out from its spec's :func:`param_layout`, and its structure is
fixed by type, so its arrays stay views of that buffer.  Each layer
multiplies by two fused blocks of that buffer: the vertex block W_v =
[W_self, W_other, W_ein, W_eout], so the whole vertex message is the one
GEMM ``X @ W_v.T``, and the endpoint block [U_src; U_dst], one GEMM on d
for both endpoint terms.  The backward pass gets all four vertex-message
parts of the input gradient from one GEMM ``gzv @ W_v`` and all four
vertex weight gradients from one ``gzv^T X``, and the endpoint pair the
same way.  At batch 1, where numpy's per-call cost dominates, that is what
the fused blocks save.  One GEMM sums its products in another order than
four GEMMs and three adds, so every forward output, cached array and
gradient agrees with the one-GEMM-per-matrix form (``tests/oracles.py``)
to within 1e-12 of the array's largest entry, not bit for bit.

Batch kernels.  A pass picks one pair of kernels, from the batch size N:
the forward pass reads N off ``d0``, the backward pass off its cache.  At
N = 1 the weight products are ``np.matmul`` and the edge sums
``np.add.reduce``, which cost the least per call.  Over N > 1 scenes numpy
makes one BLAS call per K-row slice of a stacked matmul and runs one inner
loop per row of a reduction over a length-K axis, so there each of the six
weight products (``X @ W_v.T``, ``d @ [U_src; U_dst].T`` and ``e @
U_edge.T`` forward; ``gzv @ W_v``, ``gze_ends @ [U_src; U_dst]`` and ``gze
@ U_edge`` backward) is one 2-D GEMM over the flattened leading axes, and
each of the four edge-array sums (X's sum_i e_ik and sum_i e_ki, and the
two endpoint sums of the edge gradient) is a GEMV by a read-only ones
vector.  The two pairs may sum in other orders, so a scene in a batch
agrees with the same scene alone to within the same 1e-12, not bit for
bit.  The promise is repetition: the same inputs give bit-identical
outputs, caches and gradients on one numpy/BLAS build with one BLAS
thread.

The elementwise work runs no select kernel and makes few fresh full-size
(N, K, K, width) arrays.  Per hidden edge layer the forward pass keeps one:
the activation, which is the next layer's input; the pre-activation it came
from is freed.  The backward pass scales the spent edge gradient in place;
it allocates the activation derivative, one buffer that holds the
``gze @ U`` products, and the edge gradient it passes down.  The backward
pass computes only the outputs its ``wrt`` argument names and returns None
for the rest: ``"inputs"`` (the frozen surrogates in the policy chain) runs
no weight-gradient GEMM and builds no gradient tree, and ``"params"`` (every
trained net) forms no layer-0 input gradient, so its layer 0 skips the
``gze @ U`` buffer.  Each output computed equals (``np.array_equal``) that
of ``"both"``.  An ``"inputs"`` pass reads no hidden activation but its
sign, so :func:`sign_only_cache` turns a forward cache into one that keeps
layer 0's arrays and ``zv_out`` and, for every hidden vertex and edge
activation, only its ``> 0`` bool mask (1 byte an entry, not 8).  The frozen
surrogates hold that cache between their forward and backward passes; a
sign-only cache serves ``"inputs"`` only, and its input gradients equal
(``np.array_equal``) those of the full cache.
Every hidden layer applies one activation, the leaky ReLU ``max(z, 0.2 z)``
(slope :data:`LEAKY_SLOPE`).  It is positive exactly when z is, for +-0,
+-inf, NaN and subnormal z too, so the backward pass reads the derivative
``max(1{z > 0}, 0.2)`` off the activation, or off its mask.  Both kernels equal
(``np.array_equal``) the select forms ``where(z > 0, z, 0.2 z)`` and
``where(z > 0, 1, 0.2)``, which the tests keep as oracles.  Self-edges are
zeroed through the strided view of the diagonal.

Three head configurations are provided: ``policy`` (positions -> weight
matrix), ``proj`` (positions + raw weights -> per-user powers through a
strictly positive output), and ``value`` (positions + projected weights ->
coupling matrix).  A :class:`GnnSpec` takes only its kind and hidden widths
and derives its per-layer widths, whose ends the kind fixes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

LEAKY_SLOPE = 0.2         # the negative-side slope of every hidden activation

# The (vertex, edge) input and action widths of each kind; a complex entry
# is an (Re, Im) pair, and proj has no edge head.
_END_WIDTHS = {"policy": ((3, 1), (2, 2)), "proj": ((5, 2), (1, 0)),
               "value": ((5, 2), (2, 2))}

# Spec keys an earlier checkpoint format wrote for settings now fixed.
_FIXED_SETTINGS = {"edge_aggregation": False, "hidden_slope": LEAKY_SLOPE}


@dataclass(frozen=True)
class GnnSpec:
    """Architecture description of one network instantiation.

    A spec takes its ``kind`` and ``hidden_widths``, plain ints >= 1 that
    vertices and edges share.  The per-layer ``vertex_widths`` and
    ``edge_widths`` are derived once: the kind's input widths, the hidden
    widths, then the kind's action widths (table ``_END_WIDTHS``).  Every
    hidden layer applies the leaky ReLU with slope :data:`LEAKY_SLOPE` = 0.2,
    and the edge update reads only its own edge and its two endpoints.
    """

    kind: str
    hidden_widths: tuple[int, ...]
    vertex_widths: tuple[int, ...] = field(init=False)
    edge_widths: tuple[int, ...] = field(init=False)
    # no edge update aggregates other edges; perfbench's flop model reads it
    edge_aggregation: ClassVar[bool] = False

    def __post_init__(self):
        if self.kind not in _END_WIDTHS:
            raise ValueError(f"unknown network kind {self.kind!r}")
        hidden = tuple(self.hidden_widths)
        for w in hidden:
            if type(w) is not int or w < 1:
                raise ValueError(f"hidden widths must be integers >= 1, got {w!r}")
        (v_in, e_in), (v_out, e_out) = _END_WIDTHS[self.kind]
        object.__setattr__(self, "hidden_widths", hidden)
        object.__setattr__(self, "vertex_widths", (v_in,) + hidden + (v_out,))
        object.__setattr__(self, "edge_widths", (e_in,) + hidden + (e_out,))

    @property
    def transitions(self) -> int:
        return len(self.vertex_widths) - 1

    @property
    def vertex_head_activation(self) -> str:
        return "softplus" if self.kind == "proj" else "identity"

    def to_dict(self) -> dict:
        return {"kind": self.kind,
                "vertex_widths": list(self.vertex_widths),
                "edge_widths": list(self.edge_widths)}

    @classmethod
    def from_dict(cls, data: dict) -> "GnnSpec":
        """The spec of a :meth:`to_dict` record; ``ValueError`` unless its
        widths are ints, shared hidden widths between the kind's ends."""
        for key, fixed in _FIXED_SETTINGS.items():
            value = data.get(key, fixed)
            if type(value) is not type(fixed) or value != fixed:
                raise ValueError(f"spec {key} must be {fixed!r} (the one "
                                 f"architecture), got {value!r}")
        vertex, edge = list(data["vertex_widths"]), list(data["edge_widths"])
        got = f"got vertex widths {vertex}, edge widths {edge}"
        if any(type(w) is not int for w in vertex + edge):
            raise ValueError(f"widths must be integers, {got}")
        if vertex[1:-1] != edge[1:-1]:
            raise ValueError(f"vertex and edge hidden widths differ, {got}")
        spec = cls(data["kind"], tuple(vertex[1:-1]))
        if (vertex, edge) != (list(spec.vertex_widths), list(spec.edge_widths)):
            inputs, actions = _END_WIDTHS[spec.kind]
            raise ValueError(f"a {spec.kind} network has input widths {inputs} "
                             f"and action widths {actions}, {got}")
        return spec


def _hidden_widths(hidden: int, layers: int) -> tuple[int, ...]:
    """The widths of the ``layers - 2`` hidden representations; ``layers``
    counts the input and output representations, so it must be >= 2."""
    if layers < 2:
        raise ValueError(f"layers must be >= 2, got {layers!r}")
    return (hidden,) * (layers - 2)


def policy_spec(hidden: int = 64, layers: int = 4) -> GnnSpec:
    """Positions in, complex weight matrix out (edges start as a zero feature)."""
    return GnnSpec("policy", _hidden_widths(hidden, layers))


def proj_spec(hidden: int = 64, layers: int = 4) -> GnnSpec:
    """Positions + raw weights in, strictly positive per-user powers out."""
    return GnnSpec("proj", _hidden_widths(hidden, layers))


def value_spec(hidden: int = 64, layers: int = 4) -> GnnSpec:
    """Positions + projected weights in, complex coupling matrix out."""
    return GnnSpec("value", _hidden_widths(hidden, layers))


@dataclass(frozen=True)
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


# Array names of one layer, in field order (also the checkpoint's key order).
PARAM_NAMES = tuple(f.name for f in fields(LayerParams))

# One shape tuple (or None for an absent array) per PARAM_NAMES entry, per layer.
Layout = tuple[tuple[tuple[int, ...] | None, ...], ...]


def param_layout(spec: GnnSpec) -> Layout:
    """The shape of every parameter array of ``spec``, layer by layer in
    :data:`PARAM_NAMES` order, with None for an array the layer lacks."""
    layout = []
    for t in range(spec.transitions):
        dv_in, dv_out = spec.vertex_widths[t], spec.vertex_widths[t + 1]
        de_in, de_out = spec.edge_widths[t], spec.edge_widths[t + 1]
        edge = (((de_out, de_in), (de_out, dv_in), (de_out, dv_in), (de_out,))
                if de_out > 0 else (None,) * 4)
        layout.append(((dv_out, dv_in), (dv_out, dv_in), (dv_out, de_in),
                       (dv_out, de_in), (dv_out,)) + edge)
    return tuple(layout)


@dataclass(frozen=True, eq=False)
class GnnParams:
    """Per-transition shared weight matrices in one flat float64 buffer.

    Trees come from :func:`init_params`, :func:`zero_params`,
    :func:`zeros_like_params` and :meth:`copy`.  ``GnnParams(flat, layout)``
    takes ``flat`` over and binds every array of ``layout`` as a view of it;
    the arrays tile it exactly once, so whole-tree work (a copy, zeroing, an
    optimizer step) is one operation on ``flat``.  Layer by layer the buffer
    holds the vertex block W_v, a row-major (out, 2 dv + 2 de) matrix whose
    column blocks are ``w_self``, ``w_other``, ``w_ein`` and ``w_eout``;
    then ``b_v``, ``u_edge``, the endpoint block, a (2 out_e, dv) matrix
    whose row blocks are ``u_src`` and ``u_dst``; then ``b_e``.
    :attr:`blocks` holds the two fused matrices of each layer (None for an
    absent endpoint block), which the kernels multiply by.

    The structure is fixed by type: ``flat``, ``layout``, ``layers`` and
    ``blocks`` cannot be rebound, ``layers`` and ``blocks`` are tuples, and
    :class:`LayerParams` is frozen, so every array stays the view of
    ``flat`` it was built as.  Values change in place (``flat[...] = ...``,
    ``lp.b_v[...] += ...``).
    """

    flat: np.ndarray
    layout: Layout
    layers: tuple[LayerParams, ...] = field(init=False, repr=False)
    blocks: tuple[tuple[np.ndarray, np.ndarray | None], ...] = field(
        init=False, repr=False)

    def __post_init__(self):
        flat, layers, blocks = self.flat, [], []
        lo = 0

        def take(*shape):
            nonlocal lo
            lo, start = lo + math.prod(shape), lo
            return flat[start:lo].reshape(shape)

        for shapes in self.layout:
            (out, dv), (_, de), edge = shapes[0], shapes[2], shapes[5]
            w_v = take(out, 2 * (dv + de))
            arrays = [w_v[:, :dv], w_v[:, dv:2 * dv], w_v[:, 2 * dv:2 * dv + de],
                      w_v[:, 2 * dv + de:], take(out)]
            u_ends = None
            if edge is None:
                arrays += [None] * 4
            else:
                out_e = edge[0]
                arrays.append(take(out_e, de))
                u_ends = take(2 * out_e, dv)
                arrays += [u_ends[:out_e], u_ends[out_e:], take(out_e)]
            layers.append(LayerParams(*arrays))
            blocks.append((w_v, u_ends))
        object.__setattr__(self, "layers", tuple(layers))
        object.__setattr__(self, "blocks", tuple(blocks))

    def iter_arrays(self):
        for idx, layer in enumerate(self.layers):
            for name in PARAM_NAMES:
                arr = getattr(layer, name)
                if arr is not None:
                    yield f"layer{idx}.{name}", arr

    def copy(self) -> "GnnParams":
        return GnnParams(self.flat.copy(), self.layout)


def zero_params(spec: GnnSpec) -> GnnParams:
    """The tree of ``spec`` with every parameter zero."""
    layout = param_layout(spec)
    return GnnParams(np.zeros(sum(math.prod(shape) for row in layout
                                  for shape in row if shape is not None)), layout)


def init_params(spec: GnnSpec, seed: int) -> GnnParams:
    """Uniform(-a, a) matrices with a = 1/sqrt(fan_in); zero biases.

    The draws are taken array by array in :meth:`GnnParams.iter_arrays`
    order, each ``rng.uniform`` over the array's own shape, so the values
    do not depend on where the array sits in the flat buffer.
    """
    rng = np.random.default_rng(seed)
    params = zero_params(spec)
    for _, arr in params.iter_arrays():
        if arr.ndim == 2:              # the biases b_v and b_e stay zero
            bound = 1.0 / np.sqrt(max(arr.shape[1], 1))
            arr[...] = rng.uniform(-bound, bound, arr.shape)
    return params


def zeros_like_params(params: GnnParams) -> GnnParams:
    return GnnParams(np.zeros(params.flat.size), params.layout)


# -- activations --------------------------------------------------------------

def _leaky(z):
    # max(z, 0.2 z) is the leaky ReLU, with no select
    y = z * LEAKY_SLOPE
    return np.maximum(z, y, out=y)


def _dleaky(x):
    """max(1{x > 0}, 0.2), the leaky-ReLU derivative, 1 or 0.2 with no
    select.  x may be the pre-activation z or the activation _leaky(z): the
    two are positive together.  A bool x is taken as the mask x > 0 itself."""
    d = (x if x.dtype == bool else x > 0.0).astype(float)
    return np.maximum(d, LEAKY_SLOPE, out=d)


def _softplus(z):
    return np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)


def _dsoftplus(z):
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# -- forward / backward -------------------------------------------------------

@dataclass
class GnnCache:
    """What :func:`gnn_backward` reads of one forward pass.

    Per layer t: the message input ``messages[t]``, the (N, K, 2 dv + 2 de)
    matrix X = [d, sum_{i != k} d_i, sum_i e_ik, sum_i e_ki] that the vertex
    block multiplies, and the edge input ``e_inputs[t]``.  The vertex input
    is X's first column block (for t > 0 the activation of layer t - 1),
    which :attr:`d_inputs` lists.  No hidden pre-activation is kept: the
    backward pass reads the leaky-ReLU derivative off the activation, which
    is the next layer's input.  ``zv_out`` is the output layer's vertex
    pre-activation, which is the vertex output itself unless the head is
    softplus.

    A sign-only cache (:func:`sign_only_cache`) keeps ``messages[0]``,
    ``e_inputs[0]`` and ``zv_out``; for t > 0 ``messages[t]`` is the
    (N, K, dv) bool mask ``d > 0`` of the vertex input alone and
    ``e_inputs[t]`` the mask ``e > 0`` of the edge input.  It serves a
    ``wrt="inputs"`` backward only, since the weight gradients read the
    inputs themselves.
    """

    spec: GnnSpec
    params: GnnParams
    messages: list[np.ndarray]
    e_inputs: list[np.ndarray]
    zv_out: np.ndarray | None = None

    @property
    def d_inputs(self) -> list[np.ndarray]:
        """Each layer's vertex input, the view ``messages[t][..., :dv]`` (on
        a sign-only cache its mask for t > 0)."""
        return [x[..., :dv] for x, dv in zip(self.messages, self.spec.vertex_widths)]


def sign_only_cache(cache: GnnCache) -> GnnCache:
    """The sign-only cache of a forward pass: what a ``wrt="inputs"``
    backward reads of ``cache``.

    Layer 0's message and edge input and ``zv_out`` stay as they are; each
    hidden vertex and edge activation becomes its ``> 0.0`` bool mask, the
    compare :func:`_dleaky` would make, so the backward pass gives the same
    input gradients bit for bit.  The hidden messages' neighbour sums, which
    only the weight gradients read, are dropped.  ``cache`` is not changed;
    the caller drops it to free its arrays.
    """
    dvs = cache.spec.vertex_widths
    return GnnCache(
        spec=cache.spec, params=cache.params,
        messages=cache.messages[:1] + [x[..., :dv] > 0.0 for x, dv
                                       in zip(cache.messages[1:], dvs[1:])],
        e_inputs=cache.e_inputs[:1] + [e > 0.0 for e in cache.e_inputs[1:]],
        zv_out=cache.zv_out)


def _diagonal(x: np.ndarray) -> np.ndarray:
    """The self-edges x[:, k, k] of a C-contiguous (N, K, K, W) array, as
    the strided (N, K, W) view of its diagonal."""
    if not x.flags.c_contiguous:
        raise ValueError("edge array must be C-contiguous")
    n, k = x.shape[:2]
    return x.reshape(n, k * k, x.shape[3])[:, ::k + 1]


def _zero_diagonal(x: np.ndarray) -> np.ndarray:
    """Zero the unused self-edges x[:, k, k] of a C-contiguous (N, K, K, W)
    array in place, through the strided view of its diagonal; returns x."""
    _diagonal(x)[...] = 0.0
    return x


# -- batch kernels (module docstring, "Batch kernels") ------------------------
# A pass binds its pair once: a choice at each call site costs a one-scene
# pass measurably, since per-call overhead dominates there.

@functools.lru_cache(maxsize=64)
def _ones(k: int) -> np.ndarray:
    """The read-only length-k ones vector the batch edge sums multiply by."""
    ones = np.ones(k)
    ones.flags.writeable = False
    return ones


def _flat_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a 2-D b, as one GEMM over a's flattened leading axes."""
    return (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + b.shape[1:])


def _ones_sum(e: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """np.add.reduce(e, axis, out=out) over axis 1 or 2 of an (N, K, K, W)
    edge array, as GEMVs by a ones vector."""
    n, k = e.shape[:2]
    if axis == 2:                      # sum_j e[n, k, j]: one GEMV per (n, k)
        return np.matmul(_ones(k), e, out=out)
    # sum_i e[n, i]: one GEMV per scene over the rows of the (K, K W) view
    out[...] = (_ones(k) @ e.reshape(n, k, k * e.shape[3])).reshape(out.shape)
    return out


def _kernels(n: int):
    """(GEMM, edge-axis sum) for a batch of n scenes; both take numpy's
    ``np.matmul(a, b)`` and ``np.add.reduce(e, axis, out=...)`` arguments."""
    return (np.matmul, np.add.reduce) if n == 1 else (_flat_matmul, _ones_sum)


def gnn_forward(spec: GnnSpec, params: GnnParams, d0: np.ndarray,
                e0: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, GnnCache]:
    """Batched forward pass.

    ``d0`` is (N, K, Fv) and ``e0`` is (N, K, K, Fe) with the diagonal unused
    (forced to zero).  Returns vertex outputs (N, K, out), edge outputs
    (N, K, K, out) or None when the spec has no edge head, and the cache for
    :func:`gnn_backward`.  An identity-activated vertex output is the cached
    pre-activation itself, so callers must not write to the outputs.
    The edge sums are ``np.add.reduce`` for one scene and GEMVs by a ones
    vector for a batch (module docstring, "Batch kernels"); either way
    identical inputs give bit-identical outputs on one numpy/BLAS build
    with one BLAS thread.
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

    dvs, des = spec.vertex_widths, spec.edge_widths
    matmul, edge_sum = _kernels(n)
    d, e = d0, _zero_diagonal(e0.copy())
    cache = GnnCache(spec=spec, params=params, messages=[], e_inputs=[])
    for t, (lp, (w_v, u_ends)) in enumerate(zip(params.layers, params.blocks)):
        last = t == spec.transitions - 1
        dv, de = dvs[t], des[t]
        # X = [d, sum_{i != k} d_i, sum_i e_ik, sum_i e_ki], each sum written
        # straight into its block; np.add.reduce stands in for the sum
        # wrappers, which cost as much as the sums at batch 1
        x = np.empty((n, k, 2 * (dv + de)))
        x[..., :dv] = d
        np.subtract(np.add.reduce(d, 1, keepdims=True), d, out=x[..., dv:2 * dv])
        edge_sum(e, 1, out=x[..., 2 * dv:2 * dv + de])   # sum_i e[i, k]
        edge_sum(e, 2, out=x[..., 2 * dv + de:])         # sum_i e[k, i]
        cache.messages.append(x)
        cache.e_inputs.append(e)

        zv = matmul(x, w_v.T)
        zv += lp.b_v

        if u_ends is not None:
            de_out = des[t + 1]
            ends = matmul(d, u_ends.T)     # [d U_src^T, d U_dst^T]
            ze = matmul(e, lp.u_edge.T)
            ze += ends[:, :, None, :de_out]
            ze += ends[:, None, :, de_out:]
            del ends                       # before the edge-sized arrays
            ze += lp.b_e
            _zero_diagonal(ze)
            # the edge head is the identity and the leaky ReLU maps 0 to 0,
            # so e keeps a zero diagonal
            e = ze if last else _leaky(ze)
        else:
            e = None
        if not last:
            d = _leaky(zv)
        elif spec.vertex_head_activation == "softplus":
            cache.zv_out, d = zv, _softplus(zv)
        else:
            cache.zv_out = d = zv
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
    the same parameter object; a sign-only cache (:func:`sign_only_cache`)
    serves ``wrt="inputs"`` only, and raises ``ValueError`` for the others.

    ``wrt`` names the outputs the caller uses; the others are not computed
    and come back as None.  ``"both"`` computes all three.  ``"params"``
    computes the parameter gradients only: it skips the layer-0 input
    gradients.  ``"inputs"`` computes the two input gradients only: it
    skips every weight-gradient GEMM and the gradient tree.  Each output
    that is computed equals (``np.array_equal``) the same output of
    ``"both"``, because it comes from the same operations.

    Each weight gradient is one GEMM over the flattened batch, vertex and
    edge axes: one for the whole vertex block, ``_wgrad(gzv, X)``, and one
    for the endpoint block on the per-source and per-destination edge sums,
    which are reduced before it.  One GEMM ``gzv @ W_v`` gives all four
    vertex-message parts of the input gradient, and one the endpoint pair.
    The neighbour sums of the layer inputs are the cached X, so no edge
    input is reduced again.  The products and edge sums run on the kernel
    pair of the cache's batch size (module docstring, "Batch kernels").
    Reproducibility: repeated calls on one cache give bit-identical results
    on one numpy/BLAS build with one BLAS thread.  The summation order
    differs from the direct contractions (``einsum("nijp,niq->pq", ...)``
    and the like), so across the two forms every returned array, parameter
    and input gradients alike, agrees to within 1e-12 of its largest entry.
    """
    if wrt not in _WRT:
        raise ValueError(f"wrt must be one of {_WRT}, got {wrt!r}")
    if cache.params is not params or cache.spec is not spec:
        raise ValueError("cache does not belong to these parameters (stale cache)")
    # a sign-only cache keeps its hidden activations as bool masks
    if wrt != "inputs" and any(x.dtype == bool for x in cache.messages):
        raise ValueError(f"a sign-only cache serves wrt='inputs' only, "
                         f"got wrt={wrt!r}")
    want_inputs = wrt != "params"
    grads = zeros_like_params(params) if wrt != "inputs" else None
    dvs, des = spec.vertex_widths, spec.edge_widths
    matmul, edge_sum = _kernels(cache.messages[0].shape[0])

    # read only: the output layer takes it as its vertex gradient
    gd = np.ascontiguousarray(d_out_grad, dtype=float)
    if gd.shape != cache.zv_out.shape:
        raise ValueError("vertex output gradient has wrong shape")
    if params.layers[-1].u_edge is not None:
        if e_out_grad is None:
            raise ValueError("edge output gradient required for this spec")
        # a private copy: every layer scales its ge in place
        ge = _zero_diagonal(np.array(e_out_grad, dtype=float))
    else:
        ge = None

    for t in range(spec.transitions - 1, -1, -1):
        lp = params.layers[t]
        w_v, u_ends = params.blocks[t]
        gl = grads.layers[t] if grads is not None else None
        gw_v, gu_ends = grads.blocks[t] if grads is not None else (None, None)
        # this layer's input gradients feed the layer below or the caller
        pass_down = want_inputs or t > 0
        last = t == spec.transitions - 1
        dv, de = dvs[t], des[t]

        d_in = cache.messages[t][..., :dv]
        e_in = cache.e_inputs[t]

        if not last:
            gzv = _dleaky(cache.messages[t + 1][..., :dvs[t + 1]])
            gzv *= gd
        elif spec.vertex_head_activation == "softplus":
            gzv = _dsoftplus(cache.zv_out)
            gzv *= gd
        else:
            gzv = gd                       # the identity's derivative is 1

        if gl is not None:
            gw_v += _wgrad(gzv, cache.messages[t])
            gl.b_v[...] += gzv.sum(axis=(0, 1))

        if pass_down:
            gx = matmul(gzv, w_v)          # dLoss/dX, (N, K, 2 dv + 2 de)
            g_other = gx[..., dv:2 * dv]
            gd_prev = np.add.reduce(g_other, 1, keepdims=True) - g_other
            gd_prev += gx[..., :dv]
            ge_prev = (gx[:, None, :, 2 * dv:2 * dv + de]
                       + gx[:, :, None, 2 * dv + de:])
            del gx, g_other                # before the edge-sized arrays

        if u_ends is not None:
            # ge has a zero diagonal, so gze does too
            gze = ge
            if not last:
                gze *= _dleaky(cache.e_inputs[t + 1])
            de_out = des[t + 1]
            gze_ends = np.empty(gze.shape[:2] + (2 * de_out,))
            edge_sum(gze, 2, out=gze_ends[..., :de_out])   # sum_j gze[k, j]
            edge_sum(gze, 1, out=gze_ends[..., de_out:])   # sum_i gze[i, k]
            if gl is not None:
                gl.u_edge[...] += _wgrad(gze, e_in)
                gu_ends += _wgrad(gze_ends, d_in)
                gl.b_e[...] += gze.sum(axis=(0, 1, 2))
            if pass_down:
                gd_prev += matmul(gze_ends, u_ends)
                ge_prev += matmul(gze, lp.u_edge)

        if pass_down:
            gd, ge = gd_prev, _zero_diagonal(ge_prev)
    if not want_inputs:
        return grads, None, None
    return grads, gd, ge
