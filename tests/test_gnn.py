import ctypes
import hashlib
import os
import resource
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (all_permutations, cpu_dispatch_targets, random_weights,
                      run_in_fresh_interpreter)
from oracles import (pair_backward, pair_forward, pair_output_grads,
                     pair_unpack_complex, pair_weight_features,
                     pair_weight_grad, plain_gnn_backward, plain_gnn_forward,
                     reload_from_earlier_format)
from lcapa.gnn import (
    GnnCache,
    GnnSpec,
    _dleaky,
    _leaky,
    _zero_diagonal,
    gnn_backward,
    gnn_forward,
    init_params,
    param_layout,
    policy_spec,
    proj_spec,
    value_spec,
    zeros_like_params,
)
from lcapa.heads import (
    GnnModel,
    _complex_head_backward,
    _pack_weight_features,
    _unpack_complex,
    _weight_grad_from_features,
    policy_backward,
    policy_forward,
    proj_backward,
    proj_forward,
    value_backward,
    value_forward,
)

SMALL = dict(hidden=8, layers=3)


def _tree(spec, params, reloaded):
    """``params``, or, where ``reloaded``, the same tree as ``load_checkpoint``
    reads it back from the checkpoint format written before the architecture
    was fixed (``edge_aggregation: false``, ``hidden_slope: 0.2`` and a null
    ``u_agg`` per layer): the tests parametrized on it hold on both."""
    return reload_from_earlier_format(spec, params) if reloaded else params


def small_model(kind, seed=0, **norms):
    spec = {"policy": policy_spec, "proj": proj_spec, "value": value_spec}[kind](**SMALL)
    defaults = {"pos_scale": 30.0, "a_scale": 1.0, "out_scale": 1.0}
    defaults.update(norms)
    return GnnModel(spec=spec, params=init_params(spec, seed), norms=defaults)


def random_features(rng, spec, n, k):
    d0 = rng.standard_normal((n, k, spec.vertex_widths[0]))
    e0 = rng.standard_normal((n, k, k, spec.edge_widths[0]))
    return d0, e0


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GnnSpec(kind="nope", vertex_widths=(3, 2), edge_widths=(1, 2))
        with pytest.raises(ValueError):
            GnnSpec(kind="policy", vertex_widths=(3,), edge_widths=(1,))
        with pytest.raises(ValueError):
            GnnSpec(kind="policy", vertex_widths=(3, 2), edge_widths=(1, 2, 2))
        # the widths are the whole architecture
        assert [f.name for f in fields(GnnSpec)] == [
            "kind", "vertex_widths", "edge_widths"]

    @pytest.mark.parametrize("width", [8.0, 8.5, True, "8"],
                             ids=["integral-float", "float", "bool", "string"])
    def test_non_integer_width_rejected(self, width):
        # 8.0 and True used to build a spec that init_params or the first
        # forward pass failed on with TypeError
        with pytest.raises(ValueError, match="widths must be integers"):
            GnnSpec("policy", (3, width, 2), (1, 8, 2))
        with pytest.raises(ValueError, match="widths must be integers"):
            GnnSpec("policy", (3, 8, 2), (1, width, 2))

    @pytest.mark.parametrize("kind,vertex,edge", [
        ("policy", 1, 2), ("policy", 3, 2), ("policy", 2, 0),
        ("value", 2, 1), ("value", 2, 4), ("proj", 2, 0), ("proj", 1, 2)])
    def test_action_widths_fixed_by_kind(self, kind, vertex, edge):
        # the heads read a complex entry off every vertex and edge of policy
        # and value, and one power off every proj vertex
        inputs = {"policy": (3, 1), "proj": (5, 2), "value": (5, 2)}[kind]
        with pytest.raises(ValueError, match="action widths"):
            GnnSpec(kind, (inputs[0], 8, vertex), (inputs[1], 8, edge))

    def test_factories(self):
        assert policy_spec().vertex_widths == (3, 64, 64, 2)
        assert proj_spec().edge_widths == (2, 64, 64, 0)
        assert value_spec(hidden=32, layers=5).vertex_widths == (5, 32, 32, 32, 2)

    @pytest.mark.parametrize("factory", [policy_spec, proj_spec, value_spec])
    @pytest.mark.parametrize("layers", [1, 0, -3])
    def test_fewer_than_two_layers_rejected(self, factory, layers):
        # layers=1 used to build the layers=2 network and ignore `hidden`
        with pytest.raises(ValueError, match="layers must be >= 2"):
            factory(hidden=8, layers=layers)
        assert len(factory(hidden=8, layers=2).vertex_widths) == 2

    def test_round_trip_dict(self):
        spec = value_spec(hidden=16, layers=4)
        assert GnnSpec.from_dict(spec.to_dict()) == spec
        # the earlier format also wrote the two settings the architecture fixes
        earlier = dict(spec.to_dict(), edge_aggregation=False, hidden_slope=0.2)
        assert GnnSpec.from_dict(earlier) == spec
        for key, value in (("edge_aggregation", True), ("hidden_slope", 0.5),
                           ("edge_aggregation", 0), ("hidden_slope", "0.2")):
            with pytest.raises(ValueError, match=key):
                GnnSpec.from_dict(dict(earlier, **{key: value}))


class TestInit:
    def test_deterministic(self):
        spec = policy_spec(**SMALL)
        a = init_params(spec, 3)
        b = init_params(spec, 3)
        for (na, pa), (nb, pb) in zip(a.iter_arrays(), b.iter_arrays()):
            assert na == nb and np.array_equal(pa, pb)

    def test_seeds_differ(self):
        spec = policy_spec(**SMALL)
        a = init_params(spec, 3)
        b = init_params(spec, 4)
        assert any(not np.array_equal(pa, pb)
                   for (_, pa), (_, pb) in zip(a.iter_arrays(), b.iter_arrays()))

    @pytest.mark.parametrize("reloaded", [False, True])
    @pytest.mark.parametrize("factory", [policy_spec, proj_spec, value_spec])
    def test_matches_per_array_uniform_draws(self, factory, reloaded):
        # the draws go straight into the buffer; rng.uniform per matrix, in
        # field order, is the reference
        spec = factory(**SMALL)
        rng = np.random.default_rng(6)
        params = _tree(spec, init_params(spec, 6), reloaded)
        for name, arr in params.iter_arrays():
            if arr.ndim == 1:
                want = np.zeros(arr.shape)
            else:
                bound = 1.0 / np.sqrt(arr.shape[1])
                want = rng.uniform(-bound, bound, size=arr.shape)
            assert arr.tobytes() == want.tobytes(), name

    def test_fan_in_variance(self):
        spec = GnnSpec(kind="value", vertex_widths=(64, 256, 2),
                       edge_widths=(64, 256, 2))
        params = init_params(spec, 0)
        w = params.layers[0].w_self
        expected = 1.0 / (3.0 * w.shape[1])
        assert np.var(w) == pytest.approx(expected, rel=0.1)


# SHA-256 prefixes, per (kind, hidden, layers), of init_params(spec, 0): of
# its flat bytes, and of its layout, each named array's (name, offset into
# flat, shape, strides) followed by each fused block's.
PINNED_TREES = {
    ("policy", 8, 2): ("aabfb41433ea220f", "84fefff016e63234"),
    ("policy", 8, 3): ("454d145da9aefc0d", "c25e7b21381cf9fd"),
    ("policy", 64, 4): ("1387186ce80df08b", "2a017f4408a64517"),
    ("policy", 5, 5): ("80c6444ef4c86a5f", "8b2525c2e1187f6b"),
    ("proj", 8, 2): ("3157cabc27b1f285", "bcdfbd3d95531c22"),
    ("proj", 8, 3): ("ee0b0b85d1620458", "a1ec7428171e3280"),
    ("proj", 64, 4): ("81a13786b5168e5a", "5b57e8da552140f1"),
    ("proj", 5, 5): ("560acc252d8ea3da", "047587554a7d307b"),
    ("value", 8, 2): ("9edbcc9734527be5", "03796450881e727a"),
    ("value", 8, 3): ("f3c206f6600669a3", "12bfb3d7c0e1cf8a"),
    ("value", 64, 4): ("fc90669cc55ba2de", "5c43cbb86d017a82"),
    ("value", 5, 5): ("39fdefe3e036badd", "1172da501f2748f0"),
}


def _tree_digests(params):
    def offset(arr):
        start = params.flat.__array_interface__["data"][0]
        return (arr.__array_interface__["data"][0] - start) // params.flat.itemsize

    rows = [(name, offset(a), a.shape, a.strides)
            for name, a in params.iter_arrays()]
    for t, blocks in enumerate(params.blocks):
        for i, b in enumerate(blocks):
            rows.append((t, i, None if b is None else
                         (offset(b), b.shape, b.strides)))
    return (hashlib.sha256(params.flat.tobytes()).hexdigest()[:16],
            hashlib.sha256(repr(rows).encode()).hexdigest()[:16])


class TestParams:
    """Every tree is views of one flat buffer, and no two trees share one."""

    @pytest.mark.parametrize("reloaded", [False, True])
    def test_arrays_are_views_of_the_flat_buffer(self, reloaded):
        for factory in (policy_spec, proj_spec, value_spec):
            spec = factory(**SMALL)
            params = _tree(spec, init_params(spec, 3), reloaded)
            assert params.layout == param_layout(spec)
            assert params.flat.dtype == np.float64 and params.flat.flags.owndata
            arrays = [a for _, a in params.iter_arrays()]
            assert [a.shape for a in arrays] == [
                s for layer in params.layout for s in layer if s is not None]
            # the named arrays tile flat exactly once
            params.flat[...] = np.arange(params.flat.size)
            seen = np.sort(np.concatenate([a.ravel() for a in arrays]))
            assert np.array_equal(seen, np.arange(params.flat.size)), spec.kind
            # the kernels' fused blocks are the named arrays side by side
            # (vertex) and stacked (endpoints), as C-contiguous views
            for lp, (w_v, u_ends) in zip(params.layers, params.blocks, strict=True):
                assert np.array_equal(w_v, np.concatenate(
                    [lp.w_self, lp.w_other, lp.w_ein, lp.w_eout], axis=1))
                assert w_v.flags.c_contiguous and np.shares_memory(w_v, params.flat)
                if lp.u_src is None:
                    assert u_ends is None
                    continue
                assert np.array_equal(u_ends, np.concatenate([lp.u_src, lp.u_dst]))
                assert (u_ends.flags.c_contiguous
                        and np.shares_memory(u_ends, params.flat))

    def test_copy_and_zeros_share_no_memory(self):
        params = init_params(value_spec(**SMALL), 4)
        for other in (params.copy(), zeros_like_params(params)):
            assert other.layout == params.layout
            assert not np.shares_memory(other.flat, params.flat)
            for (name, a), (_, b) in zip(params.iter_arrays(),
                                         other.iter_arrays(), strict=True):
                assert not np.shares_memory(a, b), name
        assert params.copy().flat.tobytes() == params.flat.tobytes()
        assert not np.any(zeros_like_params(params).flat)

    @pytest.mark.parametrize("kind", ["policy", "proj", "value"])
    @pytest.mark.parametrize("hidden,layers", [(8, 2), (8, 3), (64, 4), (5, 5)])
    def test_layout_is_pinned(self, kind, hidden, layers):
        # the bytes init_params writes, and where every named array and fused
        # block sits in them, are those the buffer has always had
        spec = {"policy": policy_spec, "proj": proj_spec,
                "value": value_spec}[kind](hidden=hidden, layers=layers)
        params = init_params(spec, 0)
        assert _tree_digests(params) == PINNED_TREES[kind, hidden, layers]

    @pytest.mark.parametrize("target", ["field", "layer", "flat", "blocks",
                                        "layout"])
    def test_structure_cannot_be_rebound(self, target):
        # the kernels and the optimizer read the blocks of flat, so no array
        # can be swapped for one outside it
        spec = value_spec(**SMALL)
        params = init_params(spec, 2)
        before = _tree_digests(params)
        with pytest.raises((AttributeError, TypeError)):
            if target == "field":
                params.layers[1].w_ein = params.layers[1].w_ein.copy()
            elif target == "layer":
                params.layers[1] = params.copy().layers[1]
            elif target == "flat":
                params.flat = params.flat.copy()
            elif target == "blocks":
                params.blocks = params.copy().blocks
            else:
                params.layout = param_layout(policy_spec(**SMALL))
        assert _tree_digests(params) == before
        # values still change in place, in flat
        params.layers[1].b_v[...] += 1.0
        assert _tree_digests(params)[0] != before[0]


class TestForward:
    def test_k1_reduces_to_self_chain(self):
        spec = value_spec(**SMALL)
        params = init_params(spec, 1)
        rng = np.random.default_rng(0)
        d0 = rng.standard_normal((1, 1, 5))
        e0 = np.zeros((1, 1, 1, 2))
        d_out, e_out, _ = gnn_forward(spec, params, d0, e0)
        # manual per-vertex chain through w_self only
        x = d0[0, 0]
        for t, lp in enumerate(params.layers):
            z = lp.w_self @ x + lp.b_v
            x = z if t == spec.transitions - 1 else np.where(z > 0, z, 0.2 * z)
        assert np.allclose(d_out[0, 0], x, rtol=1e-12)

    def test_k1_independent_of_edge_params(self):
        spec = value_spec(**SMALL)
        params = init_params(spec, 1)
        rng = np.random.default_rng(0)
        d0 = rng.standard_normal((1, 1, 5))
        e0 = np.zeros((1, 1, 1, 2))
        base, _, _ = gnn_forward(spec, params, d0, e0)
        mutated = params.copy()
        for lp in mutated.layers:
            if lp.u_edge is not None:
                lp.u_edge[...] += 10.0
                lp.u_src[...] += 10.0
        out, _, _ = gnn_forward(spec, mutated, d0, e0)
        assert np.array_equal(base, out)

    def test_deterministic_bit_identical(self):
        spec = value_spec(**SMALL)
        params = init_params(spec, 2)
        rng = np.random.default_rng(1)
        d0, e0 = random_features(rng, spec, 3, 4)
        a = gnn_forward(spec, params, d0, e0)
        b = gnn_forward(spec, params, d0, e0)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_identical_vertices_get_identical_rows(self):
        spec = value_spec(**SMALL)
        params = init_params(spec, 3)
        rng = np.random.default_rng(2)
        d0, e0 = random_features(rng, spec, 1, 3)
        d0[0, 1] = d0[0, 0]
        # make incident edge features identical under swapping vertices 0, 1
        e0[0, 1, 2] = e0[0, 0, 2]
        e0[0, 2, 1] = e0[0, 2, 0]
        e0[0, 0, 1] = e0[0, 1, 0]
        d_out, _, _ = gnn_forward(spec, params, d0, e0)
        assert np.allclose(d_out[0, 0], d_out[0, 1], rtol=1e-12)

    @pytest.mark.parametrize("reloaded", [False, True])
    def test_raw_equivariance_all_permutations(self, reloaded):
        spec = value_spec(**SMALL)
        params = _tree(spec, init_params(spec, 4), reloaded)
        rng = np.random.default_rng(3)
        d0, e0 = random_features(rng, spec, 1, 4)
        e0[0, np.arange(4), np.arange(4)] = 0.0
        d_ref, e_ref, _ = gnn_forward(spec, params, d0, e0)
        for pi in all_permutations(4):
            perm = np.argwhere(pi.T)[:, 1]
            d_p, e_p, _ = gnn_forward(spec, params, d0[:, perm],
                                      e0[:, perm][:, :, perm])
            assert np.allclose(d_p, d_ref[:, perm], rtol=1e-9, atol=1e-12)
            assert np.allclose(e_p, e_ref[:, perm][:, :, perm], rtol=1e-9,
                               atol=1e-12)

    def test_shape_mismatch_rejected(self):
        spec = value_spec(**SMALL)
        params = init_params(spec, 0)
        with pytest.raises(ValueError, match="widths"):
            gnn_forward(spec, params, np.zeros((1, 4, 3)), np.zeros((1, 4, 4, 2)))
        with pytest.raises(ValueError, match="shape"):
            gnn_forward(spec, params, np.zeros((1, 4, 5)), np.zeros((1, 3, 3, 2)))


def _fd_check_raw(spec, params, d0, e0, probes, seed, tol=1e-5):
    """Central-difference check of gnn_backward on random parameters."""
    from lcapa.training import finite_diff_check

    rng = np.random.default_rng(seed)
    d_out, e_out, cache = gnn_forward(spec, params, d0, e0)
    wd = rng.standard_normal(d_out.shape)
    we = rng.standard_normal(e_out.shape) if e_out is not None else None

    def loss():
        d, e, _ = gnn_forward(spec, params, d0, e0)
        total = np.sum(d * wd)
        if we is not None:
            total += np.sum(e * we)
        return total

    grads, _, _ = gnn_backward(spec, params, cache, wd, we)
    worst = finite_diff_check(loss, params, grads, probes=probes, seed=seed)
    assert worst <= tol, f"max relative gradient error {worst:.2e}"
    return worst


class TestBackward:
    @pytest.mark.parametrize("kind,reloaded", [("policy", False), ("proj", False),
                                               ("value", False), ("value", True)])
    def test_finite_difference(self, kind, reloaded):
        spec = {"policy": policy_spec, "proj": proj_spec,
                "value": value_spec}[kind](hidden=6, layers=3)
        params = _tree(spec, init_params(spec, 5), reloaded)
        rng = np.random.default_rng(6)
        d0, e0 = random_features(rng, spec, 2, 3)
        _fd_check_raw(spec, params, d0, e0, probes=120, seed=7)

    def test_zero_upstream_gives_zero_grads(self):
        spec = value_spec(**SMALL)
        params = init_params(spec, 8)
        rng = np.random.default_rng(9)
        d0, e0 = random_features(rng, spec, 1, 3)
        d_out, e_out, cache = gnn_forward(spec, params, d0, e0)
        grads, gd0, ge0 = gnn_backward(spec, params, cache,
                                       np.zeros_like(d_out), np.zeros_like(e_out))
        assert all(np.all(a == 0.0) for _, a in grads.iter_arrays())
        assert np.all(gd0 == 0.0) and np.all(ge0 == 0.0)

    def test_adjoint_linearity(self):
        spec = value_spec(**SMALL)
        params = init_params(spec, 10)
        rng = np.random.default_rng(11)
        d0, e0 = random_features(rng, spec, 1, 3)
        d_out, e_out, cache = gnn_forward(spec, params, d0, e0)
        g1d = rng.standard_normal(d_out.shape)
        g2d = rng.standard_normal(d_out.shape)
        g1e = rng.standard_normal(e_out.shape)
        g2e = rng.standard_normal(e_out.shape)
        a, _, _ = gnn_backward(spec, params, cache, g1d, g1e)
        b, _, _ = gnn_backward(spec, params, cache, g2d, g2e)
        c, _, _ = gnn_backward(spec, params, cache, g1d + g2d, g1e + g2e)
        for (_, pa), (_, pb), (_, pc) in zip(a.iter_arrays(), b.iter_arrays(),
                                             c.iter_arrays()):
            assert np.allclose(pa + pb, pc, rtol=1e-12, atol=1e-12)

    def test_stale_cache_rejected(self):
        spec = value_spec(**SMALL)
        params = init_params(spec, 12)
        rng = np.random.default_rng(13)
        d0, e0 = random_features(rng, spec, 1, 3)
        d_out, e_out, cache = gnn_forward(spec, params, d0, e0)
        other = init_params(spec, 12)
        with pytest.raises(ValueError, match="stale"):
            gnn_backward(spec, other, cache, np.zeros_like(d_out),
                         np.zeros_like(e_out))


# -- reference forms ------------------------------------------------------------
# The select-and-mask forms the layer kernels replaced.  They keep their own
# cache, with every pre-activation, and import nothing from lcapa.gnn but
# zeros_like_params, so a fault in the kernels cannot hide in the oracle.

def _offdiag_mask(k):
    return (~np.eye(k, dtype=bool))[None, :, :, None]


def _ref_act(z, name):
    if name == "leaky":
        return np.where(z > 0.0, z, 0.2 * z)
    if name == "softplus":
        return np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)
    return z


def _ref_act_grad(z, name):
    if name == "leaky":
        return np.where(z > 0.0, 1.0, 0.2)
    if name == "softplus":
        out = np.empty_like(z)
        pos = z >= 0.0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out
    return np.ones_like(z)


def _ref_wgrad(g, x):
    return g.reshape(-1, g.shape[-1]).T @ x.reshape(-1, x.shape[-1])


def _reference_forward(spec, params, d0, e0):
    """Forward pass through np.where activations and a bool off-diagonal mask."""
    d0 = np.asarray(d0, dtype=float)
    e0 = np.asarray(e0, dtype=float)
    mask = _offdiag_mask(d0.shape[1])
    d, e = d0, e0 * mask
    cache = SimpleNamespace(d_inputs=[], e_inputs=[], others=[], col=[],
                            row=[], zv=[], ze=[])
    for t, lp in enumerate(params.layers):
        last = t == spec.transitions - 1
        v_act = spec.vertex_head_activation if last else "leaky"
        e_act = "identity" if last else "leaky"
        cache.d_inputs.append(d)
        cache.e_inputs.append(e)
        sum_d = d.sum(axis=1, keepdims=True)
        col = e.sum(axis=1)
        row = e.sum(axis=2)
        cache.others.append(sum_d - d)
        cache.col.append(col)
        cache.row.append(row)
        zv = (d @ lp.w_self.T + (sum_d - d) @ lp.w_other.T
              + col @ lp.w_ein.T + row @ lp.w_eout.T + lp.b_v)
        cache.zv.append(zv)
        d = _ref_act(zv, v_act)
        if lp.u_edge is not None:
            ze = (e @ lp.u_edge.T
                  + (cache.d_inputs[-1] @ lp.u_src.T)[:, :, None, :]
                  + (cache.d_inputs[-1] @ lp.u_dst.T)[:, None, :, :]
                  + lp.b_e)
            ze = ze * mask
            cache.ze.append(ze)
            e = _ref_act(ze, e_act) * mask
        else:
            cache.ze.append(None)
            e = None
    return d, e, cache


def _reference_backward(spec, params, cache, d_out_grad, e_out_grad):
    """GEMM-form backward through np.where derivatives and the bool mask."""
    mask = _offdiag_mask(cache.d_inputs[0].shape[1])
    grads = zeros_like_params(params)
    gd = np.asarray(d_out_grad, dtype=float)
    ge = (np.asarray(e_out_grad, dtype=float) * mask
          if params.layers[-1].u_edge is not None else None)
    for t in range(spec.transitions - 1, -1, -1):
        lp, gl = params.layers[t], grads.layers[t]
        last = t == spec.transitions - 1
        v_act = spec.vertex_head_activation if last else "leaky"
        e_act = "identity" if last else "leaky"
        d_in, e_in = cache.d_inputs[t], cache.e_inputs[t]
        sum_d = d_in.sum(axis=1, keepdims=True)
        col, row = e_in.sum(axis=1), e_in.sum(axis=2)

        gzv = gd * _ref_act_grad(cache.zv[t], v_act)
        gl.w_self[...] += _ref_wgrad(gzv, d_in)
        gl.w_other[...] += _ref_wgrad(gzv, sum_d - d_in)
        gl.w_ein[...] += _ref_wgrad(gzv, col)
        gl.w_eout[...] += _ref_wgrad(gzv, row)
        gl.b_v[...] += gzv.sum(axis=(0, 1))
        sum_gzv = gzv.sum(axis=1, keepdims=True)
        gd_prev = gzv @ lp.w_self + (sum_gzv - gzv) @ lp.w_other
        ge_prev = ((gzv @ lp.w_ein)[:, None, :, :]
                   + (gzv @ lp.w_eout)[:, :, None, :])

        if lp.u_edge is not None:
            gze = ge * _ref_act_grad(cache.ze[t], e_act)
            gze_src = gze.sum(axis=2)
            gze_dst = gze.sum(axis=1)
            gl.u_edge[...] += _ref_wgrad(gze, e_in)
            gl.u_src[...] += _ref_wgrad(gze_src, d_in)
            gl.u_dst[...] += _ref_wgrad(gze_dst, d_in)
            gl.b_e[...] += gze.sum(axis=(0, 1, 2))
            gd_prev += gze_src @ lp.u_src + gze_dst @ lp.u_dst
            ge_prev += gze @ lp.u_edge
        gd, ge = gd_prev, ge_prev * mask
    return grads, gd, ge


def _einsum_backward(spec, params, cache, d_out_grad, e_out_grad):
    """Reference backward: every weight gradient as one direct einsum."""
    k = cache.d_inputs[0].shape[1]
    mask = _offdiag_mask(k)
    grads = zeros_like_params(params)
    gd = np.asarray(d_out_grad, dtype=float)
    ge = (np.asarray(e_out_grad, dtype=float) * mask
          if params.layers[-1].u_edge is not None else None)
    for t in range(spec.transitions - 1, -1, -1):
        lp, gl = params.layers[t], grads.layers[t]
        last = t == spec.transitions - 1
        v_act = spec.vertex_head_activation if last else "leaky"
        e_act = "identity" if last else "leaky"
        d_in, e_in = cache.d_inputs[t], cache.e_inputs[t]
        sum_d = d_in.sum(axis=1, keepdims=True)
        col, row = e_in.sum(axis=1), e_in.sum(axis=2)

        gzv = gd * _ref_act_grad(cache.zv[t], v_act)
        gl.w_self[...] += np.einsum("nkp,nkq->pq", gzv, d_in)
        gl.w_other[...] += np.einsum("nkp,nkq->pq", gzv, sum_d - d_in)
        gl.w_ein[...] += np.einsum("nkp,nkq->pq", gzv, col)
        gl.w_eout[...] += np.einsum("nkp,nkq->pq", gzv, row)
        gl.b_v[...] += gzv.sum(axis=(0, 1))
        sum_gzv = gzv.sum(axis=1, keepdims=True)
        gd_prev = gzv @ lp.w_self + (sum_gzv - gzv) @ lp.w_other
        ge_prev = ((gzv @ lp.w_ein)[:, None, :, :]
                   + (gzv @ lp.w_eout)[:, :, None, :])

        if lp.u_edge is not None:
            gze = ge * _ref_act_grad(cache.ze[t], e_act) * mask
            gl.u_edge[...] += np.einsum("nijp,nijq->pq", gze, e_in)
            gl.u_src[...] += np.einsum("nijp,niq->pq", gze, d_in)
            gl.u_dst[...] += np.einsum("nijp,njq->pq", gze, d_in)
            gl.b_e[...] += gze.sum(axis=(0, 1, 2))
            gd_prev += gze.sum(axis=2) @ lp.u_src + gze.sum(axis=1) @ lp.u_dst
            ge_prev += gze @ lp.u_edge
        gd, ge = gd_prev, ge_prev * mask
    return grads, gd, ge


def _backward_case(kind, reloaded, n, k):
    spec = {"policy": policy_spec, "proj": proj_spec,
            "value": value_spec}[kind](hidden=64, layers=4)
    params = _tree(spec, init_params(spec, 31), reloaded)
    rng = np.random.default_rng(32)
    d0, e0 = random_features(rng, spec, n, k)
    d_out, e_out, cache = gnn_forward(spec, params, d0, e0)
    _, _, ref_cache = _reference_forward(spec, params, d0, e0)
    wd = rng.standard_normal(d_out.shape)
    we = rng.standard_normal(e_out.shape) if e_out is not None else None
    return spec, params, cache, ref_cache, wd, we


def _named_outputs(result):
    grads, gd0, ge0 = result
    return list(grads.iter_arrays()) + [("d_input", gd0), ("e_input", ge0)]


class TestBackwardReference:
    """The GEMM-form backward against the direct einsum contractions."""

    @pytest.mark.parametrize("n,k", [(1, 1), (1, 4), (3, 5), (64, 4)])
    @pytest.mark.parametrize("reloaded", [False, True])
    @pytest.mark.parametrize("kind", ["policy", "proj", "value"])
    def test_matches_einsum_reference(self, kind, reloaded, n, k):
        spec, params, cache, ref_cache, wd, we = _backward_case(kind, reloaded,
                                                                n, k)
        got = _named_outputs(gnn_backward(spec, params, cache, wd, we))
        ref = _named_outputs(_einsum_backward(spec, params, ref_cache, wd, we))
        assert [name for name, _ in got] == [name for name, _ in ref]
        for (name, a), (_, b) in zip(got, ref):
            assert a.shape == b.shape, name
            err = np.max(np.abs(a - b))
            scale = np.max(np.abs(b))
            assert err <= 1e-12 * scale, (
                f"{name}: max abs difference {err:.3e} against max abs {scale:.3e}")

    @pytest.mark.parametrize("reloaded", [False, True])
    @pytest.mark.parametrize("kind", ["policy", "proj", "value"])
    def test_repeated_calls_bit_identical(self, kind, reloaded):
        spec, params, cache, _, wd, we = _backward_case(kind, reloaded, 64, 4)
        first = _named_outputs(gnn_backward(spec, params, cache, wd, we))
        second = _named_outputs(gnn_backward(spec, params, cache, wd, we))
        for (name, a), (_, b) in zip(first, second):
            assert a.tobytes() == b.tobytes(), name


class TestBackwardWrt:
    """``wrt="params"`` and ``wrt="inputs"`` compute parts of ``"both"``."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("reloaded", [False, True])
    @pytest.mark.parametrize("kind", ["policy", "proj", "value"])
    def test_parts_equal_both(self, kind, reloaded, n, k):
        spec, params, cache, _, wd, we = _backward_case(kind, reloaded, n, k)
        grads, gd0, ge0 = gnn_backward(spec, params, cache, wd, we)
        p_grads, p_gd0, p_ge0 = gnn_backward(spec, params, cache, wd, we,
                                             wrt="params")
        i_grads, i_gd0, i_ge0 = gnn_backward(spec, params, cache, wd, we,
                                             wrt="inputs")
        assert p_gd0 is None and p_ge0 is None and i_grads is None
        for (name, a), (p_name, b) in zip(grads.iter_arrays(),
                                          p_grads.iter_arrays(), strict=True):
            assert name == p_name and np.array_equal(a, b), name
        assert np.array_equal(gd0, i_gd0) and np.array_equal(ge0, i_ge0)

    def test_unknown_wrt_rejected(self):
        spec, params, cache, _, wd, we = _backward_case("value", False, 1, 2)
        with pytest.raises(ValueError, match="wrt"):
            gnn_backward(spec, params, cache, wd, we, wrt="weights")

    @pytest.mark.parametrize("kind", ["proj", "value"])
    def test_head_input_gradients_equal_both(self, kind):
        model = small_model(kind, a_scale=0.5, out_scale=2.0)
        rng = np.random.default_rng(29)
        pos = rng.uniform(10, 20, (2, 4, 3))
        a = np.stack([random_weights(rng, 4) for _ in range(2)])
        if kind == "proj":
            _, cache = proj_forward(model, pos, a)
            upstream = rng.standard_normal((2, 4))
            backward = proj_backward
        else:
            _, cache = value_forward(model, pos, a)
            upstream = (rng.standard_normal((2, 4, 4))
                        + 1j * rng.standard_normal((2, 4, 4)))
            backward = value_backward
        _, g = backward(model, cache, upstream)
        grads, i_g = backward(model, cache, upstream, wrt="inputs")
        assert grads is None and np.array_equal(g, i_g)
        assert backward(model, cache, upstream, wrt="params")[1] is None


# Special values the activation kernels must map like the select forms.
_SPECIAL = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0, -1.0,
                     5e-324, -5e-324, 1e-310, -1e-310, 1e308, -1e308])
_KERNEL_SHAPES = ((1, 1), (1, 4), (3, 5), (64, 4), (8, 16))


def _same_values(a, b):
    """Equal values with equal zero signs; any NaN matches any NaN."""
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan], b[~nan])
            and np.array_equal(np.signbit(a[~nan]), np.signbit(b[~nan])))


def _assert_activation_kernels_exact():
    z = np.concatenate([_SPECIAL,
                        np.random.default_rng(40).standard_normal(1000)])
    assert _same_values(_leaky(z), _ref_act(z, "leaky"))
    assert _same_values(_dleaky(z), _ref_act_grad(z, "leaky"))
    # the backward pass reads the derivative off the activation
    assert np.array_equal(_dleaky(_leaky(z)), _dleaky(z))


def _snapshot(arrays):
    return [None if a is None else a.copy() for a in arrays]


def _assert_unchanged(before, arrays, what):
    for i, (a, b) in enumerate(zip(before, arrays)):
        assert (a is None and b is None) or a.tobytes() == b.tobytes(), (
            f"{what}[{i}] was written to")


# Each array the plain oracle's cache keeps, and the reference's array it equals.
_CACHE_FIELDS = {"d_inputs": "d_inputs", "e_inputs": "e_inputs",
                 "d_others": "others", "e_col": "col", "e_row": "row"}


def _kernel_case(kind, reloaded, n, k):
    """A spec, parameters with nonzero biases, features and upstream gradients."""
    spec = {"policy": policy_spec, "proj": proj_spec,
            "value": value_spec}[kind](hidden=64, layers=4)
    params = init_params(spec, 31)
    rng = np.random.default_rng(32)
    for name, arr in params.iter_arrays():
        if name.endswith((".b_v", ".b_e")):
            # zero biases would hide the order in which the sums take them
            arr[...] = rng.uniform(-1.0, 1.0, arr.shape)
    params = _tree(spec, params, reloaded)
    d0, e0 = random_features(rng, spec, n, k)
    wd = rng.standard_normal((n, k, spec.vertex_widths[-1]))
    we = (rng.standard_normal((n, k, k, spec.edge_widths[-1]))
          if spec.edge_widths[-1] else None)
    return spec, params, d0, e0, wd, we


def _assert_plain_matches_reference(kind, reloaded, n, k):
    """The plain oracle equals the select-and-mask forms bit for bit."""
    spec, params, d0, e0, wd, we = _kernel_case(kind, reloaded, n, k)
    case = f"{kind} reloaded={reloaded} n={n} k={k}"
    d_out, e_out, cache = plain_gnn_forward(spec, params, d0, e0)
    d_ref, e_ref, ref_cache = _reference_forward(spec, params, d0, e0)
    assert np.array_equal(d_out, d_ref), case
    assert (e_out is None and e_ref is None) or np.array_equal(e_out, e_ref), case
    for name, ref_name in _CACHE_FIELDS.items():
        for t, (a, b) in enumerate(zip(getattr(cache, name),
                                       getattr(ref_cache, ref_name), strict=True)):
            assert (a is None and b is None) or np.array_equal(a, b), (
                f"{case}: cache.{name}[{t}]")
    assert np.array_equal(cache.zv_out, ref_cache.zv[-1]), f"{case}: cache.zv_out"
    got = _named_outputs(plain_gnn_backward(spec, params, cache, wd, we))
    ref = _named_outputs(_reference_backward(spec, params, ref_cache, wd, we))
    assert [name for name, _ in got] == [name for name, _ in ref]
    for (name, a), (_, b) in zip(got, ref):
        assert np.array_equal(a, b), f"{case}: {name}"


# The stated tolerance of the fused kernels against the plain oracle, as a
# multiple of each array's largest entry.
_FUSED_TOLERANCE = 1e-12


def _assert_close(got, want, what):
    assert (got is None and want is None) or got.shape == want.shape, what
    if got is not None:
        err = np.max(np.abs(got - want), initial=0.0)
        bound = _FUSED_TOLERANCE * np.max(np.abs(want), initial=0.0)
        assert err <= bound, f"{what}: max abs difference {err:.3e} > {bound:.3e}"


def _cache_arrays(cache):
    return cache.messages + cache.d_inputs + cache.e_inputs + [cache.zv_out]


def _assert_fused_matches_plain(kind, reloaded, n, k):
    """The fused kernels agree with the plain oracle to within the stated
    tolerance in every output, cached array and gradient, and write to none
    of their inputs."""
    spec, params, d0, e0, wd, we = _kernel_case(kind, reloaded, n, k)
    inputs = [d0, e0, wd, we, params.flat]
    before = _snapshot(inputs)
    case = f"{kind} reloaded={reloaded} n={n} k={k}"

    d_out, e_out, cache = gnn_forward(spec, params, d0, e0)
    d_ref, e_ref, ref_cache = plain_gnn_forward(spec, params, d0, e0)
    _assert_close(d_out, d_ref, f"{case}: vertex output")
    _assert_close(e_out, e_ref, f"{case}: edge output")
    assert {f.name for f in fields(GnnCache)} == {
        "spec", "params", "messages", "d_inputs", "e_inputs", "zv_out"}
    for t in range(spec.transitions):
        want = np.concatenate([ref_cache.d_inputs[t], ref_cache.d_others[t],
                               ref_cache.e_col[t], ref_cache.e_row[t]], axis=2)
        _assert_close(cache.messages[t], want, f"{case}: cache.messages[{t}]")
        _assert_close(cache.d_inputs[t], ref_cache.d_inputs[t],
                      f"{case}: cache.d_inputs[{t}]")
        _assert_close(cache.e_inputs[t], ref_cache.e_inputs[t],
                      f"{case}: cache.e_inputs[{t}]")
    _assert_close(cache.zv_out, ref_cache.zv_out, f"{case}: cache.zv_out")
    _assert_unchanged(before, inputs, f"{case} forward input")

    cached = _snapshot(_cache_arrays(cache))
    got = _named_outputs(gnn_backward(spec, params, cache, wd, we))
    ref = _named_outputs(plain_gnn_backward(spec, params, ref_cache, wd, we))
    assert [name for name, _ in got] == [name for name, _ in ref]
    for (name, a), (_, b) in zip(got, ref):
        _assert_close(a, b, f"{case}: {name}")
    _assert_unchanged(before, inputs, f"{case} backward input")
    _assert_unchanged(cached, _cache_arrays(cache), f"{case} cache")


def _assert_all_kernels_match():
    _assert_activation_kernels_exact()
    for kind in ("policy", "proj", "value"):
        for n, k in _KERNEL_SHAPES:
            _assert_plain_matches_reference(kind, False, n, k)
            _assert_fused_matches_plain(kind, False, n, k)


class TestLayerKernels:
    """The plain oracle against the select-and-mask forms, bit for bit, and
    the fused-block kernels against the plain oracle, within the stated
    tolerance."""

    def test_activation_kernels_exact(self):
        _assert_activation_kernels_exact()

    @pytest.mark.parametrize("n,k", _KERNEL_SHAPES)
    @pytest.mark.parametrize("reloaded", [False, True])
    @pytest.mark.parametrize("kind", ["policy", "proj", "value"])
    def test_bit_identical_to_reference(self, kind, reloaded, n, k):
        _assert_plain_matches_reference(kind, reloaded, n, k)

    @pytest.mark.parametrize("n,k", _KERNEL_SHAPES)
    @pytest.mark.parametrize("reloaded", [False, True])
    @pytest.mark.parametrize("kind", ["policy", "proj", "value"])
    def test_fused_kernels_match_plain_oracle(self, kind, reloaded, n, k):
        _assert_fused_matches_plain(kind, reloaded, n, k)

    @pytest.mark.skipif(not cpu_dispatch_targets(),
                        reason="numpy reports no CPU dispatch targets")
    def test_all_dispatch_targets_disabled(self, no_dispatch):
        no_dispatch("test_gnn", "_assert_all_kernels_match()")

    def test_zero_diagonal_matches_the_index_form(self):
        rng = np.random.default_rng(41)
        for n, k, w in ((1, 1, 1), (1, 4, 64), (3, 5, 2), (2, 16, 3)):
            x = rng.standard_normal((n, k, k, w))
            want = x.copy()
            want[:, np.arange(k), np.arange(k)] = 0.0
            assert _zero_diagonal(x) is x and x.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="contiguous"):
            _zero_diagonal(np.zeros((1, 4, 4, 2))[..., ::2])

    @pytest.mark.parametrize("kind", ["policy", "proj", "value"])
    def test_cache_keeps_the_vertex_input_shape(self, kind):
        # perfbench's flop model reads the batch and user counts off it
        spec, params, d0, e0, _, _ = _kernel_case(kind, False, 3, 5)
        _, _, cache = gnn_forward(spec, params, d0, e0)
        assert cache.d_inputs[0].shape[:2] == (3, 5)
        assert np.array_equal(cache.d_inputs[0], d0)


def _print_minor_faults_per_call(calls=20):
    """Minor page faults per value-spec forward+backward at N=64, K=4, H=64."""
    spec = value_spec(hidden=64)
    params = init_params(spec, 0)
    d0, e0 = random_features(np.random.default_rng(0), spec, 64, 4)

    def step():
        d, e, cache = gnn_forward(spec, params, d0, e0)
        gnn_backward(spec, params, cache, np.ones_like(d), np.ones_like(e))

    for _ in range(3):
        step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        step()
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls)


class TestAllocation:
    @pytest.mark.skipif(
        os.name != "posix" or not hasattr(ctypes.CDLL(None), "gnu_get_libc_version"),
        reason="the allocator policy applies to glibc's mallopt only")
    def test_passes_reuse_freed_blocks(self):
        # without the policy glibc returns each freed 512 KiB edge array to
        # the kernel, about a thousand minor faults per call
        run = run_in_fresh_interpreter("test_gnn", "_print_minor_faults_per_call()")
        assert run.returncode == 0, run.stderr
        assert float(run.stdout) <= 2.0


class TestPolicyHead:
    def test_equivariance(self):
        model = small_model("policy", out_scale=1e-4)
        rng = np.random.default_rng(14)
        pos = rng.uniform(10, 20, (4, 3))
        a_ref, _ = policy_forward(model, pos)
        for pi in all_permutations(4):
            a_p, _ = policy_forward(model, pi.T @ pos)
            assert np.allclose(a_p, pi.T @ a_ref @ pi, rtol=1e-9,
                               atol=1e-12 * np.abs(a_ref).max())

    def test_coincident_users_symmetric_output(self):
        model = small_model("policy")
        rng = np.random.default_rng(15)
        pos = rng.uniform(10, 20, (3, 3))
        pos[1] = pos[0]
        a, _ = policy_forward(model, pos)
        assert np.isclose(a[0, 0], a[1, 1], rtol=1e-12)
        assert np.isclose(a[0, 2], a[1, 2], rtol=1e-12)
        assert np.isclose(a[2, 0], a[2, 1], rtol=1e-12)

    def test_finite_on_region_boundary(self):
        from lcapa.scene import Region, spherical_to_cartesian

        model = small_model("policy")
        region = Region()
        corners = [spherical_to_cartesian(r, t, p)
                   for r in (region.r_min, region.r_max)
                   for t in (region.theta_min, region.theta_max)
                   for p in (region.phi_min, region.phi_max)]
        a, _ = policy_forward(model, np.stack(corners[:4]))
        assert np.all(np.isfinite(a))

    def test_output_scale_applied(self):
        base = small_model("policy", out_scale=1.0)
        scaled = small_model("policy", out_scale=2.5)
        rng = np.random.default_rng(16)
        pos = rng.uniform(10, 20, (4, 3))
        a0, _ = policy_forward(base, pos)
        a1, _ = policy_forward(scaled, pos)
        assert np.allclose(a1, 2.5 * a0, rtol=1e-12)


class TestInferenceChain:
    def test_batch_of_one_matches_a_batch_of_64(self):
        # the deployed chain at batch 1 against the same chain batched, to
        # the tolerance perfbench's infer-k4 allows: a batched kernel may sum
        # in another order than one scene alone
        from lcapa.objective import project_weights
        from lcapa.scene import sample_scene

        pspec, jspec = policy_spec(), proj_spec()
        policy = GnnModel(pspec, init_params(pspec, 2),
                          {"pos_scale": 30.0, "out_scale": 1e-3})
        proj = GnnModel(jspec, init_params(jspec, 0),
                        {"pos_scale": 30.0, "a_scale": 1e-3, "out_scale": 0.25})
        positions = np.stack([sample_scene(900 + i, 4).positions for i in range(64)])
        raw, _ = policy_forward(policy, positions)
        powers, _ = proj_forward(proj, positions, raw)
        for i, pos in enumerate(positions):
            want = project_weights(raw[i], powers[i], 1.0)
            a, _ = policy_forward(policy, pos)
            p, _ = proj_forward(proj, pos, a)
            got = project_weights(a, p, 1.0)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), i


class TestProjHead:
    def test_strictly_positive(self):
        model = small_model("proj")
        rng = np.random.default_rng(17)
        for _ in range(20):
            pos = rng.uniform(10, 20, (4, 3))
            a = random_weights(rng, 4)
            p, _ = proj_forward(model, pos, a)
            assert np.all(p > 0.0)

    def test_equivariance(self):
        model = small_model("proj")
        rng = np.random.default_rng(18)
        pos = rng.uniform(10, 20, (4, 3))
        a = random_weights(rng, 4)
        p_ref, _ = proj_forward(model, pos, a)
        for pi in all_permutations(4):
            p_p, _ = proj_forward(model, pi.T @ pos, pi.T @ a @ pi)
            assert np.allclose(p_p, pi.T @ p_ref, rtol=1e-9)


class TestValueHead:
    def test_equivariance(self):
        model = small_model("value")
        rng = np.random.default_rng(19)
        pos = rng.uniform(10, 20, (4, 3))
        a = random_weights(rng, 4)
        g_ref, _ = value_forward(model, pos, a)
        for pi in all_permutations(4):
            g_p, _ = value_forward(model, pi.T @ pos, pi.T @ a @ pi)
            assert np.allclose(g_p, pi.T @ g_ref @ pi, rtol=1e-9,
                               atol=1e-12 * np.abs(g_ref).max())

    def test_zero_weights_finite(self):
        model = small_model("value")
        rng = np.random.default_rng(20)
        pos = rng.uniform(10, 20, (4, 3))
        g, _ = value_forward(model, pos, np.zeros((4, 4), dtype=complex))
        assert np.all(np.isfinite(g))


class TestHeadBackward:
    def test_policy_head_finite_difference(self):
        model = small_model("policy", out_scale=0.7)
        rng = np.random.default_rng(21)
        pos = rng.uniform(10, 20, (1, 3, 3))
        w = rng.standard_normal((1, 3, 3)) + 1j * rng.standard_normal((1, 3, 3))

        def loss():
            a, _ = policy_forward(model, pos)
            return float(np.sum(a.real * w.real) + np.sum(a.imag * w.imag))

        a, cache = policy_forward(model, pos)
        grads = policy_backward(model, cache, w)
        _assert_fd_matches(model, loss, grads, probes=80, seed=22)

    def test_proj_head_finite_difference_and_input_grads(self):
        model = small_model("proj", a_scale=0.5, out_scale=2.0)
        rng = np.random.default_rng(23)
        pos = rng.uniform(10, 20, (1, 3, 3))
        a = random_weights(rng, 3)[None, ...]
        wp = rng.standard_normal((1, 3))

        def loss():
            p, _ = proj_forward(model, pos, a)
            return float(np.sum(p * wp))

        p, cache = proj_forward(model, pos, a)
        grads, g = proj_backward(model, cache, wp)
        _assert_fd_matches(model, loss, grads, probes=60, seed=24)
        _assert_input_fd_matches(loss, a, g, seed=25)

    def test_value_head_finite_difference_and_input_grads(self):
        model = small_model("value", a_scale=1.3, out_scale=0.4)
        rng = np.random.default_rng(26)
        pos = rng.uniform(10, 20, (1, 3, 3))
        a = random_weights(rng, 3)[None, ...]
        w = rng.standard_normal((1, 3, 3)) + 1j * rng.standard_normal((1, 3, 3))

        def loss():
            g, _ = value_forward(model, pos, a)
            return float(np.sum(g.real * w.real) + np.sum(g.imag * w.imag))

        g, cache = value_forward(model, pos, a)
        grads, g_a = value_backward(model, cache, w)
        _assert_fd_matches(model, loss, grads, probes=60, seed=27)
        _assert_input_fd_matches(loss, a, g_a, seed=28)


def _layouts(x):
    """``x``, and arrays of its values that are not C-contiguous: a stack
    with its two matrix axes transposed in memory, and every other entry of
    a stack twice as long."""
    transposed = np.ascontiguousarray(np.swapaxes(x, 1, 2)).swapaxes(1, 2)
    stack = np.zeros((2 * len(x),) + x.shape[1:], dtype=x.dtype)
    stack[::2] = x
    return {"contiguous": x, "transposed": transposed, "strided": stack[::2]}


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _assert_trees_equal(grads, ref):
    for (name, a), (_, b) in zip(grads.iter_arrays(), ref.iter_arrays(),
                                 strict=True):
        assert np.array_equal(a, b), name


class TestHeadPacking:
    """The view-based packing of :mod:`lcapa.heads` equals (``np.array_equal``)
    the (re, im) pair form of ``tests/oracles.py``, for input that is
    C-contiguous and for input that is not."""

    SIZES = [(n, k) for n in (1, 3, 64) for k in (1, 4, 16)]

    @pytest.mark.parametrize("n,k", SIZES)
    def test_weight_features(self, n, k):
        rng = np.random.default_rng(100 * n + k)
        w = _random_complex(rng, (n, k, k))
        pos = rng.uniform(10.0, 30.0, (n, k, 3))
        want = pair_weight_features(w, 0.7, pos, 30.0)
        for layout, x in _layouts(w).items():
            got = _pack_weight_features(x, 0.7, pos, 30.0)
            for a, b in zip(got, want, strict=True):
                assert np.array_equal(a, b), layout

    @pytest.mark.parametrize("n,k", SIZES)
    def test_weight_grad(self, n, k):
        rng = np.random.default_rng(200 * n + k)
        gd0 = rng.standard_normal((n, k, 5))
        ge0 = rng.standard_normal((n, k, k, 2))
        want_re, want_im = pair_weight_grad(gd0, ge0, 0.7)
        for layout, x in _layouts(ge0).items():
            got = _weight_grad_from_features(gd0, x, 0.7)
            assert np.array_equal(got.real, want_re), layout
            assert np.array_equal(got.imag, want_im), layout

    @pytest.mark.parametrize("n,k", SIZES)
    def test_unpack_complex(self, n, k):
        rng = np.random.default_rng(300 * n + k)
        d_out = rng.standard_normal((n, k, 2))
        e_out = rng.standard_normal((n, k, k, 2))
        want = pair_unpack_complex(d_out, e_out, 1.3)
        for (layout, d), e in zip(_layouts(d_out).items(),
                                  _layouts(e_out).values()):
            got = _unpack_complex(d, e, 1.3)
            assert got.dtype == complex and np.array_equal(got, want), layout

    @pytest.mark.parametrize("n,k", SIZES)
    def test_complex_head_backward(self, n, k):
        model = small_model("value", out_scale=1.7)
        rng = np.random.default_rng(400 * n + k)
        pos = rng.uniform(10.0, 30.0, (n, k, 3))
        _, cache = value_forward(model, pos, _random_complex(rng, (n, k, k)))
        grad = _random_complex(rng, (n, k, k))
        gd, ge = pair_output_grads(grad.real, grad.imag, 1.7, cache.zv_out.shape)
        want = gnn_backward(model.spec, model.params, cache, gd, ge)
        cases = _layouts(grad)
        if n == 1:
            cases["unbatched"] = grad[0]
        for layout, x in cases.items():
            got = _complex_head_backward(model, cache, x, "both")
            _assert_trees_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1]), layout
            assert np.array_equal(got[2], want[2]), layout

    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("kind", ["policy", "proj", "value"])
    def test_heads_equal_the_pair_form(self, kind, batch):
        # batch None: one unbatched scene, positions (K, 3) and weights (K, K)
        model = small_model(kind, a_scale=0.6, out_scale=1.3)
        rng = np.random.default_rng(31)
        lead = () if batch is None else (batch,)
        pos = rng.uniform(10.0, 30.0, lead + (4, 3))
        w = np.swapaxes(_random_complex(rng, lead + (4, 4)), -1, -2)
        inputs = (pos,) if kind == "policy" else (pos, w)
        forward = {"policy": policy_forward, "proj": proj_forward,
                   "value": value_forward}[kind]
        out, cache = forward(model, *inputs)
        ref, ref_cache = pair_forward(model, *inputs)
        assert np.array_equal(out, ref[0] if batch is None else ref)
        if kind == "proj":
            upstream = rng.standard_normal(lead + (4,))
            grads, g_in = proj_backward(model, cache, upstream)
            ref_grads, re, im = pair_backward(model, ref_cache, upstream)
        else:
            upstream = _random_complex(rng, lead + (4, 4))
            ref_grads, re, im = pair_backward(model, ref_cache, upstream.real,
                                              upstream.imag)
            if kind == "policy":
                grads, g_in = policy_backward(model, cache, upstream), None
            else:
                grads, g_in = value_backward(model, cache, upstream)
        _assert_trees_equal(grads, ref_grads)
        if g_in is not None:
            assert np.array_equal(g_in.real, re) and np.array_equal(g_in.imag, im)


def _assert_fd_matches(model, loss, grads, probes, seed, tol=1e-5):
    from lcapa.training import finite_diff_check

    worst = finite_diff_check(loss, model.params, grads, probes=probes, seed=seed)
    assert worst <= tol, f"max relative gradient error {worst:.2e}"


def _assert_input_fd_matches(loss, a, g, seed, tol=1e-5):
    # entries far below the gradient scale are roundoff-dominated in the
    # difference quotient, so the denominator is floored at a fraction of it
    rng = np.random.default_rng(seed)
    g_re, g_im = g.real, g.imag
    gscale = max(np.abs(g_re).max(), np.abs(g_im).max())
    worst = 0.0
    for _ in range(40):
        idx = (0, int(rng.integers(a.shape[1])), int(rng.integers(a.shape[2])))
        part = rng.integers(2)
        w0 = a[idx]
        step = 1e-5
        bump = step if part == 0 else 1j * step
        a[idx] = w0 + bump
        up = loss()
        a[idx] = w0 - bump
        down = loss()
        a[idx] = w0
        numeric = (up - down) / (2 * step)
        analytic = (g_re if part == 0 else g_im)[idx]
        denom = max(abs(analytic), abs(numeric), 1e-4 * gscale, 1e-12)
        worst = max(worst, abs(analytic - numeric) / denom)
    assert worst <= tol, f"max relative input-gradient error {worst:.2e}"
