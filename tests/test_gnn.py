import numpy as np
import pytest

from conftest import (all_permutations, assert_passes_without_dispatch,
                      cpu_dispatch_targets, random_weights)
from lcapa.gnn import (
    GnnCache,
    GnnSpec,
    _dleaky,
    _leaky,
    gnn_backward,
    gnn_forward,
    init_params,
    policy_spec,
    proj_spec,
    value_spec,
    zeros_like_params,
)
from lcapa.heads import (
    GnnModel,
    policy_backward,
    policy_forward,
    proj_backward,
    proj_forward,
    value_backward,
    value_forward,
)

SMALL = dict(hidden=8, layers=3)


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
        for slope in (-0.1, 1.5, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="hidden_slope"):
                GnnSpec(kind="policy", vertex_widths=(3, 2), edge_widths=(1, 2),
                        hidden_slope=slope)
            # a checkpoint records the spec as this dict
            data = policy_spec(**SMALL).to_dict()
            data["hidden_slope"] = slope
            with pytest.raises(ValueError, match="hidden_slope"):
                GnnSpec.from_dict(data)
        for slope in (0.0, 0.37, 1.0):
            assert policy_spec(**SMALL, hidden_slope=slope).hidden_slope == slope

    def test_factories(self):
        assert policy_spec().vertex_widths == (3, 64, 64, 2)
        assert proj_spec().edge_widths == (2, 64, 64, 0)
        assert value_spec(hidden=32, layers=5).vertex_widths == (5, 32, 32, 32, 2)

    def test_round_trip_dict(self):
        spec = value_spec(hidden=16, layers=4, edge_aggregation=True)
        assert GnnSpec.from_dict(spec.to_dict()) == spec


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

    def test_fan_in_variance(self):
        spec = GnnSpec(kind="value", vertex_widths=(64, 256, 2),
                       edge_widths=(64, 256, 2))
        params = init_params(spec, 0)
        w = params.layers[0].w_self
        expected = 1.0 / (3.0 * w.shape[1])
        assert np.var(w) == pytest.approx(expected, rel=0.1)


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
                lp.u_edge += 10.0
                lp.u_src += 10.0
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

    @pytest.mark.parametrize("agg", [False, True])
    def test_raw_equivariance_all_permutations(self, agg):
        spec = value_spec(**SMALL, edge_aggregation=agg)
        params = init_params(spec, 4)
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
    @pytest.mark.parametrize("kind,agg", [("policy", False), ("proj", False),
                                          ("value", False), ("value", True)])
    def test_finite_difference(self, kind, agg):
        spec = {"policy": policy_spec, "proj": proj_spec,
                "value": value_spec}[kind](hidden=6, layers=3,
                                           edge_aggregation=agg)
        params = init_params(spec, 5)
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
# The select-and-mask forms the layer kernels replaced.  They import nothing
# from lcapa.gnn but the cache record, so a fault in the kernels cannot hide
# in the oracle.

def _offdiag_mask(k):
    return (~np.eye(k, dtype=bool))[None, :, :, None]


def _ref_act(z, name, slope):
    if name == "leaky":
        return np.where(z > 0.0, z, slope * z)
    if name == "softplus":
        return np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)
    return z


def _ref_act_grad(z, name, slope):
    if name == "leaky":
        return np.where(z > 0.0, 1.0, slope)
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
    cache = GnnCache(spec=spec, params=params, d_inputs=[], e_inputs=[],
                     zv=[], ze=[])
    for t, lp in enumerate(params.layers):
        last = t == spec.transitions - 1
        v_act = spec.vertex_head_activation if last else "leaky"
        e_act = "identity" if last else "leaky"
        cache.d_inputs.append(d)
        cache.e_inputs.append(e)
        sum_d = d.sum(axis=1, keepdims=True)
        col = e.sum(axis=1)
        row = e.sum(axis=2)
        zv = (d @ lp.w_self.T + (sum_d - d) @ lp.w_other.T
              + col @ lp.w_ein.T + row @ lp.w_eout.T + lp.b_v)
        cache.zv.append(zv)
        d = _ref_act(zv, v_act, spec.hidden_slope)
        if lp.u_edge is not None:
            ze = (e @ lp.u_edge.T
                  + (cache.d_inputs[-1] @ lp.u_src.T)[:, :, None, :]
                  + (cache.d_inputs[-1] @ lp.u_dst.T)[:, None, :, :]
                  + lp.b_e)
            if lp.u_agg is not None:
                agg = row[:, :, None, :] + col[:, None, :, :] - 2.0 * e
                ze = ze + agg @ lp.u_agg.T
            ze = ze * mask
            cache.ze.append(ze)
            e = _ref_act(ze, e_act, spec.hidden_slope) * mask
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

        gzv = gd * _ref_act_grad(cache.zv[t], v_act, spec.hidden_slope)
        gl.w_self += _ref_wgrad(gzv, d_in)
        gl.w_other += _ref_wgrad(gzv, sum_d - d_in)
        gl.w_ein += _ref_wgrad(gzv, col)
        gl.w_eout += _ref_wgrad(gzv, row)
        gl.b_v += gzv.sum(axis=(0, 1))
        sum_gzv = gzv.sum(axis=1, keepdims=True)
        gd_prev = gzv @ lp.w_self + (sum_gzv - gzv) @ lp.w_other
        ge_prev = ((gzv @ lp.w_ein)[:, None, :, :]
                   + (gzv @ lp.w_eout)[:, :, None, :])

        if lp.u_edge is not None:
            gze = ge * _ref_act_grad(cache.ze[t], e_act, spec.hidden_slope)
            gze_src = gze.sum(axis=2)
            gze_dst = gze.sum(axis=1)
            gl.u_edge += _ref_wgrad(gze, e_in)
            gl.u_src += _ref_wgrad(gze_src, d_in)
            gl.u_dst += _ref_wgrad(gze_dst, d_in)
            gl.b_e += gze.sum(axis=(0, 1, 2))
            gd_prev += gze_src @ lp.u_src + gze_dst @ lp.u_dst
            ge_prev += gze @ lp.u_edge
            if lp.u_agg is not None:
                agg = row[:, :, None, :] + col[:, None, :, :] - 2.0 * e_in
                gl.u_agg += _ref_wgrad(gze, agg)
                z = gze @ lp.u_agg
                ge_prev += (z.sum(axis=2)[:, :, None, :]
                            + z.sum(axis=1)[:, None, :, :] - 2.0 * z)
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

        gzv = gd * _ref_act_grad(cache.zv[t], v_act, spec.hidden_slope)
        gl.w_self += np.einsum("nkp,nkq->pq", gzv, d_in)
        gl.w_other += np.einsum("nkp,nkq->pq", gzv, sum_d - d_in)
        gl.w_ein += np.einsum("nkp,nkq->pq", gzv, col)
        gl.w_eout += np.einsum("nkp,nkq->pq", gzv, row)
        gl.b_v += gzv.sum(axis=(0, 1))
        sum_gzv = gzv.sum(axis=1, keepdims=True)
        gd_prev = gzv @ lp.w_self + (sum_gzv - gzv) @ lp.w_other
        ge_prev = ((gzv @ lp.w_ein)[:, None, :, :]
                   + (gzv @ lp.w_eout)[:, :, None, :])

        if lp.u_edge is not None:
            gze = ge * _ref_act_grad(cache.ze[t], e_act, spec.hidden_slope) * mask
            gl.u_edge += np.einsum("nijp,nijq->pq", gze, e_in)
            gl.u_src += np.einsum("nijp,niq->pq", gze, d_in)
            gl.u_dst += np.einsum("nijp,njq->pq", gze, d_in)
            gl.b_e += gze.sum(axis=(0, 1, 2))
            gd_prev += gze.sum(axis=2) @ lp.u_src + gze.sum(axis=1) @ lp.u_dst
            ge_prev += gze @ lp.u_edge
            if lp.u_agg is not None:
                agg = row[:, :, None, :] + col[:, None, :, :] - 2.0 * e_in
                gl.u_agg += np.einsum("nijp,nijq->pq", gze, agg)
                z = gze @ lp.u_agg
                ge_prev += (z.sum(axis=2)[:, :, None, :]
                            + z.sum(axis=1)[:, None, :, :] - 2.0 * z)
        gd, ge = gd_prev, ge_prev * mask
    return grads, gd, ge


def _backward_case(kind, agg, n, k):
    spec = {"policy": policy_spec, "proj": proj_spec,
            "value": value_spec}[kind](hidden=64, layers=4,
                                       edge_aggregation=agg)
    params = init_params(spec, 31)
    rng = np.random.default_rng(32)
    d0, e0 = random_features(rng, spec, n, k)
    d_out, e_out, cache = gnn_forward(spec, params, d0, e0)
    wd = rng.standard_normal(d_out.shape)
    we = rng.standard_normal(e_out.shape) if e_out is not None else None
    return spec, params, cache, wd, we


def _named_outputs(result):
    grads, gd0, ge0 = result
    return list(grads.iter_arrays()) + [("d_input", gd0), ("e_input", ge0)]


class TestBackwardReference:
    """The GEMM-form backward against the direct einsum contractions."""

    @pytest.mark.parametrize("n,k", [(1, 1), (1, 4), (3, 5), (64, 4)])
    @pytest.mark.parametrize("agg", [False, True])
    @pytest.mark.parametrize("kind", ["policy", "proj", "value"])
    def test_matches_einsum_reference(self, kind, agg, n, k):
        spec, params, cache, wd, we = _backward_case(kind, agg, n, k)
        got = _named_outputs(gnn_backward(spec, params, cache, wd, we))
        ref = _named_outputs(_einsum_backward(spec, params, cache, wd, we))
        assert [name for name, _ in got] == [name for name, _ in ref]
        for (name, a), (_, b) in zip(got, ref):
            assert a.shape == b.shape, name
            err = np.max(np.abs(a - b))
            scale = np.max(np.abs(b))
            assert err <= 1e-12 * scale, (
                f"{name}: max abs difference {err:.3e} against max abs {scale:.3e}")

    @pytest.mark.parametrize("agg", [False, True])
    @pytest.mark.parametrize("kind", ["policy", "proj", "value"])
    def test_repeated_calls_bit_identical(self, kind, agg):
        spec, params, cache, wd, we = _backward_case(kind, agg, 64, 4)
        first = _named_outputs(gnn_backward(spec, params, cache, wd, we))
        second = _named_outputs(gnn_backward(spec, params, cache, wd, we))
        for (name, a), (_, b) in zip(first, second):
            assert a.tobytes() == b.tobytes(), name


# Special values the activation kernels must map like the select forms.
_SPECIAL = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0, -1.0,
                     5e-324, -5e-324, 1e-310, -1e-310, 1e308, -1e308])
_KERNEL_SLOPES = (0.0, 0.2, 0.37, 1.0)
_KERNEL_SHAPES = ((1, 1), (1, 4), (3, 5), (64, 4), (8, 16))


def _same_values(a, b):
    """Equal values with equal zero signs; any NaN matches any NaN."""
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan], b[~nan])
            and np.array_equal(np.signbit(a[~nan]), np.signbit(b[~nan])))


def _assert_activation_kernels_exact(slope):
    z = np.concatenate([_SPECIAL,
                        np.random.default_rng(40).standard_normal(1000)])
    with np.errstate(invalid="ignore", over="ignore"):
        got, ref = _leaky(z, slope), _ref_act(z, "leaky", slope)
    # the documented exception: 0 * inf is NaN where the select form keeps inf
    exception = (slope == 0.0) & (z == np.inf)
    assert _same_values(got[~exception], ref[~exception]), slope
    assert np.all(np.isnan(got[exception])), slope
    assert _same_values(_dleaky(z, slope), _ref_act_grad(z, "leaky", slope)), slope


def _snapshot(arrays):
    return [None if a is None else a.copy() for a in arrays]


def _assert_unchanged(before, arrays, what):
    for i, (a, b) in enumerate(zip(before, arrays)):
        assert (a is None and b is None) or a.tobytes() == b.tobytes(), (
            f"{what}[{i}] was written to")


def _cache_arrays(cache):
    return cache.d_inputs + cache.e_inputs + cache.zv + cache.ze


def _assert_matches_reference(kind, agg, n, k):
    """Kernels equal the reference forms and write to none of their inputs."""
    spec = {"policy": policy_spec, "proj": proj_spec,
            "value": value_spec}[kind](hidden=64, layers=4,
                                       edge_aggregation=agg)
    params = init_params(spec, 31)
    rng = np.random.default_rng(32)
    for name, arr in params.iter_arrays():
        if name.endswith((".b_v", ".b_e")):
            # zero biases would hide the order in which the sums take them
            arr[...] = rng.uniform(-1.0, 1.0, arr.shape)
    d0, e0 = random_features(rng, spec, n, k)
    wd = rng.standard_normal((n, k, spec.vertex_widths[-1]))
    we = (rng.standard_normal((n, k, k, spec.edge_widths[-1]))
          if spec.edge_widths[-1] else None)
    inputs = [d0, e0, wd, we] + [a for _, a in params.iter_arrays()]
    before = _snapshot(inputs)
    case = f"{kind} agg={agg} n={n} k={k}"

    d_out, e_out, cache = gnn_forward(spec, params, d0, e0)
    d_ref, e_ref, ref_cache = _reference_forward(spec, params, d0, e0)
    assert np.array_equal(d_out, d_ref), case
    assert (e_out is None and e_ref is None) or np.array_equal(e_out, e_ref), case
    for name in ("d_inputs", "e_inputs", "zv", "ze"):
        for t, (a, b) in enumerate(zip(getattr(cache, name),
                                       getattr(ref_cache, name), strict=True)):
            assert (a is None and b is None) or np.array_equal(a, b), (
                f"{case}: cache.{name}[{t}]")
    _assert_unchanged(before, inputs, f"{case} forward input")

    cached = _snapshot(_cache_arrays(cache))
    got = _named_outputs(gnn_backward(spec, params, cache, wd, we))
    ref = _named_outputs(_reference_backward(spec, params, ref_cache, wd, we))
    assert [name for name, _ in got] == [name for name, _ in ref]
    for (name, a), (_, b) in zip(got, ref):
        assert np.array_equal(a, b), f"{case}: {name}"
    _assert_unchanged(before, inputs, f"{case} backward input")
    _assert_unchanged(cached, _cache_arrays(cache), f"{case} cache")


def _assert_all_kernels_match():
    for slope in _KERNEL_SLOPES:
        _assert_activation_kernels_exact(slope)
    for kind in ("policy", "proj", "value"):
        for agg in (False, True):
            for n, k in _KERNEL_SHAPES:
                _assert_matches_reference(kind, agg, n, k)


class TestLayerKernels:
    """The allocation-lean kernels against the select-and-mask forms."""

    @pytest.mark.parametrize("slope", _KERNEL_SLOPES)
    def test_activation_kernels_exact(self, slope):
        _assert_activation_kernels_exact(slope)

    @pytest.mark.parametrize("n,k", _KERNEL_SHAPES)
    @pytest.mark.parametrize("agg", [False, True])
    @pytest.mark.parametrize("kind", ["policy", "proj", "value"])
    def test_bit_identical_to_reference(self, kind, agg, n, k):
        _assert_matches_reference(kind, agg, n, k)

    @pytest.mark.skipif(not cpu_dispatch_targets(),
                        reason="numpy reports no CPU dispatch targets")
    def test_all_dispatch_targets_disabled(self):
        assert_passes_without_dispatch("test_gnn", "_assert_all_kernels_match()")


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
        wr = rng.standard_normal((1, 3, 3))
        wi = rng.standard_normal((1, 3, 3))

        def loss():
            a, _ = policy_forward(model, pos)
            return float(np.sum(a.real * wr) + np.sum(a.imag * wi))

        a, cache = policy_forward(model, pos)
        grads = policy_backward(model, cache, wr, wi)
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
        grads, g_re, g_im = proj_backward(model, cache, wp)
        _assert_fd_matches(model, loss, grads, probes=60, seed=24)
        _assert_input_fd_matches(loss, a, g_re, g_im, seed=25)

    def test_value_head_finite_difference_and_input_grads(self):
        model = small_model("value", a_scale=1.3, out_scale=0.4)
        rng = np.random.default_rng(26)
        pos = rng.uniform(10, 20, (1, 3, 3))
        a = random_weights(rng, 3)[None, ...]
        wr = rng.standard_normal((1, 3, 3))
        wi = rng.standard_normal((1, 3, 3))

        def loss():
            g, _ = value_forward(model, pos, a)
            return float(np.sum(g.real * wr) + np.sum(g.imag * wi))

        g, cache = value_forward(model, pos, a)
        grads, g_re, g_im = value_backward(model, cache, wr, wi)
        _assert_fd_matches(model, loss, grads, probes=60, seed=27)
        _assert_input_fd_matches(loss, a, g_re, g_im, seed=28)


def _assert_fd_matches(model, loss, grads, probes, seed, tol=1e-5):
    from lcapa.training import finite_diff_check

    worst = finite_diff_check(loss, model.params, grads, probes=probes, seed=seed)
    assert worst <= tol, f"max relative gradient error {worst:.2e}"


def _assert_input_fd_matches(loss, a, g_re, g_im, seed, tol=1e-5):
    # entries far below the gradient scale are roundoff-dominated in the
    # difference quotient, so the denominator is floored at a fraction of it
    rng = np.random.default_rng(seed)
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
