import numpy as np
import pytest

from conftest import all_permutations, random_weights
from lcapa.gnn import (
    GnnSpec,
    _act_grad,
    _offdiag_mask,
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

        gzv = gd * _act_grad(cache.zv[t], v_act, spec.hidden_slope)
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
            gze = ge * _act_grad(cache.ze[t], e_act, spec.hidden_slope) * mask
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
