import numpy as np
import pytest

import lcapa
from conftest import all_permutations, random_weights
from lcapa.objective import (
    DegenerateProjectionError,
    policy_loss_grad,
    project_weights,
    sinr_vector,
    sum_se,
)
from lcapa.quadrature import (
    build_grid,
    channel_matrix,
    gram_pair,
    integral_couplings,
    integral_power,
)
from lcapa.scene import sample_scene
from oracles import (direct_integral_check, reconstruct_current,
                     subspace_improvement_check)


class TestSinrVector:
    def test_single_user(self):
        g = np.array([[3.0 - 4.0j]])
        gamma = sinr_vector(g, np.array([2.0]), np.array([0.5]))
        assert np.isclose(gamma[0], 2.0 * 25.0 / 0.5, rtol=1e-14)

    def test_diagonal_couplings(self):
        g = np.diag([1.0 + 1j, 2.0, 3.0j, 0.5])
        ap = np.full(4, 1.5)
        nv = np.full(4, 0.25)
        gamma = sinr_vector(g, ap, nv)
        assert np.allclose(gamma, 1.5 * np.abs(np.diag(g)) ** 2 / 0.25, rtol=1e-14)

    def test_interference_weights_follow_transmit_index(self):
        # hand-built 2-user case with unequal user apertures
        g = np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex)
        ap = np.array([10.0, 0.1])
        nv = np.array([1.0, 1.0])
        gamma = sinr_vector(g, ap, nv)
        # user 0: |A_0||g00|^2 / (|A_1||g01|^2 + 1)
        assert np.isclose(gamma[0], 10.0 * 4.0 / (0.1 * 1.0 + 1.0), rtol=1e-14)
        # user 1: |A_1||g11|^2 / (|A_0||g10|^2 + 1)
        assert np.isclose(gamma[1], 0.1 * 9.0 / (10.0 * 1.0 + 1.0), rtol=1e-14)

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError):
            sinr_vector(np.eye(2, dtype=complex), np.ones(2), np.array([1.0, 0.0]))

    # NaN noise used to give a NaN sum SE, infinite noise a sum SE of 1.0,
    # and a NaN aperture a NaN SINR for every user
    @pytest.mark.parametrize("apertures,noise,what", [
        ([1.0, 1.0], [np.nan, 1.0], "noise variances"),
        ([1.0, 1.0], [np.inf, 1.0], "noise variances"),
        ([1.0, 1.0], [-1.0, 1.0], "noise variances"),
        ([np.nan, 1.0], [1.0, 1.0], "user apertures"),
        ([np.inf, 1.0], [1.0, 1.0], "user apertures"),
        ([0.0, 1.0], [1.0, 1.0], "user apertures"),
        ([-1.0, 1.0], [1.0, 1.0], "user apertures"),
    ], ids=["nan-noise", "inf-noise", "negative-noise", "nan-aperture",
            "inf-aperture", "zero-aperture", "negative-aperture"])
    def test_rejects_noise_or_apertures_not_positive_and_finite(
            self, apertures, noise, what):
        g = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match=f"{what} must be positive and finite"):
            lcapa.sum_se(lcapa.sinr_vector(g, apertures, noise))
        with pytest.raises(ValueError, match=f"{what} must be positive and finite"):
            policy_loss_grad(g[None], apertures, noise)

    def test_wmmse_couplings_match_pointwise_eq1(self, seed1_scene, seed1_grid256,
                                                 seed1_grams):
        from lcapa.wmmse import lift_precoder, wmmse_precoding

        coordinates, _ = wmmse_precoding(seed1_scene, seed1_grams.coupling)
        lift = lift_precoder(coordinates, seed1_scene)
        a_bar = project_weights(
            lift.weights, integral_power(lift.weights, seed1_grams.coupling),
            seed1_scene.power_budget)
        g = integral_couplings(a_bar, seed1_grams.coupling)
        _, g_direct = direct_integral_check(seed1_scene, seed1_grid256, a_bar)
        gamma = sinr_vector(g, seed1_scene.user_apertures(), seed1_scene.noise_vars())
        gamma_direct = sinr_vector(g_direct, seed1_scene.user_apertures(),
                                   seed1_scene.noise_vars())
        assert np.allclose(gamma, gamma_direct, rtol=1e-9)


class TestSumSe:
    def test_all_ones(self):
        rep = sum_se(np.ones(4))
        assert rep.sum_se == pytest.approx(4.0, abs=1e-12)
        assert np.allclose(rep.rates, 1.0)

    def test_zero(self):
        assert sum_se(np.zeros(3)).sum_se == 0.0

    def test_monotone(self):
        rng = np.random.default_rng(0)
        gamma = rng.uniform(0.1, 5.0, 4)
        base = sum_se(gamma).sum_se
        for k in range(4):
            bumped = gamma.copy()
            bumped[k] += 0.01
            assert sum_se(bumped).sum_se > base

    @pytest.mark.parametrize("sinr", [[np.nan, 1.0], [1.0, -np.nan],
                                      [[1.0, 2.0], [np.nan, 0.5]]],
                             ids=["nan", "negative-nan", "nan-in-a-stack"])
    def test_rejects_nan(self, sinr):
        with pytest.raises(ValueError, match="not NaN"):
            sum_se(np.array(sinr))

    def test_sum_equals_rate_total(self):
        rep = sum_se(np.array([0.3, 2.0, 11.0]))
        assert rep.sum_se == pytest.approx(rep.rates.sum(), rel=1e-15)

    def test_permutation_invariance(self, seed1_grams):
        rng = np.random.default_rng(3)
        g = random_weights(rng, 4)
        ap = rng.uniform(0.5, 2.0, 4)
        nv = rng.uniform(0.5, 2.0, 4)
        base = sum_se(sinr_vector(g, ap, nv)).sum_se
        for pi in all_permutations(4):
            permuted = sum_se(sinr_vector(pi.T @ g @ pi, pi.T @ ap, pi.T @ nv)).sum_se
            assert np.isclose(permuted, base, rtol=1e-12)


class TestStackedForms:
    """sinr_vector and sum_se broadcast over leading axes; each slice is
    bit-identical to the call on that slice alone."""

    @pytest.mark.parametrize("k", [1, 4, 9, 16])
    @pytest.mark.parametrize("lead", [(5,), (2, 3)])
    def test_slices_equal_per_scene_calls(self, k, lead):
        rng = np.random.default_rng(k)
        g = 10.0 ** rng.uniform(-3, 1, lead + (k, k)) * (
            rng.standard_normal(lead + (k, k))
            + 1j * rng.standard_normal(lead + (k, k)))
        g[(0,) * len(lead)] = 0.0        # a scene whose weights carry no power
        ap = rng.uniform(0.5, 2.0, k)
        nv = rng.uniform(0.5, 2.0, k)
        gamma = sinr_vector(g, ap, nv)
        report = sum_se(gamma)
        assert gamma.shape == report.rates.shape == lead + (k,)
        assert report.sum_se.shape == lead
        for idx in np.ndindex(*lead):
            one = sinr_vector(g[idx], ap, nv)
            assert np.array_equal(gamma[idx], one)
            single = sum_se(one)
            assert np.array_equal(report.rates[idx], single.rates)
            assert report.sum_se[idx] == single.sum_se
        assert type(single.sum_se) is float
        assert report.sum_se[(0,) * len(lead)] == 0.0

    def test_policy_loss_is_the_negated_mean_sum_se(self):
        rng = np.random.default_rng(0)
        g = random_weights(rng, 4)[None] * rng.uniform(0.1, 3.0, (6, 1, 1))
        ap, nv = np.full(4, 1.5), np.full(4, 0.25)
        loss, _ = policy_loss_grad(g, ap, nv)
        assert loss == pytest.approx(
            -np.mean(sum_se(sinr_vector(g, ap, nv)).sum_se), rel=1e-14)

    def test_stack_checks_every_slice(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sum_se(np.array([[1.0, 2.0], [0.5, -1e-300]]))


class TestProjectWeights:
    def test_fixed_point(self, seed1_grams):
        rng = np.random.default_rng(1)
        a = random_weights(rng, 4, scale=1e-4)
        p = integral_power(a, seed1_grams.coupling)
        a_scaled = a * np.sqrt(1.0 / p.sum())
        p_scaled = integral_power(a_scaled, seed1_grams.coupling)
        assert np.allclose(project_weights(a_scaled, p_scaled, 1.0), a_scaled,
                           rtol=1e-12)

    def test_scale_invariance_with_exact_powers(self, seed1_grams):
        rng = np.random.default_rng(2)
        a = random_weights(rng, 4, scale=1e-4)
        p = integral_power(a, seed1_grams.coupling)
        for c in (0.1, 3.0, 50.0):
            pc = integral_power(c * a, seed1_grams.coupling)
            assert np.allclose(project_weights(c * a, pc, 1.0),
                               project_weights(a, p, 1.0), rtol=1e-12)

    def test_projected_power_meets_budget(self, seed1_grams):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_weights(rng, 4, scale=10.0 ** rng.uniform(-6, -2))
            p = integral_power(a, seed1_grams.coupling)
            a_bar = project_weights(a, p, 1.0)
            assert abs(integral_power(a_bar, seed1_grams.coupling).sum() - 1.0) < 1e-9

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateProjectionError):
            project_weights(np.eye(2, dtype=complex), np.zeros(2), 1.0)

    # unchecked, a NaN total scales to all-NaN weights and an inf total to zeros
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_total_rejected(self, bad):
        with pytest.raises(DegenerateProjectionError, match="not positive and finite"):
            project_weights(np.eye(2, dtype=complex), np.array([1.0, bad]), 1.0)

    @pytest.mark.parametrize("budget", [0.0, -1.0, np.inf, np.nan])
    def test_bad_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="power_budget"):
            project_weights(np.eye(2, dtype=complex), np.ones(2), budget)


class TestReconstructCurrent:
    def test_unit_weight_reproduces_channel(self, seed1_scene, seed1_grid256):
        from lcapa.scene import channel_response

        a = np.zeros((4, 4), dtype=complex)
        a[0, 0] = 1.0
        evaluator = reconstruct_current(a, seed1_scene)
        vals = evaluator(seed1_grid256.nodes)
        assert np.allclose(vals[:, 0],
                           channel_response(seed1_scene, 0, seed1_grid256.nodes),
                           rtol=1e-14)
        assert np.array_equal(vals[:, 1:], np.zeros((256, 3)))

    def test_matches_pointwise_oracle_on_grid(self, seed1_scene, seed1_grid256):
        rng = np.random.default_rng(4)
        a = random_weights(rng, 4, scale=1e-4)
        evaluator = reconstruct_current(a, seed1_scene)
        v = evaluator(seed1_grid256.nodes)
        h = channel_matrix(seed1_scene, seed1_grid256).h
        assert np.allclose(v, h.T @ a, rtol=1e-12)

    def test_off_grid_line_scan_is_finite_and_smooth(self, seed1_scene):
        rng = np.random.default_rng(5)
        a = random_weights(rng, 4, scale=1e-4)
        evaluator = reconstruct_current(a, seed1_scene)

        def max_step(n):
            t = np.linspace(-0.9, 0.9, n)
            pts = np.stack([t, np.zeros_like(t), 0.37 * t], axis=1)
            vals = evaluator(pts)
            assert np.all(np.isfinite(vals))
            return np.abs(np.diff(vals, axis=0)).max() / np.abs(vals).max()

        # continuity: refining the scan 4x shrinks the largest jump ~4x
        coarse, fine = max_step(4001), max_step(16001)
        assert fine < 0.1
        assert 3.0 < coarse / fine < 5.0

    def test_outside_aperture_rejected(self, seed1_scene):
        evaluator = reconstruct_current(np.eye(4, dtype=complex), seed1_scene)
        with pytest.raises(ValueError):
            evaluator(np.array([[3.0, 0.0, 0.0]]))


class TestSubspaceImprovement:
    def test_zero_perp_is_neutral(self, seed1_scene, seed1_grid256, seed1_grams):
        # with no orthogonal component the rescale factor is 1 and R1 == R0;
        # realized here by comparing the check's R1 against the SE of the
        # projected in-subspace weights directly
        rng = np.random.default_rng(6)
        a = random_weights(rng, 4, scale=1e-4)
        p = integral_power(a, seed1_grams.coupling)
        a_bar = project_weights(a, p, seed1_scene.power_budget)
        g = integral_couplings(a_bar, seed1_grams.coupling)
        se_inspan = sum_se(sinr_vector(g, seed1_scene.user_apertures(),
                                       seed1_scene.noise_vars())).sum_se
        _, r1 = subspace_improvement_check(seed1_scene, seed1_grid256, a, perp_seed=0)
        assert np.isclose(r1, se_inspan, rtol=1e-9)

    def test_strict_improvement(self, seed1_scene, seed1_grid256):
        rng = np.random.default_rng(7)
        for trial in range(20):
            a = random_weights(rng, 4, scale=10.0 ** rng.uniform(-5, -3))
            r0, r1 = subspace_improvement_check(seed1_scene, seed1_grid256, a,
                                                perp_seed=100 + trial)
            assert r1 > r0

    def test_zero_power_rejected(self, seed1_scene, seed1_grid256):
        with pytest.raises(ValueError):
            subspace_improvement_check(seed1_scene, seed1_grid256,
                                       np.zeros((4, 4)), perp_seed=0)
