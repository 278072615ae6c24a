import numpy as np
import pytest

from conftest import all_permutations, random_weights
from lcapa.objective import sinr_vector, sum_se
from lcapa.quadrature import (build_grid, channel_matrix, gram_pair,
                              integral_couplings)
from lcapa.scene import sample_scene
from lcapa.wmmse import (
    BaselineResult,
    BisectionError,
    DiscretePrecoder,
    LiftConditionError,
    WmmseInfo,
    WmmseOptions,
    _power_multiplier,
    _shared_aperture,
    baseline_se,
    lift_precoder,
    wmmse_precoding,
)


def run_wmmse(scene, num_nodes, options=None):
    grid = build_grid(scene.aperture, num_nodes)
    h = channel_matrix(scene, grid).h
    precoder, info = wmmse_precoding(h, grid.cell_area, scene.user_apertures(),
                                     scene.noise_vars(), scene.power_budget,
                                     options or WmmseOptions())
    return grid, h, precoder, info


class TestWmmseOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            WmmseOptions(max_iterations=0)
        with pytest.raises(ValueError):
            WmmseOptions(tolerance=0.0)
        # matched-filter start is the only initialization; there is no knob
        with pytest.raises(TypeError):
            WmmseOptions(init_rule="matched")


class TestSingleUser:
    def test_converges_to_matched_filter(self):
        scene = sample_scene(seed=2, num_users=1)
        grid, h, precoder, info = run_wmmse(scene, 64)
        v = precoder.values[:, 0]
        # optimal single-user precoder is proportional to the channel samples
        alignment = abs(np.vdot(h[0], v)) / (np.linalg.norm(h[0]) * np.linalg.norm(v))
        assert alignment == pytest.approx(1.0, abs=1e-10)

    def test_matches_closed_form_se(self):
        scene = sample_scene(seed=2, num_users=1)
        grid, h, precoder, info = run_wmmse(scene, 64)
        gamma = sinr_vector(grid.cell_area * (np.conj(h) @ precoder.values),
                            scene.user_apertures(), scene.noise_vars())
        expected = (scene.user_aperture * grid.cell_area
                    * np.sum(np.abs(h[0]) ** 2) * scene.power_budget
                    / scene.noise_var)
        assert abs(np.log2(1 + gamma[0]) - np.log2(1 + expected)) <= 1e-8
        assert info.objective_trace[-1] == pytest.approx(np.log2(1 + expected),
                                                         abs=1e-8)

    def test_golden_mrt_sinr_seed1(self):
        # closed form gamma = |A_1| * delta * sum|h|^2 * P / sigma^2 for the
        # first user of the seed-1 scene alone
        scene = sample_scene(seed=1, num_users=4)
        solo = scene.with_positions(scene.positions[:1])
        grid, h, precoder, info = run_wmmse(solo, 256)
        gamma = sinr_vector(grid.cell_area * (np.conj(h) @ precoder.values),
                            solo.user_apertures(), solo.noise_vars())
        expected = (solo.user_aperture * grid.cell_area * np.sum(np.abs(h[0]) ** 2)
                    / solo.noise_var)
        assert gamma[0] == pytest.approx(expected, rel=1e-8)


class TestIterationProperties:
    def test_trace_nondecreasing_on_random_scenes(self):
        for seed in range(40):
            scene = sample_scene(seed=2000 + seed, num_users=4)
            _, _, _, info = run_wmmse(scene, 64)
            diffs = np.diff(info.objective_trace)
            assert diffs.min() >= -1e-8

    def test_power_equality(self):
        for seed in (1, 5, 9):
            scene = sample_scene(seed=seed, num_users=4)
            _, _, precoder, _ = run_wmmse(scene, 64)
            assert abs(precoder.total_power - scene.power_budget) \
                <= 1e-6 * scene.power_budget

    def test_shared_aperture_required(self):
        scene = sample_scene(seed=1, num_users=2)
        grid = build_grid(scene.aperture, 16)
        h = channel_matrix(scene, grid).h
        with pytest.raises(ValueError):
            wmmse_precoding(h, grid.cell_area, np.array([1e-5, 2e-5]),
                            scene.noise_vars(), 1.0)

    @pytest.mark.parametrize("budget", [0.0, -1.0, float("nan"), float("inf")])
    def test_power_budget_validated(self, budget):
        scene = sample_scene(seed=1, num_users=4)
        grid = build_grid(scene.aperture, 64)
        h = channel_matrix(scene, grid).h
        with pytest.raises(ValueError, match="power_budget"):
            wmmse_precoding(h, grid.cell_area, scene.user_apertures(),
                            scene.noise_vars(), budget)

    def test_permutation_covariance_with_fixed_init(self):
        scene = sample_scene(seed=4, num_users=4)
        grid, chan_h, precoder, _ = run_wmmse(scene, 64)
        chan = channel_matrix(scene, grid)
        lift = lift_precoder(precoder, chan, grid.cell_area)
        for pi in all_permutations(4)[:6]:
            permuted = scene.with_positions(pi.T @ scene.positions)
            _, _, precoder_p, _ = run_wmmse(permuted, 64)
            chan_p = channel_matrix(permuted, grid)
            lift_p = lift_precoder(precoder_p, chan_p, grid.cell_area)
            assert np.allclose(lift_p.weights, pi.T @ lift.weights @ pi,
                               rtol=1e-6, atol=1e-6 * np.abs(lift.weights).max())


class TestDiscreteSinr:
    def test_m1_reduces_to_scalar_channel(self):
        scene = sample_scene(seed=3, num_users=2)
        grid = build_grid(scene.aperture, 1)
        h = channel_matrix(scene, grid).h
        assert h.shape == (2, 1)
        v = np.array([[0.3 + 0.1j, 0.2 - 0.4j]])
        gamma = sinr_vector(grid.cell_area * (np.conj(h) @ v),
                            scene.user_apertures(), scene.noise_vars())
        g = grid.cell_area * np.conj(h) @ v
        expected0 = (scene.user_aperture * abs(g[0, 0]) ** 2
                     / (scene.user_aperture * abs(g[0, 1]) ** 2 + scene.noise_var))
        assert gamma[0] == pytest.approx(expected0, rel=1e-12)

    def test_matches_quadrature_couplings(self, seed1_scene, seed1_grid256,
                                          seed1_channels, seed1_grams):
        # an in-span precoder V = h^T A: its node-domain couplings
        # delta conj(h) V are the Gram-route couplings C A
        rng = np.random.default_rng(0)
        a = random_weights(rng, 4, scale=1e-4)
        h = seed1_channels.h
        ap, nv = seed1_scene.user_apertures(), seed1_scene.noise_vars()
        gamma = sinr_vector(seed1_grid256.cell_area * (np.conj(h) @ (h.T @ a)),
                            ap, nv)
        assert np.allclose(
            gamma, sinr_vector(integral_couplings(a, seed1_grams.coupling), ap, nv),
            rtol=1e-12)


class TestLift:
    def test_recovers_in_subspace_precoder(self, seed1_scene, seed1_grid256,
                                           seed1_channels):
        rng = np.random.default_rng(1)
        a0 = random_weights(rng, 4, scale=1e-4)
        v = DiscretePrecoder(values=seed1_channels.h.T @ a0,
                             cell_area=seed1_grid256.cell_area)
        lift = lift_precoder(v, seed1_channels, seed1_grid256.cell_area)
        assert np.allclose(lift.weights, a0, atol=1e-8 * np.abs(a0).max())
        assert lift.residual_norm <= 1e-8 * np.linalg.norm(v.values)

    def test_zero_precoder(self, seed1_channels, seed1_grid256):
        v = DiscretePrecoder(values=np.zeros((256, 4), dtype=complex),
                             cell_area=seed1_grid256.cell_area)
        lift = lift_precoder(v, seed1_channels, seed1_grid256.cell_area)
        assert np.array_equal(lift.weights, np.zeros((4, 4)))
        assert lift.residual_norm == 0.0

    def test_wmmse_solution_is_channel_shaped(self, seed1_scene):
        grid, h, precoder, _ = run_wmmse(seed1_scene, 256)
        chan = channel_matrix(seed1_scene, grid)
        lift = lift_precoder(precoder, chan, grid.cell_area)
        assert lift.residual_norm <= 1e-9 * np.linalg.norm(precoder.values)

    def test_lifted_se_matches_pointwise_se(self, seed1_scene):
        # same-grid evaluation: lifting a channel-shaped precoder loses nothing
        grid, h, precoder, _ = run_wmmse(seed1_scene, 256)
        chan = channel_matrix(seed1_scene, grid)
        lift = lift_precoder(precoder, chan, grid.cell_area)
        gamma_direct = sinr_vector(grid.cell_area * (np.conj(h) @ precoder.values),
                                   seed1_scene.user_apertures(),
                                   seed1_scene.noise_vars())
        grams = gram_pair(h, grid.cell_area)
        gamma_lifted = sinr_vector(
            integral_couplings(lift.weights, grams.coupling),
            seed1_scene.user_apertures(), seed1_scene.noise_vars())
        se_direct = sum_se(gamma_direct).sum_se
        se_lifted = sum_se(gamma_lifted).sum_se
        assert se_lifted >= se_direct - 1e-6

    def test_ill_conditioned_gram_rejected(self):
        scene = sample_scene(seed=1, num_users=2)
        positions = scene.positions.copy()
        positions[1] = positions[0] + 1e-10
        near_dup = scene.with_positions(positions)
        grid = build_grid(scene.aperture, 64)
        chan = channel_matrix(near_dup, grid)
        v = DiscretePrecoder(values=np.zeros((64, 2), dtype=complex),
                             cell_area=grid.cell_area)
        with pytest.raises(LiftConditionError):
            lift_precoder(v, chan, grid.cell_area)


class TestBaseline:
    def test_pipeline_structure(self, seed1_scene):
        res = baseline_se(seed1_scene, num_nodes=64, num_nodes_eval=256)
        assert isinstance(res, BaselineResult)
        assert res.runtime_seconds > 0.0
        assert res.se_report.sum_se > 0.0
        assert (res.num_nodes, res.num_nodes_eval) == (64, 256)

    def test_finer_wmmse_grid_improves_se(self):
        # seed-averaged: evaluating on a common fine grid, the M=256 baseline
        # beats the M=16 baseline
        gains = []
        for seed in range(8):
            scene = sample_scene(seed=3000 + seed, num_users=4)
            lo = baseline_se(scene, num_nodes=16, num_nodes_eval=1024)
            hi = baseline_se(scene, num_nodes=256, num_nodes_eval=1024)
            gains.append(hi.se_report.sum_se - lo.se_report.sum_se)
        assert np.mean(gains) > 0.0


def _reference_wmmse(h, cell_area, user_apertures, noise_vars, power_budget,
                     options=None):
    """WMMSE on the M-row node-domain matrices, with a bisection multiplier.

    The node-domain form of :func:`wmmse_precoding`: every product runs over
    the M nodes and the sum-power multiplier is bisected to 1e-10 of its
    bracket.  Kept as the oracle for the Gram-coordinate iteration.
    """
    options = options or WmmseOptions()
    h = np.asarray(h, dtype=complex)
    num_users, num_nodes = h.shape
    ap_u = _shared_aperture(user_apertures)
    noise = np.asarray(noise_vars, dtype=float)
    power = power_budget / cell_area

    eff = np.sqrt(ap_u) * cell_area * h
    eff_norms = np.linalg.norm(eff, axis=1)
    if np.any(eff_norms == 0.0):
        raise ValueError("a user has an identically zero channel")

    v = (eff / eff_norms[:, None]).T.copy()
    v *= np.sqrt(power / num_users)

    def couplings(vmat):
        return np.conj(eff) @ vmat

    def sum_rate(vmat):
        t = couplings(vmat)
        sig = np.abs(np.diag(t)) ** 2
        interference = np.sum(np.abs(t) ** 2, axis=1) - sig
        return float(np.sum(np.log1p(sig / (interference + noise)) / np.log(2.0)))

    trace = [sum_rate(v)]
    converged = False
    iterations = 0
    for iterations in range(1, options.max_iterations + 1):
        t = couplings(v)
        totals = np.sum(np.abs(t) ** 2, axis=1) + noise
        u = np.diag(t) / totals
        mse = 1.0 - (np.conj(u) * np.diag(t)).real
        w = 1.0 / mse

        alpha = w * np.abs(u) ** 2
        scaled = np.conj(eff) * np.sqrt(alpha)[:, None]
        gram_small = scaled @ scaled.conj().T
        lam, q = np.linalg.eigh(gram_small)
        keep = lam > max(1e-14 * lam.max(), 0.0)
        lam_kept = lam[keep]
        basis = scaled.conj().T @ (q[:, keep] / np.sqrt(lam_kept)[None, :])

        coeff = basis.conj().T @ eff.T
        gains = (w * np.abs(u)) ** 2
        filt_sq = np.abs(coeff) ** 2 * gains[None, :]

        def total_power(mu):
            return float(np.sum(filt_sq / (lam_kept[:, None] + mu) ** 2))

        if total_power(0.0) <= power:
            mu = 0.0
        else:
            hi = max(lam_kept.max(), 1.0)
            for _ in range(200):
                if total_power(hi) < power:
                    break
                hi *= 2.0
            else:
                raise BisectionError("could not bracket the power multiplier")
            lo = 0.0
            scale_ref = hi
            while hi - lo > 1e-10 * scale_ref:
                mid = 0.5 * (lo + hi)
                if total_power(mid) > power:
                    lo = mid
                else:
                    hi = mid
            mu = 0.5 * (lo + hi)

        v = basis @ (coeff / (lam_kept[:, None] + mu)) * (w * u)[None, :]
        trace.append(sum_rate(v))
        if abs(trace[-1] - trace[-2]) <= options.tolerance * max(1.0, abs(trace[-1])):
            converged = True
            break

    current = float(np.sum(np.abs(v) ** 2))
    if current > 0.0:
        v = v * np.sqrt(power / current)
    trace.append(sum_rate(v))
    return (DiscretePrecoder(values=v, cell_area=cell_area),
            WmmseInfo(iterations=iterations, converged=converged,
                      objective_trace=np.asarray(trace)))


AGREEMENT_CASES = ([(seed, k, m) for seed in range(9000, 9004)
                    for k in (4, 16) for m in (64, 256)]
                   + [(9000, 16, 4)])      # M < K: a rank-deficient Gram


class TestGramDomainAgreement:
    @pytest.mark.parametrize("seed,num_users,num_nodes", AGREEMENT_CASES)
    def test_matches_node_domain_reference(self, seed, num_users, num_nodes):
        scene = sample_scene(seed=seed, num_users=num_users)
        grid = build_grid(scene.aperture, num_nodes)
        h = channel_matrix(scene, grid).h
        args = (h, grid.cell_area, scene.user_apertures(), scene.noise_vars(),
                scene.power_budget)
        precoder, info = wmmse_precoding(*args)
        ref_precoder, ref_info = _reference_wmmse(*args)
        assert (info.iterations, info.converged) \
            == (ref_info.iterations, ref_info.converged)
        assert np.allclose(info.objective_trace, ref_info.objective_trace,
                           rtol=1e-9, atol=0.0)
        ref_v = ref_precoder.values
        assert np.max(np.abs(precoder.values - ref_v)) \
            <= 1e-8 * np.max(np.abs(ref_v))


def _secular_power(c, lam, mu):
    return float(np.sum(c / (lam + mu) ** 2))


def _bisected_multiplier(c, lam, power):
    """Bisection on P(mu) = power down to adjacent doubles."""
    if _secular_power(c, lam, 0.0) <= power:
        return 0.0
    lo, hi = 0.0, max(lam.max(), 1.0)
    while _secular_power(c, lam, hi) >= power:
        lo, hi = hi, 2.0 * hi
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if _secular_power(c, lam, mid) > power:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _random_secular_case(rng):
    r = int(rng.integers(1, 17))
    lam = 10.0 ** rng.uniform(-6.0, 3.0, r)
    c = 10.0 ** rng.uniform(-8.0, 2.0, r)
    c[rng.random(r) < 0.25] = 0.0
    if not c.any():
        c[int(rng.integers(r))] = 1.0
    power = _secular_power(c, lam, 0.0) * 10.0 ** rng.uniform(-8.0, 0.5)
    return c, lam, power


class TestPowerMultiplier:
    def test_root_matches_bisection_reference(self):
        rng = np.random.default_rng(77)
        binding = 0
        for _ in range(400):
            c, lam, power = _random_secular_case(rng)
            mu = _power_multiplier(c, lam, power)
            ref = _bisected_multiplier(c, lam, power)
            assert abs(mu - ref) <= 1e-10 * max(lam.max(), 1.0)
            if mu > 0.0:
                binding += 1
                assert abs(_secular_power(c, lam, mu) - power) <= 1e-12 * power
        assert binding >= 300

    def test_zero_when_the_budget_is_not_binding(self):
        rng = np.random.default_rng(78)
        for _ in range(50):
            c, lam, _ = _random_secular_case(rng)
            p0 = _secular_power(c, lam, 0.0)
            for power in (p0, 2.0 * p0):
                assert _power_multiplier(c, lam, power) == 0.0
        assert _power_multiplier(np.zeros(3), np.ones(3), 0.0) == 0.0

    @pytest.mark.parametrize("power", [0.0, -1.0])
    def test_non_positive_budget_raises(self, power):
        with pytest.raises(BisectionError):
            _power_multiplier(np.array([1.0, 0.0]), np.array([0.5, 2.0]), power)

    def test_non_finite_input_raises(self):
        with pytest.raises(BisectionError):
            _power_multiplier(np.array([np.nan, 1.0]), np.ones(2), 0.5)
