import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import all_permutations, cpu_dispatch_targets, random_weights
from lcapa.objective import sinr_vector, sum_se
from lcapa.quadrature import (build_grid, channel_matrix, gram_pair,
                              integral_couplings, integral_power)
from lcapa.scene import sample_scene
import lcapa.wmmse
from lcapa.wmmse import (
    BaselineResult,
    BisectionError,
    WmmseInfo,
    _power_multiplier,
    baseline_se,
    lift_precoder,
    wmmse_precoding,
)
from oracles import (WMMSE_MAX_ITERATIONS, WMMSE_TOLERANCE,
                     least_squares_lift, plain_power_multiplier,
                     plain_wmmse_precoding)


def run_wmmse(scene, num_nodes):
    """WMMSE on the scene's M-node Gram; returns (grid, h, C, weights A, info)."""
    grid = build_grid(scene.aperture, num_nodes)
    h = channel_matrix(scene, grid).h
    coupling = gram_pair(h, grid.cell_area).coupling
    coordinates, info = wmmse_precoding(scene, coupling)
    weights = lift_precoder(coordinates, scene).weights
    return grid, h, coupling, weights, info


class TestSingleUser:
    def test_converges_to_matched_filter(self):
        scene = sample_scene(seed=2, num_users=1)
        grid, h, _, a, info = run_wmmse(scene, 64)
        v = (h.T @ a)[:, 0]
        # optimal single-user precoder is proportional to the channel samples
        alignment = abs(np.vdot(h[0], v)) / (np.linalg.norm(h[0]) * np.linalg.norm(v))
        assert alignment == pytest.approx(1.0, abs=1e-10)

    def test_matches_closed_form_se(self):
        scene = sample_scene(seed=2, num_users=1)
        grid, h, coupling, a, info = run_wmmse(scene, 64)
        gamma = sinr_vector(integral_couplings(a, coupling),
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
        grid, h, coupling, a, info = run_wmmse(solo, 256)
        gamma = sinr_vector(integral_couplings(a, coupling),
                            solo.user_apertures(), solo.noise_vars())
        expected = (solo.user_aperture * grid.cell_area * np.sum(np.abs(h[0]) ** 2)
                    / solo.noise_var)
        assert gamma[0] == pytest.approx(expected, rel=1e-8)


class TestIterationProperties:
    def test_trace_nondecreasing_on_random_scenes(self):
        for seed in range(40):
            scene = sample_scene(seed=2000 + seed, num_users=4)
            *_, info = run_wmmse(scene, 64)
            diffs = np.diff(info.objective_trace)
            assert diffs.min() >= -1e-8

    def test_power_equality(self):
        for seed in (1, 5, 9):
            scene = sample_scene(seed=seed, num_users=4)
            _, _, coupling, a, _ = run_wmmse(scene, 64)
            total = integral_power(a, coupling).sum()
            assert abs(total - scene.power_budget) <= 1e-6 * scene.power_budget

    # wmmse_precoding and lift_precoder read |A_u| and P from the scene, so
    # a bad one reaches them only through a Scene, which refuses it
    @pytest.mark.parametrize("size", [np.inf, np.nan, 0.0, -1e-5],
                             ids=["inf", "nan", "zero", "negative"])
    def test_bad_aperture_size_rejected(self, size, seed1_scene):
        # all-inf sizes used to end in LinAlgError inside eigh, and
        # lift_precoder returned non-finite weights
        with pytest.raises(ValueError, match="user_aperture"):
            replace(seed1_scene, user_aperture=size)

    @pytest.mark.parametrize("budget", [0.0, -1.0, float("nan"), float("inf")])
    def test_power_budget_validated(self, budget, seed1_scene):
        with pytest.raises(ValueError, match="power_budget"):
            replace(seed1_scene, power_budget=budget)

    @pytest.mark.parametrize("cut", [lambda c: c[:3, :3], lambda c: c[:, :3],
                                     np.diagonal], ids=["3x3", "4x3", "vector"])
    def test_coupling_must_be_k_by_k(self, cut, seed1_scene, seed1_grams):
        with pytest.raises(ValueError, match="coupling"):
            wmmse_precoding(seed1_scene, cut(seed1_grams.coupling))

    @pytest.mark.parametrize("entry", ["off_hermitian", float("nan"), float("inf")])
    def test_coupling_must_be_hermitian_and_finite(self, entry, seed1_scene,
                                                   seed1_grams):
        # eigh would silently read one triangle of a non-Hermitian Gram
        bad = seed1_grams.coupling.copy()
        if entry == "off_hermitian":
            bad[0, 1] += 1e-6 * np.abs(bad).max()
        else:
            bad[2, 2] = entry
        with pytest.raises(AssertionError, match="Hermitian"):
            wmmse_precoding(seed1_scene, bad)

    def test_permutation_covariance_with_fixed_init(self):
        scene = sample_scene(seed=4, num_users=4)
        *_, a, _ = run_wmmse(scene, 64)
        for pi in all_permutations(4)[:6]:
            permuted = scene.with_positions(pi.T @ scene.positions)
            *_, a_p, _ = run_wmmse(permuted, 64)
            assert np.allclose(a_p, pi.T @ a @ pi,
                               rtol=1e-6, atol=1e-6 * np.abs(a).max())


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
        lift = lift_precoder(a0 / np.sqrt(seed1_scene.user_aperture), seed1_scene)
        assert np.allclose(lift.weights, a0, rtol=1e-15, atol=0.0)
        # the least-squares reference recovers the same weights from V = h^T A
        v = seed1_channels.h.T @ a0
        weights, residual, _ = least_squares_lift(v, seed1_channels.h,
                                                  seed1_grid256.cell_area)
        assert np.allclose(weights, a0, atol=1e-8 * np.abs(a0).max())
        assert residual <= 1e-8 * np.linalg.norm(v)

    def test_zero_precoder(self, seed1_scene, seed1_channels, seed1_grid256):
        lift = lift_precoder(np.zeros((4, 4), dtype=complex), seed1_scene)
        assert np.array_equal(lift.weights, np.zeros((4, 4)))
        weights, residual, _ = least_squares_lift(
            np.zeros((256, 4), dtype=complex), seed1_channels.h,
            seed1_grid256.cell_area)
        assert np.array_equal(weights, np.zeros((4, 4)))
        assert residual == 0.0

    def test_wmmse_solution_is_channel_shaped(self, seed1_scene):
        # the node-domain iteration never leaves the channel span, which is
        # why the weights have a closed form
        grid = build_grid(seed1_scene.aperture, 256)
        h = channel_matrix(seed1_scene, grid).h
        v_ref, _ = _reference_wmmse(h, grid.cell_area, seed1_scene.user_apertures(),
                                    seed1_scene.noise_vars(),
                                    seed1_scene.power_budget)
        _, residual, _ = least_squares_lift(v_ref, h, grid.cell_area)
        assert residual <= 1e-9 * np.linalg.norm(v_ref)

    def test_lifted_se_matches_pointwise_se(self, seed1_scene):
        # the weights' pointwise couplings delta conj(h) (h^T A) give the SE
        # of the Gram route and of WMMSE's own objective
        grid, h, coupling, a, info = run_wmmse(seed1_scene, 256)
        ap, nv = seed1_scene.user_apertures(), seed1_scene.noise_vars()
        se_direct = sum_se(sinr_vector(grid.cell_area * (np.conj(h) @ (h.T @ a)),
                                       ap, nv)).sum_se
        se_lifted = sum_se(sinr_vector(integral_couplings(a, coupling),
                                       ap, nv)).sum_se
        assert se_lifted == pytest.approx(se_direct, abs=1e-9)
        assert se_lifted == pytest.approx(info.objective_trace[-1], abs=1e-9)


class TestBaseline:
    def test_pipeline_structure(self, seed1_scene):
        res = baseline_se(seed1_scene, num_nodes=64, num_nodes_eval=256)
        assert isinstance(res, BaselineResult)
        assert res.runtime_seconds > 0.0
        assert res.se_report.sum_se > 0.0

    def test_runtime_excludes_the_scoring(self, seed1_scene, monkeypatch):
        # integral_power runs only in the scoring on grid(M_eval), so a slow
        # one must not show in runtime_seconds
        def slow(*args):
            time.sleep(0.05)
            return integral_power(*args)

        monkeypatch.setattr(lcapa.wmmse, "integral_power", slow)
        res = baseline_se(seed1_scene, num_nodes=64, num_nodes_eval=256)
        assert res.runtime_seconds < 0.05

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

    @pytest.mark.parametrize("num_users,offset", [(2, 1e-10), (2, 0.0), (4, 0.0)])
    def test_co_located_users_give_finite_se(self, num_users, offset):
        # user 1 sits on (or 1e-10 m from) user 0, so the Gram is singular to
        # working precision (cond(C) > 1e15); the closed-form lift needs no
        # solve against it
        scene = sample_scene(seed=1, num_users=num_users)
        positions = scene.positions.copy()
        positions[1] = positions[0] + offset
        res = baseline_se(scene.with_positions(positions), num_nodes=64,
                          num_nodes_eval=256)
        assert np.all(np.isfinite(res.lift.weights))
        assert np.all(np.isfinite(res.se_report.rates))
        assert res.se_report.sum_se > 0.0


def _reference_wmmse(h, cell_area, user_apertures, noise_vars, power_budget):
    """WMMSE on the M-row node-domain matrices, with a bisection multiplier.

    The node-domain form of :func:`wmmse_precoding`: every product runs over
    the M nodes and the sum-power multiplier is bisected to 1e-10 of its
    bracket.  Returns the (M, K) precoder V, whose node-domain power is
    delta ||V||_F^2, and the iteration record.  Kept as the oracle for the
    Gram-coordinate iteration, which it meets through V = h^T A.
    """
    h = np.asarray(h, dtype=complex)
    num_users, num_nodes = h.shape
    ap_u = float(user_apertures[0])
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
    for iterations in range(1, WMMSE_MAX_ITERATIONS + 1):
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
        if abs(trace[-1] - trace[-2]) <= WMMSE_TOLERANCE * max(1.0, abs(trace[-1])):
            converged = True
            break

    current = float(np.sum(np.abs(v) ** 2))
    if current > 0.0:
        v = v * np.sqrt(power / current)
    trace.append(sum_rate(v))
    return v, WmmseInfo(iterations=iterations, converged=converged,
                        objective_trace=np.asarray(trace))


AGREEMENT_CASES = ([(seed, k, m) for seed in range(9000, 9004)
                    for k in (4, 16) for m in (64, 256)]
                   + [(9000, 16, 4)])      # M < K: a rank-deficient Gram


class TestGramDomainAgreement:
    @staticmethod
    def _both(seed, num_users, num_nodes):
        scene = sample_scene(seed=seed, num_users=num_users)
        grid = build_grid(scene.aperture, num_nodes)
        h = channel_matrix(scene, grid).h
        coupling = gram_pair(h, grid.cell_area).coupling
        coordinates, info = wmmse_precoding(scene, coupling)
        weights = lift_precoder(coordinates, scene).weights
        ref_v, ref_info = _reference_wmmse(h, grid.cell_area,
                                           scene.user_apertures(),
                                           scene.noise_vars(), scene.power_budget)
        return grid, h, weights, info, ref_v, ref_info

    @pytest.mark.parametrize("seed,num_users,num_nodes", AGREEMENT_CASES)
    def test_matches_node_domain_reference(self, seed, num_users, num_nodes):
        _, h, weights, info, ref_v, ref_info = self._both(seed, num_users, num_nodes)
        assert (info.iterations, info.converged) \
            == (ref_info.iterations, ref_info.converged)
        assert np.allclose(info.objective_trace, ref_info.objective_trace,
                           rtol=1e-9, atol=0.0)
        assert np.max(np.abs(h.T @ weights - ref_v)) <= 1e-8 * np.max(np.abs(ref_v))

    # the least-squares lift is defined only for a well-conditioned Gram,
    # which rules out M < K
    @pytest.mark.parametrize("seed,num_users,num_nodes",
                             [c for c in AGREEMENT_CASES if c[2] >= c[1]])
    def test_closed_form_matches_least_squares_lift(self, seed, num_users,
                                                    num_nodes):
        grid, h, weights, _, ref_v, _ = self._both(seed, num_users, num_nodes)
        ls_weights, _, cond = least_squares_lift(ref_v, h, grid.cell_area)
        assert cond < 1e12
        assert np.max(np.abs(weights - ls_weights)) \
            <= 1e-8 * np.max(np.abs(ls_weights))


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

    def test_rounding_limited_multiplier_returns(self):
        # scene seed 1001 at K = 4, zeta = 1e8, first WMMSE iteration: mu ~ 4
        # is small against lam ~ 1e4, so P(mu) moves by one ulp per ~5e-12
        # of mu and the iterates flip between two adjacent floats with steps
        # above 1e-13 mu; the step test alone raised after 100 steps
        c = np.array([37582585.56705535, 47609438.857982315,
                      50555409.86415962, 260563358.79497725])
        lam = np.array([12227.50854528892, 13797.516388875449,
                        14230.950423076512, 32321.06551812619])
        mu = _power_multiplier(c, lam, 1.0)
        assert mu > 0.0 and mu == plain_power_multiplier(c, lam, 1.0)
        assert abs(mu - _bisected_multiplier(c, lam, 1.0)) <= 1e-10 * lam.max()
        assert abs(_secular_power(c, lam, mu) - 1.0) <= 1e-12

    def test_underflowing_power_raises(self):
        # P(mu) falls to 0 within a few subnormal steps, where a Newton step
        # divides by zero; the plain form runs on NaN until its step cap
        c, lam, power = np.array([3e-323]), np.array([1.2]), 5e-324
        with pytest.raises(BisectionError, match="undefined step"):
            _power_multiplier(c, lam, power)
        with pytest.raises(BisectionError), np.errstate(all="ignore"):
            plain_power_multiplier(c, lam, power)


def _plain_pool():
    """(label, scene, Gram) at K = 1, 4 and 16, plus Grams of rank below K:
    two users at one point, and M < K."""
    cases = []
    for num_users in (1, 4, 16):
        for seed in range(5000, 5006):
            scene = sample_scene(seed=seed, num_users=num_users)
            cases.append((f"k{num_users}-{seed}", scene, 256))
    scene = sample_scene(seed=5100, num_users=4)
    positions = scene.positions.copy()
    positions[1] = positions[0]
    cases.append(("coincident", scene.with_positions(positions), 64))
    cases.append(("m-below-k", sample_scene(seed=5101, num_users=16), 4))
    pool = []
    for label, scene, num_nodes in cases:
        grid = build_grid(scene.aperture, num_nodes)
        coupling = gram_pair(channel_matrix(scene, grid).h,
                             grid.cell_area).coupling
        pool.append((label, scene, coupling))
    return pool


def _assert_wmmse_matches_plain():
    rank_deficient = 0
    for label, scene, coupling in _plain_pool():
        b, info = wmmse_precoding(scene, coupling)
        want_b, want = plain_wmmse_precoding(coupling, scene.user_apertures(),
                                             scene.noise_vars(),
                                             scene.power_budget)
        assert b.tobytes() == want_b.tobytes(), label
        assert (info.iterations, info.converged) \
            == (want.iterations, want.converged), label
        assert info.objective_trace.tobytes() == want.objective_trace.tobytes(), label
        rank_deficient += np.linalg.matrix_rank(coupling) < scene.num_users
    assert rank_deficient == 2


def _multiplier_outcome(fn, c, lam, power):
    try:
        return fn(c, lam, power)
    except BisectionError as exc:
        return str(exc)


def _assert_multiplier_matches_plain():
    rng = np.random.default_rng(79)
    outcomes = {"zero": 0, "binding": 0, "raised": 0}
    cases = [_random_secular_case(rng) for _ in range(300)]
    cases += [(c, lam, _secular_power(c, lam, 0.0)) for c, lam, _ in cases[:20]]
    cases += [(np.array([1.0, 0.0]), np.array([0.5, 2.0]), power)
              for power in (0.0, -1.0)]
    cases += [(np.array([np.nan, 1.0]), np.ones(2), 0.5)]
    for c, lam, power in cases:
        got = _multiplier_outcome(_power_multiplier, c, lam, power)
        want = _multiplier_outcome(plain_power_multiplier, c, lam, power)
        assert type(got) is type(want) and got == want, (c, lam, power)
        outcomes["raised" if isinstance(want, str) else
                 "zero" if want == 0.0 else "binding"] += 1
    assert min(outcomes.values()) >= 3, outcomes


def _assert_matches_plain():
    _assert_wmmse_matches_plain()
    _assert_multiplier_matches_plain()


class TestMatchesPlainIteration:
    """The tuned iteration and multiplier against their plain forms in
    ``tests/oracles.py``: the same bits, not merely close."""

    def test_wmmse_bit_identical(self):
        _assert_wmmse_matches_plain()

    def test_multiplier_bit_identical(self):
        _assert_multiplier_matches_plain()

    @pytest.mark.skipif(not cpu_dispatch_targets(),
                        reason="numpy reports no CPU dispatch targets")
    def test_bit_identical_with_dispatch_disabled(self, no_dispatch):
        no_dispatch("test_wmmse", "_assert_matches_plain()")
