"""The reference scorer is converged at 192 x 192 nodes, and 128 x 128 is not."""

import numpy as np
import pytest

from lcapa import objective, quadrature, scene
from perfbench.reference import REFERENCE_NODES_PER_SIDE, reference_gram, reference_sum_se

TOL = 1e-10     # of the largest Gram diagonal entry


def _rel_diff(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(np.diag(b))))


@pytest.fixture(scope="module")
def k16_grams():
    out = {}
    for seed in (9000, 9001):
        s = scene.sample_scene(seed, 16)
        out[seed] = {n: reference_gram(s, n) for n in (128, REFERENCE_NODES_PER_SIDE, 256)}
    return out


def test_192_agrees_with_256(k16_grams):
    for grams in k16_grams.values():
        assert _rel_diff(grams[REFERENCE_NODES_PER_SIDE], grams[256]) <= TOL


def test_128_is_rejected(k16_grams):
    grams = k16_grams[9000]
    ref = grams[REFERENCE_NODES_PER_SIDE]
    err = _rel_diff(grams[128], ref)
    assert err > TOL
    # The 128^2 error exceeds the weakest true interference terms, so it
    # would misstate the SINR, not just round it.
    off = np.abs(ref[~np.eye(16, dtype=bool)]).min() / np.abs(np.diag(ref)).max()
    assert err > off


def test_gram_is_hermitian_with_real_diagonal(k16_grams):
    c = k16_grams[9000][REFERENCE_NODES_PER_SIDE]
    assert np.array_equal(c, c.conj().T)
    assert np.all(np.diag(c).imag == 0.0) and np.all(np.diag(c).real > 0.0)


def test_sum_se_matches_the_program_formulas_on_one_gram():
    s = scene.sample_scene(3, 4)
    c = reference_gram(s, 64)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    projected = objective.project_weights(a, quadrature.integral_power(a, c), s.power_budget)
    g = quadrature.integral_couplings(projected, c)
    expected = objective.sum_se(objective.sinr_vector(g, s.user_apertures(),
                                                      s.noise_vars())).sum_se
    assert reference_sum_se(s, a, c) == pytest.approx(expected, rel=1e-12)
    # Scoring rescales to the budget, so the scale of the weights is irrelevant.
    assert reference_sum_se(s, 7.0 * a, c) == pytest.approx(expected, rel=1e-12)
