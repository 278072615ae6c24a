import json
import math
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import (_child_env, all_permutations, cpu_dispatch_targets,
                      cpu_umath, random_weights)
from lcapa.quadrature import (
    GRAM_CHUNK_ENTRIES,
    ApertureGrid,
    ChannelMatrix,
    build_grid,
    channel_matrix,
    coupling_grams,
    gram_pair,
    integral_couplings,
    integral_power,
)
from lcapa.scene import DEFAULT_WAVELENGTH, sample_scene, square_aperture
from oracles import direct_integral_check, plain_integral_power

FIXTURES = Path(__file__).parent / "fixtures"
EPS = np.finfo(float).eps
_U = EPS / 2
# one build's relative channel error: libm exp (2u), three component-wise
# real products (u each) and one complex product (sqrt(5) u);
# test_golden_bit_stable derives it.  (1 + 2u)(1 + u)^3 (1 + sqrt(5) u) - 1,
# through log1p/expm1 because plain floating point rounds 1 + u to 1
_RHO = math.expm1(math.log1p(2 * _U) + 3 * math.log1p(_U)
                  + math.log1p(math.sqrt(5) * _U))
# two builds may differ by the sum of both errors, measured against |h_gold|
GOLDEN_C = math.ceil(2 * _RHO / (1 - _RHO) / EPS)

def _seed1_channel_hex():
    """The bytes of the seed-1 K=4, M=256 channel, in hex."""
    scene = sample_scene(seed=1, num_users=4)
    return channel_matrix(scene, build_grid(scene.aperture, 256)).h.tobytes().hex()


def _channel_from_hex(text):
    return np.frombuffer(bytes.fromhex(text), dtype=complex).reshape(4, 256)


_SEED1_CHANNEL_SCRIPT = """
import sys
from lcapa.quadrature import build_grid, channel_matrix
from lcapa.scene import sample_scene
scene = sample_scene(seed=1, num_users=4)
sys.stdout.write(channel_matrix(scene, build_grid(scene.aperture, 256)).h.tobytes().hex())
"""


def _golden_channels():
    with open(FIXTURES / "channel_seed1_k4_m256.json") as fh:
        rec = json.load(fh)
    return np.array([[complex(float(re), float(im)) for re, im in row]
                     for row in rec["h"]])


def _worst_deviation(h, reference):
    """Largest |h - reference| in units of eps |reference|, and its (k, m)."""
    dev = np.abs(h - reference) / (EPS * np.abs(reference))
    k, m = np.unravel_index(np.argmax(dev), dev.shape)
    return float(dev[k, m]), (int(k), int(m))


def _golden_report(worst, k, m, reference="h_gold"):
    features = getattr(cpu_umath(), "__cpu_features__", {})
    active = [t for t in cpu_dispatch_targets() if features.get(t)]
    return (f"h[{k},{m}] is {worst:.3g} eps*|{reference}| off, above the bound "
            f"{GOLDEN_C}; numpy {np.__version__}, active dispatch targets {active}")


def _seed1_channel_in_subprocess():
    """The seed-1 K=4, M=256 channel computed by a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", _SEED1_CHANNEL_SCRIPT],
                         env=_child_env(), capture_output=True, text=True,
                         check=True).stdout
    return _channel_from_hex(out)


class TestBuildGrid:
    def test_hand_computable_m4(self):
        grid = build_grid(square_aperture(4.0), 4)
        assert grid.cell_area == pytest.approx(1.0)
        got = {tuple(np.round(n, 12)) for n in grid.nodes}
        assert got == {(0.5, 0.0, 0.5), (0.5, 0.0, -0.5),
                       (-0.5, 0.0, 0.5), (-0.5, 0.0, -0.5)}

    def test_m256(self):
        grid = build_grid(square_aperture(4.0), 256)
        assert (grid.nx, grid.nz) == (16, 16)
        assert grid.cell_area == pytest.approx(4.0 / 256)

    @pytest.mark.parametrize("m", [4, 16, 100, 256, 1024])
    def test_partition_sums_to_area(self, m):
        grid = build_grid(square_aperture(4.0), m)
        assert abs(m * grid.cell_area - 4.0) < 1e-9

    def test_invalid_m_lists_nearest(self):
        with pytest.raises(ValueError, match=r"4.*9"):
            build_grid(square_aperture(4.0), 5)

    # a negative count used to take sqrt of a negative number first
    @pytest.mark.parametrize("m", [0, -4])
    def test_empty_m_rejected(self, m):
        with pytest.raises(ValueError, match="num_nodes must be >= 1"):
            build_grid(square_aperture(4.0), m)

    @pytest.mark.parametrize("nx,nz", [(-1, -4), (0, 4), (4, 0)])
    def test_empty_cell_counts_rejected(self, nx, nz):
        # (-1, -4) used to give a grid of no nodes that reported 4 cells
        with pytest.raises(ValueError, match="nx, nz >= 1"):
            ApertureGrid(square_aperture(4.0), nx, nz)

    def test_grid_takes_only_its_inputs(self):
        # nodes and cell area are derived, so they cannot disagree with the
        # aperture they partition
        grid = build_grid(square_aperture(4.0), 16)
        assert [f.name for f in fields(ApertureGrid) if f.init] == [
            "aperture", "nx", "nz"]
        fresh = ApertureGrid(grid.aperture, 4, 4)
        assert fresh.nodes.tobytes() == grid.nodes.tobytes()
        assert fresh.cell_area == grid.cell_area == 4.0 / 16
        assert fresh == grid and not fresh.nodes.flags.writeable
        with pytest.raises(TypeError, match="cell_area"):
            ApertureGrid(grid.aperture, 4, 4, cell_area=0.25)

    def test_rectangular_ratio(self):
        from lcapa.scene import ApertureSpec

        ap = ApertureSpec(center=(0, 0, 0), normal=(0, 1, 0), side_x=4.0, side_z=1.0)
        grid = build_grid(ap, 64)
        assert (grid.nx, grid.nz) == (16, 4)
        assert abs(64 * grid.cell_area - 4.0) < 1e-9

    def test_repeated_call_returns_the_shared_grid(self):
        grid = build_grid(square_aperture(4.0), 256)
        assert build_grid(square_aperture(4.0), 256) is grid
        assert not grid.nodes.flags.writeable

    def test_other_m_or_aperture_gets_its_own_grid(self):
        from lcapa.scene import ApertureSpec

        grid = build_grid(square_aperture(4.0), 256)
        others = [build_grid(square_aperture(4.0), 1024),
                  build_grid(square_aperture(9.0), 256),
                  build_grid(square_aperture(4.0, center=(0.0, 0.0, 1.0)), 256),
                  build_grid(ApertureSpec(center=(0, 0, 0), normal=(0, 0, 1),
                                          side_x=2.0, side_z=2.0), 256)]
        for other in others:
            assert other is not grid
            assert not np.array_equal(other.nodes, grid.nodes)

    def test_list_fields_share_the_tuple_grid(self):
        from lcapa.scene import ApertureSpec

        listed = ApertureSpec(center=[0, 0, 0], normal=[0, 1, 0],
                              side_x=2, side_z=2)
        assert build_grid(listed, 256) is build_grid(square_aperture(4.0), 256)

    def test_evicted_grid_is_rebuilt_bit_identically(self):
        grid = build_grid(square_aperture(4.0), 64)
        nodes = grid.nodes.copy()
        for area in range(1, 20):  # more distinct grids than the cache holds
            build_grid(square_aperture(float(area) + 0.5), 64)
        again = build_grid(square_aperture(4.0), 64)
        assert again is not grid
        assert np.array_equal(again.nodes, nodes)
        assert again.cell_area == grid.cell_area


class TestChannelMatrix:
    def test_k1_m1_matches_single_call(self):
        from lcapa.scene import channel_response

        scene = sample_scene(seed=2, num_users=1)
        grid = build_grid(scene.aperture, 1)
        cm = channel_matrix(scene, grid)
        assert cm.h.shape == (1, 1)
        assert cm.h[0, 0] == channel_response(scene, 0, grid.nodes[0])

    def test_permuting_users_permutes_rows(self, seed1_scene, seed1_grid256):
        cm = channel_matrix(seed1_scene, seed1_grid256)
        perm = [2, 0, 3, 1]
        permuted = channel_matrix(seed1_scene.with_positions(
            seed1_scene.positions[perm]), seed1_grid256)
        assert np.array_equal(permuted.h, cm.h[perm])

    def test_record_owns_a_read_only_array(self, seed1_scene, seed1_grid256):
        cm = channel_matrix(seed1_scene, seed1_grid256)
        assert not cm.h.flags.writeable and cm.h.flags.owndata
        mine = np.array(cm.h)
        copied = ChannelMatrix(h=mine, grid=seed1_grid256)
        assert mine.flags.writeable, "the caller's array was frozen"
        assert copied.h is not mine and not copied.h.flags.writeable
        mine[0, 0] = 0.0
        assert copied.h[0, 0] == cm.h[0, 0]
        view = cm.h[:, ::2]
        assert ChannelMatrix(h=view, grid=seed1_grid256).h.base is None

    @pytest.mark.parametrize("bad", [complex(np.nan, 1.0), complex(1.0, np.inf)])
    def test_non_finite_entry_rejected(self, seed1_channels, seed1_grid256, bad):
        h = np.array(seed1_channels.h)
        h[2, 7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ChannelMatrix(h=h, grid=seed1_grid256)

    def test_golden_bit_stable(self, seed1_scene, seed1_grid256, seed1_channels):
        """Bit-identical on one build; within GOLDEN_C eps |h_gold| across builds.

        Bit stability is what one numpy build on one CPU promises: a second
        call, a fresh interpreter, and the scene rebuilt from its JSON record
        all give the same bits.

        The fixture was written on another build, so it is held to a derived
        bound.  The real inputs of ``channel_response`` (distances, cos_dep,
        kd = k0 d, sqrt(cos_dep), 4 pi d) come from IEEE-754 correctly
        rounded operations in a fixed order, so every build gets the same
        bits for them.  The exponential argument -j kd is exact (products
        with 0 and +-1), which keeps the kd ~ 1.5e4 amplification out of the
        bound.  What a build may change, with u = eps / 2:

        * exp(-j kd): libm cos and sin, each faithful, so within 2u;
        * the three component-wise products, by j k0 eta (pure imaginary),
          by 1/(4 pi d) and by sqrt(cos_dep): each component is one correctly
          rounded real product, so within u each;
        * the product with the correction, the one genuine complex product,
          within sqrt(5) u (Brent, Percival & Zimmermann, "Error bounds on
          complex floating-point multiplication", Math. Comp. 2007);
        * the division j / kd inside the correction, whose error is below
          2e-4 u of |correction| because kd > 1e4.

        One build is within rho = (1 + 2u)(1 + u)^3 (1 + sqrt(5) u) - 1 of
        the exact value h, so two builds differ by at most 2 rho |h|, and
        |h| <= |h_gold| / (1 - rho).  That is (5 + sqrt(5)) eps ~= 7.24 eps
        of |h_gold| to first order; rounding up absorbs the correction term,
        giving GOLDEN_C = 8.  The bound is relative to |h_gold| and not per
        component, because cancellation leaves components as small as 1.09
        against |h| of 370 to 713.
        """
        h = seed1_channels.h
        again = channel_matrix(seed1_scene, seed1_grid256).h
        assert again.tobytes() == h.tobytes(), "second call in one process differs"
        fresh = _seed1_channel_in_subprocess()
        assert fresh.tobytes() == h.tobytes(), "fresh interpreter differs"

        worst, (k, m) = _worst_deviation(h, _golden_channels())
        assert worst <= GOLDEN_C, _golden_report(worst, k, m)

    def test_golden_bound_rejects_one_ulp_wavelength(self, seed1_grid256):
        wavelength = DEFAULT_WAVELENGTH * (1 + EPS)
        assert wavelength == np.nextafter(DEFAULT_WAVELENGTH, 1.0)
        scene = sample_scene(seed=1, num_users=4, wavelength=wavelength)
        worst, _ = _worst_deviation(channel_matrix(scene, seed1_grid256).h,
                                    _golden_channels())
        assert worst > GOLDEN_C

    @pytest.mark.skipif(not cpu_dispatch_targets(),
                        reason="numpy reports no CPU dispatch targets")
    def test_all_dispatch_targets_disabled_within_bound(self, seed1_channels,
                                                        no_dispatch):
        h = _channel_from_hex(no_dispatch("test_quadrature", "_seed1_channel_hex()"))
        worst, (k, m) = _worst_deviation(h, seed1_channels.h)
        assert worst <= GOLDEN_C, (
            f"with NPY_DISABLE_CPU_FEATURES={no_dispatch.disabled!r}: "
            + _golden_report(worst, k, m, reference="h_in_process"))


def _per_pair_gram(h: np.ndarray, cell_area: float) -> np.ndarray:
    """Reference coupling Gram: each (k, i) pair reduced once and mirrored."""
    num = h.shape[0]
    coup = np.empty((num, num), dtype=complex)
    for k in range(num):
        coup[k, k] = np.sum(h[k].real ** 2 + h[k].imag ** 2) * cell_area
        for i in range(k + 1, num):
            cki = np.sum(np.conj(h[k]) * h[i]) * cell_area
            coup[k, i] = cki
            coup[i, k] = np.conj(cki)
    return coup


class TestGramPair:
    def test_k1_formulas(self):
        scene = sample_scene(seed=3, num_users=1)
        grid = build_grid(scene.aperture, 16)
        h = channel_matrix(scene, grid).h
        grams = gram_pair(h, grid.cell_area)
        assert np.isclose(grams.coupling[0, 0],
                          np.sum(np.abs(h[0]) ** 2) * grid.cell_area, rtol=1e-14)
        assert grams.coupling[0, 0].imag == 0.0
        assert grams.coupling[0, 0].real > 0.0

    @pytest.mark.parametrize("num_users", [4, 16])
    @pytest.mark.parametrize("num_nodes", [256, 1024])
    def test_matches_per_pair_reference(self, num_users, num_nodes):
        # the product sums in BLAS order and the reference pairwise, so they
        # differ by rounding; |C_ij| <= sqrt(C_ii C_jj), so max|diag C| is the
        # scale of every entry
        for seed in range(9000, 9004):
            scene = sample_scene(seed=seed, num_users=num_users)
            grid = build_grid(scene.aperture, num_nodes)
            h = channel_matrix(scene, grid).h
            c = gram_pair(h, grid.cell_area).coupling
            ref = _per_pair_gram(h, grid.cell_area)
            bound = 4 * EPS * np.abs(np.diag(ref)).max()
            assert np.abs(c - ref).max() <= bound, seed
            assert np.array_equal(c, c.conj().T), seed
            assert np.all(np.diag(c).imag == 0.0), seed
            again = gram_pair(h, grid.cell_area).coupling
            assert again.tobytes() == c.tobytes(), seed

    def test_coupling_hermitian_psd(self, seed1_grams):
        c = seed1_grams.coupling
        assert np.array_equal(c, c.conj().T)
        eig = np.linalg.eigvalsh(c)
        assert eig.min() >= -1e-10 * np.trace(c).real
        assert np.all(np.diag(c).real > 0.0)
        assert np.all(np.diag(c).imag == 0.0)


@pytest.mark.parametrize("record", ["scene", "channels", "grams"])
def test_records_compare_by_identity(record, seed1_scene, seed1_grid256):
    make = {"scene": lambda: sample_scene(1, 2),
            "channels": lambda: channel_matrix(seed1_scene, seed1_grid256),
            "grams": lambda: gram_pair(np.eye(2, 4, dtype=complex), 0.5)}[record]
    a, b = make(), make()
    assert (a == a) is True and (a == b) is False and (a != b) is True
    assert len({a, b, a}) == 2


class TestIntegralOracles:
    def test_zero_weights(self, seed1_scene, seed1_grid256, seed1_grams):
        a = np.zeros((4, 4), dtype=complex)
        assert np.array_equal(integral_power(a, seed1_grams.coupling), np.zeros(4))
        assert np.array_equal(integral_couplings(a, seed1_grams.coupling),
                              np.zeros((4, 4)))
        p, g = direct_integral_check(seed1_scene, seed1_grid256, a)
        assert np.array_equal(p, np.zeros(4))
        assert np.array_equal(g, np.zeros((4, 4)))

    def test_identity_weights(self, seed1_grams):
        a = np.eye(4, dtype=complex)
        assert np.allclose(integral_power(a, seed1_grams.coupling),
                           np.diag(seed1_grams.coupling).real, rtol=1e-14)
        # identity weights recover the coupling Gram itself
        assert np.array_equal(integral_couplings(a, seed1_grams.coupling),
                              seed1_grams.coupling)

    def test_zero_column_gives_zero_column(self, seed1_grams):
        rng = np.random.default_rng(0)
        a = random_weights(rng, 4)
        a[:, 2] = 0.0
        g = integral_couplings(a, seed1_grams.coupling)
        assert np.array_equal(g[:, 2], np.zeros(4))

    def test_k1_unit_weight(self):
        scene = sample_scene(seed=4, num_users=1)
        grid = build_grid(scene.aperture, 64)
        grams = gram_pair(channel_matrix(scene, grid).h, grid.cell_area)
        p, g = direct_integral_check(scene, grid, np.ones((1, 1), dtype=complex))
        assert np.isclose(p[0], grams.coupling[0, 0].real, rtol=1e-12)
        assert np.isclose(g[0, 0], grams.coupling[0, 0], rtol=1e-12)

    def test_gram_route_matches_pointwise_oracle(self):
        # the oracle pairing: 100 random (scene, A), relative error <= 1e-10
        rng = np.random.default_rng(123)
        worst = 0.0
        for trial in range(100):
            scene = sample_scene(seed=1000 + trial, num_users=4)
            grid = build_grid(scene.aperture, 64)
            grams = gram_pair(channel_matrix(scene, grid).h, grid.cell_area)
            a = random_weights(rng, 4, scale=10.0 ** rng.uniform(-5, -3))
            p_direct, g_direct = direct_integral_check(scene, grid, a)
            p_gram = integral_power(a, grams.coupling)
            g_gram = integral_couplings(a, grams.coupling)
            worst = max(worst,
                        np.abs(p_gram - p_direct).max() / np.abs(p_direct).max(),
                        np.abs(g_gram - g_direct).max() / np.abs(g_direct).max())
        assert worst <= 1e-10

    def test_power_nonnegative_for_random_weights(self, seed1_grams):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = random_weights(rng, 4)
            assert np.all(integral_power(a, seed1_grams.coupling) >= 0.0)

    def test_power_rejects_non_hermitian(self):
        bad = np.array([[1.0, 2.0], [0.5, 1.0]], dtype=complex)
        with pytest.raises(AssertionError):
            integral_power(np.eye(2, dtype=complex), bad)

    @pytest.mark.parametrize("defect", ["none", "off_hermitian", "nan", "inf"])
    def test_hermitian_check_tolerance(self, seed1_grams, defect):
        # the check allows |C - C^H| up to 1e-12 max(1, max|C|) per entry
        c = seed1_grams.coupling.copy()
        atol = 1e-12 * max(1.0, float(np.abs(c).max()))
        if defect == "none":
            integral_power(np.eye(4, dtype=complex), c)
            return
        c[0, 1] += {"off_hermitian": 2.0 * atol, "nan": np.nan,
                    "inf": np.inf}[defect]
        with pytest.raises(AssertionError, match="not Hermitian"):
            integral_power(np.eye(4, dtype=complex), c)


def _stacked_grams(num_users, num_nodes, count=3):
    """(count, K, M) channels and their per-scene Grams on one grid."""
    scenes = [sample_scene(seed=40 + i, num_users=num_users) for i in range(count)]
    grid = build_grid(scenes[0].aperture, num_nodes)
    h = np.stack([channel_matrix(s, grid).h for s in scenes])
    return scenes, grid, h


class TestStackedForms:
    """Stacks over leading axes give each slice's own result, bit for bit."""

    @pytest.mark.parametrize("num_users,num_nodes", [(1, 16), (4, 256), (16, 1024)])
    def test_gram_powers_couplings_equal_their_slices(self, num_users, num_nodes):
        scenes, grid, h = _stacked_grams(num_users, num_nodes)
        grams = gram_pair(h, grid.cell_area).coupling
        positions = np.stack([s.positions for s in scenes])
        assert np.array_equal(coupling_grams(positions, grid, scenes[0].constants),
                              grams)
        a = random_weights(np.random.default_rng(num_users), num_users)
        a = np.stack([a, 2.0 * a, a.conj()])
        powers = integral_power(a, grams)
        couplings = integral_couplings(a, grams)
        assert powers.shape == (3, num_users)
        assert couplings.shape == (3, num_users, num_users)
        for i in range(3):
            assert grams[i].tobytes() == gram_pair(h[i], grid.cell_area).coupling.tobytes()
            assert powers[i].tobytes() == integral_power(a[i], grams[i]).tobytes()
            assert (couplings[i].tobytes()
                    == integral_couplings(a[i], grams[i]).tobytes())

    @pytest.mark.parametrize("num_users", [4, 16])
    def test_chunked_grams_equal_per_scene_grams(self, num_users):
        # enough scenes for two full chunks and a part one
        grid = build_grid(square_aperture(), 1024)
        chunk = max(1, GRAM_CHUNK_ENTRIES // (num_users * grid.num_nodes))
        scenes = [sample_scene(seed=60 + i, num_users=num_users)
                  for i in range(2 * chunk + 1)]
        grams = coupling_grams(np.stack([s.positions for s in scenes]), grid,
                               scenes[0].constants)
        for scene, c in zip(scenes, grams):
            want = gram_pair(channel_matrix(scene, grid).h, grid.cell_area).coupling
            assert c.tobytes() == want.tobytes()

    def test_one_off_hermitian_gram_in_a_stack_raises(self):
        _, grid, h = _stacked_grams(4, 256)
        grams = gram_pair(h, grid.cell_area).coupling.copy()
        # scene 0 is scaled up, so one tolerance for the whole stack would
        # pass the defect in scene 1; each Gram has its own
        grams[0] *= 1e6
        eye = np.broadcast_to(np.eye(4, dtype=complex), grams.shape)
        integral_power(eye, grams)
        atol = 1e-12 * max(1.0, float(np.abs(grams[1]).max()))
        grams[1, 0, 1] += 2.0 * atol
        with pytest.raises(AssertionError, match="not Hermitian"):
            integral_power(eye, grams)
        with pytest.raises(AssertionError, match="not Hermitian"):
            integral_power(eye[1], grams[1])
        integral_power(eye[[0, 2]], grams[[0, 2]])


class TestPowerMatchesContraction:
    @pytest.mark.parametrize("num_users,num_nodes", [(1, 16), (4, 256), (16, 256)])
    def test_within_tolerance_of_the_three_operand_form(self, num_users, num_nodes):
        # C A and a column sum in place of one K^3 contraction: another
        # summation order, so agreement to 1e-12 of each scene's largest power
        scenes, grid, h = _stacked_grams(num_users, num_nodes, count=8)
        grams = gram_pair(h, grid.cell_area).coupling
        rng = np.random.default_rng(num_users)
        a = np.stack([random_weights(rng, num_users, scale=10.0 ** rng.uniform(-5, 0))
                      for _ in scenes])
        got, want = integral_power(a, grams), plain_integral_power(a, grams)
        assert np.all(np.abs(got - want).max(axis=-1)
                      <= 1e-12 * np.abs(want).max(axis=-1))


class TestPermutationCovariance:
    def test_all_permutations_k4(self, seed1_scene, seed1_grid256, seed1_grams):
        rng = np.random.default_rng(5)
        a = random_weights(rng, 4)
        for pi in all_permutations(4):
            permuted_scene = seed1_scene.with_positions(pi.T @ seed1_scene.positions)
            grams_p = gram_pair(channel_matrix(permuted_scene, seed1_grid256).h,
                                seed1_grid256.cell_area)
            assert np.allclose(grams_p.coupling, pi.T @ seed1_grams.coupling @ pi,
                               rtol=1e-12, atol=0)
            a_p = pi.T @ a @ pi
            assert np.allclose(integral_power(a_p, grams_p.coupling),
                               pi.T @ integral_power(a, seed1_grams.coupling),
                               rtol=1e-12)
            assert np.allclose(integral_couplings(a_p, grams_p.coupling),
                               pi.T @ integral_couplings(a, seed1_grams.coupling) @ pi,
                               rtol=1e-12)


class TestConvergence:
    def test_midpoint_second_order_on_smooth_function(self):
        # exact integral of x^2 z^2 over [-1, 1]^2 is 4/9
        ap = square_aperture(4.0)
        fn = lambda pts: pts[:, 0] ** 2 * pts[:, 2] ** 2
        errors = []
        for m in (64, 256, 1024):
            grid = build_grid(ap, m)
            approx = np.sum(fn(grid.nodes)) * grid.cell_area
            errors.append(abs(approx - 4.0 / 9.0))
        assert errors[-1] < 1e-3
        ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
        assert all(3.0 < r < 5.0 for r in ratios)

    def test_coupling_diagonal_converges_bilinear_drifts(self, seed1_scene):
        def coupling_diag(m):
            grid = build_grid(seed1_scene.aperture, m)
            gram = gram_pair(channel_matrix(seed1_scene, grid).h, grid.cell_area)
            return np.diag(gram.coupling).real

        c_lo, c_hi = coupling_diag(256), coupling_diag(4096)
        assert np.all(np.abs(c_lo - c_hi) / c_hi < 0.02)

        def unconjugated_diag(m):
            grid = build_grid(seed1_scene.aperture, m)
            h = channel_matrix(seed1_scene, grid).h
            return np.abs(np.sum(h ** 2, axis=1)) * grid.cell_area

        # oscillatory integrand: the unconjugated sum_m H_k^2 delta keeps
        # shrinking under refinement
        assert np.median(unconjugated_diag(4096) / unconjugated_diag(256)) < 0.5
