from dataclasses import replace

import numpy as np
import pytest

from conftest import cpu_dispatch_targets
from oracles import plain_los_channels
from lcapa.quadrature import ApertureGrid, build_grid
from lcapa.scene import (
    DEFAULT_WAVELENGTH,
    USER_ANGLE_MAX,
    USER_ANGLE_MIN,
    USER_R_MAX,
    USER_R_MIN,
    ApertureSpec,
    PhysicalConstants,
    Scene,
    SceneGeometryError,
    channel_response,
    default_user_aperture,
    los_channels,
    noise_variance,
    sample_scene,
    spherical_to_cartesian,
    square_aperture,
)

# sample_scene(seed=1, num_users=4), frozen once as the golden instance
GOLDEN_SEED1_POSITIONS = np.array([
    [17.689789852782376, 12.078374410216833, 13.11903174789209],
    [13.741518552705582, 12.680216649500688, 22.799915126983507],
    [13.096830020702228, 13.795300185428395, 20.922546023671153],
    [11.160606266270893, 11.615547360757988, 12.313387959808816],
])


def _reference_sample_scene(seed, num_users):
    """Positions from the one-user-at-a-time loop that sample_scene replaced."""
    rng = np.random.default_rng(seed)
    positions = np.empty((num_users, 3))
    for k in range(num_users):
        r = rng.uniform(20.0, 30.0)
        th = rng.uniform(np.pi / 6, np.pi / 3)
        ph = rng.uniform(np.pi / 6, np.pi / 3)
        positions[k] = spherical_to_cartesian(r, th, ph)
    return positions


def _assert_sampler_matches_reference(cases):
    """Bit-identical positions on every (seed, K)."""
    for seed, k in cases:
        got = sample_scene(seed, k).positions
        assert np.array_equal(got, _reference_sample_scene(seed, k)), (seed, k)


_DEFAULT_CASES = [(seed, k) for k in (1, 3, 4, 16) for seed in range(300)]


def _assert_every_tenth_case_matches():
    _assert_sampler_matches_reference(_DEFAULT_CASES[::10])


def _reference_channel_response(scene, k, points):
    """The channel kernel as first written: every real factor promoted to
    complex, the distance from ``np.linalg.norm`` and the obliquity from a
    BLAS dot product with the normal."""
    pts = np.asarray(points, dtype=float)
    squeeze = pts.ndim == 1
    pts = np.atleast_2d(pts)
    s_k = scene.positions[k]
    diff = s_k[None, :] - pts
    dist = np.linalg.norm(diff, axis=1)
    if np.any(dist <= 0.0):
        raise SceneGeometryError(f"user {k} coincides with an evaluation point")
    normal = np.asarray(scene.aperture.normal, dtype=float)
    cos_dep = (diff @ normal) / dist
    if np.any(cos_dep <= 0.0):
        raise SceneGeometryError(
            f"user {k} is not in front of the aperture at some evaluation point")
    k0 = scene.constants.wavenumber
    eta = scene.constants.impedance
    kd = k0 * dist
    correction = 1.0 + 1j / kd - 1.0 / kd ** 2
    h = (np.sqrt(cos_dep)
         * (1j * k0 * eta * np.exp(-1j * kd) / (4.0 * np.pi * dist))
         * correction)
    return h[0] if squeeze else h


# Axis-aligned apertures: the default +y normal, a +x normal (x > 0 in the
# user box), and a -z normal, whose users are sampled ones with z negated.
_AXIS_APERTURES = {
    "+y": square_aperture(),
    "+x": square_aperture(normal=(1.0, 0.0, 0.0)),
    "-z": square_aperture(normal=(0.0, 0.0, -1.0)),
}


def _aperture_scene(apertures, name, seed, num_users):
    """The scene sample_scene draws for the named aperture; for -z, the
    default scene's users mirrored through the x-y plane."""
    aperture = apertures[name]
    if name != "-z":
        return sample_scene(seed, num_users, aperture=aperture)
    scene = sample_scene(seed, num_users)
    return replace(scene, aperture=aperture,
                   positions=scene.positions * [1.0, 1.0, -1.0])
_KERNEL_CASES = [(seed, k) for k in (1, 4, 16) for seed in range(3000, 3200)]
_KERNEL_GRIDS = (16, 256, 1024)


def _assert_kernel_matches_reference(cases, apertures=("+y",)):
    """Bit-identical channels on every user, grid node and single point."""
    for name in apertures:
        grids = [build_grid(_AXIS_APERTURES[name], m).nodes for m in _KERNEL_GRIDS]
        for seed, num_users in cases:
            scene = _aperture_scene(_AXIS_APERTURES, name, seed, num_users)
            for k in range(num_users):
                for nodes in grids:
                    got = channel_response(scene, k, nodes)
                    want = _reference_channel_response(scene, k, nodes)
                    assert np.array_equal(got, want), (name, seed, num_users, k)
                point = grids[0][seed % len(grids[0])]
                got = channel_response(scene, k, point)
                assert np.ndim(got) == 0
                assert got == _reference_channel_response(scene, k, point), (
                    name, seed, num_users, k)


def _assert_every_tenth_kernel_case_matches():
    _assert_kernel_matches_reference(_KERNEL_CASES[::10], tuple(_AXIS_APERTURES))


class TestSphericalToCartesian:
    def test_axis_case(self):
        assert np.allclose(spherical_to_cartesian(10, np.pi / 2, 0.0),
                           [10.0, 0.0, 0.0], atol=1e-12)

    def test_pole_case(self):
        assert np.allclose(spherical_to_cartesian(10, 0.0, 1.2345),
                           [0.0, 0.0, 10.0], atol=1e-12)

    def test_oblique_case(self):
        out = spherical_to_cartesian(25, np.pi / 4, np.pi / 4)
        # direct trigonometric evaluation: 25 sin(pi/4) cos(pi/4) = 12.5
        assert np.allclose(out, [12.5, 12.5, 25 * np.cos(np.pi / 4)], atol=1e-12)
        assert np.isclose(np.linalg.norm(out), 25.0, atol=1e-12)

    @pytest.mark.parametrize("r,theta,phi", [
        (0.0, 1.0, 1.0),
        (-3.0, 1.0, 1.0),
        (1.0, -0.1, 1.0),
        (1.0, np.pi + 0.1, 1.0),
        (1.0, 1.0, -0.1),
        (1.0, 1.0, 2 * np.pi),
        (np.nan, 1.0, 1.0),
        (np.inf, 1.0, 1.0),
        (1.0, np.nan, 1.0),
        (1.0, 1.0, np.nan),
    ])
    def test_domain_rejected(self, r, theta, phi):
        with pytest.raises(ValueError):
            spherical_to_cartesian(r, theta, phi)


class TestNoiseVariance:
    def test_inversion_identity(self):
        c = PhysicalConstants()
        ak = default_user_aperture(c)
        zeta_star = ak * c.wavenumber ** 2 * c.impedance ** 2 / (4 * np.pi)
        assert np.isclose(noise_variance(zeta_star, c, ak), 1.0, rtol=1e-12)

    def test_frozen_value_at_60db(self):
        # with |A_k| = lambda^2/(4 pi) the formula reduces to eta^2 / (4 zeta)
        c = PhysicalConstants(0.0107)
        ak = c.wavelength ** 2 / (4 * np.pi)
        got = noise_variance(1e6, c, ak)
        assert np.isclose(got, (120 * np.pi) ** 2 / 4e6, rtol=1e-12)
        assert np.isclose(got, 0.03553057584392169, rtol=1e-12)

    def test_proportionality(self):
        c = PhysicalConstants()
        ak = default_user_aperture(c)
        assert np.isclose(noise_variance(2e5, c, ak),
                          noise_variance(1e5, c, ak) / 2, rtol=1e-12)

    def test_rejects_nonpositive_zeta(self):
        c = PhysicalConstants()
        with pytest.raises(ValueError):
            noise_variance(0.0, c, 1e-5)

    @pytest.mark.parametrize("zeta,user_aperture", [
        (np.nan, 1e-5), (np.inf, 1e-5), (1e6, np.nan), (1e6, 0.0)])
    def test_rejects_non_finite_inputs(self, zeta, user_aperture):
        c = PhysicalConstants()
        with pytest.raises(ValueError):
            noise_variance(zeta, c, user_aperture)


class TestInputValidation:
    """Bad scene inputs raise ValueError instead of building NaN or inf."""

    def test_nan_zeta(self):
        with pytest.raises(ValueError, match="zeta"):
            sample_scene(1, 4, zeta=np.nan)

    def test_inf_zeta(self):
        with pytest.raises(ValueError, match="zeta"):
            sample_scene(1, 4, zeta=np.inf)

    def test_nan_wavelength(self):
        with pytest.raises(ValueError, match="wavelength"):
            sample_scene(1, 4, wavelength=np.nan)

    def test_negative_power_budget(self):
        with pytest.raises(ValueError, match="power_budget"):
            sample_scene(1, 4, power_budget=-1.0)

    def test_nan_power_budget(self):
        with pytest.raises(ValueError, match="power_budget"):
            sample_scene(1, 4, power_budget=np.nan)

    @pytest.mark.parametrize("field", ["wavelength", "impedance"])
    def test_constants_must_be_finite(self, field):
        kwargs = dict(wavelength=DEFAULT_WAVELENGTH, impedance=120.0 * np.pi)
        kwargs[field] = np.inf
        with pytest.raises(ValueError, match=field):
            PhysicalConstants(**kwargs)

    def test_subnormal_wavelength_overflows_the_wavenumber(self):
        with pytest.raises(ValueError, match="wavenumber"):
            PhysicalConstants(wavelength=5e-324)

    def test_subnormal_zeta_overflows_the_noise_variance(self):
        with pytest.raises(ValueError, match="noise variance"):
            sample_scene(1, 2, zeta=5e-324)

    def test_derived_values_are_not_inputs(self):
        # a wavenumber or noise variance handed in could disagree with the
        # inputs that fix it; the records derive them instead
        with pytest.raises(TypeError, match="wavenumber"):
            PhysicalConstants(wavelength=DEFAULT_WAVELENGTH, wavenumber=587.0)
        s = sample_scene(seed=1, num_users=2)
        with pytest.raises(TypeError, match="noise_var"):
            Scene(aperture=s.aperture, constants=s.constants, positions=s.positions,
                  user_aperture=s.user_aperture, noise_var=s.noise_var,
                  power_budget=1.0, snr_zeta=s.snr_zeta)
        c = PhysicalConstants()
        assert c.wavelength == DEFAULT_WAVELENGTH
        assert c.wavenumber == 2.0 * np.pi / DEFAULT_WAVELENGTH
        assert s.noise_var == noise_variance(s.snr_zeta, s.constants, s.user_aperture)

    def test_scene_rejects_nan_noise_and_positions(self):
        s = sample_scene(seed=1, num_users=2)
        with pytest.raises(ValueError, match="zeta"):
            Scene(aperture=s.aperture, constants=s.constants, positions=s.positions,
                  user_aperture=s.user_aperture, power_budget=1.0,
                  snr_zeta=np.nan)
        bad = s.positions.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            s.with_positions(bad)


class TestSampleScene:
    def test_deterministic(self):
        a = sample_scene(seed=7, num_users=3)
        b = sample_scene(seed=7, num_users=3)
        assert np.array_equal(a.positions, b.positions)
        assert a.noise_var == b.noise_var

    def test_golden_seed1(self):
        s = sample_scene(seed=1, num_users=4)
        assert np.array_equal(s.positions, GOLDEN_SEED1_POSITIONS)

    def test_bounds_hold_in_bulk(self):
        pos = np.concatenate([sample_scene(seed=s, num_users=10).positions
                              for s in range(1000)])
        r = np.linalg.norm(pos, axis=1)
        assert np.all((r > USER_R_MIN) & (r < USER_R_MAX))
        theta = np.arccos(pos[:, 2] / r)
        phi = np.arctan2(pos[:, 1], pos[:, 0])
        for angle in (theta, phi):
            assert np.all((angle > USER_ANGLE_MIN) & (angle < USER_ANGLE_MAX))
        assert np.all(pos[:, 1] > 0.0)  # strictly in front of the aperture

    def test_zero_users_rejected(self):
        with pytest.raises(ValueError):
            sample_scene(seed=1, num_users=0)

    def test_distinct_positions(self):
        s = sample_scene(seed=1, num_users=4)
        d = np.linalg.norm(s.positions[:, None] - s.positions[None, :], axis=-1)
        assert np.all(d[~np.eye(4, dtype=bool)] > 0.0)

    def test_user_behind_the_aperture_raises(self):
        # seed 3 puts user 0 at x = 7.39 m and users 1 and 2 at x > 8 m; a
        # sampler that re-draws user 0 would return a scene instead
        aperture = square_aperture(center=(8.0, 0.0, 0.0), normal=(1.0, 0.0, 0.0))
        x = sample_scene(3, 3).positions[:, 0]
        assert x[0] < 8.0 < x[1:].min()
        with pytest.raises(SceneGeometryError,
                           match="^user 0 is not strictly in front"):
            sample_scene(3, 3, aperture=aperture)

    def test_scene_invariant_rejects_user_behind(self):
        s = sample_scene(seed=1, num_users=2)
        bad = s.positions.copy()
        bad[1, 1] = -5.0
        with pytest.raises(SceneGeometryError):
            s.with_positions(bad)

    def test_default_user_aperture_value(self):
        s = sample_scene(seed=1, num_users=1)
        lam = s.constants.wavelength
        assert np.isclose(s.user_aperture, lam ** 2 / (4 * np.pi), rtol=1e-14)


class TestSamplerMatchesPerUserLoop:
    """The batched sampler against the one-user-at-a-time loop it replaced."""

    def test_default_region(self):
        _assert_sampler_matches_reference(_DEFAULT_CASES)

    @pytest.mark.skipif(not cpu_dispatch_targets(),
                        reason="numpy reports no CPU dispatch targets")
    def test_all_dispatch_targets_disabled(self, no_dispatch):
        no_dispatch("test_scene", "_assert_every_tenth_case_matches()")


class TestChannelResponse:
    def _broadside_scene(self, d=10.0):
        ap = square_aperture(4.0)
        c = PhysicalConstants(0.0107)
        ak = default_user_aperture(c)
        zeta = 1e6
        return Scene(aperture=ap, constants=c,
                     positions=np.array([[0.0, d, 0.0]]),
                     user_aperture=ak, power_budget=1.0, snr_zeta=zeta)

    def test_broadside_magnitude_and_phase(self):
        scene = self._broadside_scene(10.0)
        h = channel_response(scene, 0, np.zeros(3))
        k0 = scene.constants.wavenumber
        eta = scene.constants.impedance
        corr = 1 + 1j / (10 * k0) - 1 / (10 * k0) ** 2
        expected_mag = k0 * eta / (40 * np.pi) * abs(corr)
        assert np.isclose(abs(h), expected_mag, rtol=1e-12)
        assert abs(h) == pytest.approx(1.7618e3, rel=1e-3)
        expected_phase = (-k0 * 10 + np.pi / 2 + np.angle(corr)) % (2 * np.pi)
        assert np.isclose(np.angle(h) % (2 * np.pi), expected_phase, atol=1e-10)

    def test_far_field_inverse_distance(self):
        near = self._broadside_scene(20.0)
        far = self._broadside_scene(40.0)
        h1 = channel_response(near, 0, np.zeros(3))
        h2 = channel_response(far, 0, np.zeros(3))
        assert abs(h2) / abs(h1) == pytest.approx(0.5, rel=1e-3)

    def test_grazing_limit(self):
        scene = self._broadside_scene(10.0).with_positions(
            np.array([[30.0, 1e-3, 0.0]]))
        h = channel_response(scene, 0, np.zeros(3))
        # |H| ~ sqrt(cos of departure angle) -> 0 at grazing
        assert abs(h) < 1e-2 * abs(channel_response(
            self._broadside_scene(30.0), 0, np.zeros(3)))

    def test_monotone_decay_along_broadside(self):
        dists = np.linspace(20.0, 40.0, 50)
        mags = [abs(channel_response(self._broadside_scene(d), 0, np.zeros(3)))
                for d in dists]
        assert np.all(np.diff(mags) < 0.0)

    def test_translation_invariance(self):
        scene = sample_scene(seed=3, num_users=2)
        shift = np.array([5.0, -2.0, 3.0])
        moved = Scene(
            aperture=ApertureSpec(
                center=tuple(np.asarray(scene.aperture.center) + shift),
                normal=scene.aperture.normal,
                side_x=scene.aperture.side_x, side_z=scene.aperture.side_z),
            constants=scene.constants,
            positions=scene.positions + shift,
            user_aperture=scene.user_aperture,
            power_budget=scene.power_budget, snr_zeta=scene.snr_zeta)
        pt = np.array([0.3, 0.0, -0.2])
        h0 = channel_response(scene, 1, pt)
        h1 = channel_response(moved, 1, pt + shift)
        assert np.isclose(h0, h1, rtol=1e-12)

    def test_behind_plane_names_user(self):
        scene = sample_scene(seed=3, num_users=3)
        with pytest.raises(SceneGeometryError, match="user 2"):
            channel_response(scene, 2, scene.positions[2] + [0.0, 1.0, 0.0])

    def test_vectorized_matches_scalar(self):
        scene = sample_scene(seed=5, num_users=2)
        pts = np.array([[0.1, 0.0, 0.2], [-0.4, 0.0, 0.9]])
        vec = channel_response(scene, 0, pts)
        assert np.allclose(vec, [channel_response(scene, 0, p) for p in pts],
                           rtol=1e-15)


class TestChannelKernelMatchesReference:
    """The real-arithmetic kernel against the all-complex form it replaced."""

    def test_default_normal_bit_identical(self):
        _assert_kernel_matches_reference(_KERNEL_CASES)

    @pytest.mark.parametrize("name", ["+x", "-z"])
    def test_other_axis_normals_bit_identical(self, name):
        _assert_kernel_matches_reference(_KERNEL_CASES[::4], (name,))

    def test_tilted_normal_within_four_eps(self):
        # Only the obliquity's three-term sum may round differently from the
        # BLAS dot product; every term is positive here, so each order is
        # within about 3u of the exact sum and sqrt halves that.
        n = np.array([1.0, 2.0, 2.0]) / 3.0
        aperture = square_aperture(normal=tuple(n))
        nodes = build_grid(aperture, 256).nodes
        worst = 0.0
        for seed in range(3000, 3030):
            scene = sample_scene(seed, 16, aperture=aperture)
            for k in range(16):
                got = channel_response(scene, k, nodes)
                want = _reference_channel_response(scene, k, nodes)
                dev = np.abs(got - want) / (np.finfo(float).eps * np.abs(want))
                worst = max(worst, float(dev.max()))
        assert worst <= 4.0

    @pytest.mark.parametrize("offset", [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    def test_geometry_errors_unchanged(self, offset):
        scene = sample_scene(seed=3, num_users=3)
        points = np.stack([np.zeros(3), scene.positions[2] + offset])
        with pytest.raises(SceneGeometryError) as want:
            _reference_channel_response(scene, 2, points)
        with pytest.raises(SceneGeometryError) as got:
            channel_response(scene, 2, points)
        assert str(got.value) == str(want.value)

    @pytest.mark.skipif(not cpu_dispatch_targets(),
                        reason="numpy reports no CPU dispatch targets")
    def test_all_dispatch_targets_disabled(self, no_dispatch):
        no_dispatch("test_scene", "_assert_every_tenth_kernel_case_matches()")


def _assert_stacked_rows_match_per_user(cases):
    """Every row of a (K, 3) and an (N, K, 3) kernel call is bit-identical to
    channel_response for that user; grids include odd node counts."""
    aperture = square_aperture()
    grids = [ApertureGrid(aperture, nx, nz).nodes
             for nx, nz in ((4, 4), (3, 5), (16, 16), (7, 9))]
    for seed, num_users in cases:
        scenes = [sample_scene(seed + i, num_users) for i in range(3)]
        stack = np.stack([s.positions for s in scenes])
        for nodes in grids:
            one = los_channels(scenes[0].positions, nodes, aperture.normal,
                               scenes[0].constants)
            many = los_channels(stack, nodes, aperture.normal, scenes[0].constants)
            assert one.shape == (num_users, len(nodes))
            assert many.shape == (3, num_users, len(nodes))
            for i, scene in enumerate(scenes):
                for k in range(num_users):
                    want = channel_response(scene, k, nodes).tobytes()
                    assert many[i, k].tobytes() == want, (seed, i, k)
                    if i == 0:
                        assert one[k].tobytes() == want, (seed, k)


def _assert_every_tenth_stacked_case_matches():
    _assert_stacked_rows_match_per_user(_KERNEL_CASES[::10])


def _first_per_user_error(scene, points):
    """The message channel_response raises first, user by user, or None."""
    for k in range(scene.num_users):
        try:
            channel_response(scene, k, points)
        except SceneGeometryError as exc:
            return str(exc)
    return None


def _scene_at(positions):
    return sample_scene(seed=3, num_users=len(positions)).with_positions(positions)


class TestBroadcastKernel:
    """los_channels over leading axes against channel_response user by user."""

    def test_rows_bit_identical(self):
        _assert_stacked_rows_match_per_user(_KERNEL_CASES[::25])

    @pytest.mark.skipif(not cpu_dispatch_targets(),
                        reason="numpy reports no CPU dispatch targets")
    def test_rows_bit_identical_with_dispatch_disabled(self, no_dispatch):
        no_dispatch("test_scene", "_assert_every_tenth_stacked_case_matches()")

    @pytest.mark.parametrize("offsets", [
        [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]],    # user 1 at fault both ways
        [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]],    # the same, in the other order
        [[0.0, 1.0, 0.0]],                     # user 1 behind one point only
        [[0.0, 0.0, 0.0]],                     # user 1 on one point only
    ])
    def test_geometry_error_names_the_same_user(self, offsets):
        # users at heights 25, 20 and 22 m; only user 1 is at fault
        scene = _scene_at([[1.0, 25.0, 2.0], [0.5, 20.0, 1.0], [-1.0, 22.0, 3.0]])
        points = scene.positions[1] + np.array(offsets)
        want = _first_per_user_error(scene, points)
        assert want is not None and want.startswith("user 1 ")
        if [0.0, 0.0, 0.0] in offsets:
            assert "coincides" in want
        normal, constants = scene.aperture.normal, scene.constants
        with pytest.raises(SceneGeometryError) as got:
            los_channels(scene.positions, points, normal, constants)
        assert str(got.value) == want
        fine = scene.positions + [0.0, 10.0, 0.0]
        with pytest.raises(SceneGeometryError) as got:
            los_channels(np.stack([fine, scene.positions]), points, normal,
                         constants)
        assert str(got.value) == want.replace("user 1", "user 1 of scene (1,)")

    def test_first_faulty_user_is_named(self):
        # users 0 and 2 are behind the point, user 1 coincides with it
        scene = _scene_at([[0.0, 25.0, 0.0], [0.0, 30.0, 0.0], [0.0, 22.0, 0.0]])
        points = scene.positions[[1]]
        want = _first_per_user_error(scene, points)
        assert want.startswith("user 0 is not in front")
        with pytest.raises(SceneGeometryError) as got:
            los_channels(scene.positions, points, scene.aperture.normal,
                         scene.constants)
        assert str(got.value) == want


class TestApertureSpec:
    def test_area(self):
        ap = square_aperture(4.0)
        assert ap.area == pytest.approx(4.0, rel=1e-15)
        assert ap.side_x == pytest.approx(2.0)

    def test_unit_normal_required(self):
        with pytest.raises(ValueError):
            ApertureSpec(center=(0, 0, 0), normal=(0, 2, 0), side_x=1, side_z=1)

    def test_positive_sides_required(self):
        with pytest.raises(ValueError):
            ApertureSpec(center=(0, 0, 0), normal=(0, 1, 0), side_x=0, side_z=1)

    @pytest.mark.parametrize("center", [(np.nan, 0, 0), (0, np.inf, 0)])
    def test_non_finite_center_rejected(self, center):
        with pytest.raises(ValueError, match="center"):
            ApertureSpec(center=center, normal=(0, 1, 0), side_x=1, side_z=1)

    @pytest.mark.parametrize("normal", [(np.nan, 1, 0), (0, 1, np.nan),
                                        (0, np.inf, 0)])
    def test_non_finite_normal_rejected(self, normal):
        with pytest.raises(ValueError, match="normal"):
            ApertureSpec(center=(0, 0, 0), normal=normal, side_x=1, side_z=1)

    @pytest.mark.parametrize("sides", [(np.inf, 1.0), (1.0, np.nan),
                                       (np.nan, 1.0), (1.0, np.inf)])
    def test_non_finite_side_rejected(self, sides):
        with pytest.raises(ValueError, match="side"):
            ApertureSpec(center=(0, 0, 0), normal=(0, 1, 0), side_x=sides[0],
                         side_z=sides[1])

    def test_normal_must_have_three_components(self):
        with pytest.raises(ValueError, match="normal"):
            ApertureSpec(center=(0, 0, 0), normal=(0, 1), side_x=1, side_z=1)

    def test_in_plane_axes_orthonormal(self):
        ap = square_aperture(4.0)
        u, w = ap.in_plane_axes()
        n = np.asarray(ap.normal)
        assert np.isclose(u @ w, 0.0, atol=1e-15)
        assert np.isclose(u @ n, 0.0, atol=1e-15)
        assert np.allclose(np.cross(u, w), n, atol=1e-15)


_TILTED = square_aperture(normal=tuple(np.array([1.0, 2.0, 2.0]) / 3.0))
_PLAIN_APERTURES = dict(_AXIS_APERTURES, tilted=_TILTED)


def _assert_kernel_matches_plain(cases):
    """los_channels and channel_response give plain_los_channels' bits, for
    one scene, a stack of scenes and one point, at every normal."""
    for name, aperture in _PLAIN_APERTURES.items():
        nodes = build_grid(aperture, 256).nodes
        normal = aperture.normal
        for seed, num_users in cases:
            scenes = [_aperture_scene(_PLAIN_APERTURES, name, seed + i, num_users)
                      for i in range(2)]
            constants = scenes[0].constants
            stack = np.stack([s.positions for s in scenes])
            for positions in (scenes[0].positions, stack):
                got = los_channels(positions, nodes, normal, constants)
                want = plain_los_channels(positions, nodes, normal, constants)
                assert got.tobytes() == want.tobytes(), (name, seed, num_users)
            for k in range(num_users):
                point = nodes[(seed + 7 * k) % len(nodes)]
                want = plain_los_channels(scenes[0].positions[k], point[None],
                                          normal, constants)[0]
                got = channel_response(scenes[0], k, point)
                assert got.tobytes() == want.tobytes(), (name, seed, k)


def _assert_every_fifth_plain_case_matches():
    _assert_kernel_matches_plain(_KERNEL_CASES[::5])


def _kernel_outcome(kernel, positions, points, user=None):
    """Channel bytes, or the message of the SceneGeometryError raised instead."""
    scene = sample_scene(seed=3, num_users=1)
    try:
        return kernel(positions, points, scene.aperture.normal, scene.constants,
                      user=user).tobytes()
    except SceneGeometryError as exc:
        return str(exc)


class TestKernelMatchesPlain:
    """The tuned channel kernel against its plain form in ``tests/oracles.py``."""

    def test_bit_identical(self):
        _assert_kernel_matches_plain(_KERNEL_CASES[::20])

    @pytest.mark.skipif(not cpu_dispatch_targets(),
                        reason="numpy reports no CPU dispatch targets")
    def test_bit_identical_with_dispatch_disabled(self, no_dispatch):
        no_dispatch("test_scene", "_assert_every_fifth_plain_case_matches()")

    @pytest.mark.parametrize("positions,user", [
        ([[0.5, 20.0, 1.0]], 2),                              # on a point
        ([[0.5, 25.0, 1.0], [0.5, 19.0, 1.0]], None),         # user 1 behind
        ([[np.nan, 20.0, 1.0], [0.5, 20.0, 1.0]], None),      # NaN, then on
        ([[np.nan, 20.0, 1.0], [0.5, 19.0, 1.0]], None),      # NaN, then behind
        ([[[0.5, 30.0, 1.0]], [[0.5, 19.5, 1.0]]], None),     # scene 1 behind
    ], ids=["near", "behind", "nan-then-near", "nan-then-behind", "stacked"])
    def test_same_geometry_error(self, positions, user):
        points = np.array([[0.0, 0.0, 0.0], [0.5, 20.0, 1.0]])
        pos = np.array(positions)
        if user is not None:
            pos = pos[0]
        want = _kernel_outcome(plain_los_channels, pos, points, user)
        assert isinstance(want, str)
        assert _kernel_outcome(los_channels, pos, points, user) == want

    def test_nan_position_gives_the_same_channels(self):
        # a NaN is not a geometry fault: the channels come out NaN, as before
        points = build_grid(square_aperture(), 16).nodes
        pos = np.array([[np.nan, 20.0, 1.0], [0.5, 20.0, 1.0]])
        want = _kernel_outcome(plain_los_channels, pos, points)
        assert isinstance(want, bytes)
        assert _kernel_outcome(los_channels, pos, points) == want
