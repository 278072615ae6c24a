"""Problem instances: aperture geometry, user placement, and the LoS channel.

A :class:`Scene` bundles everything a single problem instance needs: the
transmit aperture, physical constants, user positions, the shared user
aperture size, the SNR knob zeta, and the power budget.  Records take only
their inputs and derive the wavenumber and the noise variance from them.
All functions here are pure and operate on immutable inputs, so they are
safe to call from any number of workers.

Sampling contract of :func:`sample_scene`: one generator,
``numpy.random.default_rng(seed)``, supplies every draw, as one
``rng.uniform(low, high, size=(K, 3))`` call in the fixed (r, theta, phi)
box of the module constants; row k is user k.  A user that lands not
strictly in front of the aperture raises :class:`SceneGeometryError` naming
the first such user; nothing is re-drawn.  No aperture facing +y from the
origin can see this, as y >= 20 sin^2(pi/6) = 5 m in the box.  Scene inputs
that are not finite, or not positive where they must be, raise
``ValueError``.

Channel contract: :func:`los_channels` holds the one body of the channel
arithmetic and maps (..., 3) user positions to (..., P) channels at P
points, broadcasting over any leading axes.  It applies the same operations
in the same order whatever the leading axes are, so every user's channel is
bit-identical to :func:`channel_response` for that user alone, which is a
thin call into it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

FREE_SPACE_IMPEDANCE = 120.0 * np.pi

# Simulation defaults: 2 m x 2 m aperture in the x-z plane, normal +y,
# wavelength 1.07 cm.
DEFAULT_WAVELENGTH = 0.0107
DEFAULT_APERTURE_AREA = 4.0
DEFAULT_NORMAL = (0.0, 1.0, 0.0)

# The user box of sample_scene: radius in m, and the polar and azimuth
# angles, which share one range.
USER_R_MIN, USER_R_MAX = 20.0, 30.0
USER_ANGLE_MIN, USER_ANGLE_MAX = np.pi / 6, np.pi / 3
_BOX_LOW = (USER_R_MIN, USER_ANGLE_MIN, USER_ANGLE_MIN)
_BOX_HIGH = (USER_R_MAX, USER_ANGLE_MAX, USER_ANGLE_MAX)


class SceneGeometryError(ValueError):
    """Raised when geometry violates the in-front-of-aperture requirement."""


def _require_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is finite and > 0."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class PhysicalConstants:
    """Wavelength and free-space impedance, and the wavenumber they fix.

    ``wavenumber`` is derived once, as k0 = 2 pi / wavelength.  All three
    must be positive and finite (a subnormal wavelength overflows k0).
    """

    wavelength: float = DEFAULT_WAVELENGTH
    impedance: float = FREE_SPACE_IMPEDANCE
    wavenumber: float = field(init=False)

    def __post_init__(self):
        _require_positive("wavelength", self.wavelength)
        _require_positive("impedance", self.impedance)
        wavenumber = 2.0 * np.pi / self.wavelength
        _require_positive("wavenumber", wavenumber)
        object.__setattr__(self, "wavenumber", wavenumber)


@dataclass(frozen=True)
class ApertureSpec:
    """Planar rectangular transmit aperture.

    The rectangle is centered at ``center`` with unit normal ``normal`` and
    side lengths ``side_x`` / ``side_z`` along the two in-plane axes returned
    by :meth:`in_plane_axes`.  The center and normal must have three finite
    components and the sides must be positive and finite; anything else
    raises ``ValueError``.
    """

    center: tuple[float, float, float]
    normal: tuple[float, float, float]
    side_x: float
    side_z: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        for name, v in (("center", np.asarray(self.center, dtype=float)),
                        ("normal", n)):
            if v.shape != (3,) or not np.isfinite(v).all():
                raise ValueError(f"aperture {name} must be 3 finite components, "
                                 f"got {getattr(self, name)!r}")
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise ValueError("aperture normal must be a unit vector")
        _require_positive("aperture side_x", self.side_x)
        _require_positive("aperture side_z", self.side_z)

    @property
    def area(self) -> float:
        return self.side_x * self.side_z

    def in_plane_axes(self) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic orthonormal in-plane axes (u, w) with u x w = normal."""
        n = np.asarray(self.normal, dtype=float)
        # Seed with the global axis least aligned with the normal.
        seed = np.zeros(3)
        seed[int(np.argmin(np.abs(n)))] = 1.0
        u = seed - np.dot(seed, n) * n
        u /= np.linalg.norm(u)
        w = np.cross(n, u)
        return u, w


def square_aperture(area: float = DEFAULT_APERTURE_AREA,
                    center: tuple[float, float, float] = (0.0, 0.0, 0.0),
                    normal: tuple[float, float, float] = DEFAULT_NORMAL) -> ApertureSpec:
    """Square aperture of the given area (side = sqrt(area))."""
    side = float(np.sqrt(area))
    return ApertureSpec(center=tuple(center), normal=tuple(normal),
                        side_x=side, side_z=side)


# One shared PhysicalConstants per wavelength; it is immutable.
_constants_for = functools.lru_cache(maxsize=16)(PhysicalConstants)


@dataclass(frozen=True, eq=False)
class Scene:
    """One problem instance.

    ``positions`` is a (K, 3) array of user aperture centers in meters;
    ``user_aperture`` is the shared user aperture size |A_k| in m^2.  The
    shared noise variance sigma_0^2 in watts, ``noise_var``, is derived once
    from ``snr_zeta``: sigma_0^2 = |A_k| k0^2 eta^2 / (4 pi zeta)
    (:func:`noise_variance`).  Positions must be finite; the aperture size,
    power budget, zeta and the noise variance positive and finite.  Scenes
    compare and hash by identity.
    """

    aperture: ApertureSpec
    constants: PhysicalConstants
    positions: np.ndarray
    user_aperture: float
    power_budget: float
    snr_zeta: float
    noise_var: float = field(init=False)

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise ValueError("positions must be a (K, 3) array with K >= 1")
        if not np.isfinite(pos).all():
            raise ValueError("positions must be finite")
        _require_positive("power_budget", self.power_budget)
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "noise_var", noise_variance(
            self.snr_zeta, self.constants, self.user_aperture))
        normal = np.asarray(self.aperture.normal, dtype=float)
        center = np.asarray(self.aperture.center, dtype=float)
        heights = (pos - center) @ normal
        if np.any(heights <= 0.0):
            bad = int(np.argmax(heights <= 0.0))
            raise SceneGeometryError(
                f"user {bad} is not strictly in front of the aperture plane")

    @property
    def num_users(self) -> int:
        return self.positions.shape[0]

    def noise_vars(self) -> np.ndarray:
        return np.full(self.num_users, self.noise_var)

    def user_apertures(self) -> np.ndarray:
        return np.full(self.num_users, self.user_aperture)

    def with_positions(self, positions: np.ndarray) -> "Scene":
        return replace(self, positions=np.array(positions, dtype=float))


def spherical_to_cartesian(r: float, theta: float, phi: float) -> np.ndarray:
    """Physics-convention spherical to Cartesian conversion.

    ``theta`` is the polar angle from +z and ``phi`` the azimuth from +x in
    the x-y plane.  Accepts scalars or broadcastable arrays; the domain is
    r > 0 and finite, theta in [0, pi], phi in [0, 2*pi), and a NaN anywhere
    raises ``ValueError``.
    """
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if not ((r > 0.0) & (r < np.inf)).all():
        raise ValueError("radius must be positive and finite")
    if not ((theta >= 0.0) & (theta <= np.pi)).all():
        raise ValueError("polar angle must lie in [0, pi]")
    if not ((phi >= 0.0) & (phi < 2.0 * np.pi)).all():
        raise ValueError("azimuth must lie in [0, 2*pi)")
    return _to_cartesian(r, theta, phi)


def _to_cartesian(r: np.ndarray, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The arithmetic of :func:`spherical_to_cartesian`, without its checks."""
    st = np.sin(theta)
    return np.stack([r * st * np.cos(phi), r * st * np.sin(phi), r * np.cos(theta)],
                    axis=-1)


def noise_variance(zeta: float, constants: PhysicalConstants,
                   user_aperture: float) -> float:
    """Noise power sigma_0^2 implied by the SNR knob zeta.

    zeta is defined as |A_k| k0^2 eta^2 / (4 pi sigma_0^2), so
    sigma_0^2 = |A_k| k0^2 eta^2 / (4 pi zeta).  Both ``zeta`` and
    ``user_aperture`` must be positive and finite, and so must the result
    (a subnormal zeta overflows it).
    """
    _require_positive("zeta", zeta)
    _require_positive("user_aperture", user_aperture)
    noise = (user_aperture * constants.wavenumber ** 2 * constants.impedance ** 2
             / (4.0 * np.pi * zeta))
    _require_positive("noise variance", noise)
    return noise


def default_user_aperture(constants: PhysicalConstants) -> float:
    """Shared per-user aperture size |A_k| = lambda^2 / (4 pi)."""
    return constants.wavelength ** 2 / (4.0 * np.pi)


def sample_scene(seed: int, num_users: int,
                 aperture: ApertureSpec | None = None,
                 zeta: float = 1e6,
                 power_budget: float = 1.0,
                 wavelength: float = DEFAULT_WAVELENGTH) -> Scene:
    """Draw a scene with users uniform in the spherical-coordinate box.

    Deterministic in ``seed``: one ``rng.uniform`` call draws every user's
    (r, theta, phi) in the box of the module constants, converted with the
    arithmetic of :func:`spherical_to_cartesian` (its domain checks are
    skipped: the box lies inside the domain).  A user not in front of the
    aperture raises :class:`SceneGeometryError`, as :class:`Scene` does.
    """
    if num_users < 1:
        raise ValueError("num_users must be >= 1")
    constants = _constants_for(float(wavelength))
    rng = np.random.default_rng(seed)
    r, theta, phi = rng.uniform(_BOX_LOW, _BOX_HIGH, size=(num_users, 3)).T
    return Scene(aperture=aperture or square_aperture(), constants=constants,
                 positions=_to_cartesian(r, theta, phi),
                 user_aperture=default_user_aperture(constants),
                 power_budget=power_budget, snr_zeta=zeta)


def los_channels(positions: np.ndarray, points: np.ndarray,
                 normal: tuple[float, float, float],
                 constants: PhysicalConstants, *,
                 user: int | None = None) -> np.ndarray:
    """Line-of-sight channel responses of a stack of users at aperture points.

    Parameters
    ----------
    positions : (..., 3) array
        User positions; any leading axes, e.g. (K, 3) for one scene's users
        or (N, K, 3) for a pool of scenes.
    points : (P, 3) array
        Evaluation points on (or near) the aperture plane.
    normal : unit aperture normal
    constants : PhysicalConstants
        Supplies the wavenumber k0 and impedance eta.
    user : int, optional
        The index a single (3,) position goes by in error messages.

    Returns
    -------
    (..., P) complex array: entry [..., p] is the channel of the user at
    ``positions[...]`` sampled at ``points[p]``.

    This is the one body of the channel arithmetic, which
    :func:`channel_response` calls user by user.  Every operation is
    element-wise and broadcast over the leading axes, with the same
    operations in the same order whatever they are, so each user's row is
    bit-identical to the row of that user alone.  See
    :func:`channel_response` for the formula and its arithmetic contract.

    A user that coincides with an evaluation point, or is not in front of
    the aperture at one, raises :class:`SceneGeometryError` naming the first
    such user in C order over the leading axes: ``user k`` for index k on
    the last leading axis, followed by ``of scene (i, ...)`` for the axes
    before it.  A user at fault both ways is named for coinciding, the check
    that :func:`channel_response` makes first.
    """
    pos = np.asarray(positions, dtype=float)
    pts = np.asarray(points, dtype=float)
    dx = pos[..., 0, None] - pts[:, 0]
    dy = pos[..., 1, None] - pts[:, 1]
    dz = pos[..., 2, None] - pts[:, 2]
    # every real intermediate below reuses one of five (..., P) buffers; the
    # operations on each value are those of the formula, in its order
    dist = dx * dx
    tmp = dy * dy
    dist += tmp
    np.multiply(dz, dz, out=tmp)
    dist += tmp
    np.sqrt(dist, out=dist)
    n0, n1, n2 = normal
    # one reduction per check; a NaN fails the gate too, so the exact
    # element-wise check decides, and a NaN is no fault
    if not np.minimum.reduce(dist, axis=None, initial=math.inf) > 0.0:
        near = dist <= 0.0
        if near.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                behind = (dx * n0 + dy * n1 + dz * n2) / dist <= 0.0
            raise _first_geometry_fault(near, behind, user)
    cos_dep = np.multiply(dx, n0, out=dx)
    np.multiply(dy, n1, out=tmp)
    cos_dep += tmp
    np.multiply(dz, n2, out=tmp)
    cos_dep += tmp
    cos_dep /= dist
    if not np.minimum.reduce(cos_dep, axis=None, initial=math.inf) > 0.0:
        behind = cos_dep <= 0.0
        if behind.any():
            raise _first_geometry_fault(dist <= 0.0, behind, user)
    k0 = constants.wavenumber
    eta = constants.impedance
    kd = np.multiply(k0, dist, out=dy)
    correction = np.empty(kd.shape, dtype=complex)
    np.multiply(kd, kd, out=tmp)
    np.divide(1.0, tmp, out=tmp)
    np.subtract(1.0, tmp, out=correction.real)
    np.divide(1.0, kd, out=correction.imag)
    # exp(-j k0 d) from the exponent (0 kd, -1 kd), which has the bits of
    # -1j * kd also where kd is not finite
    wave = np.empty(kd.shape, dtype=complex)
    np.multiply(kd, 0.0, out=wave.real)
    np.multiply(kd, -1.0, out=wave.imag)
    np.exp(wave, out=wave)
    h = 1j * k0 * eta * wave
    re, im = h.real, h.imag     # views: scaling them scales h in place
    scale = np.multiply(4.0 * np.pi, dist, out=tmp)
    np.divide(1.0, scale, out=scale)
    re *= scale
    im *= scale
    scale = np.sqrt(cos_dep, out=cos_dep)
    re *= scale
    im *= scale
    # out of place, as numpy's in-place complex product of a single element
    # takes a loop that can round differently
    return h * correction


def _first_geometry_fault(near: np.ndarray, behind: np.ndarray,
                          user: int | None) -> SceneGeometryError:
    """The error naming the first user, in C order, with a geometry fault."""
    fault = (near | behind).any(axis=-1)
    index = np.unravel_index(int(np.argmax(fault)), fault.shape)
    if not index:
        name = f"user {user}"
    else:
        name = f"user {index[-1]}"
        if len(index) > 1:
            name += f" of scene {tuple(int(i) for i in index[:-1])}"
    if near[index].any():
        return SceneGeometryError(f"{name} coincides with an evaluation point")
    return SceneGeometryError(
        f"{name} is not in front of the aperture at some evaluation point")


def channel_response(scene: Scene, k: int, points: np.ndarray) -> np.ndarray:
    """Line-of-sight channel response H_k at aperture points.

    Parameters
    ----------
    scene : Scene
    k : int
        User index.
    points : (3,) or (N, 3) array
        Evaluation points on (or near) the aperture plane.

    Returns
    -------
    complex scalar or (N,) complex array

    The response combines the projected-aperture obliquity factor
    sqrt(e_r.(s_k - r)/||r - s_k||), the spherical-wave kernel
    j k0 eta exp(-j k0 d) / (4 pi d), and the near-field correction
    (1 + j/(k0 d) - 1/(k0 d)^2).  It is computed by :func:`los_channels`
    for the one position ``scene.positions[k]``; that kernel broadcasts the
    same operations, in the same order, over any leading axes of positions,
    so a stacked call gives every user bit-identically the row this
    function gives it.

    Arithmetic contract: every real quantity stays real.  With
    (dx, dy, dz) = s_k - r, the distance is sqrt((dx dx + dy dy) + dz dz)
    and the obliquity (dx n0 + dy n1 + dz n2) / d, each summed in that fixed
    order.  The correction is written as its real part 1 - 1/(k0 d)^2 and
    its imaginary part 1/(k0 d).  The wave (j k0 eta) exp(-j k0 d) is scaled
    component-wise by 1/(4 pi d) and then by sqrt(cos_dep), which is what a
    complex division and product by a real compute (Smith's rule rounds
    x / y to x * (1/y) when y is real).  The product with j k0 eta is
    component-wise too, as its real part is an exact zero, so the one
    genuine complex product is the one with the correction.  The result is
    therefore bit-identical to evaluating the formula with every real factor
    promoted to complex and the obliquity as a BLAS dot product whenever
    that dot product is exact, as it is for an axis-aligned normal; for a
    tilted normal the two differ only by the rounding of that three-term sum.
    """
    pts = np.asarray(points, dtype=float)
    squeeze = pts.ndim == 1
    h = los_channels(scene.positions[k], pts[None] if squeeze else pts,
                     scene.aperture.normal, scene.constants, user=k)
    return h[0] if squeeze else h
