"""Problem instances: aperture geometry, user placement, and the LoS channel.

A :class:`Scene` bundles everything a single problem instance needs: the
transmit aperture, physical constants, user positions, the shared user
aperture size, the noise variance, and the power budget.  All functions here
are pure and operate on immutable inputs, so they are safe to call from any
number of workers.

Sampling contract of :func:`sample_scene`: one generator,
``numpy.random.default_rng(seed)``, supplies every draw.  Its stream is read
as consecutive (r, theta, phi) triples; a triple is accepted when its point
lies strictly in front of the aperture plane, and accepted triples become
users 0, 1, ... in stream order.  Users are drawn in batches, but the stream
is consumed in exactly this order, so the positions are bit-identical to
placing one user at a time.  A user that sees ``MAX_DRAWS_PER_USER`` (1000)
consecutive rejected triples raises :class:`SceneGeometryError` naming that
user.  Scene inputs that are not finite, or not positive where they must be,
raise ``ValueError``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

FREE_SPACE_IMPEDANCE = 120.0 * np.pi

# Simulation defaults: 2 m x 2 m aperture in the x-z plane, normal +y,
# wavelength 1.07 cm, users in a 20-30 m spherical-coordinate box.
DEFAULT_WAVELENGTH = 0.0107
DEFAULT_APERTURE_AREA = 4.0
DEFAULT_NORMAL = (0.0, 1.0, 0.0)

# Consecutive rejected draws after which sample_scene gives up on a user.
MAX_DRAWS_PER_USER = 1000


class SceneGeometryError(ValueError):
    """Raised when geometry violates the in-front-of-aperture requirement."""


def _require_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is finite and > 0."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class PhysicalConstants:
    """Wavelength, wavenumber, and free-space impedance.

    The wavenumber is derived from the wavelength; construction verifies
    ``k0 * wavelength == 2*pi`` to 1e-9.  All three must be positive and
    finite.
    """

    wavelength: float
    wavenumber: float
    impedance: float = FREE_SPACE_IMPEDANCE

    def __post_init__(self):
        _require_positive("wavelength", self.wavelength)
        _require_positive("wavenumber", self.wavenumber)
        _require_positive("impedance", self.impedance)
        if abs(self.wavenumber * self.wavelength - 2.0 * np.pi) > 1e-9:
            raise ValueError("wavenumber is inconsistent with wavelength")

    @classmethod
    def from_wavelength(cls, wavelength: float = DEFAULT_WAVELENGTH,
                        impedance: float = FREE_SPACE_IMPEDANCE) -> "PhysicalConstants":
        return cls(wavelength=wavelength, wavenumber=2.0 * np.pi / wavelength,
                   impedance=impedance)


@dataclass(frozen=True)
class ApertureSpec:
    """Planar rectangular transmit aperture.

    The rectangle is centered at ``center`` with unit normal ``normal`` and
    side lengths ``side_x`` / ``side_z`` along the two in-plane axes returned
    by :meth:`in_plane_axes`.
    """

    center: tuple[float, float, float]
    normal: tuple[float, float, float]
    side_x: float
    side_z: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise ValueError("aperture normal must be a unit vector")
        if self.side_x <= 0.0 or self.side_z <= 0.0:
            raise ValueError("aperture side lengths must be positive")

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


@dataclass(frozen=True)
class Region:
    """Spherical-coordinate sampling box for user positions.

    Every bound is finite, so a uniform draw in the box is finite too.
    """

    r_min: float = 20.0
    r_max: float = 30.0
    theta_min: float = np.pi / 6
    theta_max: float = np.pi / 3
    phi_min: float = np.pi / 6
    phi_max: float = np.pi / 3

    def __post_init__(self):
        if not (0.0 < self.r_min < self.r_max < math.inf):
            raise ValueError("require 0 < r_min < r_max < inf")
        if not (0.0 <= self.theta_min < self.theta_max <= np.pi):
            raise ValueError("theta bounds must satisfy 0 <= min < max <= pi")
        if not (0.0 <= self.phi_min < self.phi_max < 2.0 * np.pi):
            raise ValueError("phi bounds must satisfy 0 <= min < max < 2*pi")


@dataclass(frozen=True)
class Scene:
    """One problem instance.

    ``positions`` is a (K, 3) array of user aperture centers in meters;
    ``user_aperture`` is the shared user aperture size |A_k| in m^2;
    ``noise_variance`` is the shared sigma_0^2 in watts, tied to ``snr_zeta``
    by sigma_0^2 = |A_k| k0^2 eta^2 / (4 pi zeta).  Positions must be finite;
    the aperture size, noise, power budget and zeta positive and finite.
    """

    aperture: ApertureSpec
    constants: PhysicalConstants
    positions: np.ndarray
    user_aperture: float
    noise_var: float
    power_budget: float
    snr_zeta: float
    generator: str = "explicit"
    seed: int | None = None

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise ValueError("positions must be a (K, 3) array with K >= 1")
        if not np.isfinite(pos).all():
            raise ValueError("positions must be finite")
        _require_positive("noise_var", self.noise_var)
        _require_positive("power_budget", self.power_budget)
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        expected = noise_variance(self.snr_zeta, self.constants, self.user_aperture)
        if abs(self.noise_var - expected) > 1e-9 * expected:
            raise ValueError("noise_var is inconsistent with snr_zeta")
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
        return Scene(aperture=self.aperture, constants=self.constants,
                     positions=np.array(positions, dtype=float),
                     user_aperture=self.user_aperture, noise_var=self.noise_var,
                     power_budget=self.power_budget, snr_zeta=self.snr_zeta,
                     generator=self.generator, seed=self.seed)

    # -- serialization ------------------------------------------------------
    def to_json(self) -> str:
        """JSON record of the scene; :meth:`from_json` restores it exactly.

        Every float is written with enough digits to round-trip, so a rebuilt
        scene samples bit-identical channels.
        """
        rec = {
            "record": "scene",
            "constants": {
                "wavelength": repr(self.constants.wavelength),
                "wavenumber": repr(self.constants.wavenumber),
                "impedance": repr(self.constants.impedance),
            },
            "aperture": {
                "center": list(self.aperture.center),
                "normal": list(self.aperture.normal),
                "side_x": self.aperture.side_x,
                "side_z": self.aperture.side_z,
            },
            "positions": self.positions.tolist(),
            "user_aperture": repr(self.user_aperture),
            "noise_var": repr(self.noise_var),
            "power_budget": self.power_budget,
            "snr_zeta": self.snr_zeta,
            "generator": self.generator,
            "seed": self.seed,
        }
        return json.dumps(rec, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "Scene":
        rec = json.loads(text)
        if rec.get("record") != "scene":
            raise ValueError("not a scene record")
        constants = PhysicalConstants(
            wavelength=float(rec["constants"]["wavelength"]),
            wavenumber=float(rec["constants"]["wavenumber"]),
            impedance=float(rec["constants"]["impedance"]))
        ap = rec["aperture"]
        aperture = ApertureSpec(center=tuple(ap["center"]), normal=tuple(ap["normal"]),
                                side_x=ap["side_x"], side_z=ap["side_z"])
        return cls(aperture=aperture, constants=constants,
                   positions=np.array(rec["positions"], dtype=float),
                   user_aperture=float(rec["user_aperture"]),
                   noise_var=float(rec["noise_var"]),
                   power_budget=float(rec["power_budget"]),
                   snr_zeta=float(rec["snr_zeta"]),
                   generator=rec.get("generator", "unknown"),
                   seed=rec.get("seed"))


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
    st = np.sin(theta)
    out = np.stack([r * st * np.cos(phi), r * st * np.sin(phi), r * np.cos(theta)],
                   axis=-1)
    return out


def noise_variance(zeta: float, constants: PhysicalConstants,
                   user_aperture: float) -> float:
    """Noise power sigma_0^2 implied by the SNR knob zeta.

    zeta is defined as |A_k| k0^2 eta^2 / (4 pi sigma_0^2), so
    sigma_0^2 = |A_k| k0^2 eta^2 / (4 pi zeta).  Both ``zeta`` and
    ``user_aperture`` must be positive and finite.
    """
    _require_positive("zeta", zeta)
    _require_positive("user_aperture", user_aperture)
    k0 = constants.wavenumber
    eta = constants.impedance
    return user_aperture * k0 ** 2 * eta ** 2 / (4.0 * np.pi * zeta)


def default_user_aperture(constants: PhysicalConstants) -> float:
    """Shared per-user aperture size |A_k| = lambda^2 / (4 pi)."""
    return constants.wavelength ** 2 / (4.0 * np.pi)


def sample_scene(seed: int, num_users: int,
                 region: Region | None = None,
                 aperture: ApertureSpec | None = None,
                 zeta: float = 1e6,
                 power_budget: float = 1.0,
                 wavelength: float = DEFAULT_WAVELENGTH) -> Scene:
    """Draw a scene with users uniform in the spherical-coordinate box.

    Deterministic in ``seed``.  Positions are drawn independently and
    uniformly in (r, theta, phi) over the region, converted to Cartesian.
    Draws that land behind the aperture plane (possible only for custom
    regions) are re-drawn from the same stream.

    The stream is read as consecutive (r, theta, phi) triples and the
    accepted ones are kept in stream order.  Each round draws one triple for
    every user still missing, as one ``rng.uniform(low, high, size=(n, 3))``
    call converted by one :func:`spherical_to_cartesian` call.  Placing one
    user at a time would read at least as many triples as users are missing,
    so the positions are bit-identical to that loop's.  The user that sees
    ``MAX_DRAWS_PER_USER`` consecutive rejected triples raises
    :class:`SceneGeometryError`.
    """
    if num_users < 1:
        raise ValueError("num_users must be >= 1")
    region = region or Region()
    aperture = aperture or square_aperture()
    constants = PhysicalConstants.from_wavelength(wavelength)
    rng = np.random.default_rng(seed)
    normal = np.asarray(aperture.normal, dtype=float)
    center = np.asarray(aperture.center, dtype=float)
    low = np.array([region.r_min, region.theta_min, region.phi_min])
    high = np.array([region.r_max, region.theta_max, region.phi_max])

    positions = np.empty((num_users, 3))
    placed = 0
    misses = 0  # rejected draws since the last accepted one
    while placed < num_users:
        r, th, ph = rng.uniform(low, high, size=(num_users - placed, 3)).T
        p = spherical_to_cartesian(r, th, ph)
        hits = np.flatnonzero((p - center) @ normal > 0.0)
        # Rejected draws before each accepted one (the first run continues the
        # carried-over misses), then the rejected draws after the last.
        edges = np.concatenate(([-1 - misses], hits, [len(p)]))
        runs = edges[1:] - edges[:-1] - 1
        if runs.max() >= MAX_DRAWS_PER_USER:
            k = placed + int(np.argmax(runs >= MAX_DRAWS_PER_USER))
            raise SceneGeometryError(
                f"could not place user {k} in front of the aperture after "
                f"{MAX_DRAWS_PER_USER} draws")
        positions[placed:placed + hits.size] = p[hits]
        placed += hits.size
        misses = int(runs[-1])

    user_ap = default_user_aperture(constants)
    return Scene(aperture=aperture, constants=constants, positions=positions,
                 user_aperture=user_ap,
                 noise_var=noise_variance(zeta, constants, user_ap),
                 power_budget=power_budget, snr_zeta=zeta,
                 generator="sample_scene", seed=seed)


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
    (1 + j/(k0 d) - 1/(k0 d)^2).
    """
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
