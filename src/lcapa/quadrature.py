"""Aperture discretization, sampled channels, and the integral oracles.

The aperture integrals that drive everything else (per-user powers and
channel/current couplings) are defined on a uniform midpoint grid.  Two
independent compute routes are provided:

* the Gram route -- factorize once per scene into the K x K coupling Gram and
  evaluate any candidate weight matrix with small matrix products;
* the pointwise route (:func:`direct_integral_check`) -- rebuild the current
  distribution sample-by-sample on the grid and sum directly.

The Gram route is the production path; the pointwise route is kept purely as
its oracle.  All reductions use numpy's deterministic pairwise summation over
fixed index order.

Reproducibility promise:

* On one numpy build and CPU, repeated runs are bit-reproducible: the same
  scene gives bit-identical channels and Grams in one process, in a fresh
  process, and after a ``Scene.to_json``/``from_json`` round trip.
* Across numpy builds, libm builds or SIMD dispatch targets, the channel
  samples agree entry by entry to |h - h'| <= 11 eps |h'| (eps = 2**-52),
  not bit for bit.  The final complex products and divisions in
  :func:`~lcapa.scene.channel_response` run in numpy's SIMD-dispatched loops
  (with or without FMA), and ``exp`` of a complex argument goes through the
  platform's libm; see :func:`channel_matrix` for the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .scene import ApertureSpec, Scene, channel_response


@dataclass(frozen=True)
class ApertureGrid:
    """Uniform midpoint partition of the aperture rectangle.

    ``nodes`` is (M, 3) with the centers of an nx-by-nz cell partition and
    ``cell_area`` is the common cell area, so sum(cell_area) == aperture area.
    """

    nodes: np.ndarray
    cell_area: float
    nx: int
    nz: int
    aperture: ApertureSpec

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        if abs(self.num_nodes * self.cell_area - self.aperture.area) > 1e-9:
            raise ValueError("cell areas do not partition the aperture")

    @property
    def num_nodes(self) -> int:
        return self.nx * self.nz


@dataclass(frozen=True)
class ChannelMatrix:
    """Channel responses sampled at the grid nodes: h[k, m] = H_k(r_m)."""

    h: np.ndarray
    grid: ApertureGrid

    def __post_init__(self):
        if not np.all(np.isfinite(self.h)):
            raise ValueError("channel matrix contains non-finite entries")
        h = np.array(self.h)
        h.setflags(write=False)
        object.__setattr__(self, "h", h)


@dataclass(frozen=True)
class GramPair:
    """The coupling Gram of the sampled channels on a grid.

    ``coupling`` (C) is the conjugated Gram: C[i, j] = sum_m H_i* H_j * delta.
    It is Hermitian positive semidefinite, gives per-user powers through
    p_k = a_k^H C a_k, and gives couplings through G = C A; every downstream
    quantity (powers, couplings, SE, the policy loss) is a function of it.
    """

    coupling: np.ndarray
    cell_area: float

    def __post_init__(self):
        m = np.array(self.coupling)
        m.setflags(write=False)
        object.__setattr__(self, "coupling", m)


def build_grid(aperture: ApertureSpec, num_nodes: int | None = None,
               nx: int | None = None, nz: int | None = None) -> ApertureGrid:
    """Uniform midpoint grid with M = nx * nz cells.

    For a square aperture pass ``num_nodes`` as a perfect square; for a
    rectangular one either pass (nx, nz) explicitly or a ``num_nodes`` that
    splits in the side ratio.

    Grids are memoised on the aperture's geometry and (nx, nz): repeated calls
    return one shared, read-only grid.  Its ``aperture`` holds the caller's
    geometry as float tuples.
    """
    if nx is None or nz is None:
        if num_nodes is None:
            raise ValueError("pass either num_nodes or (nx, nz)")
        ratio = aperture.side_x / aperture.side_z
        nx_f = np.sqrt(num_nodes * ratio)
        nx, nz = int(round(nx_f)), int(round(np.sqrt(num_nodes / ratio)))
        if nx < 1 or nz < 1 or nx * nz != num_nodes:
            root = int(round(np.sqrt(num_nodes)))
            hints = sorted({max(1, root - 1) ** 2, root ** 2, (root + 1) ** 2})
            raise ValueError(
                f"cannot split M={num_nodes} in the side ratio {ratio:g}; "
                f"nearest valid values: {hints}")
    elif num_nodes is not None and num_nodes != nx * nz:
        raise ValueError("num_nodes inconsistent with nx * nz")
    return _midpoint_grid(tuple(map(float, aperture.center)),
                          tuple(map(float, aperture.normal)),
                          float(aperture.side_x), float(aperture.side_z), nx, nz)


@lru_cache(maxsize=8)
def _midpoint_grid(center: tuple[float, float, float],
                   normal: tuple[float, float, float],
                   side_x: float, side_z: float, nx: int, nz: int) -> ApertureGrid:
    """The nx-by-nz midpoint grid, keyed on hashable floats (a spec may hold lists)."""
    aperture = ApertureSpec(center=center, normal=normal, side_x=side_x,
                            side_z=side_z)
    u, w = aperture.in_plane_axes()
    center = np.asarray(aperture.center, dtype=float)
    xs = (np.arange(nx) + 0.5) / nx - 0.5
    zs = (np.arange(nz) + 0.5) / nz - 0.5
    xg, zg = np.meshgrid(xs * aperture.side_x, zs * aperture.side_z, indexing="ij")
    nodes = (center[None, :]
             + xg.reshape(-1, 1) * u[None, :]
             + zg.reshape(-1, 1) * w[None, :])
    delta = aperture.area / (nx * nz)
    return ApertureGrid(nodes=nodes, cell_area=delta, nx=nx, nz=nz,
                        aperture=aperture)


def channel_matrix(scene: Scene, grid: ApertureGrid) -> ChannelMatrix:
    """Sample every user's channel response at the grid nodes.

    On one numpy build and CPU the result is bit-identical across repeated
    runs and processes.  Across builds or dispatch targets each entry agrees
    to within 11 eps |h|.  The real inputs (distances, obliquity, k0 d and
    their square roots) use IEEE-754 correctly rounded operations in a fixed
    order, so every build computes the same bits for them.  (The obliquity
    takes a BLAS dot product with the aperture normal; it is exact for an
    axis-aligned normal such as the default, but a tilted normal leaves its
    summation order to the BLAS build.)  What can differ is the complex
    exponential (libm cos/sin, faithful to 2u, u = eps/2) and four complex
    products or divisions by a real, each within sqrt(5) u (Brent,
    Percival & Zimmermann, Math. Comp. 2007).  One build is thus
    within (1 + 2u)(1 + sqrt(5) u)^4 - 1 of the exact value, and two builds
    differ by at most twice that: (2 + 4 sqrt(5)) eps ~= 10.94 eps of |h|,
    rounded up to 11.
    """
    rows = []
    for k in range(scene.num_users):
        try:
            rows.append(channel_response(scene, k, grid.nodes))
        except Exception as exc:
            raise type(exc)(f"channel sampling failed for user {k}: {exc}") from exc
    return ChannelMatrix(h=np.stack(rows), grid=grid)


def gram_pair(h: np.ndarray, cell_area: float) -> GramPair:
    """The coupling Gram of the sampled channels, as one matrix product.

    C = delta * conj(h) @ h.T, then (C + C^H) / 2, which makes C exactly
    Hermitian with an exactly real diagonal.  Bit-identical across calls on
    one build; against a per-pair pairwise sum it differs only by the BLAS
    summation order.
    """
    h = np.asarray(h)
    c = (np.conj(h) @ h.T) * cell_area
    return GramPair(coupling=(c + c.conj().T) / 2, cell_area=cell_area)


def _require_hermitian(c: np.ndarray) -> None:
    # an inf entry makes atol inf and a NaN entry makes the maximum NaN;
    # either fails the check
    atol = 1e-12 * max(1.0, float(np.abs(c).max()))
    if not (np.isfinite(atol) and np.max(np.abs(c - c.conj().T)) <= atol):
        raise AssertionError("coupling Gram is not Hermitian")


def integral_power(weights: np.ndarray, coupling: np.ndarray) -> np.ndarray:
    """Per-user powers p_k = a_k^H C a_k from the coupling Gram.

    The quadratic form is real up to rounding; the imaginary dust is checked
    against 1e-9 of the real part and discarded.
    """
    a = np.asarray(weights, dtype=complex)
    _require_hermitian(coupling)
    quad = np.einsum("jk,ji,ik->k", np.conj(a), coupling, a)
    scale = np.maximum(np.abs(quad.real), 1e-30)
    if np.any(np.abs(quad.imag) > 1e-9 * scale):
        raise AssertionError("power quadratic form has non-negligible imaginary part")
    return quad.real.copy()


def integral_couplings(weights: np.ndarray, coupling: np.ndarray) -> np.ndarray:
    """Coupling matrix G = C A; G[k, j] pairs user k's channel with user j's current."""
    return np.asarray(coupling) @ np.asarray(weights, dtype=complex)


def direct_integral_check(scene: Scene, grid: ApertureGrid,
                          weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise-route powers and couplings; the oracle for the Gram route.

    Builds V_k(r_m) = sum_j a_jk H_j(r_m) explicitly on the grid, then sums
    |V_k|^2 * delta and H_k* V_j * delta directly.
    """
    a = np.asarray(weights, dtype=complex)
    h = channel_matrix(scene, grid).h
    v = h.T @ a                       # (M, K): V_k sampled at the nodes
    delta = grid.cell_area
    powers = np.sum(np.abs(v) ** 2, axis=0) * delta
    couplings = (np.conj(h) @ v) * delta
    return powers, couplings


def quadrature_convergence(scene: Scene, weights: np.ndarray,
                           node_counts: list[int]) -> list[dict]:
    """Per-grid integrals for convergence reporting.

    Returns one row per M with the coupling Gram and the resulting powers and
    couplings.
    """
    rows = []
    for m in node_counts:
        grid = build_grid(scene.aperture, m)
        grams = gram_pair(channel_matrix(scene, grid).h, grid.cell_area)
        rows.append({
            "num_nodes": m,
            "powers": integral_power(weights, grams.coupling),
            "couplings": integral_couplings(weights, grams.coupling),
            "coupling_gram": grams.coupling,
        })
    return rows
