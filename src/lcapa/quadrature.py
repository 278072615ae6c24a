"""Aperture discretization, sampled channels, and the Gram-route integrals.

The aperture integrals that drive everything else (per-user powers and
channel/current couplings) are defined on a uniform midpoint grid.  They
factorize once per scene into the K x K coupling Gram, and any candidate
weight matrix is then evaluated with small matrix products.  (The tests
check this route against a pointwise oracle that rebuilds the current
distribution sample by sample on the grid.)  All reductions use numpy's
deterministic pairwise summation over fixed index order.  A grid,
:class:`ApertureGrid`, takes only the aperture and its (nx, nz) cell counts
and derives its nodes and cell area from them.

Stacks: :func:`gram_pair`, :func:`integral_power` and
:func:`integral_couplings` broadcast over leading axes, (..., K, M)
channels to (..., K, K) Grams and (..., K, K) weights to (..., K) powers
and (..., K, K) couplings, with the Hermitian check made Gram by Gram.
They apply the same operations in the same order to every slice, so each
result is bit-identical to the call on its own slice.
:func:`coupling_grams` builds a pool's Grams from its stacked positions
with the broadcast channel kernel :func:`~lcapa.scene.los_channels`, a
bounded chunk of scenes at a time; :func:`channel_matrix` still samples
one user at a time.

Reproducibility promise:

* On one numpy build and CPU, repeated runs are bit-reproducible: the same
  scene gives bit-identical channels and Grams in one process and in a
  fresh process.
* Across numpy builds, libm builds or SIMD dispatch targets, the channel
  samples agree entry by entry to |h - h'| <= 8 eps |h'| (eps = 2**-52),
  not bit for bit.  :func:`~lcapa.scene.channel_response` keeps every real
  quantity in real, correctly rounded arithmetic; only ``exp`` of a complex
  argument (the platform's libm) and its one genuine complex product (numpy's
  SIMD-dispatched loop, with or without FMA) can round differently; see
  :func:`channel_matrix` for the bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .scene import (
    ApertureSpec,
    PhysicalConstants,
    Scene,
    channel_response,
    los_channels,
)

# Complex channel entries :func:`coupling_grams` samples at once (one scene
# at least).  Larger chunks save little time and raise the peak heap: 2**15
# added about 0.6 MiB to a K=4 training run's peak RSS, 2**13 nothing.
GRAM_CHUNK_ENTRIES = 1 << 13


@dataclass(frozen=True)
class ApertureGrid:
    """Uniform midpoint partition of the aperture rectangle into nx-by-nz cells.

    Derived once from the inputs (nx, nz >= 1): ``nodes``, the read-only
    (M, 3) cell centers, and ``cell_area``, the common area aperture.area / M.
    """

    aperture: ApertureSpec
    nx: int
    nz: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    cell_area: float = field(init=False)

    def __post_init__(self):
        nx, nz, ap = self.nx, self.nz, self.aperture
        if not (nx >= 1 and nz >= 1):
            raise ValueError(f"grid needs nx, nz >= 1, got {(nx, nz)}")
        u, w = ap.in_plane_axes()
        center = np.asarray(ap.center, dtype=float)
        xs = (np.arange(nx) + 0.5) / nx - 0.5
        zs = (np.arange(nz) + 0.5) / nz - 0.5
        xg, zg = np.meshgrid(xs * ap.side_x, zs * ap.side_z, indexing="ij")
        nodes = (center[None, :]
                 + xg.reshape(-1, 1) * u[None, :]
                 + zg.reshape(-1, 1) * w[None, :])
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "cell_area", ap.area / (nx * nz))

    @property
    def num_nodes(self) -> int:
        return self.nx * self.nz


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """Channel responses sampled at the grid nodes: h[k, m] = H_k(r_m).

    The record holds a read-only complex array of its own.  It takes over
    an array that is already read-only, C-contiguous and owns its data, as
    :func:`channel_matrix` hands it one; it copies anything else, so an
    array the caller may still write is never frozen.  Non-finite entries
    raise ``ValueError``.  Records compare and hash by identity.
    """

    h: np.ndarray
    grid: ApertureGrid

    def __post_init__(self):
        h = self.h
        if not (isinstance(h, np.ndarray) and h.dtype == complex
                and h.flags.owndata and h.flags.c_contiguous
                and not h.flags.writeable):
            h = np.array(h, dtype=complex)
            h.setflags(write=False)
        _require_finite(h)
        object.__setattr__(self, "h", h)


def _require_finite(h: np.ndarray) -> None:
    """Raise ``ValueError`` unless every channel sample is finite."""
    # on the float view, which is about twice as fast as on the complex array
    if not np.isfinite(h.view(float)).all():
        raise ValueError("channel matrix contains non-finite entries")


@dataclass(frozen=True, eq=False)
class GramPair:
    """The coupling Gram of the sampled channels on a grid.

    ``coupling`` (C) is the conjugated Gram: C[i, j] = sum_m H_i* H_j * delta.
    It is Hermitian positive semidefinite, gives per-user powers through
    p_k = a_k^H C a_k, and gives couplings through G = C A; every downstream
    quantity (powers, couplings, SE, the policy loss) is a function of it.
    Records compare and hash by identity.
    """

    coupling: np.ndarray

    def __post_init__(self):
        m = np.array(self.coupling)
        m.setflags(write=False)
        object.__setattr__(self, "coupling", m)


def build_grid(aperture: ApertureSpec, num_nodes: int) -> ApertureGrid:
    """Uniform midpoint grid with M = ``num_nodes`` cells.

    M splits into nx * nz cells in the aperture's side ratio, so for a
    square aperture it must be a perfect square; a grid of any other cell
    counts is ``ApertureGrid(aperture, nx, nz)``.

    Grids are memoised on the aperture's geometry and (nx, nz): repeated calls
    return one shared, read-only grid.  Its ``aperture`` holds the caller's
    geometry as float tuples.
    """
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be >= 1, got {num_nodes!r}")
    ratio = aperture.side_x / aperture.side_z
    nx = int(round(np.sqrt(num_nodes * ratio)))
    nz = int(round(np.sqrt(num_nodes / ratio)))
    if nx < 1 or nz < 1 or nx * nz != num_nodes:
        root = int(round(np.sqrt(num_nodes)))
        hints = sorted({max(1, root - 1) ** 2, root ** 2, (root + 1) ** 2})
        raise ValueError(
            f"cannot split M={num_nodes} in the side ratio {ratio:g}; "
            f"nearest valid values: {hints}")
    return _midpoint_grid(tuple(map(float, aperture.center)),
                          tuple(map(float, aperture.normal)),
                          float(aperture.side_x), float(aperture.side_z), nx, nz)


@lru_cache(maxsize=8)
def _midpoint_grid(center: tuple[float, float, float],
                   normal: tuple[float, float, float],
                   side_x: float, side_z: float, nx: int, nz: int) -> ApertureGrid:
    """The nx-by-nz midpoint grid, keyed on hashable floats (a spec may hold lists)."""
    return ApertureGrid(ApertureSpec(center, normal, side_x, side_z), nx, nz)


def channel_matrix(scene: Scene, grid: ApertureGrid) -> ChannelMatrix:
    """Sample every user's channel response at the grid nodes.

    One :func:`~lcapa.scene.channel_response` call per user, each row written
    once into the array the returned record takes over.

    On one numpy build and CPU the result is bit-identical across repeated
    runs and processes.  Across builds or dispatch targets each entry agrees
    to within 8 eps |h|.  The real inputs (distances, the obliquity's
    three-term sum, k0 d, the correction's two components, 1/(4 pi d) and
    sqrt(cos_dep)) use IEEE-754 correctly rounded operations in a fixed
    order, for any aperture normal, so every build computes the same bits
    for them.  The exponential's argument (0, -k0 d) is exact.  With
    u = eps/2, one build's result is then within, of the exact value on
    those inputs:

    * 2u for exp(-j k0 d): libm cos and sin, each faithful;
    * u each for the three component-wise products: by j k0 eta (pure
      imaginary, so each component is k0 eta times one component of the
      exponential), by 1/(4 pi d) and by sqrt(cos_dep); each component is
      one correctly rounded real product;
    * sqrt(5) u for the product with the correction, the one genuine complex
      product (Brent, Percival & Zimmermann, Math. Comp. 2007).

    So one build is within rho = (1 + 2u)(1 + u)^3 (1 + sqrt(5) u) - 1 of
    the exact value, and two builds differ by at most 2 rho / (1 - rho) of
    either's |h|: (5 + sqrt(5)) eps ~= 7.24 eps to first order, which rounds
    up to the stated 8 eps.  ``tests/test_quadrature.py`` holds its golden
    fixture, and a run with every SIMD dispatch target disabled, to it.
    """
    h = np.empty((scene.num_users, grid.num_nodes), dtype=complex)
    for k in range(scene.num_users):
        try:
            h[k] = channel_response(scene, k, grid.nodes)
        except Exception as exc:
            raise type(exc)(f"channel sampling failed for user {k}: {exc}") from exc
    h.setflags(write=False)
    return ChannelMatrix(h=h, grid=grid)


def _gram(h: np.ndarray, cell_area: float) -> np.ndarray:
    """delta * conj(h) @ h^T made exactly Hermitian, over leading axes."""
    c = (np.conj(h) @ np.swapaxes(h, -1, -2)) * cell_area
    return (c + np.swapaxes(c.conj(), -1, -2)) / 2


def gram_pair(h: np.ndarray, cell_area: float) -> GramPair:
    """The coupling Gram of the sampled channels, as one matrix product.

    C = delta * conj(h) @ h^T, then (C + C^H) / 2, which makes C exactly
    Hermitian with an exactly real diagonal.  Bit-identical across calls on
    one build; against a per-pair pairwise sum it differs only by the BLAS
    summation order.  A (..., K, M) stack of channels gives the (..., K, K)
    stack of Grams, each bit-identical to the Gram of its own slice.
    """
    return GramPair(coupling=_gram(np.asarray(h), cell_area))


def coupling_grams(positions: np.ndarray, grid: ApertureGrid,
                   constants: PhysicalConstants) -> np.ndarray:
    """(N, K, K) coupling Grams of an (N, K, 3) stack of user positions.

    The positions share ``grid``'s aperture and ``constants``.  Channels are
    sampled with :func:`~lcapa.scene.los_channels` for as many scenes at a
    time as fit in ``GRAM_CHUNK_ENTRIES`` complex entries (one scene at
    least), so memory does not grow with N.  Each Gram is bit-identical to
    ``gram_pair(channel_matrix(scene, grid).h, grid.cell_area).coupling`` of
    its own scene, and non-finite channels raise ``ValueError`` as there.
    """
    pos = np.asarray(positions, dtype=float)
    n, k, _ = pos.shape
    step = max(1, GRAM_CHUNK_ENTRIES // (k * grid.num_nodes))
    grams = np.empty((n, k, k), dtype=complex)
    for lo in range(0, n, step):
        h = los_channels(pos[lo:lo + step], grid.nodes, grid.aperture.normal,
                         constants)
        _require_finite(h)
        grams[lo:lo + step] = _gram(h, grid.cell_area)
    return grams


def _require_hermitian(c: np.ndarray) -> None:
    """Raise unless every K x K Gram of a (..., K, K) stack is Hermitian.

    Each Gram gets its own tolerance, 1e-12 max(1, max |C|).
    """
    # an inf entry makes atol inf and a NaN entry makes the maximum NaN;
    # either fails the check
    c = np.asarray(c)
    atol = 1e-12 * np.maximum(1.0, np.abs(c).max(axis=(-2, -1)))
    if not (np.isfinite(atol).all() and np.all(
            np.abs(c - np.swapaxes(c.conj(), -1, -2)).max(axis=(-2, -1)) <= atol)):
        raise AssertionError("coupling Gram is not Hermitian")


def _power_form(weights: np.ndarray, ca: np.ndarray) -> np.ndarray:
    """sum_j conj(a_jk) (C A)_jk, the complex per-user quadratic forms
    a_k^H C a_k, from weights A and their couplings C A; (..., K, K) stacks
    give (..., K)."""
    return np.add.reduce(np.conj(weights) * ca, axis=-2)


def integral_power(weights: np.ndarray, coupling: np.ndarray) -> np.ndarray:
    """Per-user powers p_k = a_k^H C a_k from the coupling Gram.

    The quadratic form is real up to rounding; the imaginary dust is checked
    against 1e-9 of the real part and discarded.  (..., K, K) stacks of
    weights and Grams give (..., K) powers, each bit-identical to its own
    slice's.
    """
    a = np.asarray(weights, dtype=complex)
    _require_hermitian(coupling)
    quad = _power_form(a, np.asarray(coupling) @ a)
    scale = np.maximum(np.abs(quad.real), 1e-30)
    if np.any(np.abs(quad.imag) > 1e-9 * scale):
        raise AssertionError("power quadratic form has non-negligible imaginary part")
    return quad.real.copy()


def integral_couplings(weights: np.ndarray, coupling: np.ndarray) -> np.ndarray:
    """Coupling matrix G = C A; G[k, j] pairs user k's channel with user j's current.

    Stacks of weights and Grams give the stack of couplings.
    """
    return np.asarray(coupling) @ np.asarray(weights, dtype=complex)
