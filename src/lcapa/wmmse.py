"""Discretized WMMSE sum-rate baseline and the channel-subspace lift.

The aperture is discretized to M patches, which reduces the functional
problem to conventional multi-user MISO precoding.  The precoders are
optimized with the classic three-block weighted-MMSE alternation (receive
scalars, MSE weights, regularized least-squares precoders under a sum-power
multiplier; Shi, Razaviyayn, Luo & He, IEEE TSP 2011).  Every iterate lies in
the span of the K sampled channels, so the alternation runs in K x K Gram
coordinates and its per-iteration cost does not grow with M; the multiplier
solves the trust-region secular equation by Newton's method.  The optimized
discrete precoder is then lifted back onto the span of the channel functions
by least squares and evaluated with the exact quadrature path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .objective import SeReport, project_weights, sinr_vector, sum_se
from .quadrature import (
    ChannelMatrix,
    build_grid,
    channel_matrix,
    gram_pair,
    integral_couplings,
    integral_power,
)
from .scene import Scene


class LiftConditionError(RuntimeError):
    """Raised when the channel Gram is too ill-conditioned to lift against."""


class BisectionError(RuntimeError):
    """Raised when the sum-power multiplier search finds no root."""


_NEWTON_STEPS = 100     # cap on Newton steps for the power multiplier


@dataclass(frozen=True)
class WmmseOptions:
    max_iterations: int = 200
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class DiscretePrecoder:
    """Discrete precoder V with V[m, k] the current of user k at node m.

    Discrete couplings carry a factor delta (midpoint rule), and the discrete
    power is delta * ||V||_F^2.
    """

    values: np.ndarray
    cell_area: float

    @property
    def total_power(self) -> float:
        return float(self.cell_area * np.sum(np.abs(self.values) ** 2))


@dataclass(frozen=True)
class WmmseInfo:
    iterations: int
    converged: bool
    objective_trace: np.ndarray


@dataclass(frozen=True)
class LiftResult:
    weights: np.ndarray
    residual_norm: float
    gram_condition: float


@dataclass(frozen=True)
class BaselineResult:
    se_report: SeReport
    runtime_seconds: float
    info: WmmseInfo
    lift: LiftResult
    num_nodes: int
    num_nodes_eval: int


def _shared_aperture(user_apertures: np.ndarray) -> float:
    ap = np.asarray(user_apertures, dtype=float)
    if not np.allclose(ap, ap[0], rtol=1e-12, atol=0.0):
        raise ValueError("the WMMSE baseline requires a shared user aperture size")
    return float(ap[0])


def _power_multiplier(c: np.ndarray, lam: np.ndarray, power: float) -> float:
    """Sum-power multiplier: the mu >= 0 with sum_i c_i / (lam_i + mu)^2 = power.

    c >= 0 and lam > 0.  mu = 0 when P(0) = sum_i c_i / lam_i^2 is within the
    budget.  Otherwise this is the trust-region secular equation: 1/sqrt(P(mu))
    is concave and increasing in mu, so Newton's method on it from mu = 0
    climbs monotonically to the root without overshooting (More & Sorensen,
    SIAM J. Sci. Stat. Comput. 1983).  It stops once a step is at most
    1e-13 mu, and raises :class:`BisectionError` when no root exists (a
    non-positive budget) or the iteration does not converge.
    """
    if np.sum(c / lam ** 2) <= power:
        return 0.0
    if not power > 0.0:
        raise BisectionError(f"no power multiplier reaches the budget {power:g}")
    target = 1.0 / np.sqrt(power)
    mu = 0.0
    for _ in range(_NEWTON_STEPS):
        r = 1.0 / (lam + mu)
        cr2 = c * r * r
        p = cr2.sum()
        # d(1/sqrt(P))/dmu = P^(-3/2) sum_i c_i / (lam_i + mu)^3
        step = (target - 1.0 / np.sqrt(p)) * p * np.sqrt(p) / (cr2 * r).sum()
        mu += step
        if abs(step) <= 1e-13 * mu:
            return float(mu)
    raise BisectionError(f"Newton's method did not converge on the power "
                         f"multiplier in {_NEWTON_STEPS} steps (mu={mu:g})")


def wmmse_precoding(h: np.ndarray, cell_area: float, user_apertures: np.ndarray,
                    noise_vars: np.ndarray, power_budget: float,
                    options: WmmseOptions | None = None
                    ) -> tuple[DiscretePrecoder, WmmseInfo]:
    """Sum-rate WMMSE precoding for the discretized aperture.

    The user-aperture weight and the patch area are absorbed into effective
    channels e_k = sqrt(|A_u|) * delta * h_k, so the algorithm maximizes the
    discrete sum SE directly.  Deterministic matched-filter initialization;
    stops when the sum-SE change falls below the relative tolerance.

    Every iterate lies in the span of the channels, V = eff^T B, so the
    iteration runs in K x K Gram coordinates on E = conj(eff) eff^T
    (= |A_u| delta C): the couplings are E B, the regularized least-squares
    step eigendecomposes D E D with D = diag(sqrt(alpha)), and the sum-power
    multiplier comes from :func:`_power_multiplier` (Newton's method, stopped
    once a step is at most 1e-13 mu).  Only forming E and the final
    V = eff^T B with its rescale to the exact budget touch the M nodes.
    Raises ``ValueError`` for a ``power_budget`` that is not positive and
    finite.
    """
    if not 0.0 < power_budget < np.inf:
        raise ValueError(f"power_budget must be positive and finite, "
                         f"got {power_budget!r}")
    options = options or WmmseOptions()
    h = np.asarray(h, dtype=complex)
    num_users = h.shape[0]
    ap_u = _shared_aperture(user_apertures)
    noise = np.asarray(noise_vars, dtype=float)
    power = power_budget / cell_area          # budget for sum_k ||v_k||^2

    eff = np.sqrt(ap_u) * cell_area * h       # rows e_k^T
    eff_norms = np.linalg.norm(eff, axis=1)
    if np.any(eff_norms == 0.0):
        raise ValueError("a user has an identically zero channel")
    e = np.conj(eff) @ eff.T                  # [k, j] = e_k^H e_j

    def row_power(t: np.ndarray) -> np.ndarray:
        return (np.abs(t) ** 2).sum(axis=1)   # sum_j |t_kj|^2

    def sum_rate(t: np.ndarray, rows: np.ndarray) -> float:
        sig = np.abs(t.diagonal()) ** 2
        interference = rows - sig
        return float(np.sum(np.log1p(sig / (interference + noise)) / np.log(2.0)))

    # matched-filter start with equal power split; the coupling is e_k^H v_j,
    # so the matched direction is v ~ e_k itself
    b = np.diag(np.sqrt(power / num_users) / eff_norms)
    t = e @ b                                 # couplings [k, j] = e_k^H v_j
    rows = row_power(t)                       # shared by sum_rate and totals
    trace = [sum_rate(t, rows)]
    converged = False
    iterations = 0
    for iterations in range(1, options.max_iterations + 1):
        t_diag = t.diagonal()
        totals = rows + noise
        u = t_diag / totals
        mse = 1.0 - (np.conj(u) * t_diag).real
        w = 1.0 / mse

        d = np.sqrt(w * np.abs(u) ** 2)                    # sqrt(alpha_k)
        lam, q = np.linalg.eigh(d[:, None] * e * d[None, :])
        keep = lam > max(1e-14 * lam.max(), 0.0)
        lam_kept = lam[keep]
        # eff^T q_tilde is an orthonormal basis of the weighted channel span
        q_tilde = d[:, None] * (q[:, keep] / np.sqrt(lam_kept)[None, :])

        coeff = q_tilde.conj().T @ e                       # (r, K): basis^H e_j
        wu = w * u
        mu = _power_multiplier(np.abs(coeff) ** 2 @ np.abs(wu) ** 2,
                               lam_kept, power)

        b = q_tilde @ (coeff / (lam_kept[:, None] + mu)) * wu[None, :]
        t = e @ b
        rows = row_power(t)
        trace.append(sum_rate(t, rows))
        if abs(trace[-1] - trace[-2]) <= options.tolerance * max(1.0, abs(trace[-1])):
            converged = True
            break

    # final scaling to the exact power budget (scaling every precoder up
    # raises every SINR, so this never decreases the objective)
    v = eff.T @ b
    current = float(np.sum(np.abs(v) ** 2))
    if current > 0.0:
        scale = np.sqrt(power / current)
        v = v * scale
        t = t * scale
    trace.append(sum_rate(t, row_power(t)))

    precoder = DiscretePrecoder(values=v, cell_area=cell_area)
    info = WmmseInfo(iterations=iterations, converged=converged,
                     objective_trace=np.asarray(trace))
    return precoder, info


def lift_precoder(precoder: DiscretePrecoder, channels: ChannelMatrix,
                  cell_area: float) -> LiftResult:
    """Least-squares weights expressing the precoder in the channel span.

    Solves min_A sum_m ||V[m, :] - sum_j a_j. H_j(r_m)||^2 through the normal
    equations with the conjugated Gram; reports the residual norm and the
    Gram condition number.
    """
    h = channels.h
    grams = gram_pair(h, cell_area)
    cond = float(np.linalg.cond(grams.coupling))
    if cond > 1e12:
        raise LiftConditionError(
            f"channel Gram condition number {cond:.3g} exceeds 1e12")
    rhs = cell_area * (np.conj(h) @ precoder.values)
    weights = np.linalg.solve(grams.coupling, rhs)
    residual = float(np.linalg.norm(h.T @ weights - precoder.values))
    return LiftResult(weights=weights, residual_norm=residual,
                      gram_condition=cond)


def baseline_se(scene: Scene, num_nodes: int, num_nodes_eval: int,
                options: WmmseOptions | None = None) -> BaselineResult:
    """Full baseline pipeline with end-to-end timing.

    grid(M) -> WMMSE -> lift -> exact power projection on grid(M_eval) ->
    SINR/sum-SE on grid(M_eval).  The wall clock includes the integral setup
    (channel sampling and Gram construction) on both grids.
    """
    start = time.perf_counter()
    grid = build_grid(scene.aperture, num_nodes)
    chan = channel_matrix(scene, grid)
    precoder, info = wmmse_precoding(chan.h, grid.cell_area,
                                     scene.user_apertures(), scene.noise_vars(),
                                     scene.power_budget, options)
    lift = lift_precoder(precoder, chan, grid.cell_area)

    grid_eval = build_grid(scene.aperture, num_nodes_eval)
    grams_eval = gram_pair(channel_matrix(scene, grid_eval).h, grid_eval.cell_area)
    powers = integral_power(lift.weights, grams_eval.coupling)
    weights = project_weights(lift.weights, powers, scene.power_budget)
    couplings = integral_couplings(weights, grams_eval.coupling)
    report = sum_se(sinr_vector(couplings, scene.user_apertures(),
                                scene.noise_vars()))
    elapsed = time.perf_counter() - start
    return BaselineResult(se_report=report, runtime_seconds=elapsed, info=info,
                          lift=lift, num_nodes=num_nodes,
                          num_nodes_eval=num_nodes_eval)
