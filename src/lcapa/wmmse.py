"""Discretized WMMSE sum-rate baseline and the channel-subspace lift.

The aperture is discretized to M patches, which reduces the functional
problem to conventional multi-user MISO precoding.  The precoders are
optimized with the classic three-block weighted-MMSE alternation (receive
scalars, MSE weights, regularized least-squares precoders with the sum-power
multiplier found by bisection).  The optimized discrete precoder is then
lifted back onto the span of the channel functions by least squares and
evaluated with the exact quadrature path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .objective import SeReport, project_weights, sinr_vector, sum_se
from .quadrature import (
    ApertureGrid,
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
    """Raised when the power-multiplier bisection cannot bracket a solution."""


@dataclass(frozen=True)
class WmmseOptions:
    max_iterations: int = 200
    tolerance: float = 1e-6
    init_rule: str = "matched"

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.init_rule != "matched":
            raise ValueError(f"unknown init rule {self.init_rule!r}")


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


def discretize_channels(scene: Scene, grid: ApertureGrid) -> np.ndarray:
    """Per-user effective channel samples h_k[m] = H_k(r_m)."""
    return channel_matrix(scene, grid).h


def discrete_sinr(values: np.ndarray, h: np.ndarray, cell_area: float,
                  user_apertures: np.ndarray, noise_vars: np.ndarray) -> np.ndarray:
    """SINR of a discrete precoder; identical sums to the quadrature path."""
    couplings = cell_area * (np.conj(h) @ values)
    return sinr_vector(couplings, user_apertures, noise_vars)


def _shared_aperture(user_apertures: np.ndarray) -> float:
    ap = np.asarray(user_apertures, dtype=float)
    if not np.allclose(ap, ap[0], rtol=1e-12, atol=0.0):
        raise ValueError("the WMMSE baseline requires a shared user aperture size")
    return float(ap[0])


def wmmse_precoding(h: np.ndarray, cell_area: float, user_apertures: np.ndarray,
                    noise_vars: np.ndarray, power_budget: float,
                    options: WmmseOptions | None = None
                    ) -> tuple[DiscretePrecoder, WmmseInfo]:
    """Sum-rate WMMSE precoding for the discretized aperture.

    The user-aperture weight and the patch area are absorbed into effective
    channels e_k = sqrt(|A_u|) * delta * h_k, so the algorithm maximizes the
    discrete sum SE directly.  Deterministic matched-filter initialization;
    stops when the sum-SE change falls below the relative tolerance.
    """
    options = options or WmmseOptions()
    h = np.asarray(h, dtype=complex)
    num_users, num_nodes = h.shape
    ap_u = _shared_aperture(user_apertures)
    noise = np.asarray(noise_vars, dtype=float)
    power = power_budget / cell_area          # budget for sum_k ||v_k||^2

    eff = np.sqrt(ap_u) * cell_area * h       # rows e_k^T
    eff_norms = np.linalg.norm(eff, axis=1)
    if np.any(eff_norms == 0.0):
        raise ValueError("a user has an identically zero channel")

    # matched-filter start with equal power split; the coupling is e_k^H v_j,
    # so the matched direction is v ~ e_k itself
    v = (eff / eff_norms[:, None]).T.copy()
    v *= np.sqrt(power / num_users)

    def couplings(vmat: np.ndarray) -> np.ndarray:
        return np.conj(eff) @ vmat            # [k, j] = e_k^H v_j

    def sum_rate(vmat: np.ndarray) -> float:
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
        scaled = np.conj(eff) * np.sqrt(alpha)[:, None]     # rows sqrt(a_k) e_k^H
        gram_small = scaled @ scaled.conj().T               # K x K, Hermitian PSD
        lam, q = np.linalg.eigh(gram_small)
        keep = lam > max(1e-14 * lam.max(), 0.0)
        lam_kept = lam[keep]
        basis = scaled.conj().T @ (q[:, keep] / np.sqrt(lam_kept)[None, :])  # (M, r)

        coeff = basis.conj().T @ eff.T                     # (r, K): basis^H e_j
        gains = (w * np.abs(u)) ** 2                       # |w_j u_j|^2
        filt_sq = np.abs(coeff) ** 2 * gains[None, :]

        def total_power(mu: float) -> float:
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
                raise BisectionError("could not bracket the power multiplier "
                                     f"(hi={hi:g}, P(hi)={total_power(hi):g})")
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

    # final scaling to the exact power budget (scaling every precoder up
    # raises every SINR, so this never decreases the objective)
    current = float(np.sum(np.abs(v) ** 2))
    if current > 0.0:
        v = v * np.sqrt(power / current)
    trace.append(sum_rate(v))

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
