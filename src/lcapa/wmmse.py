"""Discretized WMMSE sum-rate baseline, run on the coupling Gram.

The aperture is discretized to M patches, which reduces the functional
problem to conventional multi-user MISO precoding.  The precoders are
optimized with the classic three-block weighted-MMSE alternation (receive
scalars, MSE weights, regularized least-squares precoders under a sum-power
multiplier; Shi, Razaviyayn, Luo & He, IEEE TSP 2011).  Every iterate lies in
the span of the K sampled channels, so the alternation sees the grid only
through its K x K coupling Gram C: it runs in Gram coordinates B, its cost
does not grow with M, and the multiplier solves the trust-region secular
equation by Newton's method.  The current weights are then A = sqrt(|A_u|) B
in closed form, and they are evaluated with the exact quadrature path.  Any
Gram can be handed in, so a finer grid only changes C.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .objective import SeReport, project_weights, sinr_vector, sum_se
from .quadrature import (
    _require_hermitian,
    build_grid,
    channel_matrix,
    gram_pair,
    integral_couplings,
    integral_power,
)
from .scene import Scene


class LiftConditionError(RuntimeError):
    """Not raised: the lift is the closed form :func:`lift_precoder`, no solve.

    Kept only for callers that still catch it.
    """


class BisectionError(RuntimeError):
    """Raised when the sum-power multiplier search finds no root."""


_NEWTON_STEPS = 100     # cap on Newton steps for the power multiplier
_MAX_ITERATIONS = 200   # cap on WMMSE alternations
_TOLERANCE = 1e-6       # relative sum-SE change that counts as converged
_LN2 = np.log(2.0)


@dataclass(frozen=True)
class WmmseInfo:
    iterations: int
    converged: bool
    objective_trace: np.ndarray


@dataclass(frozen=True)
class LiftResult:
    """The current weights A of a WMMSE solution (A[j, k] weights H_j for user k)."""

    weights: np.ndarray


@dataclass(frozen=True)
class BaselineResult:
    se_report: SeReport
    runtime_seconds: float
    info: WmmseInfo
    lift: LiftResult


def _power_multiplier(c: np.ndarray, lam: np.ndarray, power: float) -> float:
    """Sum-power multiplier: the mu >= 0 with sum_i c_i / (lam_i + mu)^2 = power.

    c >= 0 and lam > 0.  mu = 0 when P(0) = sum_i c_i / lam_i^2 is within the
    budget.  Otherwise this is the trust-region secular equation: 1/sqrt(P(mu))
    is concave and increasing in mu, so Newton's method on it from mu = 0
    climbs monotonically to the root without overshooting (More & Sorensen,
    SIAM J. Sci. Stat. Comput. 1983).  It stops once a step is at most
    1e-13 mu, or at the first negative step, which only rounding can take
    (at high SNR mu is small against lam, and the iterates can flip between
    two adjacent floats).  It raises :class:`BisectionError` when no root
    exists (a non-positive budget), a step is undefined (P or P' underflows
    to 0) or the iteration does not converge.
    """
    buf = np.multiply(lam, lam)
    np.divide(c, buf, out=buf)
    if np.add.reduce(buf) <= power:
        return 0.0
    if not power > 0.0:
        raise BisectionError(f"no power multiplier reaches the budget {power:g}")
    # the arithmetic of 1 / sqrt(P) Newton steps, on reused buffers and Python
    # floats (math.sqrt and np.sqrt round alike); P and P' are the row sums of
    # one (2, n) buffer, which numpy sums row by row exactly as it sums a row
    target = 1.0 / math.sqrt(power)
    r = np.empty_like(lam)
    terms = np.empty((2,) + lam.shape)
    cr2, cr3 = terms                  # c_i r_i^2 and c_i r_i^3, r = 1/(lam + mu)
    mu = 0.0
    for _ in range(_NEWTON_STEPS):
        np.add(lam, mu, out=r)
        np.divide(1.0, r, out=r)
        np.multiply(c, r, out=cr2)
        np.multiply(cr2, r, out=cr2)
        np.multiply(cr2, r, out=cr3)
        p, slope = np.add.reduce(terms, axis=1).tolist()
        # d(1/sqrt(P))/dmu = P^(-3/2) sum_i c_i / (lam_i + mu)^3
        try:
            root = math.sqrt(p)
            step = (target - 1.0 / root) * p * root / slope
        except (ValueError, ZeroDivisionError) as exc:   # P <= 0 or P' = 0
            raise BisectionError(f"Newton's method took an undefined step on "
                                 f"the power multiplier (mu={mu:g})") from exc
        mu += step
        if abs(step) <= 1e-13 * mu:
            return mu
        if step < 0.0:
            # every exact step from mu = 0 is positive, so rounding has
            # taken over: P(mu) moves by one ulp over more than 1e-13 mu
            return mu
    raise BisectionError(f"Newton's method did not converge on the power "
                         f"multiplier in {_NEWTON_STEPS} steps (mu={mu:g})")


def wmmse_precoding(scene: Scene, coupling: np.ndarray
                    ) -> tuple[np.ndarray, WmmseInfo]:
    """Sum-rate WMMSE precoding of a scene on its K x K coupling Gram C.

    K, the shared user aperture size |A_u|, the noise variance sigma^2 and
    the power budget P are the scene's; ``Scene`` has already checked that
    they are positive and finite.  Returns the Gram coordinates B, whose
    current weights are A = sqrt(|A_u|) B (:func:`lift_precoder`), and the
    iteration record.  The user-aperture weight is absorbed into
    E = |A_u| C, so the couplings are T = E B = sqrt(|A_u|) C A, user j's
    power is b_j^H E b_j, and the algorithm maximizes the sum SE directly.
    Deterministic matched-filter initialization; stops when the sum-SE
    change falls below 1e-6 of the sum SE (at least 1), or after 200
    iterations.

    The regularized least-squares step eigendecomposes D E D with
    D = diag(sqrt(alpha)), and the sum-power multiplier comes from
    :func:`_power_multiplier` (Newton's method, stopped once a step is at
    most 1e-13 mu or negative).  The final rescale to the exact budget uses
    sum_j b_j^H E b_j = Re sum conj(B) * T.  The Gram is the one outside
    input, so it alone is checked: ``ValueError`` for a ``coupling`` that is
    not K x K or has a zero diagonal entry (a user with no channel), and
    ``AssertionError`` for one that is not Hermitian or not finite (the rule
    of :func:`~lcapa.quadrature.integral_power`).
    """
    power_budget = scene.power_budget
    num_users = scene.num_users
    c = np.asarray(coupling, dtype=complex)
    if c.shape != (num_users, num_users):
        raise ValueError(f"coupling must be {num_users} x {num_users} for "
                         f"{num_users} users, got shape {c.shape}")
    _require_hermitian(c)
    e = scene.user_aperture * c               # E = |A_u| C
    noise = scene.noise_var

    e_norms = np.sqrt(e.diagonal().real)
    if np.any(e_norms == 0.0):
        raise ValueError("a user has an identically zero channel")

    # np.add.reduce is what the .sum and np.sum wrappers call
    def row_power(t: np.ndarray) -> np.ndarray:
        return np.add.reduce(np.abs(t) ** 2, axis=1)   # sum_j |t_kj|^2

    def sum_rate(t: np.ndarray, rows: np.ndarray) -> float:
        sig = np.abs(t.diagonal()) ** 2
        interference = rows - sig
        return float(np.add.reduce(np.log1p(sig / (interference + noise)) / _LN2))

    # matched-filter start with equal power split: user k's current is its
    # own channel (b_k on the k-th unit vector), with b_k^H E b_k = P / K
    b = np.diag(np.sqrt(power_budget / num_users) / e_norms)
    t = e @ b                                 # couplings [k, j]
    rows = row_power(t)                       # shared by sum_rate and totals
    trace = [sum_rate(t, rows)]
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITERATIONS + 1):
        t_diag = t.diagonal()
        totals = rows + noise
        u = t_diag / totals
        mse = 1.0 - (np.conj(u) * t_diag).real
        w = 1.0 / mse

        d = np.sqrt(w * np.abs(u) ** 2)                    # sqrt(alpha_k)
        lam, q = np.linalg.eigh(d[:, None] * e * d[None, :])
        floor = max(1e-14 * np.maximum.reduce(lam), 0.0)
        if not lam[0] > floor:     # eigh ascends: else every eigenvalue is kept
            keep = lam > floor
            lam, q = lam[keep], q[:, keep]
        # q_tilde holds an E-orthonormal basis of the weighted channel span
        q_tilde = d[:, None] * (q / np.sqrt(lam)[None, :])

        coeff = q_tilde.conj().T @ e                       # (r, K): q_tilde^H E
        wu = w * u
        mu = _power_multiplier(np.abs(coeff) ** 2 @ np.abs(wu) ** 2,
                               lam, power_budget)

        b = q_tilde @ (coeff / (lam[:, None] + mu)) * wu[None, :]
        t = e @ b
        rows = row_power(t)
        trace.append(sum_rate(t, rows))
        if abs(trace[-1] - trace[-2]) <= _TOLERANCE * max(1.0, abs(trace[-1])):
            converged = True
            break

    # final scaling to the exact power budget (scaling every precoder up
    # raises every SINR, so this never decreases the objective)
    current = float(np.sum(np.conj(b) * t).real)
    if current > 0.0:
        scale = np.sqrt(power_budget / current)
        b = b * scale
        t = t * scale
    trace.append(sum_rate(t, row_power(t)))

    info = WmmseInfo(iterations=iterations, converged=converged,
                     objective_trace=np.asarray(trace))
    return b, info


def lift_precoder(coordinates: np.ndarray, scene: Scene) -> LiftResult:
    """Current weights of WMMSE's Gram coordinates B: A = sqrt(|A_u|) B, with
    the scene's shared user aperture size |A_u|.

    WMMSE's couplings are T = |A_u| C B, and the couplings of weights A are
    G = C A, so A = sqrt(|A_u|) B carries T = sqrt(|A_u|) G exactly; no solve
    and no channel samples are needed, whatever the Gram's condition.
    """
    return LiftResult(weights=np.sqrt(scene.user_aperture)
                      * np.asarray(coordinates))


def deploy_baseline(scene: Scene, num_nodes: int
                    ) -> tuple[LiftResult, WmmseInfo]:
    """What deploying the baseline costs: the grid, the channel sampling and
    the Gram C on grid(M), WMMSE on C and the lift A = sqrt(|A_u|) B.
    Returns the lifted weights and WMMSE's record."""
    grid = build_grid(scene.aperture, num_nodes)
    coupling = gram_pair(channel_matrix(scene, grid).h, grid.cell_area).coupling
    coordinates, info = wmmse_precoding(scene, coupling)
    return lift_precoder(coordinates, scene), info


def baseline_se(scene: Scene, num_nodes: int, num_nodes_eval: int
                ) -> BaselineResult:
    """Full baseline pipeline, with the precoder's own wall clock.

    Gram C on grid(M) -> WMMSE on C -> weights A = sqrt(|A_u|) B -> exact
    power projection on grid(M_eval) -> SINR/sum-SE on grid(M_eval).  |A_u|,
    sigma^2 and P are the scene's.  ``runtime_seconds`` times
    :func:`deploy_baseline`, the first three steps.  It stops before
    scoring, as the learned path's inference time does, so the M_eval grid,
    its Gram and the SE are not in it.
    """
    start = time.perf_counter()
    lift, info = deploy_baseline(scene, num_nodes)
    elapsed = time.perf_counter() - start

    grid_eval = build_grid(scene.aperture, num_nodes_eval)
    grams_eval = gram_pair(channel_matrix(scene, grid_eval).h, grid_eval.cell_area)
    powers = integral_power(lift.weights, grams_eval.coupling)
    weights = project_weights(lift.weights, powers, scene.power_budget)
    couplings = integral_couplings(weights, grams_eval.coupling)
    report = sum_se(sinr_vector(couplings, scene.user_aperture, scene.noise_var))
    return BaselineResult(se_report=report, runtime_seconds=elapsed, info=info,
                          lift=lift)
