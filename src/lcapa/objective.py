"""SINR / spectral-efficiency evaluation, the policy loss, and power projection.

This module holds all SINR and SE arithmetic, for one scene or a stack.
:func:`sinr_vector` and :func:`sum_se` broadcast over leading axes:
(..., K, K) couplings with (K,) apertures and noise give (..., K) SINR and
rates and one sum per slice.  Each slice is bit-identical to the call on
that slice alone, the rule of :func:`~lcapa.quadrature.gram_pair`.

:func:`policy_loss_grad` takes gamma_k = S_k / D_k from the same body, with
S_k = |A_k| |g_kk|^2 and D_k = sum_{j != k} |A_j| |g_kj|^2 + sigma_k^2.  The
loss of N scenes, L = -sum ln(1 + gamma_k) / (N ln 2), has the gradient
dL/d|g_kk|^2 = -|A_k| / ((1 + gamma_k) D_k N ln 2) and, for j != k,
dL/d|g_kj|^2 = gamma_k |A_j| / ((1 + gamma_k) D_k N ln 2).  A gradient of
the real loss with respect to a complex array Z is, throughout ``lcapa``, the
one complex array dL/dRe Z + i dL/dIm Z; since d|g|^2 = 2 (Re g dRe g +
Im g dIm g), the gradient with respect to G is 2 (dL/d|g_kj|^2) g_kj.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_LN2 = float(np.log(2.0))


class DegenerateProjectionError(RuntimeError):
    """Raised when the total power estimate is not positive and finite."""


@dataclass(frozen=True)
class SeReport:
    """Per-user rates log2(1 + gamma_k) and their sum (a float for one
    scene, an array for a stack), in bit/s/Hz."""

    rates: np.ndarray
    sum_se: float | np.ndarray


def _check_positive_finite(x: np.ndarray, what: str) -> None:
    # min and max propagate NaN, which fails both compares
    if not (0.0 < x.min() and x.max() < np.inf):
        raise ValueError(f"{what} must be positive and finite, got {x}")


def _sinr_terms(couplings: np.ndarray, user_apertures: np.ndarray,
                noise_vars: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-user SINR of (..., K, K) couplings and its denominators, both (..., K)."""
    g = np.asarray(couplings, dtype=complex)
    ap = np.asarray(user_apertures, dtype=float)
    nv = np.asarray(noise_vars, dtype=float)
    _check_positive_finite(nv, "noise variances")
    _check_positive_finite(ap, "user apertures")
    weighted = ap * np.abs(g) ** 2     # [..., k, j] = |A_j| |g_kj|^2
    signal = np.diagonal(weighted, axis1=-2, axis2=-1)
    denom = weighted.sum(axis=-1) - signal + nv
    return signal / denom, denom


def sinr_vector(couplings: np.ndarray, user_apertures: np.ndarray,
                noise_vars: np.ndarray) -> np.ndarray:
    """Per-user SINR from the coupling matrix, or a stack of them.

    gamma_k = |A_k| |g_kk|^2 / (sum_{j != k} |A_j| |g_kj|^2 + sigma_k^2).
    The j-th interference term is weighted by the j-th user aperture, matching
    the model definition term by term.  Raises ``ValueError`` unless every
    noise variance and user aperture is positive and finite.
    """
    return _sinr_terms(couplings, user_apertures, noise_vars)[0]


def sum_se(sinr: np.ndarray) -> SeReport:
    """Sum spectral efficiency of a SINR vector, or of each in a stack;
    ``ValueError`` for a negative or NaN entry."""
    sinr = np.asarray(sinr, dtype=float)
    if not np.all(sinr >= 0.0):        # NaN fails the compare too
        raise ValueError("SINR entries must be nonnegative, not NaN")
    rates = np.log1p(sinr) / _LN2
    total = rates.sum(axis=-1) if rates.ndim > 1 else float(np.sum(rates))
    return SeReport(rates=rates, sum_se=total)


def policy_loss_grad(couplings: np.ndarray, user_apertures: np.ndarray,
                     noise_vars: np.ndarray) -> tuple[float, np.ndarray]:
    """Negated batch-mean sum SE of (N, K, K) couplings and its gradient
    dL/dG = dL/dRe G + i dL/dIm G."""
    g = np.asarray(couplings, dtype=complex)
    n, k, _ = g.shape
    ap = np.asarray(user_apertures, dtype=float)
    gamma, denom = _sinr_terms(g, ap, noise_vars)
    loss = -float(np.sum(np.log1p(gamma)) / (_LN2 * n))

    # d loss / d |g_kj|^2
    idx = np.arange(k)
    coef = np.zeros((n, k, k))
    inv = 1.0 / ((1.0 + gamma) * denom)          # (n, k)
    coef += (gamma * inv)[:, :, None] * ap[None, None, :] / (_LN2 * n)
    coef[:, idx, idx] = -inv * ap[None, :] / (_LN2 * n)
    return loss, 2.0 * coef * g


def project_weights(weights: np.ndarray, powers: np.ndarray,
                    power_budget: float) -> np.ndarray:
    """Scale the weight matrix so the total power meets the budget.

    With exact per-user powers the projected matrix satisfies the power
    equality; with estimated powers it satisfies it to the estimate's
    accuracy.  Raises ``ValueError`` for a ``power_budget`` that is not
    positive and finite, and :class:`DegenerateProjectionError` when the
    total power is not (a NaN or infinite total would scale the weights to
    all-NaN or all-zero).
    """
    if not 0.0 < power_budget < np.inf:
        raise ValueError(f"power_budget must be positive and finite, "
                         f"got {power_budget!r}")
    total = float(np.sum(powers))
    if not 0.0 < total < np.inf:
        raise DegenerateProjectionError(
            f"total power estimate {total:g} is not positive and finite")
    return np.asarray(weights, dtype=complex) * np.sqrt(power_budget / total)
