"""SINR / spectral-efficiency evaluation and power projection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DegenerateProjectionError(RuntimeError):
    """Raised when the total power estimate is not positive and finite."""


@dataclass(frozen=True)
class SeReport:
    """Per-user rates log2(1 + gamma_k) and their sum, in bit/s/Hz."""

    rates: np.ndarray
    sum_se: float


def sinr_vector(couplings: np.ndarray, user_apertures: np.ndarray,
                noise_vars: np.ndarray) -> np.ndarray:
    """Per-user SINR from the coupling matrix.

    gamma_k = |A_k| |g_kk|^2 / (sum_{j != k} |A_j| |g_kj|^2 + sigma_k^2).
    The j-th interference term is weighted by the j-th user aperture, matching
    the model definition term by term.
    """
    g = np.asarray(couplings, dtype=complex)
    ap = np.asarray(user_apertures, dtype=float)
    nv = np.asarray(noise_vars, dtype=float)
    if np.any(nv <= 0.0):
        raise ValueError("noise variances must be positive")
    weighted = ap[None, :] * np.abs(g) ** 2     # [k, j] = |A_j| |g_kj|^2
    signal = np.diag(weighted)
    interference = weighted.sum(axis=1) - signal
    return signal / (interference + nv)


def sum_se(sinr: np.ndarray) -> SeReport:
    """Sum spectral efficiency of a SINR vector."""
    sinr = np.asarray(sinr, dtype=float)
    if np.any(sinr < 0.0):
        raise ValueError("SINR entries must be nonnegative")
    rates = np.log1p(sinr) / np.log(2.0)
    return SeReport(rates=rates, sum_se=float(np.sum(rates)))


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
