"""Benchmark-owned reference scorer: a converged tensor Gauss-Legendre Gram.

The program evaluates its outputs on midpoint grids (M=256 for training and
WMMSE, M_eval=1024 for evaluation) that under-resolve the oscillatory
integrand H_i* H_j.  The benchmark therefore scores every method's weight
matrix under its own quadrature: a 192 x 192 tensor Gauss-Legendre rule,
which agrees with 256 x 256 to ~1e-13 of the Gram diagonal on K=16 scenes
(see ``tests/test_reference.py``).  Only ``lcapa.scene.channel_response`` is
borrowed from the program; the weights, the power rescaling, the SINR and
the spectral efficiency are computed here, so a program change that computes
less accurately shows as a lower benchmark ``sum_se``.
"""

from __future__ import annotations

import numpy as np
from lcapa import scene as lscene

REFERENCE_NODES_PER_SIDE = 192


def reference_gram(scene, nodes_per_side: int = REFERENCE_NODES_PER_SIDE) -> np.ndarray:
    """Hermitian K x K coupling Gram C[i, j] = integral of H_i* H_j over the aperture."""
    x, w = np.polynomial.legendre.leggauss(nodes_per_side)
    aperture = scene.aperture
    u, v = aperture.in_plane_axes()
    center = np.asarray(aperture.center, dtype=float)
    xs, zs = x * (aperture.side_x / 2.0), x * (aperture.side_z / 2.0)
    xg, zg = np.meshgrid(xs, zs, indexing="ij")
    nodes = (center[None, :] + xg.reshape(-1, 1) * u[None, :]
             + zg.reshape(-1, 1) * v[None, :])
    weights = np.outer(w * (aperture.side_x / 2.0),
                       w * (aperture.side_z / 2.0)).reshape(-1)
    h = np.stack([lscene.channel_response(scene, k, nodes)
                  for k in range(scene.num_users)])
    gram = (np.conj(h) * weights[None, :]) @ h.T
    return 0.5 * (gram + gram.conj().T)


def reference_sum_se(scene, weights: np.ndarray, gram: np.ndarray) -> float:
    """Sum SE (bit/s/Hz) of ``weights`` rescaled to the power budget under ``gram``."""
    a = np.asarray(weights, dtype=complex)
    total = float(np.einsum("jk,ji,ik->", np.conj(a), gram, a).real)
    if not total > 0.0:
        raise ValueError(f"weights carry no power under the reference Gram ({total:g})")
    g = gram @ (a * np.sqrt(scene.power_budget / total))
    weighted = scene.user_aperture * np.abs(g) ** 2       # [k, j] = |A_j| |g_kj|^2
    signal = np.diag(weighted)
    sinr = signal / (weighted.sum(axis=1) - signal + scene.noise_var)
    return float(np.sum(np.log2(1.0 + sinr)))
