"""Test oracles, not pipeline stages: no training, baseline, experiment or
CLI path calls them.  Each reaches a result by a route independent of the
Gram-domain code in ``lcapa``, so the tests can check that code against it:

* :func:`direct_integral_check` -- powers and couplings summed pointwise over
  the grid, against the Gram route;
* :func:`reconstruct_current` -- the continuous current distributions
  V_k(r) = sum_j a_jk H_j(r) of a weight matrix;
* :func:`least_squares_lift` -- the weights of a grid-sampled precoder by
  least squares against the sampled channels, the reference for the
  closed-form WMMSE lift;
* :func:`subspace_improvement_check` -- the SE of a solution with an
  out-of-subspace component against its rescaled in-subspace part, which
  must score higher;
* :func:`per_scene_pool_and_datasets` -- a scene pool and both supervised
  datasets built one scene at a time, the reference for the stacked
  ``ScenePool.generate`` and ``gen_supervised_dataset``;
* :func:`gauss_legendre_gram` and :func:`reference_sum_se` -- a converged
  tensor Gauss-Legendre coupling Gram and a sum SE scored on it (projection,
  SINR and SE written out here, not taken from ``lcapa.objective``): the
  judge of the paper's headline claim;
* :func:`plain_wmmse_precoding`, :func:`plain_power_multiplier` and
  :func:`plain_los_channels` -- the WMMSE iteration, its sum-power
  multiplier and the channel kernel written plainly, with numpy's reduction
  wrappers and a fresh array for every intermediate: the bit-identity
  references for the tuned kernels in ``lcapa.wmmse`` and ``lcapa.scene``;
* :func:`plain_gnn_forward` and :func:`plain_gnn_backward` -- the GNN layer
  kernels with one GEMM per weight matrix, the reference within a stated
  tolerance for the fused-block kernels of ``lcapa.gnn``;
* :func:`plain_integral_power` -- the per-user powers as one three-operand
  contraction, the reference within a stated tolerance for
  ``lcapa.quadrature.integral_power``;
* :func:`earlier_format_record` and :func:`reload_from_earlier_format` -- a
  checkpoint record in the format written before the GNN architecture was
  fixed, built field by field here rather than by ``save_checkpoint``, and
  the parameter tree ``load_checkpoint`` reads back from it;
* :func:`pair_weight_features`, :func:`pair_weight_grad`,
  :func:`pair_unpack_complex` and :func:`pair_output_grads` -- the head
  packing with complex arrays split into (re, im) pairs by ``np.stack``,
  ``re + 1j * im`` and ``.real.astype``: the bit-identity references for the
  view-based packing of ``lcapa.heads``;
* :func:`pair_forward`, :func:`pair_backward`, :func:`pair_policy_loss_grad`,
  :func:`pair_surrogate_chain`, :func:`pair_analytic_chain` and
  :func:`pair_supervised_grad` -- the heads, the policy loss, both policy
  chains and the supervised batch gradient composed from those pairs, every
  gradient of a complex array carried as two real arrays: the bit-identity
  references for the complex-gradient code of ``lcapa``;
* :func:`full_cache_surrogate_maps` -- ProjNet and ValueNet as the policy
  chain's integral maps, each holding its full forward cache until its
  backward pass: the bit-identity and memory reference for the sign-only
  caches of ``lcapa.training``;
* :func:`finite_diff_check` -- central differences of a scalar loss at
  random parameters: the reference within a stated tolerance for every
  hand-written adjoint.
"""

import json
import os
import tempfile
from types import SimpleNamespace

import numpy as np

from lcapa.gnn import (PARAM_NAMES, _dleaky, _dsoftplus, _leaky, _softplus,
                       _wgrad, gnn_backward, gnn_forward, zeros_like_params)
from lcapa.heads import (HEAD_NORMS, GnnModel, proj_backward, proj_forward,
                         value_backward, value_forward)
from lcapa.objective import _LN2, _sinr_terms, project_weights, sinr_vector, sum_se
from lcapa.quadrature import (ApertureGrid, build_grid, channel_matrix,
                              gram_pair, integral_couplings, integral_power)
from lcapa.quadrature import _require_hermitian
from lcapa.scene import (Scene, SceneGeometryError, channel_response,
                         los_channels, sample_scene, square_aperture)
from lcapa.training import load_checkpoint
from lcapa.wmmse import BisectionError, WmmseInfo


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


def least_squares_lift(values: np.ndarray, h: np.ndarray,
                       cell_area: float) -> tuple[np.ndarray, float, float]:
    """Least-squares weights expressing a node-domain precoder in the channel span.

    Solves min_A sum_m ||V[m, :] - sum_j a_j. H_j(r_m)||^2 through the normal
    equations with the coupling Gram, C A = delta conj(h) V.  Returns the
    weights, the residual norm ||h^T A - V|| and the Gram condition number;
    the weights are meaningful only where that condition number is moderate.
    """
    coupling = gram_pair(h, cell_area).coupling
    weights = np.linalg.solve(coupling, cell_area * (np.conj(h) @ values))
    residual = float(np.linalg.norm(h.T @ weights - values))
    return weights, residual, float(np.linalg.cond(coupling))


def reconstruct_current(weights: np.ndarray, scene: Scene):
    """Continuous current distributions V_k(r) = sum_j a_jk H_j(r).

    Returns an evaluator mapping (N, 3) aperture points to an (N, K) complex
    array; points outside the aperture rectangle are rejected.  The evaluator
    captures immutable scene data and is safe to share.
    """
    a = np.array(weights, dtype=complex)
    aperture = scene.aperture
    u, w = aperture.in_plane_axes()
    center = np.asarray(aperture.center, dtype=float)

    def evaluate(points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        rel = pts - center[None, :]
        eps = 1e-9
        if (np.any(np.abs(rel @ u) > aperture.side_x / 2 + eps)
                or np.any(np.abs(rel @ w) > aperture.side_z / 2 + eps)):
            raise ValueError("evaluation point outside the aperture")
        h = np.stack([channel_response(scene, k, pts)
                      for k in range(scene.num_users)])
        return h.T @ a

    return evaluate


def _orthogonalize_against_span(vec: np.ndarray, h: np.ndarray,
                                coupling: np.ndarray, delta: float) -> np.ndarray:
    """Remove the channel-subspace component of a grid-sampled function.

    Projection under the conjugated grid inner product <f, g> = sum f g* delta,
    so the remainder satisfies sum_m H_j*(r_m) v(r_m) delta = 0 for every j.
    """
    rhs = (np.conj(h) @ vec) * delta
    coeffs = np.linalg.solve(coupling, rhs)
    residual = vec - h.T @ coeffs
    leak = np.abs(np.conj(h) @ residual) * delta
    norm = np.sqrt(np.sum(np.abs(residual) ** 2) * delta)
    if np.any(leak > 1e-9 * max(1.0, norm)):
        raise AssertionError("orthogonalization against the channel span leaked")
    return residual


def subspace_improvement_check(scene: Scene, grid: ApertureGrid,
                               weights: np.ndarray, perp_seed: int,
                               perturbed_user: int | None = None
                               ) -> tuple[float, float]:
    """SE of a mixed solution vs. its rescaled in-subspace part.

    Starting from in-subspace currents given by ``weights``, adds to one
    user's distribution a random grid function orthogonalized against the
    channel span, renormalizes the mixed solution to the power budget, and
    returns (R0, R1): the SE of the mixed solution and the SE of the
    in-subspace part rescaled back up to the budget.  Whenever the orthogonal
    component has positive norm and the signal couplings are nonzero,
    R1 > R0 strictly.
    """
    a = np.asarray(weights, dtype=complex)
    chan = channel_matrix(scene, grid)
    h = chan.h
    delta = grid.cell_area
    grams = gram_pair(h, delta)
    rng = np.random.default_rng(perp_seed)
    k = int(rng.integers(scene.num_users)) if perturbed_user is None else perturbed_user

    v_span = h.T @ a                                # (M, K)
    span_power = np.sum(np.abs(v_span) ** 2) * delta
    if span_power <= 0.0:
        raise ValueError("weights carry no power")

    perp = None
    for _ in range(16):
        raw = (rng.standard_normal(grid.num_nodes)
               + 1j * rng.standard_normal(grid.num_nodes))
        candidate = _orthogonalize_against_span(raw, h, grams.coupling, delta)
        if np.sqrt(np.sum(np.abs(candidate) ** 2) * delta) >= 1e-12:
            perp = candidate
            break
    if perp is None:
        raise RuntimeError("could not draw a non-degenerate orthogonal component")

    # Give the orthogonal part a power comparable to the perturbed user's.
    user_power = max(np.sum(np.abs(v_span[:, k]) ** 2) * delta,
                     1e-6 * span_power)
    target = rng.uniform(0.05, 0.5) * user_power
    perp = perp * np.sqrt(target / (np.sum(np.abs(perp) ** 2) * delta))

    v_mixed = v_span.copy()
    v_mixed[:, k] = v_mixed[:, k] + perp
    total_mixed = np.sum(np.abs(v_mixed) ** 2) * delta
    scale = np.sqrt(scene.power_budget / total_mixed)
    v_mixed *= scale
    v_inspan = v_span * scale

    def exact_se(v: np.ndarray) -> float:
        couplings = (np.conj(h) @ v) * delta
        gamma = sinr_vector(couplings, scene.user_apertures(), scene.noise_vars())
        return sum_se(gamma).sum_se

    r0 = exact_se(v_mixed)

    inspan_power = np.sum(np.abs(v_inspan) ** 2) * delta
    c_factor = np.sqrt(scene.power_budget / inspan_power)
    r1 = exact_se(c_factor * v_inspan)
    return r0, r1


def _scenes_and_grams(seed: int, count: int, num_users: int, num_nodes: int,
                      zeta: float, aperture_area: float, power_budget: float):
    """Yield (rng, scene, C) for samples 0..count-1 of one seed.

    Sample i draws its scene from the stream ``SeedSequence([seed, i])``; the
    stream is yielded past that draw so a caller may draw more per-sample data
    from it.  C is the scene's coupling Gram on one shared M-node grid, from
    its own ``channel_matrix``.
    """
    aperture = square_aperture(aperture_area)
    grid = build_grid(aperture, num_nodes)
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        scene = sample_scene(int(rng.integers(2 ** 31)), num_users,
                             aperture=aperture, zeta=zeta,
                             power_budget=power_budget)
        yield rng, scene, gram_pair(channel_matrix(scene, grid).h,
                                    grid.cell_area).coupling


def per_scene_pool_and_datasets(seed: int, count: int, num_users: int,
                                num_nodes: int, zeta: float = 1e6,
                                aperture_area: float = 4.0,
                                power_budget: float = 1.0) -> dict:
    """The pool and both supervised datasets of one seed, scene by scene.

    Returns ``positions`` and ``grams`` (the pool's), and ``proj`` and
    ``value``, each a (weights, targets) pair of stacked arrays.  Every
    sample takes its draws, Gram, powers, projection and targets on its own.
    """
    positions, grams = [], []
    data = {"proj": ([], []), "value": ([], [])}
    for rng, scene, coupling in _scenes_and_grams(
            seed, count, num_users, num_nodes, zeta, aperture_area, power_budget):
        positions.append(scene.positions)
        grams.append(coupling)
        raw = (rng.standard_normal((num_users, num_users))
               + 1j * rng.standard_normal((num_users, num_users)))
        total = integral_power(raw, coupling).sum()
        target_total = power_budget * 10.0 ** rng.uniform(-1.0, 1.0)
        a = raw * np.sqrt(target_total / total)
        powers = integral_power(a, coupling)
        data["proj"][0].append(a)
        data["proj"][1].append(powers)
        a = project_weights(a, powers, power_budget)
        data["value"][0].append(a)
        data["value"][1].append(integral_couplings(a, coupling))
    out = {"positions": np.stack(positions), "grams": np.stack(grams)}
    for mode, (weights, targets) in data.items():
        out[mode] = (np.stack(weights), np.stack(targets))
    return out


def gauss_legendre_gram(scene: Scene, nodes_per_side: int = 192) -> np.ndarray:
    """The coupling Gram C[i, j] = integral of H_i* H_j over the aperture, by
    a tensor Gauss-Legendre rule.

    With 192 nodes a side the rule resolves the oscillatory integrand, which
    the midpoint grids of training do not: on the first four scenes of
    ``ScenePool`` seed 13 (K=4) it agrees with 320 nodes a side to within
    7e-12 of the largest off-diagonal entry.  Exactly Hermitian.
    """
    x, w = np.polynomial.legendre.leggauss(nodes_per_side)
    aperture = scene.aperture
    u, v = aperture.in_plane_axes()
    half_x, half_z = aperture.side_x / 2.0, aperture.side_z / 2.0
    xs, zs = np.meshgrid(half_x * x, half_z * x, indexing="ij")
    nodes = (np.asarray(aperture.center, dtype=float)
             + xs.reshape(-1, 1) * u + zs.reshape(-1, 1) * v)
    node_weights = np.outer(half_x * w, half_z * w).reshape(-1)
    h = los_channels(scene.positions, nodes, aperture.normal, scene.constants)
    gram = (np.conj(h) * node_weights) @ h.T
    return 0.5 * (gram + gram.conj().T)


def reference_sum_se(gram: np.ndarray, weights: np.ndarray,
                     user_apertures: np.ndarray, noise_vars: np.ndarray,
                     power_budget: float) -> float:
    """Sum SE (bit/s/Hz) of ``weights`` scaled to the power budget under ``gram``.

    Written out user by user: the total power sum_k a_k^H C a_k, the
    couplings G = C A of the scaled weights, and for user k the signal
    |A_k| |g_kk|^2 against the interference sum over j != k of |A_j| |g_kj|^2
    plus noise.
    """
    a = np.asarray(weights, dtype=complex)
    total = sum(float(np.vdot(a[:, k], gram @ a[:, k]).real)
                for k in range(a.shape[1]))
    if not total > 0.0:
        raise ValueError(f"weights carry no power ({total:g})")
    g = gram @ (a * np.sqrt(power_budget / total))
    se = 0.0
    for k in range(g.shape[0]):
        signal = user_apertures[k] * abs(g[k, k]) ** 2
        interference = sum(user_apertures[j] * abs(g[k, j]) ** 2
                           for j in range(g.shape[1]) if j != k)
        se += np.log2(1.0 + signal / (interference + noise_vars[k]))
    return float(se)


def plain_power_multiplier(c: np.ndarray, lam: np.ndarray, power: float) -> float:
    """The mu >= 0 with sum_i c_i / (lam_i + mu)^2 = power, by Newton's method
    on 1/sqrt(P(mu)) from mu = 0; the reference for
    ``lcapa.wmmse._power_multiplier``, which must return the same bits."""
    if np.sum(c / lam ** 2) <= power:
        return 0.0
    if not power > 0.0:
        raise BisectionError(f"no power multiplier reaches the budget {power:g}")
    target = 1.0 / np.sqrt(power)
    mu = 0.0
    for _ in range(100):
        r = 1.0 / (lam + mu)
        cr2 = c * r * r
        p = cr2.sum()
        step = (target - 1.0 / np.sqrt(p)) * p * np.sqrt(p) / (cr2 * r).sum()
        mu += step
        if abs(step) <= 1e-13 * mu or step < 0.0:
            return float(mu)
    raise BisectionError(f"Newton's method did not converge on the power "
                         f"multiplier in 100 steps (mu={mu:g})")


# WMMSE's iteration cap and relative convergence tolerance, kept apart from
# the constants of ``lcapa.wmmse``
WMMSE_MAX_ITERATIONS = 200
WMMSE_TOLERANCE = 1e-6


def plain_wmmse_precoding(coupling: np.ndarray, user_apertures: np.ndarray,
                          noise_vars: np.ndarray, power_budget: float
                          ) -> tuple[np.ndarray, WmmseInfo]:
    """Sum-rate WMMSE on the coupling Gram, every step written plainly.

    The reference for ``lcapa.wmmse.wmmse_precoding``: the same matched-filter
    start, alternation, multiplier and final rescale, with the same
    floating-point operations in the same order, so the Gram coordinates B,
    the iteration count and the objective trace must agree bit for bit.
    Assumes valid inputs (a shared, positive user aperture size).
    """
    num_users = len(user_apertures)
    c = np.asarray(coupling, dtype=complex)
    _require_hermitian(c)
    ap = np.asarray(user_apertures, dtype=float)
    assert np.allclose(ap, ap[0], rtol=1e-12, atol=0.0)
    e = float(ap[0]) * c
    noise = np.asarray(noise_vars, dtype=float)
    e_norms = np.sqrt(e.diagonal().real)

    def row_power(t):
        return (np.abs(t) ** 2).sum(axis=1)

    def sum_rate(t, rows):
        sig = np.abs(t.diagonal()) ** 2
        interference = rows - sig
        return float(np.sum(np.log1p(sig / (interference + noise)) / np.log(2.0)))

    b = np.diag(np.sqrt(power_budget / num_users) / e_norms)
    t = e @ b
    rows = row_power(t)
    trace = [sum_rate(t, rows)]
    converged = False
    iterations = 0
    for iterations in range(1, WMMSE_MAX_ITERATIONS + 1):
        t_diag = t.diagonal()
        totals = rows + noise
        u = t_diag / totals
        mse = 1.0 - (np.conj(u) * t_diag).real
        w = 1.0 / mse
        d = np.sqrt(w * np.abs(u) ** 2)
        lam, q = np.linalg.eigh(d[:, None] * e * d[None, :])
        keep = lam > max(1e-14 * lam.max(), 0.0)
        lam_kept = lam[keep]
        q_tilde = d[:, None] * (q[:, keep] / np.sqrt(lam_kept)[None, :])
        coeff = q_tilde.conj().T @ e
        wu = w * u
        mu = plain_power_multiplier(np.abs(coeff) ** 2 @ np.abs(wu) ** 2,
                                    lam_kept, power_budget)
        b = q_tilde @ (coeff / (lam_kept[:, None] + mu)) * wu[None, :]
        t = e @ b
        rows = row_power(t)
        trace.append(sum_rate(t, rows))
        if abs(trace[-1] - trace[-2]) <= WMMSE_TOLERANCE * max(1.0, abs(trace[-1])):
            converged = True
            break

    current = float(np.sum(np.conj(b) * t).real)
    if current > 0.0:
        scale = np.sqrt(power_budget / current)
        b = b * scale
        t = t * scale
    trace.append(sum_rate(t, row_power(t)))
    return b, WmmseInfo(iterations=iterations, converged=converged,
                        objective_trace=np.asarray(trace))


def plain_los_channels(positions: np.ndarray, points: np.ndarray,
                       normal: tuple[float, float, float], constants, *,
                       user: int | None = None) -> np.ndarray:
    """Line-of-sight channels of (..., 3) positions at (P, 3) points, with a
    fresh array for every intermediate and plain geometry checks.

    The reference for ``lcapa.scene.los_channels``: the same real operations
    in the same order, so the channels must agree bit for bit, and a user
    that coincides with a point or is not in front of the aperture raises
    the same :class:`~lcapa.scene.SceneGeometryError` message.
    """
    pos = np.asarray(positions, dtype=float)
    pts = np.asarray(points, dtype=float)
    dx = pos[..., 0, None] - pts[:, 0]
    dy = pos[..., 1, None] - pts[:, 1]
    dz = pos[..., 2, None] - pts[:, 2]
    dist = np.sqrt((dx * dx + dy * dy) + dz * dz)
    n0, n1, n2 = normal
    near = dist <= 0.0
    if near.any():
        with np.errstate(divide="ignore", invalid="ignore"):
            behind = (dx * n0 + dy * n1 + dz * n2) / dist <= 0.0
        raise _plain_geometry_fault(near, behind, user)
    cos_dep = (dx * n0 + dy * n1 + dz * n2) / dist
    behind = cos_dep <= 0.0
    if behind.any():
        raise _plain_geometry_fault(near, behind, user)
    k0 = constants.wavenumber
    eta = constants.impedance
    kd = k0 * dist
    correction = np.empty(kd.shape, dtype=complex)
    np.subtract(1.0, 1.0 / (kd * kd), out=correction.real)
    np.divide(1.0, kd, out=correction.imag)
    h = 1j * k0 * eta * np.exp(-1j * kd)
    re, im = h.real, h.imag
    scale = 1.0 / (4.0 * np.pi * dist)
    re *= scale
    im *= scale
    scale = np.sqrt(cos_dep)
    re *= scale
    im *= scale
    return h * correction


def _plain_geometry_fault(near, behind, user):
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


def _plain_zero_diagonal(x):
    idx = np.arange(x.shape[1])
    x[:, idx, idx] = 0.0
    return x


def plain_gnn_forward(spec, params, d0, e0):
    """The GNN forward pass with one GEMM per weight matrix: four vertex
    GEMMs and two endpoint GEMMs per layer, read from the named arrays.

    Returns (vertex output, edge output or None, cache); the cache is a
    namespace of per-layer ``d_inputs``, ``e_inputs``, ``d_others``
    (sum_{i != k} d_i), ``e_col``, ``e_row`` and the output layer's
    ``zv_out``.
    """
    d, e = np.asarray(d0, dtype=float), _plain_zero_diagonal(
        np.array(e0, dtype=float))
    cache = SimpleNamespace(d_inputs=[], e_inputs=[], d_others=[], e_col=[],
                            e_row=[], zv_out=None)
    for t, lp in enumerate(params.layers):
        last = t == spec.transitions - 1
        others = d.sum(axis=1, keepdims=True) - d
        col = e.sum(axis=1)
        row = e.sum(axis=2)
        cache.d_inputs.append(d)
        cache.e_inputs.append(e)
        cache.d_others.append(others)
        cache.e_col.append(col)
        cache.e_row.append(row)

        zv = d @ lp.w_self.T
        zv += others @ lp.w_other.T
        zv += col @ lp.w_ein.T
        zv += row @ lp.w_eout.T
        zv += lp.b_v

        if lp.u_edge is not None:
            ze = e @ lp.u_edge.T
            ze += (d @ lp.u_src.T)[:, :, None, :]
            ze += (d @ lp.u_dst.T)[:, None, :, :]
            ze += lp.b_e
            _plain_zero_diagonal(ze)
            e = ze if last else _leaky(ze)
        else:
            e = None
        if not last:
            d = _leaky(zv)
        elif spec.vertex_head_activation == "softplus":
            cache.zv_out, d = zv, _softplus(zv)
        else:
            cache.zv_out = d = zv
    return d, e, cache


def plain_gnn_backward(spec, params, cache, d_out_grad, e_out_grad):
    """Every gradient of a :func:`plain_gnn_forward` pass, one GEMM per
    weight matrix: (parameter gradients, input vertex gradient, input edge
    gradient)."""
    grads = zeros_like_params(params)
    gd = np.asarray(d_out_grad, dtype=float)
    ge = (_plain_zero_diagonal(np.array(e_out_grad, dtype=float))
          if params.layers[-1].u_edge is not None else None)
    for t in range(spec.transitions - 1, -1, -1):
        lp, gl = params.layers[t], grads.layers[t]
        last = t == spec.transitions - 1
        d_in, e_in = cache.d_inputs[t], cache.e_inputs[t]

        if not last:
            gzv = _dleaky(cache.d_inputs[t + 1]) * gd
        elif spec.vertex_head_activation == "softplus":
            gzv = _dsoftplus(cache.zv_out) * gd
        else:
            gzv = gd

        gl.w_self[...] += _wgrad(gzv, d_in)
        gl.w_other[...] += _wgrad(gzv, cache.d_others[t])
        gl.w_ein[...] += _wgrad(gzv, cache.e_col[t])
        gl.w_eout[...] += _wgrad(gzv, cache.e_row[t])
        gl.b_v[...] += gzv.sum(axis=(0, 1))
        sum_gzv = gzv.sum(axis=1, keepdims=True)
        gd_prev = gzv @ lp.w_self
        gd_prev += (sum_gzv - gzv) @ lp.w_other
        ge_prev = ((gzv @ lp.w_ein)[:, None, :, :]
                   + (gzv @ lp.w_eout)[:, :, None, :])

        if lp.u_edge is not None:
            gze = ge if last else ge * _dleaky(cache.e_inputs[t + 1])
            gze_src = gze.sum(axis=2)
            gze_dst = gze.sum(axis=1)
            gl.u_edge[...] += _wgrad(gze, e_in)
            gl.u_src[...] += _wgrad(gze_src, d_in)
            gl.u_dst[...] += _wgrad(gze_dst, d_in)
            gl.b_e[...] += gze.sum(axis=(0, 1, 2))
            gd_prev += gze_src @ lp.u_src + gze_dst @ lp.u_dst
            ge_prev += gze @ lp.u_edge
        gd, ge = gd_prev, _plain_zero_diagonal(ge_prev)
    return grads, gd, ge


def plain_integral_power(weights, coupling):
    """Per-user powers a_k^H C a_k as one three-operand contraction."""
    a = np.asarray(weights, dtype=complex)
    return np.einsum("...jk,...ji,...ik->...k", np.conj(a), coupling, a).real


def earlier_format_record(model):
    """The record the format before the fixed architecture wrote: its spec
    also names the two settings, and each layer ends in a null aggregation
    array."""
    layers = []
    for lp in model.params.layers:
        entry = {}
        for name in PARAM_NAMES:
            arr = getattr(lp, name)
            entry[name] = None if arr is None else {
                "shape": list(arr.shape), "data": arr.ravel().tolist()}
        entry["u_agg"] = None
        layers.append(entry)
    spec = model.spec
    return {"record": "gnn_checkpoint", "format_version": 1,
            "spec": {"kind": spec.kind,
                     "vertex_widths": list(spec.vertex_widths),
                     "edge_widths": list(spec.edge_widths),
                     "hidden_slope": 0.2, "edge_aggregation": False},
            "norms": model.norms, "seed_lineage": {}, "layers": layers}


def reload_from_earlier_format(spec, params):
    """The parameter tree ``load_checkpoint`` reads from the earlier-format
    record of ``params`` (with unit norms), checked to hold the same bytes."""
    model = GnnModel(spec=spec, params=params,
                     norms=dict.fromkeys(HEAD_NORMS[spec.kind], 1.0))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w") as fh:
            json.dump(earlier_format_record(model), fh)
        loaded = load_checkpoint(path)
    assert loaded.spec == spec
    assert loaded.params.flat.tobytes() == params.flat.tobytes()
    return loaded.params


# -- the (re, im) pair form of the head boundary and the policy chains ---------

def _batched(x, dtype):
    x = np.asarray(x, dtype=dtype)
    return x[None, ...] if x.ndim == 2 else x


def pair_weight_features(weights, a_scale, positions, pos_scale):
    """Vertex features [positions, Re a_kk, Im a_kk] and edge features
    [Re a_kj, Im a_kj] of a batched weight stack, both scaled."""
    idx = np.arange(weights.shape[1])
    diag = weights[:, idx, idx]
    d0 = np.concatenate([positions / pos_scale,
                         diag.real[..., None] / a_scale,
                         diag.imag[..., None] / a_scale], axis=2)
    e0 = np.stack([weights.real, weights.imag], axis=3) / a_scale
    return d0, e0


def pair_weight_grad(gd0, ge0, a_scale):
    """(dL/dRe A, dL/dIm A) from the gradients of those features."""
    g_re = ge0[..., 0] / a_scale
    g_im = ge0[..., 1] / a_scale
    idx = np.arange(gd0.shape[1])
    g_re[:, idx, idx] = gd0[:, :, 3] / a_scale
    g_im[:, idx, idx] = gd0[:, :, 4] / a_scale
    return g_re, g_im


def pair_unpack_complex(d_out, e_out, scale):
    """Complex K x K output: entry (k, j) from edge (k, j), a_kk from vertex k."""
    out = (e_out[..., 0] + 1j * e_out[..., 1]) * scale
    idx = np.arange(out.shape[1])
    out[:, idx, idx] = (d_out[:, :, 0] + 1j * d_out[:, :, 1]) * scale
    return out


def pair_output_grads(grad_re, grad_im, scale, zv_shape):
    """The vertex and edge output gradients of a :func:`pair_unpack_complex`
    output, from dL/d(Re, Im) of it."""
    g_re = _batched(grad_re, complex).real.astype(float)
    g_im = _batched(grad_im, complex).real.astype(float)
    idx = np.arange(g_re.shape[1])
    gd = np.zeros(zv_shape)
    gd[:, :, 0] = g_re[:, idx, idx] * scale
    gd[:, :, 1] = g_im[:, idx, idx] * scale
    ge = np.stack([g_re, g_im], axis=3) * scale
    return gd, ge


def pair_forward(model, positions, weights=None):
    """A head's forward pass, (output, cache); ``weights`` for proj and value."""
    spec = model.spec
    pos = np.asarray(positions, dtype=float)
    pos = pos[None, ...] if pos.ndim == 2 else pos
    pos_scale = model.norm("pos_scale")
    if spec.kind == "policy":
        n, k = pos.shape[:2]
        d0, e0 = pos / pos_scale, np.zeros((n, k, k, spec.edge_widths[0]))
    else:
        d0, e0 = pair_weight_features(_batched(weights, complex),
                                      model.norm("a_scale"), pos, pos_scale)
    d_out, e_out, cache = gnn_forward(spec, model.params, d0, e0)
    if spec.kind == "proj":
        return d_out[:, :, 0] * model.norm("out_scale"), cache
    return pair_unpack_complex(d_out, e_out, model.norm("out_scale")), cache


def pair_backward(model, cache, grad_re, grad_im=None, wrt="both"):
    """A head's backward pass, (params, dL/dRe A, dL/dIm A), from dL/dpowers
    (proj, ``grad_im`` None) or dL/d(Re, Im) of the output; the policy's
    weight gradients are None."""
    spec, out_scale = model.spec, model.norm("out_scale")
    if spec.kind == "proj":
        gp = np.asarray(grad_re, dtype=float)
        gd, ge = (gp[None, ...] if gp.ndim == 1 else gp)[..., None] * out_scale, None
    else:
        gd, ge = pair_output_grads(grad_re, grad_im, out_scale,
                                   cache.zv_out.shape)
    grads, gd0, ge0 = gnn_backward(spec, model.params, cache, gd, ge, wrt=wrt)
    if gd0 is None or spec.kind == "policy":
        return grads, None, None
    return (grads, *pair_weight_grad(gd0, ge0, model.norm("a_scale")))


def pair_policy_loss_grad(couplings, user_apertures, noise_vars):
    """The negated batch-mean sum SE and its gradients w.r.t. (Re G, Im G)."""
    g = np.asarray(couplings, dtype=complex)
    n, k, _ = g.shape
    ap = np.asarray(user_apertures, dtype=float)
    gamma, denom = _sinr_terms(g, ap, noise_vars)
    loss = -float(np.sum(np.log1p(gamma)) / (_LN2 * n))
    idx = np.arange(k)
    coef = np.zeros((n, k, k))
    inv = 1.0 / ((1.0 + gamma) * denom)
    coef += (gamma * inv)[:, :, None] * ap[None, None, :] / (_LN2 * n)
    coef[:, idx, idx] = -inv * ap[None, :] / (_LN2 * n)
    return loss, 2.0 * coef * g.real, 2.0 * coef * g.imag


def _pair_projection_backward(g_re_bar, g_im_bar, weights, scale, total):
    g_re = scale[:, None, None] * g_re_bar
    g_im = scale[:, None, None] * g_im_bar
    dl_ds = (np.sum(g_re_bar * weights.real, axis=(1, 2))
             + np.sum(g_im_bar * weights.imag, axis=(1, 2)))
    return g_re, g_im, dl_ds * (-scale / (2.0 * total))


def pair_surrogate_chain(policy, proj, value, positions, user_apertures,
                         noise_vars, power_budget):
    """(loss, policy gradients) of the policy -> ProjNet -> ValueNet chain,
    with full (``wrt="both"``) backward passes through the frozen surrogates."""
    a_raw, cache_p = pair_forward(policy, positions)
    powers, cache_proj = pair_forward(proj, positions, a_raw)
    total = powers.sum(axis=1)
    scale = np.sqrt(power_budget / total)
    couplings, cache_v = pair_forward(value, positions,
                                      a_raw * scale[:, None, None])
    loss, g_re_c, g_im_c = pair_policy_loss_grad(couplings, user_apertures,
                                                 noise_vars)
    _, g_re_bar, g_im_bar = pair_backward(value, cache_v, g_re_c, g_im_c)
    g_re, g_im, dl_dtotal = _pair_projection_backward(g_re_bar, g_im_bar,
                                                      a_raw, scale, total)
    grad_powers = np.repeat(dl_dtotal[:, None], powers.shape[1], axis=1)
    _, g_re_p, g_im_p = pair_backward(proj, cache_proj, grad_powers)
    grads, _, _ = pair_backward(policy, cache_p, g_re + g_re_p, g_im + g_im_p,
                                wrt="params")
    return loss, grads


def full_cache_surrogate_maps(proj, value, positions):
    """The (powers, couplings) integral-map pair of the surrogate chain, each
    map keeping its full forward cache for its ``wrt="inputs"`` backward."""
    def powers(a):
        p, cache = proj_forward(proj, positions, a)
        return p, lambda grad: proj_backward(proj, cache, grad, wrt="inputs")[1]

    def couplings(a, scale):
        g, cache = value_forward(value, positions, a * scale[:, None, None])
        return g, lambda grad: value_backward(value, cache, grad,
                                              wrt="inputs")[1]
    return powers, couplings


def pair_analytic_chain(policy, positions, coupling_grams, user_apertures,
                        noise_vars, power_budget):
    """(loss, policy gradients) of the policy through the exact Gram forms."""
    a_raw, cache_p = pair_forward(policy, positions)
    c = np.asarray(coupling_grams, dtype=complex)
    ca = c @ a_raw
    total = np.sum(np.conj(a_raw) * ca, axis=1).real.sum(axis=1)
    scale = np.sqrt(power_budget / total)
    loss, g_re_c, g_im_c = pair_policy_loss_grad(ca * scale[:, None, None],
                                                 user_apertures, noise_vars)
    g_bar = c @ (g_re_c + 1j * g_im_c)
    g_re, g_im, dl_dtotal = _pair_projection_backward(
        g_bar.real, g_bar.imag, a_raw, scale, total)
    g_re += 2.0 * dl_dtotal[:, None, None] * ca.real
    g_im += 2.0 * dl_dtotal[:, None, None] * ca.imag
    grads, _, _ = pair_backward(policy, cache_p, g_re, g_im, wrt="params")
    return loss, grads


def pair_supervised_grad(model, positions, weights, targets):
    """(loss, parameter gradients) of one supervised batch: the mean over
    samples of the summed squared output error, in units of out_scale."""
    pred, cache = pair_forward(model, positions, weights)
    out_scale = model.norm("out_scale")
    err = (pred - targets) / out_scale
    loss = float(np.sum(err.real ** 2 + err.imag ** 2) / len(pred))
    denom = out_scale * len(pred)
    if model.spec.kind == "proj":
        grads, _, _ = pair_backward(model, cache, 2.0 * err / denom, wrt="params")
    else:
        grads, _, _ = pair_backward(model, cache, 2.0 * err.real / denom,
                                    2.0 * err.imag / denom, wrt="params")
    return loss, grads


def finite_diff_check(loss_fn, params, grads, probes=200, seed=0):
    """Max relative error between analytic and central-difference gradients.

    Probes random parameters with step 1e-6 * max(1, |w|); probes whose
    difference quotient is cancellation-limited at that step are re-measured
    at 1e-5 * max(1, |w|) and the better of the two is kept (a genuinely
    wrong adjoint disagrees at every step, so the detector stays sharp).
    Relative error uses a max(|analytic|, |numeric|, 1e-12) denominator.
    """
    rng = np.random.default_rng(seed)
    arrays = list(params.iter_arrays())
    garrays = dict(grads.iter_arrays())
    worst = 0.0
    for _ in range(probes):
        name, arr = arrays[rng.integers(len(arrays))]
        idx = tuple(int(rng.integers(s)) for s in arr.shape)
        w0 = arr[idx]
        analytic = garrays[name][idx]
        best = np.inf
        for step_scale in (1e-6, 1e-5):
            step = step_scale * max(1.0, abs(w0))
            arr[idx] = w0 + step
            up = loss_fn()
            arr[idx] = w0 - step
            down = loss_fn()
            arr[idx] = w0
            numeric = (up - down) / (2.0 * step)
            denom = max(abs(analytic), abs(numeric), 1e-12)
            best = min(best, abs(analytic - numeric) / denom)
            if best <= 1e-6:
                break
        worst = max(worst, best)
    return worst
