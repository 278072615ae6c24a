"""Dataset generation, surrogate training, and policy training.

Three-stage procedure: the power net (ProjNet) and coupling net (ValueNet)
are trained supervised against quadrature targets; the policy net is then
trained unsupervised by back-propagating the negated sum-SE through the
frozen surrogates (``surrogate`` mode) or through the exact Gram forms
(``analytic`` mode, a reference chain that quantifies surrogate fidelity).
All three networks go through one epoch loop (per-epoch seeded shuffles,
mini-batch Adam, a divergence check, the best held-out snapshot); the
trainers differ only in the batch loss and the held-out score they hand it.
Evaluation always goes through the exact quadrature path; the coupling
surrogate is never used to score a policy.  The loss, SINR and SE are
:mod:`lcapa.objective`'s; the chains here carry the weights to couplings.

Scene pools and supervised datasets are stacked: only each sample's random
draws run in a per-sample loop, and the channels, Grams, powers and targets
of all samples come from stacked array calls (the channels and Grams a
bounded chunk of scenes at a time), bit-identical to building each sample
on its own.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .gnn import PARAM_NAMES, GnnParams, GnnSpec, init_params, zero_params
from .heads import (
    HEAD_NORMS,
    GnnModel,
    policy_backward,
    policy_forward,
    proj_backward,
    proj_forward,
    value_backward,
    value_forward,
)
from .objective import policy_loss_grad, sinr_vector, sum_se
from .optim import Adam
# gram_pair is unused here but stays bound: profilers patch it by this name
from .quadrature import (  # noqa: F401
    _power_form,
    build_grid,
    coupling_grams,
    gram_pair,
    integral_couplings,
    integral_power,
)
from .scene import Scene, sample_scene, square_aperture

CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError, ValueError):
    """Raised for unreadable, mismatched, or corrupt checkpoint files."""


class DegenerateBatchError(RuntimeError):
    """Raised when the projection denominator is non-positive for a batch."""


@dataclass
class SupervisedDataset:
    """Stacked supervised samples for one surrogate.

    Sample i is ``scenes[i]`` with ``positions[i]`` (K, 3) and
    ``weights[i]`` (K, K); ``targets[i]`` holds its K powers in ``proj``
    mode and its (K, K) couplings in ``value`` mode.
    """

    mode: str
    scenes: list[Scene]
    positions: np.ndarray
    weights: np.ndarray
    targets: np.ndarray
    root_seed: int

    def __len__(self):
        return len(self.scenes)


@dataclass(frozen=True)
class TrainHyper:
    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: int = 200
    num_nodes: int = 256
    num_train: int = 2000
    lr_decay: float = 1.0       # multiplicative, applied every lr_decay_every epochs
    lr_decay_every: int = 50

    def __post_init__(self):
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(f"learning rate must be positive and finite, "
                             f"got {self.learning_rate!r}")
        for name in ("batch_size", "epochs", "num_train", "lr_decay_every"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")
        if not (0.0 < self.lr_decay <= 1.0):
            raise ValueError("lr_decay must lie in (0, 1]")

    def lr_at(self, epoch: int) -> float:
        return self.learning_rate * self.lr_decay ** (epoch // self.lr_decay_every)


@dataclass
class TrainReport:
    loss_curve: list[float] = field(default_factory=list)
    eval_curve: list[float] = field(default_factory=list)
    best_epoch: int = -1
    final_metrics: dict = field(default_factory=dict)
    wall_clock_seconds: float = 0.0
    seeds: dict = field(default_factory=dict)
    skipped_batches: int = 0

    def to_json(self) -> str:
        return json.dumps({
            "loss_curve": self.loss_curve,
            "eval_curve": self.eval_curve,
            "best_epoch": self.best_epoch,
            "final_metrics": self.final_metrics,
            "wall_clock_seconds": self.wall_clock_seconds,
            "seeds": self.seeds,
            "skipped_batches": self.skipped_batches,
        }, indent=1)


# -- scene pools and supervised datasets --------------------------------------

def _sample_rng(root_seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([root_seed, index]))


def _sampled_scenes(seed: int, count: int, num_users: int, aperture,
                    zeta: float, power_budget: float):
    """Yield (rng, scene) for samples 0..count-1 of one seed.

    Sample i draws its scene from the stream ``SeedSequence([seed, i])``; the
    stream is yielded past that draw so a caller may draw more per-sample data
    from it.
    """
    for i in range(count):
        rng = _sample_rng(seed, i)
        yield rng, sample_scene(int(rng.integers(2 ** 31)), num_users,
                                aperture=aperture, zeta=zeta,
                                power_budget=power_budget)


def _pool_grams(scenes: list[Scene], num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (N, K, 3) positions and (N, K, K) coupling Grams of scenes that
    share one aperture and one set of constants, on their M-node grid."""
    positions = np.stack([s.positions for s in scenes])
    grid = build_grid(scenes[0].aperture, num_nodes)
    return positions, coupling_grams(positions, grid, scenes[0].constants)


def gen_supervised_dataset(seed: int, count: int, num_users: int, num_nodes: int,
                           mode: str, zeta: float = 1e6,
                           aperture_area: float = 4.0,
                           power_budget: float = 1.0) -> SupervisedDataset:
    """Supervised samples for one surrogate.

    Each sample holds a fresh scene and a random complex-Gaussian weight
    matrix, globally rescaled so its exact total power is log-uniform in
    [0.1, 10] x budget (the operating range of the projection).  ``value``
    mode additionally projects the weights exactly onto the power budget and
    targets the coupling matrix; ``proj`` mode targets the per-user powers of
    the unprojected weights.  The scenes are those of
    ``ScenePool.generate`` with the same seed.

    Sample i reads its stream in the order: scene seed, raw weights (real
    parts, then imaginary parts), target total.  Grams, powers, the
    projection and the targets are then stacked calls over all samples, each
    bit-identical to the same steps taken sample by sample.
    """
    if mode not in ("proj", "value"):
        raise ValueError(f"unknown dataset mode {mode!r}")
    scenes, raws, target_totals = [], [], []
    for rng, scene in _sampled_scenes(seed, count, num_users,
                                      square_aperture(aperture_area), zeta,
                                      power_budget):
        scenes.append(scene)
        raws.append(rng.standard_normal((num_users, num_users))
                    + 1j * rng.standard_normal((num_users, num_users)))
        target_totals.append(power_budget * 10.0 ** rng.uniform(-1.0, 1.0))
    positions, coupling = _pool_grams(scenes, num_nodes)
    raw = np.stack(raws)
    total = integral_power(raw, coupling).sum(axis=-1)
    a = raw * np.sqrt(np.array(target_totals) / total)[:, None, None]
    powers = integral_power(a, coupling)
    if mode == "proj":
        targets = powers
    else:
        # project_weights, sample by sample
        a = a * np.sqrt(power_budget / powers.sum(axis=-1))[:, None, None]
        targets = integral_couplings(a, coupling)
    return SupervisedDataset(mode=mode, scenes=scenes, positions=positions,
                             weights=a, targets=targets, root_seed=seed)


@dataclass
class ScenePool:
    """Precomputed scenes and their coupling Grams on the training grid.

    The Grams are built as one stack over the pool (see
    :func:`~lcapa.quadrature.coupling_grams`), each bit-identical to the
    scene's own ``gram_pair(channel_matrix(scene, grid).h, ...)``.
    """

    scenes: list[Scene]
    positions: np.ndarray
    coupling_grams: np.ndarray

    @classmethod
    def generate(cls, seed: int, count: int, num_users: int, num_nodes: int,
                 zeta: float, aperture_area: float = 4.0,
                 power_budget: float = 1.0) -> "ScenePool":
        scenes = [scene for _, scene in _sampled_scenes(
            seed, count, num_users, square_aperture(aperture_area), zeta,
            power_budget)]
        positions, grams = _pool_grams(scenes, num_nodes)
        return cls(scenes=scenes, positions=positions, coupling_grams=grams)


# -- the epoch loop -----------------------------------------------------------

def _train_epochs(model: GnnModel, hyper: TrainHyper, seed: int, tag: int,
                  count: int, batch_loss, score, maximize: bool,
                  report: TrainReport) -> float | None:
    """The epoch loop of every trainer; returns the best held-out score.

    Each epoch sets the scheduled learning rate, permutes the sample indices
    0..count-1 with the stream ``SeedSequence([seed, tag + epoch])`` and takes
    one Adam step per mini-batch on ``batch_loss(idx) -> (loss, grads)``.  A
    batch that raises :class:`DegenerateBatchError` is counted and skipped; a
    non-finite loss raises ``RuntimeError``.  After every epoch ``score()`` is
    recorded, and the parameters with the best finite score (the lowest, or
    the highest when ``maximize``) are restored on exit.  When no score is
    finite the last parameters stay, and None is returned.
    """
    opt = Adam(model.params, lr=hyper.learning_rate)
    best = best_params = None
    for epoch in range(hyper.epochs):
        opt.lr = hyper.lr_at(epoch)
        order = np.random.default_rng(
            np.random.SeedSequence([seed, tag + epoch])).permutation(count)
        epoch_loss, n_batches = 0.0, 0
        for lo in range(0, count, hyper.batch_size):
            try:
                loss, grads = batch_loss(order[lo:lo + hyper.batch_size])
            except DegenerateBatchError:
                report.skipped_batches += 1
                continue
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"training diverged at epoch {epoch} (loss={loss})")
            opt.step(grads)
            epoch_loss += loss
            n_batches += 1
        report.loss_curve.append(epoch_loss / max(n_batches, 1))
        val = score()
        report.eval_curve.append(val)
        if np.isfinite(val) and (best is None
                                 or (val > best if maximize else val < best)):
            best, best_params = val, model.params.copy()
            report.best_epoch = epoch
    if best_params is not None:
        model.params = best_params
    return best


# -- supervised training ------------------------------------------------------

def _rms(x: np.ndarray) -> float:
    """Root of the mean over samples of each sample's mean |x|^2."""
    sq = np.abs(x) ** 2
    return float(np.sqrt(np.mean(sq.reshape(len(sq), -1).mean(axis=1))))


def normalized_mse(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Squared error normalized by target energy (scale-free fidelity)."""
    num = np.sum(np.abs(predictions - targets) ** 2)
    den = np.sum(np.abs(targets) ** 2)
    return float(num / den)


def train_supervised(spec: GnnSpec, dataset: SupervisedDataset,
                     hyper: TrainHyper, seed: int,
                     validation_fraction: float = 0.1
                     ) -> tuple[GnnModel, TrainReport]:
    """Minimize the mean (over samples) summed squared output error.

    The last ``validation_fraction`` of the samples is held out; returns the
    parameters with the best validation NMSE seen (the last parameters, and
    a ``validation_nmse`` of None, when nothing is held out).
    """
    if dataset.mode not in ("proj", "value"):
        raise ValueError("dataset mode must be proj or value")
    if (dataset.mode == "proj") != (spec.kind == "proj"):
        raise ValueError("dataset mode does not match network kind")

    start = time.perf_counter()
    norms = {"pos_scale": 30.0, "a_scale": _rms(dataset.weights),
             "out_scale": _rms(dataset.targets)}
    model = GnnModel(spec=spec, params=init_params(spec, seed), norms=norms)
    out_scale = model.norm("out_scale")
    forward = {"proj": proj_forward, "value": value_forward}[dataset.mode]
    pos, weights, targets = dataset.positions, dataset.weights, dataset.targets
    n_train = len(dataset) - int(round(validation_fraction * len(dataset)))
    held_out = slice(n_train, None)

    def batch_loss(idx):
        pred, cache = forward(model, pos[idx], weights[idx])
        err = (pred - targets[idx]) / out_scale
        loss = float(np.sum(err.real ** 2 + err.imag ** 2) / len(idx))
        denom = out_scale * len(idx)
        if dataset.mode == "proj":
            grads, _ = proj_backward(model, cache, 2.0 * err / denom,
                                     wrt="params")
        else:
            # numpy's complex / real multiplies by a reciprocal, which
            # rounds differently: divide each part through the float view
            grad = 2.0 * err
            pairs = grad.view(float)
            pairs /= denom
            grads, _ = value_backward(model, cache, grad, wrt="params")
        return loss, grads

    def validation_nmse():
        if n_train == len(dataset):
            return float("nan")
        pred, _ = forward(model, pos[held_out], weights[held_out])
        return normalized_mse(pred, targets[held_out])

    report = TrainReport(seeds={"init": seed, "dataset": dataset.root_seed})
    report.final_metrics["validation_nmse"] = _train_epochs(
        model, hyper, seed, 7, n_train, batch_loss, validation_nmse,
        maximize=False, report=report)
    report.wall_clock_seconds = time.perf_counter() - start
    return model, report


# -- policy chains ------------------------------------------------------------

POLICY_MODES = ("surrogate", "analytic")


@dataclass(frozen=True)
class GramForward:
    """The exact Gram-domain forward pass of a batch of raw weight matrices.

    With C the coupling Grams and A the raw weights, all (N, K, K):
    ``ca`` = C A, ``powers`` p_k = a_k^H C a_k (N, K), ``total`` their sum,
    ``scale`` = sqrt(budget / total) (0 where total <= 0), ``a_bar`` = scale A
    and ``couplings`` G = C A_bar.  Weights carrying no power have scale 0,
    hence zero couplings and SE 0.
    """

    ca: np.ndarray
    powers: np.ndarray
    total: np.ndarray
    scale: np.ndarray
    a_bar: np.ndarray
    couplings: np.ndarray

    @classmethod
    def evaluate(cls, a_raw: np.ndarray, coupling_grams: np.ndarray,
                 power_budget: float) -> "GramForward":
        ca = np.asarray(coupling_grams, dtype=complex) @ a_raw
        powers = _power_form(a_raw, ca).real
        total = powers.sum(axis=1)
        live = total > 0.0
        scale = np.where(live, np.sqrt(power_budget / np.where(live, total, 1.0)),
                         0.0)
        return cls(ca=ca, powers=powers, total=total, scale=scale,
                   a_bar=a_raw * scale[:, None, None],
                   couplings=ca * scale[:, None, None])


def _projection_chain_backward(grad_bar, weights, scale, total_power):
    """Back-prop through A_bar = s(A) * A given d loss / d A_bar.

    Returns the direct part (s * upstream) plus d loss/d s times d s/d
    total, so callers can add the power path.
    """
    grad = scale[:, None, None] * grad_bar
    dl_ds = (np.sum(grad_bar.real * weights.real, axis=(1, 2))
             + np.sum(grad_bar.imag * weights.imag, axis=(1, 2)))
    ds_dtotal = -scale / (2.0 * total_power)
    return grad, dl_ds * ds_dtotal


def surrogate_chain_loss_and_grads(policy: GnnModel, proj: GnnModel,
                                   value: GnnModel, positions: np.ndarray,
                                   user_apertures: np.ndarray,
                                   noise_vars: np.ndarray,
                                   power_budget: float):
    """Loss of the full policy -> projection -> coupling chain, with exact
    gradients for the policy parameters only (the surrogates stay frozen).

    Returns (loss, policy parameter grads).
    """
    a_raw, cache_p = policy_forward(policy, positions)
    powers, cache_proj = proj_forward(proj, positions, a_raw)
    total = powers.sum(axis=1)
    if np.any(total <= 0.0):
        raise DegenerateBatchError("non-positive total power estimate")
    scale = np.sqrt(power_budget / total)
    a_bar = a_raw * scale[:, None, None]
    couplings, cache_v = value_forward(value, positions, a_bar)
    loss, grad_c = policy_loss_grad(couplings, user_apertures, noise_vars)

    _, grad_bar = value_backward(value, cache_v, grad_c, wrt="inputs")
    grad, dl_dtotal = _projection_chain_backward(grad_bar, a_raw, scale, total)
    grad_powers = np.repeat(dl_dtotal[:, None], powers.shape[1], axis=1)
    _, grad_p = proj_backward(proj, cache_proj, grad_powers, wrt="inputs")
    grads = policy_backward(policy, cache_p, grad + grad_p)
    return loss, grads


def analytic_chain_loss_and_grads(policy: GnnModel, positions: np.ndarray,
                                  coupling_grams: np.ndarray,
                                  user_apertures: np.ndarray,
                                  noise_vars: np.ndarray, power_budget: float):
    """Loss of the policy through the exact Gram forms, with policy grads.

    Powers and couplings come from the per-scene coupling Gram directly
    (p = a^H C a, G = C A-bar), giving a differentiable exact chain that
    upper-references the surrogate path.  C must be Hermitian, as
    :func:`~lcapa.quadrature.gram_pair` builds it.  Returns (loss, policy
    parameter grads).
    """
    a_raw, cache_p = policy_forward(policy, positions)
    c = np.asarray(coupling_grams, dtype=complex)
    fwd = GramForward.evaluate(a_raw, c, power_budget)
    if np.any(fwd.total <= 0.0):
        raise DegenerateBatchError("zero-power policy output")
    loss, grad_c = policy_loss_grad(fwd.couplings, user_apertures, noise_vars)
    # back through G = C A_bar: d loss / d A_bar = C^H (d loss / d G) = C (...)
    grad, dl_dtotal = _projection_chain_backward(c @ grad_c, a_raw, fwd.scale,
                                                 fwd.total)
    # power path: d total / d A = 2 C A
    grad += 2.0 * dl_dtotal[:, None, None] * fwd.ca
    grads = policy_backward(policy, cache_p, grad)
    return loss, grads


# -- policy training ----------------------------------------------------------

def exact_policy_se(policy: GnnModel, pool: ScenePool, power_budget: float,
                    user_apertures: np.ndarray, noise_vars: np.ndarray
                    ) -> np.ndarray:
    """Exact-quadrature sum SE of the policy on every scene in a pool.

    The emitted weights are projected with exact powers; the coupling
    surrogate plays no role here.  A scene whose weights carry no power
    scores 0.
    """
    a_raw, _ = policy_forward(policy, pool.positions)
    fwd = GramForward.evaluate(a_raw, pool.coupling_grams, power_budget)
    return sum_se(sinr_vector(fwd.couplings, user_apertures, noise_vars)).sum_se


def train_policy(spec: GnnSpec, proj_model: GnnModel | None,
                 value_model: GnnModel | None, pool: ScenePool,
                 eval_pool: ScenePool, hyper: TrainHyper, seed: int,
                 mode: str, power_budget: float = 1.0) -> tuple[GnnModel, TrainReport]:
    """Unsupervised policy training over a scene pool.

    ``surrogate`` mode chains through the frozen surrogates; ``analytic``
    mode substitutes the exact Gram forms.  Every epoch the exact evaluated
    SE on the held-out pool is recorded, and the best-evaluated parameters
    are returned (the last parameters, and a ``held_out_exact_se`` of None,
    when no epoch scores a finite SE).  Surrogate parameters are
    bit-identical on exit.
    """
    if mode not in POLICY_MODES:
        raise ValueError(f"unknown policy training mode {mode!r}")
    if mode == "surrogate" and (proj_model is None or value_model is None):
        raise ValueError("surrogate mode requires trained surrogates")

    start = time.perf_counter()
    scene0 = pool.scenes[0]
    user_ap = scene0.user_apertures()
    noise = scene0.noise_vars()

    if mode == "surrogate":
        norms = {"pos_scale": proj_model.norm("pos_scale"),
                 "a_scale": proj_model.norm("a_scale"),
                 "out_scale": proj_model.norm("a_scale")}
    else:
        # natural scale of projected weights on this pool
        c_diag = np.mean([np.trace(c).real / c.shape[0]
                          for c in pool.coupling_grams])
        a_nat = np.sqrt(power_budget / (scene0.num_users * c_diag))
        norms = {"pos_scale": 30.0, "a_scale": a_nat, "out_scale": a_nat}

    policy = GnnModel(spec=spec, params=init_params(spec, seed),
                      norms=norms)
    report = TrainReport(seeds={"init": seed})

    # the kernels reject a tree off its buffer: flat is all a surrogate reads
    frozen = None
    if mode == "surrogate":
        frozen = [m.params.flat.copy() for m in (proj_model, value_model)]

    def batch_loss(idx):
        if mode == "surrogate":
            return surrogate_chain_loss_and_grads(
                policy, proj_model, value_model, pool.positions[idx],
                user_ap, noise, power_budget)
        return analytic_chain_loss_and_grads(
            policy, pool.positions[idx], pool.coupling_grams[idx],
            user_ap, noise, power_budget)

    def held_out_se():
        return float(np.mean(exact_policy_se(policy, eval_pool, power_budget,
                                             user_ap, noise)))

    report.final_metrics["held_out_exact_se"] = _train_epochs(
        policy, hyper, seed, 13, len(pool.scenes), batch_loss, held_out_se,
        maximize=True, report=report)

    if frozen is not None:
        for saved, model in zip(frozen, (proj_model, value_model)):
            if not np.array_equal(saved, model.params.flat):
                raise AssertionError("frozen surrogate parameters changed")
        # surrogate fidelity on the policy's own outputs (diagnostic)
        a_raw, _ = policy_forward(policy, eval_pool.positions)
        fwd = GramForward.evaluate(a_raw, eval_pool.coupling_grams, power_budget)
        p_hat, _ = proj_forward(proj_model, eval_pool.positions, a_raw)
        report.final_metrics["proj_nmse_on_policy_outputs"] = normalized_mse(
            p_hat, fwd.powers)
        g_hat, _ = value_forward(value_model, eval_pool.positions, fwd.a_bar)
        report.final_metrics["value_nmse_on_policy_outputs"] = normalized_mse(
            g_hat, fwd.couplings)

    report.wall_clock_seconds = time.perf_counter() - start
    return policy, report


# -- gradient checking --------------------------------------------------------

def finite_diff_check(loss_fn, params: GnnParams, grads: GnnParams,
                      probes: int = 200, seed: int = 0) -> float:
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


# -- checkpoints --------------------------------------------------------------

def save_checkpoint(model: GnnModel, path: str, report: TrainReport | None = None,
                    seed_lineage: dict | None = None) -> None:
    """Write the model as one JSON record.

    The record is streamed: its head, then each parameter array of each
    layer, then the report, each encoded by one ``json.dumps`` call (the C
    encoder).  That encoder holds a string per number until it joins them,
    so only one array's numbers are held as text at a time.  The bytes are
    those ``json.dump`` writes for the whole record.
    """
    head = json.dumps({
        "record": "gnn_checkpoint",
        "format_version": CHECKPOINT_VERSION,
        "spec": model.spec.to_dict(),
        "norms": model.norms,
        "seed_lineage": seed_lineage or {},
    })
    tail = "}" if report is None else (
        ', "report": ' + json.dumps(json.loads(report.to_json())) + "}")
    with open(path, "w") as fh:
        fh.write(head[:-1] + ', "layers": [')
        for t, lp in enumerate(model.params.layers):
            fh.write(", {" if t else "{")
            for i, name in enumerate(PARAM_NAMES):
                arr = getattr(lp, name)
                value = None if arr is None else {
                    "shape": list(arr.shape), "data": arr.ravel().tolist()}
                fh.write((", " if i else "") + json.dumps(name) + ": "
                         + json.dumps(value))
            fh.write("}")
        fh.write("]" + tail)


def load_checkpoint(path: str) -> GnnModel:
    """Read a model written by :func:`save_checkpoint`.  Any fault of the
    file (unreadable, another format, a missing, mistyped, misshapen or
    unknown array, an invalid spec, a non-finite parameter, a missing norm
    its head reads or a norm that is not positive and finite) raises
    :class:`CheckpointError`, which is a ``ValueError`` too, as an invalid
    spec used to raise."""
    try:
        with open(path) as fh:
            rec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(rec, dict) or rec.get("record") != "gnn_checkpoint":
        raise CheckpointError("not a checkpoint file")
    if rec.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {rec.get('format_version')}")
    try:
        spec = GnnSpec.from_dict(rec["spec"])
        layers = [{name: None if entry.get(name) is None else
                   np.asarray(entry[name]["data"], dtype=float).reshape(
                       entry[name]["shape"])
                   for name in PARAM_NAMES} for entry in rec["layers"]]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: "
                              f"{type(exc).__name__}: {exc}") from exc
    if len(layers) != spec.transitions:
        raise CheckpointError("layer count does not match spec")
    params = zero_params(spec)
    for t, (entry, arrays, shapes, lp) in enumerate(
            zip(rec["layers"], layers, params.layout, params.layers)):
        # an earlier format wrote null for an array no spec has now
        unknown = [name for name, value in entry.items()
                   if name not in arrays and value is not None]
        if unknown:
            raise CheckpointError(f"layer {t} has unknown array {unknown[0]}")
        for (name, arr), shape in zip(arrays.items(), shapes):
            if arr is None:
                if shape is not None:
                    raise CheckpointError(f"missing array {name} in layer {t}")
            elif arr.shape != shape:
                raise CheckpointError(
                    f"layer {t} array {name} has shape {arr.shape}, "
                    f"spec requires {shape}")
            elif not np.isfinite(arr).all():
                raise CheckpointError(f"layer {t} array {name} is not finite")
            else:
                getattr(lp, name)[...] = arr
    norms = rec.get("norms")
    if not isinstance(norms, dict):
        raise CheckpointError("checkpoint norms are not a mapping")
    for name in HEAD_NORMS[spec.kind]:
        if name not in norms:
            raise CheckpointError(f"missing norm {name}")
    for name, value in norms.items():
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not 0.0 < value < math.inf):
            raise CheckpointError(f"norm {name} must be positive and finite, "
                                  f"got {value!r}")
    return GnnModel(spec=spec, params=params, norms=norms)
