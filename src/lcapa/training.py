"""Dataset generation, surrogate training, and policy training.

Three-stage procedure: the power net (ProjNet) and coupling net (ValueNet)
are trained supervised against quadrature targets; the policy net is then
trained unsupervised by back-propagating the negated sum-SE through one
policy chain (positions -> weights -> powers -> projection -> couplings ->
SE).  The two modes differ only in the chain's two integral maps, powers and
couplings: the frozen surrogates in ``surrogate`` mode, the exact Gram forms
p = a^H C a and G = C A-bar in ``analytic`` mode (a reference that
quantifies surrogate fidelity).  Exact evaluation uses the same Gram maps.
The frozen surrogates back-propagate to their inputs only, so the chain
keeps only the signs of their hidden activations (a sign-only
:class:`~lcapa.gnn.GnnCache`) and the policy's full cache.
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
from dataclasses import asdict, dataclass, field

import numpy as np

from .gnn import PARAM_NAMES, GnnSpec, init_params, sign_only_cache, zero_params
from .heads import (
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
from .scene import USER_R_MAX, Scene, sample_scene, square_aperture

CHECKPOINT_VERSION = 1
VALIDATION_FRACTION = 0.1   # share of a supervised dataset held out


class CheckpointError(RuntimeError, ValueError):
    """Raised for unreadable, mismatched, or corrupt checkpoint files."""


class DegenerateBatchError(RuntimeError):
    """Raised when the projection denominator is non-positive for a batch."""


@dataclass
class SupervisedDataset:
    """Stacked supervised samples for one surrogate.

    Sample i has user positions ``positions[i]`` (K, 3) and weights
    ``weights[i]`` (K, K); ``targets[i]`` holds its K powers in ``proj``
    mode and its (K, K) couplings in ``value`` mode.
    """

    mode: str
    positions: np.ndarray
    weights: np.ndarray
    targets: np.ndarray
    root_seed: int

    def __len__(self):
        return len(self.positions)


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

    def to_dict(self) -> dict:
        """The report as JSON values: a NaN or infinite float (the eval
        curve with nothing held out, the loss of an all-skipped epoch)
        becomes None, so the record is standard JSON (RFC 8259)."""
        return _finite_or_none(asdict(self))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, allow_nan=False)


def _finite_or_none(value):
    """``value`` with every non-finite float in its dicts and lists None."""
    if isinstance(value, float):        # np.float64 is a float too
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_none(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    return value


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
    return SupervisedDataset(mode=mode, positions=positions, weights=a,
                             targets=targets, root_seed=seed)


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
    non-finite loss raises ``RuntimeError``.  An epoch's recorded loss is the
    mean over the batches it took, NaN when it skipped every batch (a loss
    of 0 would read as a perfect epoch).  After every epoch ``score()`` is
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
        report.loss_curve.append(epoch_loss / n_batches if n_batches else np.nan)
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
                     hyper: TrainHyper, seed: int) -> tuple[GnnModel, TrainReport]:
    """Minimize the mean (over samples) summed squared output error.

    The last ``round(VALIDATION_FRACTION * n)`` of the n samples are held
    out; returns the parameters with the best validation NMSE seen (the last
    parameters, and a ``validation_nmse`` of None, when nothing is held out).
    """
    if dataset.mode not in ("proj", "value"):
        raise ValueError("dataset mode must be proj or value")
    if (dataset.mode == "proj") != (spec.kind == "proj"):
        raise ValueError("dataset mode does not match network kind")

    start = time.perf_counter()
    norms = {"pos_scale": USER_R_MAX, "a_scale": _rms(dataset.weights),
             "out_scale": _rms(dataset.targets)}
    model = GnnModel(spec=spec, params=init_params(spec, seed), norms=norms)
    out_scale = model.norm("out_scale")
    forward = {"proj": proj_forward, "value": value_forward}[dataset.mode]
    pos, weights, targets = dataset.positions, dataset.weights, dataset.targets
    n_train = len(dataset) - int(round(VALIDATION_FRACTION * len(dataset)))
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


# -- the policy chain ---------------------------------------------------------

POLICY_MODES = ("surrogate", "analytic")


def _surrogate_maps(proj: GnnModel, value: GnnModel, positions: np.ndarray):
    """ProjNet and ValueNet as the chain's two integral maps, back-propagating
    to their inputs only, from the sign-only cache of each forward pass."""
    def powers(a):
        p, cache = proj_forward(proj, positions, a)
        cache = sign_only_cache(cache)
        return p, lambda grad: proj_backward(proj, cache, grad, wrt="inputs")[1]

    def couplings(a, scale):
        g, cache = value_forward(value, positions, a * scale[:, None, None])
        cache = sign_only_cache(cache)
        return g, lambda grad: value_backward(value, cache, grad,
                                              wrt="inputs")[1]
    return powers, couplings


def _gram_maps(coupling_grams: np.ndarray):
    """The exact Gram forms as the chain's two integral maps: p_k = a_k^H C a_k
    and G = (C A) s.  C is Hermitian, as :func:`~lcapa.quadrature.gram_pair`
    builds it, so dL/dA = 2 (C A) diag(dL/dp) and dL/d(s A) = C dL/dG."""
    c = np.asarray(coupling_grams, dtype=complex)

    def powers(a):
        ca = c @ a
        return _power_form(a, ca).real, lambda grad: 2.0 * grad[:, None, :] * ca

    def couplings(a, scale):
        # C A again, bit for bit, so that neither map holds the other's state
        return (c @ a) * scale[:, None, None], lambda grad: c @ grad
    return powers, couplings


def _exact_projection(a_raw: np.ndarray, coupling_grams: np.ndarray,
                      power_budget: float):
    """(powers, s, couplings) of raw weights through the Gram maps, with
    s = sqrt(budget / sum_k p_k), or 0 (so zero couplings and SE 0) for
    weights that carry no power."""
    powers, couplings = _gram_maps(coupling_grams)
    p, _ = powers(a_raw)
    total = p.sum(axis=1)
    live = total > 0.0
    scale = np.where(live, np.sqrt(power_budget / np.where(live, total, 1.0)),
                     0.0)
    return p, scale, couplings(a_raw, scale)[0]


def _chain_loss_and_grads(policy: GnnModel, positions: np.ndarray, powers,
                          couplings, user_apertures: np.ndarray,
                          noise_vars: np.ndarray, power_budget: float):
    """(loss, policy parameter grads) of the one policy chain: positions -> A
    -> p(A) -> s = sqrt(P / sum_k p_k) -> G(A, s) -> negated sum SE.

    ``powers(A)`` gives the (N, K) powers and ``couplings(A, s)`` the
    (N, K, K) couplings of the projected weights s A; each also returns its
    backward, dL/dp -> dL/dA and dL/dG -> dL/d(s A).  A batch whose total
    power is not positive raises :class:`DegenerateBatchError`.
    """
    a_raw, cache = policy_forward(policy, positions)
    p, powers_backward = powers(a_raw)
    total = p.sum(axis=1)
    if np.any(total <= 0.0):
        raise DegenerateBatchError("non-positive total power")
    scale = np.sqrt(power_budget / total)
    g, couplings_backward = couplings(a_raw, scale)
    loss, grad_g = policy_loss_grad(g, user_apertures, noise_vars)
    # s A: s dL/d(s A) directly, and dL/ds ds/dtotal through every power
    grad_bar = couplings_backward(grad_g)
    dl_ds = (np.sum(grad_bar.real * a_raw.real, axis=(1, 2))
             + np.sum(grad_bar.imag * a_raw.imag, axis=(1, 2)))
    dl_dtotal = dl_ds * (-scale / (2.0 * total))
    grad_p = powers_backward(np.repeat(dl_dtotal[:, None], p.shape[1], axis=1))
    return loss, policy_backward(policy, cache,
                                 scale[:, None, None] * grad_bar + grad_p)


def surrogate_chain_loss_and_grads(policy: GnnModel, proj: GnnModel,
                                   value: GnnModel, positions: np.ndarray,
                                   user_apertures: np.ndarray,
                                   noise_vars: np.ndarray,
                                   power_budget: float):
    """The policy chain through the frozen surrogates: (loss, policy grads)."""
    return _chain_loss_and_grads(policy, positions,
                                 *_surrogate_maps(proj, value, positions),
                                 user_apertures, noise_vars, power_budget)


def analytic_chain_loss_and_grads(policy: GnnModel, positions: np.ndarray,
                                  coupling_grams: np.ndarray,
                                  user_apertures: np.ndarray,
                                  noise_vars: np.ndarray, power_budget: float):
    """The policy chain through the exact Gram forms of the per-scene coupling
    Grams, the reference for surrogate fidelity: (loss, policy grads)."""
    return _chain_loss_and_grads(policy, positions, *_gram_maps(coupling_grams),
                                 user_apertures, noise_vars, power_budget)


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
    *_, couplings = _exact_projection(a_raw, pool.coupling_grams, power_budget)
    return sum_se(sinr_vector(couplings, user_apertures, noise_vars)).sum_se


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
        norms = {"pos_scale": USER_R_MAX, "a_scale": a_nat, "out_scale": a_nat}

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
        a_raw = policy_forward(policy, eval_pool.positions)[0]
        powers, scale, couplings = _exact_projection(
            a_raw, eval_pool.coupling_grams, power_budget)
        p_hat, g_hat = _surrogate_maps(proj_model, value_model,
                                       eval_pool.positions)
        report.final_metrics["proj_nmse_on_policy_outputs"] = normalized_mse(
            p_hat(a_raw)[0], powers)
        report.final_metrics["value_nmse_on_policy_outputs"] = normalized_mse(
            g_hat(a_raw, scale)[0], couplings)

    report.wall_clock_seconds = time.perf_counter() - start
    return policy, report


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
        ', "report": ' + json.dumps(report.to_dict(), allow_nan=False) + "}")
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
    try:
        return GnnModel(spec=spec, params=params, norms=norms)
    except ValueError as exc:
        raise CheckpointError(str(exc)) from exc
