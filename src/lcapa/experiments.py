"""Paired sweep and timing experiments with reproducible CSV outputs.

Every result file embeds, as ``#``-prefixed header comments, the config
fields that produced it: the row of :data:`FIELDS_READ` for the command or
kind that wrote it, seeds included.  A field the file does not record was not
read, so re-running the embedded config regenerates the file.  Learned and
baseline methods are always evaluated on identical test scenes.

Every kind but ``timing`` runs through one loop: it turns the config into a
list of points ``(x, {method: per-scene sum SE})`` and writes
``<kind>_scenes.csv`` (rows in the order point, scene, method) and
``<kind>_summary.csv`` (point, method) from that list.  The points are

* ``single``: one point, ``x`` empty, with ``lcapa-gnn`` then ``wmmse``;
* ``sweep-snr``, ``sweep-aperture``, ``sweep-ntr``: one point per value of
  ``zeta_list``, ``aperture_list`` or ``ntr_list``, each with its own policy
  and test scenes, and ``lcapa-gnn`` then ``wmmse`` (WMMSE at ``num_nodes``);
  a point is the config with the value in place (``dataclasses.replace``),
  so each function below reads its setting from the one config it is given;
* ``sweep-m``: ``lcapa-gnn`` once at ``x = num_nodes``, then ``wmmse`` at each
  ``m`` of ``m_list``, all on the same test scenes.

Every SE is scored at ``num_nodes_eval``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .gnn import policy_spec, proj_spec, value_spec
from .heads import GnnModel, policy_forward, proj_forward
from .objective import project_weights
from .quadrature import build_grid
from .scene import Scene, square_aperture
from .training import (
    POLICY_MODES,
    ScenePool,
    TrainHyper,
    _pool_grams,
    _sampled_scenes,
    exact_policy_se,
    gen_supervised_dataset,
    load_checkpoint,
    save_checkpoint,
    train_policy,
    train_supervised,
)
from .wmmse import baseline_se

SWEEP_KINDS = ("sweep-ntr", "sweep-snr", "sweep-aperture", "sweep-m",
               "timing", "single")


class MissingCheckpointError(RuntimeError):
    pass


class CheckpointMismatchError(RuntimeError):
    """A found checkpoint holds another network than the config asks for."""


# The Python types each field annotation takes: a float field takes an int
# too, only a bool field takes a bool, and a tuple field takes a list too.
_FIELD_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool}


def _wrong_type(annotation: str, value) -> bool:
    """Whether ``value`` does not suit a field annotated ``annotation``."""
    if annotation.startswith("tuple["):
        element = annotation[len("tuple["):annotation.index(",")]
        return value is not None and (not isinstance(value, (list, tuple)) or any(
            _wrong_type(element, v) for v in value))
    return (isinstance(value, bool) != (annotation == "bool")
            or not isinstance(value, _FIELD_TYPES[annotation]))


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str = "single"
    num_users: int = 4
    zeta: float = 1e6
    zeta_list: tuple[float, ...] | None = None
    aperture_area: float = 4.0
    aperture_list: tuple[float, ...] | None = None
    num_nodes: int = 256
    m_list: tuple[int, ...] | None = None
    num_nodes_eval: int = 1024
    ntr_list: tuple[int, ...] | None = None
    power_budget: float = 1.0
    num_test_scenes: int = 100
    scene_seed: int = 9000
    init_seed: int = 0
    data_seed: int = 100
    num_train: int = 2000
    surrogate_epochs: int = 200
    policy_epochs: int = 200
    policy_lr: float = 1e-4
    supervised_lr: float = 1e-3
    batch_size: int = 64
    hidden: int = 64
    layers: int = 4
    policy_mode: str = "surrogate"
    train_inline: bool = False
    checkpoint_dir: str = "checkpoints"
    output_dir: str = "results"
    timing_scenes: int = 50
    timing_repeats: int = 3

    def __post_init__(self):
        # the types first: the range checks below compare numbers
        for f in fields(self):
            if _wrong_type(f.type, getattr(self, f.name)):
                raise ValueError(f"{f.name} must be of type {f.type}, "
                                 f"got {getattr(self, f.name)!r}")
        if self.kind not in SWEEP_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.policy_mode not in POLICY_MODES:
            raise ValueError(f"unknown policy mode {self.policy_mode!r}; "
                             f"choose one of {', '.join(POLICY_MODES)}")
        at_least = [(name, getattr(self, name), 1) for name in
                    ("batch_size", "surrogate_epochs", "policy_epochs",
                     "num_train", "num_users", "hidden", "num_test_scenes",
                     "timing_scenes", "timing_repeats")]
        at_least += [("ntr_list", v, 1) for v in self.ntr_list or ()]
        at_least += [(name, getattr(self, name), 0) for name in
                     ("scene_seed", "init_seed", "data_seed")]
        for name, value, low in at_least:
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value!r}")
        for m in (self.num_nodes, self.num_nodes_eval, *(self.m_list or ())):
            build_grid(square_aperture(), m)    # rejects an M it cannot split
        policy_spec(hidden=self.hidden, layers=self.layers)  # rejects layers < 2
        positive = [(name, getattr(self, name)) for name in
                    ("policy_lr", "supervised_lr", "zeta", "aperture_area",
                     "power_budget")]
        positive += [("zeta_list", v) for v in self.zeta_list or ()]
        positive += [("aperture_list", v) for v in self.aperture_list or ()]
        for name, value in positive:
            if not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {value!r}")
        swept = {"sweep-ntr": self.ntr_list, "sweep-snr": self.zeta_list,
                 "sweep-aperture": self.aperture_list, "sweep-m": self.m_list}
        lst = swept.get(self.kind)
        if self.kind in swept and not lst:
            raise ValueError(f"{self.kind} requires its swept list")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        # a JSON list is one of the tuple fields
        return cls(**{k: tuple(v) if isinstance(v, list) else v
                      for k, v in data.items()})

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))


# Each sweep kind's x column, and the config list it sweeps (None: one point).
_AXES = {"single": ("point", None), "sweep-snr": ("zeta", "zeta_list"),
         "sweep-aperture": ("aperture_area", "aperture_list"),
         "sweep-ntr": ("num_train", "ntr_list"), "sweep-m": ("m", "m_list")}


# The config fields each command and each experiment kind reads, built from
# these groups.  A command takes its row's fields as flags, and a result file
# records its row's fields only.
_SETTING = ("num_users", "zeta", "aperture_area", "power_budget", "num_nodes")
_SURROGATE_TRAINING = ("num_train", "data_seed", "init_seed", "batch_size",
                       "hidden", "layers", "surrogate_epochs", "supervised_lr")
# a surrogate-mode policy loads or trains its two surrogates
_POLICY_TRAINING = _SURROGATE_TRAINING + ("policy_epochs", "policy_lr",
                                          "policy_mode")
_EVALUATION = ("scene_seed", "num_test_scenes", "num_nodes_eval")
_TIMING = ("scene_seed", "timing_scenes", "timing_repeats")
_DIRS = ("checkpoint_dir", "output_dir")
# what scoring a policy reads: eval, and every kind but timing
_EVAL_READS = (*_SETTING, *_POLICY_TRAINING, "train_inline", *_EVALUATION,
               *_DIRS)
# the train commands always train inline, so they take no train_inline
_TRAIN_SURROGATE = frozenset((*_SETTING, *_SURROGATE_TRAINING, "checkpoint_dir"))

FIELDS_READ = {
    "train-proj": _TRAIN_SURROGATE,
    "train-value": _TRAIN_SURROGATE,
    "train-policy": frozenset((*_SETTING, *_POLICY_TRAINING, "checkpoint_dir")),
    "eval": frozenset(_EVAL_READS),
    "baseline": frozenset((*_SETTING, *_EVALUATION, "output_dir")),
    # a swept kind reads its list in place of the value the list overrides
    **{kind: frozenset(("kind", swept, *_EVAL_READS)) - {axis, None}
       for kind, (axis, swept) in _AXES.items()},
    "timing": frozenset(("kind", *_SETTING, *_POLICY_TRAINING, "train_inline",
                         *_TIMING, *_DIRS)),
}


def checkpoint_path(config: ExperimentConfig, head: str) -> str:
    """One network's checkpoint file for the config's setting; only the
    policy's name holds the policy mode."""
    name = f"policy_{config.policy_mode}" if head == "policy" else head
    return os.path.join(config.checkpoint_dir,
                        f"{name}_k{config.num_users}_zeta{config.zeta:g}"
                        f"_area{config.aperture_area:g}_m{config.num_nodes}"
                        f"_ntr{config.num_train}.json")


# Each network's spec factory, and the offset of its data and init seeds
# from the config's.
_NETWORKS = {"proj": (proj_spec, 0), "value": (value_spec, 1),
             "policy": (policy_spec, 2)}


def network(config: ExperimentConfig, head: str) -> GnnModel:
    """Load or train one network of the config's (K, zeta, area, N_tr)
    setting; a sweep point is the config with its swept value in place.

    ``head`` is ``"proj"`` (the power surrogate), ``"value"`` (the coupling
    surrogate) or ``"policy"``; each has its own checkpoint.  A checkpoint
    found must hold a network of the config's spec.  Without one, the
    network is trained only under ``train_inline``, and saved with the seeds
    it was trained from.  A surrogate-mode policy gets its two surrogates
    through this same function.
    """
    factory, offset = _NETWORKS[head]
    spec = factory(hidden=config.hidden, layers=config.layers)
    path = checkpoint_path(config, head)
    if os.path.exists(path):
        model = load_checkpoint(path)
        if model.spec != spec:
            raise CheckpointMismatchError(
                f"checkpoint {path!r} holds {model.spec.to_dict()}, but the "
                f"config asks for {spec.to_dict()}")
        return model
    if not config.train_inline:
        raise MissingCheckpointError(
            f"missing {head} checkpoint {path!r}; run the train-{head} "
            f"subcommand first or pass --train-inline")
    seeds = {"data": config.data_seed + offset, "init": config.init_seed + offset}
    setting = dict(num_users=config.num_users, num_nodes=config.num_nodes,
                   zeta=config.zeta, aperture_area=config.aperture_area,
                   power_budget=config.power_budget)
    lr, epochs = ((config.policy_lr, config.policy_epochs) if head == "policy"
                  else (config.supervised_lr, config.surrogate_epochs))
    hyper = TrainHyper(learning_rate=lr, batch_size=config.batch_size,
                       epochs=epochs, lr_decay=0.5, lr_decay_every=50)
    if head == "policy":
        surrogates = [network(config, h)
                      if config.policy_mode == "surrogate" else None
                      for h in ("proj", "value")]
        pool = ScenePool.generate(seeds["data"], config.num_train, **setting)
        # the held-out pool draws from the next data seed
        eval_pool = ScenePool.generate(seeds["data"] + 1, 20, **setting)
        model, report = train_policy(
            spec, *surrogates, pool, eval_pool, hyper, seed=seeds["init"],
            mode=config.policy_mode, power_budget=config.power_budget)
    else:
        data = gen_supervised_dataset(seeds["data"], config.num_train,
                                      mode=head, **setting)
        model, report = train_supervised(spec, data, hyper, seed=seeds["init"])
    os.makedirs(config.checkpoint_dir, exist_ok=True)
    save_checkpoint(model, path, report=report, seed_lineage=seeds)
    return model


def eval_scenes(config: ExperimentConfig, count: int) -> list[Scene]:
    """The first ``count`` test scenes of the config's setting (a point's
    swept value in place): scene i is sample i of ``scene_seed``'s stream,
    which ``ScenePool.generate`` draws from, named ``scene-<scene_seed>-i``."""
    return [scene for _, scene in _sampled_scenes(
        config.scene_seed, count, config.num_users,
        square_aperture(config.aperture_area), config.zeta, config.power_budget)]


def _write_csv(path: str, config: ExperimentConfig, reader: str,
               columns: list[str], rows: list[list]) -> None:
    """Write a result file that records the fields ``reader``, a command or
    kind of :data:`FIELDS_READ`, reads."""
    record = {name: getattr(config, name) for name in FIELDS_READ[reader]}
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(f"# lcapa {__version__}\n")
        fh.write(f"# config: {json.dumps(record, sort_keys=True)}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def read_result_file(path: str) -> tuple[ExperimentConfig, list[str], list[list[str]]]:
    """Parse a result CSV back into (embedded config, columns, rows).

    A field the file does not record takes its default; the run that wrote
    the file did not read it.
    """
    config = None
    columns, rows = None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# config: "):
                config = ExperimentConfig.from_json(line[len("# config: "):])
            elif line.startswith("#") or not line:
                continue
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append(line.split(","))
    if config is None or columns is None:
        raise ValueError(f"{path} is not a result file with an embedded config")
    return config, columns, rows


def policy_se(config: ExperimentConfig) -> tuple[list[Scene], np.ndarray]:
    """Load or train the policy of the config's setting (a sweep point's
    swept value in place); return the setting's test scenes and the policy's
    exact sum SE on each, at ``num_nodes_eval``."""
    policy = network(config, "policy")
    scenes = eval_scenes(config, config.num_test_scenes)
    pool = ScenePool(scenes, *_pool_grams(scenes, config.num_nodes_eval))
    return scenes, exact_policy_se(policy, pool, config.power_budget,
                                   scenes[0].user_apertures(),
                                   scenes[0].noise_vars())


def _baseline_se(config: ExperimentConfig, scenes: list[Scene],
                 m: int) -> np.ndarray:
    return np.array([baseline_se(s, m, config.num_nodes_eval).se_report.sum_se
                     for s in scenes])


def _sweep_points(config: ExperimentConfig) -> list[tuple[object, dict]]:
    """Every ``(x, {method: per-scene sum SE})`` of a sweep kind, in row order."""
    if config.kind == "sweep-m":
        scenes, se = policy_se(config)
        return [(config.num_nodes, {"lcapa-gnn": se})] + [
            (m, {"wmmse": _baseline_se(config, scenes, m)}) for m in config.m_list]
    axis, swept = _AXES[config.kind]
    points = []
    for x in getattr(config, swept) if swept else ("",):
        # a swept kind never reads the value its list overrides
        point = replace(config, **{axis: x}) if swept else config
        scenes, se = policy_se(point)
        points.append((x, {"lcapa-gnn": se,
                           "wmmse": _baseline_se(point, scenes, point.num_nodes)}))
    return points


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute one experiment; returns {name: path} of written files."""
    os.makedirs(config.output_dir, exist_ok=True)
    if config.kind == "timing":
        return bench_timing(config)
    per_scene, summary = [], []
    for x, se_by_method in _sweep_points(config):
        for i in range(config.num_test_scenes):
            per_scene += [[x, f"scene-{config.scene_seed}-{i}", method,
                           float(se[i])] for method, se in se_by_method.items()]
        summary += [[x, method, float(se.mean()), float(se.std(ddof=0)), len(se)]
                    for method, se in se_by_method.items()]
    label = _AXES[config.kind][0]
    paths = {
        "summary": os.path.join(config.output_dir, f"{config.kind}_summary.csv"),
        "per_scene": os.path.join(config.output_dir, f"{config.kind}_scenes.csv"),
    }
    _write_csv(paths["summary"], config, config.kind,
               [label, "method", "mean_sum_se", "std_sum_se", "n_scenes"], summary)
    _write_csv(paths["per_scene"], config, config.kind,
               [label, "scene_id", "method", "sum_se"], per_scene)
    return paths


def policy_inference_seconds(policy: GnnModel, proj_model: GnnModel,
                             scene: Scene) -> float:
    """One timed inference on a scene: weights, estimated powers, projection
    scaling to the scene's power budget.

    The projection is :func:`~lcapa.objective.project_weights`, as deployed,
    so a power estimate that is not positive and finite raises its
    ``DegenerateProjectionError``.
    """
    start = time.perf_counter()
    a_raw, _ = policy_forward(policy, scene.positions)
    p_hat, _ = proj_forward(proj_model, scene.positions, a_raw)
    project_weights(a_raw, p_hat, scene.power_budget)
    return time.perf_counter() - start


def bench_timing(config: ExperimentConfig) -> dict:
    """Median per-scene wall clock: learned inference vs. baseline end-to-end.

    Timing runs are strictly sequential.  The learned path is the inference
    chain only (policy, power estimate, projection scaling; the coupling
    surrogate is not part of inference).  The baseline path is its Gram on
    grid(``num_nodes``), WMMSE and the lift, and like the learned path not
    its scoring (``baseline_se``'s ``runtime_seconds``).  The scenes are
    the first ``timing_scenes`` test scenes of the config's setting.
    """
    policy = network(config, "policy")
    proj_model = network(config, "proj")
    scenes = eval_scenes(config, config.timing_scenes)
    rows = []
    medians = {"lcapa-gnn": [], "wmmse": []}
    for run in range(config.timing_repeats):
        gnn_times, wmmse_times = [], []
        for scene in scenes:
            gnn_times.append(policy_inference_seconds(policy, proj_model, scene))
            res = baseline_se(scene, config.num_nodes, config.num_nodes)
            wmmse_times.append(res.runtime_seconds)
        med_g = float(np.median(gnn_times))
        med_w = float(np.median(wmmse_times))
        medians["lcapa-gnn"].append(med_g)
        medians["wmmse"].append(med_w)
        rows.append([run, "lcapa-gnn", med_g, len(scenes)])
        rows.append([run, "wmmse", med_w, len(scenes)])
    ratio = float(np.median(medians["lcapa-gnn"]) / np.median(medians["wmmse"]))
    cov = {m: float(np.std(v, ddof=0) / np.mean(v)) for m, v in medians.items()}
    rows.append(["all", "ratio-gnn-over-wmmse", ratio, len(scenes)])
    rows.append(["all", "cov-gnn", cov["lcapa-gnn"], len(scenes)])
    rows.append(["all", "cov-wmmse", cov["wmmse"], len(scenes)])
    path = os.path.join(config.output_dir, "timing.csv")
    _write_csv(path, config, "timing",
               ["run", "method", "median_seconds_or_value", "n_scenes"], rows)
    return {"timing": path}
