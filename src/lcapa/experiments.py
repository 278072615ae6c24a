"""Paired sweep and timing experiments with reproducible CSV outputs.

Every result file embeds its fully resolved configuration (and all seeds) as
``#``-prefixed header comments, so re-running the embedded config regenerates
the file.  Learned and baseline methods are always evaluated on identical
test scenes.

Every kind but ``timing`` runs through one loop: it turns the config into a
list of points ``(x, {method: per-scene sum SE})`` and writes
``<kind>_scenes.csv`` (rows in the order point, scene, method) and
``<kind>_summary.csv`` (point, method) from that list.  The points are

* ``single``: one point, ``x`` empty, with ``lcapa-gnn`` then ``wmmse``;
* ``sweep-snr``, ``sweep-aperture``, ``sweep-ntr``: one point per value of
  ``zeta_list``, ``aperture_list`` or ``ntr_list``, each with its own policy
  and test scenes, and ``lcapa-gnn`` then ``wmmse`` (WMMSE at ``num_nodes``);
* ``sweep-m``: ``lcapa-gnn`` once at ``x = num_nodes``, then ``wmmse`` at each
  ``m`` of ``m_list``, all on the same test scenes.

Every SE is scored at ``num_nodes_eval``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .gnn import policy_spec, proj_spec, value_spec
from .heads import GnnModel, policy_forward, proj_forward
from .objective import project_weights
from .quadrature import build_grid
from .scene import sample_scene, square_aperture
from .training import (
    POLICY_MODES,
    ScenePool,
    TrainHyper,
    exact_policy_se,
    gen_supervised_dataset,
    load_checkpoint,
    save_checkpoint,
    train_policy,
    train_supervised,
)
from .wmmse import WmmseOptions, baseline_se

SWEEP_KINDS = ("sweep-ntr", "sweep-snr", "sweep-aperture", "sweep-m",
               "timing", "single")


class MissingCheckpointError(RuntimeError):
    pass


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
        at_least_one = [(name, getattr(self, name)) for name in
                        ("batch_size", "surrogate_epochs", "policy_epochs",
                         "num_train", "num_users", "hidden", "num_test_scenes",
                         "timing_scenes", "timing_repeats")]
        at_least_one += [("ntr_list", v) for v in self.ntr_list or ()]
        for name, value in at_least_one:
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")
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

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

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


def checkpoint_paths(config: ExperimentConfig, zeta: float, area: float,
                     n_train: int) -> dict:
    tag = (f"k{config.num_users}_zeta{zeta:g}_area{area:g}_m{config.num_nodes}"
           f"_ntr{n_train}")
    base = config.checkpoint_dir
    return {"proj": os.path.join(base, f"proj_{tag}.json"),
            "value": os.path.join(base, f"value_{tag}.json"),
            "policy": os.path.join(base, f"policy_{config.policy_mode}_{tag}.json")}


def _hyper(config: ExperimentConfig, lr: float, epochs: int,
           n_train: int) -> TrainHyper:
    return TrainHyper(learning_rate=lr, batch_size=config.batch_size,
                      epochs=epochs, num_nodes=config.num_nodes,
                      num_train=n_train, lr_decay=0.5, lr_decay_every=50)


# Each surrogate's network spec, and the offset of its data and init seeds
# from the config's.
_SURROGATES = {"proj": (proj_spec, 0), "value": (value_spec, 1)}


def train_surrogate(config: ExperimentConfig, zeta: float, area: float,
                    n_train: int, head: str) -> GnnModel:
    """Train (or load) one surrogate for one setting.

    ``head`` is ``"proj"`` (the power surrogate) or ``"value"`` (the coupling
    surrogate); each has its own checkpoint, and only the one asked for is
    trained or loaded.
    """
    spec, offset = _SURROGATES[head]
    path = checkpoint_paths(config, zeta, area, n_train)[head]
    if os.path.exists(path):
        return load_checkpoint(path)
    if not config.train_inline:
        raise MissingCheckpointError(
            f"missing surrogate checkpoint {path!r}; run the train-{head} "
            f"subcommand first or pass --train-inline")
    os.makedirs(config.checkpoint_dir, exist_ok=True)
    hyper = _hyper(config, config.supervised_lr, config.surrogate_epochs, n_train)
    data = gen_supervised_dataset(config.data_seed + offset, n_train,
                                  config.num_users, config.num_nodes, head,
                                  zeta=zeta, aperture_area=area,
                                  power_budget=config.power_budget)
    model, report = train_supervised(
        spec(hidden=config.hidden, layers=config.layers), data, hyper,
        seed=config.init_seed + offset)
    save_checkpoint(model, path, report=report,
                    seed_lineage={"data": config.data_seed + offset,
                                  "init": config.init_seed + offset})
    return model


def train_policy_for(config: ExperimentConfig, zeta: float, area: float,
                     n_train: int) -> GnnModel:
    """Train (or load) the policy for one (K, zeta, area, N_tr) setting."""
    paths = checkpoint_paths(config, zeta, area, n_train)
    if os.path.exists(paths["policy"]):
        return load_checkpoint(paths["policy"])
    if not config.train_inline:
        raise MissingCheckpointError(
            f"missing policy checkpoint {paths['policy']!r}; run the "
            f"train-policy subcommand first or pass --train-inline")
    proj_model = value_model = None
    if config.policy_mode == "surrogate":
        proj_model = train_surrogate(config, zeta, area, n_train, "proj")
        value_model = train_surrogate(config, zeta, area, n_train, "value")
    pool = ScenePool.generate(config.data_seed + 2, n_train, config.num_users,
                              config.num_nodes, zeta, aperture_area=area,
                              power_budget=config.power_budget)
    eval_pool = ScenePool.generate(config.data_seed + 3, 20, config.num_users,
                                   config.num_nodes, zeta, aperture_area=area,
                                   power_budget=config.power_budget)
    hyper = _hyper(config, config.policy_lr, config.policy_epochs, n_train)
    policy, report = train_policy(
        policy_spec(hidden=config.hidden, layers=config.layers), proj_model,
        value_model, pool, eval_pool, hyper, seed=config.init_seed + 2,
        mode=config.policy_mode, power_budget=config.power_budget)
    os.makedirs(config.checkpoint_dir, exist_ok=True)
    save_checkpoint(policy, paths["policy"], report=report,
                    seed_lineage={"data": config.data_seed + 2,
                                  "init": config.init_seed + 2})
    return policy


def build_test_pool(config: ExperimentConfig, zeta: float, area: float,
                    num_nodes: int) -> ScenePool:
    return ScenePool.generate(config.scene_seed, config.num_test_scenes,
                              config.num_users, num_nodes, zeta,
                              aperture_area=area,
                              power_budget=config.power_budget)


def _write_csv(path: str, config: ExperimentConfig, columns: list[str],
               rows: list[list]) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(f"# lcapa {__version__}\n")
        fh.write(f"# config: {config.to_json()}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def read_result_file(path: str) -> tuple[ExperimentConfig, list[str], list[list[str]]]:
    """Parse a result CSV back into (embedded config, columns, rows)."""
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


def evaluate_policy_on_pool(policy: GnnModel, pool: ScenePool,
                            power_budget: float) -> np.ndarray:
    scene0 = pool.scenes[0]
    return exact_policy_se(policy, pool, power_budget, scene0.user_apertures(),
                           scene0.noise_vars())


def policy_se(config: ExperimentConfig, zeta: float, aperture_area: float,
              num_train: int) -> tuple[ScenePool, np.ndarray]:
    """Train (or load) the policy of one setting; return the setting's test
    pool (at ``num_nodes_eval``) and the policy's exact sum SE per scene."""
    policy = train_policy_for(config, zeta, aperture_area, num_train)
    pool = build_test_pool(config, zeta, aperture_area, config.num_nodes_eval)
    return pool, evaluate_policy_on_pool(policy, pool, config.power_budget)


def _baseline_se(config: ExperimentConfig, pool: ScenePool,
                 m: int) -> np.ndarray:
    return np.array([baseline_se(s, m, config.num_nodes_eval).se_report.sum_se
                     for s in pool.scenes])


# Each sweep kind's x column, and the config list it sweeps (None: one point).
_AXES = {"single": ("point", None), "sweep-snr": ("zeta", "zeta_list"),
         "sweep-aperture": ("aperture_area", "aperture_list"),
         "sweep-ntr": ("num_train", "ntr_list"), "sweep-m": ("m", "m_list")}


def _sweep_points(config: ExperimentConfig) -> list[tuple[object, dict]]:
    """Every ``(x, {method: per-scene sum SE})`` of a sweep kind, in row order."""
    axis, swept = _AXES[config.kind]
    setting = {"zeta": config.zeta, "aperture_area": config.aperture_area,
               "num_train": config.num_train}
    if config.kind == "sweep-m":
        pool, se = policy_se(config, **setting)
        return [(config.num_nodes, {"lcapa-gnn": se})] + [
            (m, {"wmmse": _baseline_se(config, pool, m)}) for m in config.m_list]
    points = []
    for x in getattr(config, swept) if swept else ("",):
        if swept:
            setting[axis] = x
        pool, se = policy_se(config, **setting)
        points.append((x, {"lcapa-gnn": se,
                           "wmmse": _baseline_se(config, pool, config.num_nodes)}))
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
    _write_csv(paths["summary"], config,
               [label, "method", "mean_sum_se", "std_sum_se", "n_scenes"], summary)
    _write_csv(paths["per_scene"], config,
               [label, "scene_id", "method", "sum_se"], per_scene)
    return paths


def policy_inference_seconds(policy: GnnModel, proj_model: GnnModel,
                             positions: np.ndarray, power_budget: float) -> float:
    """One timed inference: weights, estimated powers, projection scaling.

    The projection is :func:`~lcapa.objective.project_weights`, as deployed,
    so a power estimate that is not positive and finite raises its
    ``DegenerateProjectionError``.
    """
    start = time.perf_counter()
    a_raw, _ = policy_forward(policy, positions)
    p_hat, _ = proj_forward(proj_model, positions, a_raw)
    project_weights(a_raw, p_hat, power_budget)
    return time.perf_counter() - start


def bench_timing(config: ExperimentConfig) -> dict:
    """Median per-scene wall clock: learned inference vs. baseline end-to-end.

    Timing runs are strictly sequential.  The learned path is the inference
    chain only (policy, power estimate, projection scaling; the coupling
    surrogate is not part of inference).  The baseline path includes its
    integral setup, matching how it must run in practice.
    """
    zeta, area = config.zeta, config.aperture_area
    policy = train_policy_for(config, zeta, area, config.num_train)
    proj_model = train_surrogate(config, zeta, area, config.num_train, "proj")
    scenes = [sample_scene(config.scene_seed + i, config.num_users,
                           aperture=square_aperture(area), zeta=zeta,
                           power_budget=config.power_budget)
              for i in range(config.timing_scenes)]
    rows = []
    medians = {"lcapa-gnn": [], "wmmse": []}
    for run in range(config.timing_repeats):
        gnn_times, wmmse_times = [], []
        for scene in scenes:
            gnn_times.append(policy_inference_seconds(
                policy, proj_model, scene.positions, config.power_budget))
            res = baseline_se(scene, config.num_nodes, config.num_nodes,
                              WmmseOptions())
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
    _write_csv(path, config, ["run", "method", "median_seconds_or_value",
                              "n_scenes"], rows)
    return {"timing": path}
