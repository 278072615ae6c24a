"""Paired sweep and timing experiments with reproducible CSV outputs.

Every result file embeds its fully resolved configuration (and all seeds) as
``#``-prefixed header comments, so re-running the embedded config regenerates
the file.  Learned and baseline methods are always evaluated on identical
test scenes.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .gnn import policy_spec, proj_spec, value_spec
from .heads import GnnModel, policy_forward, proj_forward
from .objective import project_weights
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
        if self.kind not in SWEEP_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.policy_mode not in POLICY_MODES:
            raise ValueError(f"unknown policy mode {self.policy_mode!r}; "
                             f"choose one of {', '.join(POLICY_MODES)}")
        swept = {"sweep-ntr": self.ntr_list, "sweep-snr": self.zeta_list,
                 "sweep-aperture": self.aperture_list, "sweep-m": self.m_list}
        lst = swept.get(self.kind)
        if self.kind in swept and not lst:
            raise ValueError(f"{self.kind} requires its swept list")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        clean = dict(data)
        for key in ("zeta_list", "aperture_list", "m_list", "ntr_list"):
            if clean.get(key) is not None:
                clean[key] = tuple(clean[key])
        return cls(**clean)

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


def train_surrogates(config: ExperimentConfig, zeta: float, area: float,
                     n_train: int) -> tuple[GnnModel, GnnModel]:
    """Train (or load) the power and coupling surrogates for one setting."""
    paths = checkpoint_paths(config, zeta, area, n_train)
    if os.path.exists(paths["proj"]) and os.path.exists(paths["value"]):
        return load_checkpoint(paths["proj"]), load_checkpoint(paths["value"])
    if not config.train_inline:
        raise MissingCheckpointError(
            f"missing surrogate checkpoints under {config.checkpoint_dir!r}; "
            f"run the train-proj / train-value subcommands first or pass "
            f"--train-inline")
    os.makedirs(config.checkpoint_dir, exist_ok=True)
    hyper = _hyper(config, config.supervised_lr, config.surrogate_epochs, n_train)
    proj_set = gen_supervised_dataset(config.data_seed, n_train, config.num_users,
                                      config.num_nodes, "proj", zeta=zeta,
                                      aperture_area=area,
                                      power_budget=config.power_budget)
    proj_model, proj_report = train_supervised(
        proj_spec(hidden=config.hidden, layers=config.layers), proj_set, hyper,
        seed=config.init_seed)
    save_checkpoint(proj_model, paths["proj"], report=proj_report,
                    seed_lineage={"data": config.data_seed,
                                  "init": config.init_seed})
    value_set = gen_supervised_dataset(config.data_seed + 1, n_train,
                                       config.num_users, config.num_nodes,
                                       "value", zeta=zeta, aperture_area=area,
                                       power_budget=config.power_budget)
    value_model, value_report = train_supervised(
        value_spec(hidden=config.hidden, layers=config.layers), value_set, hyper,
        seed=config.init_seed + 1)
    save_checkpoint(value_model, paths["value"], report=value_report,
                    seed_lineage={"data": config.data_seed + 1,
                                  "init": config.init_seed + 1})
    return proj_model, value_model


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
        proj_model, value_model = train_surrogates(config, zeta, area, n_train)
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


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute one experiment; returns {name: path} of written files."""
    os.makedirs(config.output_dir, exist_ok=True)
    if config.kind == "timing":
        return bench_timing(config)
    if config.kind == "sweep-m":
        return _run_sweep_m(config)
    if config.kind == "sweep-snr":
        return _run_model_sweep(config, "zeta", list(config.zeta_list))
    if config.kind == "sweep-aperture":
        return _run_model_sweep(config, "aperture_area", list(config.aperture_list))
    if config.kind == "sweep-ntr":
        return _run_model_sweep(config, "num_train", list(config.ntr_list))
    return _run_model_sweep(config, "single", [None])


def _setting(config: ExperimentConfig, axis: str, value) -> tuple[float, float, int]:
    zeta, area, n_train = config.zeta, config.aperture_area, config.num_train
    if axis == "zeta":
        zeta = value
    elif axis == "aperture_area":
        area = value
    elif axis == "num_train":
        n_train = value
    return zeta, area, n_train


def _run_model_sweep(config: ExperimentConfig, axis: str, values: list) -> dict:
    per_scene, summary = [], []
    for value in values:
        zeta, area, n_train = _setting(config, axis, value)
        policy = train_policy_for(config, zeta, area, n_train)
        pool_eval = build_test_pool(config, zeta, area, config.num_nodes_eval)
        se_policy = evaluate_policy_on_pool(policy, pool_eval, config.power_budget)
        se_base = np.array([
            baseline_se(s, config.num_nodes, config.num_nodes_eval).se_report.sum_se
            for s in pool_eval.scenes])
        x = "" if value is None else value
        for i, scene in enumerate(pool_eval.scenes):
            per_scene.append([x, f"scene-{config.scene_seed}-{i}", "lcapa-gnn",
                              float(se_policy[i])])
            per_scene.append([x, f"scene-{config.scene_seed}-{i}", "wmmse",
                              float(se_base[i])])
        for method, arr in (("lcapa-gnn", se_policy), ("wmmse", se_base)):
            summary.append([x, method, float(arr.mean()),
                            float(arr.std(ddof=0)), len(arr)])
    label = {"zeta": "zeta", "aperture_area": "aperture_area",
             "num_train": "num_train", "single": "point"}[axis]
    paths = {
        "summary": os.path.join(config.output_dir, f"{config.kind}_summary.csv"),
        "per_scene": os.path.join(config.output_dir, f"{config.kind}_scenes.csv"),
    }
    _write_csv(paths["summary"], config,
               [label, "method", "mean_sum_se", "std_sum_se", "n_scenes"], summary)
    _write_csv(paths["per_scene"], config,
               [label, "scene_id", "method", "sum_se"], per_scene)
    return paths


def _run_sweep_m(config: ExperimentConfig) -> dict:
    policy = train_policy_for(config, config.zeta, config.aperture_area,
                              config.num_train)
    pool_eval = build_test_pool(config, config.zeta, config.aperture_area,
                                config.num_nodes_eval)
    se_policy = evaluate_policy_on_pool(policy, pool_eval, config.power_budget)
    per_scene, summary = [], []
    for i in range(len(pool_eval.scenes)):
        per_scene.append([config.num_nodes, f"scene-{config.scene_seed}-{i}",
                          "lcapa-gnn", float(se_policy[i])])
    summary.append([config.num_nodes, "lcapa-gnn", float(se_policy.mean()),
                    float(se_policy.std(ddof=0)), len(se_policy)])
    for m in config.m_list:
        se = np.array([
            baseline_se(s, m, config.num_nodes_eval).se_report.sum_se
            for s in pool_eval.scenes])
        for i in range(len(pool_eval.scenes)):
            per_scene.append([m, f"scene-{config.scene_seed}-{i}", "wmmse",
                              float(se[i])])
        summary.append([m, "wmmse", float(se.mean()), float(se.std(ddof=0)),
                        len(se)])
    paths = {
        "summary": os.path.join(config.output_dir, "sweep-m_summary.csv"),
        "per_scene": os.path.join(config.output_dir, "sweep-m_scenes.csv"),
    }
    _write_csv(paths["summary"], config,
               ["m", "method", "mean_sum_se", "std_sum_se", "n_scenes"], summary)
    _write_csv(paths["per_scene"], config, ["m", "scene_id", "method", "sum_se"],
               per_scene)
    return paths


def policy_inference_seconds(policy: GnnModel, proj_model: GnnModel,
                             positions: np.ndarray, power_budget: float) -> float:
    """One timed inference: weights, estimated powers, projection scaling.

    The projection is :func:`~lcapa.objective.project_weights`, as deployed,
    so a power estimate that is not positive raises its
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
    proj_model, _ = train_surrogates(config, zeta, area, config.num_train)
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
