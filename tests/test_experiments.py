from dataclasses import replace

import numpy as np
import pytest

from lcapa.experiments import (
    ExperimentConfig,
    MissingCheckpointError,
    bench_timing,
    policy_inference_seconds,
    read_result_file,
    run_experiment,
    train_surrogate,
)
from lcapa.gnn import init_params, policy_spec, proj_spec
from lcapa.heads import GnnModel
from lcapa.objective import DegenerateProjectionError
from lcapa.scene import sample_scene

TINY = dict(num_users=3, num_nodes=16, num_train=8, surrogate_epochs=1,
            policy_epochs=1, batch_size=4, hidden=8, layers=2,
            policy_mode="analytic", train_inline=True, timing_scenes=2,
            timing_repeats=2)


def test_bench_timing_writes_medians_and_a_positive_ratio(tmp_path):
    config = ExperimentConfig(kind="timing", checkpoint_dir=str(tmp_path / "ck"),
                              output_dir=str(tmp_path / "out"), **TINY)
    paths = bench_timing(config)
    embedded, columns, rows = read_result_file(paths["timing"])
    assert embedded == config
    assert columns == ["run", "method", "median_seconds_or_value", "n_scenes"]
    per_run = [(r[0], r[1]) for r in rows[:-3]]
    assert per_run == [(str(run), method) for run in range(2)
                       for method in ("lcapa-gnn", "wmmse")]
    assert [r[1] for r in rows[-3:]] == ["ratio-gnn-over-wmmse", "cov-gnn",
                                         "cov-wmmse"]
    values = np.array([float(r[2]) for r in rows])
    assert np.all(np.isfinite(values))
    assert np.all(values[:-2] > 0.0) and np.all(values[-2:] >= 0.0)
    assert all(r[3] == "2" for r in rows)
    # the timed chain uses only the power surrogate: no coupling surrogate
    written = sorted(p.name.split("_")[0] for p in (tmp_path / "ck").iterdir())
    assert written == ["policy", "proj"]


def test_train_surrogate_trains_or_loads_only_the_head_asked_for(tmp_path):
    config = ExperimentConfig(checkpoint_dir=str(tmp_path), **TINY)
    value = train_surrogate(config, config.zeta, config.aperture_area,
                            config.num_train, "value")
    assert [p.name.split("_")[0] for p in tmp_path.iterdir()] == ["value"]
    loaded = train_surrogate(config, config.zeta, config.aperture_area,
                             config.num_train, "value")
    assert loaded.spec == value.spec
    assert [(n, a.tobytes()) for n, a in loaded.params.iter_arrays()] == [
        (n, a.tobytes()) for n, a in value.params.iter_arrays()]
    offline = ExperimentConfig(checkpoint_dir=str(tmp_path),
                               **dict(TINY, train_inline=False))
    with pytest.raises(MissingCheckpointError, match="train-proj"):
        train_surrogate(offline, config.zeta, config.aperture_area,
                        config.num_train, "proj")


def test_inference_timing_rejects_a_dead_power_estimate():
    policy = GnnModel(spec=policy_spec(hidden=8, layers=2),
                      params=init_params(policy_spec(hidden=8, layers=2), 0),
                      norms={"pos_scale": 30.0, "out_scale": 1e-4})
    dead = GnnModel(spec=proj_spec(hidden=8, layers=2),
                    params=init_params(proj_spec(hidden=8, layers=2), 1),
                    norms={"pos_scale": 30.0, "out_scale": 0.0})
    positions = sample_scene(1, 3).positions
    with pytest.raises(DegenerateProjectionError):
        policy_inference_seconds(policy, dead, positions, 1.0)
    live = GnnModel(spec=dead.spec, params=dead.params,
                    norms={"pos_scale": 30.0, "out_scale": 1.0})
    assert policy_inference_seconds(policy, live, positions, 1.0) > 0.0


# Each sweep kind's swept list, and the layout its files must have: the x
# column's name, then every point's x (as written) and its methods in order.
SWEEPS = {
    "single": ({}, "point", [("", ("lcapa-gnn", "wmmse"))]),
    "sweep-m": ({"m_list": (4, 16)}, "m",
                [("16", ("lcapa-gnn",)), ("4", ("wmmse",)), ("16", ("wmmse",))]),
    "sweep-snr": ({"zeta_list": (1e5, 1e7, 1e9)}, "zeta",
                  [(x, ("lcapa-gnn", "wmmse"))
                   for x in ("100000", "10000000", "1000000000")]),
    "sweep-aperture": ({"aperture_list": (0.04, 4.0)}, "aperture_area",
                       [(x, ("lcapa-gnn", "wmmse")) for x in ("0.04", "4")]),
    "sweep-ntr": ({"ntr_list": (4, 8)}, "num_train",
                  [(x, ("lcapa-gnn", "wmmse")) for x in ("4", "8")]),
}


@pytest.mark.parametrize("kind", list(SWEEPS))
@pytest.mark.parametrize("num_users", [3, 16])
def test_every_sweep_kind_writes_finite_rows_in_its_layout(tmp_path, kind,
                                                           num_users):
    swept, label, points = SWEEPS[kind]
    config = ExperimentConfig(kind=kind, num_test_scenes=2,
                              checkpoint_dir=str(tmp_path / "ck"),
                              output_dir=str(tmp_path / "out"),
                              **dict(TINY, num_users=num_users), **swept)
    paths = run_experiment(config)
    _, columns, rows = read_result_file(paths["per_scene"])
    assert columns == [label, "scene_id", "method", "sum_se"]
    assert [r[:3] for r in rows] == [[x, f"scene-9000-{i}", method]
                                     for x, methods in points for i in range(2)
                                     for method in methods]
    se = [float(r[3]) for r in rows]
    _, columns, rows = read_result_file(paths["summary"])
    assert columns == [label, "method", "mean_sum_se", "std_sum_se", "n_scenes"]
    assert [r[:2] for r in rows] == [[x, method] for x, methods in points
                                     for method in methods]
    assert all(r[4] == "2" for r in rows)
    se += [float(v) for r in rows for v in r[2:4]]
    assert np.all(np.isfinite(se))


@pytest.mark.parametrize("kind,swept", [(kind, SWEEPS[kind][0])
                                        for kind in SWEEPS])
def test_embedded_config_reproduces_every_row(tmp_path, kind, swept):
    config = ExperimentConfig(kind=kind, num_test_scenes=2,
                              checkpoint_dir=str(tmp_path / "ck"),
                              output_dir=str(tmp_path / "out"), **TINY, **swept)
    paths = run_experiment(config)
    first = {name: read_result_file(path) for name, path in paths.items()}
    assert all(embedded == config for embedded, _, _ in first.values())
    # re-run each file's embedded config from scratch: fresh directories, so
    # every network is trained again
    for name, (embedded, columns, rows) in first.items():
        again = run_experiment(replace(embedded,
                                       checkpoint_dir=str(tmp_path / name / "ck"),
                                       output_dir=str(tmp_path / name / "out")))
        _, again_columns, again_rows = read_result_file(again[name])
        assert again_columns == columns
        assert again_rows == rows
    methods = {row[2] for row in first["per_scene"][2]}
    assert methods == {"lcapa-gnn", "wmmse"}


@pytest.mark.parametrize("field,value", [
    ("batch_size", 0), ("batch_size", -1), ("surrogate_epochs", 0),
    ("policy_epochs", 0), ("policy_lr", 0.0), ("policy_lr", float("nan")),
    ("supervised_lr", -1e-3), ("supervised_lr", float("inf")),
    ("num_train", 0), ("num_users", 0), ("hidden", 0), ("num_test_scenes", 0),
    ("zeta", 0.0), ("zeta", float("nan")), ("aperture_area", -1.0),
    ("aperture_area", float("inf")), ("layers", 1), ("layers", 0),
    ("zeta_list", (1e6, 0.0)), ("aperture_list", (4.0, float("nan"))),
    ("ntr_list", (4, 0)), ("timing_scenes", 0), ("timing_repeats", 0),
    ("power_budget", 0.0), ("power_budget", float("nan")),
    # a value of the wrong type; a string num_users used to fail in the range
    # check's `<` with TypeError
    ("num_users", "3"), ("num_users", True), ("num_users", 3.0), ("zeta", True),
    ("zeta", "1e6"), ("m_list", (16, 64.0)), ("zeta_list", [1e6, "1e7"]),
    ("aperture_list", 4.0), ("train_inline", 1), ("output_dir", 3),
])
def test_config_rejects_bad_training_settings(field, value):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**{field: value})


def test_config_takes_an_int_for_a_float_and_a_list_for_a_tuple():
    config = ExperimentConfig.from_dict({"kind": "sweep-snr", "zeta": 1000000,
                                         "zeta_list": [1000000, 1e7]})
    assert config.zeta == 1e6 and config.zeta_list == (1000000, 1e7)


@pytest.mark.parametrize("overrides,message", [
    ({"num_nodes": 15}, "cannot split M=15"),
    ({"num_nodes_eval": 1000}, "cannot split M=1000"),
    ({"kind": "sweep-m", "m_list": (16, 63)}, "cannot split M=63"),
    ({"num_nodes": 0}, "num_nodes must be >= 1"),
    ({"kind": "sweep-m", "m_list": (16, -4)}, "num_nodes must be >= 1"),
])
def test_config_rejects_node_counts_the_grid_cannot_split(overrides, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**overrides)
