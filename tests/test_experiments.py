import json
import os
from dataclasses import replace

import numpy as np
import pytest

import lcapa.wmmse
from lcapa.experiments import (
    FIELDS_READ,
    CheckpointMismatchError,
    ExperimentConfig,
    MissingCheckpointError,
    bench_timing,
    checkpoint_path,
    network,
    policy_inference_seconds,
    policy_se,
    read_result_file,
    run_experiment,
)
from lcapa.gnn import init_params, policy_spec, proj_spec, value_spec, zero_params
from lcapa.heads import GnnModel
from lcapa.objective import DegenerateProjectionError
from lcapa.scene import sample_scene

TINY = dict(num_users=3, num_nodes=16, num_train=8, surrogate_epochs=1,
            policy_epochs=1, batch_size=4, hidden=8, layers=2,
            policy_mode="analytic", train_inline=True, timing_scenes=2,
            timing_repeats=2)


def test_bench_timing_writes_medians_and_a_positive_ratio(tmp_path,
                                                         monkeypatch):
    def scoring(*args):
        raise AssertionError("the timing run scored the baseline")

    # integral_power runs only in baseline_se's scoring on grid(M_eval),
    # whose result the timing run would throw away
    monkeypatch.setattr(lcapa.wmmse, "integral_power", scoring)
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


def test_network_trains_or_loads_only_the_head_asked_for(tmp_path):
    config = ExperimentConfig(checkpoint_dir=str(tmp_path), **TINY)
    value = network(config, "value")
    assert [p.name.split("_")[0] for p in tmp_path.iterdir()] == ["value"]
    loaded = network(config, "value")
    assert loaded.spec == value.spec
    assert [(n, a.tobytes()) for n, a in loaded.params.iter_arrays()] == [
        (n, a.tobytes()) for n, a in value.params.iter_arrays()]
    offline = ExperimentConfig(checkpoint_dir=str(tmp_path),
                               **dict(TINY, train_inline=False))
    for head in ("proj", "policy"):
        with pytest.raises(MissingCheckpointError, match=f"train-{head}"):
            network(offline, head)
    assert [p.name.split("_")[0] for p in tmp_path.iterdir()] == ["value"]


def test_checkpoint_of_another_architecture_refused(tmp_path):
    # the checkpoint tag does not name hidden or layers, so a config of
    # another size finds this setting's checkpoints
    config = ExperimentConfig(checkpoint_dir=str(tmp_path),
                              **dict(TINY, layers=3, policy_mode="surrogate"))
    network(config, "policy")
    written = sorted(tmp_path.iterdir())
    for other in (replace(config, hidden=9), replace(config, layers=4)):
        for head, factory in (("policy", policy_spec), ("proj", proj_spec),
                              ("value", value_spec)):
            with pytest.raises(CheckpointMismatchError) as info:
                network(other, head)
            message = str(info.value)
            assert checkpoint_path(config, head) in message
            assert str(factory(hidden=8, layers=3).to_dict()) in message
            assert str(factory(hidden=other.hidden,
                               layers=other.layers).to_dict()) in message
    assert sorted(tmp_path.iterdir()) == written
    assert network(config, "policy").spec == policy_spec(hidden=8, layers=3)


def test_inference_timing_rejects_a_dead_power_estimate():
    policy = GnnModel(spec=policy_spec(hidden=8, layers=2),
                      params=init_params(policy_spec(hidden=8, layers=2), 0),
                      norms={"pos_scale": 30.0, "out_scale": 1e-4})
    dead = GnnModel(spec=proj_spec(hidden=8, layers=2),
                    params=zero_params(proj_spec(hidden=8, layers=2)),
                    norms={"pos_scale": 30.0, "a_scale": 1.0, "out_scale": 1.0})
    dead.params.layers[-1].b_v[...] = -1e4      # softplus(-1e4) is exactly 0
    scene = sample_scene(1, 3)
    with pytest.raises(DegenerateProjectionError):
        policy_inference_seconds(policy, dead, scene)
    live = GnnModel(spec=dead.spec, params=init_params(dead.spec, 1),
                    norms=dead.norms)
    assert policy_inference_seconds(policy, live, scene) > 0.0


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


def test_a_sweep_point_is_the_config_with_its_value_in_place(tmp_path):
    config = ExperimentConfig(kind="sweep-snr", zeta_list=(1e5, 1e7),
                              num_test_scenes=2,
                              checkpoint_dir=str(tmp_path / "ck"),
                              output_dir=str(tmp_path / "out"), **TINY)
    _, _, rows = read_result_file(run_experiment(config)["per_scene"])
    points = [replace(config, zeta=x, train_inline=False)
              for x in config.zeta_list]
    assert sorted(p.name for p in (tmp_path / "ck").iterdir()) == sorted(
        os.path.basename(checkpoint_path(p, "policy")) for p in points)
    # each point's policy loads from the checkpoint the sweep wrote, and
    # scores its rows on its own scenes
    for x, point in zip(("100000", "10000000"), points):
        _, se = policy_se(point)
        assert [r[3] for r in rows if r[0] == x and r[2] == "lcapa-gnn"] == [
            f"{v:.12g}" for v in se]


@pytest.mark.parametrize("kind,swept", [(kind, SWEEPS[kind][0])
                                        for kind in SWEEPS])
def test_embedded_config_reproduces_every_row(tmp_path, kind, swept):
    config = ExperimentConfig(kind=kind, num_test_scenes=2,
                              checkpoint_dir=str(tmp_path / "ck"),
                              output_dir=str(tmp_path / "out"), **TINY, **swept)
    paths = run_experiment(config)
    first = {name: read_result_file(path) for name, path in paths.items()}
    row = FIELDS_READ[kind]
    for name, (embedded, _, _) in first.items():
        assert [getattr(embedded, f) for f in row] == [getattr(config, f)
                                                       for f in row]
        with open(paths[name]) as fh:
            record = next(line for line in fh if line.startswith("# config: "))
        assert sorted(json.loads(record[len("# config: "):])) == sorted(row)
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
    ("scene_seed", -1), ("init_seed", -1), ("data_seed", -5),
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
