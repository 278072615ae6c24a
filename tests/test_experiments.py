import numpy as np
import pytest

from lcapa.experiments import (
    ExperimentConfig,
    bench_timing,
    policy_inference_seconds,
    read_result_file,
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
