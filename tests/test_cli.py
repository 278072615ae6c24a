import json
import math

import pytest

import lcapa.experiments
from lcapa.cli import main


@pytest.mark.parametrize("command", ["eval", "experiment", "train-policy"])
def test_unknown_policy_mode_is_a_usage_error(command, capsys):
    assert main([command, "--policy-mode", "bogus"]) == 1
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


# what each checked field must be, where it is not ">= 1"
_FIELD_RULES = {"zeta": "positive and finite",
                "aperture_area": "positive and finite", "layers": ">= 2"}


@pytest.mark.parametrize("flags,field", [
    (["--batch-size", "0"], "batch_size"),
    (["--batch-size", "-1"], "batch_size"),
    (["--epochs", "0"], "surrogate_epochs"),
    (["--num-train", "0"], "num_train"),
    (["--num-users", "0"], "num_users"),
    (["--hidden", "0"], "hidden"),
    (["--zeta", "0"], "zeta"),
    (["--aperture-area", "-1"], "aperture_area"),
    (["--layers", "1"], "layers"),
])
def test_bad_training_flag_is_a_usage_error(flags, field, tmp_path, capsys):
    assert main(["train-proj", "--checkpoint-dir", str(tmp_path), *flags]) == 1
    rule = _FIELD_RULES.get(field, ">= 1")
    assert f"{field} must be {rule}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command,flags", [
    ("train-proj", ["--num-nodes", "15"]),
    ("eval", ["--num-nodes-eval", "1000"]),
])
def test_unsplittable_node_count_is_a_usage_error(command, flags, tmp_path,
                                                  capsys):
    # build_grid's own message names the count it cannot split
    assert main([command, "--checkpoint-dir", str(tmp_path), *flags]) == 1
    assert f"cannot split M={flags[1]}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_experiment_policy_mode_flag_overrides_config(tmp_path, monkeypatch):
    seen = []

    def fake_run(config):
        seen.append(config)
        return {}

    monkeypatch.setattr(lcapa.experiments, "run_experiment", fake_run)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"policy_mode": "surrogate"}))
    assert main(["experiment", "--config", str(cfg)]) == 0
    assert main(["experiment", "--config", str(cfg),
                 "--policy-mode", "analytic"]) == 0
    assert [c.policy_mode for c in seen] == ["surrogate", "analytic"]


def test_gen_data_is_gone(capsys):
    assert main(["gen-data", "--out", "unused.jsonl"]) == 1
    assert "invalid choice: 'gen-data'" in capsys.readouterr().err


def test_unknown_policy_mode_in_config_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"policy_mode": "bogus"}))
    assert main(["experiment", "--config", str(cfg), "--train-inline"]) == 1
    assert "unknown policy mode 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("settings,message", [
    ({"kind": "sweep-ntr", "ntr_list": [0]}, "ntr_list must be >= 1"),
    ({"power_budget": 0.0}, "power_budget must be positive and finite"),
    ({"kind": "timing", "timing_scenes": 0}, "timing_scenes must be >= 1"),
])
def test_bad_experiment_config_file_is_a_usage_error(settings, message,
                                                     tmp_path, capsys):
    # each used to fail only after the run had started, or not at all
    tiny = dict(num_users=3, num_nodes=16, num_nodes_eval=64, num_train=8,
                surrogate_epochs=1, policy_epochs=1, batch_size=4, hidden=8,
                layers=2, num_test_scenes=2, policy_mode="analytic",
                checkpoint_dir=str(tmp_path / "ck"),
                output_dir=str(tmp_path / "out"))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(tiny, **settings)))
    assert main(["experiment", "--config", str(cfg), "--train-inline"]) == 1
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("content,message", [
    ('{"num_userz": 3}', "unknown config key(s): num_userz"),
    ('{"num_users": "3"}', "num_users must be of type int, got '3'"),
    (None, "bad config file {path}: [Errno 2]"),
    ('{"num_users": 3', "bad config file {path}: Expecting"),
    ("[3]", "bad config file {path}: it holds a list, not an object"),
], ids=["misspelt-key", "wrong-type", "missing-file", "invalid-json",
        "top-level-list"])
def test_bad_config_file_is_a_usage_error(content, message, tmp_path,
                                          monkeypatch, capsys):
    # each used to run with the defaults (exit 0) or end in a traceback's
    # message (exit 2)
    def must_not_run(config):
        raise AssertionError("ran with a bad config file")

    monkeypatch.setattr(lcapa.experiments, "run_experiment", must_not_run)
    cfg = tmp_path / "config.json"
    if content is not None:
        cfg.write_text(content)
    assert main(["experiment", "--config", str(cfg)]) == 1
    assert message.format(path=cfg) in capsys.readouterr().err


def test_grad_check_covers_the_analytic_chain(capsys):
    assert main(["grad-check", "--probes", "40"]) == 0
    lines = capsys.readouterr().out.splitlines()
    analytic = [line for line in lines if line.startswith("analytic-chain ")]
    assert len(analytic) == 1 and analytic[0].endswith("[ok]")


def test_info_exits_zero(capsys):
    assert main(["info"]) == 0
    assert "default wavelength" in capsys.readouterr().out


def test_missing_checkpoint_is_a_runtime_failure(tmp_path, capsys):
    assert main(["eval", "--checkpoint-dir", str(tmp_path),
                 "--num-test-scenes", "2"]) == 2
    err = capsys.readouterr().err
    assert "MissingCheckpointError" in err and "train-policy" in err


def test_baseline_at_high_snr_exits_zero(tmp_path, capsys):
    # WMMSE's power multiplier raised BisectionError on 7 of these 16
    # scenes, and the command exited 2
    assert main(["baseline", "--num-users", "4", "--zeta", "1e8",
                 "--num-test-scenes", "16",
                 "--output-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("baseline mean sum SE ")
    assert math.isfinite(float(out.split()[4]))


def test_baseline_and_eval_score_the_same_scenes(tmp_path, capsys):
    from lcapa.experiments import (ExperimentConfig, _fmt, build_test_pool,
                                   read_result_file)
    from lcapa.wmmse import baseline_se

    settings = dict(num_users=3, num_nodes=16, num_nodes_eval=64,
                    num_test_scenes=3, num_train=8, policy_epochs=1,
                    batch_size=4, hidden=8, layers=2, policy_mode="analytic",
                    train_inline=True, checkpoint_dir=str(tmp_path / "ck"),
                    output_dir=str(tmp_path / "out"))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(settings))
    assert main(["baseline", "--config", str(cfg)]) == 0
    assert main(["eval", "--config", str(cfg)]) == 0
    capsys.readouterr()
    _, _, baseline = read_result_file(str(tmp_path / "out" / "baseline.csv"))
    _, _, evaluated = read_result_file(str(tmp_path / "out" / "eval.csv"))
    ids = [f"scene-9000-{i}" for i in range(3)]
    assert [r[0] for r in baseline] == ids
    assert [r[0] for r in evaluated if r[0] != "mean"] == ids
    # the ids name the scenes scored: the test pool's, in order
    config = ExperimentConfig(**settings)
    scene = build_test_pool(config, config.zeta, config.aperture_area, 16).scenes[2]
    assert baseline[2][5] == _fmt(baseline_se(scene, 16, 64).se_report.sum_se)
