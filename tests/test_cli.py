import json

import pytest

import lcapa.experiments
from lcapa.cli import main


@pytest.mark.parametrize("command", ["eval", "experiment", "train-policy"])
def test_unknown_policy_mode_is_a_usage_error(command, capsys):
    assert main([command, "--policy-mode", "bogus"]) == 1
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


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
