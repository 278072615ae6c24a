import argparse
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import pytest

import lcapa.experiments
import lcapa.training
from lcapa.cli import _build_parser, _experiment_config, main
from lcapa.experiments import (FIELDS_READ, SWEEP_KINDS, ExperimentConfig,
                               read_result_file)
from lcapa.training import POLICY_MODES

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("command", ["eval", "experiment", "train-policy"])
def test_unknown_policy_mode_is_a_usage_error(command, capsys):
    assert main([command, "--policy-mode", "bogus"]) == 1
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


# what each checked field must be, where it is not ">= 1"
_FIELD_RULES = {"zeta": "positive and finite",
                "aperture_area": "positive and finite", "layers": ">= 2",
                "data_seed": ">= 0", "init_seed": ">= 0"}


@pytest.mark.parametrize("flags,field", [
    (["--batch-size", "0"], "batch_size"),
    (["--batch-size", "-1"], "batch_size"),
    (["--surrogate-epochs", "0"], "surrogate_epochs"),
    (["--num-train", "0"], "num_train"),
    (["--num-users", "0"], "num_users"),
    (["--hidden", "0"], "hidden"),
    (["--zeta", "0"], "zeta"),
    (["--aperture-area", "-1"], "aperture_area"),
    (["--layers", "1"], "layers"),
    (["--data-seed", "-5"], "data_seed"),
    (["--init-seed", "-1"], "init_seed"),
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


@pytest.mark.parametrize("argv", [["gen-data", "--out", "unused.jsonl"],
                                  ["grad-check", "--probes", "40"]],
                         ids=["gen-data", "grad-check"])
def test_removed_command_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert f"invalid choice: '{argv[0]}'" in capsys.readouterr().err
    assert argv[0] not in _build_parser().format_help()
    assert not any(tmp_path.iterdir())


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


_COMMANDS = ["train-proj", "train-value", "train-policy", "eval", "baseline"]

# A tiny run that reads every list, and another valid value of every field.
_TINY = dict(
    kind="single", num_users=3, zeta=1e6, zeta_list=[1e6, 1e7],
    aperture_area=4.0, aperture_list=[1.0, 4.0], num_nodes=16, m_list=[4, 64],
    num_nodes_eval=16, ntr_list=[2, 4], power_budget=1.0, num_test_scenes=1,
    scene_seed=9000, init_seed=0, data_seed=100, num_train=4,
    surrogate_epochs=2, policy_epochs=1, policy_lr=1e-4, supervised_lr=1e-3,
    batch_size=2, hidden=6, layers=2, policy_mode="surrogate",
    train_inline=False, checkpoint_dir="checkpoints", output_dir="results",
    timing_scenes=1, timing_repeats=2)
_EVERY_FIELD = dict(
    kind="sweep-m", num_users=4, zeta=1e7, zeta_list=[1e5, 1e8],
    aperture_area=1.0, aperture_list=[0.25, 4.0], num_nodes=64, m_list=[4, 16],
    num_nodes_eval=64, ntr_list=[4, 8], power_budget=2.0, num_test_scenes=2,
    scene_seed=1, init_seed=2, data_seed=3, num_train=8, surrogate_epochs=1,
    policy_epochs=2, policy_lr=0.01, supervised_lr=0.02, batch_size=4,
    hidden=8, layers=3, policy_mode="analytic", train_inline=True,
    checkpoint_dir="ck", output_dir="out", timing_scenes=2, timing_repeats=1)


def _flags(settings: dict) -> list[str]:
    flags = []
    for name, value in settings.items():
        flags.append("--" + name.replace("_", "-"))
        if isinstance(value, list):
            flags += [str(v) for v in value]
        elif not isinstance(value, bool):
            flags.append(str(value))
    return flags


@pytest.mark.parametrize("command", _COMMANDS + ["experiment"])
def test_every_config_field_is_a_flag(command, tmp_path, monkeypatch,
                                      capsys):
    # every field the command reads is a flag, and no other field is: each
    # command used to take all 29, and the train commands two aliases
    assert set(_EVERY_FIELD) == set(_TINY) == set(
        ExperimentConfig.__dataclass_fields__)
    assert all(_EVERY_FIELD[name] != _TINY[name] for name in _TINY)
    row = (FIELDS_READ[command] if command != "experiment" else
           set().union(*(FIELDS_READ[kind] for kind in SWEEP_KINDS)))
    parser = _build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    options = {o for a in sub._actions for o in a.option_strings}
    assert options == {"-h", "--help", "--config"} | {
        "--" + name.replace("_", "-") for name in row}
    given = {name: _EVERY_FIELD[name] for name in row}
    args = parser.parse_args([command, *_flags(given)])
    assert _experiment_config(args, {}) == ExperimentConfig.from_dict(given)

    def must_not_run(config):
        raise AssertionError("ran with a flag its kind does not read")

    monkeypatch.setattr(lcapa.experiments, "run_experiment", must_not_run)
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_EVERY_FIELD))
    outside = [(command, name) for name in _EVERY_FIELD if name not in row]
    if command == "experiment":
        outside = [(kind, name) for kind in SWEEP_KINDS for name in _EVERY_FIELD
                   if name not in FIELDS_READ[kind]]
    for reader, name in outside:
        flag = _flags({name: _EVERY_FIELD[name]})
        argv = ([command] if reader == command else
                [command, "--config", str(cfg), "--kind", reader])
        assert main([*argv, *flag]) == 1, (reader, name)
        message = (f"unrecognized arguments: {' '.join(flag)}"
                   if reader == command else
                   f"--kind {reader} does not read {flag[0]}")
        assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def _run(reader: str, settings: dict, run_dir: Path, monkeypatch) -> None:
    """Run a command, or an experiment kind, from ``settings`` as a config
    file; its relative directories land in ``run_dir``."""
    run_dir.mkdir(parents=True)
    cfg = run_dir.parent / f"{run_dir.name}.json"
    cfg.write_text(json.dumps(settings))
    monkeypatch.chdir(run_dir)
    argv = ([reader] if reader in _COMMANDS else
            ["experiment", "--kind", reader])
    if "train_inline" in FIELDS_READ[reader]:
        argv.append("--train-inline")
    assert main([*argv, "--config", str(cfg)]) == 0, reader


# the list a sweep point's swept value comes from
_SWEPT_LIST = {"zeta": "zeta_list", "aperture_area": "aperture_list",
               "num_train": "ntr_list"}


def test_each_command_and_kind_reads_exactly_its_row(tmp_path, monkeypatch):
    reads, paused = set(), []

    class Recording(ExperimentConfig):
        """A config that notes each field read once it is built; a sweep
        point notes a read of its swept value as a read of the list."""

        def __post_init__(self):
            paused.append(True)
            try:
                super().__post_init__()
            finally:
                paused.pop()

        def __getattribute__(self, name):
            if not paused and name in ExperimentConfig.__dataclass_fields__:
                reads.add(vars(self).get("_read_as", {}).get(name, name))
            return super().__getattribute__(name)

    def point_unread(config, **changes):
        # building a point is bookkeeping: replace copies every field
        paused.append(True)
        try:
            point = replace(config, **changes)
        finally:
            paused.pop()
        object.__setattr__(point, "_read_as",
                           {name: _SWEPT_LIST[name] for name in changes})
        return point

    write_csv = lcapa.experiments._write_csv

    def write_unread(*args):
        # the record reads the row itself
        paused.append(True)
        try:
            write_csv(*args)
        finally:
            paused.pop()

    monkeypatch.setattr(lcapa.experiments, "ExperimentConfig", Recording)
    monkeypatch.setattr(lcapa.experiments, "_write_csv", write_unread)
    monkeypatch.setattr(lcapa.experiments, "replace", point_unread)
    for reader in _COMMANDS + list(SWEEP_KINDS):
        reads.clear()
        for mode in POLICY_MODES:
            _run(reader, dict(_TINY, policy_mode=mode),
                 tmp_path / mode / reader, monkeypatch)
        # the train commands set train_inline themselves
        own = {"train_inline"} if reader.startswith("train-") else set()
        assert reads == set(FIELDS_READ[reader]) | own, reader


def _without_wall_clock(path: Path) -> str:
    text = path.read_text()
    if path.suffix == ".json":
        text, found = re.subn(r'"wall_clock_seconds": [^,}]*', "", text)
        assert found == 1
    elif path.name == "baseline.csv":       # its last column is a runtime
        text = "\n".join(line if line.startswith("#") else line.rsplit(",", 1)[0]
                         for line in text.splitlines())
    return text


@pytest.mark.parametrize("command", _COMMANDS)
def test_a_field_outside_the_row_changes_no_output_byte(command, tmp_path,
                                                        monkeypatch):
    def outputs(name, settings):
        run_dir = tmp_path / name
        _run(command, settings, run_dir, monkeypatch)
        return {str(p.relative_to(run_dir)): _without_wall_clock(p)
                for p in sorted(run_dir.rglob("*")) if p.is_file()}

    expected = outputs("tiny", _TINY)
    assert expected
    for name in _EVERY_FIELD:
        if name not in FIELDS_READ[command]:
            changed = dict(_TINY, **{name: _EVERY_FIELD[name]})
            assert outputs(name, changed) == expected, name


def test_a_file_that_records_every_field_still_reads(tmp_path, monkeypatch):
    # a baseline file written when every file recorded all 29 fields, two
    # of them lists the baseline does not read
    path = FIXTURES / "baseline_every_field.csv"
    embedded, columns, rows = read_result_file(str(path))
    record = next(line[len("# config: "):]
                  for line in path.read_text().splitlines()
                  if line.startswith("# config: "))
    assert set(json.loads(record)) == set(ExperimentConfig.__dataclass_fields__)
    assert embedded.m_list == (4, 16) and embedded.zeta_list == (1e5,)
    # its config, keys outside the baseline's row and all, re-runs every row
    # but the runtime
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(record)
    assert main(["baseline", "--config", "config.json"]) == 0
    _, again_columns, again = read_result_file(str(tmp_path / "out" /
                                                   "baseline.csv"))
    assert again_columns == columns
    assert [r[:-1] for r in again] == [r[:-1] for r in rows]


def test_flags_alone_train_and_evaluate_one_policy(tmp_path, capsys):
    # eval used to know none of --hidden, --layers, --batch-size or
    # --policy-epochs, so these flags could not reach the trained network
    flags = ["--num-users", "3", "--num-nodes", "16", "--num-train", "8",
             "--policy-epochs", "1", "--batch-size", "4", "--hidden", "8",
             "--layers", "3", "--policy-mode", "analytic",
             "--checkpoint-dir", str(tmp_path / "ck")]
    assert main(["train-policy", *flags]) == 0
    assert main(["eval", *flags, "--num-nodes-eval", "64",
                 "--num-test-scenes", "2",
                 "--output-dir", str(tmp_path / "out")]) == 0
    assert "over 2 scenes" in capsys.readouterr().out
    assert (tmp_path / "out" / "eval.csv").stat().st_size > 0


def test_info_exits_zero(capsys):
    assert main(["info"]) == 0
    assert "default wavelength" in capsys.readouterr().out


def test_missing_checkpoint_is_a_runtime_failure(tmp_path, capsys):
    assert main(["eval", "--checkpoint-dir", str(tmp_path),
                 "--num-test-scenes", "2"]) == 2
    err = capsys.readouterr().err
    assert "MissingCheckpointError" in err and "train-policy" in err


@pytest.mark.parametrize("command", ["eval", "baseline"])
def test_negative_scene_seed_is_a_usage_error(command, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([command, "--scene-seed", "-1", "--output-dir", str(out)]) == 1
    assert "scene_seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_checkpoint_of_another_hidden_is_a_runtime_failure(tmp_path, capsys):
    settings = dict(num_users=3, num_nodes=16, num_nodes_eval=64,
                    num_test_scenes=2, num_train=8, policy_epochs=1,
                    batch_size=4, hidden=8, layers=3, policy_mode="analytic",
                    checkpoint_dir=str(tmp_path / "ck"),
                    output_dir=str(tmp_path / "out"))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(settings))
    assert main(["train-policy", "--config", str(cfg)]) == 0
    cfg.write_text(json.dumps(dict(settings, hidden=64)))
    capsys.readouterr()
    # the eval.csv would embed hidden 64 but hold the SE of the hidden-8 net
    assert main(["eval", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "CheckpointMismatchError" in err and "'vertex_widths': [3, 8, 2]" in err
    assert not (tmp_path / "out").exists()


def test_baseline_at_high_snr_exits_zero(tmp_path, capsys):
    # WMMSE's power multiplier raised BisectionError on 7 of these 16
    # scenes, and the command exited 2
    assert main(["baseline", "--num-users", "4", "--zeta", "1e8",
                 "--num-test-scenes", "16",
                 "--output-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("baseline mean sum SE ")
    assert math.isfinite(float(out.split()[4]))


def test_baseline_and_eval_score_the_same_scenes(tmp_path, capsys,
                                                 monkeypatch):
    from lcapa.experiments import _fmt, read_result_file
    from lcapa.training import ScenePool
    from lcapa.wmmse import baseline_se

    settings = dict(num_users=3, num_nodes=16, num_nodes_eval=64,
                    num_test_scenes=3, num_train=8, policy_epochs=1,
                    batch_size=4, hidden=8, layers=2, policy_mode="analytic",
                    train_inline=True, checkpoint_dir=str(tmp_path / "ck"),
                    output_dir=str(tmp_path / "out"))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(settings))

    def no_gram(*args, **kwargs):
        raise AssertionError("the baseline built a coupling Gram")

    # WMMSE samples its own channels: the scenes need no Gram
    with monkeypatch.context() as patch:
        patch.setattr(lcapa.training, "coupling_grams", no_gram)
        assert main(["baseline", "--config", str(cfg)]) == 0
    assert main(["eval", "--config", str(cfg)]) == 0
    capsys.readouterr()
    _, _, baseline = read_result_file(str(tmp_path / "out" / "baseline.csv"))
    _, _, evaluated = read_result_file(str(tmp_path / "out" / "eval.csv"))
    ids = [f"scene-9000-{i}" for i in range(3)]
    assert [r[0] for r in baseline] == ids
    assert [r[0] for r in evaluated if r[0] != "mean"] == ids
    # the ids name the scenes scored: the test pool's, in order
    scene = ScenePool.generate(9000, 3, 3, 16, 1e6).scenes[2]
    assert baseline[2][5] == _fmt(baseline_se(scene, 16, 64).se_report.sum_se)


def test_one_path_from_a_config_to_its_networks_and_scenes(tmp_path, capsys,
                                                           monkeypatch):
    settings = dict(num_users=3, num_nodes=16, num_nodes_eval=64,
                    num_test_scenes=3, num_train=8, surrogate_epochs=1,
                    policy_epochs=1, batch_size=4, hidden=8, layers=2,
                    policy_mode="surrogate", timing_scenes=2, timing_repeats=1)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(settings))
    config = ["--config", str(cfg), "--checkpoint-dir"]
    output = ["--output-dir", str(tmp_path / "out")]
    for head in ("proj", "value", "policy"):
        assert main([f"train-{head}", *config, str(tmp_path / "cli")]) == 0
    assert main(["experiment", "--kind", "single", "--train-inline",
                 *config, str(tmp_path / "inline"), *output]) == 0

    def checkpoints(directory):
        stripped = {}
        for path in sorted((tmp_path / directory).iterdir()):
            stripped[path.name], found = re.subn(
                rb'"wall_clock_seconds": [^,}]*', b"", path.read_bytes())
            assert found == 1
        return stripped

    written = checkpoints("cli")
    assert [name.split("_")[0] for name in written] == ["policy", "proj",
                                                        "value"]
    assert written == checkpoints("inline")

    # the timed scenes are the first timing_scenes of the scenes eval scores
    scored, timed = [], []
    exact = lcapa.experiments.exact_policy_se
    baseline = lcapa.experiments.baseline_se

    def scoring(policy, pool, *args):
        scored.append(pool.positions)
        return exact(policy, pool, *args)

    def timing(scene, *args):
        timed.append(scene.positions)
        return baseline(scene, *args)

    monkeypatch.setattr(lcapa.experiments, "exact_policy_se", scoring)
    monkeypatch.setattr(lcapa.experiments, "baseline_se", timing)
    assert main(["eval", *config, str(tmp_path / "cli"), *output]) == 0
    assert main(["experiment", "--kind", "timing", *config,
                 str(tmp_path / "cli"), *output]) == 0
    capsys.readouterr()
    assert len(scored) == 1 and len(scored[0]) == 3
    assert [p.tobytes() for p in timed] == [p.tobytes() for p in scored[0][:2]]
