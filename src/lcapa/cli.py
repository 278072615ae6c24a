"""Command-line front end.

Subcommands: train-proj, train-value, train-policy, eval, baseline,
experiment, info.  Each command that runs an experiment config
takes as flags exactly the config fields it reads, its row of
``lcapa.experiments.FIELDS_READ``: ``--<field>`` with dashes for underscores
(a tuple field takes one or more values).  ``experiment`` takes the fields
of every kind, and a flag its ``--kind`` does not read is a usage error.
Each also takes ``--config``, a JSON file of defaults that the flags
override; one file may serve several commands, so a key outside the
command's row is accepted, checked and not recorded.  Exit codes: 0 success,
1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__, experiments
from .scene import (DEFAULT_WAVELENGTH, FREE_SPACE_IMPEDANCE, USER_ANGLE_MAX,
                    USER_ANGLE_MIN, USER_R_MAX, USER_R_MIN)
from .training import POLICY_MODES
from .wmmse import baseline_se


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_FLAG_TYPES = {"int": int, "float": float, "str": str}
_FLAG_CHOICES = {"kind": experiments.SWEEP_KINDS, "policy_mode": POLICY_MODES}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_config_flags(p: argparse.ArgumentParser, names) -> None:
    """One flag per ExperimentConfig field in ``names``, typed from the
    field's annotation; a flag not given is None."""
    for f in fields(experiments.ExperimentConfig):
        if f.name not in names:
            continue
        flag = _flag(f.name)
        if f.type == "bool":
            p.add_argument(flag, action="store_true", default=None)
        elif f.type.startswith("tuple["):
            element = f.type[len("tuple["):f.type.index(",")]
            p.add_argument(flag, nargs="+", type=_FLAG_TYPES[element])
        else:
            p.add_argument(flag, type=_FLAG_TYPES[f.type],
                           choices=_FLAG_CHOICES.get(f.name))


def _build_parser() -> _Parser:
    parser = _Parser(prog="lcapa", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    every_kind = set().union(*(experiments.FIELDS_READ[kind]
                               for kind in experiments.SWEEP_KINDS))
    for name, help_text in (
            ("train-proj", "train the power surrogate"),
            ("train-value", "train the coupling surrogate"),
            ("train-policy", "train the policy network"),
            ("eval", "evaluate a trained policy on a fresh test set"),
            ("baseline", "run the WMMSE baseline over a test set"),
            ("experiment", "run a sweep or timing experiment")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file with defaults")
        _add_config_flags(p, experiments.FIELDS_READ.get(name, every_kind))

    sub.add_parser("info", help="print version and default constants")
    return parser


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError(f"it holds a {type(cfg).__name__}, not an object")
    except (OSError, ValueError) as exc:      # JSONDecodeError is a ValueError
        raise UsageError(f"bad config file {path}: {exc}") from exc
    return cfg


def _flags_given(args) -> dict:
    """The config fields given as flags; the parser's own attributes
    (command, config) name no field."""
    known = experiments.ExperimentConfig.__dataclass_fields__
    return {k: v for k, v in vars(args).items() if v is not None and k in known}


def _experiment_config(args, cfg: dict, **overrides):
    # config file < every given flag < overrides
    try:
        return experiments.ExperimentConfig.from_dict(
            {**cfg, **_flags_given(args), **overrides})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_train(args, which: str) -> int:
    cfg = _load_config(args.config)
    config = _experiment_config(args, cfg, train_inline=True)
    experiments.network(config, which)
    print(f"{which} checkpoint: {experiments.checkpoint_path(config, which)}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_config(args.config)
    config = _experiment_config(args, cfg)
    _, se = experiments.policy_se(config)
    os.makedirs(config.output_dir, exist_ok=True)
    path = os.path.join(config.output_dir, "eval.csv")
    rows = [[f"scene-{config.scene_seed}-{i}", "lcapa-gnn",
             config.num_nodes_eval, float(v)] for i, v in enumerate(se)]
    rows.append(["mean", "lcapa-gnn", config.num_nodes_eval, float(se.mean())])
    experiments._write_csv(path, config, "eval",
                           ["scene_id", "method", "m_eval", "sum_se"], rows)
    print(f"mean sum SE {se.mean():.4f} over {len(se)} scenes -> {path}")
    return 0


def _cmd_baseline(args) -> int:
    cfg = _load_config(args.config)
    config = _experiment_config(args, cfg)
    # the scenes, and so the scene ids, of ``lcapa eval``
    scenes = experiments.eval_scenes(config, config.num_test_scenes)
    rows = []
    for i, scene in enumerate(scenes):
        res = baseline_se(scene, config.num_nodes, config.num_nodes_eval)
        rows.append([f"scene-{config.scene_seed}-{i}", config.num_nodes,
                     config.num_nodes_eval, res.info.iterations,
                     int(res.info.converged), res.se_report.sum_se,
                     res.runtime_seconds])
    os.makedirs(config.output_dir, exist_ok=True)
    path = os.path.join(config.output_dir, "baseline.csv")
    experiments._write_csv(path, config, "baseline",
                           ["scene_id", "m", "m_eval", "iterations",
                            "converged", "sum_se", "runtime_seconds"], rows)
    mean = np.mean([r[5] for r in rows])
    print(f"baseline mean sum SE {mean:.4f} over {len(rows)} scenes -> {path}")
    return 0


def _cmd_experiment(args) -> int:
    cfg = _load_config(args.config)
    config = _experiment_config(args, cfg)
    unread = [_flag(name) for name in _flags_given(args)
              if name not in experiments.FIELDS_READ[config.kind]]
    if unread:
        raise UsageError(f"--kind {config.kind} does not read "
                         + ", ".join(unread))
    paths = experiments.run_experiment(config)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def _cmd_info(args) -> int:
    print(f"lcapa {__version__}")
    print(f"default wavelength: {DEFAULT_WAVELENGTH} m")
    print(f"free-space impedance: 120*pi = {FREE_SPACE_IMPEDANCE:.6f} ohm")
    print("default aperture: 2 m x 2 m square, center (0,0,0), normal [0,1,0]")
    lo, hi = f"pi/{np.pi / USER_ANGLE_MIN:g}", f"pi/{np.pi / USER_ANGLE_MAX:g}"
    print(f"default user region: {USER_R_MIN:g}<r<{USER_R_MAX:g} m, "
          f"{lo}<theta<{hi}, {lo}<phi<{hi}")
    print("snr knob: sigma0^2 = |A_k| k0^2 eta^2 / (4 pi zeta)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    handlers = {
        "train-proj": lambda a: _cmd_train(a, "proj"),
        "train-value": lambda a: _cmd_train(a, "value"),
        "train-policy": lambda a: _cmd_train(a, "policy"),
        "eval": _cmd_eval,
        "baseline": _cmd_baseline,
        "experiment": _cmd_experiment,
        "info": _cmd_info,
    }
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
