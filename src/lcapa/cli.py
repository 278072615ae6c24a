"""Command-line front end.

Subcommands: train-proj, train-value, train-policy, eval, baseline,
experiment, grad-check, info.  A JSON config file supplies defaults; explicit
flags override it.  Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, experiments
from .scene import DEFAULT_WAVELENGTH, FREE_SPACE_IMPEDANCE
from .training import POLICY_MODES
from .wmmse import baseline_se


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lcapa", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file with defaults")
        return p

    for name, help_text in (("train-proj", "train the power surrogate"),
                            ("train-value", "train the coupling surrogate"),
                            ("train-policy", "train the policy network")):
        p = add(name, help_text)
        for flag, typ in (("--num-users", int), ("--zeta", float),
                          ("--aperture-area", float), ("--num-nodes", int),
                          ("--num-train", int), ("--hidden", int),
                          ("--layers", int), ("--epochs", int),
                          ("--batch-size", int), ("--learning-rate", float),
                          ("--init-seed", int), ("--data-seed", int),
                          ("--checkpoint-dir", str)):
            p.add_argument(flag, type=typ)
        if name == "train-policy":
            p.add_argument("--policy-mode", choices=POLICY_MODES)

    p = add("eval", "evaluate a trained policy on a fresh test set")
    for flag, typ in (("--num-users", int), ("--zeta", float),
                      ("--aperture-area", float), ("--num-nodes", int),
                      ("--num-nodes-eval", int), ("--num-train", int),
                      ("--num-test-scenes", int), ("--scene-seed", int),
                      ("--checkpoint-dir", str), ("--output-dir", str)):
        p.add_argument(flag, type=typ)
    p.add_argument("--policy-mode", choices=POLICY_MODES)

    p = add("baseline", "run the WMMSE baseline over a test set")
    for flag, typ in (("--num-users", int), ("--zeta", float),
                      ("--aperture-area", float), ("--num-nodes", int),
                      ("--num-nodes-eval", int), ("--num-test-scenes", int),
                      ("--scene-seed", int), ("--output-dir", str)):
        p.add_argument(flag, type=typ)

    p = add("experiment", "run a sweep or timing experiment")
    p.add_argument("--kind", choices=experiments.SWEEP_KINDS)
    p.add_argument("--policy-mode", choices=POLICY_MODES)
    p.add_argument("--train-inline", action="store_true", default=None)
    p.add_argument("--output-dir")
    p.add_argument("--checkpoint-dir")

    p = add("grad-check", "finite-difference check of every gradient path")
    p.add_argument("--hidden", type=int, default=8)
    p.add_argument("--probes", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    add("info", "print version and default constants")
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


def _experiment_config(args, cfg: dict, **overrides):
    # config file < every given flag naming a config field < overrides; the
    # parser's own attributes (command, config, epochs, ...) name no field
    known = experiments.ExperimentConfig.__dataclass_fields__
    merged = dict(cfg)
    for given in (vars(args), overrides):
        merged.update({k: v for k, v in given.items()
                       if v is not None and k in known})
    try:
        return experiments.ExperimentConfig.from_dict(merged)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_train(args, which: str) -> int:
    cfg = _load_config(args.config)
    epochs = getattr(args, "epochs", None)
    lr = getattr(args, "learning_rate", None)
    overrides = {"train_inline": True}
    if which == "policy":
        overrides.update({"policy_epochs": epochs, "policy_lr": lr})
    else:
        overrides.update({"surrogate_epochs": epochs, "supervised_lr": lr})
    config = _experiment_config(args, cfg, **overrides)
    if which == "policy":
        experiments.train_policy_for(config, config.zeta,
                                     config.aperture_area, config.num_train)
    else:
        experiments.train_surrogate(config, config.zeta, config.aperture_area,
                                    config.num_train, which)
    paths = experiments.checkpoint_paths(config, config.zeta,
                                         config.aperture_area, config.num_train)
    print(f"checkpoints under {config.checkpoint_dir}: "
          + ", ".join(os.path.basename(p) for p in paths.values()
                      if os.path.exists(p)))
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_config(args.config)
    config = _experiment_config(args, cfg)
    _, se = experiments.policy_se(config, config.zeta, config.aperture_area,
                                  config.num_train)
    os.makedirs(config.output_dir, exist_ok=True)
    path = os.path.join(config.output_dir, "eval.csv")
    rows = [[f"scene-{config.scene_seed}-{i}", "lcapa-gnn",
             config.num_nodes_eval, float(v)] for i, v in enumerate(se)]
    rows.append(["mean", "lcapa-gnn", config.num_nodes_eval, float(se.mean())])
    experiments._write_csv(path, config, ["scene_id", "method", "m_eval",
                                          "sum_se"], rows)
    print(f"mean sum SE {se.mean():.4f} over {len(se)} scenes -> {path}")
    return 0


def _cmd_baseline(args) -> int:
    cfg = _load_config(args.config)
    config = _experiment_config(args, cfg)
    # the scenes, and so the scene ids, of ``lcapa eval``
    pool = experiments.build_test_pool(config, config.zeta,
                                       config.aperture_area, config.num_nodes)
    rows = []
    for i, scene in enumerate(pool.scenes):
        res = baseline_se(scene, config.num_nodes, config.num_nodes_eval)
        rows.append([f"scene-{config.scene_seed}-{i}", res.num_nodes,
                     res.num_nodes_eval, res.info.iterations,
                     int(res.info.converged), res.se_report.sum_se,
                     res.runtime_seconds])
    os.makedirs(config.output_dir, exist_ok=True)
    path = os.path.join(config.output_dir, "baseline.csv")
    experiments._write_csv(path, config, ["scene_id", "m", "m_eval",
                                          "iterations", "converged", "sum_se",
                                          "runtime_seconds"], rows)
    mean = np.mean([r[5] for r in rows])
    print(f"baseline mean sum SE {mean:.4f} over {len(rows)} scenes -> {path}")
    return 0


def _cmd_experiment(args) -> int:
    cfg = _load_config(args.config)
    config = _experiment_config(args, cfg, kind=args.kind,
                                train_inline=args.train_inline)
    paths = experiments.run_experiment(config)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def _cmd_grad_check(args) -> int:
    from .gnn import policy_spec, proj_spec, value_spec, init_params
    from .heads import (GnnModel, policy_forward, policy_backward, proj_forward,
                        proj_backward, value_forward, value_backward)
    from .training import (ScenePool, analytic_chain_loss_and_grads,
                           finite_diff_check, surrogate_chain_loss_and_grads)

    rng = np.random.default_rng(args.seed)
    pos = rng.uniform(10.0, 25.0, (2, 3, 3))
    weights = (rng.standard_normal((2, 3, 3))
               + 1j * rng.standard_normal((2, 3, 3)))
    norms = {"pos_scale": 30.0, "a_scale": 1.0, "out_scale": 1.0}
    failures = []

    def report(name, err):
        status = "ok" if err <= 1e-5 else "FAIL"
        print(f"{name:<24s} max relative error {err:.3e}  [{status}]")
        if err > 1e-5:
            failures.append(name)

    spec = policy_spec(hidden=args.hidden, layers=3)
    model = GnnModel(spec=spec, params=init_params(spec, args.seed), norms=norms)
    w = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    a, cache = policy_forward(model, pos)
    grads = policy_backward(model, cache, w)
    report("policy", finite_diff_check(
        lambda: float(np.sum(policy_forward(model, pos)[0].real * w.real)
                      + np.sum(policy_forward(model, pos)[0].imag * w.imag)),
        model.params, grads, probes=args.probes, seed=args.seed))

    spec = proj_spec(hidden=args.hidden, layers=3)
    model = GnnModel(spec=spec, params=init_params(spec, args.seed + 1),
                     norms=norms)
    wp = rng.standard_normal((2, 3))
    _, cache = proj_forward(model, pos, weights)
    grads, _ = proj_backward(model, cache, wp, wrt="params")
    report("proj", finite_diff_check(
        lambda: float(np.sum(proj_forward(model, pos, weights)[0] * wp)),
        model.params, grads, probes=args.probes, seed=args.seed + 1))

    spec = value_spec(hidden=args.hidden, layers=3)
    model = GnnModel(spec=spec, params=init_params(spec, args.seed + 2),
                     norms=norms)
    _, cache = value_forward(model, pos, weights)
    grads, _ = value_backward(model, cache, w, wrt="params")
    report("value", finite_diff_check(
        lambda: float(np.sum(value_forward(model, pos, weights)[0].real * w.real)
                      + np.sum(value_forward(model, pos, weights)[0].imag * w.imag)),
        model.params, grads, probes=args.probes, seed=args.seed + 2))

    pool = ScenePool.generate(args.seed, 2, 3, 64, 1e6)
    scene = pool.scenes[0]
    p_spec = policy_spec(hidden=args.hidden, layers=3)
    policy = GnnModel(spec=p_spec, params=init_params(p_spec, args.seed + 3),
                      norms={"pos_scale": 30.0, "a_scale": 2e-4,
                             "out_scale": 2e-4})
    pr_spec = proj_spec(hidden=args.hidden, layers=3)
    proj_model = GnnModel(spec=pr_spec, params=init_params(pr_spec, args.seed + 4),
                          norms={"pos_scale": 30.0, "a_scale": 2e-4,
                                 "out_scale": 1.0})
    v_spec = value_spec(hidden=args.hidden, layers=3)
    value_model = GnnModel(spec=v_spec, params=init_params(v_spec, args.seed + 5),
                           norms={"pos_scale": 30.0, "a_scale": 2e-4,
                                  "out_scale": 100.0})

    surrogate_args = (policy, proj_model, value_model, pool.positions,
                      scene.user_apertures(), scene.noise_vars(),
                      scene.power_budget)
    _, grads = surrogate_chain_loss_and_grads(*surrogate_args)
    report("policy-chain", finite_diff_check(
        lambda: surrogate_chain_loss_and_grads(*surrogate_args)[0],
        policy.params, grads, probes=args.probes, seed=args.seed + 6))

    chain_args = (pool.positions, pool.coupling_grams, scene.user_apertures(),
                  scene.noise_vars(), scene.power_budget)
    _, grads = analytic_chain_loss_and_grads(policy, *chain_args)
    report("analytic-chain", finite_diff_check(
        lambda: analytic_chain_loss_and_grads(policy, *chain_args)[0],
        policy.params, grads, probes=args.probes, seed=args.seed + 7))
    return 0 if not failures else 2


def _cmd_info(args) -> int:
    print(f"lcapa {__version__}")
    print(f"default wavelength: {DEFAULT_WAVELENGTH} m")
    print(f"free-space impedance: 120*pi = {FREE_SPACE_IMPEDANCE:.6f} ohm")
    print("default aperture: 2 m x 2 m square, center (0,0,0), normal [0,1,0]")
    print("default user region: 20<r<30 m, pi/6<theta<pi/3, pi/6<phi<pi/3")
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
        "grad-check": _cmd_grad_check,
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
