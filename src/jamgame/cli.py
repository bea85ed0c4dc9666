"""Command-line driver for the whole pipeline.

Subcommands: ``steady`` (plant fixed point), ``solve`` (value-iteration
oracle), ``learn`` (Nash Q-learning), ``equilibrium`` (one stage game
from a matrix file), ``monotone`` (structure report), ``bayes``
(incomplete-information strategies) and ``simulate`` (closed-loop
rollout under stored policies). Each ``cmd_*`` computes and prints its
summary, then returns its outputs as an ordered ``{file name:
writer(path)}``; ``main`` creates the output directory only after the
command has returned, so a failed command writes nothing. Exit codes: 0
success, 1 solver failure (``RuntimeError`` or ``LinAlgError``), 2 bad
config, arguments or files. Any other exception is a bug and surfaces
with its traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import bayesian, equilibria, game, nashq, structure
from .config import ConfigError, load_config
from .estimation import boundedness_threshold

__all__ = ["main"]


def _load(args):
    cfg = load_config(args.config)
    overrides = {key: getattr(args, key) for key in ("seed", "episodes")
                 if getattr(args, key, None) is not None}
    try:
        return dataclasses.replace(cfg, learn=dataclasses.replace(cfg.learn, **overrides))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _policies_json(spec, policies) -> str:
    attacker, sensor = nashq.policy_arrays(policies)
    return nashq._game_json(spec, policies={
        "attacker": attacker,
        "sensor": sensor,
        "value_attacker": np.array([p.value_p1 for p in policies]),
        "value_sensor": np.array([p.value_p2 for p in policies]),
        "deviation_gap": np.array([p.deviation_gap for p in policies]),
    })


def _table_outputs(prefix, spec, res) -> dict:
    """The Q-table dump of ``solve`` (``oracle``) and ``learn``."""
    tables = res.tables
    return {
        f"{prefix}_qtables.json": lambda path: _write(path, nashq.qtables_to_json(spec, tables)),
        f"{prefix}_qtable.csv": lambda path: nashq.write_qtable_csv(spec, tables, path),
        f"{prefix}_policies.json": lambda path: _write(path, _policies_json(spec, res.policies)),
    }


def _print_boundedness(spec) -> None:
    verdict = "holds" if spec.boundedness_ok else "VIOLATED"
    print(
        f"worst-case arrival probability {spec.min_arrival_prob!r} vs "
        f"threshold {spec.bound_threshold!r}: boundedness {verdict}"
    )


def cmd_steady(args, cfg) -> dict:
    summary = cfg.game.steady
    print(f"steady covariance:\n{summary.p_bar}")
    print(f"trace: {float(np.trace(summary.p_bar))!r}")
    print(f"spectral radius: {summary.rho_a!r}")
    print(f"boundedness threshold 1 - 1/rho^2: {boundedness_threshold(summary)!r}")
    print(f"converged in {summary.iterations} iterations (tol {summary.tol:g})")
    print("trace table (holding time -> trace):")
    for m, t in enumerate(summary.trace_table):
        print(f"  {m}: {t!r}")
    _print_boundedness(cfg.game)
    return {}


def cmd_solve(args, cfg) -> dict:
    res = nashq.shapley_value_iteration(cfg.game)
    print(f"value iteration converged in {res.sweeps} sweeps")
    return _table_outputs("oracle", cfg.game, res)


def cmd_learn(args, cfg) -> dict:
    _print_boundedness(cfg.game)
    res = nashq.nash_q_learn(cfg.game, cfg.learn)
    print(f"zero-sum mirror error: {res.mirror_max!r}")
    if args.oracle:
        oracle = nashq.shapley_value_iteration(cfg.game)
        gap = float(np.abs(res.tables.q1 - oracle.tables.q1).max())
        scale = 1.0 + float(np.abs(oracle.tables.q1).max())
        print(f"sup-norm gap to oracle: {gap!r} ({gap / scale:.4%} of 1 + |Q*|)")
    return {**_table_outputs("learn", cfg.game, res),
            "learn_convergence.csv": lambda path: _write_curve(path, cfg.game, res)}


def _write_curve(path, spec, res) -> None:
    columns = [(np.arange(len(res.curve)), game._STR)] + [(q, game._REPR) for q in res.curve.T]
    game._write_csv(path, ["episode"] + nashq._q1_labels(spec), columns)


def cmd_equilibrium(args, cfg) -> dict:
    try:
        stage = equilibria.read_stage_game(args.matrix)
    except ValueError as exc:
        raise ConfigError(f"matrix file: {exc}") from exc
    print(f"stage game {stage.shape[0]}x{stage.shape[1]}, zero-sum: {stage.zero_sum}")
    try:
        res = equilibria.lemke_howson(stage)
        _print_result("lemke-howson", res)
    except equilibria.PivotLimitError as exc:
        print(f"lemke-howson failed: {exc}")
    if stage.zero_sum:
        _print_result("zero-sum value", equilibria.zero_sum_value(stage))
    if max(stage.shape) <= equilibria.SUPPORT_MAX:
        for i, res in enumerate(equilibria.support_enumeration(stage)):
            _print_result(f"support enumeration #{i}", res)
    return {}


def _print_result(name, res) -> None:
    print(
        f"{name}: p1 {np.round(res.strat_p1.probs, 6).tolist()} "
        f"p2 {np.round(res.strat_p2.probs, 6).tolist()} "
        f"values ({res.value_p1!r}, {res.value_p2!r}) "
        f"gap {res.deviation_gap:.3g}"
    )


def cmd_monotone(args, cfg) -> dict:
    try:
        structure.require_two_actions(cfg.game)
    except ValueError as exc:
        raise ConfigError(f"monotone: {exc}") from exc
    oracle = nashq.shapley_value_iteration(cfg.game)
    try:
        report = structure.structure_report(cfg.game, oracle)
    except ValueError as exc:
        raise ConfigError(f"monotone: {exc}") from exc
    print(structure.render_report(report))
    return {"monotone_report.json": lambda path: _write(path, structure.report_to_json(report))}


def cmd_bayes(args, cfg) -> dict:
    values = None
    if cfg.bayes_payoff_mode == "lookahead":
        oracle = nashq.shapley_value_iteration(cfg.game)
        v1 = np.array([p.value_p1 for p in oracle.policies])
        values = structure.gain_averaged_values(cfg.game, v1)
    try:
        bspec = bayesian.bayesian_from_game(
            cfg.game,
            holding_time=cfg.bayes_holding_time,
            belief_mode=cfg.bayes_belief_mode,
            payoff_mode=cfg.bayes_payoff_mode,
            holding_values=values,
        )
    except ValueError as exc:
        raise ConfigError(f"bayes: {exc}") from exc
    res = bayesian.solve_bayesian(bspec)
    print(f"game value (attacker): {res.value_attacker!r}")
    print(f"deviation gap: {res.deviation_gap:.3g}")
    return {f"bayes_{player}.csv": (lambda path, player=player, strat=strat:
                                    bayesian.write_type_strategy_csv(bspec, strat, player, path))
            for player, strat in (("attacker", res.attacker), ("sensor", res.sensor))}


def cmd_simulate(args, cfg) -> dict:
    if args.horizon <= 0:
        raise ConfigError(f"horizon must be positive, got {args.horizon}")
    pa, ps = _read_policies(args.policies, cfg.game)
    rng = np.random.default_rng(cfg.learn.seed)
    try:
        traj = game.simulate_trajectory(cfg.game, pa, ps, horizon=args.horizon, rng=rng)
    except ValueError as exc:
        raise ConfigError(f"policy file: {exc}") from exc
    print(f"empirical discounted return: {traj.discounted_return(cfg.game.beta)!r}")
    return {"trajectory.csv": lambda path: game.write_trajectory_csv(traj, path)}


def _read_policies(path, spec) -> tuple:
    """A policy file's attacker and sensor tables; ``simulate_trajectory`` checks them."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        differ = [key for key, want in nashq._game_header(spec).items() if doc[key] != want]
        tables = tuple(np.array([p[player] for p in doc["policies"]], dtype=float)
                       for player in ("attacker", "sensor"))
    except OSError as exc:
        raise ConfigError(f"cannot read policy file: {exc}") from exc
    except KeyError as exc:
        raise ConfigError(f"policy file lacks {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"policy file is malformed: {exc}") from exc
    if differ:
        raise ConfigError(f"policy file is for another game: its {', '.join(differ)} differ")
    return tables


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jamgame",
        description="Remote-estimation jamming game: simulation, learning and solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = {
        "--config": dict(required=True, help="experiment JSON file"),
        "--out": dict(help="output directory (default from config)"),
        "--seed": dict(type=int, help="override the config seed"),
    }

    def add(name, func, *options, **kwargs):
        p = sub.add_parser(name, **kwargs)
        for flag in options:
            p.add_argument(flag, **common[flag])
        p.set_defaults(func=func)
        return p

    add("steady", cmd_steady, "--config", help="print the steady-state covariance summary")
    add("solve", cmd_solve, "--config", "--out",
        help="run the value-iteration oracle and dump tables")
    p_learn = add("learn", cmd_learn, "--config", "--out", "--seed",
                  help="run Nash Q-learning and dump tables")
    p_learn.add_argument("--episodes", type=int, help="override the episode budget")
    p_learn.add_argument(
        "--oracle", action="store_true", help="also solve exactly and print the gap"
    )
    p_eq = add("equilibrium", cmd_equilibrium, help="solve a bimatrix game from a matrix file")
    p_eq.add_argument("matrix", help="text file with one or two matrix blocks")
    add("monotone", cmd_monotone, "--config", "--out", help="run the monotone-structure checks")
    add("bayes", cmd_bayes, "--config", "--out", help="solve the incomplete-information game")
    p_sim = add("simulate", cmd_simulate, "--config", "--out", "--seed",
                help="roll out stored policies")
    p_sim.add_argument("--policies", required=True, help="policies JSON file")
    p_sim.add_argument("--horizon", type=int, default=1000)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _load(args) if "config" in args else None
        outputs = args.func(args, cfg)
        if outputs:
            out = args.out or cfg.output_dir
            os.makedirs(out, exist_ok=True)
        for name, write in outputs.items():
            path = os.path.join(out, name)
            write(path)
            print(f"wrote {path}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, np.linalg.LinAlgError) as exc:  # solver failures
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
