"""Command-line driver for the whole pipeline.

Subcommands: ``steady`` (plant fixed point), ``solve`` (value-iteration
oracle), ``learn`` (Nash Q-learning), ``equilibrium`` (one stage game
from a matrix file), ``monotone`` (structure report), ``bayes``
(incomplete-information strategies) and ``simulate`` (closed-loop
rollout under stored policies). Exit codes: 0 success, 1 solver failure
(``RuntimeError`` or ``LinAlgError``), 2 bad config, arguments or files.
Any other exception is a bug and surfaces with its traceback.
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
    seed = getattr(args, "seed", None)
    episodes = getattr(args, "episodes", None)
    if seed is not None or episodes is not None:
        seed = cfg.learn.seed if seed is None else seed
        episodes = cfg.learn.episodes if episodes is None else episodes
        try:
            learn = dataclasses.replace(cfg.learn, seed=seed, episodes=episodes)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        cfg = dataclasses.replace(cfg, learn=learn)
    return cfg


def _out_dir(args, cfg) -> str:
    out = args.out if getattr(args, "out", None) else cfg.output_dir
    os.makedirs(out, exist_ok=True)
    return out


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _policies_json(spec, policies) -> str:
    doc = {
        "actions_attacker": list(spec.actions_attacker),
        "actions_sensor": list(spec.actions_sensor),
        "states": [[s.tau, s.g_s, s.g_a] for s in spec.states],
        "policies": [
            {
                "attacker": p.strat_p1.probs.tolist(),
                "sensor": p.strat_p2.probs.tolist(),
                "value_attacker": p.value_p1,
                "value_sensor": p.value_p2,
                "deviation_gap": p.deviation_gap,
            }
            for p in policies
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _print_boundedness(spec) -> None:
    verdict = "holds" if spec.boundedness_ok else "VIOLATED"
    print(
        f"worst-case arrival probability {spec.min_arrival_prob!r} vs "
        f"threshold {spec.bound_threshold!r}: boundedness {verdict}"
    )


def cmd_steady(args) -> int:
    cfg = _load(args)
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
    return 0


def cmd_solve(args) -> int:
    cfg = _load(args)
    out = _out_dir(args, cfg)
    res = nashq.shapley_value_iteration(cfg.game)
    print(f"value iteration converged in {res.sweeps} sweeps")
    _write(os.path.join(out, "oracle_qtables.json"), nashq.qtables_to_json(cfg.game, res.tables))
    nashq.write_qtable_csv(cfg.game, res.tables, os.path.join(out, "oracle_qtable.csv"))
    print(f"wrote {os.path.join(out, 'oracle_qtable.csv')}")
    _write(os.path.join(out, "oracle_policies.json"), _policies_json(cfg.game, res.policies))
    return 0


def cmd_learn(args) -> int:
    cfg = _load(args)
    out = _out_dir(args, cfg)
    _print_boundedness(cfg.game)
    res = nashq.nash_q_learn(cfg.game, cfg.learn)
    _write(os.path.join(out, "learn_qtables.json"), nashq.qtables_to_json(cfg.game, res.tables))
    nashq.write_qtable_csv(cfg.game, res.tables, os.path.join(out, "learn_qtable.csv"))
    print(f"wrote {os.path.join(out, 'learn_qtable.csv')}")
    _write(os.path.join(out, "learn_policies.json"), _policies_json(cfg.game, res.policies))
    _write_curve(os.path.join(out, "learn_convergence.csv"), cfg.game, res)
    print(f"zero-sum mirror error: {res.mirror_max!r}")
    if args.oracle:
        oracle = nashq.shapley_value_iteration(cfg.game)
        gap = float(np.abs(res.tables.q1 - oracle.tables.q1).max())
        scale = 1.0 + float(np.abs(oracle.tables.q1).max())
        print(f"sup-norm gap to oracle: {gap!r} ({gap / scale:.4%} of 1 + |Q*|)")
    return 0


def _write_curve(path, spec, res) -> None:
    na = len(spec.actions_attacker)
    nb = len(spec.actions_sensor)
    labels = [
        f"q1(a={spec.actions_attacker[i]:g},b={spec.actions_sensor[j]:g})"
        for i in range(na)
        for j in range(nb)
    ]
    with open(path, "w") as fh:
        fh.write("episode," + ",".join(labels) + "\n")
        for ep, row in enumerate(res.curve):
            fh.write(str(ep) + "," + ",".join(repr(float(v)) for v in row) + "\n")
    print(f"wrote {path}")


def cmd_equilibrium(args) -> int:
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
        _print_result("linear program", equilibria.zero_sum_value(stage))
    if max(stage.shape) <= 5:
        for i, res in enumerate(equilibria.support_enumeration(stage)):
            _print_result(f"support enumeration #{i}", res)
    return 0


def _print_result(name, res) -> None:
    print(
        f"{name}: p1 {np.round(res.strat_p1.probs, 6).tolist()} "
        f"p2 {np.round(res.strat_p2.probs, 6).tolist()} "
        f"values ({res.value_p1!r}, {res.value_p2!r}) "
        f"gap {res.deviation_gap:.3g}"
    )


def cmd_monotone(args) -> int:
    cfg = _load(args)
    out = _out_dir(args, cfg)
    oracle = nashq.shapley_value_iteration(cfg.game)
    try:
        report = structure.structure_report(cfg.game, oracle)
    except ValueError as exc:
        raise ConfigError(f"monotone: {exc}") from exc
    print(structure.render_report(report))
    _write(os.path.join(out, "monotone_report.json"), structure.report_to_json(report))
    return 0


def cmd_bayes(args) -> int:
    cfg = _load(args)
    out = _out_dir(args, cfg)
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
    for player, strat in (("attacker", res.attacker), ("sensor", res.sensor)):
        path = os.path.join(out, f"bayes_{player}.csv")
        bayesian.write_type_strategy_csv(bspec, strat, player, path)
        print(f"wrote {path}")
    return 0


def cmd_simulate(args) -> int:
    if args.horizon <= 0:
        raise ConfigError(f"horizon must be positive, got {args.horizon}")
    cfg = _load(args)
    out = _out_dir(args, cfg)
    pa, ps = _read_policies(args.policies, cfg.game)
    rng = np.random.default_rng(cfg.learn.seed)
    traj = game.simulate_trajectory(cfg.game, pa, ps, horizon=args.horizon, rng=rng)
    path = os.path.join(out, "trajectory.csv")
    game.write_trajectory_csv(traj, path)
    print(f"wrote {path}")
    print(f"empirical discounted return: {traj.discounted_return(cfg.game.beta)!r}")
    return 0


def _read_policies(path, spec) -> tuple:
    """Attacker and sensor strategy tables (state x action) of a policy file."""
    try:
        with open(path) as fh:
            pols = json.load(fh)["policies"]
        tables = {player: np.array([p[player] for p in pols], dtype=float)
                  for player in ("attacker", "sensor")}
    except OSError as exc:
        raise ConfigError(f"cannot read policy file: {exc}") from exc
    except KeyError as exc:
        raise ConfigError(f"policy file lacks {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"policy file is malformed: {exc}") from exc
    for player, table in tables.items():
        shape = (spec.n_states, len(getattr(spec, f"actions_{player}")))
        if table.shape != shape:
            raise ConfigError(f"policy file: {player} table has shape {table.shape}, game needs {shape}")
    try:
        game.fixed_policy(tables["attacker"], tables["sensor"])
    except ValueError as exc:
        raise ConfigError(f"policy file: {exc}") from exc
    return tables["attacker"], tables["sensor"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jamgame",
        description="Remote-estimation jamming game: simulation, learning and solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, needs_config=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        if needs_config:
            p.add_argument("--config", required=True, help="experiment JSON file")
            p.add_argument("--out", help="output directory (default from config)")
            p.add_argument("--seed", type=int, help="override the config seed")
        p.set_defaults(func=func)
        return p

    add("steady", cmd_steady, help="print the steady-state covariance summary")
    add("solve", cmd_solve, help="run the value-iteration oracle and dump tables")
    p_learn = add("learn", cmd_learn, help="run Nash Q-learning and dump tables")
    p_learn.add_argument("--episodes", type=int, help="override the episode budget")
    p_learn.add_argument(
        "--oracle", action="store_true", help="also solve exactly and print the gap"
    )
    p_eq = add("equilibrium", cmd_equilibrium, needs_config=False,
               help="solve a bimatrix game from a matrix file")
    p_eq.add_argument("matrix", help="text file with one or two matrix blocks")
    add("monotone", cmd_monotone, help="run the monotone-structure checks")
    add("bayes", cmd_bayes, help="solve the incomplete-information game")
    p_sim = add("simulate", cmd_simulate, help="roll out stored policies")
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
        return args.func(args)
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
