"""The per-row CSV writers and the ``json.dumps`` table route, kept as references.

Before the writers shared ``game._write_csv``, each formatted its file
one row at a time with its own cell rules and its own ``:g`` labels: the
Q-table and the convergence curve built the ``q1(a=..,b=..)`` header
apart, the trajectory listed its ten arrays by hand and formatted every
cell through ``_fmt``, and the per-type strategy wrote one row per
action. The tests check that the shared writer reproduces their bytes
wherever ``:g`` keeps the labels distinct. ``write_curve`` is the row
loop ``cli._write_curve`` ran before.

``qtables_to_json`` and ``policies_json`` build the nested-list document
and hand it to ``json.dumps(doc, indent=2, sort_keys=True)``, as the
JSON outputs were written before they shared ``nashq._game_json``.
"""

import json


def write_qtable_csv(spec, tables, path) -> None:
    pairs = [
        (ai, bi)
        for ai in range(len(spec.actions_attacker))
        for bi in range(len(spec.actions_sensor))
    ]
    header = ["state", "tau", "g_s", "g_a"] + [
        f"q1(a={spec.actions_attacker[ai]:g},b={spec.actions_sensor[bi]:g})"
        for ai, bi in pairs
    ]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for si, s in enumerate(spec.states):
            row = [f"s{si}", str(s.tau), repr(s.g_s), repr(s.g_a)]
            row += [repr(float(tables.q1[si, ai, bi])) for ai, bi in pairs]
            fh.write(",".join(row) + "\n")


def write_curve(path, spec, res) -> None:
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


TRAJECTORY_COLUMNS = ("step", "tau", "g_s", "g_a", "a", "b", "q", "gamma", "trace_P", "r1")


def write_trajectory_csv(traj, path) -> None:
    arrays = (
        traj.steps, traj.tau, traj.g_s, traj.g_a, traj.a,
        traj.b, traj.q, traj.gamma, traj.trace_p, traj.r1,
    )
    with open(path, "w") as fh:
        fh.write(",".join(TRAJECTORY_COLUMNS) + "\n")
        for row in zip(*arrays):
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if float(v) == int(v):
        return str(int(v))
    return repr(float(v))


def write_type_strategy_csv(spec, strategy, player, path) -> None:
    actions = spec.actions_attacker if player == "attacker" else spec.actions_sensor
    if player not in ("attacker", "sensor"):
        raise ValueError("player must be 'attacker' or 'sensor'")
    with open(path, "w") as fh:
        fh.write("action," + ",".join(f"type={t:g}" for t in spec.types) + "\n")
        for ai, a in enumerate(actions):
            row = [f"{a:g}"] + [repr(float(strategy.probs[t, ai])) for t in range(len(spec.types))]
            fh.write(",".join(row) + "\n")


def _game_doc(spec, **fields) -> str:
    return json.dumps({
        "states": [[s.tau, s.g_s, s.g_a] for s in spec.states],
        "actions_attacker": list(spec.actions_attacker),
        "actions_sensor": list(spec.actions_sensor),
        **fields,
    }, indent=2, sort_keys=True)


def qtables_to_json(spec, tables) -> str:
    return _game_doc(spec, q1=tables.q1.tolist(), q2=tables.q2.tolist(),
                     visits=tables.visits.tolist())


def policies_json(spec, policies) -> str:
    return _game_doc(spec, policies=[
        {
            "attacker": p.strat_p1.probs.tolist(),
            "sensor": p.strat_p2.probs.tolist(),
            "value_attacker": p.value_p1,
            "value_sensor": p.value_p2,
            "deviation_gap": p.deviation_gap,
        }
        for p in policies
    ])
