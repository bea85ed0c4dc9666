"""Span tracing of jamgame's layers, installed from outside the package.

``Tracer.install`` wraps the public functions of each module (plus the
few private helpers that carry a layer's work: model compilation and the
CLI writers) and rebinds every name in every ``jamgame`` namespace that
refers to one of them, e.g. ``nashq.zero_sum_value`` as well as
``equilibria.zero_sum_value``. Spans (id, parent, name, start, end) are
kept in memory and written out at the end; per-name call counts,
inclusive and self time are aggregated exactly as calls return, so the
cap on stored spans never changes a metric.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from time import perf_counter

LAYERS = ("estimation", "channel", "game", "equilibria", "nashq", "structure",
          "bayesian", "cli")
# Private helpers that are a layer's unit of work.
EXTRA = {
    "nashq": ("_model_tables",),
    "cli": ("_write", "_write_curve", "_policies_json"),
}
WRITERS = frozenset({
    "nashq.qtables_to_json", "nashq.write_qtable_csv", "game.write_trajectory_csv",
    "bayesian.write_type_strategy_csv", "cli._write", "cli._write_curve", "cli._policies_json",
})
SPAN_CAP = 100_000


class Tracer:
    """In-memory span recorder; one per traced round."""

    def __init__(self):
        self.stack = []  # frames: [span id, name, child time, {child name: time}]
        self.stats = {}  # name -> [calls, inclusive s, self s]
        self.spans = []
        self.dropped = 0
        self.counters = {}
        self._patches = []
        self._next_id = 0

    # -- recording -----------------------------------------------------------

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def active(self, name: str) -> bool:
        return any(frame[1] == name for frame in self.stack)

    def _wrap(self, name: str, fn):
        post = _POST.get(name)
        tracer = self

        def traced(*args, **kwargs):
            tracer._next_id += 1
            sid = tracer._next_id
            parent = tracer.stack[-1][0] if tracer.stack else 0
            frame = [sid, name, 0.0, {}]
            tracer.stack.append(frame)
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                dur = t1 - t0
                st = tracer.stats.setdefault(name, [0, 0.0, 0.0])
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[2]
                if tracer.stack:
                    up = tracer.stack[-1]
                    up[2] += dur
                    up[3][name] = up[3].get(name, 0.0) + dur
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((sid, parent, name, t0, t1))
                else:
                    tracer.dropped += 1
                if post is not None:
                    post(tracer, fn, args, kwargs, result, exc, dur, frame[3])

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function and rebind it in all jamgame namespaces."""
        import jamgame.cli  # noqa: F401  (loads every layer module)
        from jamgame import game

        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"jamgame.{layer}"]
            names = list(getattr(mod, "__all__", ())) + list(EXTRA.get(layer, ()))
            for attr in names:
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    originals[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "jamgame" and not modname.startswith("jamgame."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        init = game.GameSpec.__post_init__
        self._patches.append((game.GameSpec, "__post_init__", init))
        game.GameSpec.__post_init__ = self._wrap("game.GameSpec", init)

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._patches):
            setattr(owner, attr, val)
        self._patches.clear()

    # -- reporting -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def seconds(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def layer_metrics(self) -> dict:
        """The per-layer metrics named in the benchmark definition."""
        c = self.counters.get
        vi_sweeps = c("nashq.vi_sweeps", 0.0)
        learn_steps = c("nashq.learn_steps", 0.0)
        return {
            "estimation.steady_s": self.seconds("estimation.steady_state_covariance"),
            "estimation.riccati_iters": c("estimation.riccati_iters", 0.0),
            "game.spec_s": self.seconds("game.GameSpec"),
            "game.transition_calls": self.calls("game.transition_distribution"),
            "game.transition_s": self.seconds("game.transition_distribution"),
            "game.reward_calls": self.calls("game.reward_attacker"),
            "game.reward_s": self.seconds("game.reward_attacker"),
            "game.transition_tensor_mb": c("game.transition_tensor_mb", 0.0),
            "game.simulate_s": self.seconds("game.simulate_trajectory"),
            "nashq.compile_count": self.calls("nashq._model_tables"),
            "nashq.compile_s": self.seconds("nashq._model_tables"),
            "nashq.learn_s": self.seconds("nashq.nash_q_learn"),
            "nashq.learn_step_us": (1e6 * self.seconds("nashq.nash_q_learn") / learn_steps
                                    if learn_steps else 0.0),
            "nashq.vi_s": self.seconds("nashq.shapley_value_iteration"),
            "nashq.vi_sweeps": vi_sweeps,
            "nashq.vi_sweep_ms": (1e3 * c("nashq.vi_net_s", 0.0) / vi_sweeps
                                  if vi_sweeps else 0.0),
            "nashq.extract_s": self.seconds("nashq.extract_policy"),
            "nashq.extract_lp_calls": c("nashq.extract_lp_calls", 0.0),
            "nashq.rollout_s": self.seconds("nashq.discounted_rollouts"),
            "nashq.rollout_steps": c("nashq.rollout_steps", 0.0),
            "equilibria.lp_calls": self.calls("equilibria.zero_sum_value"),
            "equilibria.lp_s": self.seconds("equilibria.zero_sum_value"),
            "equilibria.lh_calls": self.calls("equilibria.lemke_howson"),
            "equilibria.lh_s": self.seconds("equilibria.lemke_howson"),
            "equilibria.lh_pivot_limit": c("equilibria.lh_pivot_limit", 0.0),
            "equilibria.support_enum_calls": self.calls("equilibria.support_enumeration"),
            "equilibria.support_enum_s": self.seconds("equilibria.support_enumeration"),
            "equilibria.deviation_gap_calls": self.calls("equilibria.deviation_gap"),
            "equilibria.deviation_gap_s": self.seconds("equilibria.deviation_gap"),
            "channel.arrival_calls": self.calls("channel.packet_arrival_prob"),
            "channel.arrival_s": self.seconds("channel.packet_arrival_prob"),
            "bayesian.expand_s": self.seconds("bayesian.expand_matrix"),
            "bayesian.solve_s": self.seconds("bayesian.solve_bayesian"),
            "bayesian.gap_s": self.seconds("bayesian.bayes_deviation_gap"),
            "structure.epsilon_s": self.seconds("structure.epsilon_max"),
            "structure.supermodular_s": self.seconds("structure.check_supermodular"),
            "structure.monotone_policy_s": self.seconds("structure.check_monotone_policy"),
            "structure.continuation_s": self.seconds("structure.continuation_difference_positive"),
            "cli.write_s": c("cli.write_s", 0.0),
            "cli.bytes_written": c("cli.bytes_written", 0.0),
            "trace.spans": float(len(self.spans) + self.dropped),
        }

    def dump(self, directory: str) -> None:
        """Write the spans (JSON lines) and per-name totals."""
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "spans.jsonl"), "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps([sid, parent, name, t0, t1]) + "\n")
        totals = {
            name: {"calls": st[0], "inclusive_s": st[1], "self_s": st[2]}
            for name, st in sorted(self.stats.items())
        }
        with open(os.path.join(directory, "layers.json"), "w") as fh:
            json.dump({"names": totals, "counters": self.counters,
                       "spans_kept": len(self.spans), "spans_dropped": self.dropped},
                      fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Post-call hooks: counts that need a call's arguments, result or ancestry
# ---------------------------------------------------------------------------

def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _steady(tr, fn, args, kwargs, result, exc, dur, children):
    if result is not None:
        tr.add("estimation.riccati_iters", result.iterations)


def _compile(tr, fn, args, kwargs, result, exc, dur, children):
    spec = _bound(fn, args, kwargs)["spec"]
    na, nb = len(spec.actions_attacker), len(spec.actions_sensor)
    mb = spec.n_states ** 2 * na * nb * 8 / 1e6
    tr.counters["game.transition_tensor_mb"] = max(
        tr.counters.get("game.transition_tensor_mb", 0.0), mb)


def _learn(tr, fn, args, kwargs, result, exc, dur, children):
    cfg = _bound(fn, args, kwargs)["cfg"]
    tr.add("nashq.learn_steps", cfg.episodes * cfg.steps_per_episode)


def _vi(tr, fn, args, kwargs, result, exc, dur, children):
    if result is not None:
        tr.add("nashq.vi_sweeps", result.sweeps)
        net = (dur - children.get("nashq._model_tables", 0.0)
               - children.get("nashq.extract_policy", 0.0))
        tr.add("nashq.vi_net_s", net)


def _rollouts(tr, fn, args, kwargs, result, exc, dur, children):
    bound = _bound(fn, args, kwargs)
    tr.add("nashq.rollout_steps", bound["horizon"] * bound["n_rollouts"])


def _lp(tr, fn, args, kwargs, result, exc, dur, children):
    if tr.active("nashq.extract_policy"):
        tr.add("nashq.extract_lp_calls", 1)


def _lh(tr, fn, args, kwargs, result, exc, dur, children):
    from jamgame.equilibria import PivotLimitError
    if isinstance(exc, PivotLimitError):
        tr.add("equilibria.lh_pivot_limit", 1)


def _writer(name):
    def hook(tr, fn, args, kwargs, result, exc, dur, children):
        if any(frame[1] in WRITERS for frame in tr.stack):
            return  # counted by the enclosing writer
        tr.add("cli.write_s", dur)
        if exc is not None:
            return
        bound = _bound(fn, args, kwargs)
        if name == "cli._write":
            tr.add("cli.bytes_written", len(bound["text"].encode()))
        elif "path" in bound:
            tr.add("cli.bytes_written", os.path.getsize(bound["path"]))
    return hook


_POST = {
    "estimation.steady_state_covariance": _steady,
    "nashq._model_tables": _compile,
    "nashq.nash_q_learn": _learn,
    "nashq.shapley_value_iteration": _vi,
    "nashq.discounted_rollouts": _rollouts,
    "equilibria.zero_sum_value": _lp,
    "equilibria.lemke_howson": _lh,
}
_POST.update({name: _writer(name) for name in WRITERS})
