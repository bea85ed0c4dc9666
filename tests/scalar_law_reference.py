"""The scalar game laws, kept as the references for the compiled ones.

Before every caller read ``GameSpec.compiled``, the library stepped and
valued the game through this law: one next-state dictionary per state
and joint action, built from the arrival probability and the gain
weights, plus a map from ``GameState`` to its index. The tests check
that the compiled, factored law and ``CompiledGame.expected`` agree with
it, and that it has the paper's structure.

The scalar stage reward ``reward_attacker`` and the learning-rate
schedule ``learning_rate`` were library functions too, second copies of
the compiled reward and of the learner's inline rate. The tests check
the compiled rewards and the learner's updates against them.
"""

from functools import cache

from jamgame.channel import packet_arrival_prob
from jamgame.game import GameState


@cache
def _state_map(spec) -> dict:
    """``(tau, g_s, g_a) -> index`` for one spec, built once."""
    return {(s.tau, s.g_s, s.g_a): i for i, s in enumerate(spec.states)}


def state_index(spec, state: GameState) -> int:
    """Index of ``state`` in ``spec.states``; ``ValueError`` if it is not one."""
    try:
        return _state_map(spec)[(state.tau, state.g_s, state.g_a)]
    except KeyError:
        raise ValueError(f"{state} is not a state of this game") from None


def transition_distribution(spec, state: GameState, a: float, b: float) -> dict:
    """Distribution of the next state under joint action ``(a, b)``.

    On success the holding time resets to 0, on failure it saturates at
    ``tau_max``; next gains are weighted per ``gain_mode``. Probabilities
    sum to 1 over the support.
    """
    state_index(spec, state)
    channel = spec.channel
    q = packet_arrival_prob(channel, b, state.g_s, a, state.g_a)
    if spec.gain_mode == "stationary":
        w_s = w_a = spec.mu
    else:
        w_s = channel.kernel[channel.gains.index(state.g_s)]
        w_a = channel.kernel[channel.gains.index(state.g_a)]
    tau_fail = min(state.tau + 1, spec.tau_max)
    out: dict = {}
    for i, gs in enumerate(channel.gains):
        for j, ga in enumerate(channel.gains):
            w = w_s[i] * w_a[j]
            if w == 0.0:
                continue
            if q > 0.0:
                ok = GameState(0, gs, ga)
                out[ok] = out.get(ok, 0.0) + q * w
            if q < 1.0:
                fail = GameState(tau_fail, gs, ga)
                out[fail] = out.get(fail, 0.0) + (1.0 - q) * w
    return out


def reward_attacker(spec, m: int, a: float, b: float) -> float:
    """Attacker stage reward at holding time ``m``; the sensor gets its negation."""
    if not 0 <= m <= spec.tau_max:
        raise ValueError(f"holding time {m} outside [0, {spec.tau_max}]")
    if a not in spec.actions_attacker:
        raise ValueError(f"attacker action {a} not in {spec.actions_attacker}")
    if b not in spec.actions_sensor:
        raise ValueError(f"sensor action {b} not in {spec.actions_sensor}")
    return spec.steady.trace_table[m] + spec.alpha_s * b - spec.alpha_a * a


def learning_rate(cfg, count: int) -> float:
    """The learner's rate at the ``count``-th visit of a cell (count >= 1)."""
    return cfg.lr_numerator / (cfg.lr_offset + count)
