"""Hypothesis strategy for random jamming games, shared by the property tests."""

import warnings

import numpy as np
from hypothesis import strategies as st

from jamgame.channel import ChannelSpec
from jamgame.estimation import SystemModel
from jamgame.game import GAIN_MODES, GameSpec

PAPER_PLANT = SystemModel(A=[[1.2]], C=[[0.7]], Q=[[0.8]], R=[[0.8]], Pi0=[[0.8]])


def _increasing(draw, size, step):
    """``size`` strictly increasing positive values, consecutive gaps drawn from ``step``."""
    return tuple(float(v) for v in np.cumsum(draw(st.lists(step, min_size=size, max_size=size))))


@st.composite
def game_specs(draw):
    """Games with 1-4 gains, 1-4 actions per player, tau_max 1-30, either gain mode.

    Kernel entries are positive, so every kernel is irreducible and aperiodic.
    """
    n_gains = draw(st.integers(1, 4))
    unit = st.floats(0.05, 1.0)
    kernel = np.array(draw(st.lists(st.lists(unit, min_size=n_gains, max_size=n_gains),
                                    min_size=n_gains, max_size=n_gains)))
    channel = ChannelSpec(
        gains=_increasing(draw, n_gains, unit),
        kernel=kernel / kernel.sum(axis=1, keepdims=True),
        sigma2=draw(st.floats(0.2, 5.0)),
        alpha=draw(st.floats(0.5, 2.0)),
    )
    power = st.floats(0.5, 3.0)
    with warnings.catch_warnings():
        # Many draws violate the boundedness guard; the game stays well defined.
        warnings.simplefilter("ignore", UserWarning)
        return GameSpec(
            actions_attacker=_increasing(draw, draw(st.integers(1, 4)), power),
            actions_sensor=_increasing(draw, draw(st.integers(1, 4)), power),
            alpha_s=draw(st.floats(0.0, 1.0)),
            alpha_a=draw(st.floats(0.0, 1.0)),
            beta=draw(st.floats(0.3, 0.9)),
            tau_max=draw(st.integers(1, 30)),
            channel=channel,
            model=PAPER_PLANT,
            gain_mode=draw(st.sampled_from(GAIN_MODES)),
        )
