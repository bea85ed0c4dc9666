"""Experiment configuration: one JSON document drives every CLI command.

All randomness is seeded from the config (no wall-clock entropy), so any
command re-run with the same file produces byte-identical artifacts.
Validation failures carry the JSON path of the offending field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .bayesian import BELIEF_MODES, PAYOFF_MODES
from .channel import ChannelSpec
from .estimation import SystemModel
from .game import GameSpec
from .nashq import LearnConfig

__all__ = ["ConfigError", "ExperimentConfig", "load_config"]


class ConfigError(ValueError):
    """Invalid or missing configuration field; message carries the path."""


def _get(doc: dict, path: str, required: bool = True, default=None):
    node = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(f"missing config field: {path}")
            return default
        node = node[part]
    return node


def _number(doc, path, required=True, default=None):
    val = _get(doc, path, required, default)
    if val is default and not required:
        return default
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path} must be a number, got {val!r}")
    return float(val)


def _integer(doc, path, required=True, default=None):
    val = _get(doc, path, required, default)
    if val is default and not required:
        return default
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{path} must be an integer, got {val!r}")
    return val


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Validated game (with its plant and channel), learning and Bayes settings."""

    game: GameSpec
    learn: LearnConfig
    bayes_holding_time: int
    bayes_belief_mode: str
    bayes_payoff_mode: str
    output_dir: str


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(doc)


def parse_config(doc: dict) -> ExperimentConfig:
    try:
        model = SystemModel(
            A=_get(doc, "model.A"),
            C=_get(doc, "model.C"),
            Q=_get(doc, "model.Q"),
            R=_get(doc, "model.R"),
            Pi0=_get(doc, "model.Pi0"),
        )
    except (ValueError, TypeError) as exc:
        _reraise("model", exc)
    try:
        channel = ChannelSpec(
            gains=tuple(_get(doc, "channel.gains")),
            kernel=_get(doc, "channel.kernel"),
            sigma2=_number(doc, "channel.sigma2"),
            alpha=_number(doc, "channel.alpha", required=False, default=1.0),
        )
    except (ValueError, TypeError) as exc:
        _reraise("channel", exc)
    try:
        game = GameSpec(
            actions_attacker=tuple(_get(doc, "game.actions_attacker")),
            actions_sensor=tuple(_get(doc, "game.actions_sensor")),
            alpha_s=_number(doc, "game.alpha_s"),
            alpha_a=_number(doc, "game.alpha_a"),
            beta=_number(doc, "game.beta"),
            tau_max=_integer(doc, "game.tau_max"),
            channel=channel,
            model=model,
            gain_mode=_get(doc, "game.gain_mode", required=False, default="stationary"),
        )
    except (ValueError, TypeError) as exc:
        _reraise("game", exc)
    try:
        learn = LearnConfig(
            episodes=_integer(doc, "learn.episodes"),
            seed=_integer(doc, "learn.seed"),
            steps_per_episode=_integer(doc, "learn.steps_per_episode", required=False, default=20),
            lr_numerator=_number(doc, "learn.lr_numerator", required=False, default=10.0),
            lr_offset=_number(doc, "learn.lr_offset", required=False, default=15.0),
            exploration=_number(doc, "learn.exploration", required=False, default=0.2),
        )
    except (ValueError, TypeError) as exc:
        _reraise("learn", exc)
    bayes_m = _integer(doc, "bayes.holding_time", required=False, default=0)
    if not 0 <= bayes_m <= game.tau_max:
        raise ConfigError(f"bayes.holding_time must lie in [0, {game.tau_max}]")
    belief = _get(doc, "bayes.belief", required=False, default="stationary")
    if belief not in BELIEF_MODES:
        raise ConfigError(f"bayes.belief must be one of {BELIEF_MODES}")
    payoff_mode = _get(doc, "bayes.payoff_mode", required=False, default="stage")
    if payoff_mode not in PAYOFF_MODES:
        raise ConfigError(f"bayes.payoff_mode must be one of {PAYOFF_MODES}")
    out_dir = _get(doc, "output_dir", required=False, default="out")
    if not isinstance(out_dir, str):
        raise ConfigError("output_dir must be a string")
    return ExperimentConfig(
        game=game,
        learn=learn,
        bayes_holding_time=bayes_m,
        bayes_belief_mode=belief,
        bayes_payoff_mode=payoff_mode,
        output_dir=out_dir,
    )


def _reraise(section: str, exc: Exception):
    """A library error gets its section as prefix; a ``ConfigError`` already names its path."""
    if isinstance(exc, ConfigError):
        raise exc
    raise ConfigError(f"{section}: {exc}") from exc
