import json

import pytest

from jamgame.config import ConfigError, parse_config


def base_doc():
    return {
        "model": {"A": [[1.2]], "C": [[0.7]], "Q": [[0.8]], "R": [[0.8]], "Pi0": [[0.8]]},
        "channel": {"gains": [0.6, 0.8], "kernel": [[0.5, 0.5], [0.5, 0.5]], "sigma2": 0.5},
        "game": {"actions_attacker": [1, 6], "actions_sensor": [2, 5],
                 "alpha_s": 1.0, "alpha_a": 1.0, "beta": 0.75, "tau_max": 2},
        "learn": {"episodes": 10, "seed": 1},
    }


def test_parses_minimal_document():
    cfg = parse_config(base_doc())
    assert cfg.game.n_states == 12
    assert cfg.learn.exploration == 0.2
    assert cfg.game.channel.alpha == 1.0
    assert cfg.bayes_holding_time == 0
    assert cfg.output_dir == "out"


def test_missing_field_names_path():
    doc = base_doc()
    del doc["channel"]["sigma2"]
    with pytest.raises(ConfigError, match="channel.sigma2"):
        parse_config(doc)


def test_model_violations_are_prefixed():
    doc = base_doc()
    doc["model"]["R"] = [[0.0]]
    with pytest.raises(ConfigError, match="model"):
        parse_config(doc)


def test_bad_beta_rejected():
    doc = base_doc()
    doc["game"]["beta"] = 1.5
    with pytest.raises(ConfigError, match="game"):
        parse_config(doc)


def test_non_integer_episodes_rejected():
    doc = base_doc()
    doc["learn"]["episodes"] = 10.5
    with pytest.raises(ConfigError, match="learn.episodes"):
        parse_config(doc)


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["channel"].update(sigma2="x"), "channel.sigma2 must be a number, got 'x'"),
    (lambda doc: doc["model"].pop("A"), "missing config field: model.A"),
    (lambda doc: doc["learn"].update(episodes=10.5), "learn.episodes must be an integer, got 10.5"),
], ids=["channel.sigma2", "model.A", "learn.episodes"])
def test_field_errors_name_their_path_once(edit, message):
    doc = base_doc()
    edit(doc)
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert str(info.value) == message


def test_negative_seed_rejected():
    doc = base_doc()
    doc["learn"]["seed"] = -3
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        parse_config(doc)


def test_bad_gain_mode_rejected():
    doc = base_doc()
    doc["game"]["gain_mode"] = "weird"
    with pytest.raises(ConfigError, match="gain_mode"):
        parse_config(doc)


def test_bayes_holding_time_must_fit_cap():
    doc = base_doc()
    doc["bayes"] = {"holding_time": 9}
    with pytest.raises(ConfigError, match="holding_time"):
        parse_config(doc)


def test_bad_belief_mode_rejected():
    doc = base_doc()
    doc["bayes"] = {"belief": "psychic"}
    with pytest.raises(ConfigError, match="belief"):
        parse_config(doc)


def test_reducible_kernel_rejected_with_section():
    doc = base_doc()
    doc["channel"]["kernel"] = [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(ConfigError, match="channel"):
        parse_config(doc)


def test_shipped_profiles_parse(tmp_path):
    import os
    cfg_dir = os.path.join(os.path.dirname(__file__), "..", "configs")
    import warnings
    for name in ("default.json", "monotone.json"):
        with open(os.path.join(cfg_dir, name)) as fh:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", message=".*unbounded.*")
                parse_config(json.load(fh))


@pytest.mark.parametrize("section, field, value", [
    ("channel", "gains", [0.6, float("nan")]),
    ("channel", "gains", [0.6, float("inf")]),
    ("channel", "kernel", [[0.5, float("nan")], [0.5, 0.5]]),
    ("channel", "sigma2", float("nan")),
    ("channel", "sigma2", float("inf")),
    ("channel", "alpha", float("inf")),
    ("game", "actions_attacker", [1, float("inf")]),
    ("game", "actions_sensor", [2, float("nan")]),
    ("game", "alpha_s", float("nan")),
    ("game", "alpha_a", float("inf")),
    ("learn", "lr_numerator", float("nan")),
    ("learn", "lr_offset", float("inf")),
], ids=lambda v: str(v).replace(" ", ""))
def test_non_finite_numbers_rejected(section, field, value):
    # Python's json reads NaN and Infinity; they must not reach the model.
    doc = base_doc()
    doc[section][field] = value
    with pytest.raises(ConfigError, match=f"^{section}: "):
        parse_config(doc)


def test_boundedness_warning_names_the_caller():
    doc = base_doc()
    doc["game"]["actions_attacker"] = [1, 60]
    with pytest.warns(UserWarning, match="unbounded") as record:
        parse_config(doc)
    assert record[0].filename.endswith("config.py")
