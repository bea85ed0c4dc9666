import json
import os
import sys
import time
import warnings

import pytest

from jamgame.config import parse_config
from jamgame.nashq import nash_q_learn, shapley_value_iteration

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "bench")


def load_profile(name):
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        return parse_config(json.load(fh))


@pytest.fixture(scope="session")
def default_config():
    return load_profile("default.json")


@pytest.fixture(scope="session")
def default_oracle(default_config):
    return shapley_value_iteration(default_config.game)


@pytest.fixture(scope="session")
def default_learning(default_config):
    """The full learning run of the shipped profile; shared because it is
    the expensive piece both the unit tests and the acceptance suite need.
    Returns (result, wall seconds)."""
    start = time.time()
    result = nash_q_learn(
        default_config.game,
        default_config.learn,
        snapshot_episodes=(10000, 25000, 50000),
    )
    return result, time.time() - start


@pytest.fixture(scope="session")
def monotone_config():
    # This profile deliberately trades the boundedness guard for wide
    # monotone-structure margins; the construction warning is expected.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*unbounded.*")
        return load_profile("monotone.json")


@pytest.fixture(scope="session")
def monotone_oracle(monotone_config):
    return shapley_value_iteration(monotone_config.game)


@pytest.fixture(scope="session")
def scaled_profile():
    """The benchmark's generated 976-state, 4-gain markov, 4x4 config document."""
    if BENCH_DIR not in sys.path:
        sys.path.append(BENCH_DIR)
    import workloads
    return workloads.scaled_profile()


@pytest.fixture(scope="session")
def scaled_config(scaled_profile):
    return parse_config(scaled_profile)


@pytest.fixture(scope="session")
def scaled_oracle(scaled_config):
    return shapley_value_iteration(scaled_config.game)
