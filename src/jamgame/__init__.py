"""Remote state estimation under jamming: simulation, learning and solvers.

The package models a sensor transmitting Kalman estimates over a
finite-state Markov fading channel while an attacker injects jamming
power. The two sides play a zero-sum stochastic game over transmission
and jamming energies; tooling here covers the plant fixed point, the
channel statistics, stage-game equilibrium solvers, Nash Q-learning with
an exact value-iteration oracle, monotone-structure verification, and
the incomplete-information (private channel gain) variant.
"""

from .bayesian import (
    BayesianSpec,
    BayesResult,
    TypeStrategy,
    bayes_deviation_gap,
    bayesian_from_game,
    solve_bayesian,
)
from .channel import (
    ChannelSpec,
    StationaryDist,
    packet_arrival_prob,
    sinr,
    stationary_distribution,
)
from .config import ConfigError, ExperimentConfig, load_config
from .equilibria import (
    EquilibriumResult,
    MixedStrategy,
    PivotLimitError,
    StageGame,
    deviation_gap,
    lemke_howson,
    support_enumeration,
    zero_sum_value,
)
from .estimation import (
    ConvergenceError,
    SteadySummary,
    SystemModel,
    boundedness_threshold,
    lyapunov_step,
    riccati_step,
    steady_state_covariance,
)
from .game import (
    GameSpec,
    GameState,
    simulate_trajectory,
)
from .nashq import (
    LearnConfig,
    QTables,
    extract_policy,
    nash_q_learn,
    shapley_value_iteration,
)
from .structure import (
    check_monotone_policy,
    check_q_supermodular,
    check_supermodular,
    check_monotone_sufficient_condition,
    epsilon_max,
)

__version__ = "0.1.0"
