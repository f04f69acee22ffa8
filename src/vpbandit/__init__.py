"""Adversarial multi-play bandits with variable plays, and the
pursuit-evasion game built on them."""

from .analysis import (
    RegretReport,
    attacker_value,
    corollary11_eta,
    g_max,
    g_max_curve,
    pseudo_regret,
    theorem1_bound,
)
from .bandit_core import cap_threshold, dep_round
from .baselines import FrequentistState, epsilon_greedy_select, ucb1_select
from .environments import (
    BernoulliEnv,
    IntrusionTrace,
    PayoffProfile,
    bernoulli_rewards,
    ingest_can_log,
    synthesize_intrusion_trace,
)
from .game import (
    Exp3Attacker,
    Exp3MVPLearner,
    GameConfig,
    GameTrace,
    GreedyAttacker,
    SinglePlayerSpec,
    play_round,
    run_comparison,
    run_game,
    run_game_replicas,
    run_single_player,
)
from .scaling import MovingAverage, ScalingSpec, sample_arm_count

__version__ = "0.1.0"
