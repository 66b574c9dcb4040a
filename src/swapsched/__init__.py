"""Swap-based improvement heuristics for paced flow-shop scheduling.

Submodules:

* ``schedcore``  -- instances, objectives, features
* ``operators``  -- the swap action and validated swap deltas
* ``baselines``  -- due-date sort, lookahead heuristic, simulated annealing
* ``policynet``  -- numpy actor-critic network and checkpoints
* ``ppo``        -- environment and PPO trainer
* ``inference``  -- multirun / multipolicy search strategies
* ``bench``      -- instance generator, brute-force oracle, benchmark harness
* ``cli``        -- the ``swapsched`` command
"""

from . import baselines, bench, inference, operators, policynet, ppo, schedcore
from .baselines import SAConfig, SHConfig, sa_optimize, sh_schedule
from .operators import PairAction, swap
from .policynet import NetConfig, forward, init_params, load_checkpoint, save_checkpoint
from .ppo import EpisodeConfig, PPOConfig, SwapEnv, train
from .schedcore import (Instance, Job, ObjectiveConfig, ObjectiveReport,
                        combined_objective, edd_sort, load_instance,
                        objective_f1, objective_f2, save_instance,
                        validate_instance)

__version__ = "0.1.0"
