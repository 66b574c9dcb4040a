"""Deployment-time search: stochastic rollouts, multirun and multipolicy.

A rollout starts from the due-date sort and samples a fixed budget of swaps
from the policy's pair distribution; the best permutation ever visited
(including the start, so the reported score is never negative) is returned.

Multirun repeats the rollout with independent RNG streams and keeps the best.
Multipolicy applies multirun to several training checkpoints and keeps the
global best. Run r always uses the stream derived from (seed, r) regardless of
which policy is being evaluated, so the multipolicy runs of the final
checkpoint coincide exactly with plain multirun -- making "multipolicy never
loses to multirun on the same instance" a hard guarantee instead of a
statistical tendency.

All runs of one policy step in lockstep as lanes of one engine
(:func:`run_lanes`): each lane draws its uniforms from its own generator up
front; each step builds every lane's features from the instance's tables,
runs the network once on the batch, picks every swap with ``pick_actions``
and scores all lanes with one ``ObjectiveTables.fc`` call. Every layer
is batch-invariant -- row r of a batch is bitwise equal to the same state
evaluated alone -- so a lane reproduces exactly the rollout it would make on
its own. :func:`run_episode` is the one-lane case. The final reports come
from :func:`~swapsched.schedcore.combined_objective`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import policynet
from .schedcore import (Instance, ObjectiveConfig, ObjectiveReport, ObjectiveTables,
                        combined_objective)


@dataclass(frozen=True)
class InferenceConfig:
    runs_per_policy: int = 30
    step_budget: int = 10
    greedy: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.runs_per_policy < 1:
            raise ValueError("runs_per_policy must be >= 1")
        if self.step_budget < 1:
            raise ValueError("step_budget must be >= 1")


@dataclass
class EpisodeResult:
    best_perm: np.ndarray
    best_report: ObjectiveReport
    actions: list  # (i, k) pairs, 0-based, in execution order
    fc_log: list  # fc after each swap


@dataclass
class InferenceResult:
    instance_id: str
    strategy: str
    per_run_fc: list
    best_perm: np.ndarray
    best_report: ObjectiveReport
    steps: int
    checkpoint_digests: list
    seed: int
    per_policy_best: list = field(default_factory=list)

    def to_record(self) -> dict:
        """JSON-ready record; permutation entries are 1-based job indices."""
        rec = {
            "instance_id": self.instance_id,
            "strategy": self.strategy,
            "per_run_fc": self.per_run_fc,
            "best_permutation_1based": [int(j) + 1 for j in self.best_perm],
            "objective_report": self.best_report.to_dict(),
            "steps": self.steps,
            "checkpoint_digests": self.checkpoint_digests,
            "seed": self.seed,
        }
        if self.per_policy_best:
            rec["per_policy_best_fc"] = self.per_policy_best
        return rec


def _check_width(inst: Instance, net_cfg: policynet.NetConfig) -> None:
    want = 2 * inst.n_stations + 2
    if net_cfg.d_in != want:
        raise ValueError(
            f"checkpoint expects {net_cfg.d_in} features but instance "
            f"{inst.id!r} with W={inst.n_stations} produces {want}")


def run_lanes(inst: Instance, params: dict | None, net_cfg: policynet.NetConfig | None,
              obj_cfg: ObjectiveConfig, step_budget: int, rngs,
              greedy: bool = False) -> list[EpisodeResult]:
    """One rollout of ``step_budget`` policy swaps per generator, in lockstep.

    Returns one result per generator. Lane r draws ``step_budget`` uniforms
    from ``rngs[r]`` up front (none when ``greedy``); its result does not
    depend on the other lanes. ``params=None`` is the uniform policy of the
    RAND-MR baseline: every step draws from
    :func:`swapsched.policynet.uniform_pair_probs` (``net_cfg`` is unused),
    the distribution a network with all-zero parameters outputs, so the
    draws are the same without building features or running a network.
    PPO rollout collection steps its episodes as lanes the same way
    (:meth:`swapsched.ppo.RolloutWorker.collect`).
    """
    tables = ObjectiveTables(inst, obj_cfg)  # reference: the due-date sort
    sigma0 = tables.ref
    n_lanes = len(rngs)
    if params is None:
        uniform = np.broadcast_to(policynet.uniform_pair_probs(inst.n_jobs),
                                  (n_lanes, inst.n_jobs, inst.n_jobs))
    else:
        _check_width(inst, net_cfg)
    lanes = np.arange(n_lanes)
    # random(n) yields the values of n successive random() calls
    u = None if greedy else np.array([rng.random(step_budget) for rng in rngs])
    perms = np.tile(sigma0, (n_lanes, 1))
    best_perms = perms.copy()
    best_fc = np.zeros(n_lanes)
    actions = np.empty((n_lanes, step_budget, 2), dtype=np.int64)
    fc_log = np.empty((n_lanes, step_budget))
    for t in range(step_budget):
        if params is None:
            prob = uniform
        else:
            fm = tables.state_features(perms, t, step_budget)
            prob = policynet.forward(params, net_cfg, fm.per_job,
                                     np.full(n_lanes, fm.general)).prob_matrix
        i, k, _ = policynet.pick_actions(prob, None if u is None else u[:, t])
        perms[lanes, i], perms[lanes, k] = perms[lanes, k], perms[lanes, i]
        fc = tables.fc(perms)
        actions[:, t, 0], actions[:, t, 1] = i, k
        fc_log[:, t] = fc
        better = fc > best_fc
        best_fc[better] = fc[better]
        best_perms[better] = perms[better]
    return [EpisodeResult(best_perm=best_perms[r].copy(),
                          best_report=combined_objective(inst, best_perms[r], sigma0, obj_cfg),
                          actions=[tuple(a) for a in actions[r].tolist()],
                          fc_log=fc_log[r].tolist())
            for r in range(n_lanes)]


def run_episode(inst: Instance, params: dict, net_cfg: policynet.NetConfig,
                obj_cfg: ObjectiveConfig, step_budget: int,
                rng: np.random.Generator, greedy: bool = False) -> EpisodeResult:
    """One rollout of ``step_budget`` policy swaps from the due-date sort."""
    return run_lanes(inst, params, net_cfg, obj_cfg, step_budget, [rng], greedy=greedy)[0]


def _run_rng(seed: int, run_index: int) -> np.random.Generator:
    # one stream per run index, shared across strategies and policies
    return np.random.default_rng(np.random.SeedSequence([seed, run_index]))


def multirun(inst: Instance, params: dict | None, net_cfg: policynet.NetConfig | None,
             cfg: InferenceConfig, obj_cfg: ObjectiveConfig,
             strategy_name: str = "RL-MR", checkpoint_digest: str = "") -> InferenceResult:
    """Best of ``runs_per_policy`` stochastic rollouts with one policy.

    The runs are the lanes of one :func:`run_lanes` call; ties keep the
    lowest run index. ``params=None`` samples swaps uniformly (RAND-MR).
    """
    episodes = run_lanes(inst, params, net_cfg, obj_cfg, cfg.step_budget,
                         [_run_rng(cfg.seed, r) for r in range(cfg.runs_per_policy)],
                         greedy=cfg.greedy)
    best = max(episodes, key=lambda ep: ep.best_report.fc)  # first of equals
    return InferenceResult(
        instance_id=inst.id, strategy=strategy_name,
        per_run_fc=[ep.best_report.fc for ep in episodes],
        best_perm=best.best_perm, best_report=best.best_report,
        steps=cfg.runs_per_policy * cfg.step_budget,
        checkpoint_digests=[checkpoint_digest] if checkpoint_digest else [],
        seed=cfg.seed)


def multipolicy(inst: Instance, checkpoint_paths, cfg: InferenceConfig,
                obj_cfg: ObjectiveConfig, strategy_name: str = "RL-MPMR") -> InferenceResult:
    """Multirun over several checkpoints; global best wins.

    ``checkpoint_paths`` is ordered with the final policy last, matching the
    convention of the training output directory. One policy is in memory at
    a time.
    """
    if not checkpoint_paths:
        raise ValueError("multipolicy needs at least one checkpoint")
    per_run_all, per_policy_best, digests = [], [], []
    best: InferenceResult | None = None
    for path in checkpoint_paths:
        params, net_cfg, _ = policynet.load_checkpoint(path)
        digest = policynet.checkpoint_digest(path)
        digests.append(digest)
        res = multirun(inst, params, net_cfg, cfg, obj_cfg,
                       strategy_name=strategy_name, checkpoint_digest=digest)
        del params  # free this policy before the next checkpoint is read
        per_run_all.extend(res.per_run_fc)
        per_policy_best.append(res.best_report.fc)
        if best is None or res.best_report.fc > best.best_report.fc:
            best = res
    return InferenceResult(
        instance_id=inst.id, strategy=strategy_name, per_run_fc=per_run_all,
        best_perm=best.best_perm, best_report=best.best_report,
        steps=len(list(checkpoint_paths)) * cfg.runs_per_policy * cfg.step_budget,
        checkpoint_digests=digests, seed=cfg.seed,
        per_policy_best=per_policy_best)


def select_checkpoints(paths, n_earlier: int = 5) -> list:
    """Default multipolicy set: the final checkpoint plus the ``n_earlier``
    most recent distinct earlier ones (by training step in the filename)."""
    ordered = sorted(str(p) for p in paths)
    if not ordered:
        return []
    final = ordered[-1]
    earlier = ordered[:-1][-n_earlier:]
    return earlier + [final]


__all__ = ["InferenceConfig", "EpisodeResult", "InferenceResult", "run_lanes",
           "run_episode", "multirun", "multipolicy", "select_checkpoints"]
