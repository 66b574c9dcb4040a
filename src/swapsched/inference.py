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
statistical tendency. It also lets a caller run such a checkpoint once for
both strategies: RL-MR, in ``bench`` and ``infer``, is :func:`multipolicy`
over a set of one, the one function here that hashes and loads checkpoints.

All runs of one policy step in lockstep as lanes of one engine
(:func:`run_lanes`): each lane draws its uniforms from its own generator up
front; each step builds every lane's features from the instance's tables,
runs the network once on the batch, picks every swap with ``pick_actions``
and scores all lanes with one ``ObjectiveTables.fc`` call. The first step
forwards one state, since every lane starts at the due-date sort. Every layer
is batch-invariant -- row r of a batch is bitwise equal to the same state
evaluated alone -- so a lane reproduces exactly the rollout it would make on
its own. :func:`run_episode` is the one-lane case. The final reports come
from one ``ObjectiveTables.reports`` call over every lane's best
permutation, field for field what
:func:`~swapsched.schedcore.combined_objective` returns.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import policynet
from .schedcore import (Instance, ObjectiveConfig, ObjectiveReport, ObjectiveTables,
                        check_count, check_fields)


@dataclass(frozen=True)
class InferenceConfig:
    runs_per_policy: int = 30
    step_budget: int = 10
    greedy: bool = False
    seed: int = 0

    def __post_init__(self):
        check_fields(self, runs_per_policy=1, step_budget=1, seed=0)


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
            "objective_report": asdict(self.best_report),
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
    PPO collection steps its episode lanes as blocks too
    (:meth:`swapsched.ppo.RolloutWorker.collect`), over the stacked tables
    of several instances and from lanes at different steps.
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
            states = perms[:1] if t == 0 else perms  # every lane starts at sigma0
            fm = tables.state_features(states, t, step_budget)
            prob = policynet.forward(params, net_cfg, fm.per_job,
                                     np.full(len(states), fm.general)).prob_matrix
            prob = np.broadcast_to(prob, (n_lanes, *prob.shape[1:]))
        i, k, _ = policynet.pick_actions(prob, None if u is None else u[:, t])
        perms[lanes, i], perms[lanes, k] = perms[lanes, k], perms[lanes, i]
        fc = tables.fc(perms)
        actions[:, t, 0], actions[:, t, 1] = i, k
        fc_log[:, t] = fc
        better = fc > best_fc
        best_fc[better] = fc[better]
        best_perms[better] = perms[better]
    reports = tables.reports(best_perms)
    return [EpisodeResult(best_perm=best_perms[r].copy(), best_report=reports[r],
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
                obj_cfg: ObjectiveConfig, strategy_name: str = "RL-MPMR",
                multiruns: dict | None = None, digests: dict | None = None,
                held: dict | None = None) -> InferenceResult:
    """Multirun over several checkpoints; global best wins.

    ``checkpoint_paths`` is ordered with the final policy last, matching the
    convention of the training output directory. A caller's dicts share work
    between calls: ``multiruns`` ((sha256, cfg) -> multirun on ``inst``) skips
    loading and running a checkpoint whose multirun it holds, ``digests``
    (path -> sha256) hashes each file once, and ``held`` (path -> ``(params,
    net_cfg)``) is the slot of the policy read last. The slot is emptied
    before another checkpoint is read, so one policy is in memory at a time.
    """
    if not checkpoint_paths:
        raise ValueError("no checkpoints found: multipolicy needs at least one")
    multiruns = {} if multiruns is None else multiruns
    digests = {} if digests is None else digests
    held = {} if held is None else held
    per_run_all, per_policy_best, run_digests = [], [], []
    best: InferenceResult | None = None
    for path in checkpoint_paths:
        key = str(path)
        if key not in digests:
            digests[key] = policynet.checkpoint_digest(path)
        digest = digests[key]
        run_digests.append(digest)
        if (digest, cfg) not in multiruns:
            if key not in held:
                held.clear()  # free the last policy before the next is read
                held[key] = policynet.load_checkpoint(path)[:2]
            multiruns[digest, cfg] = multirun(inst, *held[key], cfg, obj_cfg)
        res = multiruns[digest, cfg]
        per_run_all.extend(res.per_run_fc)
        per_policy_best.append(res.best_report.fc)
        if best is None or res.best_report.fc > best.best_report.fc:
            best = res
    return InferenceResult(
        instance_id=inst.id, strategy=strategy_name, per_run_fc=per_run_all,
        best_perm=best.best_perm, best_report=best.best_report,
        steps=len(list(checkpoint_paths)) * cfg.runs_per_policy * cfg.step_budget,
        checkpoint_digests=run_digests, seed=cfg.seed,
        per_policy_best=per_policy_best)


def select_checkpoints(paths, n_earlier: int = 5) -> list:
    """Default multipolicy set: the final checkpoint plus the ``n_earlier``
    (an int >= 0) most recent distinct earlier ones (by training step in the
    filename)."""
    check_count("n_earlier", n_earlier, 0)
    ordered = sorted(str(p) for p in paths)
    if not ordered:
        return []
    return ordered[max(0, len(ordered) - 1 - n_earlier):-1] + [ordered[-1]]


def checkpoint_files(cfg: dict, where: str) -> list:
    """The checkpoint set (maybe empty) of a config or bench method ``where``."""
    for key in ("checkpoint", "checkpoint_dir"):  # open() takes a number for a descriptor
        if not isinstance(cfg.get(key, ""), str):
            raise ValueError(f"{where}: {key} must be a path, got {cfg[key]!r}")
    if cfg.get("type", cfg.get("strategy", "mr")) in ("mr", "rl_mr"):
        if "checkpoint" not in cfg:
            raise ValueError(f"{where} needs checkpoint")
        return [cfg["checkpoint"]]
    n_earlier = cfg.get("n_earlier", 5)
    check_count(f"{where}: n_earlier", n_earlier, 0)  # also where checkpoints wins
    if "checkpoints" in cfg:
        files = cfg["checkpoints"]
        if not (isinstance(files, list) and all(isinstance(p, str) for p in files)):
            raise ValueError(f"{where}: checkpoints must be a list of file paths, got {files!r}")
        return files
    if "checkpoint_dir" not in cfg:
        raise ValueError(f"{where} needs checkpoints or checkpoint_dir")
    return select_checkpoints(Path(cfg["checkpoint_dir"]).glob("*.ckpt"), n_earlier)


__all__ = ["InferenceConfig", "EpisodeResult", "InferenceResult", "run_lanes",
           "run_episode", "multirun", "multipolicy",
           "select_checkpoints", "checkpoint_files"]
