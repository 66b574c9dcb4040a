"""Swap-search environment and clipped-surrogate policy-gradient trainer.

An episode starts from the due-date sort of a randomly drawn instance and
performs a fixed budget of T swaps. The dense reward after each swap is the
combined objective of the new permutation divided by T, so the undiscounted
return telescopes to the mean combined objective over the visited
permutations. A sparser best-improvement reward is available for ablation.

Training is single-process PPO. With several rollout workers, each owns an
independent environment stream and generator, so results depend only on
(seed, worker count). A collect steps the episodes of all workers' slices as
lanes, one block per job count (:meth:`RolloutWorker.collect`), bitwise as
if one state were collected at a time, one worker after another. One update
consumes exactly ``train_batch_size`` transitions, computes GAE per worker
slice (bootstrapping episodes cut at the slice end), normalizes advantages
batch-wide and runs ``epochs_per_batch`` epochs of minibatch Adam steps on
the clipped surrogate loss.

Each instance's :class:`~swapsched.schedcore.ObjectiveTables` is built once
and scores every step, bitwise the full objective. Parameters, gradients
(from :func:`swapsched.policynet.backward`) and both Adam moments each live in
one flat vector that the name-keyed dicts are views of
(:class:`~swapsched.policynet.FlatViews`): the clip norm squares the gradient
vector once and an optimizer step is a few vector operations, neither looking
at a view's address. A ``train`` process keeps up to 64 MiB of freed heap
(:func:`_keep_freed_heap`). Checkpoints and their trainer-state sidecars are
written to temporary names and moved into place, so a crash leaves no torn
resume point.
"""

from __future__ import annotations

import copy
import ctypes
import itertools
import json
import logging
import os
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import policynet
from .schedcore import (FeatureMatrix, Instance, ObjectiveConfig, ObjectiveTables,
                        check_fields, check_pair, check_permutation)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EpisodeConfig:
    """Episode shape: swap budget T, discount, and reward variant."""

    step_budget: int = 10
    gamma: float = 0.99
    reward_mode: str = "dense"  # "dense" | "best_improvement"

    def __post_init__(self):
        check_fields(self, step_budget=1)
        if not 0 <= self.gamma <= 1:
            raise ValueError("gamma must lie in [0, 1]")
        if self.reward_mode not in ("dense", "best_improvement"):
            raise ValueError(f"unknown reward_mode {self.reward_mode!r}")

    def reward(self, best_fc, fc):
        """The reward of a step to fc ``fc`` against the incumbent ``best_fc``
        (floats, or arrays of lanes)."""
        if self.reward_mode == "dense":
            return fc / self.step_budget
        return best_improvement_reward(best_fc, fc)


@dataclass(frozen=True)
class PPOConfig:
    clip_param: float = 0.2
    gae_lambda: float = 0.99
    train_batch_size: int = 1024
    minibatch_size: int = 32
    epochs_per_batch: int = 20
    lr_start: float = 5e-4
    lr_end: float = 2e-5
    lr_warmup_env_steps: int = 0  # linear ramp 0 -> schedule over these steps
    total_env_steps: int = 2_000_000
    value_coeff: float = 1.0
    entropy_coeff: float = 0.0
    entropy_warmup_env_steps: int = 0  # entropy bonus off until this env step
    grad_clip_norm: float | None = 10.0
    checkpoint_every: int | None = None  # env steps; None -> total / 10
    optimizer: str = "adam"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    n_rollout_workers: int = 1
    seed: int = 0

    def __post_init__(self):
        check_fields(self, train_batch_size=1, minibatch_size=1, epochs_per_batch=1,
                     total_env_steps=1, lr_warmup_env_steps=0, entropy_warmup_env_steps=0,
                     checkpoint_every=1, n_rollout_workers=1, seed=0)
        if not 0 < self.clip_param < 1:
            raise ValueError("clip_param must lie in (0, 1)")
        if self.minibatch_size > self.train_batch_size:
            raise ValueError("minibatch_size must not exceed train_batch_size")
        if self.lr_end > self.lr_start:
            raise ValueError("lr_end must not exceed lr_start")
        if self.train_batch_size % self.n_rollout_workers:
            raise ValueError("train_batch_size must divide evenly across rollout workers")
        if self.optimizer != "adam":
            raise ValueError(f"unsupported optimizer {self.optimizer!r}")

    def effective_checkpoint_every(self) -> int:
        return self.checkpoint_every or max(1, self.total_env_steps // 10)


def lr_schedule(step: int, cfg: PPOConfig) -> float:
    """Linear interpolation from lr_start to lr_end over the step budget.

    With ``lr_warmup_env_steps`` set, the schedule additionally ramps linearly
    from zero over the warmup window (standard practice for attention nets;
    it also keeps the fresh near-uniform policy from being shoved through the
    action head's ReLU dead zone by the first updates).
    """
    frac = min(max(step / cfg.total_env_steps, 0.0), 1.0)
    lr = (1.0 - frac) * cfg.lr_start + frac * cfg.lr_end
    if cfg.lr_warmup_env_steps > 0 and step < cfg.lr_warmup_env_steps:
        lr *= step / cfg.lr_warmup_env_steps
    return lr


def best_improvement_reward(best_fc, new_fc):
    """Sparse alternative reward: positive only when the incumbent improves
    (``max(0.0, new_fc - best_fc)``, of each lane for arrays)."""
    gain = np.subtract(new_fc, best_fc)
    return np.where(gain > 0, gain, 0.0)[()]


class SwapEnv:
    """Improvement-search episode over a pool of instances.

    ``reset`` draws an instance uniformly and starts from its due-date sort
    (combined objective 0 by construction); ``step`` applies one swap. The
    per-episode log of (action, fc) supports replay checks and the return
    identity test. ``reset``, ``step`` and the state methods are the
    one-state reference: :meth:`RolloutWorker.collect` steps many episodes
    as one block and leaves each worker's env as these would.

    Each instance's :class:`ObjectiveTables` (reference: its due-date sort)
    is built on its first episode and reused. A step checks only the action
    pair, scores the new permutation with :meth:`ObjectiveTables.fc` and
    builds its features with :meth:`ObjectiveTables.state_features` (bitwise
    the test oracles ``schedcore.combined_objective`` and ``state_features``).
    The permutation is checked where it enters: the reference when its
    tables are built, a restored one in :meth:`set_state`.
    """

    def __init__(self, pool: list[Instance], obj_cfg: ObjectiveConfig, ep_cfg: EpisodeConfig):
        if not pool:
            raise ValueError("instance pool is empty")
        self.pool = list(pool)
        self.obj_cfg = obj_cfg
        self.ep_cfg = ep_cfg
        self._tables: dict[int, ObjectiveTables] = {}
        self.inst: Instance | None = None
        self.inst_idx: int | None = None
        self.tables: ObjectiveTables | None = None
        self.perm = None
        self.t = 0
        self.done = True
        self.best_perm = None
        self.best_fc = 0.0
        self.episode_log: list[dict] = []

    @property
    def sigma0(self) -> np.ndarray | None:
        """The due-date sort of the current instance, the reference of fc."""
        return None if self.tables is None else self.tables.ref

    def _select(self, idx: int | None) -> None:
        self.inst_idx = idx
        self.inst = None if idx is None else self.pool[idx]
        if idx is not None and idx not in self._tables:
            self._tables[idx] = ObjectiveTables(self.inst, self.obj_cfg)
        self.tables = None if idx is None else self._tables[idx]

    def reset(self, rng: np.random.Generator) -> FeatureMatrix:
        """Start an episode on an instance drawn with one ``rng.integers`` call."""
        self._begin(rng)
        return self._state()

    def _begin(self, rng: np.random.Generator) -> None:
        """:meth:`reset` without building the start state's features."""
        self._select(int(rng.integers(len(self.pool))))
        self.perm = self.sigma0.copy()  # checked when its tables were built
        self.t = 0
        self.done = False
        self.best_perm = self.perm.copy()
        self.best_fc = 0.0  # fc of the reference against itself
        self.episode_log = []

    def _state(self) -> FeatureMatrix:
        return self.tables.state_features(self.perm, self.t, self.ep_cfg.step_budget)

    def step(self, action) -> tuple[FeatureMatrix, float, bool, dict]:
        if self.done:
            raise RuntimeError("step() called on a finished episode; call reset()")
        i, k = action
        perm = self.perm.copy()
        check_pair(len(perm), i, k)
        perm[i], perm[k] = perm[k], perm[i]
        self.perm = perm
        fc = self.tables.fc(perm)
        reward = float(self.ep_cfg.reward(self.best_fc, fc))
        if fc > self.best_fc:
            self.best_fc = fc
            self.best_perm = perm.copy()
        self.t += 1
        self.done = self.t >= self.ep_cfg.step_budget
        self.episode_log.append({"action": (int(i), int(k)), "fc": fc, "reward": reward})
        return self._state(), reward, self.done, {"fc": fc, "best_fc": self.best_fc}

    def get_state(self) -> dict:
        return {
            "inst_idx": self.inst_idx,
            "perm": None if self.perm is None else [int(j) for j in self.perm],
            "t": self.t,
            "done": self.done,
            "best_perm": None if self.best_perm is None else [int(j) for j in self.best_perm],
            "best_fc": self.best_fc,
            "episode_log": self.episode_log,
        }

    def set_state(self, state: dict) -> None:
        self._select(state["inst_idx"])
        self.perm = None if state["perm"] is None else check_permutation(
            np.array(state["perm"], dtype=np.int64), self.inst.n_jobs)
        self.t = state["t"]
        self.done = state["done"]
        self.best_perm = None if state["best_perm"] is None else np.array(state["best_perm"], dtype=np.int64)
        self.best_fc = state["best_fc"]
        self.episode_log = [dict(e) for e in state["episode_log"]]


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class TrajectoryBatch:
    """One worker slice (or a concatenation of slices) of transitions."""

    features: list  # per-transition (N, d_in) arrays
    generals: np.ndarray
    action_flat: np.ndarray  # i * N + k per transition
    n_jobs: np.ndarray  # N per transition (features may vary in length)
    log_probs: np.ndarray
    rewards: np.ndarray
    values: np.ndarray
    dones: np.ndarray
    bootstrap_value: float  # v(s_next) of a slice cut mid-episode, else 0
    episode_returns: list = field(default_factory=list)

    def __len__(self):
        return len(self.features)

    @classmethod
    def empty(cls, n: int) -> TrajectoryBatch:
        """A slice of ``n`` transitions to fill by index."""
        return cls(features=[None] * n, generals=np.empty(n), action_flat=np.empty(n, np.int64),
                   n_jobs=np.empty(n, np.int64), log_probs=np.empty(n), rewards=np.empty(n),
                   values=np.empty(n), dones=np.empty(n, bool), bootstrap_value=0.0)

    @classmethod
    def join(cls, parts: list[TrajectoryBatch]) -> TrajectoryBatch:
        """The transitions and episode returns of ``parts``, in order."""
        return cls([x for p in parts for x in p.features],
                   *(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls)[1:8]),
                   0.0, [r for p in parts for r in p.episode_returns])


def compute_gae(rewards, values, dones, bootstrap_value, gamma, lam):
    """GAE recursion; returns raw advantages and value targets.

    Episode ends (``dones``) truncate the recursion; a slice cut mid-episode
    bootstraps from ``bootstrap_value``. The trainer normalizes advantages per
    training batch afterwards; targets are advantages plus value estimates.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=bool)
    n = len(rewards)
    adv = np.zeros(n, dtype=np.float64)
    last = 0.0
    for t in reversed(range(n)):
        next_v = bootstrap_value if t == n - 1 else values[t + 1]
        nonterminal = 0.0 if dones[t] else 1.0
        delta = rewards[t] + gamma * next_v * nonterminal - values[t]
        last = delta + gamma * lam * nonterminal * last
        adv[t] = last
    return adv, adv + values


class _Lane:
    """One episode segment of a worker's slice in a lockstep collect: the env
    that holds its episode, the uniforms of its action draws, its first
    transition's slot, the episode's rewards before the collect and, once
    stepped, the fc after each of its steps."""

    __slots__ = ("env", "u", "slot", "prior", "fc")

    def __init__(self, env: SwapEnv, u: np.ndarray, slot: int, prior: list):
        self.env, self.u, self.slot, self.prior = env, u, slot, prior


def _step_lanes(lanes: list[_Lane], params, net_cfg, ep_cfg: EpisodeConfig,
                rec: TrajectoryBatch) -> None:
    """Step same-N lanes, longest first, as one block; write each transition
    into ``rec`` and leave each lane's env as :meth:`SwapEnv.step` would, its
    episode log aside. Per step, on the active lanes' ``(L, N)`` permutations:
    one feature build, one forward, each lane's pick with its own uniform,
    one pair check, one swap and one :meth:`ObjectiveTables.fc` of the lanes'
    stacked tables. Row r is bitwise lane r's one-state step.
    """
    envs, stacks = [lane.env for lane in lanes], {}  # stacks: of the first m lanes' tables
    perms, best, best_fc, t0 = (np.array([getattr(env, a) for env in envs])
                                for a in ("perm", "best_perm", "best_fc", "t"))
    slots, lengths = np.array([(lane.slot, len(lane.u)) for lane in lanes]).T
    u, n, budget = np.zeros((len(lanes), lengths[0])), perms.shape[1], ep_cfg.step_budget
    for r, lane in enumerate(lanes):
        u[r, :lengths[r]] = lane.u
    fc_log = np.empty_like(u)
    for s in range(lengths[0]):
        m = int(np.count_nonzero(lengths > s))  # the active lanes are a prefix
        at, p, t = slots[:m] + s, perms[:m], t0[:m] + s
        if m not in stacks:
            stacks[m] = ObjectiveTables.stack([env.tables for env in envs[:m]])
        fm = stacks[m].state_features(p, t, budget)
        out = policynet.forward(params, net_cfg, fm.per_job, fm.general)
        i, k, rec.log_probs[at] = policynet.pick_actions(out.prob_matrix, u[:m, s])
        for j, x in zip(at.tolist(), fm.per_job):
            rec.features[j] = x
        rec.generals[at], rec.values[at] = fm.general, out.value
        rec.action_flat[at], rec.n_jobs[at] = i * n + k, n
        check_pair(n, i, k)
        rows = np.arange(m)
        p[rows, i], p[rows, k] = p[rows, k], p[rows, i]
        fc = fc_log[:m, s] = stacks[m].fc(p)
        rec.rewards[at] = ep_cfg.reward(best_fc[:m], fc)
        rec.dones[at] = t + 1 >= budget
        better = fc > best_fc[:m]
        best_fc[:m][better], best[:m][better] = fc[better], p[better]
    for r, (lane, env) in enumerate(zip(lanes, envs)):  # rows no step writes any more
        env.perm, env.best_perm, env.best_fc = perms[r], best[r], float(best_fc[r])
        env.t += len(lane.u)
        env.done = env.t >= budget
        lane.fc = fc_log[r, :len(lane.u)]


class RolloutWorker:
    """One deterministic environment stream with its own generator."""

    def __init__(self, pool, obj_cfg, ep_cfg, seed_seq: np.random.SeedSequence):
        self.env = SwapEnv(pool, obj_cfg, ep_cfg)
        self.rng = np.random.default_rng(seed_seq)
        self.state: FeatureMatrix | None = None
        self.ep_rewards: list[float] = []

    def _lanes(self, n_steps: int, base: int) -> list[_Lane]:
        """Split the next ``n_steps`` transitions (slots ``base`` on) into
        episode lanes, drawing as a one-state loop would: per episode one
        ``integers`` call at the reset, then one ``random`` call per step (the
        action's uniform, whatever the policy).
        """
        env, budget = self.env, self.env.ep_cfg.step_budget
        lanes, slot = [], 0
        if n_steps and self.state is not None and not env.done:
            length = min(budget - env.t, n_steps)  # the episode carried in
            lanes.append(_Lane(env, self.rng.random(length), base, self.ep_rewards))
            slot = length
        while slot < n_steps:
            lane_env = copy.copy(env)  # the same pool and table cache
            lane_env._begin(self.rng)  # a new episode
            length = min(budget, n_steps - slot)
            lanes.append(_Lane(lane_env, self.rng.random(length), base + slot, []))
            slot += length
        return lanes

    def _finish(self, lanes, every: TrajectoryBatch, rec: TrajectoryBatch) -> None:
        """Log the slice's episode returns; take over the last lane's episode."""
        for lane in lanes:
            span = slice(lane.slot, lane.slot + len(lane.u))
            self.ep_rewards = lane.prior + every.rewards[span].tolist()
            if every.dones[span][-1]:
                gamma_pows = self.env.ep_cfg.gamma ** np.arange(len(self.ep_rewards))
                rec.episode_returns.append(float(np.dot(gamma_pows, self.ep_rewards)))
        if lanes:  # lane and span are the last lane's, whose log outlives the collect
            i, k = np.divmod(every.action_flat[span], len(lane.env.perm))
            lane.env.episode_log = lane.env.episode_log + [
                {"action": pair, "fc": fc, "reward": reward} for pair, fc, reward in
                zip(zip(i.tolist(), k.tolist()), lane.fc.tolist(), every.rewards[span].tolist())]
            self.env, self.state = lane.env, lane.env._state()

    @staticmethod
    def collect(workers, params, net_cfg, n_steps: int) -> list[TrajectoryBatch]:
        """``n_steps`` transitions from each worker, all collected in lockstep.

        Every episode segment of every worker's slice -- the episode carried
        in from the previous collect, the full ones, the one cut at the
        slice end -- is a lane. The lanes of one job count step as one block
        (:func:`_step_lanes`): per step one feature build, one batched
        :func:`~swapsched.policynet.forward`, each action picked with its
        lane's own pre-drawn uniform (:func:`~swapsched.policynet.pick_actions`),
        then one pair check, swap and score for the block; no
        :meth:`SwapEnv.step` runs. The forward is batch-invariant, stacked
        tables score each row as its own instance's do, and a worker's draws
        do not depend on the policy, so the slices, generators, environments
        (the carried episode's log included), episode rewards and bootstrap
        values are bitwise those of collecting one state at a time, one
        worker after another.
        """
        every = TrajectoryBatch.empty(len(workers) * n_steps)
        plans = [w._lanes(n_steps, j * n_steps) for j, w in enumerate(workers)]
        lanes = sorted((lane for plan in plans for lane in plan),
                       key=lambda lane: (len(lane.env.perm), -len(lane.u)))
        for _, group in itertools.groupby(lanes, key=lambda lane: len(lane.env.perm)):
            _step_lanes(list(group), params, net_cfg, workers[0].env.ep_cfg, every)
        recs = [TrajectoryBatch(*(getattr(every, f.name)[j * n_steps:(j + 1) * n_steps]
                                  for f in fields(every)[:8]), bootstrap_value=0.0)
                for j in range(len(workers))]  # views of each worker's slice
        for w, plan, rec in zip(workers, plans, recs):
            w._finish(plan, every, rec)
        cut = sorted(((w.state, rec) for w, rec in zip(workers, recs) if not w.env.done),
                     key=lambda c: len(c[0].per_job))
        for _, group in itertools.groupby(cut, key=lambda c: len(c[0].per_job)):
            states, cut_recs = zip(*group)  # bootstrap from v(s_next)
            out = policynet.forward(params, net_cfg, np.stack([s.per_job for s in states]),
                                    np.array([s.general for s in states]))
            for rec, value in zip(cut_recs, out.value.tolist()):
                rec.bootstrap_value = value
        return recs

    def get_state(self) -> dict:
        return {"rng": self.rng.bit_generator.state, "env": self.env.get_state(),
                "has_state": self.state is not None, "ep_rewards": list(self.ep_rewards)}

    def set_state(self, state: dict) -> None:
        self.rng.bit_generator.state = state["rng"]
        self.env.set_state(state["env"])
        self.ep_rewards = list(state["ep_rewards"])
        self.state = self.env._state() if state["has_state"] and not self.env.done else None


# ---------------------------------------------------------------------------
# PPO loss and update


def ppo_loss_and_grads(params, net_cfg, features, generals, action_flat,
                       logp_old, adv, targets, cfg: PPOConfig, denom: int,
                       compute_grads: bool = True):
    """Clipped-surrogate loss (and gradients) for one homogeneous group.

    All samples must share the same job count so the forward pass can batch.
    ``denom`` is the minibatch size used for the mean, allowing a minibatch
    to be split into same-N groups whose losses and gradients add up exactly.
    """
    x = np.stack(features)
    out, cache = policynet.forward(params, net_cfg, x, generals, want_cache=True)
    b, n = x.shape[0], x.shape[1]
    prob = out.prob_matrix  # (B, N, N)
    p_a = np.maximum(prob.reshape(b, -1)[np.arange(b), action_flat], 1e-45)
    logp_new = np.log(p_a.astype(np.float64))

    ratio = np.exp(logp_new - logp_old)
    clipped = np.clip(ratio, 1.0 - cfg.clip_param, 1.0 + cfg.clip_param)
    surr1 = ratio * adv
    surr2 = clipped * adv
    policy_loss = -np.sum(np.minimum(surr1, surr2)) / denom

    v = np.atleast_1d(out.value).astype(np.float64)
    verr = v - targets
    value_loss = np.sum(verr ** 2) / denom

    p64 = prob.astype(np.float64)  # the one float64 copy of the (B, N, N) block
    logp64 = np.log(np.where(p64 > 0, p64, 1.0))  # 0 where p is 0: prob_entropy's bits
    entropy = -(p64 * logp64).sum(axis=(-2, -1))
    mean_entropy = np.sum(entropy) / denom

    loss = policy_loss + cfg.value_coeff * value_loss - cfg.entropy_coeff * mean_entropy
    metrics = {
        "policy_loss": float(policy_loss),
        "value_loss": float(value_loss),
        "entropy": float(mean_entropy),
        "approx_kl": float(np.sum(logp_old - logp_new)),
        "clip_frac": float(np.sum(np.abs(ratio - 1.0) > cfg.clip_param)),
    }
    if not compute_grads:
        return float(loss), None, metrics

    # d policy_loss / d logp_new: active only on the unclipped branch
    unclipped_active = surr1 <= surr2
    dlogp = np.where(unclipped_active, -adv * ratio, 0.0) / denom

    # chain through the global softmax: d logp_a / d z = onehot(a) - P
    dz_flat = -p64.reshape(b, -1) * dlogp[:, None]
    dz_flat[np.arange(b), action_flat] += dlogp
    dz = dz_flat.reshape(b, n, n)

    if cfg.entropy_coeff != 0.0:
        dH_dz = -p64 * (logp64 + entropy[:, None, None])
        dz += (-cfg.entropy_coeff / denom) * dH_dz

    dv = cfg.value_coeff * 2.0 * verr / denom
    grads = policynet.backward(cache, dz, dv, params, net_cfg)
    return float(loss), grads, metrics


def _vector(tensors: dict, what: str) -> np.ndarray:
    """The flat vector of ``tensors`` (:func:`swapsched.policynet.flat_buffer`)."""
    flat = policynet.flat_buffer(tensors)
    if flat is None:
        raise ValueError(f"{what} are not views of one flat vector")
    return flat


def global_grad_norm(grads: dict) -> float:
    """L2 norm over every block of ``grads``, views of one flat vector (as
    :func:`swapsched.policynet.backward` returns them).

    The vector is squared once in float64 and summed by one ``np.add.reduce``
    (numpy's pairwise sum over the whole vector, not block by block).
    """
    sq = _vector(grads, "grads").astype(np.float64)
    sq *= sq
    return float(np.sqrt(np.add.reduce(sq)))


def clip_grads_(grads: dict, max_norm: float | None) -> float:
    norm = global_grad_norm(grads)
    if max_norm is not None and norm > max_norm and norm > 0:
        _vector(grads, "grads")[...] *= max_norm / norm
    return norm


class Adam:
    """Plain first-order adaptive-moment optimizer with bias correction.

    Works on one flat parameter vector: ``params`` and each step's ``grads``
    must be views of one vector each, as ``init_params``, ``load_checkpoint``
    and ``backward`` return them (:func:`swapsched.policynet.flat_views`).
    The moments are flat vectors too (``m`` and ``v`` are dicts of views into
    them, by block name), so a step is a handful of vector operations.
    """

    def __init__(self, params: dict, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        layout = [(k, np.shape(v)) for k, v in params.items()]
        self._params, self._names = _vector(params, "params"), list(params)
        self._m = np.zeros_like(self._params)
        self._v = np.zeros_like(self._params)
        self.m = policynet.flat_views(layout, self._m)
        self.v = policynet.flat_views(layout, self._v)

    def step(self, params: dict, grads: dict, lr: float) -> None:
        if policynet.flat_buffer(params) is not self._params:
            raise ValueError("params are not the views this optimizer was built on")
        g = _vector(grads, "grads")
        if list(grads) != self._names:
            raise ValueError("grads are not in parameter order")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        correct1 = 1.0 - b1 ** self.t
        correct2 = 1.0 - b2 ** self.t
        # the operations of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
        # p -= lr * mhat / (sqrt(vhat) + eps), in the same order and dtype
        m, v = self._m, self._v
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        update = m / correct1
        update *= lr
        denom = v / correct2
        np.sqrt(denom, out=denom)
        denom += self.eps
        update /= denom
        self._params -= update


def ppo_update(params, net_cfg, batch: TrajectoryBatch, adv, targets,
               cfg: PPOConfig, optimizer: Adam, lr: float,
               update_rng: np.random.Generator) -> dict:
    """Epochs of shuffled minibatch steps on one collected batch.

    Minibatches are split into same-N groups; group losses/gradients are
    normalized by the minibatch size so the update equals the homogeneous
    case exactly. Returns averaged metrics for the metrics log.
    """
    b = len(batch)
    if b != cfg.train_batch_size:
        raise ValueError(f"batch has {b} transitions, expected {cfg.train_batch_size}")
    agg = {"policy_loss": 0.0, "value_loss": 0.0, "entropy": 0.0,
           "approx_kl": 0.0, "clip_frac": 0.0, "grad_norm": 0.0}
    n_minibatches = 0
    for _ in range(cfg.epochs_per_batch):
        order = update_rng.permutation(b)
        for lo in range(0, b, cfg.minibatch_size):
            idx = order[lo: lo + cfg.minibatch_size]
            denom = len(idx)
            grads_total = None
            for n in np.unique(batch.n_jobs[idx]):
                sel = idx[batch.n_jobs[idx] == n]
                loss, grads, metrics = ppo_loss_and_grads(
                    params, net_cfg,
                    [batch.features[j] for j in sel], batch.generals[sel],
                    batch.action_flat[sel], batch.log_probs[sel],
                    adv[sel], targets[sel], cfg, denom)
                if grads_total is None:
                    grads_total = grads
                else:
                    _vector(grads_total, "grads")[...] += _vector(grads, "grads")
                for key in ("policy_loss", "value_loss", "entropy"):
                    agg[key] += metrics[key]
                for key in ("approx_kl", "clip_frac"):
                    agg[key] += metrics[key] / denom
            agg["grad_norm"] += clip_grads_(grads_total, cfg.grad_clip_norm)
            optimizer.step(params, grads_total, lr)
            n_minibatches += 1
    if not np.isfinite(agg["policy_loss"]):
        raise FloatingPointError("non-finite PPO loss; aborting update")
    return {k: v / n_minibatches for k, v in agg.items()}


# ---------------------------------------------------------------------------
# trainer


@dataclass
class TrainResult:
    checkpoint_paths: list
    final_checkpoint: str
    metrics_path: str
    params: dict
    env_steps: int


def _sanitize(name: str) -> str:
    return name.replace(".", "__")


def _replace_atomically(writes) -> None:
    """Write each ``(path, write)`` pair through ``write(tmp)`` to ``<path>.tmp``,
    then move the files into place with ``os.replace``, in order.

    Nothing appears under a final name before every temporary file is
    complete, so a write that fails leaves the final names as they were; its
    temporary files are deleted.
    """
    tmps = [Path(f"{path}.tmp") for path, _ in writes]
    try:
        for tmp, (_, write) in zip(tmps, writes):
            write(tmp)
        for tmp, (path, _) in zip(tmps, writes):
            os.replace(tmp, path)
    finally:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)


def _save_resume_point(path_base, params, net_cfg, experiment_config, optimizer: Adam,
                       workers, update_rng, env_step, grad_step, next_checkpoint_at,
                       actor_resets) -> str:
    """Write ``<base>.ckpt`` and its ``.state.npz``/``.state.json`` sidecars.

    The sidecars are moved into place first and the checkpoint last, so a
    checkpoint under its final name always has its sidecars beside it.
    """
    arrays = {}
    for kind, table in (("m", optimizer.m), ("v", optimizer.v)):
        for k, arr in table.items():
            arrays[f"{kind}__{_sanitize(k)}"] = arr

    def write_npz(tmp):
        with open(tmp, "wb") as fh:  # a path would get ".npz" appended
            np.savez(fh, **arrays)

    state = {
        "adam_t": optimizer.t,
        "env_step": env_step,
        "grad_step": grad_step,
        "next_checkpoint_at": next_checkpoint_at,
        "actor_resets": actor_resets,
        "update_rng": update_rng.bit_generator.state,
        "workers": [w.get_state() for w in workers],
    }
    path = str(path_base) + ".ckpt"
    _replace_atomically([
        (str(path_base) + ".state.npz", write_npz),
        (str(path_base) + ".state.json",
         lambda tmp: tmp.write_text(json.dumps(state, sort_keys=True))),
        (path, lambda tmp: policynet.save_checkpoint(
            tmp, params, net_cfg, training_step=env_step,
            rng_state_digest=policynet.digest_rng_state(update_rng),
            experiment_config=experiment_config)),
    ])
    return path


def _load_trainer_state(path_base, optimizer: Adam, workers, update_rng):
    data = np.load(str(path_base) + ".state.npz")
    for kind, table in (("m", optimizer.m), ("v", optimizer.v)):
        for k, view in table.items():
            view[...] = data[f"{kind}__{_sanitize(k)}"]
    state = json.loads(Path(str(path_base) + ".state.json").read_text())
    optimizer.t = int(state["adam_t"])
    update_rng.bit_generator.state = state["update_rng"]
    if len(state["workers"]) != len(workers):
        raise ValueError("resume requires the same number of rollout workers")
    for w, ws in zip(workers, state["workers"]):
        w.set_state(ws)
    return (state["env_step"], state["grad_step"], state["next_checkpoint_at"],
            state.get("actor_resets", 0))


def _truncate_metrics(path: Path, env_step: int) -> None:
    """Drop metrics rows logged after ``env_step``, the step being resumed.

    Without this, resuming into the directory of the original run would log
    the updates after the checkpoint a second time. A torn last line (no
    newline) is dropped too.
    """
    if not path.exists():
        return
    rows = [line for line in path.read_text().splitlines(keepends=True)
            if line.endswith("\n") and json.loads(line)["env_step"] <= env_step]
    path.write_text("".join(rows))


def _actor_alive(params, net_cfg, probe_states) -> bool:
    """True if any probed state has a pair score above the ReLU dead zone.

    The action head's ReLU has an absorbing failure mode: once every pair
    score is non-positive (which a fresh draw can produce outright, because
    the max-pool feeds a shared component into every row and the resulting
    score matrix hovers around one random constant), the policy is exactly
    uniform and its gradient is zero forever.
    """
    for fm in probe_states:
        out = policynet.forward(params, net_cfg, fm.per_job, fm.general)
        n = out.logits.shape[-1]
        if np.any(out.logits[~np.eye(n, dtype=bool)] > 0):
            return True
    return False


def _redraw_compat(params, net_cfg, seed_key) -> None:
    """Re-randomize the compatibility projections (dead-actor recovery)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    limit = net_cfg.compat_init_gain * np.sqrt(6.0 / (2 * net_cfg.d_h))
    for name in ("compat.wq", "compat.wk"):
        params[name][...] = rng.uniform(-limit, limit,
                                        size=params[name].shape).astype(params[name].dtype)


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters
_MMAP_THRESHOLD = 32 << 20  # the ceiling of glibc's sliding mmap threshold on 64-bit
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD  # where glibc's sliding rule puts it beside that


def _keep_freed_heap() -> bool:
    """Have glibc malloc keep up to 64 MiB of freed heap instead of returning
    it to the kernel; True if both settings took effect.

    Each minibatch frees its forward cache and gradients (about 1.4 MB at desk
    scale) at the top of the heap. Trimmed, the next minibatch faults it in
    again: about 780 minor page faults (``getrusage(...).ru_minflt``) per
    desk-scale step and 5,100 per paper-scale one; kept, next to none. Both
    thresholds are set: fixing only the trim threshold also switches off the
    sliding mmap threshold, and large blocks go back to fresh mmaps. Without
    glibc's ``mallopt`` (musl, macOS) memory is trimmed as usual. Nothing
    computed changes either way.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        log.debug("no mallopt in this C library; freed heap is trimmed as usual")
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if not (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
            and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)):
        log.debug("mallopt refused the heap thresholds; freed heap is trimmed as usual")
        return False
    return True


def _blas_threads() -> int | None:
    """Thread count of numpy's bundled scipy-openblas, or None without it."""
    try:
        from numpy._core import _multiarray_umath

        # dlsym on numpy's extension also searches the libraries it links
        get = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_num_threads64_
    except (ImportError, AttributeError, OSError):  # numpy < 2 or another BLAS
        return None
    return int(get())


def train(pool: list[Instance], net_cfg: policynet.NetConfig, ppo_cfg: PPOConfig,
          ep_cfg: EpisodeConfig, obj_cfg: ObjectiveConfig, out_dir,
          pool_digest: str = "", resume_from=None) -> TrainResult:
    """Run PPO until the env-step budget is exhausted, saving checkpoints.

    Checkpoints (plus sidecar trainer state for exact resume) are written
    every ``checkpoint_every`` env steps and at the end, each file to a
    temporary name first, so a crash never leaves a torn file under a
    checkpoint's name (see :func:`_save_resume_point`); training metrics go
    to ``metrics.jsonl``, one row per update. Fixed seeds give identical
    metrics and checkpoints for a fixed worker count. ``resume_from`` points
    at a previously written checkpoint path to continue bit-exactly.
    """
    heap_kept = _keep_freed_heap()
    log.info("train: freed heap %s", "kept up to 64 MiB (mallopt)" if heap_kept
             else "trimmed as usual")
    threads = _blas_threads()
    if threads is not None:
        log.info("train: OpenBLAS threads %d", threads)
    out_dir = Path(out_dir)
    experiment_config = {
        "objective": asdict(obj_cfg), "net": asdict(net_cfg),
        "ppo": asdict(ppo_cfg), "episode": asdict(ep_cfg),
        "pool_digest": pool_digest, "pool_size": len(pool),
    }
    workers = [RolloutWorker(pool, obj_cfg, ep_cfg,
                             np.random.SeedSequence([ppo_cfg.seed, 1000 + w]))
               for w in range(ppo_cfg.n_rollout_workers)]
    update_rng = np.random.default_rng(np.random.SeedSequence([ppo_cfg.seed, 7]))
    probe_states = [tables.state_features(tables.ref, 0, ep_cfg.step_budget)
                    for tables in (ObjectiveTables(inst, obj_cfg) for inst in pool[:3])]

    metrics_path = out_dir / "metrics.jsonl"
    if resume_from is not None:
        params, loaded_cfg, _ = policynet.load_checkpoint(resume_from)
        if loaded_cfg != net_cfg:
            raise ValueError("resume checkpoint was trained with a different net config")
        optimizer = Adam(params, ppo_cfg.adam_beta1, ppo_cfg.adam_beta2, ppo_cfg.adam_eps)
        env_step, grad_step, next_checkpoint_at, actor_resets = _load_trainer_state(
            str(resume_from)[: -len(".ckpt")] if str(resume_from).endswith(".ckpt") else resume_from,
            optimizer, workers, update_rng)
        _truncate_metrics(metrics_path, env_step)
        metrics_mode = "a"
    else:
        params = policynet.init_params(net_cfg, seed=ppo_cfg.seed)
        optimizer = Adam(params, ppo_cfg.adam_beta1, ppo_cfg.adam_beta2, ppo_cfg.adam_eps)
        env_step, grad_step = 0, 0
        next_checkpoint_at = ppo_cfg.effective_checkpoint_every()
        actor_resets = 0
        metrics_mode = "w"
        while not _actor_alive(params, net_cfg, probe_states):
            actor_resets += 1
            if actor_resets > 100:
                raise FloatingPointError("could not draw a live action head")
            _redraw_compat(params, net_cfg, [ppo_cfg.seed, 65537, actor_resets])
        if actor_resets:
            log.info("redrew dead action head %d time(s) at init", actor_resets)
    # written only now that a resume point is loaded and checked: a refused one changes nothing
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "experiment_config.json").write_text(
        json.dumps(experiment_config, sort_keys=True, indent=2) + "\n")

    checkpoint_paths = []
    quota = ppo_cfg.train_batch_size // ppo_cfg.n_rollout_workers

    def save_ckpt(step):
        path = _save_resume_point(out_dir / f"ckpt_{step:010d}", params, net_cfg,
                                  experiment_config, optimizer, workers, update_rng,
                                  step, grad_step, next_checkpoint_at, actor_resets)
        checkpoint_paths.append(path)
        return path

    metrics_fh = open(metrics_path, metrics_mode)
    try:
        while env_step < ppo_cfg.total_env_steps:
            slices = RolloutWorker.collect(workers, params, net_cfg, quota)
            adv, targets = (np.concatenate(parts) for parts in zip(*(
                compute_gae(s.rewards, s.values, s.dones, s.bootstrap_value, ep_cfg.gamma,
                            ppo_cfg.gae_lambda) for s in slices)))
            batch = TrajectoryBatch.join(slices)
            std = adv.std()
            adv_norm = (adv - adv.mean()) / (std if std > 0 else 1.0)

            env_step += ppo_cfg.train_batch_size
            lr = lr_schedule(min(env_step, ppo_cfg.total_env_steps), ppo_cfg)
            # a fresh near-uniform policy has every pair score at the ReLU
            # edge of the action head; holding the entropy bonus back until
            # the scores differentiate keeps the head from being swept dead
            update_cfg = ppo_cfg
            if ppo_cfg.entropy_coeff and env_step <= ppo_cfg.entropy_warmup_env_steps:
                update_cfg = replace(ppo_cfg, entropy_coeff=0.0)
            metrics = ppo_update(params, net_cfg, batch, adv_norm, targets,
                                 update_cfg, optimizer, lr, update_rng)
            grad_step += ppo_cfg.epochs_per_batch * (
                (ppo_cfg.train_batch_size + ppo_cfg.minibatch_size - 1) // ppo_cfg.minibatch_size)

            if not _actor_alive(params, net_cfg, probe_states):
                # the update drove every pair score into the ReLU dead zone;
                # the policy is exactly uniform with zero actor gradient, so
                # redraw the head (the encoder and critic keep their training)
                actor_resets += 1
                _redraw_compat(params, net_cfg, [ppo_cfg.seed, 65537, actor_resets])
                for table in (optimizer.m, optimizer.v):
                    table["compat.wq"][...] = 0
                    table["compat.wk"][...] = 0
                log.warning("action head died at env step %d; redrawn (reset #%d)",
                            env_step, actor_resets)

            returns = batch.episode_returns
            row = {
                "env_step": env_step, "grad_step": grad_step, "lr": lr,
                "episodes_completed": len(returns),
                "mean_episode_return": float(np.mean(returns)) if returns else None,
                "actor_resets": actor_resets,
                **{k: metrics[k] for k in sorted(metrics)},
            }
            metrics_fh.write(json.dumps(row, sort_keys=True) + "\n")
            metrics_fh.flush()

            if env_step >= next_checkpoint_at and env_step < ppo_cfg.total_env_steps:
                # advance first: the resume point records where the next
                # checkpoint falls, as the uninterrupted run continues
                every = ppo_cfg.effective_checkpoint_every()
                while next_checkpoint_at <= env_step:
                    next_checkpoint_at += every
                save_ckpt(env_step)
    finally:
        metrics_fh.close()

    final = save_ckpt(env_step)
    return TrainResult(checkpoint_paths=checkpoint_paths, final_checkpoint=final,
                       metrics_path=str(metrics_path), params=params, env_steps=env_step)


__all__ = [
    "EpisodeConfig", "PPOConfig", "SwapEnv", "TrajectoryBatch",
    "RolloutWorker", "best_improvement_reward", "lr_schedule", "compute_gae",
    "ppo_loss_and_grads", "ppo_update", "Adam", "clip_grads_",
    "global_grad_norm", "train", "TrainResult",
]
