"""Swap-search environment and clipped-surrogate policy-gradient trainer.

An episode starts from the due-date sort of a randomly drawn instance and
performs a fixed budget of T swaps. The dense reward after each swap is the
combined objective of the new permutation divided by T, so the undiscounted
return telescopes to the mean combined objective over the visited
permutations. A sparser best-improvement reward is available for ablation.

Training is single-process PPO. With several rollout workers, each owns an
independent environment stream and generator, so results depend only on
(seed, worker count). A collect steps every episode of every worker's slice
as a lane of one lockstep (:meth:`RolloutWorker.collect`): a worker's
generator draws do not depend on the policy, so they are made first, in the
order a one-state loop makes them, and one batch-invariant forward per step
serves all lanes; the result is bitwise that of collecting one state at a
time, one worker after another. One update consumes exactly
``train_batch_size`` transitions, computes GAE per worker slice (bootstrapping
episodes cut at the slice end), normalizes advantages batch-wide and runs
``epochs_per_batch`` epochs of minibatch Adam steps on the clipped surrogate
loss. Gradients come from :func:`swapsched.policynet.backward`.

The per-step costs are kept out of the loop without changing a bit of the
results. The environment builds each instance's
:class:`~swapsched.schedcore.ObjectiveTables` once and scores every step with
its ``fc``, the scorer the inference lanes and SA use too, bitwise the full
objective. Parameters, gradients and both Adam moments each live in one flat
float vector whose blocks the name-keyed dicts are views of, so an optimizer
step is a few vector operations.
Checkpoints and their trainer-state sidecars are written to temporary names
and moved into place, so a crash leaves no torn resume point.
"""

from __future__ import annotations

import copy
import json
import logging
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import policynet
from .operators import check_pair
from .schedcore import (FeatureMatrix, Instance, ObjectiveConfig, ObjectiveTables,
                        check_permutation, edd_sort, state_features)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EpisodeConfig:
    """Episode shape: swap budget T, discount, and reward variant."""

    step_budget: int = 10
    gamma: float = 0.99
    reward_mode: str = "dense"  # "dense" | "best_improvement"

    def __post_init__(self):
        if self.step_budget < 1:
            raise ValueError("step_budget must be >= 1")
        if not 0 <= self.gamma <= 1:
            raise ValueError("gamma must lie in [0, 1]")
        if self.reward_mode not in ("dense", "best_improvement"):
            raise ValueError(f"unknown reward_mode {self.reward_mode!r}")


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
        if not 0 < self.clip_param < 1:
            raise ValueError("clip_param must lie in (0, 1)")
        for name in ("n_rollout_workers", "train_batch_size", "minibatch_size", "epochs_per_batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be None or >= 1, got {self.checkpoint_every}")
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


def best_improvement_reward(best_fc: float, new_fc: float) -> float:
    """Sparse alternative reward: positive only when the incumbent improves."""
    return max(0.0, new_fc - best_fc)


class SwapEnv:
    """Improvement-search episode over a pool of instances.

    ``reset`` draws an instance uniformly and starts from its due-date sort
    (combined objective 0 by construction); ``step`` applies one swap. The
    per-episode log of (action, fc) supports replay checks and the return
    identity test.

    Each instance's :class:`ObjectiveTables` (reference: its due-date sort)
    is built on its first episode and reused. A step checks only the action
    pair, scores the new permutation with :meth:`ObjectiveTables.fc` (bitwise
    what :func:`combined_objective` returns) and builds its features with
    :meth:`ObjectiveTables.state_features` (bitwise :func:`state_features`).
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
        self._select(int(rng.integers(len(self.pool))))
        self.perm = self.sigma0.copy()  # checked when its tables were built
        self.t = 0
        self.done = False
        self.best_perm = self.perm.copy()
        self.best_fc = 0.0  # fc of the reference against itself
        self.episode_log = []
        return self._state()

    def _state(self) -> FeatureMatrix:
        return self.tables.state_features(self.perm, self.t, self.ep_cfg.step_budget)

    def spawn(self) -> SwapEnv:
        """A new env (no episode started) over the same pool and table cache."""
        env = copy.copy(self)
        env.episode_log = []
        return env

    def step(self, action) -> tuple[FeatureMatrix, float, bool, dict]:
        if self.done:
            raise RuntimeError("step() called on a finished episode; call reset()")
        i, k = action
        perm = self.perm.copy()
        check_pair(len(perm), i, k)
        perm[i], perm[k] = perm[k], perm[i]
        self.perm = perm
        fc = self.tables.fc(perm)
        if self.ep_cfg.reward_mode == "dense":
            reward = fc / self.ep_cfg.step_budget
        else:
            reward = best_improvement_reward(self.best_fc, fc)
        if fc > self.best_fc:
            self.best_fc = fc
            self.best_perm = perm.copy()
        self.t += 1
        self.done = self.t >= self.ep_cfg.step_budget
        self.episode_log.append({"action": (int(i), int(k)), "fc": fc, "reward": reward})
        return self._state(), float(reward), self.done, {"fc": fc, "best_fc": self.best_fc}

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
    """One episode segment of a worker's slice in a lockstep collect."""

    __slots__ = ("env", "state", "rec", "slot", "u", "prior", "keep_log")

    def __init__(self, env: SwapEnv, state: FeatureMatrix, rec: TrajectoryBatch, slot: int,
                 u: np.ndarray, prior: list):
        self.env, self.state, self.rec = env, state, rec
        self.slot = slot  # index of the lane's first transition in the slice
        self.u = u  # the uniforms of its action draws, one per step
        self.prior = prior  # the episode's rewards before this collect
        self.keep_log = True


def _by_jobs(states) -> list[list[int]]:
    """Indices of ``states`` grouped by job count, each group in order."""
    groups: dict[int, list[int]] = {}
    for idx, state in enumerate(states):
        groups.setdefault(state.per_job.shape[0], []).append(idx)
    return list(groups.values())


def _forward(params, net_cfg, states):
    """One batched forward over same-N states; row r is ``states[r]`` alone."""
    return policynet.forward(params, net_cfg, np.stack([s.per_job for s in states]),
                             np.array([s.general for s in states]))


class RolloutWorker:
    """One deterministic environment stream with its own generator."""

    def __init__(self, pool, obj_cfg, ep_cfg, seed_seq: np.random.SeedSequence):
        self.env = SwapEnv(pool, obj_cfg, ep_cfg)
        self.rng = np.random.default_rng(seed_seq)
        self.state: FeatureMatrix | None = None
        self.ep_rewards: list[float] = []

    def _lanes(self, rec: TrajectoryBatch) -> list[_Lane]:
        """Split the slice ``rec`` into episode lanes, drawing as a one-state
        loop would: per episode one ``integers`` call at the reset, then one
        ``random`` call per step (the action's uniform, whatever the policy).
        """
        env, budget, n_steps = self.env, self.env.ep_cfg.step_budget, len(rec.features)
        lanes, slot = [], 0
        if n_steps and self.state is not None and not env.done:
            length = min(budget - env.t, n_steps)  # the episode carried in
            lanes.append(_Lane(env, self.state, rec, 0, self.rng.random(length),
                               self.ep_rewards))
            slot = length
        while slot < n_steps:
            lane_env = env.spawn()
            state = lane_env.reset(self.rng)
            length = min(budget, n_steps - slot)
            lanes.append(_Lane(lane_env, state, rec, slot, self.rng.random(length), []))
            slot += length
        for lane in lanes[:-1]:  # only the worker's last episode keeps its log
            lane.keep_log = False
            lane.env.episode_log.clear()
        return lanes

    def _finish(self, lanes, rec: TrajectoryBatch, gamma: float) -> None:
        """Take over the last lane's episode; log the slice's episode returns."""
        for lane in lanes:
            end = lane.slot + len(lane.u)
            self.ep_rewards = lane.prior + rec.rewards[lane.slot:end].tolist()
            if rec.dones[end - 1]:
                gamma_pows = gamma ** np.arange(len(self.ep_rewards))
                rec.episode_returns.append(float(np.dot(gamma_pows, self.ep_rewards)))
        if lanes:
            self.env, self.state = lanes[-1].env, lanes[-1].state

    @staticmethod
    def collect(workers, params, net_cfg, n_steps: int) -> list[TrajectoryBatch]:
        """``n_steps`` transitions from each worker, all collected in lockstep.

        Every episode segment of every worker's slice -- the episode carried
        in from the previous collect, the full ones, the one cut at the
        slice end -- is a lane. All lanes step together: one batched
        :func:`~swapsched.policynet.forward` per job count per step, each
        action picked with the lane's own pre-drawn uniform
        (:func:`~swapsched.policynet.pick_actions`), then each lane's
        :meth:`SwapEnv.step`. The forward is batch-invariant and a worker's
        draws do not depend on the policy, so the slices, generators,
        environments, episode rewards and bootstrap values are bitwise those
        of collecting one state at a time, one worker after another.
        """
        recs = [TrajectoryBatch.empty(n_steps) for _ in workers]
        plans = [w._lanes(rec) for w, rec in zip(workers, recs)]
        lanes = [lane for plan in plans for lane in plan]
        groups = [[lanes[j] for j in g] for g in _by_jobs([lane.state for lane in lanes])]
        for s in range(max((len(lane.u) for lane in lanes), default=0)):
            for group in groups:
                active = [lane for lane in group if len(lane.u) > s]
                if not active:
                    continue
                out = _forward(params, net_cfg, [lane.state for lane in active])
                i, k, logp = policynet.pick_actions(out.prob_matrix,
                                                    [lane.u[s] for lane in active])
                n = active[0].state.per_job.shape[0]
                for r, lane in enumerate(active):
                    rec, t = lane.rec, lane.slot + s
                    rec.features[t] = lane.state.per_job
                    rec.generals[t] = lane.state.general
                    rec.action_flat[t] = i[r] * n + k[r]
                    rec.n_jobs[t] = n
                    rec.log_probs[t] = logp[r]
                    rec.values[t] = out.value[r]
                    lane.state, rec.rewards[t], rec.dones[t], _ = lane.env.step(
                        (int(i[r]), int(k[r])))
                    if not lane.keep_log:
                        lane.env.episode_log.clear()

        gamma = workers[0].env.ep_cfg.gamma
        for w, plan, rec in zip(workers, plans, recs):
            w._finish(plan, rec, gamma)
        cut = [(w, rec) for w, rec in zip(workers, recs) if not w.env.done]
        for g in _by_jobs([w.state for w, _ in cut]):  # bootstrap from v(s_next)
            out = _forward(params, net_cfg, [cut[j][0].state for j in g])
            for r, j in enumerate(g):
                cut[j][1].bootstrap_value = float(out.value[r])
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
    flat_prob = prob.reshape(b, -1)
    p_a = np.maximum(flat_prob[np.arange(b), action_flat], 1e-45)
    logp_new = np.log(p_a.astype(np.float64))

    ratio = np.exp(logp_new - logp_old)
    clipped = np.clip(ratio, 1.0 - cfg.clip_param, 1.0 + cfg.clip_param)
    surr1 = ratio * adv
    surr2 = clipped * adv
    policy_loss = -np.sum(np.minimum(surr1, surr2)) / denom

    v = np.atleast_1d(out.value).astype(np.float64)
    verr = v - targets
    value_loss = np.sum(verr ** 2) / denom

    entropy = policynet.prob_entropy(prob)
    entropy = np.atleast_1d(entropy)
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
    dz_flat = -flat_prob.astype(np.float64) * dlogp[:, None]
    dz_flat[np.arange(b), action_flat] += dlogp
    dz = dz_flat.reshape(b, n, n)

    if cfg.entropy_coeff != 0.0:
        p64 = prob.astype(np.float64)
        logp64 = np.where(p64 > 0, np.log(np.where(p64 > 0, p64, 1.0)), 0.0)
        dH_dz = -p64 * (logp64 + entropy[:, None, None])
        dz += (-cfg.entropy_coeff / denom) * dH_dz

    dv = cfg.value_coeff * 2.0 * verr / denom
    grads = policynet.backward(cache, dz, dv, params, net_cfg)
    return float(loss), grads, metrics


def _accumulate(total: dict | None, grads: dict) -> dict:
    if total is None:
        return grads
    for k in total:
        total[k] += grads[k]
    return total


def global_grad_norm(grads: dict) -> float:
    return float(np.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads.values())))


def clip_grads_(grads: dict, max_norm: float | None) -> float:
    norm = global_grad_norm(grads)
    if max_norm is not None and norm > max_norm and norm > 0:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
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
        self._params = policynet.flat_buffer(params)
        if self._params is None:
            raise ValueError("params are not views of one flat vector")
        self._names = list(params)
        self._views = list(params.values())
        self._m = np.zeros_like(self._params)
        self._v = np.zeros_like(self._params)
        self.m = policynet.flat_views(layout, self._m)
        self.v = policynet.flat_views(layout, self._v)

    def step(self, params: dict, grads: dict, lr: float) -> None:
        if len(params) != len(self._views) or any(
                a is not b for a, b in zip(params.values(), self._views)):
            raise ValueError("params are not the views this optimizer was built on")
        g = policynet.flat_buffer(grads)
        if g is None or list(grads) != self._names:
            raise ValueError("grads are not views of one flat vector in parameter order")
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
                grads_total = _accumulate(grads_total, grads)
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
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    experiment_config = {
        "objective": asdict(obj_cfg), "net": net_cfg.to_dict(),
        "ppo": asdict(ppo_cfg), "episode": asdict(ep_cfg),
        "pool_digest": pool_digest, "pool_size": len(pool),
    }
    (out_dir / "experiment_config.json").write_text(
        json.dumps(experiment_config, sort_keys=True, indent=2) + "\n")

    workers = [RolloutWorker(pool, obj_cfg, ep_cfg,
                             np.random.SeedSequence([ppo_cfg.seed, 1000 + w]))
               for w in range(ppo_cfg.n_rollout_workers)]
    update_rng = np.random.default_rng(np.random.SeedSequence([ppo_cfg.seed, 7]))
    probe_states = [state_features(inst, edd_sort(inst), obj_cfg, 0, ep_cfg.step_budget)
                    for inst in pool[:3]]

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

            adv_parts, tgt_parts = [], []
            for slc in slices:
                a, t = compute_gae(slc.rewards, slc.values, slc.dones,
                                   slc.bootstrap_value, ep_cfg.gamma, ppo_cfg.gae_lambda)
                adv_parts.append(a)
                tgt_parts.append(t)
            batch = TrajectoryBatch(
                features=[f for s in slices for f in s.features],
                generals=np.concatenate([s.generals for s in slices]),
                action_flat=np.concatenate([s.action_flat for s in slices]),
                n_jobs=np.concatenate([s.n_jobs for s in slices]),
                log_probs=np.concatenate([s.log_probs for s in slices]),
                rewards=np.concatenate([s.rewards for s in slices]),
                values=np.concatenate([s.values for s in slices]),
                dones=np.concatenate([s.dones for s in slices]),
                bootstrap_value=0.0,
                episode_returns=[r for s in slices for r in s.episode_returns])
            adv = np.concatenate(adv_parts)
            targets = np.concatenate(tgt_parts)
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
