import ctypes
import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from swapsched import policynet as pn
from swapsched import ppo
from swapsched.bench import GeneratorConfig, generate_instance
from swapsched.schedcore import ObjectiveConfig, combined_objective, edd_sort, state_features
from tests.test_bench import BENCH_GOLDEN, paper_bench_record


def small_pool(count=3, seed=60):
    gen = GeneratorConfig(n_jobs=5, n_stations=2, due_slack_s=0.0,
                          due_noise_s=400.0, seed=seed, count=count)
    return [generate_instance(gen, i) for i in range(count)]


def tiny_net():
    return pn.NetConfig(d_in=6, d_h=8, n_heads=2, n_layers=1, d_ff=16)


def _desk_net():
    return pn.NetConfig(d_in=8, d_h=32, n_heads=2, n_layers=2, d_ff=64)


@pytest.fixture
def env(obj_cfg):
    return ppo.SwapEnv(small_pool(), obj_cfg, ppo.EpisodeConfig(step_budget=4, gamma=0.9))


# ---------------------------------------------------------------------------
# environment


def test_reset_single_instance_pool(obj_cfg):
    pool = small_pool(count=1)
    env = ppo.SwapEnv(pool, obj_cfg, ppo.EpisodeConfig())
    rng = np.random.default_rng(0)
    for _ in range(5):
        env.reset(rng)
        assert env.inst is pool[0]
    assert env.best_fc == 0.0  # sigma0 against itself


def test_reset_sequence_reproducible(obj_cfg):
    pool = small_pool(count=3)
    picks = []
    for _ in range(2):
        env = ppo.SwapEnv(pool, obj_cfg, ppo.EpisodeConfig())
        rng = np.random.default_rng(42)
        picks.append([env.reset(rng) and env.inst_idx for _ in range(10)])
    assert picks[0] == picks[1]


def test_step_reward_and_done(env):
    state = env.reset(np.random.default_rng(1))
    assert state.general == 0.0
    _, r1, done, info = env.step((0, 1))
    expected = combined_objective(env.inst, env.perm, env.sigma0, env.obj_cfg).fc
    assert r1 == pytest.approx(expected / 4)
    assert not done
    # swapping back restores sigma0, whose combined objective is 0
    _, r2, _, info = env.step((0, 1))
    assert r2 == 0.0
    assert info["fc"] == 0.0


def test_step_after_done_faults(env):
    env.reset(np.random.default_rng(2))
    for _ in range(4):
        _, _, done, _ = env.step((0, 1))
    assert done
    with pytest.raises(RuntimeError):
        env.step((0, 1))


def test_single_step_budget_return(obj_cfg):
    env = ppo.SwapEnv(small_pool(), obj_cfg, ppo.EpisodeConfig(step_budget=1))
    env.reset(np.random.default_rng(3))
    _, r, done, info = env.step((1, 3))
    assert done
    assert r == pytest.approx(info["fc"])  # G = r_0 = fc(sigma_1) when T=1


def test_best_so_far_monotone(env):
    env.reset(np.random.default_rng(4))
    rng = np.random.default_rng(5)
    best_seen = 0.0
    for _ in range(4):
        i = int(rng.integers(5))
        k = (i + 1 + int(rng.integers(4))) % 5
        _, _, _, info = env.step((i, k))
        assert info["best_fc"] >= best_seen - 1e-15
        best_seen = info["best_fc"]


def test_dense_reward_bound(env):
    env.reset(np.random.default_rng(6))
    _, r, _, info = env.step((0, 4))
    assert abs(r) <= abs(info["fc"]) / 4 + 1e-15


def test_return_identity_from_log(obj_cfg):
    ep = ppo.EpisodeConfig(step_budget=6, gamma=0.97)
    env = ppo.SwapEnv(small_pool(), obj_cfg, ep)
    env.reset(np.random.default_rng(7))
    rng = np.random.default_rng(8)
    rewards = []
    for _ in range(6):
        i = int(rng.integers(5))
        k = (i + 1 + int(rng.integers(4))) % 5
        _, r, _, _ = env.step((i, k))
        rewards.append(r)
    got = sum(ep.gamma ** t * r for t, r in enumerate(rewards))
    want = sum(ep.gamma ** t * e["fc"] for t, e in enumerate(env.episode_log)) / ep.step_budget
    assert abs(got - want) <= 1e-9


def test_best_improvement_reward_mode(obj_cfg):
    ep = ppo.EpisodeConfig(step_budget=5, reward_mode="best_improvement")
    env = ppo.SwapEnv(small_pool(), obj_cfg, ep)
    env.reset(np.random.default_rng(9))
    total = 0.0
    for _ in range(5):
        prev_best = env.best_fc
        _, r, _, info = env.step((0, 1) if env.t % 2 == 0 else (2, 3))
        assert r == pytest.approx(max(0.0, info["fc"] - prev_best))
        total += r
    assert total == pytest.approx(env.best_fc)  # telescoping from 0


def test_best_improvement_helper():
    assert ppo.best_improvement_reward(1.0, 0.5) == 0.0
    assert ppo.best_improvement_reward(0.0, 0.7) == pytest.approx(0.7)


def _desk_pool(count=20, seed=1001):
    gen = GeneratorConfig(n_jobs=6, n_stations=3, due_slack_s=0.0, due_noise_s=700.0,
                          p_min_frac=0.0, seed=seed, count=count)
    return [generate_instance(gen, i) for i in range(count)]


@pytest.mark.parametrize("reward_mode", ["dense", "best_improvement"])
def test_env_step_matches_combined_objective_bitwise(obj_cfg, reward_mode):
    # the env scores from cached per-instance tables; combined_objective is
    # the independent reference and every value must agree to the bit
    pool = _desk_pool()
    ep_cfg = ppo.EpisodeConfig(step_budget=10, reward_mode=reward_mode)
    env = ppo.SwapEnv(pool, obj_cfg, ep_cfg)
    rng = np.random.default_rng(65)
    for episode in range(40):
        env.reset(rng)
        if episode % 4 == 3:  # continue in a fresh env restored mid-episode
            for _ in range(int(rng.integers(1, 10))):
                env.step(tuple(rng.choice(6, size=2, replace=False)))
            state = json.loads(json.dumps(env.get_state()))
            env = ppo.SwapEnv(pool, obj_cfg, ep_cfg)
            env.set_state(state)
        inst, sigma0 = pool[env.inst_idx], edd_sort(pool[env.inst_idx])
        best_fc = env.best_fc
        while not env.done:
            i, k = rng.choice(6, size=2, replace=False)
            _, reward, _, info = env.step((int(i), int(k)))
            fc = combined_objective(inst, env.perm, sigma0, obj_cfg).fc
            assert type(info["fc"]) is float and info["fc"] == fc
            if reward_mode == "dense":
                assert reward == fc / ep_cfg.step_budget
            else:
                assert reward == ppo.best_improvement_reward(best_fc, fc)
            best_fc = max(best_fc, fc)
            assert info["best_fc"] == env.best_fc == best_fc
        assert combined_objective(inst, env.best_perm, sigma0, obj_cfg).fc == env.best_fc


@pytest.mark.parametrize("scale", [3600.0, 1.0])  # 1 s: exponents hit EXP_CLAMP
def test_env_features_equal_state_features(inst20, scale):
    # the env builds each state from its cached tables, checking the
    # permutation only where it enters; the bits are state_features'
    cfg = ObjectiveConfig(tardiness_scale=scale)
    pool = _desk_pool(count=5) + [inst20]
    env = ppo.SwapEnv(pool, cfg, ppo.EpisodeConfig(step_budget=10))
    rng = np.random.default_rng(77)
    sizes = set()
    for _ in range(24):
        state = env.reset(rng)
        sizes.add(env.inst.n_jobs)
        while True:
            want = state_features(env.inst, env.perm, cfg, env.t, 10)
            assert state.per_job.tobytes() == want.per_job.tobytes()
            assert state.general == want.general
            if env.done:
                break
            i, k = rng.choice(env.inst.n_jobs, size=2, replace=False)
            state = env.step((int(i), int(k)))[0]
    assert sizes == {6, 20}


def test_env_set_state_rejects_a_non_permutation(env):
    env.reset(np.random.default_rng(0))
    state = env.get_state()
    state["perm"][0] = state["perm"][1]
    with pytest.raises(ValueError):
        ppo.SwapEnv(env.pool, env.obj_cfg, env.ep_cfg).set_state(state)


def test_env_step_rejects_bad_pairs_and_keeps_state(env):
    env.reset(np.random.default_rng(0))
    before = env.perm.copy()
    for bad in ((1, 1), (0, 5), (-1, 2)):
        with pytest.raises(ValueError):
            env.step(bad)
        assert np.array_equal(env.perm, before) and env.t == 0


# ---------------------------------------------------------------------------
# GAE


def _ref_gae_forward(r, v, dones, boot, gamma, lam):
    """Forward-sum formulation, independent of the backward recursion."""
    n = len(r)
    out = []
    for t in range(n):
        acc, coef = 0.0, 1.0
        for l in range(t, n):
            next_v = boot if l == n - 1 else v[l + 1]
            nonterm = 0.0 if dones[l] else 1.0
            delta = r[l] + gamma * next_v * nonterm - v[l]
            acc += coef * delta
            if dones[l]:
                break
            coef *= gamma * lam
        out.append(acc)
    return np.array(out)


def test_gae_collapses_at_zero_lambda_gamma(rng):
    r = rng.normal(size=8)
    v = rng.normal(size=8)
    dones = np.zeros(8, dtype=bool)
    adv, targets = ppo.compute_gae(r, v, dones, 0.3, gamma=0.0, lam=0.0)
    assert np.allclose(adv, r - v)
    assert np.allclose(targets, r)


def test_gae_lambda_one_is_return_minus_value(rng):
    r = rng.normal(size=6)
    v = rng.normal(size=6)
    dones = np.zeros(6, dtype=bool)
    dones[-1] = True
    gamma = 0.9
    adv, _ = ppo.compute_gae(r, v, dones, 0.0, gamma=gamma, lam=1.0)
    returns = np.array([sum(gamma ** (l - t) * r[l] for l in range(t, 6)) for t in range(6)])
    assert np.allclose(adv, returns - v)


def test_gae_matches_reference_recursion(rng):
    for _ in range(10):
        n = int(rng.integers(3, 20))
        r = rng.normal(size=n)
        v = rng.normal(size=n)
        dones = rng.random(n) < 0.3
        boot = float(rng.normal())
        gamma, lam = 0.95, 0.8
        adv, targets = ppo.compute_gae(r, v, dones, boot, gamma, lam)
        ref = _ref_gae_forward(r, v, dones, boot, gamma, lam)
        assert np.all(np.abs(adv - ref) <= 1e-9)
        assert np.allclose(targets, adv + v)


# ---------------------------------------------------------------------------
# schedule and loss


def test_lr_schedule_endpoints():
    cfg = ppo.PPOConfig(total_env_steps=1000)
    assert ppo.lr_schedule(0, cfg) == 5e-4
    assert ppo.lr_schedule(1000, cfg) == 2e-5
    assert ppo.lr_schedule(500, cfg) == pytest.approx(2.6e-4)


def _loss_fixture(rng, batch=6, n=4):
    cfg = tiny_net()
    params = pn.init_params(cfg, seed=70, dtype=np.float64)
    feats = [rng.normal(size=(n, cfg.d_in)) for _ in range(batch)]
    gens = rng.random(batch)
    acts = []
    for _ in range(batch):
        i = int(rng.integers(n))
        k = (i + 1 + int(rng.integers(n - 1))) % n
        acts.append(i * n + k)
    return cfg, params, feats, gens, np.array(acts)


def test_ppo_loss_ratio_one_equals_neg_mean_adv(rng):
    cfg, params, feats, gens, acts = _loss_fixture(rng)
    out = pn.forward(params, cfg, np.stack(feats), gens)
    logp = np.log(out.prob_matrix.reshape(6, -1)[np.arange(6), acts])
    adv = rng.normal(size=6)
    targets = np.zeros(6)
    pcfg = ppo.PPOConfig(value_coeff=0.0, train_batch_size=6, minibatch_size=6)
    loss, _, metrics = ppo.ppo_loss_and_grads(params, cfg, feats, gens, acts,
                                              logp, adv, targets, pcfg, denom=6)
    assert metrics["policy_loss"] == pytest.approx(-adv.mean(), rel=1e-9)
    assert loss == pytest.approx(-adv.mean(), rel=1e-9)


def test_ppo_clipped_sample_has_zero_policy_gradient(rng):
    cfg, params, feats, gens, acts = _loss_fixture(rng, batch=1)
    out = pn.forward(params, cfg, feats[0], gens[0])
    logp_new = np.log(out.prob_matrix.ravel()[acts[0]])
    # fake an old log-prob far below the current one: ratio >> 1 + clip
    logp_old = np.array([logp_new - 2.0])
    adv = np.array([1.5])  # positive advantage, clipped branch active
    pcfg = ppo.PPOConfig(value_coeff=0.0, entropy_coeff=0.0,
                         train_batch_size=1, minibatch_size=1)
    _, grads, _ = ppo.ppo_loss_and_grads(params, cfg, feats, gens, acts,
                                         logp_old, adv, np.zeros(1), pcfg, denom=1)
    assert all(np.all(g == 0) for g in grads.values())


def test_adam_moves_against_gradient():
    params = pn.flat_views([("w", (2,))], np.array([1.0, -2.0]))
    opt = ppo.Adam(params)
    grads = pn.flat_views([("w", (2,))], np.array([0.5, -0.5]))
    opt.step(params, grads, lr=0.1)
    assert params["w"][0] < 1.0 and params["w"][1] > -2.0


def test_adam_rejects_params_that_are_not_one_vector():
    with pytest.raises(ValueError):
        ppo.Adam({"w": np.array([1.0, -2.0])})
    with pytest.raises(ValueError):  # two vectors
        ppo.Adam({"a": np.zeros(2), "b": np.zeros(3)})
    with pytest.raises(ValueError):  # views of one vector that do not cover it
        ppo.Adam({"w": np.zeros(3)[:2]})


def _adam_reference_step(state, params, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-block Adam loop the flat vector update replaced."""
    state["t"] += 1
    correct1 = 1.0 - beta1 ** state["t"]
    correct2 = 1.0 - beta2 ** state["t"]
    for k, p in params.items():
        g = grads[k]
        state["m"][k] = beta1 * state["m"][k] + (1 - beta1) * g
        state["v"][k] = beta2 * state["v"][k] + (1 - beta2) * g * g
        mhat = state["m"][k] / correct1
        vhat = state["v"][k] / correct2
        p -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(p.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flat_adam_step_matches_per_block_loop(dtype):
    cfg = pn.NetConfig(d_in=8, d_h=32, n_heads=2, n_layers=2, d_ff=64)
    params = pn.init_params(cfg, seed=66, dtype=dtype)
    ref = {k: v.copy() for k, v in params.items()}
    state = {"t": 0, "m": {k: np.zeros_like(v) for k, v in ref.items()},
             "v": {k: np.zeros_like(v) for k, v in ref.items()}}
    opt = ppo.Adam(params)
    assert pn.flat_buffer(params) is not None
    rng = np.random.default_rng(67)
    for step in range(5):
        grads = pn.flat_views(pn.canonical_blocks(cfg),
                              (rng.normal(size=pn.flat_buffer(params).size)
                               * 10.0 ** -step).astype(dtype))
        if step == 2:
            grads["critic.b3"][...] = 0.0
        lr = 1e-3 * (step + 1)
        if step == 3:  # grads that are not one flat vector are refused, state untouched
            with pytest.raises(ValueError):
                opt.step(params, {k: v.copy() for k, v in grads.items()}, lr)
            with pytest.raises(ValueError):
                opt.step(params, dict(reversed(grads.items())), lr)
        opt.step(params, grads, lr)
        _adam_reference_step(state, ref, grads, lr)
        for k in params:
            assert params[k].tobytes() == ref[k].tobytes(), k
            assert opt.m[k].tobytes() == state["m"][k].tobytes(), k
            assert opt.v[k].tobytes() == state["v"][k].tobytes(), k
    with pytest.raises(ValueError):
        opt.step({k: v.copy() for k, v in params.items()}, grads, 1e-3)


def test_grad_clip_scales_norm():
    grads = pn.flat_views([("a", (2,))], np.array([3.0, 4.0]))
    norm = ppo.clip_grads_(grads, 1.0)
    assert norm == pytest.approx(5.0)
    assert np.allclose(grads["a"], [0.6, 0.8])
    grads = pn.flat_views([("a", (2,))], np.array([0.3, 0.4]))
    ppo.clip_grads_(grads, 1.0)
    assert np.allclose(grads["a"], [0.3, 0.4])  # under the cap: untouched


def test_grad_norm_rejects_grads_that_are_not_one_vector():
    for grads in ({"a": np.array([3.0, 4.0])}, {"a": np.zeros(2), "b": np.zeros(3)}):
        with pytest.raises(ValueError):
            ppo.global_grad_norm(grads)
        with pytest.raises(ValueError):
            ppo.clip_grads_(grads, 1.0)


def _one_reduction_grad_norm(grads):
    """The global norm as one float64 sum over every block's squares, in block order."""
    flat = np.concatenate([g.ravel() for g in grads.values()]).astype(np.float64)
    return float(np.sqrt(np.sum(flat ** 2)))


@pytest.mark.parametrize("net_cfg", [_desk_net(), pn.NetConfig(d_in=26)], ids=["desk", "paper"])
def test_grad_norm_matches_one_reduction_formula_bitwise(net_cfg):
    blocks = pn.canonical_blocks(net_cfg)
    size = pn.flat_buffer(pn.zero_params(net_cfg)).size
    for seed in range(200):
        rng = np.random.default_rng(seed)
        flat = rng.standard_normal(size) * 10.0 ** rng.uniform(-8, 3, size)
        grads = pn.flat_views(blocks, flat.astype(np.float32))
        assert ppo.global_grad_norm(grads) == _one_reduction_grad_norm(grads), seed


def _random_minibatch(net_cfg, b, n, seed):
    """Arguments of ``ppo_loss_and_grads`` for ``b`` random states of ``n`` jobs."""
    rng = np.random.default_rng(seed)
    features = [rng.random((n, net_cfg.d_in)).astype(np.float32) for _ in range(b)]
    i = rng.integers(n, size=b)
    k = (i + 1 + rng.integers(n - 1, size=b)) % n
    return (features, rng.random(b), i * n + k, np.log(rng.random(b)),
            rng.standard_normal(b), rng.standard_normal(b))


def test_loss_entropy_is_prob_entropy_bitwise():
    # the loss takes one log of the probabilities for both the entropy and its
    # gradient; entries at zero (the diagonal, and float32 underflow with a wide
    # compatibility init) contribute exactly 0, as in prob_entropy
    for gain in (0.25, 8.0):
        net_cfg = pn.NetConfig(d_in=8, d_h=32, n_heads=2, n_layers=2, d_ff=64,
                               compat_init_gain=gain)
        params = pn.init_params(net_cfg, seed=5)
        minibatch = _random_minibatch(net_cfg, 40, 6, 6)
        _, _, metrics = ppo.ppo_loss_and_grads(params, net_cfg, *minibatch, ppo.PPOConfig(),
                                               50, compute_grads=False)
        prob = pn.forward(params, net_cfg, np.stack(minibatch[0]), minibatch[1]).prob_matrix
        assert (prob == 0).sum() >= (40 * 6 if gain < 1 else 40 * 6 + 1)
        want = np.sum(pn.prob_entropy(prob.astype(np.float64))) / 50
        assert metrics["entropy"] == float(want)


def test_minibatch_steps_keep_their_heap_resident():
    resource = pytest.importorskip("resource")
    if not ppo._keep_freed_heap():
        pytest.skip("no glibc mallopt")
    cfg = ppo.PPOConfig()
    runs = []
    for net_cfg, b, n, steps in ((_desk_net(), 100, 6, 20), (pn.NetConfig(d_in=26), 32, 20, 5)):
        params = pn.init_params(net_cfg, seed=1)
        runs.append((params, net_cfg, ppo.Adam(params), _random_minibatch(net_cfg, b, n, 2),
                     steps))

    def step(params, net_cfg, opt, minibatch):
        _, grads, _ = ppo.ppo_loss_and_grads(params, net_cfg, *minibatch, cfg,
                                             len(minibatch[0]))
        ppo.clip_grads_(grads, cfg.grad_clip_norm)
        opt.step(params, grads, 1e-5)

    for params, net_cfg, opt, minibatch, _ in runs:  # the heap grows to its peak once
        step(params, net_cfg, opt, minibatch)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for params, net_cfg, opt, minibatch, steps in runs:
        for _ in range(steps):
            step(params, net_cfg, opt, minibatch)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    # with the heap trimmed after every step: ~780 per desk and ~5,100 per paper step
    assert faults < 100


def test_fixed_batch_loss_decreases(rng, obj_cfg):
    net_cfg = tiny_net()
    params = pn.init_params(net_cfg, seed=71, dtype=np.float64)
    pcfg = ppo.PPOConfig(train_batch_size=40, minibatch_size=40, value_coeff=0.5,
                         total_env_steps=40, seed=71)
    worker = ppo.RolloutWorker(small_pool(), obj_cfg, ppo.EpisodeConfig(step_budget=5),
                               np.random.SeedSequence(71))
    batch, = ppo.RolloutWorker.collect([worker], params, net_cfg, 40)
    adv, targets = ppo.compute_gae(batch.rewards, batch.values, batch.dones,
                                   batch.bootstrap_value, 0.99, 0.99)
    adv = (adv - adv.mean()) / adv.std()
    opt = ppo.Adam(params)
    losses = []
    for _ in range(6):
        loss, grads, _ = ppo.ppo_loss_and_grads(
            params, net_cfg, batch.features, batch.generals, batch.action_flat,
            batch.log_probs, adv, targets, pcfg, denom=40)
        losses.append(loss)
        opt.step(params, grads, lr=1e-3)
    assert all(losses[i + 1] < losses[i] for i in range(5))


# ---------------------------------------------------------------------------
# rollout workers


def test_worker_collect_deterministic(obj_cfg):
    net_cfg = tiny_net()
    params = pn.init_params(net_cfg, seed=72)
    slices = []
    for _ in range(2):
        w = ppo.RolloutWorker(small_pool(), obj_cfg, ppo.EpisodeConfig(step_budget=5),
                              np.random.SeedSequence([9, 1]))
        slices += ppo.RolloutWorker.collect([w], params, net_cfg, 25)
    a, b = slices
    assert np.array_equal(a.action_flat, b.action_flat)
    assert np.array_equal(a.rewards, b.rewards)
    assert a.episode_returns == b.episode_returns


def test_worker_bootstrap_on_cut_episode(obj_cfg):
    net_cfg = tiny_net()
    params = pn.init_params(net_cfg, seed=73)
    w = ppo.RolloutWorker(small_pool(), obj_cfg, ppo.EpisodeConfig(step_budget=10),
                          np.random.SeedSequence(10))
    batch, = ppo.RolloutWorker.collect([w], params, net_cfg, 15)  # cuts mid-episode at t=5
    assert not batch.dones[-1]
    assert batch.bootstrap_value != 0.0
    # continuing the stream finishes the episode deterministically
    batch2, = ppo.RolloutWorker.collect([w], params, net_cfg, 5)
    assert batch2.dones[-1]


def _one_state_collect(w, params, net_cfg, n_steps):
    """The one-state rollout loop the lockstep collect replaced, kept as its
    reference: one forward, one draw and one env step per transition."""
    env, ep_cfg = w.env, w.env.ep_cfg
    feats, gens, acts, njobs, logps, rews, vals, dones = [], [], [], [], [], [], [], []
    episode_returns = []
    for _ in range(n_steps):
        if w.state is None or env.done:
            w.state = env.reset(w.rng)
            w.ep_rewards = []
        out = pn.forward(params, net_cfg, w.state.per_job, w.state.general)
        action, logp = pn.sample_action(out, w.rng)
        n = w.state.per_job.shape[0]
        feats.append(w.state.per_job)
        gens.append(w.state.general)
        acts.append(action[0] * n + action[1])
        njobs.append(n)
        logps.append(logp)
        vals.append(out.value)
        next_state, reward, done, _ = env.step(action)
        rews.append(reward)
        dones.append(done)
        w.ep_rewards.append(reward)
        w.state = next_state
        if done:
            gamma_pows = ep_cfg.gamma ** np.arange(len(w.ep_rewards))
            episode_returns.append(float(np.dot(gamma_pows, w.ep_rewards)))
    bootstrap = 0.0
    if not env.done:
        bootstrap = float(pn.forward(params, net_cfg, w.state.per_job, w.state.general).value)
    return ppo.TrajectoryBatch(
        features=feats, generals=np.array(gens, dtype=np.float64),
        action_flat=np.array(acts, dtype=np.int64), n_jobs=np.array(njobs, dtype=np.int64),
        log_probs=np.array(logps, dtype=np.float64), rewards=np.array(rews, dtype=np.float64),
        values=np.array(vals, dtype=np.float64), dones=np.array(dones, dtype=bool),
        bootstrap_value=bootstrap, episode_returns=episode_returns)


def _mixed_pool():
    # N=5 and N=4 instances with the same W, so one net reads both
    gen = GeneratorConfig(n_jobs=4, n_stations=2, due_slack_s=0.0, due_noise_s=400.0,
                          seed=61, count=3)
    return small_pool(count=3) + [generate_instance(gen, i) for i in range(3)]


@pytest.mark.parametrize("pool, net_cfg, ep_cfg, n_workers, quota", [
    # quota not a multiple of T: episodes carried in and cut (bootstrap)
    (_desk_pool(), _desk_net(), ppo.EpisodeConfig(step_budget=10), 1, 25),
    (_desk_pool(), _desk_net(), ppo.EpisodeConfig(step_budget=1), 2, 7),
    (_mixed_pool(), tiny_net(), ppo.EpisodeConfig(step_budget=4, gamma=0.9), 3, 13),
    (_desk_pool(), _desk_net(),
     ppo.EpisodeConfig(step_budget=10, reward_mode="best_improvement"), 2, 15),
    (_mixed_pool(), tiny_net(), ppo.EpisodeConfig(step_budget=6), 2, 4),
], ids=["desk-carry-cut", "T1-two-workers", "mixed-N-three-workers", "best-improvement",
        "quota-below-T"])
def test_lockstep_collect_equals_one_state_loop(obj_cfg, pool, net_cfg, ep_cfg,
                                                 n_workers, quota):
    params = pn.init_params(net_cfg, seed=74)
    seeds = [np.random.SeedSequence([11, 1000 + w]) for w in range(n_workers)]
    lock = [ppo.RolloutWorker(pool, obj_cfg, ep_cfg, s) for s in seeds]
    ref = [ppo.RolloutWorker(pool, obj_cfg, ep_cfg, s) for s in seeds]
    cut = False
    for _ in range(3):  # later collects start inside an episode
        got = ppo.RolloutWorker.collect(lock, params, net_cfg, quota)
        want = [_one_state_collect(w, params, net_cfg, quota) for w in ref]
        for a, b in zip(got, want):
            assert len(a) == len(b) == quota
            for fa, fb in zip(a.features, b.features):
                assert fa.dtype == fb.dtype and fa.tobytes() == fb.tobytes()
            for name in ("generals", "action_flat", "n_jobs", "log_probs", "rewards",
                         "values", "dones"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
            assert type(a.bootstrap_value) is float
            assert a.bootstrap_value == b.bootstrap_value
            assert a.episode_returns == b.episode_returns
            cut |= not b.dones[-1]
        for w, r in zip(lock, ref):
            # generator, env (episode log included), episode rewards
            assert json.dumps(w.get_state()) == json.dumps(r.get_state())
            assert w.state.per_job.tobytes() == r.state.per_job.tobytes()
            assert w.state.general == r.state.general
    assert cut == bool(quota % ep_cfg.step_budget)


def test_lockstep_collect_runs_one_forward_per_step():
    # the benchmark's tracer: a 1000-step collect makes at most T + 1
    # batched forwards (one per lane-step, one for the cut episode's value)
    # and steps its lanes as blocks, with no one-state env step
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, _ in spans.TRACED:  # the tracer patches loaded modules only
        importlib.import_module(f"swapsched.{module}")
    net_cfg = _desk_net()
    params = pn.init_params(net_cfg, seed=75)
    w = ppo.RolloutWorker(_desk_pool(), ObjectiveConfig(), ppo.EpisodeConfig(step_budget=10),
                          np.random.SeedSequence(76))
    for n_steps in (995, 1000):  # the second collect carries an episode in
        with spans.Tracer() as tracer:
            batch, = ppo.RolloutWorker.collect([w], params, net_cfg, n_steps)
        calls = {name: c for name, (c, _, _) in tracer.totals().items()}
        assert len(batch) == n_steps
        assert calls["ppo.RolloutWorker.collect"] == 1
        assert calls["policynet.forward.b1"] == calls["policynet.sample_action"] == 0
        assert 1 <= calls["policynet.forward.batched"] <= 10 + 1
        assert calls["ppo.SwapEnv.step"] == 0


# ---------------------------------------------------------------------------
# trainer


def test_train_single_update(tmp_path, obj_cfg):
    net_cfg = tiny_net()
    pcfg = ppo.PPOConfig(total_env_steps=60, train_batch_size=60, minibatch_size=20,
                         epochs_per_batch=2, seed=1)
    res = ppo.train(small_pool(), net_cfg, pcfg, ppo.EpisodeConfig(step_budget=5),
                    obj_cfg, tmp_path / "run")
    rows = [json.loads(l) for l in open(res.metrics_path)]
    assert len(rows) == 1  # exactly one update
    assert rows[0]["env_step"] == 60
    assert res.env_steps == 60
    assert (tmp_path / "run" / "experiment_config.json").exists()
    params, cfg2, header = pn.load_checkpoint(res.final_checkpoint)
    assert header["training_step"] == 60
    assert header["experiment_config"]["ppo"]["seed"] == 1


def test_train_logs_heap_setting_and_blas_threads(tmp_path, obj_cfg, caplog, monkeypatch):
    pcfg = ppo.PPOConfig(total_env_steps=20, train_batch_size=20, minibatch_size=20,
                         epochs_per_batch=1, seed=1)
    monkeypatch.setattr(ppo, "_blas_threads", lambda: 3)
    with caplog.at_level("INFO", logger="swapsched.ppo"):
        res = ppo.train(small_pool(), tiny_net(), pcfg, ppo.EpisodeConfig(step_budget=5),
                        obj_cfg, tmp_path / "run")
    heap_kept = ppo._keep_freed_heap()
    assert ("freed heap kept up to 64 MiB" if heap_kept else "freed heap trimmed") in caplog.text
    assert "OpenBLAS threads 3" in caplog.text
    for path in (res.metrics_path, tmp_path / "run" / "experiment_config.json"):
        text = Path(path).read_text()
        assert "heap" not in text and "thread" not in text

    caplog.clear()
    monkeypatch.setattr(ppo, "_blas_threads", lambda: None)
    with caplog.at_level("INFO", logger="swapsched.ppo"):
        ppo.train(small_pool(), tiny_net(), pcfg, ppo.EpisodeConfig(step_budget=5),
                  obj_cfg, tmp_path / "run2")
    assert "OpenBLAS" not in caplog.text


def test_blas_threads_reads_the_bundled_openblas():
    threads = ppo._blas_threads()
    assert threads is None or threads >= 1


def test_train_deterministic_metrics(tmp_path, obj_cfg):
    net_cfg = tiny_net()
    pcfg = ppo.PPOConfig(total_env_steps=120, train_batch_size=60, minibatch_size=30,
                         epochs_per_batch=2, seed=5)
    outs = []
    for tag in ("a", "b"):
        res = ppo.train(small_pool(), net_cfg, pcfg, ppo.EpisodeConfig(step_budget=5),
                        obj_cfg, tmp_path / tag)
        outs.append((open(res.metrics_path).read(),
                     open(res.final_checkpoint, "rb").read()))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]


def test_train_resume_reproduces_next_row(tmp_path, obj_cfg):
    net_cfg = tiny_net()
    ep_cfg = ppo.EpisodeConfig(step_budget=5)
    pool = small_pool()

    pcfg = ppo.PPOConfig(total_env_steps=120, train_batch_size=60, minibatch_size=30,
                         epochs_per_batch=2, checkpoint_every=60, seed=6)
    full = ppo.train(pool, net_cfg, pcfg, ep_cfg, obj_cfg, tmp_path / "full")
    full_rows = open(full.metrics_path).read().strip().split("\n")
    assert len(full_rows) == 2
    mid_ckpt = tmp_path / "full" / "ckpt_0000000060.ckpt"
    assert mid_ckpt.exists()

    resumed = ppo.train(pool, net_cfg, pcfg, ep_cfg, obj_cfg, tmp_path / "resumed",
                        resume_from=mid_ckpt)
    resumed_rows = open(resumed.metrics_path).read().strip().split("\n")
    assert len(resumed_rows) == 1
    assert resumed_rows[0] == full_rows[1]
    assert open(resumed.final_checkpoint, "rb").read() == open(full.final_checkpoint, "rb").read()


def test_train_resume_in_place_rewrites_later_rows(tmp_path, obj_cfg):
    pcfg = ppo.PPOConfig(total_env_steps=400, train_batch_size=100, minibatch_size=50,
                         epochs_per_batch=1, checkpoint_every=100, seed=8)
    args = (small_pool(), tiny_net(), pcfg, ppo.EpisodeConfig(step_budget=5), obj_cfg)
    run = ppo.train(*args, tmp_path / "run")
    uninterrupted = open(run.metrics_path).read()

    ppo.train(*args, tmp_path / "run", resume_from=tmp_path / "run" / "ckpt_0000000200.ckpt")
    resumed = open(run.metrics_path).read()
    assert [json.loads(l)["env_step"] for l in resumed.splitlines()] == [100, 200, 300, 400]
    assert resumed == uninterrupted


def test_failed_resume_point_write_leaves_previous_files(tmp_path, obj_cfg, monkeypatch):
    pcfg = ppo.PPOConfig(total_env_steps=200, train_batch_size=100, minibatch_size=50,
                         epochs_per_batch=1, checkpoint_every=100, seed=9)
    args = (small_pool(), tiny_net(), pcfg, ppo.EpisodeConfig(step_budget=5), obj_cfg)
    run = tmp_path / "run"
    ppo.train(*args, run)
    before = {p.name: p.read_bytes() for p in run.iterdir()}

    def torn_savez(fh, **arrays):
        fh.write(b"PK\x03\x04 half an archive")
        raise OSError("disk full")

    # the rewrite of ckpt_0000000200 fails halfway through its first file
    monkeypatch.setattr(np, "savez", torn_savez)
    with pytest.raises(OSError, match="disk full"):
        ppo.train(*args, run, resume_from=run / "ckpt_0000000100.ckpt")
    after = {p.name: p.read_bytes() for p in run.iterdir()}
    assert set(after) == set(before)  # no temporary file left behind
    for name, data in before.items():
        if name != "metrics.jsonl":
            assert after[name] == data, name

    # a first write that fails leaves no file under a checkpoint's name
    with pytest.raises(OSError, match="disk full"):
        ppo.train(*args, tmp_path / "fresh")
    assert not [p.name for p in (tmp_path / "fresh").iterdir() if p.name.startswith("ckpt_")]

    monkeypatch.undo()
    ppo.train(*args, run, resume_from=run / "ckpt_0000000100.ckpt")
    for name in ("ckpt_0000000200.ckpt", "ckpt_0000000200.state.npz", "metrics.jsonl"):
        assert (run / name).read_bytes() == before[name], name


TRAIN_GOLDEN = Path(__file__).parent / "data" / "train_golden_desk.json"


def desk_training_record(out) -> str:
    """``metrics.jsonl`` and final resume-point digests of a two-update desk run.

    ``TRAIN_GOLDEN`` holds the output of this function from the trainer whose
    backward sums each gradient over all rows in one BLAS call.
    """
    net = pn.NetConfig(d_in=8, d_h=32, n_heads=2, n_layers=2, d_ff=64)
    pcfg = ppo.PPOConfig(total_env_steps=400, train_batch_size=200, minibatch_size=50,
                         epochs_per_batch=4, lr_start=5e-4, lr_end=2e-5,
                         lr_warmup_env_steps=1000, value_coeff=0.25, grad_clip_norm=1.0,
                         entropy_coeff=0.1, entropy_warmup_env_steps=200, seed=3)
    res = ppo.train(_desk_pool(), net, pcfg, ppo.EpisodeConfig(step_budget=10, gamma=0.99),
                    ObjectiveConfig(), out)
    base = res.final_checkpoint[: -len(".ckpt")]
    record = {"metrics_jsonl": Path(res.metrics_path).read_text(),
              "sha256": {s: hashlib.sha256(Path(base + s).read_bytes()).hexdigest()
                         for s in (".ckpt", ".state.npz", ".state.json")}}
    return json.dumps(record, sort_keys=True, indent=1) + "\n"


def test_desk_training_matches_golden(tmp_path):
    # byte identity holds for a fixed BLAS thread count (see README)
    assert desk_training_record(tmp_path / "run") == TRAIN_GOLDEN.read_text()


TRAIN_PAPER_GOLDEN = Path(__file__).parent / "data" / "train_golden_paper.json"


def paper_training_record(out) -> str:
    """``metrics.jsonl`` and final resume-point digests of one paper-scale update.

    Eight generated N=20, W=12 instances, the paper's default net (d_h=128,
    d_ff=512), 256 env steps, minibatch 32, 2 epochs. The update kills the
    action head, so the record pins the redraw too. ``TRAIN_PAPER_GOLDEN``
    holds the output of this function from the trainer whose backward sums
    each gradient over all rows in one BLAS call.
    """
    pool = [generate_instance(GeneratorConfig(seed=3, count=8), i) for i in range(8)]
    pcfg = ppo.PPOConfig(total_env_steps=256, train_batch_size=256, minibatch_size=32,
                         epochs_per_batch=2, seed=0)
    res = ppo.train(pool, pn.NetConfig(d_in=26), pcfg, ppo.EpisodeConfig(step_budget=10),
                    ObjectiveConfig(), out)
    base = res.final_checkpoint[: -len(".ckpt")]
    record = {"metrics_jsonl": Path(res.metrics_path).read_text(),
              "sha256": {s: hashlib.sha256(Path(base + s).read_bytes()).hexdigest()
                         for s in (".ckpt", ".state.npz", ".state.json")}}
    return json.dumps(record, sort_keys=True, indent=1) + "\n"


def test_paper_training_matches_golden(tmp_path):
    assert paper_training_record(tmp_path / "run") == TRAIN_PAPER_GOLDEN.read_text()


def _set_blas_threads():
    """numpy's bundled scipy-openblas ``set_num_threads``, or None without it."""
    try:
        from numpy._core import _multiarray_umath
        set_threads = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_set_num_threads64_
    except (ImportError, AttributeError, OSError):  # numpy < 2 or another BLAS
        return None
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return set_threads


def test_goldens_hold_with_one_blas_thread(tmp_path):
    # the paper-scale bench and training goldens and the short desk training
    # golden give the same bytes with one OpenBLAS thread as with the default
    # count; longer desk runs do not (see README, "Training reproducibility")
    set_threads = _set_blas_threads()
    if set_threads is None:
        pytest.skip("numpy's bundled scipy-openblas is not loaded")
    before = ppo._blas_threads()
    set_threads(1)
    try:
        assert ppo._blas_threads() == 1
        assert paper_bench_record(tmp_path) == BENCH_GOLDEN.read_text()
        assert desk_training_record(tmp_path / "run") == TRAIN_GOLDEN.read_text()
        assert paper_training_record(tmp_path / "paper") == TRAIN_PAPER_GOLDEN.read_text()
    finally:
        set_threads(before)
    assert ppo._blas_threads() == before


BACKWARD_GOLDEN = Path(__file__).parent / "data" / "backward_golden_paper.json"


def paper_backward_digest(golden: dict) -> str:
    """sha256 of the flat gradient of one paper-scale backward (the paper's
    default net, d_h=128, d_ff=512) on seeded features and head gradients."""
    net = pn.NetConfig(d_in=golden["d_in"])
    params = pn.init_params(net, seed=golden["param_seed"])
    rng = np.random.default_rng(golden["data_seed"])
    b, n = golden["batch"], golden["n_jobs"]
    x = rng.standard_normal((b, n, net.d_in)).astype(np.float32)
    _, cache = pn.forward(params, net, x, rng.random(b), want_cache=True)
    d_logits = rng.standard_normal((b, n, n)).astype(np.float32)
    d_value = rng.standard_normal(b).astype(np.float32)
    grads = pn.backward(cache, d_logits, d_value, params, net)
    return hashlib.sha256(pn.flat_buffer(grads).tobytes()).hexdigest()


@pytest.mark.parametrize("threads", [1, 2])
def test_paper_backward_matches_golden(threads):
    # at these shapes the gradient bytes do not depend on the thread count;
    # at the desk shape (B=100, N=6) they do, so no desk digest is pinned
    set_threads = _set_blas_threads()
    if set_threads is None:
        pytest.skip("numpy's bundled scipy-openblas is not loaded")
    golden = json.loads(BACKWARD_GOLDEN.read_text())
    before = ppo._blas_threads()
    set_threads(threads)
    try:
        assert paper_backward_digest(golden) == golden["sha256"]
    finally:
        set_threads(before)


def test_float32_paper_backward_stays_close_to_float64():
    # the float64 finite-difference check runs at N=3; this bounds the float32
    # rounding of every gradient block at the paper's shapes, on the inputs of
    # the backward golden, against float64 arithmetic on the same values
    golden = json.loads(BACKWARD_GOLDEN.read_text())
    net = pn.NetConfig(d_in=golden["d_in"])
    p32 = pn.init_params(net, seed=golden["param_seed"])
    p64 = pn.flat_views(pn.canonical_blocks(net), pn.flat_buffer(p32).astype(np.float64))
    rng = np.random.default_rng(golden["data_seed"])
    b, n = golden["batch"], golden["n_jobs"]
    x = rng.standard_normal((b, n, net.d_in)).astype(np.float32)
    g = rng.random(b).astype(np.float32)
    d_logits = rng.standard_normal((b, n, n)).astype(np.float32)
    d_value = rng.standard_normal(b).astype(np.float32)

    def grads(params):
        dtype = params["input.w"].dtype
        _, cache = pn.forward(params, net, x.astype(dtype), g.astype(dtype), want_cache=True)
        return pn.backward(cache, d_logits, d_value, params, net)

    g32s, g64s = grads(p32), grads(p64)
    for name, g64 in g64s.items():
        scale = np.linalg.norm(g64)
        if name.endswith(".attn.bk"):  # exactly 0: a softmax row ignores a shift of its scores
            scale = np.linalg.norm(g64s[name.replace(".bk", ".bq")])
        assert np.linalg.norm(g32s[name] - g64) <= 1e-5 * scale, name


WORKERS_GOLDEN = Path(__file__).parent / "data" / "train_golden_desk_workers.json"


def desk_workers_record(out, resume_from=None) -> str:
    """``metrics.jsonl`` and final resume-point digests of a 4-worker desk run.

    Each worker's quota of 15 steps does not divide by the 10-step budget, so
    every collect carries an episode in or cuts one at the slice end, and the
    run writes a mid-run checkpoint at env step 60. ``WORKERS_GOLDEN`` holds
    the output of this function from the trainer whose backward sums each
    gradient over all rows in one BLAS call.
    """
    net = pn.NetConfig(d_in=8, d_h=32, n_heads=2, n_layers=2, d_ff=64)
    pcfg = ppo.PPOConfig(total_env_steps=120, train_batch_size=60, minibatch_size=20,
                         epochs_per_batch=2, lr_start=5e-4, lr_end=2e-5,
                         value_coeff=0.25, grad_clip_norm=1.0, entropy_coeff=0.1,
                         checkpoint_every=60, n_rollout_workers=4, seed=4)
    res = ppo.train(_desk_pool(), net, pcfg, ppo.EpisodeConfig(step_budget=10, gamma=0.99),
                    ObjectiveConfig(), out, resume_from=resume_from)
    base = res.final_checkpoint[: -len(".ckpt")]
    record = {"metrics_jsonl": Path(res.metrics_path).read_text(),
              "sha256": {s: hashlib.sha256(Path(base + s).read_bytes()).hexdigest()
                         for s in (".ckpt", ".state.npz", ".state.json")}}
    return json.dumps(record, sort_keys=True, indent=1) + "\n"


def test_desk_workers_training_matches_golden_and_resumes(tmp_path):
    run = tmp_path / "run"
    assert desk_workers_record(run) == WORKERS_GOLDEN.read_text()
    assert (run / "ckpt_0000000060.ckpt").exists()
    # resuming in place from the mid-run checkpoint rewrites the same bytes
    assert (desk_workers_record(run, resume_from=run / "ckpt_0000000060.ckpt")
            == WORKERS_GOLDEN.read_text())


def _run_files(run: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(run.iterdir())}


def test_train_resume_in_place_rewrites_identical_files(tmp_path, obj_cfg):
    # each resume point records the next checkpoint step of the run that goes on
    pcfg = ppo.PPOConfig(total_env_steps=300, train_batch_size=100, minibatch_size=50,
                         epochs_per_batch=1, checkpoint_every=100, seed=10)
    args = (small_pool(), tiny_net(), pcfg, ppo.EpisodeConfig(step_budget=5), obj_cfg)
    run = tmp_path / "run"
    ppo.train(*args, run)
    uninterrupted = _run_files(run)
    assert json.loads(uninterrupted["ckpt_0000000200.state.json"])["next_checkpoint_at"] == 300

    ppo.train(*args, run, resume_from=run / "ckpt_0000000100.ckpt")
    assert _run_files(run) == uninterrupted


def test_train_two_workers_deterministic_and_resumable(tmp_path, obj_cfg):
    pcfg = ppo.PPOConfig(total_env_steps=200, train_batch_size=100, minibatch_size=50,
                         epochs_per_batch=1, checkpoint_every=100, n_rollout_workers=2,
                         seed=7)
    args = (small_pool(), tiny_net(), pcfg, ppo.EpisodeConfig(step_budget=3), obj_cfg)
    ppo.train(*args, tmp_path / "a")
    first = _run_files(tmp_path / "a")
    assert len(json.loads(first["ckpt_0000000100.state.json"])["workers"]) == 2
    second = tmp_path / "b"
    ppo.train(*args, second)
    assert _run_files(second) == first  # metrics, checkpoints and sidecars

    ppo.train(*args, second, resume_from=second / "ckpt_0000000100.ckpt")
    assert _run_files(second) == first


def test_ppo_config_validation():
    with pytest.raises(ValueError):
        ppo.PPOConfig(clip_param=0.0)
    with pytest.raises(ValueError):
        ppo.PPOConfig(minibatch_size=2048)
    with pytest.raises(ValueError):
        ppo.PPOConfig(train_batch_size=10, n_rollout_workers=3)
    with pytest.raises(ValueError):
        ppo.EpisodeConfig(reward_mode="nope")
    for gamma in (True, "0.9", None):  # true used to train with gamma 1
        with pytest.raises(TypeError, match="gamma must be a real number"):
            ppo.EpisodeConfig(gamma=gamma)
    with pytest.raises(ValueError, match="gamma must be finite"):
        ppo.EpisodeConfig(gamma=float("nan"))
    assert ppo.PPOConfig(total_env_steps=100).effective_checkpoint_every() == 10
    assert ppo.PPOConfig(checkpoint_every=1).effective_checkpoint_every() == 1


@pytest.mark.parametrize("field,value", [
    ("checkpoint_every", -5), ("checkpoint_every", 0), ("n_rollout_workers", 0),
    ("n_rollout_workers", -2), ("epochs_per_batch", 0), ("minibatch_size", 0),
    ("train_batch_size", 0), ("total_env_steps", 0), ("total_env_steps", -50),
    ("lr_warmup_env_steps", -1), ("entropy_warmup_env_steps", -1)])
def test_ppo_config_rejects_counts_below_one(field, value):
    # -5 made train's checkpoint loop spin forever; the rest crashed mid-run
    # or fell back to the default; a total_env_steps below 1 wrote an
    # untrained checkpoint
    with pytest.raises(ValueError, match=field):
        ppo.PPOConfig(**{"total_env_steps": 100, "train_batch_size": 50,
                         "minibatch_size": 25, field: value})
