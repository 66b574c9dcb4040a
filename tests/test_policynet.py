import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from swapsched import policynet as pn


def tiny_cfg(**kw):
    base = dict(d_in=5, d_h=4, n_heads=1, n_layers=1, d_ff=8)
    base.update(kw)
    return pn.NetConfig(**base)


# ---------------------------------------------------------------------------
# positional encoding and embedding


def test_pe_position_zero():
    pe = pn.positional_encoding(3, 8, dtype=np.float64)
    assert np.all(pe[0, 0::2] == 0.0)  # sin(0)
    assert np.all(pe[0, 1::2] == 1.0)  # cos(0)


def test_pe_formula():
    d_h = 6
    pe = pn.positional_encoding(4, d_h, dtype=np.float64)
    for i in range(4):
        for m in range(d_h // 2):
            angle = i / 10000 ** (2 * m / d_h)
            assert pe[i, 2 * m] == pytest.approx(math.sin(angle), abs=1e-12)
            assert pe[i, 2 * m + 1] == pytest.approx(math.cos(angle), abs=1e-12)


def test_embed_zero_params_equals_pe():
    cfg = tiny_cfg()
    params = pn.zero_params(cfg, dtype=np.float64)
    x = np.random.default_rng(0).normal(size=(3, cfg.d_in))
    h0 = pn.embed_jobs(x[None], params, cfg)[0]
    assert np.allclose(h0, pn.positional_encoding(3, cfg.d_h, dtype=np.float64))


def test_embed_is_position_dependent():
    cfg = tiny_cfg()
    params = pn.init_params(cfg, seed=0, dtype=np.float64)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, cfg.d_in))
    h_a = pn.embed_jobs(x[None], params, cfg)[0]
    h_b = pn.embed_jobs(x[None, ::-1].copy(), params, cfg)[0]
    # same job rows at different positions embed differently
    assert not np.allclose(h_a[0], h_b[3])


# ---------------------------------------------------------------------------
# encoder layer


def _ref_encoder_single_head(h, p, prefix, d_h, d_ff):
    """Straight-line loop reference for one encoder layer, one head."""
    n = len(h)

    def linear(x, w, b):
        return [sum(x[d] * w[d][e] for d in range(len(x))) + b[e] for e in range(len(b))]

    def layer_norm(x, g, b):
        mu = sum(x) / len(x)
        var = sum((v - mu) ** 2 for v in x) / len(x)
        inv = 1.0 / math.sqrt(var + 1e-5)
        return [g[e] * (x[e] - mu) * inv + b[e] for e in range(len(x))]

    q = [linear(h[i], p[f"{prefix}.attn.wq"], p[f"{prefix}.attn.bq"]) for i in range(n)]
    k = [linear(h[i], p[f"{prefix}.attn.wk"], p[f"{prefix}.attn.bk"]) for i in range(n)]
    v = [linear(h[i], p[f"{prefix}.attn.wv"], p[f"{prefix}.attn.bv"]) for i in range(n)]
    scale = 1.0 / math.sqrt(d_h)
    out = []
    for i in range(n):
        scores = [sum(q[i][e] * k[j][e] for e in range(d_h)) * scale for j in range(n)]
        m = max(scores)
        ws = [math.exp(s - m) for s in scores]
        tot = sum(ws)
        attn = [w / tot for w in ws]
        ctx = [sum(attn[j] * v[j][e] for j in range(n)) for e in range(d_h)]
        mha = linear(ctx, p[f"{prefix}.attn.wo"], p[f"{prefix}.attn.bo"])
        h1 = layer_norm([h[i][e] + mha[e] for e in range(d_h)],
                        p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"])
        z = linear(h1, p[f"{prefix}.ff.w1"], p[f"{prefix}.ff.b1"])
        a = [max(0.0, x) for x in z]
        ff = linear(a, p[f"{prefix}.ff.w2"], p[f"{prefix}.ff.b2"])
        out.append(layer_norm([h1[e] + ff[e] for e in range(d_h)],
                              p[f"{prefix}.ln2.g"], p[f"{prefix}.ln2.b"]))
    return np.array(out)


def test_encoder_layer_matches_reference():
    cfg = tiny_cfg()
    params = pn.init_params(cfg, seed=5, dtype=np.float64)
    rng = np.random.default_rng(2)
    h = rng.normal(size=(3, cfg.d_h))
    got = pn.encoder_layer(h[None], params, cfg, "enc0")[0]
    plists = {k: v.tolist() for k, v in params.items()}
    want = _ref_encoder_single_head(h.tolist(), plists, "enc0", cfg.d_h, cfg.d_ff)
    assert np.allclose(got, want, atol=1e-10)


def test_encoder_attention_rows_sum_to_one():
    cfg = tiny_cfg(d_h=8, n_heads=2)
    params = pn.init_params(cfg, seed=3, dtype=np.float64)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, cfg.d_in))
    _, cache = pn.forward(params, cfg, x, 0.3, want_cache=True)
    attn = cache["layers"][0]["attn"]
    assert np.all(np.abs(attn.sum(axis=-1) - 1.0) <= 1e-6)


def test_encoder_single_position():
    cfg = tiny_cfg()
    params = pn.init_params(cfg, seed=1, dtype=np.float64)
    h = np.random.default_rng(5).normal(size=(1, cfg.d_h))
    cache = {}
    out = pn.encoder_layer(h[None], params, cfg, "enc0", cache)
    assert out.shape == (1, 1, cfg.d_h)
    assert np.all(np.isfinite(out))
    # softmax over a single position puts weight 1 on it
    assert np.all(cache["attn"] == 1.0)


def test_encoder_faults_on_nonfinite():
    cfg = tiny_cfg()
    params = pn.init_params(cfg, seed=1, dtype=np.float64)
    h = np.full((2, cfg.d_h), np.nan)
    with pytest.raises(FloatingPointError, match="enc0"):
        pn.encoder_layer(h[None], params, cfg, "enc0")


# ---------------------------------------------------------------------------
# pooling


def test_pool_single_row_combines_both_maps():
    cfg = tiny_cfg()
    params = pn.init_params(cfg, seed=2, dtype=np.float64)
    h = np.random.default_rng(6).normal(size=(1, cfg.d_h))
    got = pn.pool_and_integrate(h[None], params)[0]
    want = (h @ params["pool.w_self"] + params["pool.b_self"]
            + h @ params["pool.w_max"] + params["pool.b_max"])
    assert np.allclose(got, want)


def test_pool_identity_passthrough():
    cfg = tiny_cfg()
    params = pn.zero_params(cfg, dtype=np.float64)
    params["pool.w_self"] = np.eye(cfg.d_h)
    h = np.random.default_rng(7).normal(size=(4, cfg.d_h))
    assert np.allclose(pn.pool_and_integrate(h[None], params)[0], h)


def test_pool_max_of_duplicated_rows():
    cfg = tiny_cfg()
    params = pn.init_params(cfg, seed=3, dtype=np.float64)
    row = np.random.default_rng(8).normal(size=cfg.d_h)
    h = np.tile(row, (3, 1))
    got = pn.pool_and_integrate(h[None], params)[0]
    want_row = (row @ params["pool.w_self"] + params["pool.b_self"]
                + row @ params["pool.w_max"] + params["pool.b_max"])
    assert np.allclose(got, np.tile(want_row, (3, 1)))


# ---------------------------------------------------------------------------
# compatibility head


def test_compat_uniform_when_hc_zero():
    cfg = tiny_cfg()
    params = pn.init_params(cfg, seed=4, dtype=np.float64)
    prob, logits = pn.compatibility(np.zeros((1, 4, cfg.d_h)), params)
    prob, logits = prob[0], logits[0]
    off = ~np.eye(4, dtype=bool)
    assert np.allclose(prob[off], 1.0 / 12)
    assert np.all(prob[~off] == 0.0)
    assert np.all(np.isneginf(logits[~off]))


def test_compat_two_jobs_half_half():
    cfg = tiny_cfg()
    params = pn.init_params(cfg, seed=4, dtype=np.float64)
    prob, _ = pn.compatibility(np.zeros((1, 2, cfg.d_h)), params)
    assert prob[0, 0, 1] == pytest.approx(0.5)
    assert prob[0, 1, 0] == pytest.approx(0.5)


def test_compat_distribution_contract(rng):
    cfg = tiny_cfg(d_h=8, n_heads=2)
    for _ in range(20):
        params = pn.init_params(cfg, seed=int(rng.integers(1 << 30)), dtype=np.float64)
        hc = rng.normal(scale=3.0, size=(6, cfg.d_h))
        prob = pn.compatibility(hc[None], params)[0][0]
        assert np.all(prob >= 0)
        assert np.all(np.diag(prob) == 0.0)
        assert abs(prob.sum() - 1.0) <= 1e-6


def test_compat_matches_reference():
    cfg = tiny_cfg()
    params = pn.init_params(cfg, seed=9, dtype=np.float64)
    rng = np.random.default_rng(10)
    hc = rng.normal(size=(3, cfg.d_h))
    prob = pn.compatibility(hc[None], params)[0][0]
    # straight-line reference
    n, d = hc.shape
    q = [[sum(hc[i][a] * params["compat.wq"][a][e] for a in range(d)) for e in range(d)]
         for i in range(n)]
    k = [[sum(hc[i][a] * params["compat.wk"][a][e] for a in range(d)) for e in range(d)]
         for i in range(n)]
    y = [[sum(k[i][e] * q[j][e] for e in range(d)) for j in range(n)] for i in range(n)]
    z = [[max(0.0, y[i][j]) if i != j else -math.inf for j in range(n)] for i in range(n)]
    flat = [z[i][j] for i in range(n) for j in range(n)]
    m = max(flat)
    exps = [math.exp(v - m) if v != -math.inf else 0.0 for v in flat]
    tot = sum(exps)
    want = np.array([e / tot for e in exps]).reshape(n, n)
    assert np.allclose(prob, want, atol=1e-12)


def test_compat_rejects_single_job():
    cfg = tiny_cfg()
    params = pn.init_params(cfg, seed=4, dtype=np.float64)
    with pytest.raises(ValueError):
        pn.compatibility(np.zeros((1, 1, cfg.d_h)), params)


# ---------------------------------------------------------------------------
# critic


def test_critic_zero_params_zero_value():
    cfg = tiny_cfg()
    params = pn.zero_params(cfg, dtype=np.float64)
    hc = np.random.default_rng(1).normal(size=(1, 3, cfg.d_h))
    assert pn.critic_value(hc, np.array([0.7]), params)[0] == 0.0


def test_critic_matches_reference():
    cfg = tiny_cfg()
    params = pn.init_params(cfg, seed=11, dtype=np.float64)
    rng = np.random.default_rng(12)
    hc = rng.normal(size=(4, cfg.d_h))
    general = 0.4
    got = pn.critic_value(hc[None], np.array([general]), params)[0]
    hmean = [sum(hc[i][e] for i in range(4)) / 4 for e in range(cfg.d_h)]
    cin = hmean + [general]
    z1 = [sum(cin[a] * params["critic.w1"][a][e] for a in range(len(cin)))
          + params["critic.b1"][e] for e in range(cfg.d_h)]
    a1 = [max(0.0, v) for v in z1]
    z2 = [sum(a1[a] * params["critic.w2"][a][e] for a in range(cfg.d_h))
          + params["critic.b2"][e] for e in range(cfg.d_h)]
    a2 = [max(0.0, v) for v in z2]
    want = sum(a2[a] * params["critic.w3"][a][0] for a in range(cfg.d_h)) + params["critic.b3"][0]
    assert got == pytest.approx(want, rel=1e-12)


def test_critic_mean_of_duplicated_rows():
    cfg = tiny_cfg()
    params = pn.init_params(cfg, seed=13, dtype=np.float64)
    row = np.random.default_rng(14).normal(size=cfg.d_h)
    v_dup = pn.critic_value(np.tile(row, (1, 5, 1)), np.array([0.2]), params)[0]
    v_single = pn.critic_value(row[None, None, :], np.array([0.2]), params)[0]
    assert v_dup == pytest.approx(v_single, rel=1e-12)


# ---------------------------------------------------------------------------
# full forward


def test_forward_zero_params_two_jobs():
    cfg = tiny_cfg()
    params = pn.zero_params(cfg, dtype=np.float64)
    out = pn.forward(params, cfg, np.zeros((2, cfg.d_in)), 0.0)
    assert np.allclose(out.prob_matrix, [[0.0, 0.5], [0.5, 0.0]])
    assert out.value == 0.0


def test_forward_repeatable_bit_identical(rng):
    cfg = tiny_cfg(d_h=8, n_heads=2, n_layers=2)
    params = pn.init_params(cfg, seed=21)
    x = rng.normal(size=(6, cfg.d_in)).astype(np.float32)
    a = pn.forward(params, cfg, x, 0.5)
    b = pn.forward(params, cfg, x, 0.5)
    assert a.prob_matrix.tobytes() == b.prob_matrix.tobytes()
    assert a.value == b.value


def test_forward_length_flexibility():
    cfg = pn.NetConfig(d_in=26)
    params = pn.init_params(cfg, seed=0)
    rng = np.random.default_rng(3)
    for n in (2, 5, 20, 50):
        out = pn.forward(params, cfg, rng.normal(size=(n, 26)).astype(np.float32), 0.1)
        assert out.prob_matrix.shape == (n, n)
        assert abs(out.prob_matrix.sum() - 1.0) <= 1e-6


def test_parameter_count_reference_config():
    cfg = pn.NetConfig(d_in=26, d_h=128, n_heads=2, n_layers=2, d_ff=512)
    n1 = pn.flat_buffer(pn.init_params(cfg, seed=0)).size
    n2 = pn.flat_buffer(pn.init_params(cfg, seed=99)).size
    assert n1 == n2  # stable across runs
    assert 450_000 <= n1 <= 510_000


def test_shared_encoder_separate_heads(rng):
    cfg = tiny_cfg(d_h=8, n_heads=2)
    params = pn.init_params(cfg, seed=31, dtype=np.float64)
    x = rng.normal(size=(4, cfg.d_in))
    base = pn.forward(params, cfg, x, 0.5)

    p_enc = {k: v.copy() for k, v in params.items()}
    p_enc["enc0.attn.wq"] = p_enc["enc0.attn.wq"] + 0.05
    out = pn.forward(p_enc, cfg, x, 0.5)
    assert not np.allclose(out.prob_matrix, base.prob_matrix)
    assert out.value != base.value

    p_critic = {k: v.copy() for k, v in params.items()}
    p_critic["critic.w2"] = p_critic["critic.w2"] + 0.05
    out = pn.forward(p_critic, cfg, x, 0.5)
    assert np.allclose(out.prob_matrix, base.prob_matrix)
    assert out.value != base.value

    p_compat = {k: v.copy() for k, v in params.items()}
    p_compat["compat.wq"] = p_compat["compat.wq"] + 0.05
    out = pn.forward(p_compat, cfg, x, 0.5)
    assert not np.allclose(out.prob_matrix, base.prob_matrix)
    assert out.value == base.value


# ---------------------------------------------------------------------------
# sampling


def test_sample_two_action_frequencies():
    cfg = tiny_cfg()
    params = pn.zero_params(cfg, dtype=np.float64)
    out = pn.forward(params, cfg, np.zeros((2, cfg.d_in)), 0.0)
    rng = np.random.default_rng(0)
    trials = 100_000
    count_01 = sum(pn.sample_action(out, rng)[0] == (0, 1) for _ in range(trials))
    sigma = math.sqrt(0.25 / trials)
    assert abs(count_01 / trials - 0.5) <= 3 * sigma


def test_sample_greedy_picks_argmax():
    p = np.array([[0.0, 0.9], [0.1, 0.0]])
    out = pn.NetOutput(prob_matrix=p, value=0.0, logits=np.log(np.maximum(p, 1e-300)))
    action, logp = pn.sample_action(out, np.random.default_rng(0), greedy=True)
    assert action == (0, 1)
    assert logp == pytest.approx(math.log(0.9))


def test_sample_log_prob_matches_entry(rng):
    cfg = tiny_cfg(d_h=8, n_heads=2)
    params = pn.init_params(cfg, seed=5)
    out = pn.forward(params, cfg, rng.normal(size=(5, cfg.d_in)).astype(np.float32), 0.2)
    action, logp = pn.sample_action(out, np.random.default_rng(1))
    assert type(action) is tuple and [type(j) for j in action] == [int, int]
    assert logp == pytest.approx(math.log(out.prob_matrix[action]), abs=1e-6)


def test_sample_degenerate_faults():
    out = pn.NetOutput(prob_matrix=np.zeros((3, 3)), value=0.0, logits=np.zeros((3, 3)))
    with pytest.raises(FloatingPointError):
        pn.sample_action(out, np.random.default_rng(0))


def test_entropy_uniform():
    p = np.full((3, 3), 1 / 6.0)
    np.fill_diagonal(p, 0.0)
    assert pn.prob_entropy(p) == pytest.approx(math.log(6))


# ---------------------------------------------------------------------------
# backward


def test_backward_zero_head_gradients_give_zero():
    cfg = tiny_cfg()
    params = pn.init_params(cfg, seed=41, dtype=np.float64)
    x = np.random.default_rng(42).normal(size=(2, 3, cfg.d_in))
    _, cache = pn.forward(params, cfg, x, np.array([0.1, 0.9]), want_cache=True)
    grads = pn.backward(cache, np.zeros((2, 3, 3)), np.zeros(2), params, cfg)
    assert all(np.all(g == 0) for g in grads.values())


def test_backward_value_bias_closed_form():
    # d v / d critic.b3 = 1 per sample (output layer bias), so with dv = 1
    # the gradient is exactly the batch size
    cfg = tiny_cfg()
    params = pn.init_params(cfg, seed=43, dtype=np.float64)
    x = np.random.default_rng(44).normal(size=(3, 4, cfg.d_in))
    _, cache = pn.forward(params, cfg, x, np.array([0.1, 0.5, 0.9]), want_cache=True)
    grads = pn.backward(cache, np.zeros((3, 4, 4)), np.ones(3), params, cfg)
    assert grads["critic.b3"][0] == pytest.approx(3.0)


def _cache_arrays(node, key="cache"):
    """``(path, bytes)`` of every array in a forward cache, nested or not."""
    if isinstance(node, dict):
        return [item for k, v in node.items() for item in _cache_arrays(v, f"{key}.{k}")]
    if isinstance(node, (list, tuple)):
        return [item for i, v in enumerate(node) for item in _cache_arrays(v, f"{key}[{i}]")]
    return [(key, np.asarray(node).tobytes())]


def test_backward_leaves_the_forward_cache_alone():
    cfg = tiny_cfg(d_in=8, d_h=32, n_heads=2, n_layers=2, d_ff=64, compat_init_gain=1.0)
    params = pn.init_params(cfg, seed=47)
    rng = np.random.default_rng(48)
    x = rng.random((4, 6, cfg.d_in)).astype(np.float32)
    out, cache = pn.forward(params, cfg, x, rng.random(4), want_cache=True)
    before = _cache_arrays(cache)
    pn.backward(cache, rng.normal(size=out.logits.shape), rng.normal(size=4), params, cfg)
    assert _cache_arrays(cache) == before


def test_backward_matches_finite_differences():
    cfg = tiny_cfg(d_h=8, n_heads=2, n_layers=2, d_ff=16)
    params = pn.init_params(cfg, seed=45, dtype=np.float64)
    rng = np.random.default_rng(46)
    x = rng.normal(size=(2, 3, cfg.d_in))
    g = rng.random(2)
    wz = rng.normal(size=(2, 3, 3))
    wz[:, np.arange(3), np.arange(3)] = 0.0
    wv = rng.normal(size=2)

    def loss_fn(p):
        o = pn.forward(p, cfg, x, g)
        z = np.where(np.eye(3, dtype=bool), 0.0, o.logits)
        return float((wz * z).sum() + (wv * o.value).sum())

    _, cache = pn.forward(params, cfg, x, g, want_cache=True)
    grads = pn.backward(cache, wz, wv, params, cfg)
    vec = pn.flat_buffer(params)
    gvec = pn.flat_buffer(grads)
    blocks = pn.canonical_blocks(cfg)
    eps = 1e-6
    idx = rng.choice(vec.size, size=150, replace=False)
    for i in idx:
        vp, vm = vec.copy(), vec.copy()
        vp[i] += eps
        vm[i] -= eps
        fd = (loss_fn(pn.flat_views(blocks, vp)) - loss_fn(pn.flat_views(blocks, vm))) / (2 * eps)
        assert abs(fd - gvec[i]) <= 1e-6 * max(1.0, abs(fd))


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_bit_identical(tmp_path, rng):
    cfg = tiny_cfg(d_h=8, n_heads=2)
    params = pn.init_params(cfg, seed=51)
    path = tmp_path / "net.ckpt"
    pn.save_checkpoint(path, params, cfg, training_step=1234,
                       rng_state_digest="abc", experiment_config={"note": 1})
    loaded, cfg2, header = pn.load_checkpoint(path)
    assert cfg2 == cfg
    assert header["training_step"] == 1234
    assert header["rng_state_digest"] == "abc"
    assert header["experiment_config"]["note"] == 1
    for k in params:
        assert params[k].tobytes() == loaded[k].tobytes()
    x = rng.normal(size=(4, cfg.d_in)).astype(np.float32)
    a = pn.forward(params, cfg, x, 0.3)
    b = pn.forward(loaded, cfg, x, 0.3)
    assert a.prob_matrix.tobytes() == b.prob_matrix.tobytes()
    assert a.value == b.value


def test_checkpoint_save_load_save_stable(tmp_path):
    cfg = tiny_cfg()
    params = pn.init_params(cfg, seed=52)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    pn.save_checkpoint(p1, params, cfg, training_step=7)
    loaded, _, _ = pn.load_checkpoint(p1)
    pn.save_checkpoint(p2, loaded, cfg, training_step=7)
    assert p1.read_bytes() == p2.read_bytes()
    assert pn.checkpoint_digest(p1) == pn.checkpoint_digest(p2)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        pn.load_checkpoint(path)


def test_net_config_validation():
    with pytest.raises(ValueError):
        pn.NetConfig(d_in=5, d_h=6, n_heads=4)
    with pytest.raises(ValueError):
        pn.NetConfig(d_in=0)
    for d_gen in (0, 2):
        with pytest.raises(ValueError, match="d_gen"):
            pn.NetConfig(d_in=8, d_gen=d_gen)


# ---------------------------------------------------------------------------
# batch invariance


NET_SHAPES = pytest.mark.parametrize("net", [
    dict(d_in=8, d_h=32, n_heads=2, n_layers=2, d_ff=64),  # desk scale
    dict(d_in=26),  # paper scale: d_h=128, d_ff=512
], ids=["desk", "paper"])


@NET_SHAPES
def test_forward_rows_match_single_state(net):
    # each row of a batched forward is bitwise the single-state forward; this
    # rests on the BLAS computing a GEMM row the same whatever the row count
    cfg = pn.NetConfig(**net)
    params = pn.init_params(dataclasses.replace(cfg, compat_init_gain=1.0), seed=61)
    rng = np.random.default_rng(62)
    n_jobs = 20 if cfg.d_h == 128 else 6
    x = rng.random((100, n_jobs, cfg.d_in)).astype(np.float32)
    g = rng.random(100)
    alone = [pn.forward(params, cfg, x[b], g[b]) for b in range(100)]
    for batch in (2, 7, 30, 100):
        out = pn.forward(params, cfg, x[:batch], g[:batch])
        for b in range(batch):
            assert out.prob_matrix[b].tobytes() == alone[b].prob_matrix.tobytes()
            assert out.logits[b].tobytes() == alone[b].logits.tobytes()
            assert out.value[b] == alone[b].value


def _assert_row_is_alone(batched, alone, b):
    """Row b of ``batched`` (an array, tuple or cache dict) is bitwise ``alone``'s one row."""
    if isinstance(batched, dict):
        assert batched.keys() == alone.keys()
        for key in batched:
            _assert_row_is_alone(batched[key], alone[key], b)
    elif isinstance(batched, tuple):
        for part, part_alone in zip(batched, alone, strict=True):
            _assert_row_is_alone(part, part_alone, b)
    elif np.ndim(batched) == 0:  # the attention scale
        assert batched == alone
    else:
        assert batched[b].tobytes() == alone[0].tobytes()


@NET_SHAPES
def test_block_rows_match_single_state(net):
    # each public block, backward cache included, is batch-invariant on its own
    cfg = pn.NetConfig(**net)
    params = pn.init_params(dataclasses.replace(cfg, compat_init_gain=1.0), seed=65)
    rng = np.random.default_rng(66)
    n_jobs = 20 if cfg.d_h == 128 else 6
    x = rng.random((7, n_jobs, cfg.d_in)).astype(np.float32)
    g = rng.random(7).astype(np.float32)
    h0 = pn.embed_jobs(x, params, cfg)
    h1 = pn.encoder_layer(h0, params, cfg, "enc0")
    hc = pn.pool_and_integrate(h1, params)
    blocks = {  # rows of the block's input -> output, filling the cache
        "embed_jobs": lambda s, cache: pn.embed_jobs(x[s], params, cfg),
        "encoder_layer": lambda s, cache: pn.encoder_layer(h0[s], params, cfg, "enc0", cache),
        "pool_and_integrate": lambda s, cache: pn.pool_and_integrate(h1[s], params, cache),
        "compatibility": lambda s, cache: pn.compatibility(hc[s], params, cache),
        "critic_value": lambda s, cache: pn.critic_value(hc[s], g[s], params, cache),
    }
    for block in blocks.values():
        cache = {}
        out = block(slice(None), cache)
        for b in range(len(x)):
            cache_alone = {}
            _assert_row_is_alone(out, block(slice(b, b + 1), cache_alone), b)
            _assert_row_is_alone(cache, cache_alone, b)


def test_forward_runs_the_public_blocks():
    # the benchmark's tracer patches the public block names; forward must
    # call them so their spans see the network's time
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, _ in spans.TRACED:  # the tracer patches loaded modules only
        importlib.import_module(f"swapsched.{module}")
    cfg = tiny_cfg(d_in=6, n_layers=3)
    params = pn.init_params(cfg, seed=67)
    x = np.random.default_rng(68).random((3, 5, cfg.d_in))
    with spans.Tracer() as tracer:
        pn.forward(params, cfg, x[0], 0.5)
        pn.forward(params, cfg, x, np.full(3, 0.5))
    calls = {name: c for name, (c, _, _) in tracer.totals().items()}
    assert calls["policynet.forward.b1"] == calls["policynet.forward.batched"] == 1
    for name in ("embed_jobs", "pool_and_integrate", "compatibility", "critic_value"):
        assert calls[f"policynet.{name}"] == 2, name
    assert calls["policynet.encoder_layer"] == 2 * cfg.n_layers


def test_sample_actions_rows_match_sample_action():
    # the lanes draw each state's uniform from its own generator ahead and
    # pick for the whole block; each row is the one-state sampler's draw
    rng = np.random.default_rng(63)
    prob = rng.random((9, 5, 5)) ** 4
    prob[:, np.arange(5), np.arange(5)] = 0.0
    prob /= prob.sum(axis=(1, 2), keepdims=True)
    u = np.array([np.random.default_rng(s).random() for s in range(9)])
    for greedy in (False, True):
        i, k, logp = pn.pick_actions(prob, None if greedy else u)
        for b in range(9):
            out = pn.NetOutput(prob_matrix=prob[b], value=0.0, logits=prob[b])
            gen = np.random.default_rng(b)
            action, lp = pn.sample_action(out, gen, greedy=greedy)
            assert action == (i[b], k[b])
            assert lp == logp[b]
            # one random() per sampled step, none when greedy
            after = np.random.default_rng(b)
            if not greedy:
                after.random()
            assert gen.bit_generator.state == after.bit_generator.state


def _sample_actions(prob, rngs, greedy=False):
    # one state at a time: draw u from the state's generator, then take the
    # first pair whose cumulative mass exceeds u * total, stepping back over
    # zero-mass pairs
    picks = []
    for p, gen in zip(prob, rngs):
        flat = p.reshape(-1)
        if greedy:
            idx = int(flat.argmax())
        else:
            c = np.cumsum(flat)
            idx = min(int(np.searchsorted(c, gen.random() * c[-1], "right")), flat.size - 1)
            while flat[idx] == 0.0:
                idx -= 1
        picks.append((idx // p.shape[1], idx % p.shape[1], np.log(flat[idx])))
    i, k, logp = zip(*picks)
    return np.array(i), np.array(k), np.array(logp)


def test_pick_actions_with_drawn_uniforms_is_sample_actions():
    # the rollout lanes draw their uniforms ahead and pick with them
    rng = np.random.default_rng(64)
    prob = rng.random((9, 5, 5)) ** 4
    prob[:, np.arange(5), np.arange(5)] = 0.0
    prob[2, 1:] = 0.0  # a row with most of its pairs at zero mass
    prob /= prob.sum(axis=(1, 2), keepdims=True)
    u = np.array([np.random.default_rng(s).random() for s in range(9)])
    picked = pn.pick_actions(prob, u)
    drawn = _sample_actions(prob, [np.random.default_rng(s) for s in range(9)])
    for a, b in zip(picked, drawn):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(pn.pick_actions(prob, None), _sample_actions(prob, [None] * 9, greedy=True)):
        assert a.tobytes() == b.tobytes()
    with pytest.raises(ValueError):
        pn.pick_actions(prob, u[:3])
    with pytest.raises(ValueError):
        pn.pick_actions(prob, 0.5)
    dead = prob.copy()
    dead[4] = 0.0
    with pytest.raises(FloatingPointError):
        pn.pick_actions(dead, u)


# ---------------------------------------------------------------------------
# per-call waste: cached encodings, layer-norm reductions, pool argmax


def test_cached_positional_encoding_is_read_only_and_fresh():
    for n, d_h, dtype in ((6, 32, np.float32), (20, 128, np.float32), (5, 4, np.float64)):
        cached = pn._cached_positional_encoding(n, d_h, np.dtype(dtype))
        assert not cached.flags.writeable
        assert cached.dtype == dtype
        assert cached.tobytes() == pn.positional_encoding(n, d_h, dtype).tobytes()
        assert pn._cached_positional_encoding(n, d_h, np.dtype(dtype)) is cached
        with pytest.raises(ValueError):
            cached[0, 0] = 1.0


@pytest.mark.parametrize("shape", [(1, 6, 32), (100, 6, 32), (1, 20, 128),
                                   (30, 20, 128), (100, 6, 64)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_row_mean_matches_numpy_mean_bitwise(shape, dtype):
    x = np.random.default_rng(64).normal(size=shape).astype(dtype) * 3.0 + 0.5
    for a in (x, x * x):
        got = pn._row_mean(a)
        assert got.dtype == dtype
        assert got.tobytes() == a.mean(axis=-1, keepdims=True).tobytes()


def test_pool_argmax_routes_first_maximum():
    h = np.zeros((2, 4, 3), dtype=np.float32)
    h[0, 2, 0] = h[0, 3, 0] = 1.0  # tie: the first position wins
    h[1, :, 1] = [0.0, 5.0, 5.0, 1.0]
    cache = {}
    pn.pool_and_integrate(h, pn.init_params(tiny_cfg(d_h=3, n_heads=1)), cache)
    assert cache["argmax_idx"].tolist() == h.argmax(axis=1).tolist()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_row_max_matches_numpy_max(dtype):
    # a max is exact in any order; only the sign of a +-0.0 maximum may differ,
    # and the softmax built on it comes out bitwise the same either way
    rng = np.random.default_rng(67)
    values = np.array([-0.0, 0.0, -1.5, 2.0, 0.25, -3.0], dtype=dtype)
    for n in range(2, 21):
        for b in (1, 2, 7, 30, 100):
            z = rng.choice(values, size=(b, 2, n, n))  # ties and +-0.0 throughout
            z[:, :, -1] = z[:, :, 0]  # repeated rows
            z[0, 0] = -0.0
            z[-1, -1, 0] = rng.standard_normal(n)
            want = z.max(axis=-1, keepdims=True)
            got = pn._row_max(z)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert got[want != 0].tobytes() == want[want != 0].tobytes()
            soft = pn._softmax_lastaxis_(z.copy(), got)
            assert soft.tobytes() == pn._softmax_lastaxis_(z.copy(), want).tobytes()


@pytest.mark.parametrize("b, n, d", [(1, 2, 3), (7, 6, 32), (100, 6, 32), (30, 20, 128)])
def test_pool_argmax_matches_argmax_of_transposed_copy(b, n, d):
    # the cached route is the first position holding the max, as argmax picks it
    rng = np.random.default_rng(68)
    h = rng.integers(-2, 3, size=(b, n, d)).astype(np.float32)  # many ties
    h[0, :, 0] = [-0.0 if i % 2 else 0.0 for i in range(n)]
    cache = {}
    pn.pool_and_integrate(h, pn.init_params(tiny_cfg(d_h=d, n_heads=1)), cache)
    want = np.ascontiguousarray(h.transpose(0, 2, 1)).argmax(axis=-1)
    assert cache["argmax_idx"].tolist() == want.tolist()


# ---------------------------------------------------------------------------
# flat parameter and gradient vectors


def test_param_dict_views_share_one_flat_vector(tmp_path):
    cfg = tiny_cfg(d_h=8, n_heads=2)
    path = tmp_path / "net.ckpt"
    pn.save_checkpoint(path, pn.init_params(cfg, seed=53), cfg)
    blocks = pn.canonical_blocks(cfg)
    size = sum(math.prod(shape) for _, shape in blocks)
    for params in (pn.init_params(cfg, seed=53), pn.zero_params(cfg),
                   pn.load_checkpoint(path)[0],
                   pn.flat_views(blocks, np.arange(size, dtype=np.float32))):
        flat = pn.flat_buffer(params)
        assert flat is not None and flat.size == size
        assert list(params) == [name for name, _ in blocks]
        assert flat.tobytes() == np.concatenate([params[name].ravel()
                                                 for name, _ in blocks]).tobytes()
        params["compat.wk"][1, 2] = 7.5  # a write through a view lands in the vector
        names = list(params)
        offset = sum(params[name].size for name in names[:names.index("compat.wk")])
        assert flat[offset + 1 * cfg.d_h + 2] == 7.5
        flat[0] = -3.0  # and the other way round
        assert params["input.w"][0, 0] == -3.0
    assert pn.flat_buffer({"a": np.zeros(3), "b": np.zeros(2)}) is None
    params = pn.init_params(cfg, seed=53)
    params["input.b"] = params["input.b"].copy()  # a replaced block breaks the aliasing
    assert pn.flat_buffer(params) is None


def test_backward_writes_one_flat_gradient_vector():
    cfg = tiny_cfg(d_h=8, n_heads=2)
    params = pn.init_params(dataclasses.replace(cfg, compat_init_gain=1.0), seed=54)
    x = np.random.default_rng(55).random((3, 5, cfg.d_in)).astype(np.float32)
    out, cache = pn.forward(params, cfg, x, np.full(3, 0.2), want_cache=True)
    d_logits = np.random.default_rng(56).normal(size=out.logits.shape)
    grads = pn.backward(cache, d_logits, np.ones(3), params, cfg)
    flat = pn.flat_buffer(grads)
    assert flat is not None and flat.dtype == np.float32
    assert list(grads) == [name for name, _ in pn.canonical_blocks(cfg)]
    with np.errstate(invalid="ignore"), \
            pytest.raises(FloatingPointError, match="non-finite gradient in block"):
        pn.backward(cache, d_logits, np.full(3, np.inf), params, cfg)


def test_checkpoint_rejects_truncated_and_trailing_bytes(tmp_path):
    cfg = tiny_cfg()
    path = tmp_path / "net.ckpt"
    pn.save_checkpoint(path, pn.init_params(cfg, seed=57), cfg)
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(ValueError, match="truncated"):
        pn.load_checkpoint(path)
    path.write_bytes(raw + b"\x00")
    with pytest.raises(ValueError, match="trailing bytes"):
        pn.load_checkpoint(path)


@pytest.mark.parametrize("n", [2, 6, 20])
def test_uniform_pair_probs_equal_zero_param_forward(n):
    cfg = pn.NetConfig(d_in=8, d_h=8, n_heads=1, n_layers=1, d_ff=8)
    x = np.random.default_rng(58).random((n, cfg.d_in))
    out = pn.forward(pn.zero_params(cfg), cfg, x, 0.5)
    assert pn.uniform_pair_probs(n).tobytes() == out.prob_matrix.tobytes()
