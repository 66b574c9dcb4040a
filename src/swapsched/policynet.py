"""Actor-critic network over job permutations, in plain numpy.

Architecture: linear embedding of per-job features plus sinusoidal positional
encodings, a stack of post-norm transformer encoder layers (multi-head
self-attention over all positions, then a two-linear feed-forward block, each
with a residual connection and layer norm), max-pooling of the encoded rows
integrated back into every row by two linear maps, and two heads on the pooled
rows:

* an action head that projects rows to queries/keys, forms the pair-score
  matrix ``Y[i, k] = k_i . q_k``, applies ReLU off the diagonal, masks the
  diagonal with -inf and softmaxes over all N^2 entries -- yielding one
  probability distribution over ordered swap pairs (i, k), i != k;
* a value head that mean-pools the rows, concatenates the scalar progress
  feature and runs a three-linear ReLU MLP down to a single value.

The same parameters evaluate on any number of jobs N >= 2. Forward and
backward are hand-written; gradients are validated against central finite
differences in the test suite.

Parameters live in a plain ``{name: ndarray}`` dict. The canonical block
order (also the checkpoint data layout) is::

    input.w (d_in, d_h)         input.b (d_h,)
    enc{l}.attn.wq/.bq/.wk/.bk/.wv/.bv/.wo/.bo     for l = 0 .. n_layers-1
    enc{l}.ln1.g/.b
    enc{l}.ff.w1 (d_h, d_ff)/.b1/.w2 (d_ff, d_h)/.b2
    enc{l}.ln2.g/.b
    pool.w_self (d_h, d_h)      pool.b_self (d_h,)
    pool.w_max  (d_h, d_h)      pool.b_max  (d_h,)
    compat.wq (d_h, d_h)        compat.wk (d_h, d_h)      [no biases]
    critic.w1 (d_h+d_gen, d_h)/.b1  critic.w2 (d_h, d_h)/.b2  critic.w3 (d_h, 1)/.b3

All linear maps use the row convention ``out = x @ w + b``. Checkpoints store
the blocks as raw little-endian float32 in exactly this order behind a JSON
header; save -> load -> forward is bit-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .operators import PairAction
from .schedcore import FeatureMatrix

LN_EPS = 1e-5
CHECKPOINT_MAGIC = b"SWSCK001"


@dataclass(frozen=True)
class NetConfig:
    """Shape of the network. ``d_in`` must equal 2 * W + 2 of the instances.

    ``compat_init_gain`` scales the initial compatibility projections: their
    outputs multiply pairwise, so unit gain makes the initial pair scores wide
    enough that the start policy is nearly deterministic; a small gain starts
    close to uniform while keeping the scores clear of the action head's ReLU
    dead zone.
    """

    d_in: int
    d_h: int = 128
    n_heads: int = 2
    n_layers: int = 2
    d_ff: int = 512
    d_gen: int = 1
    compat_init_gain: float = 0.25

    def __post_init__(self):
        if min(self.d_in, self.d_h, self.n_heads, self.n_layers, self.d_ff, self.d_gen) < 1:
            raise ValueError("all network dimensions must be >= 1")
        if self.d_h % self.n_heads:
            raise ValueError(f"d_h={self.d_h} not divisible by n_heads={self.n_heads}")
        if self.compat_init_gain <= 0:
            raise ValueError("compat_init_gain must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "NetConfig":
        return cls(**d)


@dataclass
class NetOutput:
    """Action distribution, value estimate and raw masked logits."""

    prob_matrix: np.ndarray  # (N, N) or (B, N, N); diagonal exactly 0
    value: float | np.ndarray
    logits: np.ndarray  # masked pair scores, -inf on the diagonal


def canonical_blocks(cfg: NetConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Ordered (name, shape) pairs; the single source of truth for layout."""
    d_h, d_ff = cfg.d_h, cfg.d_ff
    blocks = [("input.w", (cfg.d_in, d_h)), ("input.b", (d_h,))]
    for l in range(cfg.n_layers):
        p = f"enc{l}"
        for proj in ("wq", "wk", "wv", "wo"):
            blocks.append((f"{p}.attn.{proj}", (d_h, d_h)))
            blocks.append((f"{p}.attn.{proj.replace('w', 'b')}", (d_h,)))
        blocks += [(f"{p}.ln1.g", (d_h,)), (f"{p}.ln1.b", (d_h,)),
                   (f"{p}.ff.w1", (d_h, d_ff)), (f"{p}.ff.b1", (d_ff,)),
                   (f"{p}.ff.w2", (d_ff, d_h)), (f"{p}.ff.b2", (d_h,)),
                   (f"{p}.ln2.g", (d_h,)), (f"{p}.ln2.b", (d_h,))]
    blocks += [("pool.w_self", (d_h, d_h)), ("pool.b_self", (d_h,)),
               ("pool.w_max", (d_h, d_h)), ("pool.b_max", (d_h,)),
               ("compat.wq", (d_h, d_h)), ("compat.wk", (d_h, d_h)),
               ("critic.w1", (d_h + cfg.d_gen, d_h)), ("critic.b1", (d_h,)),
               ("critic.w2", (d_h, d_h)), ("critic.b2", (d_h,)),
               ("critic.w3", (d_h, 1)), ("critic.b3", (1,))]
    return blocks


def init_params(cfg: NetConfig, seed: int = 0, dtype=np.float32,
                compat_gain: float | None = None) -> dict:
    """Fan-based uniform init for matrices, zeros for biases, 1/0 for norms.

    The compatibility projections are scaled by ``cfg.compat_init_gain``
    (overridable via ``compat_gain``); see :class:`NetConfig`.
    """
    if compat_gain is None:
        compat_gain = cfg.compat_init_gain
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in canonical_blocks(cfg):
        if name.endswith(".g"):
            params[name] = np.ones(shape, dtype=dtype)
        elif len(shape) == 1:
            params[name] = np.zeros(shape, dtype=dtype)
        else:
            gain = compat_gain if name.startswith("compat.") else 1.0
            limit = gain * np.sqrt(6.0 / (shape[0] + shape[1]))
            params[name] = rng.uniform(-limit, limit, size=shape).astype(dtype)
    return params


def zero_params(cfg: NetConfig, dtype=np.float32) -> dict:
    return {name: np.zeros(shape, dtype=dtype) for name, shape in canonical_blocks(cfg)}


def param_count(params: dict) -> int:
    return int(sum(v.size for v in params.values()))


def flatten_params(params: dict, cfg: NetConfig) -> np.ndarray:
    return np.concatenate([params[name].ravel() for name, _ in canonical_blocks(cfg)])


def unflatten_params(vec: np.ndarray, cfg: NetConfig, dtype=None) -> dict:
    out, pos = {}, 0
    for name, shape in canonical_blocks(cfg):
        size = int(np.prod(shape))
        block = vec[pos:pos + size].reshape(shape)
        out[name] = block.astype(dtype) if dtype is not None else block.copy()
        pos += size
    if pos != vec.size:
        raise ValueError(f"parameter vector has {vec.size} entries, expected {pos}")
    return out


# ---------------------------------------------------------------------------
# forward


def positional_encoding(n: int, d_h: int, dtype=np.float32) -> np.ndarray:
    """Sinusoidal encodings, 0-based positions: sin on even dims, cos on odd."""
    pos = np.arange(n, dtype=np.float64)[:, None]
    dim = np.arange(0, d_h, 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, dim / d_h)
    pe = np.zeros((n, d_h), dtype=np.float64)
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)[:, : d_h // 2]
    return pe.astype(dtype)


def _as_batch(per_job, general, dtype):
    x = np.asarray(per_job, dtype=dtype)
    single = x.ndim == 2
    if single:
        x = x[None]
    g = np.atleast_1d(np.asarray(general, dtype=dtype))
    if g.shape != (x.shape[0],):
        raise ValueError(f"general feature shape {g.shape} does not match batch {x.shape[0]}")
    return x, g, single


def embed_jobs(per_job, params, cfg: NetConfig):
    """Linear projection into d_h plus positional encodings. Batched."""
    x = np.asarray(per_job, dtype=params["input.w"].dtype)
    single = x.ndim == 2
    if single:
        x = x[None]
    if x.shape[-1] != cfg.d_in:
        raise ValueError(f"feature width {x.shape[-1]} != d_in {cfg.d_in}")
    pe = positional_encoding(x.shape[1], cfg.d_h, dtype=x.dtype)
    h0 = x @ params["input.w"] + params["input.b"] + pe
    return h0[0] if single else h0


def _layer_norm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + np.asarray(LN_EPS, dtype=x.dtype))
    xhat = xc * inv
    return g * xhat + b, (xhat, inv)


def _softmax_lastaxis(z):
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=-1, keepdims=True)


def _split_heads(x, n_heads):
    b, n, d = x.shape
    return x.reshape(b, n, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, n, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, n, h * dh)


def _encoder_layer_forward(h_in, params, cfg: NetConfig, prefix: str):
    p = params
    q = _split_heads(h_in @ p[f"{prefix}.attn.wq"] + p[f"{prefix}.attn.bq"], cfg.n_heads)
    k = _split_heads(h_in @ p[f"{prefix}.attn.wk"] + p[f"{prefix}.attn.bk"], cfg.n_heads)
    v = _split_heads(h_in @ p[f"{prefix}.attn.wv"] + p[f"{prefix}.attn.bv"], cfg.n_heads)
    scale = np.asarray(1.0 / np.sqrt(cfg.d_h // cfg.n_heads), dtype=h_in.dtype)
    scores = (q @ k.transpose(0, 1, 3, 2)) * scale
    attn = _softmax_lastaxis(scores)
    ctx = _merge_heads(attn @ v)
    mha = ctx @ p[f"{prefix}.attn.wo"] + p[f"{prefix}.attn.bo"]

    h1, ln1_cache = _layer_norm(h_in + mha, p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"])
    z_ff = h1 @ p[f"{prefix}.ff.w1"] + p[f"{prefix}.ff.b1"]
    a_ff = np.maximum(z_ff, 0)
    ff = a_ff @ p[f"{prefix}.ff.w2"] + p[f"{prefix}.ff.b2"]
    h_out, ln2_cache = _layer_norm(h1 + ff, p[f"{prefix}.ln2.g"], p[f"{prefix}.ln2.b"])

    cache = {"h_in": h_in, "q": q, "k": k, "v": v, "attn": attn, "ctx": ctx,
             "scale": scale, "ln1": ln1_cache, "h1": h1, "z_ff": z_ff,
             "a_ff": a_ff, "ln2": ln2_cache}
    return h_out, cache


def encoder_layer(h_in, layer_params, cfg: NetConfig, prefix: str = "enc0"):
    """One post-norm encoder layer; see module docstring for the wiring."""
    h = np.asarray(h_in, dtype=layer_params[f"{prefix}.attn.wq"].dtype)
    single = h.ndim == 2
    if single:
        h = h[None]
    out, _ = _encoder_layer_forward(h, layer_params, cfg, prefix)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError(f"non-finite encoder output in layer {prefix}")
    return out[0] if single else out


def pool_and_integrate(h, params, cfg: NetConfig = None):
    """Max-pool over positions, fold the pooled vector back into every row."""
    h = np.asarray(h, dtype=params["pool.w_self"].dtype)
    single = h.ndim == 2
    if single:
        h = h[None]
    hmax = h.max(axis=1)
    hc = (h @ params["pool.w_self"] + params["pool.b_self"]
          + (hmax @ params["pool.w_max"] + params["pool.b_max"])[:, None, :])
    return hc[0] if single else hc


def compatibility(hc, params, cfg: NetConfig = None):
    """Pair-score matrix -> masked logits -> one softmax over all N^2 entries.

    Returns ``(prob, logits)``. ``logits[i, k] = relu(k_i . q_k)`` off the
    diagonal and -inf on it, so the probability of i == k is exactly zero.
    """
    hc = np.asarray(hc, dtype=params["compat.wq"].dtype)
    single = hc.ndim == 2
    if single:
        hc = hc[None]
    n = hc.shape[1]
    if n < 2:
        raise ValueError("compatibility needs at least 2 jobs (no valid swap otherwise)")
    q = hc @ params["compat.wq"]
    k = hc @ params["compat.wk"]
    y = k @ q.transpose(0, 2, 1)
    diag = np.eye(n, dtype=bool)
    logits = np.where(diag, np.asarray(-np.inf, dtype=hc.dtype), np.maximum(y, 0))
    flat = logits.reshape(hc.shape[0], -1)
    m = flat.max(axis=-1, keepdims=True)
    e = np.exp(flat - m)
    prob = (e / e.sum(axis=-1, keepdims=True)).reshape(logits.shape)
    if single:
        return prob[0], logits[0]
    return prob, logits


def critic_value(hc, general, params, cfg: NetConfig = None):
    """Mean-pool rows, append the progress scalar, run the value MLP."""
    hc = np.asarray(hc, dtype=params["critic.w1"].dtype)
    single = hc.ndim == 2
    if single:
        hc = hc[None]
    g = np.atleast_1d(np.asarray(general, dtype=hc.dtype))
    hmean = hc.mean(axis=1)
    cin = np.concatenate([hmean, g[:, None]], axis=1)
    z1 = cin @ params["critic.w1"] + params["critic.b1"]
    a1 = np.maximum(z1, 0)
    z2 = a1 @ params["critic.w2"] + params["critic.b2"]
    a2 = np.maximum(z2, 0)
    v = (a2 @ params["critic.w3"] + params["critic.b3"])[:, 0]
    return float(v[0]) if single else v


def forward(params, cfg: NetConfig, per_job, general, want_cache: bool = False):
    """Full forward pass; accepts (N, d_in) or (B, N, d_in) features.

    With ``want_cache=True`` additionally returns the intermediate tensors
    needed by :func:`backward`.
    """
    if isinstance(per_job, FeatureMatrix):
        per_job, general = per_job.per_job, per_job.general
    dtype = params["input.w"].dtype
    x, g, single = _as_batch(per_job, general, dtype)
    if x.shape[-1] != cfg.d_in:
        raise ValueError(f"feature width {x.shape[-1]} != d_in {cfg.d_in}")
    n = x.shape[1]
    if n < 2:
        raise ValueError("need at least 2 jobs")

    pe = positional_encoding(n, cfg.d_h, dtype=dtype)
    h = x @ params["input.w"] + params["input.b"] + pe
    layer_caches = []
    for l in range(cfg.n_layers):
        h, c = _encoder_layer_forward(h, params, cfg, f"enc{l}")
        if not np.all(np.isfinite(h)):
            raise FloatingPointError(f"non-finite encoder output in layer enc{l}")
        layer_caches.append(c)

    h_enc = h
    hmax = h_enc.max(axis=1)
    argmax_idx = h_enc.argmax(axis=1)  # (B, d_h), routes the max-pool gradient
    hc = (h_enc @ params["pool.w_self"] + params["pool.b_self"]
          + (hmax @ params["pool.w_max"] + params["pool.b_max"])[:, None, :])

    qc = hc @ params["compat.wq"]
    kc = hc @ params["compat.wk"]
    y = kc @ qc.transpose(0, 2, 1)
    diag = np.eye(n, dtype=bool)
    logits = np.where(diag, np.asarray(-np.inf, dtype=dtype), np.maximum(y, 0))
    flat = logits.reshape(x.shape[0], -1)
    e = np.exp(flat - flat.max(axis=-1, keepdims=True))
    prob = (e / e.sum(axis=-1, keepdims=True)).reshape(logits.shape)

    hmean = hc.mean(axis=1)
    cin = np.concatenate([hmean, g[:, None]], axis=1)
    z1 = cin @ params["critic.w1"] + params["critic.b1"]
    a1 = np.maximum(z1, 0)
    z2 = a1 @ params["critic.w2"] + params["critic.b2"]
    a2 = np.maximum(z2, 0)
    v = (a2 @ params["critic.w3"] + params["critic.b3"])[:, 0]

    if single:
        out = NetOutput(prob_matrix=prob[0], value=float(v[0]), logits=logits[0])
    else:
        out = NetOutput(prob_matrix=prob, value=v, logits=logits)
    if not want_cache:
        return out
    cache = {"x": x, "g": g, "layers": layer_caches, "h_enc": h_enc,
             "hmax": hmax, "argmax_idx": argmax_idx, "hc": hc,
             "qc": qc, "kc": kc, "y": y, "prob": prob,
             "cin": cin, "z1": z1, "a1": a1, "z2": z2, "a2": a2,
             "single": single}
    return out, cache


# ---------------------------------------------------------------------------
# backward


def _layer_norm_backward(dy, g, ln_cache):
    xhat, inv = ln_cache
    axes = tuple(range(dy.ndim - 1))
    dg = (dy * xhat).sum(axis=axes)
    db = dy.sum(axis=axes)
    dxhat = dy * g
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dx, dg, db


def _encoder_layer_backward(d_out, cache, params, cfg: NetConfig, prefix: str, grads: dict):
    p = params
    dres2, dg2, db2 = _layer_norm_backward(d_out, p[f"{prefix}.ln2.g"], cache["ln2"])
    grads[f"{prefix}.ln2.g"] += dg2
    grads[f"{prefix}.ln2.b"] += db2

    d_h1 = dres2.copy()
    d_ff_out = dres2
    grads[f"{prefix}.ff.w2"] += np.einsum("bnf,bnd->fd", cache["a_ff"], d_ff_out)
    grads[f"{prefix}.ff.b2"] += d_ff_out.sum(axis=(0, 1))
    d_aff = d_ff_out @ p[f"{prefix}.ff.w2"].T
    d_zff = d_aff * (cache["z_ff"] > 0)
    grads[f"{prefix}.ff.w1"] += np.einsum("bnd,bnf->df", cache["h1"], d_zff)
    grads[f"{prefix}.ff.b1"] += d_zff.sum(axis=(0, 1))
    d_h1 += d_zff @ p[f"{prefix}.ff.w1"].T

    dres1, dg1, db1 = _layer_norm_backward(d_h1, p[f"{prefix}.ln1.g"], cache["ln1"])
    grads[f"{prefix}.ln1.g"] += dg1
    grads[f"{prefix}.ln1.b"] += db1

    d_in = dres1.copy()
    d_mha = dres1
    grads[f"{prefix}.attn.wo"] += np.einsum("bnd,bne->de", cache["ctx"], d_mha)
    grads[f"{prefix}.attn.bo"] += d_mha.sum(axis=(0, 1))
    d_ctx = _split_heads(d_mha @ p[f"{prefix}.attn.wo"].T, cfg.n_heads)

    attn, q, k, v = cache["attn"], cache["q"], cache["k"], cache["v"]
    d_attn = d_ctx @ v.transpose(0, 1, 3, 2)
    d_v = attn.transpose(0, 1, 3, 2) @ d_ctx
    d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
    d_scores = d_scores * cache["scale"]
    d_q = d_scores @ k
    d_k = d_scores.transpose(0, 1, 3, 2) @ q

    h_in = cache["h_in"]
    for name, d_head in (("wq", d_q), ("wk", d_k), ("wv", d_v)):
        d_full = _merge_heads(d_head)
        grads[f"{prefix}.attn.{name}"] += np.einsum("bnd,bne->de", h_in, d_full)
        grads[f"{prefix}.attn.{name.replace('w', 'b')}"] += d_full.sum(axis=(0, 1))
        d_in = d_in + d_full @ p[f"{prefix}.attn.{name}"].T
    return d_in


def backward(cache, d_logits, d_value, params, cfg: NetConfig) -> dict:
    """Parameter gradients given head gradients.

    ``d_logits`` is the loss gradient w.r.t. the masked pair logits (diagonal
    entries are ignored), ``d_value`` w.r.t. the value output. Shapes follow
    the batched forward: (B, N, N) and (B,); single-state shapes are promoted.
    """
    dtype = params["input.w"].dtype
    d_logits = np.asarray(d_logits, dtype=dtype)
    d_value = np.atleast_1d(np.asarray(d_value, dtype=dtype))
    if d_logits.ndim == 2:
        d_logits = d_logits[None]
    b, n, _ = cache["prob"].shape
    grads = {name: np.zeros(shape, dtype=dtype) for name, shape in canonical_blocks(cfg)}

    # value head
    dz3 = d_value[:, None]
    grads["critic.w3"] += cache["a2"].T @ dz3
    grads["critic.b3"] += dz3.sum(axis=0)
    da2 = dz3 @ params["critic.w3"].T
    dz2 = da2 * (cache["z2"] > 0)
    grads["critic.w2"] += cache["a1"].T @ dz2
    grads["critic.b2"] += dz2.sum(axis=0)
    da1 = dz2 @ params["critic.w2"].T
    dz1 = da1 * (cache["z1"] > 0)
    grads["critic.w1"] += cache["cin"].T @ dz1
    grads["critic.b1"] += dz1.sum(axis=0)
    dcin = dz1 @ params["critic.w1"].T
    d_hc = np.broadcast_to((dcin[:, : cfg.d_h] / n)[:, None, :], cache["hc"].shape).copy()

    # action head: undo mask and ReLU, then the bilinear pair scores
    diag = np.eye(n, dtype=bool)
    dy = np.where(diag, 0, d_logits * (cache["y"] > 0)).astype(dtype)
    qc, kc, hc = cache["qc"], cache["kc"], cache["hc"]
    d_kc = dy @ qc
    d_qc = dy.transpose(0, 2, 1) @ kc
    grads["compat.wq"] += np.einsum("bnd,bne->de", hc, d_qc)
    grads["compat.wk"] += np.einsum("bnd,bne->de", hc, d_kc)
    d_hc += d_qc @ params["compat.wq"].T + d_kc @ params["compat.wk"].T

    # pooling
    h_enc = cache["h_enc"]
    grads["pool.w_self"] += np.einsum("bnd,bne->de", h_enc, d_hc)
    grads["pool.b_self"] += d_hc.sum(axis=(0, 1))
    d_rows = d_hc.sum(axis=1)  # the max term feeds every row
    grads["pool.w_max"] += cache["hmax"].T @ d_rows
    grads["pool.b_max"] += d_rows.sum(axis=0)
    d_hmax = d_rows @ params["pool.w_max"].T
    d_h = d_hc @ params["pool.w_self"].T
    idx = cache["argmax_idx"]
    d_h[np.arange(b)[:, None], idx, np.arange(cfg.d_h)[None, :]] += d_hmax

    # encoder stack, then the input projection
    for l in reversed(range(cfg.n_layers)):
        d_h = _encoder_layer_backward(d_h, cache["layers"][l], params, cfg, f"enc{l}", grads)
    grads["input.w"] += np.einsum("bni,bnd->id", cache["x"], d_h)
    grads["input.b"] += d_h.sum(axis=(0, 1))

    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in block {name}")
    return grads


# ---------------------------------------------------------------------------
# sampling and distribution helpers


def sample_action(out: NetOutput, rng: np.random.Generator, greedy: bool = False):
    """Draw a swap pair from the probability matrix (or take the argmax).

    Returns ``(PairAction, log_prob)``. Faults if the distribution lost its
    mass to numeric underflow.
    """
    p = np.asarray(out.prob_matrix, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError("sample_action expects a single (N, N) probability matrix")
    n = p.shape[0]
    flat = p.ravel()
    total = flat.sum()
    if not np.isfinite(total) or total <= 0:
        raise FloatingPointError("degenerate probability matrix: no finite mass")
    if greedy:
        idx = int(np.argmax(flat))
    else:
        c = np.cumsum(flat)
        u = rng.random() * c[-1]
        idx = int(np.searchsorted(c, u, side="right"))
        idx = min(idx, flat.size - 1)
        while flat[idx] == 0.0:  # float edge: never emit a zero-mass pair
            idx -= 1
    i, k = divmod(idx, n)
    if i == k:
        raise FloatingPointError("sampled a diagonal pair; probability matrix corrupt")
    return PairAction(i, k), float(np.log(flat[idx]))


def prob_entropy(prob: np.ndarray) -> float | np.ndarray:
    """Shannon entropy of the pair distribution; zero entries contribute 0."""
    p = np.asarray(prob, dtype=np.float64)
    plogp = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    return -plogp.sum(axis=(-2, -1))


# ---------------------------------------------------------------------------
# checkpoints


def digest_rng_state(rng: np.random.Generator) -> str:
    state = json.dumps(rng.bit_generator.state, sort_keys=True, default=str)
    return hashlib.sha256(state.encode()).hexdigest()


def save_checkpoint(path, params: dict, cfg: NetConfig, training_step: int = 0,
                    rng_state_digest: str = "", experiment_config: dict | None = None) -> None:
    """Write the versioned binary container described in the module docstring."""
    blocks = canonical_blocks(cfg)
    header = {
        "format_version": 1,
        "net_config": cfg.to_dict(),
        "training_step": int(training_step),
        "rng_state_digest": rng_state_digest,
        "experiment_config": experiment_config,
        "dtype": "float32",
        "blocks": [{"name": name, "shape": list(shape)} for name, shape in blocks],
    }
    payload = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(np.array(len(payload), dtype="<u4").tobytes())
        fh.write(payload)
        for name, shape in blocks:
            arr = np.ascontiguousarray(params[name], dtype="<f4")
            if arr.shape != shape:
                raise ValueError(f"block {name} has shape {arr.shape}, expected {shape}")
            fh.write(arr.tobytes())


def load_checkpoint(path):
    """Read a checkpoint; returns ``(params, cfg, header)`` with float32 params."""
    raw = Path(path).read_bytes()
    if raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    off = len(CHECKPOINT_MAGIC)
    hlen = int(np.frombuffer(raw[off:off + 4], dtype="<u4")[0])
    off += 4
    header = json.loads(raw[off:off + hlen].decode())
    off += hlen
    cfg = NetConfig.from_dict(header["net_config"])
    expected = canonical_blocks(cfg)
    declared = [(b["name"], tuple(b["shape"])) for b in header["blocks"]]
    if declared != expected:
        raise ValueError(f"{path}: checkpoint block layout does not match net config")
    params = {}
    for name, shape in expected:
        size = int(np.prod(shape)) * 4
        params[name] = np.frombuffer(raw[off:off + size], dtype="<f4").reshape(shape).copy()
        off += size
    if off != len(raw):
        raise ValueError(f"{path}: trailing bytes after parameter blocks")
    return params, cfg, header


def checkpoint_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


__all__ = [
    "LN_EPS", "NetConfig", "NetOutput", "canonical_blocks", "init_params",
    "zero_params", "param_count", "flatten_params", "unflatten_params",
    "positional_encoding", "embed_jobs", "encoder_layer", "pool_and_integrate",
    "compatibility", "critic_value", "forward", "backward", "sample_action",
    "prob_entropy", "digest_rng_state", "save_checkpoint",
    "load_checkpoint", "checkpoint_digest",
]
