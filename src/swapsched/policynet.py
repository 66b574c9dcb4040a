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

Parameters live in a plain ``{name: ndarray}`` dict whose arrays are views
of consecutive blocks of one contiguous vector (:func:`flat_views`), so the
optimizer can update every parameter with a few vector operations; gradients
come back from :func:`backward` the same way. The canonical block order (also
the flat vector's and the checkpoint's data layout) is::

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

import functools
import hashlib
import json
import math
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
    d_gen: int = 1  # width of the general feature, the one scalar t/T
    compat_init_gain: float = 0.25

    def __post_init__(self):
        if min(self.d_in, self.d_h, self.n_heads, self.n_layers, self.d_ff) < 1:
            raise ValueError("all network dimensions must be >= 1")
        if self.d_gen != 1:
            raise ValueError(f"d_gen must be 1 (the general feature is t/T), got {self.d_gen}")
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


def _block_size(blocks) -> int:
    return sum(math.prod(shape) for _, shape in blocks)


def flat_views(blocks, flat: np.ndarray) -> dict:
    """``{name: view}`` of consecutive blocks of the 1-D contiguous ``flat``.

    ``blocks`` are ``(name, shape)`` pairs (:func:`canonical_blocks` for a
    network) and must cover ``flat`` exactly. Writes through a view land in
    ``flat`` and the other way round; :func:`flat_buffer` gives ``flat`` back.
    """
    out, pos = {}, 0
    for name, shape in blocks:
        size = math.prod(shape)
        out[name] = flat[pos:pos + size].reshape(shape)
        pos += size
    if pos != flat.size:
        raise ValueError(f"vector has {flat.size} entries, the blocks {pos}")
    return out


def flat_buffer(tensors: dict) -> np.ndarray | None:
    """The vector the arrays of ``tensors`` are consecutive views of, in dict
    order and covering it exactly (see :func:`flat_views`); None otherwise."""
    # addresses come from .ctypes.data: reading __array_interface__ in a
    # loop retained about 0.9 MB per process (numpy 2.4.6, CPython 3.11)
    arrays = list(tensors.values())
    base = arrays[0].base if arrays else None
    if base is None or base.ndim != 1 or not base.flags.c_contiguous:
        return None
    addr = end = base.ctypes.data
    end += base.nbytes
    for a in arrays:
        if a.base is not base or not a.flags.c_contiguous or a.ctypes.data != addr:
            return None
        addr += a.nbytes
    return base if addr == end else None


def init_params(cfg: NetConfig, seed: int = 0, dtype=np.float32) -> dict:
    """Fan-based uniform init for matrices, zeros for biases, 1/0 for norms.

    The compatibility projections are scaled by ``cfg.compat_init_gain``; see
    :class:`NetConfig`. The blocks are views of one flat vector
    (:func:`flat_views`).
    """
    rng = np.random.default_rng(seed)
    blocks = canonical_blocks(cfg)
    params = flat_views(blocks, np.zeros(_block_size(blocks), dtype=dtype))
    for name, shape in blocks:
        if name.endswith(".g"):
            params[name].fill(1)
        elif len(shape) > 1:
            gain = cfg.compat_init_gain if name.startswith("compat.") else 1.0
            limit = gain * np.sqrt(6.0 / (shape[0] + shape[1]))
            params[name][...] = rng.uniform(-limit, limit, size=shape).astype(dtype)
    return params


def zero_params(cfg: NetConfig, dtype=np.float32) -> dict:
    blocks = canonical_blocks(cfg)
    return flat_views(blocks, np.zeros(_block_size(blocks), dtype=dtype))


def param_count(params: dict) -> int:
    return int(sum(v.size for v in params.values()))


def flatten_params(params: dict, cfg: NetConfig) -> np.ndarray:
    return np.concatenate([params[name].ravel() for name, _ in canonical_blocks(cfg)])


def unflatten_params(vec: np.ndarray, cfg: NetConfig, dtype=None) -> dict:
    """Blocks of a copy of ``vec`` (cast to ``dtype`` if given), as :func:`flat_views`."""
    vec = np.asarray(vec)
    flat = vec.astype(dtype) if dtype is not None else vec.copy()
    return flat_views(canonical_blocks(cfg), flat.ravel())


# ---------------------------------------------------------------------------
# forward
#
# Each network block is one function on a batch ``(B, N, d)``, written so
# that row b of a batched call is bitwise equal to the same state evaluated
# alone (B = 1). ``forward`` composes the public blocks (embed_jobs,
# encoder_layer, pool_and_integrate, compatibility, critic_value) and is the
# one entry point that also takes a single ``(N, d_in)`` state. Blocks that
# get a ``cache`` dict store what ``backward`` needs in it. Bias, ReLU and
# softmax run in place on the blocks' own temporaries; layer norm does so only
# without a cache, since backward needs its normalised rows.


def positional_encoding(n: int, d_h: int, dtype=np.float32) -> np.ndarray:
    """Sinusoidal encodings, 0-based positions: sin on even dims, cos on odd."""
    pos = np.arange(n, dtype=np.float64)[:, None]
    dim = np.arange(0, d_h, 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, dim / d_h)
    pe = np.zeros((n, d_h), dtype=np.float64)
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)[:, : d_h // 2]
    return pe.astype(dtype)


@functools.lru_cache(maxsize=64)
def _cached_positional_encoding(n: int, d_h: int, dtype: np.dtype) -> np.ndarray:
    """:func:`positional_encoding`, computed once per ``(n, d_h, dtype)``; read-only."""
    pe = positional_encoding(n, d_h, dtype)
    pe.flags.writeable = False
    return pe


def _linear(x, w, b=None):
    """``x @ w (+ b)`` for every row of ``x`` as one 2-D GEMM over ``(B*N, d)``.

    Batch invariance rests here: row r of a GEMM comes out bitwise the same
    whatever the number of rows around it. That is a property of the installed
    BLAS (OpenBLAS 0.3.31 has it), not of numpy, and
    ``test_forward_rows_match_single_state`` checks it. On a BLAS without it
    results stay deterministic, but batched rows stop matching the B = 1 path.
    A stacked ``(B, N, d) @ w`` would instead loop one GEMM per state, twice
    as slow at the paper's feed-forward shape.
    """
    out = (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[1])
    if b is not None:
        out += b
    return out


def _linear_per_state(v, w, b):
    """``v @ w + b`` for a ``(B, d)`` block of one-row inputs.

    A 2-D ``(B, d) @ w`` rounds differently from the one-row product of a
    single state, so each state runs as its own ``(1, d) @ w``.
    """
    out = (v[:, None, :] @ w)[:, 0]
    out += b
    return out


def _relu_(x):
    return np.maximum(x, 0, out=x)


def _softmax_lastaxis_(z):
    """Softmax over the last axis, in place."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _row_mean(x):
    """``x.mean(axis=-1, keepdims=True)`` with the same bits, minus its Python overhead.

    ``.mean`` divides the float32 sum by the count in float64 and rounds back;
    a float32 division rounds the same (double rounding is exact for a
    quotient of two float32 values).
    """
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def _layer_norm_(x, g, b, cache=None, key=None):
    """Layer norm of ``x``, which the caller owns and this overwrites.

    With a ``cache`` the normalised rows and inverse deviations are stored
    under ``key`` for the backward pass and the output is a new array.
    """
    x -= _row_mean(x)
    inv = 1.0 / np.sqrt(_row_mean(x * x) + np.asarray(LN_EPS, dtype=x.dtype))
    x *= inv
    if cache is None:
        x *= g
        x += b
        return x
    cache[key] = (x, inv)
    out = x * g
    out += b
    return out


def _split_heads(x, n_heads):
    b, n, d = x.shape
    return x.reshape(b, n, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, n, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, n, h * dh)


def embed_jobs(x, params, cfg: NetConfig):
    """Linear projection of ``(B, N, d_in)`` job features into d_h, plus
    positional encodings."""
    if x.shape[-1] != cfg.d_in:
        raise ValueError(f"feature width {x.shape[-1]} != d_in {cfg.d_in}")
    h = _linear(x, params["input.w"], params["input.b"])
    h += _cached_positional_encoding(x.shape[1], cfg.d_h, x.dtype)
    return h


def _attention(h_in, params, cfg: NetConfig, prefix: str, cache=None):
    """Multi-head self-attention plus its output projection (no residual)."""
    p = params
    q = _split_heads(_linear(h_in, p[f"{prefix}.attn.wq"], p[f"{prefix}.attn.bq"]), cfg.n_heads)
    k = _split_heads(_linear(h_in, p[f"{prefix}.attn.wk"], p[f"{prefix}.attn.bk"]), cfg.n_heads)
    v = _split_heads(_linear(h_in, p[f"{prefix}.attn.wv"], p[f"{prefix}.attn.bv"]), cfg.n_heads)
    scale = np.asarray(1.0 / np.sqrt(cfg.d_h // cfg.n_heads), dtype=h_in.dtype)
    scores = q @ k.transpose(0, 1, 3, 2)
    scores *= scale
    attn = _softmax_lastaxis_(scores)
    ctx = _merge_heads(attn @ v)
    if cache is not None:
        cache.update(h_in=h_in, q=q, k=k, v=v, attn=attn, ctx=ctx, scale=scale)
    return _linear(ctx, p[f"{prefix}.attn.wo"], p[f"{prefix}.attn.bo"])


def encoder_layer(h_in, params, cfg: NetConfig, prefix: str, cache=None):
    """One post-norm encoder layer (``prefix`` names its parameters, e.g.
    ``enc0``); see the module docstring for the wiring."""
    p = params
    res1 = _attention(h_in, params, cfg, prefix, cache)
    res1 += h_in
    h1 = _layer_norm_(res1, p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"], cache, "ln1")
    a_ff = _relu_(_linear(h1, p[f"{prefix}.ff.w1"], p[f"{prefix}.ff.b1"]))
    res2 = _linear(a_ff, p[f"{prefix}.ff.w2"], p[f"{prefix}.ff.b2"])
    res2 += h1
    if cache is not None:
        cache.update(h1=h1, a_ff=a_ff)
    h_out = _layer_norm_(res2, p[f"{prefix}.ln2.g"], p[f"{prefix}.ln2.b"], cache, "ln2")
    if not np.isfinite(h_out).all():
        raise FloatingPointError(f"non-finite encoder output in layer {prefix}")
    return h_out


def pool_and_integrate(h, params, cache=None):
    """Max-pool over positions, fold the pooled vector back into every row."""
    hmax = h.max(axis=1)
    hc = _linear(h, params["pool.w_self"], params["pool.b_self"])
    hc += _linear_per_state(hmax, params["pool.w_max"], params["pool.b_max"])[:, None, :]
    if cache is not None:
        # argmax routes the max-pool gradient; it runs along the last axis
        # of a (B, d, N) copy rather than along the strided position axis
        argmax_idx = np.ascontiguousarray(h.transpose(0, 2, 1)).argmax(axis=-1)
        cache.update(h_enc=h, hmax=hmax, argmax_idx=argmax_idx, hc=hc)
    return hc


def compatibility(hc, params, cache=None):
    """Pair-score matrix -> masked logits -> one softmax over all N^2 entries.

    Returns ``(prob, logits)``, each ``(B, N, N)``. ``logits[b, i, k] =
    relu(k_i . q_k)`` off the diagonal and -inf on it, so the probability of
    i == k is exactly zero.
    """
    n = hc.shape[1]
    if n < 2:
        raise ValueError("compatibility needs at least 2 jobs (no valid swap otherwise)")
    qc = _linear(hc, params["compat.wq"])
    kc = _linear(hc, params["compat.wk"])
    logits = _relu_(kc @ qc.transpose(0, 2, 1))
    logits.reshape(hc.shape[0], -1)[:, ::n + 1] = -np.inf  # the diagonal
    prob = _softmax_lastaxis_(logits.reshape(hc.shape[0], -1).copy()).reshape(logits.shape)
    if cache is not None:
        cache.update(qc=qc, kc=kc, logits=logits, prob=prob)
    return prob, logits


def critic_value(hc, g, params, cache=None):
    """Mean-pool rows, append the progress scalar ``g[b]``, run the value MLP.

    Returns the ``(B,)`` values.
    """
    cin = np.concatenate([hc.mean(axis=1), g[:, None]], axis=1)
    a1 = _relu_(_linear_per_state(cin, params["critic.w1"], params["critic.b1"]))
    a2 = _relu_(_linear_per_state(a1, params["critic.w2"], params["critic.b2"]))
    if cache is not None:
        cache.update(cin=cin, a1=a1, a2=a2)
    return _linear_per_state(a2, params["critic.w3"], params["critic.b3"])[:, 0]


def forward(params, cfg: NetConfig, per_job, general, want_cache: bool = False):
    """Full forward pass; accepts (N, d_in) or (B, N, d_in) features.

    Batch-invariant: row b of a batched call is bitwise equal to the call on
    state b alone, for the probabilities, the logits and the value. Linear
    maps over rows run as one GEMM over all B*N rows (see ``_linear``); the
    one-row products (pooled max term, critic) run per state. Inference steps
    all runs of a policy through one call this way and still reproduces the
    single-state results exactly.

    With ``want_cache=True`` additionally returns the intermediate tensors
    needed by :func:`backward`.
    """
    if isinstance(per_job, FeatureMatrix):
        per_job, general = per_job.per_job, per_job.general
    x = np.asarray(per_job, dtype=params["input.w"].dtype)
    single = x.ndim == 2
    if single:
        x = x[None]
    g = np.atleast_1d(np.asarray(general, dtype=x.dtype))
    if g.shape != (x.shape[0],):
        raise ValueError(f"general feature shape {g.shape} does not match batch {x.shape[0]}")
    if x.shape[1] < 2:
        raise ValueError("need at least 2 jobs")

    cache = {"x": x, "g": g, "layers": []} if want_cache else None
    h = embed_jobs(x, params, cfg)
    for l in range(cfg.n_layers):
        layer_cache = None if cache is None else {}
        h = encoder_layer(h, params, cfg, f"enc{l}", layer_cache)
        if cache is not None:
            cache["layers"].append(layer_cache)
    hc = pool_and_integrate(h, params, cache)
    prob, logits = compatibility(hc, params, cache)
    v = critic_value(hc, g, params, cache)

    if single:
        out = NetOutput(prob_matrix=prob[0], value=float(v[0]), logits=logits[0])
    else:
        out = NetOutput(prob_matrix=prob, value=v, logits=logits)
    return (out, cache) if want_cache else out


# ---------------------------------------------------------------------------
# backward


def _weight_grad(a, d, out):
    """Sum over all rows of ``outer(a_row, d_row)``, the gradient of ``a @ w``, into ``out``."""
    return np.matmul(a.reshape(-1, a.shape[-1]).T, d.reshape(-1, d.shape[-1]), out=out)


def _row_sum(d, out):
    """Sum over every axis but the last (the gradient of a bias), into ``out``."""
    return d.sum(axis=tuple(range(d.ndim - 1)), out=out)


def _layer_norm_backward(dy, ln_cache, g, dg, db):
    """Input gradient of a layer norm; writes the gain and bias gradients into ``dg``, ``db``."""
    xhat, inv = ln_cache
    _row_sum(dy * xhat, dg)
    _row_sum(dy, db)
    dxhat = dy * g
    return inv * (dxhat - _row_mean(dxhat) - xhat * _row_mean(dxhat * xhat))


def _encoder_layer_backward(d_out, cache, params, cfg: NetConfig, prefix: str, grads: dict):
    p, gr = params, grads
    dres2 = _layer_norm_backward(d_out, cache["ln2"], p[f"{prefix}.ln2.g"],
                                 gr[f"{prefix}.ln2.g"], gr[f"{prefix}.ln2.b"])

    d_h1 = dres2.copy()
    d_ff_out = dres2
    _weight_grad(cache["a_ff"], d_ff_out, gr[f"{prefix}.ff.w2"])
    _row_sum(d_ff_out, gr[f"{prefix}.ff.b2"])
    d_aff = d_ff_out @ p[f"{prefix}.ff.w2"].T
    d_zff = d_aff * (cache["a_ff"] > 0)
    _weight_grad(cache["h1"], d_zff, gr[f"{prefix}.ff.w1"])
    _row_sum(d_zff, gr[f"{prefix}.ff.b1"])
    d_h1 += d_zff @ p[f"{prefix}.ff.w1"].T

    dres1 = _layer_norm_backward(d_h1, cache["ln1"], p[f"{prefix}.ln1.g"],
                                 gr[f"{prefix}.ln1.g"], gr[f"{prefix}.ln1.b"])

    d_in = dres1.copy()
    d_mha = dres1
    _weight_grad(cache["ctx"], d_mha, gr[f"{prefix}.attn.wo"])
    _row_sum(d_mha, gr[f"{prefix}.attn.bo"])
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
        _weight_grad(h_in, d_full, gr[f"{prefix}.attn.{name}"])
        _row_sum(d_full, gr[f"{prefix}.attn.{name.replace('w', 'b')}"])
        d_in = d_in + d_full @ p[f"{prefix}.attn.{name}"].T
    return d_in


def backward(cache, d_logits, d_value, params, cfg: NetConfig) -> dict:
    """Parameter gradients given head gradients.

    ``d_logits`` is the loss gradient w.r.t. the masked pair logits (diagonal
    entries are ignored), ``d_value`` w.r.t. the value output. Shapes follow
    the batched forward: (B, N, N) and (B,); single-state shapes are promoted.
    Every block is written once into its view of one flat gradient vector
    (:func:`flat_views`, canonical order), which is checked for finiteness.
    """
    dtype = params["input.w"].dtype
    d_logits = np.asarray(d_logits, dtype=dtype)
    d_value = np.atleast_1d(np.asarray(d_value, dtype=dtype))
    if d_logits.ndim == 2:
        d_logits = d_logits[None]
    b, n, _ = cache["prob"].shape
    blocks = canonical_blocks(cfg)
    flat = np.empty(_block_size(blocks), dtype=dtype)
    grads = flat_views(blocks, flat)

    # value head
    dz3 = d_value[:, None]
    np.matmul(cache["a2"].T, dz3, out=grads["critic.w3"])
    _row_sum(dz3, grads["critic.b3"])
    da2 = dz3 @ params["critic.w3"].T
    dz2 = da2 * (cache["a2"] > 0)
    np.matmul(cache["a1"].T, dz2, out=grads["critic.w2"])
    _row_sum(dz2, grads["critic.b2"])
    da1 = dz2 @ params["critic.w2"].T
    dz1 = da1 * (cache["a1"] > 0)
    np.matmul(cache["cin"].T, dz1, out=grads["critic.w1"])
    _row_sum(dz1, grads["critic.b1"])
    dcin = dz1 @ params["critic.w1"].T
    d_hc = np.broadcast_to((dcin[:, : cfg.d_h] / n)[:, None, :], cache["hc"].shape).copy()

    # action head: undo mask and ReLU, then the bilinear pair scores
    diag = np.eye(n, dtype=bool)
    dy = np.where(diag, 0, d_logits * (cache["logits"] > 0)).astype(dtype)
    qc, kc, hc = cache["qc"], cache["kc"], cache["hc"]
    d_kc = dy @ qc
    d_qc = dy.transpose(0, 2, 1) @ kc
    _weight_grad(hc, d_qc, grads["compat.wq"])
    _weight_grad(hc, d_kc, grads["compat.wk"])
    d_hc += d_qc @ params["compat.wq"].T + d_kc @ params["compat.wk"].T

    # pooling
    h_enc = cache["h_enc"]
    _weight_grad(h_enc, d_hc, grads["pool.w_self"])
    _row_sum(d_hc, grads["pool.b_self"])
    d_rows = d_hc.sum(axis=1)  # the max term feeds every row
    np.matmul(cache["hmax"].T, d_rows, out=grads["pool.w_max"])
    _row_sum(d_rows, grads["pool.b_max"])
    d_hmax = d_rows @ params["pool.w_max"].T
    d_h = d_hc @ params["pool.w_self"].T
    idx = cache["argmax_idx"]
    d_h[np.arange(b)[:, None], idx, np.arange(cfg.d_h)[None, :]] += d_hmax

    # encoder stack, then the input projection
    for l in reversed(range(cfg.n_layers)):
        d_h = _encoder_layer_backward(d_h, cache["layers"][l], params, cfg, f"enc{l}", grads)
    _weight_grad(cache["x"], d_h, grads["input.w"])
    _row_sum(d_h, grads["input.b"])

    if not np.isfinite(flat).all():
        bad = next(name for name, g in grads.items() if not np.isfinite(g).all())
        raise FloatingPointError(f"non-finite gradient in block {bad}")
    return grads


# ---------------------------------------------------------------------------
# sampling and distribution helpers


def sample_actions(prob, rngs, greedy: bool = False):
    """Draw one swap pair per state of a ``(B, N, N)`` probability block.

    State b draws with ``rngs[b]``, one ``random()`` call each (none when
    ``greedy``, which takes the argmax), so a state's draw does not depend on
    the rest of the batch. Returns ``(i, k, log_prob)`` arrays of length B.
    Faults if a distribution lost its mass to numeric underflow.
    """
    p = np.asarray(prob, dtype=np.float64)
    if p.ndim != 3:
        raise ValueError("sample_actions expects a (B, N, N) probability block")
    b, n, _ = p.shape
    if not greedy and len(rngs) != b:
        raise ValueError(f"{len(rngs)} generators for {b} states")
    flat = p.reshape(b, -1)
    total = flat.sum(axis=1)
    if not (np.isfinite(total) & (total > 0)).all():
        raise FloatingPointError("degenerate probability matrix: no finite mass")
    rows = np.arange(b)
    if greedy:
        idx = flat.argmax(axis=1)
    else:
        c = np.cumsum(flat, axis=1)
        u = np.array([rng.random() for rng in rngs]) * c[:, -1]
        # c is non-decreasing, so counting c <= u is searchsorted(c, u, "right")
        idx = np.minimum((c <= u[:, None]).sum(axis=1), flat.shape[1] - 1)
        zero = flat[rows, idx] == 0.0
        while zero.any():  # float edge: never emit a zero-mass pair
            idx[zero] -= 1
            zero = flat[rows, idx] == 0.0
    i, k = np.divmod(idx, n)
    if (i == k).any():
        raise FloatingPointError("sampled a diagonal pair; probability matrix corrupt")
    return i, k, np.log(flat[rows, idx])


def sample_action(out: NetOutput, rng: np.random.Generator, greedy: bool = False):
    """Draw a swap pair from one ``(N, N)`` probability matrix (or take the argmax).

    The one-state case of :func:`sample_actions`. Returns
    ``(PairAction, log_prob)``.
    """
    p = np.asarray(out.prob_matrix)
    if p.ndim != 2:
        raise ValueError("sample_action expects a single (N, N) probability matrix")
    i, k, logp = sample_actions(p[None], [rng], greedy=greedy)
    return PairAction(int(i[0]), int(k[0])), float(logp[0])


def uniform_pair_probs(n: int) -> np.ndarray:
    """The ``(n, n)`` float32 pair distribution of a network with all-zero
    parameters: every off-diagonal pair scores 0, so each gets the float32
    quotient ``1 / (n * (n - 1))`` and the diagonal gets 0, bit for bit."""
    if n < 2:
        raise ValueError("need at least 2 jobs")
    prob = np.full((n, n), np.float32(1) / np.float32(n * (n - 1)), dtype=np.float32)
    np.fill_diagonal(prob, 0)
    return prob


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
    """Read a checkpoint; returns ``(params, cfg, header)`` with float32 params.

    The blocks are read straight into one flat vector that the returned
    params are views of (:func:`flat_views`).
    """
    with open(path, "rb") as fh:
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (bad magic)")
        hlen = int.from_bytes(fh.read(4), "little")
        header = json.loads(fh.read(hlen).decode())
        cfg = NetConfig.from_dict(header["net_config"])
        expected = canonical_blocks(cfg)
        declared = [(b["name"], tuple(b["shape"])) for b in header["blocks"]]
        if declared != expected:
            raise ValueError(f"{path}: checkpoint block layout does not match net config")
        flat = np.empty(_block_size(expected), dtype="<f4")
        if fh.readinto(flat) != flat.nbytes:
            raise ValueError(f"{path}: truncated parameter blocks")
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after parameter blocks")
    return flat_views(expected, flat), cfg, header


def checkpoint_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


__all__ = [
    "LN_EPS", "NetConfig", "NetOutput", "canonical_blocks", "init_params",
    "zero_params", "param_count", "flat_views", "flat_buffer", "flatten_params",
    "unflatten_params",
    "positional_encoding", "embed_jobs", "encoder_layer", "pool_and_integrate",
    "compatibility", "critic_value", "forward", "backward", "sample_actions",
    "sample_action", "uniform_pair_probs", "prob_entropy", "digest_rng_state", "save_checkpoint",
    "load_checkpoint", "checkpoint_digest",
]
