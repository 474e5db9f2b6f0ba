"""Three-block byte model: local byte encoder, latent patch transformer, byte decoder.

The encoder contextualizes bytes with windowed causal attention and pools them
into patch queries that cross-attend only to their own patch's bytes. The
latent transformer runs causally over patches. The decoder interchanges the
cross-attention roles: byte queries attend to split projections of the latent
outputs, restricted to the last patch that is already complete at the query
position, so no information from inside the current patch can leak backward.

Each of the four attention patterns gives every query one contiguous span of
keys, a ``tensor.Spans``, built once per forward; ``tensor.span_attention``
scores it tile by tile without building an (n_queries, n_keys) array, under
the tile plan the span set builds once and shares across the layers that
attend over it. Local self-attention therefore costs O(window) per byte, and
decoder cross-attention k keys per byte, the k slots of one patch, as
``flops.blt_flops_per_byte`` charges. The ``*_mask`` builders are dense views
of the same predicates. The forward path calls none of them; they stay
because ``perfbench/tracing.py`` wraps them by name, and tests use them as
dense references.

Some widths and constants are fixed rather than configured. The decoder
works at encoder width by construction, since it starts from the encoder's
byte states, so ``ModelConfig.dec_dim`` is ``enc_dim``. Patch queries are
initialised by max pooling, the hash multiplier is ``ngram_hash``'s fixed
prime, and feed-forward widths round up to a multiple of 8. The maximum patch
size is part of segmentation, not of the model: ``PatchingConfig`` holds it,
and the model accepts patches of any length.

Everything runs on the package's numpy autodiff; float64 mode exists for
finite-difference gradient checks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, asdict

import numpy as np

from .errors import ConfigError, NumericError
from .ngram_hash import hash_ngram_ids
from .patching import PatchBoundaries
from .tensor import (
    Spans,
    Tensor,
    concat,
    embedding,
    nll_from_logits,
    parameter,
    segment_max,
    softmax,  # noqa: F401  re-exported: perfbench/tracing.py wraps model.softmax
    span_attention,
)

VOCAB = 256


def ffn_hidden_dim(dim: int, ff_mult: int = 4) -> int:
    """Gated feed-forward hidden width: 2/3 of mult*dim, rounded up to a multiple of 8.

    The 2/3 factor keeps the three-matmul gated block at the same cost as a
    plain two-matmul block of width mult*dim, which is what the FLOP
    accounting assumes.
    """
    h = int(2 * ff_mult * dim / 3)
    return 8 * ((h + 7) // 8)


@dataclass
class ModelConfig:
    enc_dim: int = 64
    global_dim: int = 128
    enc_layers: int = 1
    global_layers: int = 4
    dec_layers: int = 2
    enc_heads: int = 4
    global_heads: int = 4
    dec_heads: int = 4
    enc_window: int = 512
    dec_window: int = 512
    ff_mult: int = 4
    rope_theta: float = 500000.0
    ngram_sizes: tuple = (3, 4, 5, 6, 7, 8)
    hash_vocab: int = 4096  # buckets per n-gram size; 0 disables hash embeddings

    def __post_init__(self):
        self.ngram_sizes = tuple(sorted(self.ngram_sizes))
        if (min(self.enc_dim, self.global_dim, self.enc_heads, self.global_heads, self.dec_heads,
                self.enc_window, self.dec_window, self.ff_mult, *self.ngram_sizes) < 1
                or min(self.enc_layers, self.global_layers, self.dec_layers, self.hash_vocab) < 0):
            raise ConfigError("layer counts and hash_vocab must be >= 0, other sizes >= 1")
        if self.global_dim % self.enc_dim != 0:
            raise ConfigError(
                f"global_dim ({self.global_dim}) must be a multiple of enc_dim ({self.enc_dim}): "
                "patch queries are maintained as encoder-width heads whose concatenation is global width"
            )
        for dim, heads, tag in ((self.enc_dim, self.enc_heads, "enc"),
                                (self.global_dim, self.global_heads, "global"),
                                (self.dec_dim, self.dec_heads, "dec")):
            if dim % heads != 0:
                raise ConfigError(f"{tag}_dim {dim} not divisible by {tag}_heads {heads}")
            if (dim // heads) % 2 != 0:
                raise ConfigError(f"{tag} head dim must be even for rotary embeddings")
        if self.enc_layers >= self.global_layers or self.dec_layers >= self.global_layers:
            warnings.warn("local blocks are expected to be much shallower than the latent transformer",
                          stacklevel=2)

    @property
    def dec_dim(self) -> int:
        """Decoder width, which is encoder width: the decoder starts from encoder byte states."""
        return self.enc_dim

    @property
    def k(self) -> int:
        """Width ratio global_dim / enc_dim: encoder-width slots per patch vector."""
        return self.global_dim // self.enc_dim

    def to_dict(self) -> dict:
        d = asdict(self)
        d["ngram_sizes"] = list(self.ngram_sizes)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        if "ngram_sizes" in d:
            d["ngram_sizes"] = tuple(d["ngram_sizes"])
        return cls(**d)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


class BltParams:
    """Named parameter tensors plus initialization metadata."""

    def __init__(self, tensors: dict[str, Tensor], meta: dict):
        self.tensors = tensors
        self.meta = meta

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def items(self):
        return self.tensors.items()

    def n_params(self) -> int:
        return sum(t.data.size for t in self.tensors.values())

    def zero_grad(self):
        for t in self.tensors.values():
            t.grad = None

    def grads(self) -> dict[str, np.ndarray]:
        return {k: t.grad for k, t in self.tensors.items()}

    def detached(self) -> "BltParams":
        """The same parameters as tensors that share each ``data`` array but
        require no grad.

        A forward pass over the view records no parents or vjp closures, so it
        builds no autodiff graph; in-place updates of the parameters show in
        the view.
        """
        return BltParams({k: Tensor(t.data, name=k) for k, t in self.tensors.items()}, self.meta)

    def astype(self, dtype) -> "BltParams":
        return BltParams(
            {k: parameter(t.data.astype(dtype), k) for k, t in self.tensors.items()},
            dict(self.meta, dtype=np.dtype(dtype).name),
        )


def _layer_names(prefix: str, dim: int, ff: int) -> list[tuple[str, tuple]]:
    return [
        (f"{prefix}attn_norm", (dim,)),
        (f"{prefix}attn.wq", (dim, dim)),
        (f"{prefix}attn.wk", (dim, dim)),
        (f"{prefix}attn.wv", (dim, dim)),
        (f"{prefix}attn.wo", (dim, dim)),
        (f"{prefix}ffn_norm", (dim,)),
        (f"{prefix}ffn.w_gate", (dim, ff)),
        (f"{prefix}ffn.w_up", (dim, ff)),
        (f"{prefix}ffn.w_down", (ff, dim)),
    ]


def _xattn_names(prefix: str, q_dim: int, kv_dim: int) -> list[tuple[str, tuple]]:
    return [
        (f"{prefix}q_norm", (q_dim,)),
        (f"{prefix}kv_norm", (kv_dim,)),
        (f"{prefix}wq", (q_dim, q_dim)),
        (f"{prefix}wk", (kv_dim, q_dim)),
        (f"{prefix}wv", (kv_dim, q_dim)),
        (f"{prefix}wo", (q_dim, q_dim)),
    ]


def param_shapes(config: ModelConfig) -> dict[str, tuple]:
    """Every parameter tensor's shape, keyed by name."""
    E, G, D, k = config.enc_dim, config.global_dim, config.dec_dim, config.k
    fe = ffn_hidden_dim(E, config.ff_mult)
    fg = ffn_hidden_dim(G, config.ff_mult)
    fd = ffn_hidden_dim(D, config.ff_mult)
    shapes: dict[str, tuple] = {"byte_embed": (VOCAB, E)}
    if config.hash_vocab > 0:
        for n in config.ngram_sizes:
            shapes[f"hash_embed.n{n}"] = (config.hash_vocab, E)
    shapes["enc.pool_proj"] = (E, G)
    for i in range(config.enc_layers):
        shapes.update(dict(_xattn_names(f"enc.{i}.xattn.", G, E)))
        shapes.update(dict(_layer_names(f"enc.{i}.", E, fe)))
    for i in range(config.global_layers):
        shapes.update(dict(_layer_names(f"global.{i}.", G, fg)))
    shapes["dec.patch_proj"] = (G, k * D)
    shapes["dec.start_kv"] = (k, D)
    for i in range(config.dec_layers):
        shapes.update(dict(_xattn_names(f"dec.{i}.xattn.", D, D)))
        shapes.update(dict(_layer_names(f"dec.{i}.", D, fd)))
    shapes["out_norm"] = (D,)
    shapes["out_proj"] = (D, VOCAB)
    return shapes


def _block_depth(name: str, config: ModelConfig) -> int:
    if name.startswith("enc."):
        return config.enc_layers
    if name.startswith("global."):
        return config.global_layers
    if name.startswith("dec."):
        return config.dec_layers
    return 1


def init_params(config: ModelConfig, seed: int = 0, dtype=np.float32) -> BltParams:
    """Scaled-normal init; residual-out projections shrink with block depth."""
    rng = np.random.Generator(np.random.PCG64(seed))
    tensors: dict[str, Tensor] = {}
    base_std = 0.02
    for name, shape in param_shapes(config).items():
        if name.endswith("norm"):
            data = np.ones(shape)
        else:
            std = base_std
            if name.endswith(("attn.wo", "xattn.wo", "ffn.w_down")):
                std = base_std / math.sqrt(2.0 * _block_depth(name, config))
            data = std * rng.standard_normal(shape)
        tensors[name] = parameter(data.astype(dtype), name)
    meta = {
        "init": "normal(std=0.02, residual_out/sqrt(2*depth))",
        "seed": seed,
        "dtype": np.dtype(dtype).name,
        "rng": "pcg64",
    }
    return BltParams(tensors, meta)


# ---------------------------------------------------------------------------
# Streams: a packed run of documents with patch boundaries
# ---------------------------------------------------------------------------


@dataclass
class Stream:
    """Concatenated document bytes, per-byte doc ids, and patch start indices.

    ``next_byte`` is the byte that follows the stream's last byte in its
    document, when the stream stops short of that document's end; the last
    position is then scored against it.
    """

    data: np.ndarray
    doc_ids: np.ndarray
    patch_starts: np.ndarray
    next_byte: int | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.uint8)
        self.doc_ids = np.asarray(self.doc_ids, dtype=np.int32)
        self.patch_starts = np.asarray(self.patch_starts, dtype=np.int64)
        n = len(self.data)
        if n == 0:
            raise ValueError("empty stream")
        if self.next_byte is not None and not 0 <= self.next_byte < VOCAB:
            raise ValueError(f"next_byte {self.next_byte} is not a byte")
        if len(self.doc_ids) != n:
            raise ValueError("doc_ids length mismatch")
        if np.any(np.diff(self.doc_ids) < 0):
            raise ValueError("doc_ids must be nondecreasing (documents are contiguous)")
        PatchBoundaries(self.patch_starts, n)  # validates order/range
        # every document start must begin a patch, and patches stay inside one doc
        if not np.isin(_run_starts(self.doc_ids), self.patch_starts).all():
            raise ValueError("every document start must start a patch")
        if np.any(self.doc_ids[self.patch_starts] != self.doc_ids[self.boundaries.ends()]):
            raise ValueError("a patch may not span documents")

    @property
    def n_bytes(self) -> int:
        return len(self.data)

    @property
    def n_patches(self) -> int:
        return len(self.patch_starts)

    @property
    def boundaries(self) -> PatchBoundaries:
        return PatchBoundaries(self.patch_starts, len(self.data))

    @property
    def patch_doc_ids(self) -> np.ndarray:
        return self.doc_ids[self.patch_starts]

    @classmethod
    def from_documents(cls, docs: list[np.ndarray], patcher) -> "Stream":
        """Patch each document independently and concatenate."""
        datas, ids, starts = [], [], []
        offset = 0
        for d, arr in enumerate(docs):
            arr = np.asarray(arr, dtype=np.uint8)
            b = patcher(arr)
            datas.append(arr)
            ids.append(np.full(len(arr), d, dtype=np.int32))
            starts.append(b.starts + offset)
            offset += len(arr)
        return cls(np.concatenate(datas), np.concatenate(ids), np.concatenate(starts))


# ---------------------------------------------------------------------------
# Attention structure: one contiguous key span per query
# ---------------------------------------------------------------------------


def _run_starts(ids: np.ndarray) -> np.ndarray:
    """For each position of a nondecreasing id array, the first index with its id:
    a byte's document start, or a patch's first patch of its document."""
    idx = np.arange(len(ids))
    new_run = np.diff(ids, prepend=ids[:1] - 1) != 0
    return np.maximum.accumulate(np.where(new_run, idx, 0))


def local_spans(n_bytes: int, window: int, doc_ids: np.ndarray | None = None) -> Spans:
    """Byte i sees bytes [max(i - window + 1, start of its document), i + 1)."""
    if window < 1:
        raise ValueError("window must be >= 1")
    i = np.arange(n_bytes)
    lo = np.maximum(i - window + 1, 0)
    if doc_ids is not None:
        lo = np.maximum(lo, _run_starts(doc_ids))
    return Spans(lo, i + 1)


def latent_spans(patch_doc_ids: np.ndarray) -> Spans:
    """Patch j sees patches [first patch of its document, j + 1)."""
    return Spans(_run_starts(patch_doc_ids), np.arange(1, len(patch_doc_ids) + 1))


def membership_spans(boundaries: PatchBoundaries) -> Spans:
    """Patch query j sees the bytes of patch j: [start_j, end_j + 1)."""
    return Spans(boundaries.starts, boundaries.ends() + 1)


def completed_patch_spans(boundaries: PatchBoundaries, doc_ids: np.ndarray, slots: int) -> Spans:
    """Byte i sees one block of ``slots`` keys over [start slots; patch slots]:
    block j + 1 for the last patch j of its document that ends at or before i,
    or block 0, the start slots, while its document has no such patch.
    """
    i = np.arange(boundaries.n_bytes)
    completed = np.searchsorted(boundaries.ends(), i, side="right")
    block = np.where(completed > boundaries.patch_of(_run_starts(doc_ids)), completed, 0)
    return Spans(slots * block, slots * (block + 1))


@dataclass
class AttentionMask:
    """Dense view of a ``Spans`` structure; tests use it as the reference."""

    kind: str
    allowed: np.ndarray  # bool (n_queries, n_keys)

    def additive(self, dtype) -> np.ndarray:
        return np.where(self.allowed, 0.0, -np.inf).astype(dtype)


def local_block_causal_mask(n_bytes: int, window: int, doc_ids: np.ndarray | None = None) -> AttentionMask:
    """Query i sees key j iff j <= i, i - j < window, and both share a document."""
    return AttentionMask(f"local_block_causal({window})",
                         local_spans(n_bytes, window, doc_ids).dense(n_bytes))


def block_causal_patch_mask(patch_doc_ids: np.ndarray) -> AttentionMask:
    """Patch j sees patch j' iff j' <= j within the same document."""
    return AttentionMask("block_causal_patches",
                         latent_spans(patch_doc_ids).dense(len(patch_doc_ids)))


def patch_membership_mask(boundaries: PatchBoundaries) -> AttentionMask:
    """Patch query j sees byte i iff byte i belongs to patch j."""
    return AttentionMask("patch_membership",
                         membership_spans(boundaries).dense(boundaries.n_bytes))


def completed_patch_mask(boundaries: PatchBoundaries, doc_ids: np.ndarray) -> AttentionMask:
    """Byte i sees patch j (column j + 1) iff j is the last patch of i's
    document that ends at or before i, and the learned start slot (column 0)
    while its document has no such patch."""
    return AttentionMask("last_completed_patch",
                         completed_patch_spans(boundaries, doc_ids, 1).dense(boundaries.n_patches + 1))


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------

RMS_EPS = 1e-6


def rms_norm(x: Tensor, gain: Tensor) -> Tensor:
    ms = (x * x).mean(axis=-1, keepdims=True)
    return x * ((ms + RMS_EPS) ** -0.5) * gain


def rope_cache(positions: np.ndarray, head_dim: int, theta: float, dtype) -> tuple[np.ndarray, np.ndarray]:
    half = head_dim // 2
    inv_freq = theta ** (-np.arange(half, dtype=np.float64) * 2.0 / head_dim)
    angles = positions[:, None].astype(np.float64) * inv_freq[None, :]
    return np.cos(angles).astype(dtype), np.sin(angles).astype(dtype)


def apply_rope(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotate (heads, n, head_dim) queries/keys pairwise over even/odd channels."""
    h, n, d = x.shape
    xe = x[..., 0::2]
    xo = x[..., 1::2]
    out_e = xe * cos - xo * sin
    out_o = xe * sin + xo * cos
    paired = concat([out_e.reshape(h, n, d // 2, 1), out_o.reshape(h, n, d // 2, 1)], axis=-1)
    return paired.reshape(h, n, d)


def _split_heads(x: Tensor, heads: int) -> Tensor:
    n, d = x.shape
    return x.reshape(n, heads, d // heads).swapaxes(0, 1)


def _merge_heads(x: Tensor) -> Tensor:
    h, n, dh = x.shape
    return x.swapaxes(0, 1).reshape(n, h * dh)


def self_attention_block(x: Tensor, params: BltParams, prefix: str, heads: int,
                         spans: Spans, rope: tuple[np.ndarray, np.ndarray]) -> Tensor:
    xn = rms_norm(x, params[f"{prefix}attn_norm"])
    q = _split_heads(xn @ params[f"{prefix}attn.wq"], heads)
    k = _split_heads(xn @ params[f"{prefix}attn.wk"], heads)
    v = _split_heads(xn @ params[f"{prefix}attn.wv"], heads)
    cos, sin = rope
    q = apply_rope(q, cos, sin)
    k = apply_rope(k, cos, sin)
    return x + _merge_heads(span_attention(q, k, v, spans)) @ params[f"{prefix}attn.wo"]


def ffn_block(x: Tensor, params: BltParams, prefix: str) -> Tensor:
    xn = rms_norm(x, params[f"{prefix}ffn_norm"])
    gated = (xn @ params[f"{prefix}ffn.w_gate"]).silu() * (xn @ params[f"{prefix}ffn.w_up"])
    return x + gated @ params[f"{prefix}ffn.w_down"]


def transformer_layer(x: Tensor, params: BltParams, prefix: str, heads: int,
                      spans: Spans, rope: tuple[np.ndarray, np.ndarray]) -> Tensor:
    x = self_attention_block(x, params, prefix, heads, spans, rope)
    return ffn_block(x, params, prefix)


def cross_attention_block(q_in: Tensor, kv_in: Tensor, params: BltParams, prefix: str,
                          heads: int, spans: Spans) -> Tensor:
    """Pre-normed multi-head cross-attention with residual; no positional encoding."""
    qn = rms_norm(q_in, params[f"{prefix}q_norm"])
    kvn = rms_norm(kv_in, params[f"{prefix}kv_norm"])
    q = _split_heads(qn @ params[f"{prefix}wq"], heads)
    k = _split_heads(kvn @ params[f"{prefix}wk"], heads)
    v = _split_heads(kvn @ params[f"{prefix}wv"], heads)
    return q_in + _merge_heads(span_attention(q, k, v, spans)) @ params[f"{prefix}wo"]


# ---------------------------------------------------------------------------
# Embedding augmentation: byte embeddings plus hash n-gram embeddings
# ---------------------------------------------------------------------------


def augmented_byte_embeddings(params: BltParams, stream: Stream, config: ModelConfig) -> Tensor:
    """Byte embeddings plus per-size hash n-gram embeddings, averaged.

    n-grams never cross document boundaries: a size is available at a position
    only once the document provides that many bytes. The whole stream is
    hashed at once, and a gram whose first byte would lie before its
    document's start is masked out.
    """
    dtype = params["byte_embed"].dtype
    e = embedding(params["byte_embed"], stream.data)
    if config.hash_vocab <= 0 or not config.ngram_sizes:
        return e
    n = stream.n_bytes
    offset = np.arange(n) - _run_starts(stream.doc_ids)  # position within the document
    divisor = np.ones(n, dtype=dtype)
    total = e
    for size, grams in hash_ngram_ids(stream.data, config.ngram_sizes, config.hash_vocab).items():
        valid = offset >= size - 1
        ids = np.zeros(n, dtype=np.int64)
        ids[size - 1 :] = grams
        total = total + embedding(params[f"hash_embed.n{size}"], ids) * valid.astype(dtype)[:, None]
        divisor += valid.astype(dtype)
    return total * (1.0 / divisor)[:, None]

# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------


def _local_spans(stream: Stream, window: int, cache: dict | None) -> Spans:
    cache = {} if cache is None else cache
    if window not in cache:
        cache[window] = local_spans(stream.n_bytes, window, stream.doc_ids)
    return cache[window]


def encoder_forward(params: BltParams, stream: Stream, config: ModelConfig,
                    span_cache: dict | None = None) -> tuple[Tensor, Tensor]:
    """Byte states for the decoder plus patch representations for the latent model.

    Patch queries are initialized by max pooling the augmented byte embeddings
    of each patch and projecting to global width; each cross-attention layer uses
    the byte states from before that layer's transformer (the embeddings for
    the first layer) as keys/values, restricted to the query's own patch.
    ``span_cache`` shares the local attention spans with ``decoder_forward``.
    """
    dtype = params["byte_embed"].dtype
    bounds = stream.boundaries
    e = augmented_byte_embeddings(params, stream, config)
    p = segment_max(e, stream.patch_starts) @ params["enc.pool_proj"]

    byte_spans = _local_spans(stream, config.enc_window, span_cache)
    memb_spans = membership_spans(bounds)
    rope = rope_cache(np.arange(stream.n_bytes), config.enc_dim // config.enc_heads,
                      config.rope_theta, dtype)
    h = e
    for i in range(config.enc_layers):
        p = cross_attention_block(p, h, params, f"enc.{i}.xattn.", config.k, memb_spans)
        h = transformer_layer(h, params, f"enc.{i}.", config.enc_heads, byte_spans, rope)
    return h, p


def global_forward(params: BltParams, patches: Tensor, patch_doc_ids: np.ndarray,
                   config: ModelConfig) -> Tensor:
    """Causal transformer over patch representations within each document."""
    dtype = patches.dtype
    m = patches.shape[0]
    spans = latent_spans(patch_doc_ids)
    rope = rope_cache(np.arange(m), config.global_dim // config.global_heads,
                      config.rope_theta, dtype)
    o = patches
    for i in range(config.global_layers):
        o = transformer_layer(o, params, f"global.{i}.", config.global_heads, spans, rope)
    return o


def decoder_forward(params: BltParams, byte_states: Tensor, latent_out: Tensor,
                    stream: Stream, config: ModelConfig,
                    span_cache: dict | None = None) -> Tensor:
    """Byte logits from encoder byte states and latent patch outputs.

    Each latent output is linearly mapped and split into k decoder-width
    key/value slots, which follow the k learned start slots. The byte query at
    position i attends to the k slots of the last patch that ends at or before
    i in its document, or to the start slots while there is none, so no
    information from inside its own patch leaks backward. A windowed causal
    transformer layer then refines the byte sequence.
    """
    dtype = byte_states.dtype
    k, d = config.k, config.dec_dim
    m = latent_out.shape[0]
    slots = (latent_out @ params["dec.patch_proj"]).reshape(m * k, d)
    kv = concat([params["dec.start_kv"], slots], axis=0)

    xattn_spans = completed_patch_spans(stream.boundaries, stream.doc_ids, k)
    byte_spans = _local_spans(stream, config.dec_window, span_cache)
    rope = rope_cache(np.arange(stream.n_bytes), d // config.dec_heads, config.rope_theta, dtype)

    x = byte_states
    for i in range(config.dec_layers):
        x = cross_attention_block(x, kv, params, f"dec.{i}.xattn.", config.dec_heads, xattn_spans)
        x = transformer_layer(x, params, f"dec.{i}.", config.dec_heads, byte_spans, rope)
    return rms_norm(x, params["out_norm"]) @ params["out_proj"]


@dataclass
class ForwardResult:
    logits: Tensor  # (n, 256)
    nll: Tensor  # (n,) nats; meaningful only where loss_mask is set
    loss: Tensor  # scalar: mean nats per predicted byte
    loss_mask: np.ndarray
    n_predicted: int

    @property
    def total_nats(self) -> float:
        return float((self.nll.data * self.loss_mask).sum())


def lm_forward(params: BltParams, stream: Stream, config: ModelConfig) -> ForwardResult:
    """Full composition: augmented embeddings -> encoder -> latent -> decoder -> loss.

    Position i predicts byte i+1; positions whose successor crosses a document
    boundary (or does not exist) are excluded from the loss. The last position
    predicts ``stream.next_byte`` when it is set.
    """
    span_cache: dict = {}
    h, p = encoder_forward(params, stream, config, span_cache)
    o = global_forward(params, p, stream.patch_doc_ids, config)
    logits = decoder_forward(params, h, o, stream, config, span_cache)

    n = stream.n_bytes
    targets = np.zeros(n, dtype=np.int64)
    targets[: n - 1] = stream.data[1:]
    mask = np.zeros(n, dtype=bool)
    mask[: n - 1] = stream.doc_ids[1:] == stream.doc_ids[: n - 1]
    if stream.next_byte is not None:
        targets[n - 1] = stream.next_byte
        mask[n - 1] = True
    n_pred = int(mask.sum())
    if n_pred == 0:
        raise NumericError("stream has no predictable positions")
    nll = nll_from_logits(logits, targets)
    loss = (nll * mask.astype(logits.dtype)).sum() * (1.0 / n_pred)
    if not np.isfinite(loss.data):
        raise NumericError("non-finite loss")
    return ForwardResult(logits, nll, loss, mask, n_pred)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


GRAD_CHECK_ABS_FLOOR = 1e-7  # an absolute difference this small passes whatever its ratio


def grad_check(params: BltParams, stream: Stream, config: ModelConfig,
               eps: float = 1e-5, samples_per_tensor: int = 4, seed: int = 0) -> dict:
    """Central-difference check of every parameter tensor at 64-bit precision.

    Samples a few entries per tensor; an entry passes when the analytic and
    numeric values agree to a relative error of 1e-4, or to
    ``GRAD_CHECK_ABS_FLOOR`` absolutely for near-zero gradients. Returns a
    per-tensor report.
    """
    p64 = params.astype(np.float64)
    view = p64.detached()  # shares p64's arrays, so the perturbations below show

    def loss_value() -> float:
        return float(lm_forward(view, stream, config).loss.data)

    res = lm_forward(p64, stream, config)
    res.loss.backward()
    rng = np.random.Generator(np.random.PCG64(seed))
    report: dict[str, dict] = {}
    worst = 0.0
    for name, t in p64.tensors.items():
        grad = t.grad if t.grad is not None else np.zeros_like(t.data)
        if not np.all(np.isfinite(grad)):
            raise NumericError(f"non-finite analytic gradient in {name}")
        idxs = rng.choice(t.data.size, size=min(samples_per_tensor, t.data.size), replace=False)
        max_rel = 0.0
        for flat in idxs:
            orig = t.data.flat[flat]
            t.data.flat[flat] = orig + eps
            f_plus = loss_value()
            t.data.flat[flat] = orig - eps
            f_minus = loss_value()
            t.data.flat[flat] = orig
            numeric = (f_plus - f_minus) / (2 * eps)
            analytic = float(grad.flat[flat])
            diff = abs(analytic - numeric)
            if diff > GRAD_CHECK_ABS_FLOOR:
                max_rel = max(max_rel, diff / max(abs(analytic), abs(numeric)))
        report[name] = {"max_rel_err": max_rel, "passed": max_rel < 1e-4}
        worst = max(worst, max_rel)
    return {"tensors": report, "max_rel_err": worst, "passed": worst < 1e-4}
