"""Three-block byte model: local byte encoder, latent patch transformer, byte decoder.

The encoder contextualizes bytes with windowed causal attention and pools them
into patch queries that cross-attend only to their own patch's bytes. The
latent transformer runs causally over patches. The decoder interchanges the
cross-attention roles: byte queries attend to split projections of the latent
outputs, restricted to the last patch that is already complete at the query
position, so no information from inside the current patch can leak backward.

Each of the four attention patterns gives every query one contiguous span of
keys, a ``tensor.Spans``, built once per forward; ``tensor.attention`` scores
it tile by tile without building an (n_queries, n_keys) array, under the tile
plan the span set builds once and shares across the layers that attend over
it. Local self-attention therefore costs O(window) per byte, and decoder
cross-attention k keys per byte, the k slots of one patch, as
``flops.blt_flops_per_byte`` charges. The ``*_mask`` builders are dense views
of the same predicates. The forward path calls none of them; they stay
because ``perfbench/tracing.py`` wraps them by name, and tests use them as
dense references.

The norm, attention, feed-forward and embedding blocks are single autodiff
ops (``tensor.rms_norm``, ``attention``, ``gated_ffn`` and
``embedding_mean``); the ``tensor`` module docstring says what each keeps
for its backward and what it recomputes.

Some widths and constants are fixed rather than configured. The decoder
works at encoder width by construction, since it starts from the encoder's
byte states, so ``ModelConfig.dec_dim`` is ``enc_dim``. Patch queries are
initialised by max pooling, the hash multiplier is ``ngram_hash``'s fixed
prime, and feed-forward widths round up to a multiple of 8. The maximum patch
size is part of segmentation, not of the model: ``PatchingConfig`` holds it,
and the model accepts patches of any length.

Everything runs on the package's numpy autodiff; ``BltParams.astype`` gives
the float64 mode of the finite-difference gradient check in ``tests/gradcheck.py``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, asdict, field

import numpy as np

from .errors import ConfigError, NumericError
from .ngram_hash import hash_ngram_ids
from .patching import PatchBoundaries
from .tensor import (
    Spans,
    Tensor,
    attention,
    concat,
    embedding_mean,
    gated_ffn,
    nll_from_logits,
    parameter,
    rms_norm,
    rope_cache,
    segment_max,
    softmax,  # noqa: F401  re-exported: perfbench/tracing.py wraps model.softmax
)

VOCAB = 256


def ffn_hidden_dim(dim: int, ff_mult: int) -> int:
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
    ngram_sizes: tuple = (3, 4, 5, 6, 7, 8)  # empty: no hash embeddings
    hash_vocab: int = 4096  # buckets per n-gram size

    def __post_init__(self):
        self.ngram_sizes = tuple(sorted(self.ngram_sizes))
        if (min(self.enc_dim, self.global_dim, self.enc_heads, self.global_heads, self.dec_heads,
                self.enc_window, self.dec_window, self.ff_mult, self.dec_layers, self.hash_vocab,
                *self.ngram_sizes) < 1 or min(self.enc_layers, self.global_layers) < 0):
            raise ConfigError("enc_layers and global_layers must be >= 0, other sizes >= 1")
        if not 0 < self.rope_theta < math.inf:  # NaN fails
            raise ConfigError(f"rope_theta must be finite and > 0, got {self.rope_theta}")
        if len(set(self.ngram_sizes)) < len(self.ngram_sizes):
            raise ConfigError(f"ngram_sizes {list(self.ngram_sizes)} repeats a size")
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


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


class BltParams:
    """Named parameter tensors."""

    def __init__(self, tensors: dict[str, Tensor]):
        self.tensors = tensors

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def items(self):
        return self.tensors.items()

    def zero_grad(self):
        for t in self.tensors.values():
            t.grad = None

    def detached(self) -> "BltParams":
        """The same parameters as tensors that share each ``data`` array but
        require no grad.

        A forward pass over the view records no parents or vjp closures, so it
        builds no autodiff graph; in-place updates of the parameters show in
        the view.
        """
        return BltParams({k: Tensor(t.data, name=k) for k, t in self.tensors.items()})

    def astype(self, dtype) -> "BltParams":
        return BltParams({k: parameter(t.data.astype(dtype), k) for k, t in self.tensors.items()})


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


def init_params(config: ModelConfig, seed: int = 0) -> BltParams:
    """Scaled-normal init; residual-out projections shrink with block depth."""
    rng = np.random.Generator(np.random.PCG64(seed))
    tensors: dict[str, Tensor] = {}
    base_std = 0.02
    depth = {"enc": config.enc_layers, "global": config.global_layers, "dec": config.dec_layers}
    for name, shape in param_shapes(config).items():
        if name.endswith("norm"):
            data = np.ones(shape)
        else:
            std = base_std
            if name.endswith(("attn.wo", "ffn.w_down")):
                std = base_std / math.sqrt(2.0 * depth[name.split(".", 1)[0]])
            data = std * rng.standard_normal(shape)
        tensors[name] = parameter(data.astype(np.float32), name)
    return BltParams(tensors)


# ---------------------------------------------------------------------------
# Streams: a packed run of documents with patch boundaries
# ---------------------------------------------------------------------------


@dataclass
class Stream:
    """Concatenated document bytes, per-byte doc ids, and patch start indices.

    ``concat`` builds every stream the trainer and the evaluator score.
    """

    data: np.ndarray
    doc_ids: np.ndarray
    patch_starts: np.ndarray
    boundaries: PatchBoundaries = field(init=False, compare=False)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.uint8)
        self.doc_ids = np.asarray(self.doc_ids, dtype=np.int32)
        self.patch_starts = np.asarray(self.patch_starts, dtype=np.int64)
        n = len(self.data)
        if n == 0:
            raise ValueError("empty stream")
        if len(self.doc_ids) != n:
            raise ValueError("doc_ids length mismatch")
        if np.any(np.diff(self.doc_ids) < 0):
            raise ValueError("doc_ids must be nondecreasing (documents are contiguous)")
        self.boundaries = PatchBoundaries(self.patch_starts, n)  # validates order/range
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
    def patch_doc_ids(self) -> np.ndarray:
        return self.doc_ids[self.patch_starts]

    @classmethod
    def concat(cls, pieces) -> "Stream":
        """One stream of ``(bytes, patch starts within those bytes)`` pieces,
        each a document of its own."""
        datas = [np.asarray(data, dtype=np.uint8) for data, _ in pieces]
        lengths = [len(d) for d in datas]
        offsets = np.cumsum([0] + lengths[:-1])
        return cls(np.concatenate(datas), np.repeat(np.arange(len(datas), dtype=np.int32), lengths),
                   np.concatenate([starts + off for (_, starts), off in zip(pieces, offsets)]))

    @classmethod
    def from_documents(cls, docs: list[np.ndarray], patcher) -> "Stream":
        """Patch each document independently and concatenate."""
        return cls.concat([(d, patcher(d).starts) for d in docs])


# ---------------------------------------------------------------------------
# Attention structure: one contiguous key span per query
# ---------------------------------------------------------------------------


def _run_starts(ids: np.ndarray) -> np.ndarray:
    """For each position of a nondecreasing id array, the first index with its id:
    a byte's document start, or a patch's first patch of its document."""
    idx = np.arange(len(ids))
    new_run = np.diff(ids, prepend=ids[:1] - 1) != 0
    return np.maximum.accumulate(np.where(new_run, idx, 0))


def local_spans(n_bytes: int, window: int, doc_ids: np.ndarray) -> Spans:
    """Byte i sees bytes [max(i - window + 1, start of its document), i + 1)."""
    if window < 1:
        raise ValueError("window must be >= 1")
    i = np.arange(n_bytes)
    return Spans(np.maximum(i - window + 1, _run_starts(doc_ids)), i + 1)


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


def local_block_causal_mask(n_bytes: int, window: int, doc_ids: np.ndarray) -> AttentionMask:
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


def transformer_layer(x: Tensor, params: BltParams, prefix: str, heads: int,
                      spans: Spans, rope: tuple[np.ndarray, np.ndarray]) -> Tensor:
    """Pre-normed self-attention then SwiGLU feed-forward, each with residual."""
    xn = rms_norm(x, params[f"{prefix}attn_norm"], RMS_EPS)
    x = x + attention(xn, xn, params[f"{prefix}attn.wq"], params[f"{prefix}attn.wk"],
                      params[f"{prefix}attn.wv"], params[f"{prefix}attn.wo"], heads, spans, rope)
    xn = rms_norm(x, params[f"{prefix}ffn_norm"], RMS_EPS)
    return x + gated_ffn(xn, params[f"{prefix}ffn.w_gate"], params[f"{prefix}ffn.w_up"],
                         params[f"{prefix}ffn.w_down"])


def cross_attention_block(q_in: Tensor, kv_in: Tensor, params: BltParams, prefix: str,
                          heads: int, spans: Spans) -> Tensor:
    """Pre-normed multi-head cross-attention with residual; no positional encoding."""
    qn = rms_norm(q_in, params[f"{prefix}q_norm"], RMS_EPS)
    kvn = rms_norm(kv_in, params[f"{prefix}kv_norm"], RMS_EPS)
    return q_in + attention(qn, kvn, params[f"{prefix}wq"], params[f"{prefix}wk"],
                            params[f"{prefix}wv"], params[f"{prefix}wo"], heads, spans)


# ---------------------------------------------------------------------------
# Embedding augmentation: byte embeddings plus hash n-gram embeddings
# ---------------------------------------------------------------------------


def augmented_byte_embeddings(params: BltParams, stream: Stream, config: ModelConfig) -> Tensor:
    """Byte embeddings plus per-size hash n-gram embeddings, averaged.

    n-grams never cross document boundaries: a size is available at a position
    only once the document provides that many bytes. The whole stream is
    hashed at once, and a gram whose first byte would lie before its
    document's start is masked out of the mean.
    """
    n = stream.n_bytes
    offset = np.arange(n) - _run_starts(stream.doc_ids)  # position within the document
    lookups = [(params["byte_embed"], stream.data, None)]
    for size, grams in hash_ngram_ids(stream.data, config.ngram_sizes, config.hash_vocab).items():
        ids = np.zeros(n, dtype=np.int64)
        ids[size - 1 :] = grams
        lookups.append((params[f"hash_embed.n{size}"], ids, offset >= size - 1))
    return embedding_mean(lookups)

# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------


def _local_spans(stream: Stream, window: int, cache: dict) -> Spans:
    if window not in cache:
        cache[window] = local_spans(stream.n_bytes, window, stream.doc_ids)
    return cache[window]


def _byte_rope(stream: Stream, head_dim: int, config: ModelConfig, dtype,
               cache: dict) -> tuple[np.ndarray, np.ndarray]:
    key = ("rope", head_dim, np.dtype(dtype))
    if key not in cache:
        cache[key] = rope_cache(np.arange(stream.n_bytes), head_dim, config.rope_theta, dtype)
    return cache[key]


def encoder_forward(params: BltParams, stream: Stream, config: ModelConfig,
                    span_cache: dict) -> tuple[Tensor, Tensor]:
    """Byte states for the decoder plus patch representations for the latent model.

    Patch queries are initialized by max pooling the augmented byte embeddings
    of each patch and projecting to global width; each cross-attention layer uses
    the byte states from before that layer's transformer (the embeddings for
    the first layer) as keys/values, restricted to the query's own patch.
    ``span_cache`` shares the local attention spans and the byte rotary
    tables with ``decoder_forward``.
    """
    dtype = params["byte_embed"].dtype
    e = augmented_byte_embeddings(params, stream, config)
    p = segment_max(e, stream.patch_starts) @ params["enc.pool_proj"]

    byte_spans = _local_spans(stream, config.enc_window, span_cache)
    memb_spans = membership_spans(stream.boundaries)
    rope = _byte_rope(stream, config.enc_dim // config.enc_heads, config, dtype, span_cache)
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
                    span_cache: dict) -> Tensor:
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
    rope = _byte_rope(stream, d // config.dec_heads, config, dtype, span_cache)

    x = byte_states
    for i in range(config.dec_layers):
        x = cross_attention_block(x, kv, params, f"dec.{i}.xattn.", config.dec_heads, xattn_spans)
        x = transformer_layer(x, params, f"dec.{i}.", config.dec_heads, byte_spans, rope)
    return rms_norm(x, params["out_norm"], RMS_EPS) @ params["out_proj"]


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
    boundary (or does not exist) are excluded from the loss.
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
    n_pred = int(mask.sum())
    if n_pred == 0:
        raise NumericError("stream has no predictable positions")
    nll = nll_from_logits(logits, targets)
    loss = (nll * mask.astype(logits.dtype)).sum() * (1.0 / n_pred)
    if not np.isfinite(loss.data):
        raise NumericError("non-finite loss")
    return ForwardResult(logits, nll, loss, mask, n_pred)
