"""Exact forward-FLOP accounting for the patch architecture, plus size matching.

All primitives are evaluated in rational arithmetic (``fractions.Fraction``),
so integer inputs give exact integer counts and a fractional mean patch size
stays exact until the report edge. Training cost is modeled as three times
the forward cost (backward counted at twice forward).

The per-byte decomposition sums the latent transformer amortized over the
mean patch size, the two local transformers at their attention windows, and
the two cross-attention blocks. Encoder cross-attention takes the block's
local width as the per-head dimension and the width ratio k as the head
count, so its projection term runs at global width.

Decoder cross-attention is counted as executed, which departs from the
paper's convention: each byte scores exactly one patch's k slots, where the
causal average (p+1)/2 at p = k would charge (k+1)/2; the projections run at
decoder width, not at k heads of it; and the keys add one set of k start slots
per n_ctx-byte stream. Local self-attention runs over each byte's window only,
O(window) per byte as counted here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import ConfigError
from .model import ModelConfig, param_shapes

Number = int | float | Fraction

TRAIN_OVER_FORWARD = 3  # forward + 2x backward


class SizeMatchError(ConfigError):
    def __init__(self, msg: str, bracket: tuple | None = None):
        super().__init__(msg)
        self.bracket = bracket


def _fr(x: Number) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def attention_flops(l: Number, h_k: Number, n_heads: Number, m: Number) -> Fraction:
    """Score and mix cost per token at average causal context (m+1)/2."""
    return 4 * _fr(l) * _fr(h_k) * _fr(n_heads) * (_fr(m) + 1) / 2


def qkvo_flops(l: Number, h: Number, r: Number) -> Fraction:
    """Query/output projections per token plus key/value projections scaled by
    the key-to-query ratio r."""
    return (_fr(r) * 2 + 2) * 2 * _fr(l) * _fr(h) ** 2


def feed_forward_flops(l: Number, h: Number, d_ff: Number = 4) -> Fraction:
    return 2 * _fr(l) * 2 * _fr(h) * (_fr(d_ff) * _fr(h))


def de_embedding_flops(h: Number, vocab: Number) -> Fraction:
    return 2 * _fr(h) * _fr(vocab)


def transformer_flops_per_token(
    l: Number, h: Number, m: Number,
    n_heads: Number | None = None, h_k: Number | None = None,
    d_ff: Number = 4, vocab: Number = 0,
) -> Fraction:
    """Feed-forward + self-attention projections + attention + de-embedding.

    Only the product h_k * n_heads enters the count; when not given it
    defaults to the full width h.
    """
    if n_heads is None or h_k is None:
        n_heads, h_k = 1, h
    return (
        feed_forward_flops(l, h, d_ff)
        + qkvo_flops(l, h, r=1)
        + attention_flops(l, h_k, n_heads, m)
        + de_embedding_flops(h, vocab)
    )


def cross_attention_flops(l: Number, h_k: Number, n_heads: Number, p: Number, r: Number) -> Fraction:
    return attention_flops(l, h_k, n_heads, p) + qkvo_flops(l, _fr(h_k) * _fr(n_heads), r)


@dataclass
class FlopsReport:
    """Per-component forward FLOPs per byte (exact rationals)."""

    latent: Fraction
    encoder_transformer: Fraction
    decoder_transformer: Fraction
    encoder_xattn: Fraction
    decoder_xattn: Fraction

    @property
    def total_forward(self) -> Fraction:
        return (self.latent + self.encoder_transformer + self.decoder_transformer
                + self.encoder_xattn + self.decoder_xattn)

    @property
    def total_train(self) -> Fraction:
        return TRAIN_OVER_FORWARD * self.total_forward

    def components(self) -> dict[str, Fraction]:
        return {
            "latent": self.latent,
            "encoder_transformer": self.encoder_transformer,
            "decoder_transformer": self.decoder_transformer,
            "encoder_xattn": self.encoder_xattn,
            "decoder_xattn": self.decoder_xattn,
        }

    def as_floats(self) -> dict[str, float]:
        out = {k: float(v) for k, v in self.components().items()}
        out["total_forward"] = float(self.total_forward)
        out["total_train"] = float(self.total_train)
        return out


def blt_flops_per_byte(config: ModelConfig, n_ctx: Number, n_p: Number) -> FlopsReport:
    """Forward FLOPs per byte for a configuration at mean patch size n_p.

    The latent transformer runs once per patch over a patch-level context of
    n_ctx / n_p, so its per-byte share divides by n_p. Byte embedding lookup
    is a zero-FLOP table access and contributes nothing.
    """
    n_p = _fr(n_p)
    if n_p <= 0:
        raise ConfigError("mean patch size must be positive")
    n_ctx = _fr(n_ctx)
    if n_ctx <= 0:
        raise ConfigError("context length must be positive")
    d_ff = config.ff_mult
    k = config.k
    zero = Fraction(0)
    latent = transformer_flops_per_token(
        config.global_layers, config.global_dim, n_ctx / n_p, d_ff=d_ff, vocab=0
    ) / n_p
    # a zero-layer local block is absent entirely (including its output vocab
    # projection), leaving the latent transformer as the whole model
    enc_t = zero if config.enc_layers == 0 else transformer_flops_per_token(
        config.enc_layers, config.enc_dim, config.enc_window, d_ff=d_ff, vocab=0
    )
    dec_t = zero if config.dec_layers == 0 else transformer_flops_per_token(
        config.dec_layers, config.dec_dim, config.dec_window, d_ff=d_ff, vocab=256
    )
    enc_x = cross_attention_flops(config.enc_layers, config.enc_dim, k, p=n_p, r=n_p / k) * k / n_p
    dec_x = zero if config.dec_layers == 0 else (
        4 * config.dec_layers * config.dec_dim * k  # score and mix over k keys
        + qkvo_flops(config.dec_layers, config.dec_dim, r=k / n_p + k / n_ctx)
        + 2 * config.global_dim * k * config.dec_dim / n_p  # latent output -> k slots
    )
    return FlopsReport(latent, enc_t, dec_t, enc_x, dec_x)


def non_embedding_params(config: ModelConfig) -> int:
    """Trainable parameter count excluding the byte and hash embedding tables."""
    return sum(math.prod(shape) for name, shape in param_shapes(config).items()
               if "embed" not in name)


def total_params(config: ModelConfig) -> int:
    return sum(math.prod(shape) for shape in param_shapes(config).values())


# ---------------------------------------------------------------------------
# Size matching: find a config hitting a FLOPs-per-byte target
# ---------------------------------------------------------------------------


@dataclass
class ConfigFamily:
    """A one-axis family of configurations; flops must be monotone in the axis."""

    build: Callable[[int], ModelConfig]
    lo: int
    hi: int


def width_family(template: ModelConfig, lo: int | None = None, hi: int | None = None,
                 step: int | None = None) -> ConfigFamily:
    """Vary the local width (and with it global width at fixed ratio k).

    The step keeps head dims even and divisible by the head counts.
    """
    k = template.k
    if step is None:
        step = max(2 * template.enc_heads,
                   (2 * template.global_heads + k - 1) // k)
        # global_dim = k * enc_dim must stay divisible by global_heads with even head dim
        while (k * step) % (2 * template.global_heads) != 0:
            step += 1
    lo = lo if lo is not None else 1
    hi = hi if hi is not None else 4096 // step

    def build(axis: int) -> ModelConfig:
        e = axis * step
        return ModelConfig.from_dict(
            dict(template.to_dict(), enc_dim=e, global_dim=k * e)
        )

    return ConfigFamily(build, lo, hi)


def size_match(target_flops_per_byte: Number, family: ConfigFamily, n_ctx: Number, n_p: Number,
               tol: float = 0.005) -> tuple[ModelConfig, Fraction]:
    """Bisect the family's axis until forward FLOPs/byte is within tol of target.

    Raises SizeMatchError with the bracket when the family cannot reach the
    target at the requested tolerance.
    """
    target = _fr(target_flops_per_byte)
    if target <= 0:
        raise SizeMatchError("target must be positive")

    def f(axis: int) -> Fraction:
        return blt_flops_per_byte(family.build(axis), n_ctx, n_p).total_forward

    lo, hi = family.lo, family.hi
    f_lo, f_hi = f(lo), f(hi)
    if not (f_lo <= target <= f_hi):
        raise SizeMatchError(
            f"target {float(target):.3e} outside family range "
            f"[{float(f_lo):.3e}, {float(f_hi):.3e}]",
            bracket=(float(f_lo), float(f_hi)),
        )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    best_axis, best_err = None, None
    for axis in (lo, hi):
        err = abs(f(axis) - target) / target
        if best_err is None or err < best_err:
            best_axis, best_err = axis, err
    if best_err > tol:
        raise SizeMatchError(
            f"closest achievable FLOPs/byte misses target by {float(best_err):.2%} "
            f"(> {tol:.2%}); bracket axis [{lo}, {hi}] -> "
            f"[{float(f(lo)):.3e}, {float(f(hi)):.3e}]",
            bracket=(float(f(lo)), float(f(hi))),
        )
    return family.build(best_axis), f(best_axis)
