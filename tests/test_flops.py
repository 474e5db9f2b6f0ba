import math
from fractions import Fraction

import numpy as np
import pytest

from patchlm.flops import (
    attention_flops,
    blt_flops_per_byte,
    cross_attention_flops,
    de_embedding_flops,
    feed_forward_flops,
    non_embedding_params,
    qkvo_flops,
    size_match,
    transformer_flops_per_token,
    width_family,
)
from patchlm import textgen
from patchlm.errors import ConfigError
from patchlm.model import ModelConfig, Stream, completed_patch_spans, init_params, param_shapes
from patchlm.patching import patch_space


def test_de_embedding_plugin():
    assert de_embedding_flops(4096, 256) == 2_097_152
    assert de_embedding_flops(4096, 0) == 0  # latent/encoder case


def test_minimal_transformer_plugin():
    # feed-forward 16 + projections 8 + attention 4, no output vocab
    assert transformer_flops_per_token(1, 1, 1, 4, 0) == 28


def test_components_are_exact_integers():
    val = transformer_flops_per_token(24, 1280, 8192, 4, 0)
    assert isinstance(val, Fraction) and val.denominator == 1


def test_attention_halving_form_at_zero_context():
    assert cross_attention_flops(2, 8, 4, 0, 1) - qkvo_flops(2, 32, 1) == 2 * 2 * 8 * 4


def test_qkvo_r1_matches_self_attention_projections():
    assert qkvo_flops(3, 64, 1) == 8 * 3 * 64**2


def test_cross_attention_linear_in_heads():
    lo = attention_flops(1, 16, 2, 10)
    hi = attention_flops(1, 16, 4, 10)
    assert hi == 2 * lo


def test_blt_report_additivity_and_positivity():
    cfg = ModelConfig()
    rep = blt_flops_per_byte(cfg, n_ctx=4096, n_p=Fraction(9, 2))
    comps = rep.components()
    assert sum(comps.values()) == rep.total_forward
    assert all(v > 0 for v in comps.values())
    assert rep.total_train == 3 * rep.total_forward


def test_decoder_xattn_equals_executed_count():
    # the FLOPs decoder_forward executes on a 4,096-byte stream of two
    # documents, from the spans and the parameter shapes: projections of the
    # latent outputs to slots, of the byte queries and outputs, of the start and
    # patch slots to keys and values, and score plus mix over each byte's keys
    cfg = ModelConfig()
    text = np.frombuffer(textgen.synthetic_text(4096, seed=4).encode()[:4096], np.uint8)
    stream = Stream.from_documents([text[:1500], text[1500:]], patch_space)
    n, m = stream.n_bytes, stream.n_patches
    shapes = param_shapes(cfg)
    keys = shapes["dec.start_kv"][0] + m * cfg.k
    spans = completed_patch_spans(stream.boundaries, stream.doc_ids, cfg.k)
    seen = int((spans.hi - spans.lo).sum())
    executed = 2 * m * math.prod(shapes["dec.patch_proj"])
    for i in range(cfg.dec_layers):
        w = {name: shapes[f"dec.{i}.xattn.{name}"] for name in ("wq", "wk", "wv", "wo")}
        executed += 2 * n * (math.prod(w["wq"]) + math.prod(w["wo"]))
        executed += 2 * keys * (math.prod(w["wk"]) + math.prod(w["wv"]))
        executed += 2 * seen * (w["wq"][1] + w["wv"][1])
    analytic = blt_flops_per_byte(cfg, n_ctx=n, n_p=Fraction(n, m)).decoder_xattn
    assert n == 4096 and seen == cfg.k * n
    assert analytic == Fraction(executed, n)


def test_a_zero_layer_encoder_costs_nothing():
    cfg = ModelConfig(enc_layers=0, global_layers=4)
    rep = blt_flops_per_byte(cfg, 4096, 4)
    assert rep.encoder_transformer == 0 and rep.encoder_xattn == 0
    assert rep.total_forward == rep.latent + rep.decoder_transformer + rep.decoder_xattn


def test_doubling_patch_size_halves_latent_share():
    # feed-forward and projections dominate at production-like widths, so the
    # per-byte latent share is inversely proportional to patch size up to the
    # (m+1)/2 attention term, which stays under 1% here
    cfg = ModelConfig(enc_dim=1024, global_dim=4096,
                      enc_layers=1, global_layers=32, dec_layers=6,
                      enc_heads=16, global_heads=32, dec_heads=16)
    a = blt_flops_per_byte(cfg, 2048, 4).latent
    b = blt_flops_per_byte(cfg, 2048, 8).latent
    assert abs(float(a) / float(b) - 2.0) < 0.01 * 2.0


def test_flops_monotone_in_each_argument():
    base = transformer_flops_per_token(4, 64, 128, 4, 256)
    assert transformer_flops_per_token(5, 64, 128, 4, 256) > base
    assert transformer_flops_per_token(4, 96, 128, 4, 256) > base
    assert transformer_flops_per_token(4, 64, 256, 4, 256) > base
    assert transformer_flops_per_token(4, 64, 128, 4, 512) > base


def test_param_count_matches_instantiated_model():
    cfg = ModelConfig()
    params = init_params(cfg, seed=0)
    emb = params["byte_embed"].data.size + sum(
        params[f"hash_embed.n{n}"].data.size for n in cfg.ngram_sizes)
    n_params = sum(t.data.size for _, t in params.items())
    assert non_embedding_params(cfg) == n_params - emb
    assert sum(math.prod(shape) for shape in param_shapes(cfg).values()) == n_params


def test_size_match_fixed_point():
    cfg = ModelConfig()
    target = blt_flops_per_byte(cfg, 4096, 4).total_forward
    fam = width_family(cfg)
    solved, achieved = size_match(target, fam, 4096, 4, tol=0.005)
    assert solved.enc_dim == cfg.enc_dim and achieved == target


def test_size_match_larger_patch_grows_width():
    cfg = ModelConfig()
    target = blt_flops_per_byte(cfg, 4096, 4).total_forward
    fam = width_family(cfg)
    solved8, _ = size_match(target, fam, 4096, 8, tol=0.2)
    assert solved8.global_dim > cfg.global_dim


def test_size_match_infeasible_reports_bracket():
    fam = width_family(ModelConfig())
    with pytest.raises(ConfigError, match=r"outside family range \[\d\.\d+e\+\d+, \d\.\d+e\+\d+\]"):
        size_match(1, fam, 4096, 4, tol=0.005)
