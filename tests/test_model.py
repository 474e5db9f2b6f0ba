import functools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchlm import textgen
from patchlm.entropy_lm import train_counts
from patchlm.model import (
    AttentionMask,
    ModelConfig,
    NumericError,
    Stream,
    augmented_byte_embeddings,
    block_causal_patch_mask,
    completed_patch_mask,
    completed_patch_spans,
    cross_attention_block,
    decoder_forward,
    encoder_forward,
    global_forward,
    init_params,
    latent_spans,
    lm_forward,
    local_block_causal_mask,
    local_spans,
    membership_spans,
    param_shapes,
    patch_membership_mask,
)
from patchlm.errors import ConfigError
from patchlm.ngram_hash import hash_ngram_ids
from patchlm.patching import (
    PatchBoundaries,
    patch_entropy,
    patch_space,
    patch_strided,
)
from patchlm import model, tensor
from patchlm.tensor import ATTN_TILE, Tensor, concat, parameter, rms_norm, softmax
from tests import composed
from tests.composed import span_attention
from tests.gradcheck import grad_check


def tiny_cfg(**over) -> ModelConfig:
    base = dict(enc_dim=16, global_dim=32, enc_layers=1, global_layers=2,
                dec_layers=1, enc_heads=2, global_heads=2, dec_heads=2, hash_vocab=64,
                enc_window=16, dec_window=16)
    base.update(over)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ModelConfig(**base)


def text_stream(n_bytes=120, n_docs=2, k=4, seed=0) -> Stream:
    data = np.frombuffer(textgen.synthetic_text(n_bytes, seed=seed).encode()[:n_bytes], np.uint8)
    cuts = np.linspace(0, len(data), n_docs + 1).astype(int)
    docs = [data[a:b] for a, b in zip(cuts[:-1], cuts[1:])]
    return Stream.from_documents(docs, lambda d: patch_strided(len(d), k))


# -- masks ---------------------------------------------------------------------


def test_local_mask_predicate_exhaustive():
    doc_ids = np.array([0, 0, 0, 1, 1, 1, 1], np.int32)
    w = 3
    mask = local_block_causal_mask(7, w, doc_ids)
    for i in range(7):
        for j in range(7):
            expect = j <= i and i - j < w and doc_ids[i] == doc_ids[j]
            assert mask.allowed[i, j] == expect


def test_local_mask_examples():
    m1 = local_block_causal_mask(5, 1, np.zeros(5, np.int32))
    assert np.array_equal(m1.allowed, np.eye(5, dtype=bool))
    m_full = local_block_causal_mask(4, 99, np.zeros(4, np.int32))
    assert np.array_equal(m_full.allowed, np.tril(np.ones((4, 4), bool)))
    doc_ids = np.array([0] * 6 + [1] * 2, np.int32)
    m = local_block_causal_mask(8, 99, doc_ids)
    assert not m.allowed[6, 4]  # doc boundary at 6 blocks key 4


def test_patch_mask_predicates():
    patch_docs = np.array([0, 0, 1], np.int32)
    g = block_causal_patch_mask(patch_docs)
    assert g.allowed.tolist() == [[True, False, False], [True, True, False], [False, False, True]]

    bounds = PatchBoundaries(np.array([0, 3, 5]), 8)
    memb = patch_membership_mask(bounds)
    patch_of = bounds.patch_of(np.arange(8))
    for j in range(3):
        for i in range(8):
            assert memb.allowed[j, i] == (patch_of[i] == j)


def test_completed_patch_mask_predicate():
    bounds = PatchBoundaries(np.array([0, 3, 5]), 8)  # patches [0,3) [3,5) [5,8)
    doc_ids = np.zeros(8, np.int32)
    m = completed_patch_mask(bounds, doc_ids)
    # bytes 0-1 see the start slot, 2-3 patch 0, 4-6 patch 1, 7 patch 2
    assert m.allowed.argmax(axis=1).tolist() == [0, 0, 1, 1, 2, 2, 2, 3]
    assert (m.allowed.sum(axis=1) == 1).all()

    # two documents: a byte sees the last completed patch of its own document,
    # and the start slot until that document has one
    bounds = PatchBoundaries(np.array([0, 2, 4, 5, 7]), 9)  # docs [0,4) [4,9)
    doc_ids = np.array([0] * 4 + [1] * 5, np.int32)
    m = completed_patch_mask(bounds, doc_ids)
    ends, patch_docs = bounds.ends(), doc_ids[bounds.starts]
    for i in range(9):
        done = [j for j in range(5) if ends[j] <= i and patch_docs[j] == doc_ids[i]]
        want = np.zeros(6, bool)
        want[1 + done[-1] if done else 0] = True
        np.testing.assert_array_equal(m.allowed[i], want, err_msg=f"byte {i}")
    # the decoder's keys hold k slots per column, and the spans pick exactly them
    spans = completed_patch_spans(bounds, doc_ids, slots=3)
    np.testing.assert_array_equal(spans.dense(3 * 6), np.repeat(m.allowed, 3, axis=1))


def test_masked_softmax_exact_zeros_and_row_sums():
    rng = np.random.default_rng(0)
    mask = local_block_causal_mask(6, 3, np.zeros(6, np.int32)).additive(np.float32)
    scores = Tensor(rng.normal(size=(2, 6, 6)).astype(np.float32))
    y = softmax(scores + mask).data
    assert (y[:, ~local_block_causal_mask(6, 3, np.zeros(6, np.int32)).allowed] == 0.0).all()
    np.testing.assert_allclose(y.sum(-1), 1.0, atol=1e-6)


def test_rms_norm_unit_rms_pre_gain():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(32, 256)))
    y = rms_norm(x, Tensor(np.ones(256)), model.RMS_EPS)
    rms = np.sqrt((y.data**2).mean(axis=-1))
    np.testing.assert_allclose(rms, 1.0, atol=1e-6)


# -- config/stream validation -----------------------------------------------------


def test_config_rejects_bad_width_ratio():
    with pytest.raises(ValueError, match="multiple"):
        tiny_cfg(global_dim=40)
    with pytest.raises(ValueError, match="heads"):
        tiny_cfg(enc_heads=3)


def test_config_needs_a_decoder_layer_and_hash_buckets():
    # with no decoder layer the latent model is cut out of the loss; an empty
    # ngram_sizes is the one switch that turns hash embeddings off
    for bad in ({"dec_layers": 0}, {"hash_vocab": 0}):
        with pytest.raises(ConfigError, match="other sizes >= 1"):
            tiny_cfg(**bad)
    assert not any(name.startswith("hash_embed") for name in param_shapes(tiny_cfg(ngram_sizes=())))


def test_config_warns_on_deep_local_blocks():
    with pytest.warns(UserWarning):
        ModelConfig(enc_dim=16, global_dim=32, enc_layers=4, global_layers=2,
                    dec_layers=1, enc_heads=2, global_heads=2, dec_heads=2)


def test_stream_validation():
    with pytest.raises(ValueError, match="document start"):
        Stream(np.arange(8, dtype=np.uint8), np.array([0] * 4 + [1] * 4, np.int32),
               np.array([0, 2, 6]))
    with pytest.raises(ValueError, match="nondecreasing"):
        Stream(np.arange(4, dtype=np.uint8), np.array([1, 0, 0, 0], np.int32), np.array([0]))
    with pytest.raises(ValueError, match="empty"):
        Stream(np.zeros(0, np.uint8), np.zeros(0, np.int32), np.zeros(0, np.int64))
    with pytest.raises(ValueError, match="document start"):  # concat checks its pieces too
        Stream.concat([(np.arange(4), np.array([0])), (np.arange(3), np.array([1]))])
    joined = Stream.concat([(np.arange(4), np.array([0, 2])), (np.arange(3), np.array([0]))])
    assert joined.doc_ids.tolist() == [0] * 4 + [1] * 3
    assert joined.patch_starts.tolist() == [0, 2, 4]


# -- embeddings -------------------------------------------------------------------


def augment_embeddings(byte_embeds: np.ndarray, tables: dict[int, np.ndarray], data,
                       per_size_vocab: int) -> np.ndarray:
    """Plain-numpy reference for one document.

    e[i] = (x[i] + sum over available sizes of tables[n][id]) / (available + 1),
    where a size n is available at position i only when i >= n - 1.
    """
    acc = byte_embeds.astype(np.float64).copy()
    divisor = np.ones(len(byte_embeds), dtype=np.float64)
    ids = hash_ngram_ids(data, sorted(tables), per_size_vocab)
    for n, table in tables.items():
        acc[n - 1 :] += table[ids[n]]
        divisor[n - 1 :] += 1.0
    return acc / divisor[:, None]


def test_augmented_embeddings_match_reference_oracle():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=3)
    stream = text_stream(n_bytes=90, n_docs=1)
    got = augmented_byte_embeddings(params, stream, cfg).data

    tables = {n: params[f"hash_embed.n{n}"].data for n in cfg.ngram_sizes}
    byte_embeds = params["byte_embed"].data[stream.data]
    want = augment_embeddings(byte_embeds, tables, stream.data, cfg.hash_vocab)
    np.testing.assert_allclose(got, want, rtol=2e-6, atol=1e-7)


def test_ngrams_do_not_cross_documents():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=4)
    a = np.frombuffer(b"hello world!", np.uint8)
    b = np.frombuffer(b"more text here", np.uint8)
    patcher = lambda d: patch_strided(len(d), 4)
    joint = Stream.from_documents([a, b], patcher)
    solo = Stream.from_documents([b], patcher)
    e_joint = augmented_byte_embeddings(params, joint, cfg).data[len(a):]
    e_solo = augmented_byte_embeddings(params, solo, cfg).data
    np.testing.assert_array_equal(e_joint, e_solo)


def per_document_embeddings(params, stream, config):
    """``augmented_byte_embeddings`` as it was when it hashed each document on
    its own, kept verbatim as the oracle of the whole-stream version."""
    dtype = params["byte_embed"].dtype
    e = composed.embedding(params["byte_embed"], stream.data)
    if not config.ngram_sizes:
        return e
    n = stream.n_bytes
    ids = {size: np.zeros(n, dtype=np.int64) for size in config.ngram_sizes}
    valid = {size: np.zeros(n, dtype=bool) for size in config.ngram_sizes}
    doc_bounds = np.nonzero(np.diff(stream.doc_ids, prepend=stream.doc_ids[0] - 1))[0]
    for lo, hi in zip(doc_bounds, np.append(doc_bounds[1:], n)):
        doc_grams = hash_ngram_ids(stream.data[lo:hi], config.ngram_sizes, config.hash_vocab)
        for size, size_ids in doc_grams.items():
            ids[size][lo + size - 1 : hi] = size_ids
            valid[size][lo + size - 1 : hi] = True
    divisor = np.ones(n, dtype=dtype)
    contributions = [e]
    for size in config.ngram_sizes:
        gathered = composed.embedding(params[f"hash_embed.n{size}"], ids[size])
        contributions.append(gathered * valid[size].astype(dtype)[:, None])
        divisor += valid[size].astype(dtype)
    total = contributions[0]
    for c in contributions[1:]:
        total = total + c
    return total * (1.0 / divisor)[:, None]


@settings(max_examples=60, deadline=None)
@given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=6),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**16))
def test_embeddings_are_bitwise_the_per_document_oracle(lengths, dtype, seed):
    # documents of 1..12 bytes, so many are shorter than the largest n-gram (8)
    cfg = tiny_cfg()
    rng = np.random.default_rng(seed)
    docs = [rng.integers(0, 256, n).astype(np.uint8) for n in lengths]
    stream = Stream.from_documents(docs, lambda d: patch_strided(len(d), 3))
    weight = rng.standard_normal((stream.n_bytes, cfg.enc_dim)).astype(dtype)
    results = []
    for embed in (augmented_byte_embeddings, per_document_embeddings):
        params = init_params(cfg, seed=seed).astype(dtype)
        out = embed(params, stream, cfg)
        (out * weight).sum().backward()
        results.append([out.data] + [np.asarray(params[f"hash_embed.n{n}"].grad) for n in cfg.ngram_sizes])
    for got, want in zip(*results):
        assert got.tobytes() == want.tobytes()


# -- shapes and degenerate cases -----------------------------------------------------


def test_shape_law():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=0)
    stream = text_stream(n_bytes=100, n_docs=2, k=4)
    h, p = encoder_forward(params, stream, cfg, {})
    assert h.shape == (stream.n_bytes, cfg.enc_dim)
    assert p.shape == (stream.n_patches, cfg.global_dim)
    o = global_forward(params, p, stream.patch_doc_ids, cfg)
    assert o.shape == p.shape
    logits = decoder_forward(params, h, o, stream, cfg, {})
    assert logits.shape == (stream.n_bytes, 256)
    mask = completed_patch_mask(stream.boundaries, stream.doc_ids)
    assert mask.allowed.shape == (stream.n_bytes, stream.n_patches + 1)


def test_single_patch_and_byte_level_degenerate():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=1)
    data = np.frombuffer(b"abcdefgh", np.uint8)
    one = Stream(data, np.zeros(8, np.int32), np.array([0]))
    res_one = lm_forward(params, one, cfg)
    every = Stream(data, np.zeros(8, np.int32), np.arange(8))
    res_every = lm_forward(params, every, cfg)
    assert np.isfinite(res_one.loss.data) and np.isfinite(res_every.loss.data)


def test_zeroed_params_give_uniform_loss():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=0)
    for t in params.tensors.values():
        t.data[:] = 0.0
    stream = text_stream()
    res = lm_forward(params, stream, cfg)
    assert abs(float(res.loss.data) - np.log(256.0)) < 1e-5


def test_forward_deterministic():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=0)
    stream = text_stream()
    a = lm_forward(params, stream, cfg)
    b = lm_forward(params, stream, cfg)
    assert float(a.loss.data) == float(b.loss.data)
    np.testing.assert_array_equal(a.logits.data, b.logits.data)


def compose_blocks(mp):
    """Run the model's norm, attention, feed-forward and embedding blocks as
    the compositions they fuse."""
    for name in ("rms_norm", "attention", "gated_ffn", "embedding_mean"):
        mp.setattr(model, name, getattr(composed, name))


def test_fused_blocks_give_the_composed_model_bitwise():
    cfg = tiny_cfg()
    stream = text_stream(n_bytes=150, n_docs=3)
    results = []
    for compose in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if compose:
                compose_blocks(mp)
            res = lm_forward(init_params(cfg, seed=4), stream, cfg)
        results.append((res.logits.data.tobytes(), res.loss.data.tobytes()))
    assert results[0] == results[1]


def test_fused_blocks_grads_match_the_composed_model():
    cfg = tiny_cfg()
    stream = text_stream(n_bytes=150, n_docs=3)
    grads = []
    for compose in (False, True):
        params = init_params(cfg, seed=4).astype(np.float64)
        with pytest.MonkeyPatch.context() as mp:
            if compose:
                compose_blocks(mp)
            lm_forward(params, stream, cfg).loss.backward()
        grads.append({name: np.asarray(t.grad) for name, t in params.items()})
    for name, got in grads[0].items():
        np.testing.assert_allclose(got, grads[1][name], rtol=1e-9, atol=1e-13, err_msg=name)


def test_a_training_step_through_gated_ffn_is_bitwise_the_composed_ffn(monkeypatch):
    # the fused op recomputes xn @ w_gate and xn @ w_up in its backward; the
    # composition keeps them, and its matmuls rebuild the norm output they read
    cfg = tiny_cfg()
    stream = text_stream(n_bytes=150, n_docs=3)
    results = []
    for compose in (False, True):
        if compose:
            monkeypatch.setattr(model, "gated_ffn", composed.gated_ffn)
        params = init_params(cfg, seed=4)
        res = lm_forward(params, stream, cfg)
        res.loss.backward()
        results.append([res.loss.data] + [np.asarray(t.grad) for _, t in params.items()])
    for got, want in zip(*results):
        assert got.dtype == want.dtype == np.float32 and got.tobytes() == want.tobytes()


def test_a_training_step_through_attention_is_bitwise_the_composed_block(monkeypatch):
    # the op recomputes q, k and v in its backward and rebuilds each norm output
    # once; the composition keeps them, and its matmuls rebuild the norm outputs
    cfg = tiny_cfg()
    stream = text_stream(n_bytes=150, n_docs=3)
    results = []
    for compose in (False, True):
        if compose:
            monkeypatch.setattr(model, "attention", composed.attention)
        params = init_params(cfg, seed=4)
        res = lm_forward(params, stream, cfg)
        res.loss.backward()
        results.append([res.loss.data] + [np.asarray(t.grad) for _, t in params.items()])
    for got, want in zip(*results):
        assert got.dtype == want.dtype == np.float32 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_docs", [1, 3])
def test_appending_a_one_byte_patch_leaves_earlier_logits_unchanged(n_docs):
    # how eval_bpb scores the byte at a cut: the span's stream holds it as a patch
    cfg = tiny_cfg()
    params = init_params(cfg, seed=2).astype(np.float64)
    text = np.frombuffer(textgen.synthetic_text(90, seed=0).encode()[:90], np.uint8)
    pieces = [(d, patch_strided(len(d), 4).starts) for d in np.array_split(text, n_docs)]
    last, starts = pieces[-1]
    longer = pieces[:-1] + [(np.append(last, ord("q")), np.append(starts, len(last)))]
    a = lm_forward(params, Stream.concat(pieces), cfg)
    b = lm_forward(params, Stream.concat(longer), cfg)
    # causal over bytes and patches; only rounding may differ, where an attention
    # tile that gains the new byte's key column sums its products in another order
    np.testing.assert_allclose(b.logits.data[:-1], a.logits.data, rtol=0, atol=1e-15)
    z = a.logits.data[-1]
    nll_q = np.log(np.exp(z - z.max()).sum()) + z.max() - z[ord("q")]
    assert b.n_predicted == a.n_predicted + 1
    assert abs(b.total_nats - (a.total_nats + nll_q)) <= 1e-12 * b.total_nats
    one = Stream.concat([(np.array([text[0], ord("q")]), np.array([0, 1]))])
    assert lm_forward(params, one, cfg).n_predicted == 1  # a 1-byte span scores its successor


def test_each_span_set_plans_its_tiles_once(monkeypatch):
    # local spans (encoder and decoder layers), membership, latent and decoder
    # spans: one tile plan each per forward, however many layers attend over them
    cfg = tiny_cfg(global_layers=3, dec_layers=2)
    params = init_params(cfg, seed=0)
    calls, plan = [], tensor.tile_plan
    monkeypatch.setattr(tensor, "tile_plan", lambda lo, hi: calls.append(len(lo)) or plan(lo, hi))
    stream = text_stream()
    lm_forward(params, stream, cfg)
    assert sorted(calls) == sorted([stream.n_bytes, stream.n_patches, stream.n_patches,
                                    stream.n_bytes])


def test_forward_on_detached_params_builds_no_graph():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=0)
    stream = text_stream()
    view = params.detached()
    res = lm_forward(view, stream, cfg)
    for t in (res.logits, res.nll, res.loss):
        assert t._node is None and not t.requires_grad
    assert res.logits.data.tobytes() == lm_forward(params, stream, cfg).logits.data.tobytes()
    # the view shares the arrays: an in-place update shows through it
    for name, t in params.items():
        assert view[name].data is t.data and view[name].name == name
    params["out_proj"].data *= 2.0
    np.testing.assert_array_equal(view["out_proj"].data, params["out_proj"].data)
    assert lm_forward(view, stream, cfg).logits.data.tobytes() != res.logits.data.tobytes()


def test_backward_frees_intermediates_and_keeps_parameter_grads():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=0)
    res = lm_forward(params, text_stream(), cfg)
    inner = weakref.ref(res.logits._node.parents[0])
    res.loss.backward()
    assert inner() is None
    assert all(t.grad is not None and t.grad.shape == t.shape for _, t in params.items())
    with pytest.raises(RuntimeError):
        res.loss.backward()


def test_attention_graph_keeps_no_queries_keys_or_values(monkeypatch):
    # the attention op's vjp recomputes q, k and v: the arrays the tile kernel
    # read in the forward must die with the forward, while the graph is still alive
    cfg = tiny_cfg()
    arrays, forward = [], tensor._span_forward

    def recording_forward(qx, kd, v1, spans):
        arrays.extend(weakref.ref(a) for a in (qx, kd, v1))
        return forward(qx, kd, v1, spans)

    monkeypatch.setattr(tensor, "_span_forward", recording_forward)
    res = lm_forward(init_params(cfg, seed=0), text_stream(), cfg)
    assert len(arrays) == 3 * (2 * cfg.enc_layers + cfg.global_layers + 2 * cfg.dec_layers)
    assert all(ref() is None for ref in arrays)
    assert res.loss.requires_grad


def _holds_tensor(value, depth: int) -> bool:
    """Whether ``value`` is a Tensor, holds one in a list, tuple or dict, or is
    a function that closes over one, looking ``depth`` closures deep."""
    if isinstance(value, Tensor):
        return True
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return any(_holds_tensor(v, depth) for v in value)
    closure = getattr(value, "__closure__", None) or ()
    return depth > 0 and any(_holds_tensor(c.cell_contents, depth - 1) for c in closure)


def test_no_vjp_closes_over_a_tensor():
    # a vjp must close over the arrays it reads: a Tensor in its closure pins
    # that tensor's value, whether or not the backward reads it
    cfg = tiny_cfg()
    res = lm_forward(init_params(cfg, seed=0).astype(np.float64), text_stream(), cfg)
    stack, seen, ops, pinned = [res.loss._node, softmax(res.logits)._node], set(), set(), set()
    while stack:
        node = stack.pop()
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.parents)
        if node.vjp is not None:
            op = node.vjp.__qualname__.split(".<locals>")[0]
            ops.add(op)
            if _holds_tensor(node.vjp, depth=2):  # its cells, and one nested closure's
                pinned.add(op)
    assert not pinned, f"vjps that close over a Tensor: {sorted(pinned)}"
    assert ops >= {"Tensor.__add__", "Tensor.__mul__", "Tensor.__matmul__", "Tensor.reshape",
                   "Tensor.sum", "concat", "embedding_mean", "rms_norm", "attention", "gated_ffn",
                   "softmax", "nll_from_logits", "segment_max"}


# -- independence properties ------------------------------------------------------


def test_doc_swap_equivariance():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=2).astype(np.float64)
    a = np.frombuffer(b"the first document text", np.uint8)
    b = np.frombuffer(b"another unrelated piece!", np.uint8)
    patcher = lambda d: patch_strided(len(d), 4)
    s_ab = Stream.from_documents([a, b], patcher)
    s_ba = Stream.from_documents([b, a], patcher)
    _, p_ab = encoder_forward(params, s_ab, cfg, {})
    _, p_ba = encoder_forward(params, s_ba, cfg, {})
    o_ab = global_forward(params, p_ab, s_ab.patch_doc_ids, cfg).data
    o_ba = global_forward(params, p_ba, s_ba.patch_doc_ids, cfg).data
    na = len(patcher(a).starts)
    np.testing.assert_allclose(o_ab[:na], o_ba[-na:], atol=1e-9)
    np.testing.assert_allclose(o_ab[na:], o_ba[:-na], atol=1e-9)


def row_grad(out: Tensor, i: int) -> np.ndarray:
    """The output gradient of ``out[i].sum()``: ones in row i, zeros elsewhere."""
    g = np.zeros_like(out.data)
    g[i] = 1.0
    return g


def test_encoder_patch_locality_zero_gradient():
    # gradient of patch-0's representation w.r.t. byte states of other patches
    # through the cross-attention path is exactly zero
    cfg = tiny_cfg()
    params = init_params(cfg, seed=5)
    stream = text_stream(n_bytes=60, n_docs=1, k=5)
    e = augmented_byte_embeddings(params, stream, cfg)
    h = parameter(e.data.copy())  # treat byte states as a leaf
    from patchlm.model import cross_attention_block, segment_max

    p0 = segment_max(h, stream.patch_starts) @ params["enc.pool_proj"]
    p1 = cross_attention_block(p0, h, params, "enc.0.xattn.", cfg.k,
                               membership_spans(stream.boundaries))
    p1.backward(row_grad(p1, 0))
    outside = np.ones(stream.n_bytes, bool)
    outside[: int(stream.patch_starts[1])] = False
    assert np.all(h.grad[outside] == 0.0)


def test_perturbing_later_patch_leaves_earlier_reps_unchanged():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=6)
    stream = text_stream(n_bytes=80, n_docs=1, k=4)
    _, p = encoder_forward(params, stream, cfg, {})
    data2 = stream.data.copy()
    data2[int(stream.patch_starts[2])] ^= 0x40  # inside patch 2
    stream2 = Stream(data2, stream.doc_ids, stream.patch_starts)
    _, p2 = encoder_forward(params, stream2, cfg, {})
    np.testing.assert_array_equal(p.data[:2], p2.data[:2])


def _causality_case(cfg, params, stream, q):
    res = lm_forward(params, stream, cfg)
    data2 = stream.data.copy()
    data2[q] = (int(data2[q]) + 97) % 256
    res2 = lm_forward(params, Stream(data2, stream.doc_ids, stream.patch_starts), cfg)
    return res.logits.data[:q], res2.logits.data[:q]


def test_end_to_end_causality_fixed_boundaries():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=7)
    docs_data = np.frombuffer(textgen.synthetic_text(120, seed=9).encode()[:120], np.uint8)
    ent = train_counts([docs_data], order=2)
    schemes = {
        "strided": lambda d: patch_strided(len(d), 4),
        "space": patch_space,
        "entropy": lambda d: patch_entropy(ent.entropy_trace(d), theta_g=2.0),
    }
    rng = np.random.default_rng(11)
    for name, patcher in schemes.items():
        stream = Stream.from_documents([docs_data[:70], docs_data[70:]], patcher)
        for _ in range(5):
            q = int(rng.integers(1, stream.n_bytes))
            before, after = _causality_case(cfg, params, stream, q)
            np.testing.assert_array_equal(before, after, err_msg=f"{name} leak at {q}")


def test_pipeline_causality_with_repatching():
    # perturb a byte and re-run patching + model. The boundary prefix must be
    # exactly stable (incremental patcher); the logits prefix agrees to float
    # tolerance only, because a different total patch count changes attention
    # matrix shapes and with them BLAS partial-sum grouping (appending
    # exactly-zero-weight keys shifts k-panel splits among the nonzero terms).
    cfg = tiny_cfg()
    params = init_params(cfg, seed=8)
    data = np.frombuffer(textgen.synthetic_text(100, seed=13).encode()[:100], np.uint8)
    ent = train_counts([data], order=2)
    patcher = lambda d: patch_entropy(ent.entropy_trace(d), theta_g=2.2)
    rng = np.random.default_rng(3)
    s1 = Stream.from_documents([data], patcher)
    base = lm_forward(params, s1, cfg).logits.data
    for _ in range(5):
        q = int(rng.integers(1, len(data)))
        data2 = data.copy()
        data2[q] = (int(data2[q]) + 13) % 256
        s2 = Stream.from_documents([data2], patcher)
        np.testing.assert_array_equal(s1.patch_starts[s1.patch_starts < q],
                                      s2.patch_starts[s2.patch_starts < q])
        got = lm_forward(params, s2, cfg).logits.data
        np.testing.assert_allclose(got[:q], base[:q], atol=1e-5, rtol=1e-5)


# -- gradients ----------------------------------------------------------------------


def test_grad_check_small_config():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=0)
    stream = text_stream(n_bytes=60, n_docs=2, k=3)
    rep = grad_check(params, stream, cfg, samples_per_tensor=2, seed=0)
    assert rep["passed"], {k: v for k, v in rep["tensors"].items() if not v["passed"]}


def test_grad_check_multi_document_windows_shorter_than_documents():
    # windows and stream length are not multiples of the attention tile, so
    # spans cross tile edges and document starts in the middle of tiles
    cfg = tiny_cfg(enc_window=37, dec_window=53)
    params = init_params(cfg, seed=2)
    stream = text_stream(n_bytes=3 * ATTN_TILE + 29, n_docs=3, k=3)
    assert cfg.enc_window % ATTN_TILE and cfg.dec_window % ATTN_TILE
    assert np.diff(np.flatnonzero(np.diff(stream.doc_ids, prepend=-1))).min() > cfg.dec_window
    rep = grad_check(params, stream, cfg, samples_per_tensor=2, seed=1)
    assert rep["passed"], {k: v for k, v in rep["tensors"].items() if not v["passed"]}


def test_span_attention_model_matches_dense_oracle(monkeypatch):
    cfg = tiny_cfg(enc_window=37, dec_window=53, dec_layers=2)
    params = init_params(cfg, seed=3).astype(np.float64)
    stream = text_stream(n_bytes=2 * ATTN_TILE + 45, n_docs=3, k=4)

    def loss_and_grads():
        params.zero_grad()
        res = lm_forward(params, stream, cfg)
        res.loss.backward()
        return float(res.loss.data), {k: np.array(t.grad) for k, t in params.items()}

    loss, grads = loss_and_grads()

    def dense(q, k, v, spans):
        return composed.dense_attention(q, k, v, spans.dense(k.shape[1]))

    monkeypatch.setattr(model, "attention", functools.partial(composed.attention, attend=dense))
    want_loss, want_grads = loss_and_grads()
    assert abs(loss - want_loss) <= 1e-10 * abs(want_loss)
    for name, want in want_grads.items():
        np.testing.assert_allclose(grads[name], want, rtol=1e-10, atol=1e-10 * np.abs(want).max(),
                                   err_msg=name)


@pytest.mark.parametrize("kind", ["local", "latent", "membership", "decoder"])
def test_span_attention_rows_are_bitwise_blind_to_keys_outside_their_span(kind, monkeypatch):
    # a tile scores every key column any of its rows sees, but row i's softmax
    # shift reads only its own span's keys, so rewriting the keys and values the
    # tile scores and row i does not see leaves its output bitwise unchanged, and
    # its q gradient too, whose scores are shifted by row i's log-sum-exp. The
    # rewritten keys are large, so other rows of the tile are recomputed with
    # their exact max, which must not reach row i either.
    widths, tile_scores = [], tensor._tile_scores
    monkeypatch.setattr(tensor, "_tile_scores",
                        lambda qx, kT, *tile: widths.append(qx.shape[-1]) or tile_scores(qx, kT, *tile))
    stream = text_stream(n_bytes=3 * ATTN_TILE + 29, n_docs=3, k=3)
    spans = {"local": lambda: local_spans(stream.n_bytes, 37, stream.doc_ids),
             "latent": lambda: latent_spans(stream.patch_doc_ids),
             "membership": lambda: membership_spans(stream.boundaries),
             "decoder": lambda: completed_patch_spans(stream.boundaries, stream.doc_ids, 2)}[kind]()
    rng = np.random.default_rng(0)
    n_q, n_k = len(spans.lo), spans.n_keys
    q, k, v, g = (rng.standard_normal((2, n, 8)).astype(np.float32) for n in (n_q, n_k, n_k, n_q))

    def attend(k, v):
        qt = parameter(q.copy())
        out = span_attention(qt, Tensor(k), Tensor(v), spans)
        out.backward(g)
        return out.data, qt.grad

    base_out, base_dq = attend(k, v)
    moved = 0
    for rows, cols, _ in spans.plan:
        for i in range(rows.start, min(rows.stop, n_q), 7):
            hidden = np.r_[cols.start:spans.lo[i], spans.hi[i]:cols.stop]
            if not len(hidden):
                continue
            k2, v2 = k.copy(), v.copy()
            k2[:, hidden] = 100 * rng.standard_normal((2, len(hidden), 8))
            v2[:, hidden] = rng.standard_normal((2, len(hidden), 8))
            out, dq = attend(k2, v2)
            assert out[:, i].tobytes() == base_out[:, i].tobytes()
            assert dq[:, i].tobytes() == base_dq[:, i].tobytes()
            moved += not np.array_equal(out, base_out)
    assert moved  # the rewritten keys are seen by other rows
    assert 8 in widths  # the exact recompute scores without the shift column


DOC_STARTS = [[], [ATTN_TILE], [37, 2 * ATTN_TILE], [ATTN_TILE - 1, ATTN_TILE + 1]]


def _decoder_case(doc_starts, n=2 * ATTN_TILE + 45):
    """Doc ids and random patches of an n-byte stream whose later documents
    start at ``doc_starts`` (mid-tile and on tile edges)."""
    rng = np.random.default_rng(len(doc_starts))
    doc_ids = np.zeros(n, np.int32)
    for start in doc_starts:
        doc_ids[start:] += 1
    bounds = PatchBoundaries(np.union1d(np.flatnonzero(rng.random(n) < 0.2), [0, *doc_starts]), n)
    return rng, doc_ids, bounds


@pytest.mark.parametrize("doc_starts", DOC_STARTS)
def test_decoder_key_layout_matches_dense_oracle(doc_starts):
    # decoder cross-attention over [start_kv; slots] through the spans against
    # dense attention under the last-completed-patch mask, in float64
    k, heads, dim = 3, 2, 8
    rng, doc_ids, bounds = _decoder_case(doc_starts)
    n = bounds.n_bytes
    leaves = [rng.standard_normal(shape)
              for shape in ((heads, n, dim // heads), (k, dim), (bounds.n_patches * k, dim))]
    w_v = Tensor(rng.standard_normal((dim, dim)))
    weight = rng.standard_normal((heads, n, dim // heads))
    allowed = np.repeat(completed_patch_mask(bounds, doc_ids).allowed, k, axis=1)

    def spans(q, kv):
        keys, values = composed.split_heads(kv, heads), composed.split_heads(kv @ w_v, heads)
        return span_attention(q, keys, values, completed_patch_spans(bounds, doc_ids, k))

    def dense(q, kv):
        keys, values = composed.split_heads(kv, heads), composed.split_heads(kv @ w_v, heads)
        return composed.dense_attention(q, keys, values, allowed)

    results = []
    for attend in (spans, dense):
        q, start_kv, slots = (parameter(x.copy()) for x in leaves)
        out = attend(q, concat([start_kv, slots], axis=0))
        (out * weight).sum().backward()
        results.append([out.data, q.grad, start_kv.grad, slots.grad])
    for got, want in zip(*results):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("doc_starts", DOC_STARTS)
def test_decoder_spans_have_width_k(doc_starts):
    # one patch's k slots per byte, however long the document: cross-attention
    # that widened back to every completed patch would be O(patches) per byte
    _, doc_ids, bounds = _decoder_case(doc_starts, n=4 * ATTN_TILE + 45)
    for k in (1, 2, 3):
        spans = completed_patch_spans(bounds, doc_ids, k)
        assert (spans.hi - spans.lo == k).all()
        assert (spans.lo % k == 0).all() and spans.hi.max() <= k * (bounds.n_patches + 1)


def test_tiles_end_where_a_span_start_jumps():
    # on a 3-document stream, the first bytes of a later document see the start
    # slots while the previous document's last bytes see its last patch: a tile
    # that held both would score every key column in between. No decoder
    # cross-attention tile is wider than in the documents' own plans, and every
    # tile of every span set scores exactly its rows' spans.
    cfg = ModelConfig()
    docs = [np.frombuffer(textgen.synthetic_text(700, seed=s).encode()[:700], np.uint8) for s in range(3)]
    stream = Stream.from_documents(docs, patch_space)

    def widest(spans):
        return max(cols.stop - cols.start for _, cols, _ in spans.plan)

    def decoder_spans(s):
        return completed_patch_spans(s.boundaries, s.doc_ids, cfg.k)

    decoder = decoder_spans(stream)
    alone = [Stream.from_documents([d], patch_space) for d in docs]
    assert widest(decoder) <= max(widest(decoder_spans(s)) for s in alone)
    for spans in (decoder, local_spans(stream.n_bytes, cfg.enc_window, stream.doc_ids),
                  latent_spans(stream.patch_doc_ids), membership_spans(stream.boundaries)):
        covered = 0
        for rows, cols, edges in spans.plan:
            assert rows.start == covered and 0 < rows.stop - rows.start <= ATTN_TILE
            covered = rows.stop
            lo, hi = spans.lo[rows, None], spans.hi[rows, None]
            assert cols.start <= lo.min() and hi.max() <= cols.stop
            scored = np.ones((len(lo), cols.stop - cols.start), bool)
            for tile_cols, hidden in edges:
                scored[:, tile_cols] &= ~hidden
            j = np.arange(cols.start, cols.stop)
            np.testing.assert_array_equal(scored, (lo <= j) & (j < hi))
        assert covered == len(spans.lo)


@pytest.mark.parametrize("doc_starts", DOC_STARTS)
def test_decoder_xattn_locality_zero_gradient(doc_starts):
    # a byte's decoder cross-attention output depends on its own block of k
    # keys only: the gradient to every other start or patch slot is exactly 0
    cfg = tiny_cfg()
    k = cfg.k
    rng, doc_ids, bounds = _decoder_case(doc_starts)
    params = init_params(cfg, seed=9).astype(np.float64)
    x = Tensor(rng.standard_normal((bounds.n_bytes, cfg.dec_dim)))
    spans = completed_patch_spans(bounds, doc_ids, k)
    doc_first = np.flatnonzero(np.diff(doc_ids, prepend=-1))
    for i in sorted({0, 1, bounds.n_bytes - 1, *doc_first, *(doc_first + 3), *bounds.ends()}):
        kv = parameter(rng.standard_normal((k * (bounds.n_patches + 1), cfg.dec_dim)))
        out = cross_attention_block(x, kv, params, "dec.0.xattn.", cfg.dec_heads, spans)
        out.backward(row_grad(out, i))
        block = slice(int(spans.lo[i]), int(spans.hi[i]))
        outside = np.ones(len(kv.data), bool)
        outside[block] = False
        assert np.all(kv.grad[outside] == 0.0), f"byte {i}"
        assert np.all(np.abs(kv.grad[block]).sum(axis=1) > 0), f"byte {i}"


def test_long_stream_memory_stays_bounded():
    # no (n_q, n_k) array may exist: at n=4096 dense scores, masks and stored
    # probabilities alone take several GB
    import tracemalloc

    cfg = ModelConfig()
    params = init_params(cfg, seed=0)
    data = np.frombuffer(textgen.synthetic_text(4096, seed=5).encode()[:4096], np.uint8)
    stream = Stream.from_documents([data], patch_space)
    tracemalloc.start()
    try:
        lm_forward(params, stream, cfg).loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**30, f"peak {peak / 2**20:.0f} MB"


def test_training_graph_memory_stays_at_its_measured_size():
    # what lm_forward leaves held for the backward on a 2,100-byte, 3-document
    # stream at the default config: 14.3 MB once each attention block was one
    # op that recomputes q, k and v in the backward, 25.9 MB once the
    # feed-forward block was one op that recomputes its two (n, d_ff)
    # projections in the backward, 38.9 MB once matmul backwards rebuilt the
    # norm and gate outputs they read, 53.2 MB when the graph linked nodes and
    # pinned only the arrays some vjp reads, 73.7 MB when vjps closed over their
    # input tensors, 126.2 MB when the fused norm, rotary, gate and embedding
    # ops were compositions of smaller ops; the bound is 14.3 + 5%. The
    # backward's peak over the same base is 21.6 MB: 33.2 MB when the graph
    # kept each attention block's scaled queries, keys and values, 38.7 MB if
    # the feed-forward vjp recomputes its projections without reusing their
    # buffers, 46.1 MB when the graph kept them; the bound is 21.6 + 5%.
    import tracemalloc

    cfg = ModelConfig()
    params = init_params(cfg, seed=0)
    docs = [np.frombuffer(textgen.synthetic_text(700, seed=s).encode()[:700], np.uint8) for s in range(3)]
    stream = Stream.from_documents(docs, patch_space)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = lm_forward(params, stream, cfg)
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        res.loss.backward()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert held < 14.3 * 1.05 * 2**20, f"graph holds {held / 2**20:.1f} MB"
    assert peak < 21.6 * 1.05 * 2**20, f"backward peaks at {peak / 2**20:.1f} MB"


def test_grad_check_detects_corrupted_gradient():
    # mutation control: corrupt one analytic gradient and re-run the comparison
    cfg = tiny_cfg()
    params = init_params(cfg, seed=0).astype(np.float64)
    stream = text_stream(n_bytes=50, n_docs=1, k=3)
    res = lm_forward(params, stream, cfg)
    res.loss.backward()
    name = "dec.0.xattn.wo"
    t = params[name]
    corrupted = t.grad.copy()
    corrupted.flat[0] += 0.5  # deliberate backward bug
    eps = 1e-5
    orig = t.data.flat[0]
    t.data.flat[0] = orig + eps
    f_plus = float(lm_forward(params, stream, cfg).loss.data)
    t.data.flat[0] = orig - eps
    f_minus = float(lm_forward(params, stream, cfg).loss.data)
    t.data.flat[0] = orig
    numeric = (f_plus - f_minus) / (2 * eps)
    rel = abs(corrupted.flat[0] - numeric) / max(abs(corrupted.flat[0]), abs(numeric))
    assert rel > 1e-4  # the check must flag it

