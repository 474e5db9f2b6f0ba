import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchlm.tensor import (
    ATTN_TILE,
    RowGrad,
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
    _row_grad,
    segment_max,
    softmax,
)
from patchlm import tensor, textgen
from patchlm.model import (ModelConfig, Stream, augmented_byte_embeddings, completed_patch_spans,
                           ffn_hidden_dim, init_params, local_spans, membership_spans)
from patchlm.patching import patch_space
from tests import composed
from tests.composed import span_attention


def numeric_grad(f, x: np.ndarray, eps=1e-6) -> np.ndarray:
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        fp = f()
        x[idx] = orig - eps
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * eps)
        it.iternext()
    return g


def check_op(build, *shapes, seed=0, atol=1e-7, rtol=1e-5):
    """build(tensors...) -> scalar Tensor; compares backward against central differences."""
    rng = np.random.Generator(np.random.PCG64(seed))
    xs = [parameter(rng.standard_normal(s)) for s in shapes]
    out = build(*xs)
    out.backward()
    for x in xs:
        got = np.asarray(x.grad) if x.grad is not None else np.zeros_like(x.data)
        want = numeric_grad(lambda: float(build(*xs).data), x.data)
        np.testing.assert_allclose(got, want, atol=atol, rtol=rtol)


def test_add_mul_broadcast():
    check_op(lambda a, b: ((a + b) * (a * 0.5 + 2.0)).sum(), (3, 4), (4,))


def test_sub_broadcast():
    check_op(lambda a, b: (composed.sub(a, b) * composed.sub(a, 2.0)).sum(), (2, 5), (5,))


def test_pow_sqrt_exp_log():
    check_op(lambda a: composed.power(a * a + 1.0, -0.5).sum(), (4, 3))


def test_matmul_2d_and_batched():
    check_op(lambda a, b: (a @ b).sum(), (3, 4), (4, 2))
    check_op(lambda a, b: ((a @ b) * 0.3).sum(), (2, 3, 4), (2, 4, 5))


def test_reshape_swapaxes_getitem():
    check_op(lambda a: composed.getitem(composed.swapaxes(a.reshape(6, 2), 0, 1),
                                        (0, slice(None, None, 2))).sum(), (3, 4))


def test_sum_mean_keepdims():
    check_op(lambda a: composed.mean(a.sum(axis=1, keepdims=True) * a), (3, 5))
    check_op(lambda a: composed.mean(a, axis=0).sum(), (4, 2))


def test_sigmoid_silu():
    check_op(lambda a: composed.silu(a).sum(), (7,))


# -- fused ops against their composed forms -------------------------------------

# Fixed before measuring, from float64's 2.2e-16: the fused vjps regroup at
# most a few dozen roundings of O(1) values.
FUSED_GRAD_RTOL = 1e-10
FUSED_GRAD_ATOL = 1e-12


def rope_tables(n, head_dim, dtype):
    return rope_cache(np.arange(n), head_dim, 10.0, dtype)


def fused_case(name, dtype):
    """(shapes of the inputs, fused op over them, its composed form)."""
    if name == "rms_norm":
        return [(6, 8), (8,)], rms_norm, composed.rms_norm, (1e-6,)
    if name == "apply_rope":
        # the package's rotation, on a (n, heads * head_dim) projection viewed as
        # (heads, n, head_dim) as the composed attention block does, against the even/odd form
        n, heads, hd = 9, 2, 6
        cos, sin = rope_tables(n, hd, dtype)

        def build(op):
            return lambda x: op(composed.split_heads(x, heads), cos, sin)

        return [(n, heads * hd)], build(composed.apply_rope), build(composed.rotate_pairs), ()
    if name == "gated_ffn":
        return [(5, 6), (6, 7), (6, 7), (7, 6)], gated_ffn, composed.gated_ffn, ()
    ids = [np.array([3, 0, 3, 7, 1, 3]), np.array([4, 4, 0, 2, 1, 4]), np.array([0, 5, 5, 5, 2, 1])]
    valid = [None, np.array([0, 1, 1, 1, 0, 1], bool), np.array([0, 0, 1, 0, 1, 1], bool)]

    def build(op):
        return lambda *tables: op(list(zip(tables, ids, valid)))

    return [(8, 4), (5, 4), (6, 4)], build(embedding_mean), build(composed.embedding_mean), ()


FUSED = ["rms_norm", "apply_rope", "gated_ffn", "embedding_mean"]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", FUSED)
def test_fused_forward_is_bitwise_the_composition(name, dtype):
    shapes, fused, oracle, extra = fused_case(name, dtype)
    rng = np.random.default_rng(FUSED.index(name))
    xs = [Tensor((rng.standard_normal(s) * 3.0).astype(dtype)) for s in shapes]
    got, want = fused(*xs, *extra).data, oracle(*xs, *extra).data
    assert got.dtype == want.dtype == dtype
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", FUSED)
def test_fused_grads_match_the_composition(name, seed):
    shapes, fused, oracle, extra = fused_case(name, np.float64)
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal(s) * 3.0 for s in shapes]
    grads = []
    for op in (fused, oracle):
        xs = [parameter(x.copy()) for x in inputs]
        out = op(*xs, *extra)
        (out * np.random.default_rng(seed + 9).standard_normal(out.shape)).sum().backward()
        grads.append([np.asarray(x.grad) for x in xs])
    for got, want in zip(*grads):
        np.testing.assert_allclose(got, want, rtol=FUSED_GRAD_RTOL, atol=FUSED_GRAD_ATOL)


@pytest.mark.parametrize("name", FUSED)
def test_fused_grads_numeric(name):
    shapes, fused, _, extra = fused_case(name, np.float64)
    out_shape = fused(*(Tensor(np.zeros(s)) for s in shapes), *extra).shape
    weight = np.random.default_rng(5).standard_normal(out_shape)
    check_op(lambda *xs: (fused(*xs, *extra) * weight).sum(), *shapes)


def test_fused_ops_keep_no_intermediate():
    # each vjp closes over the op's inputs and small tables only: what the
    # graph holds beyond the inputs is the output and, for rms_norm, one
    # value per row; attention also keeps its merged heads, which its output
    # projection reads, and one log-sum-exp per row and head, but no query,
    # key or value
    rng = np.random.default_rng(0)
    x = parameter(rng.standard_normal((256, 64)))
    kv = parameter(rng.standard_normal((300, 32)))
    gain = parameter(np.ones(64))
    w_in, w_down = parameter(rng.standard_normal((64, 176))), parameter(rng.standard_normal((176, 64)))
    w, w_kv = parameter(rng.standard_normal((64, 64)) / 8), parameter(rng.standard_normal((32, 64)) / 8)
    rope = rope_tables(256, 16, np.float64)
    i = np.arange(256)
    causal, window = Spans(np.zeros(256, np.int64), i + 1), Spans(i, i + 45)
    for spans in (causal, window):  # plan and range index built once, outside the graph
        spans.plan, spans.range_max(np.zeros(spans.n_keys))
    cases = [
        (lambda: rms_norm(x, gain, 1e-6), 256 * 8),
        (lambda: attention(x, x, w, w, w, w, 4, causal, rope), 256 * 64 * 8 + 4 * 256 * 8),
        (lambda: attention(x, kv, w, w_kv, w_kv, w, 2, window), 256 * 64 * 8 + 2 * 256 * 8),
        (lambda: gated_ffn(x, w_in, w_in, w_down), 0),
        (lambda: embedding_mean([(x, np.arange(256), None)]), 256 * 8),
    ]
    import tracemalloc

    for build, extra in cases:
        build()  # a first call fills numpy's and the interpreter's lazy caches
        tracemalloc.start()
        try:
            out = build()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert held <= out.data.nbytes + extra + 4096, (held, out.data.nbytes)


def test_softmax_grad_and_rows_sum_to_one():
    check_op(lambda a: (softmax(a) * np.arange(5.0)).sum(), (3, 5))
    y = softmax(Tensor(np.random.default_rng(0).normal(size=(64, 17))))
    np.testing.assert_allclose(y.data.sum(axis=1), 1.0, atol=1e-6)


def test_softmax_with_additive_mask_is_exactly_zero():
    x = parameter(np.random.default_rng(1).normal(size=(4, 6)))
    mask = np.zeros((4, 6))
    mask[:, 3:] = -1e30
    y = softmax(x + mask)
    assert (y.data[:, 3:] == 0.0).all()
    np.testing.assert_allclose(y.data.sum(axis=1), 1.0, atol=1e-12)


def test_concat_grad():
    check_op(lambda a, b: composed.getitem(concat([a, b], axis=1).sum(axis=0), slice(1, None)).sum(),
             (2, 3), (2, 2))


def test_embedding_scatter_accumulates():
    table = parameter(np.random.default_rng(2).normal(size=(5, 3)))
    idx = np.array([0, 1, 1, 4])
    out = embedding_mean([(table, idx, None)])
    (out * np.ones((4, 3))).sum().backward()
    assert isinstance(table.grad, RowGrad) and table.grad.rows.tolist() == [0, 1, 4]
    dense = np.asarray(table.grad)
    assert dense[1].tolist() == [2.0, 2.0, 2.0]
    assert dense[2].tolist() == [0.0, 0.0, 0.0]


def test_embedding_numeric():
    idx = np.array([2, 0, 2])
    check_op(lambda t: (embedding_mean([(t, idx, None)]) * 0.7).sum(), (3, 4))


@st.composite
def row_grad_case(draw):
    """Ids over a few rows of a larger table (heavy repeats), a mask that may
    be absent or all False, and gradients that hold -0.0."""
    n = draw(st.integers(0, 40))
    ids = np.array(draw(st.lists(st.integers(0, draw(st.integers(0, 5))), min_size=n, max_size=n)),
                   dtype=draw(st.sampled_from([np.int64, np.uint8])))
    valid = draw(st.one_of(st.none(), st.just(np.zeros(n, bool)),
                           st.lists(st.booleans(), min_size=n, max_size=n).map(lambda v: np.array(v, bool))))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    value = st.one_of(st.just(-0.0), st.just(0.0), st.floats(-1e3, 1e3, width=32))
    g = np.array(draw(st.lists(value, min_size=2 * n, max_size=2 * n)), dtype).reshape(n, 2)
    return ids, valid, g


@settings(max_examples=300, deadline=None)
@given(case=row_grad_case())
def test_row_grad_is_bitwise_the_add_at_scatter(case):
    ids, valid, g = case
    got = _row_grad((8, 2), ids, valid, g)
    want = np.zeros((8, 2), g.dtype)
    keep = np.ones(len(ids), bool) if valid is None else valid
    np.add.at(want, ids[keep], g[keep])
    assert np.all(np.diff(got.rows.astype(np.int64)) > 0)
    assert got.values.shape == (len(got.rows), 2) and got.values.dtype == g.dtype
    assert got.dense().tobytes() == np.asarray(got).tobytes() == want.tobytes()
    assert (got + got).tobytes() == (want + want).tobytes()


def test_nll_from_logits_matches_manual():
    rng = np.random.default_rng(3)
    logits = parameter(rng.normal(size=(6, 9)))
    targets = rng.integers(0, 9, size=6)
    out = nll_from_logits(logits, targets)
    manual = -np.log(np.exp(logits.data) / np.exp(logits.data).sum(1, keepdims=True))[
        np.arange(6), targets
    ]
    np.testing.assert_allclose(out.data, manual, atol=1e-12)
    check_op(lambda l: (nll_from_logits(l, targets) * 0.5).sum(), (6, 9))


def test_segment_max_routes_to_first_argmax():
    x = parameter(np.array([[1.0, 5.0], [3.0, 5.0], [2.0, 0.0]]))
    starts = np.array([0])
    out = segment_max(x, starts)
    out.sum().backward()
    # column 0 max at row 1; column 1 ties rows 0 and 1 -> first wins
    np.testing.assert_array_equal(x.grad, [[0, 1], [1, 0], [0, 0]])


def test_segment_max_numeric():
    starts = np.array([0, 3, 4])
    check_op(lambda a: (segment_max(a, starts) * 0.3).sum(), (7, 4))


def test_dtype_discipline_float32_stays_float32():
    a = parameter(np.ones((2, 2), np.float32))
    gain = parameter(np.ones(2, np.float32))
    h = gated_ffn(rms_norm(a * 0.5 + 1.0, gain, 1e-6), a, a, a)
    causal = Spans(np.array([0, 0]), np.array([1, 2]))
    out = attention(h, h, a, a, a, a, 1, causal, rope_tables(2, 2, np.float32))
    out = out + embedding_mean([(a, np.array([0, 1]), None), (a, np.array([1, 1]), np.array([True, False]))])
    assert out.dtype == np.float32 and out.sum().dtype == np.float32


def test_graph_pruning_without_requires_grad():
    a = Tensor(np.ones(3))
    b = a * 2.0 + 1.0
    assert not b.requires_grad and b._node is None


def test_backward_consumes_the_graph_and_only_leaves_keep_grad():
    a = parameter(np.array([2.0, -1.0]))
    mid = a * a
    out = (mid + a).sum()
    other = (mid * 3.0).sum()  # shares ``mid`` with ``out``
    out.backward()
    np.testing.assert_allclose(a.grad, [5.0, -1.0])
    for t in (mid, out):
        assert t.grad is None and t._node.parents == ()
    for root in (out, other):
        with pytest.raises(RuntimeError, match="released"):
            root.backward()
    with pytest.raises(RuntimeError, match="does not require grad"):
        Tensor(np.ones(2)).sum().backward()


def test_grad_accumulates_across_paths():
    a = parameter(np.array([2.0]))
    out = a * a + a * 3.0
    out.sum().backward()
    np.testing.assert_allclose(a.grad, [2 * 2.0 + 3.0])


def test_backward_rejects_a_seed_of_another_shape():
    x = parameter(np.ones((3, 2)))
    y = x * 2.0
    # a seed that broadcasts would sum 4 copies into x.grad; one that is too
    # small would hand the parameter a gradient of the wrong shape
    for seed in (np.ones((4, 3, 2)), np.ones(2)):
        with pytest.raises(ValueError, match="seed of shape"):
            y.backward(seed)
    assert x.grad is None
    y.backward(np.ones((3, 2)))
    np.testing.assert_array_equal(x.grad, np.full((3, 2), 2.0))


def test_values_live_only_while_a_tensor_or_a_vjp_reads_them():
    rng = np.random.Generator(np.random.PCG64(0))
    x, w = parameter(rng.standard_normal((4, 3))), parameter(rng.standard_normal((3, 3)))
    h = x * 2.0
    product = h @ w
    out = x + product
    h_ref, product_ref = weakref.ref(h.data), weakref.ref(product.data)
    del h, product
    assert product_ref() is None  # ``+`` reads no value, only shapes
    assert h_ref() is not None  # the matmul's vjp reads its input...
    out.sum().backward()
    assert h_ref() is None  # ...until the backward releases it
    np.testing.assert_allclose(w.grad, (x.data * 2.0).T @ np.ones((4, 3)))


def test_matmul_rebuilds_a_norm_output_instead_of_keeping_it():
    rng = np.random.default_rng(4)
    w_data = rng.standard_normal((8, 5)).astype(np.float32)
    seed = rng.standard_normal((6, 5)).astype(np.float32)
    x_data = rng.standard_normal((6, 8)).astype(np.float32)
    gain_data = rng.standard_normal(8).astype(np.float32)
    x, gain, w = (parameter(a.copy()) for a in (x_data, gain_data, w_data))
    h = rms_norm(x, gain, 1e-6)
    out = h @ w
    h_ref = weakref.ref(h.data)
    del h
    assert h_ref() is None  # the matmul's vjp keeps a rebuild, not the output
    out.backward(seed)

    # the same chain through a plain leaf holding the same values
    ref_x, ref_gain, ref_w = (parameter(a.copy()) for a in (x_data, gain_data, w_data))
    h = rms_norm(ref_x, ref_gain, 1e-6)
    leaf = parameter(h.data.copy())
    (leaf @ ref_w).backward(seed)
    h.backward(leaf.grad)
    for got, want in zip((x, gain, w), (ref_x, ref_gain, ref_w)):
        assert got.grad.dtype == np.float32 and got.grad.tobytes() == want.grad.tobytes()

    assert rms_norm(Tensor(x_data), Tensor(gain_data), 1e-6)._rebuild is None  # no graph, no rebuild


def ffn_inputs():
    """The byte embeddings of a 3-document stream at the default width, scaled
    to unit variance, a norm gain, and feed-forward weights under which a
    normalised row's projections have unit variance; float32."""
    cfg = ModelConfig()
    docs = [np.frombuffer(textgen.synthetic_text(200, seed=s).encode()[:200], np.uint8) for s in range(3)]
    x = augmented_byte_embeddings(init_params(cfg, seed=3).detached(),
                                  Stream.from_documents(docs, patch_space), cfg).data
    d, ff = cfg.enc_dim, ffn_hidden_dim(cfg.enc_dim, cfg.ff_mult)
    rng = np.random.default_rng(3)
    arrays = [x / x.std(), 1.0 + 0.5 * rng.standard_normal(d), rng.standard_normal((d, ff)) / np.sqrt(d),
              rng.standard_normal((d, ff)) / np.sqrt(d), rng.standard_normal((ff, d)) / np.sqrt(ff)]
    return [a.astype(np.float32) for a in arrays]


@pytest.mark.parametrize("xn_kind", ["rms_norm", "parameter"])
def test_gated_ffn_is_bitwise_its_composition(xn_kind):
    # float32, at the model's sizes: the recomputed projections, the sigmoid
    # and the in-place backward give the composition's output and gradients
    inputs = ffn_inputs()
    seed = np.random.default_rng(6).standard_normal((len(inputs[0]), inputs[0].shape[1]))
    results = []
    for op in (gated_ffn, composed.gated_ffn):
        x, gain, *weights = (parameter(a.copy()) for a in inputs)
        xn = rms_norm(x, gain, 1e-6) if xn_kind == "rms_norm" else x
        out = op(xn, *weights)
        if xn_kind == "rms_norm":
            xn_ref = weakref.ref(xn.data)
            del xn
            assert xn_ref() is None  # both keep a rebuild of the norm output, not the output
        out.backward(seed.astype(np.float32))
        leaves = [x, gain] if xn_kind == "rms_norm" else [x]
        results.append([out.data] + [t.grad for t in leaves + weights])
    for got, want in zip(*results):
        assert got.dtype == want.dtype == np.float32 and got.tobytes() == want.tobytes()


def test_gated_ffn_of_a_norm_output_grads_numeric():
    weight = np.random.default_rng(7).standard_normal((5, 6))
    check_op(lambda x, gain, w_gate, w_up, w_down:
             (gated_ffn(rms_norm(x, gain, 1e-6), w_gate, w_up, w_down) * weight).sum(),
             (5, 6), (6,), (6, 8), (6, 8), (8, 6))


def attention_inputs(kind):
    """One attention block's inputs at the default config on a 3-document
    stream: ``(arrays, heads, spans, rope)``, where the float32 arrays are the
    query input, the key/value input (cross-attention only), their norm gains
    and the four weights. ``self`` is a local self-attention layer,
    ``membership`` encoder and ``decoder`` decoder cross-attention."""
    cfg = ModelConfig()
    docs = [np.frombuffer(textgen.synthetic_text(300, seed=s).encode()[:300], np.uint8) for s in range(3)]
    stream = Stream.from_documents(docs, patch_space)
    x = augmented_byte_embeddings(init_params(cfg, seed=3).detached(), stream, cfg).data
    x = x / x.std()
    n, m, k = stream.n_bytes, stream.n_patches, cfg.k
    rng = np.random.default_rng(8)
    if kind == "self":
        xq, xkv, heads = x, None, cfg.enc_heads
        spans = local_spans(n, cfg.enc_window, stream.doc_ids)
        rope = rope_cache(np.arange(n), cfg.enc_dim // heads, cfg.rope_theta, np.float32)
    elif kind == "membership":
        xq, xkv, heads = rng.standard_normal((m, cfg.global_dim)), x, k
        spans, rope = membership_spans(stream.boundaries), None
    else:
        xq, xkv, heads = x, rng.standard_normal((k * (m + 1), cfg.dec_dim)), cfg.dec_heads
        spans, rope = completed_patch_spans(stream.boundaries, stream.doc_ids, k), None
    d, d_kv = xq.shape[1], (xq if xkv is None else xkv).shape[1]
    weights = [rng.standard_normal(shape) / np.sqrt(shape[0])
               for shape in ((d, d), (d_kv, d), (d_kv, d), (d, d))]
    gains = [1.0 + 0.5 * rng.standard_normal(a.shape[1]) for a in (xq, xkv) if a is not None]
    arrays = [a.astype(np.float32) for a in [xq, *([] if xkv is None else [xkv]), *gains, *weights]]
    return arrays, heads, spans, rope


def attend_leaves(op, leaves, heads, spans, rope, norm: bool):
    """``op`` over parameter leaves: the inputs, through ``rms_norm`` if ``norm``."""
    n_in = 1 if rope is not None else 2
    inputs, gains, weights = leaves[:n_in], leaves[n_in:2 * n_in], leaves[2 * n_in:]
    xs = [rms_norm(x, g, 1e-6) for x, g in zip(inputs, gains)] if norm else inputs
    return op(xs[0], xs[-1], *weights, heads, spans, rope), xs


@pytest.mark.parametrize("xn_kind", ["rms_norm", "parameter"])
@pytest.mark.parametrize("kind", ["self", "membership", "decoder"])
def test_attention_is_bitwise_its_composition(kind, xn_kind):
    # float32, at the model's sizes: the per-head projections straight into
    # the kernel's layouts, the recomputed q, k and v, and the summed gradient
    # of a shared input give the composition's output and gradients
    arrays, heads, spans, rope = attention_inputs(kind)
    seed = None
    results = []
    for op in (attention, composed.attention):
        leaves = [parameter(a.copy()) for a in arrays]
        out, xs = attend_leaves(op, leaves, heads, spans, rope, xn_kind == "rms_norm")
        if xn_kind == "rms_norm":
            refs = [weakref.ref(x.data) for x in xs]
            del xs
            assert all(r() is None for r in refs)  # both keep rebuilds of the norm outputs
        if seed is None:
            seed = np.random.default_rng(6).standard_normal(out.shape).astype(np.float32)
        out.backward(seed)
        results.append([out.data] + [t.grad for t in leaves if t.grad is not None])
    unused = sum(a.ndim == 1 for a in arrays) if xn_kind == "parameter" else 0  # the gains
    assert len(results[0]) == len(results[1]) == 1 + len(arrays) - unused
    for got, want in zip(*results):
        assert got.dtype == want.dtype == np.float32 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["self", "cross"])
def test_attention_of_norm_outputs_grads_numeric(kind):
    # float64 finite differences through the backward's rebuild of the norm outputs
    n_q, n_k, d, d_kv = 7, 9, 8, 6
    i = np.arange(n_q)
    if kind == "self":
        spans, rope = Spans(np.maximum(i - 3, 0), i + 1), rope_tables(n_q, 4, np.float64)
        shapes = [(n_q, d), (d,), (d, d), (d, d), (d, d), (d, d)]
    else:
        spans, rope = Spans(i, i + 3), None
        shapes = [(n_q, d), (n_k, d_kv), (d,), (d_kv,), (d, d), (d_kv, d), (d_kv, d), (d, d)]
    weight = np.random.default_rng(7).standard_normal((n_q, d))
    check_op(lambda *leaves: (attend_leaves(attention, leaves, 2, spans, rope, True)[0] * weight).sum(),
             *shapes)


def random_spans(rng, kind, n_q, n_k, window, n_docs):
    """``(n_k, lo, hi)`` of one of three span kinds; windowed spans have n_k = n_q."""
    if kind == "windowed":  # local attention: lo = max(i - window + 1, document start), hi = i + 1
        i = np.arange(n_q)
        doc_start = np.zeros(n_q, dtype=np.int64)
        for start in np.sort(rng.choice(np.arange(1, n_q), size=min(n_docs - 1, n_q - 1),
                                        replace=False)):
            doc_start[start:] = start
        return n_q, np.maximum(i - window + 1, doc_start), i + 1
    lo = rng.integers(0, n_k, size=n_q)
    if kind == "sorted":  # spans move along the keys, so each tile sees only part of them
        lo.sort()
    return n_k, lo, np.minimum(lo + rng.integers(1, max(2, n_k // 4), size=n_q), n_k)


SPAN_CASES = dict(heads=st.integers(1, 3), n_q=st.integers(1, 3 * ATTN_TILE + 7),
                  n_k=st.integers(1, 2 * ATTN_TILE + 5),
                  spans=st.sampled_from(["random", "sorted", "windowed"]),
                  window=st.integers(1, 3 * ATTN_TILE), n_docs=st.integers(1, 3),
                  seed=st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(**SPAN_CASES)
def test_span_attention_matches_dense_oracle(heads, n_q, n_k, spans, window, n_docs, seed):
    rng = np.random.default_rng(seed)
    n_k, lo, hi = random_spans(rng, spans, n_q, n_k, window, n_docs)
    dim = int(rng.integers(1, 9))
    leaves = [rng.standard_normal((heads, n, d)) for n, d in ((n_q, dim), (n_k, dim), (n_k, 3))]
    weight = rng.standard_normal((heads, n_q, 3))
    key_spans = Spans(lo, hi)
    results = []
    for attend in (lambda q, k, v: span_attention(q, k, v, key_spans),
                   lambda q, k, v: composed.dense_attention(q, k, v, key_spans.dense(n_k))):
        q, k, v = (parameter(x.copy()) for x in leaves)
        out = attend(q, k, v)
        (out * weight).sum().backward()
        results.append([out.data, q.grad, k.grad, v.grad])
    for got, want in zip(*results):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


def test_span_attention_matches_the_exact_max_kernel(monkeypatch):
    # float64 against the kernel it replaced, which shifts each row by its exact
    # max. Inputs scaled x30 to x1000 put most rows' score bound far above their
    # max, so the exact-max recompute must run; unit-scale inputs stay on the
    # shifted path. Rounding grows with the scores, so the tolerance is 1e-12
    # per unit of the largest score bound, and the atol is that times the size
    # of the terms each result sums before they cancel.
    widths, tile_scores = [], tensor._tile_scores
    monkeypatch.setattr(tensor, "_tile_scores",
                        lambda qx, kT, *tile: widths.append(qx.shape[-1]) or tile_scores(qx, kT, *tile))
    ran = {"shifted": 0, "exact": 0}

    @settings(max_examples=80, deadline=None)
    @given(**SPAN_CASES, scale=st.one_of(st.just(1.0), st.floats(30.0, 1000.0)))
    def check(heads, n_q, n_k, spans, window, n_docs, seed, scale):
        rng = np.random.default_rng(seed)
        n_k, lo, hi = random_spans(rng, spans, n_q, n_k, window, n_docs)
        dim = int(rng.integers(1, 9))
        leaves = [rng.standard_normal((heads, n, d)) * c
                  for n, d, c in ((n_q, dim, scale), (n_k, dim, scale), (n_k, 3, 1.0))]
        weight = rng.standard_normal((heads, n_q, 3))
        span_set = Spans(lo, hi)

        def run(op):
            q, k, v = (parameter(x.copy()) for x in leaves)
            out = op(q, k, v, span_set)
            (out * weight).sum().backward()
            return [out.data, q.grad, k.grad, v.grad]

        widths.clear()
        results = run(span_attention)
        exact = widths.count(dim)  # a recomputed tile scores again without the shift column
        ran["exact"] += exact
        ran["shifted"] += len(span_set.plan) - exact
        big_q, big_k, big_v, big_w = (np.abs(x).max() for x in (*leaves, weight))
        tol = 1e-12 * max(1.0, big_q * big_k * np.sqrt(dim))
        terms = [big_v, big_w * big_v * big_k, big_w * big_v * big_q, big_w]
        for got, want, size in zip(results, run(composed.exact_max_span_attention), terms):
            np.testing.assert_allclose(got, want, rtol=tol, atol=tol * size)

    check()
    assert ran["shifted"] and ran["exact"], ran


@settings(max_examples=100, deadline=None)
@given(n_keys=st.integers(1, 300), n_q=st.integers(1, 80), sorted_lo=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_range_max_matches_brute_force(n_keys, n_q, sorted_lo, seed):
    rng = np.random.default_rng(seed)
    width = rng.integers(1, n_keys + 1, size=n_q)  # every width from 1 to n_keys
    width[0] = n_keys
    lo = rng.integers(0, n_keys - width + 1)
    if sorted_lo:
        order = np.argsort(lo, kind="stable")
        lo, width = lo[order], width[order]
    spans = Spans(lo, lo + width)
    x = rng.standard_normal((2, n_keys + 3))  # keys past the last span are never read
    want = np.stack([[row[a:b].max() for a, b in zip(spans.lo, spans.hi)] for row in x])
    np.testing.assert_array_equal(spans.range_max(x), want)


def test_span_attention_grad_numeric():
    spans = Spans(np.array([0, 2, 1, 5, 3]), np.array([1, 4, 6, 6, 4]))
    weight = np.random.default_rng(4).standard_normal((2, 5, 4))
    check_op(lambda q, k, v: (span_attention(q, k, v, spans) * weight).sum(),
             (2, 5, 3), (2, 6, 3), (2, 6, 4))


def test_span_attention_memory_is_linear_in_queries():
    # local attention at n=4096, window 512: the tile plan and the kT/vT
    # copies must stay O(n). One forward+backward peaks at about 10.6 MB here
    # (inputs of 1 MB each are not counted; 9.4 MB before the shift, ones and
    # -delta columns); one (n, n) score array would take 256 MB, and a plan
    # that kept its tiles' key columns 9 MB more.
    import tracemalloc

    n = 4096
    rng = np.random.default_rng(0)
    q, k, v = (parameter(rng.standard_normal((4, n, 16)).astype(np.float32)) for _ in range(3))
    i = np.arange(n)
    tracemalloc.start()
    try:
        span_attention(q, k, v, Spans(np.maximum(i - 511, 0), i + 1)).sum().backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q.grad.shape == q.shape and k.grad.shape == k.shape and v.grad.shape == v.shape
    assert peak < 12 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_span_attention_rejects_query_without_keys():
    # Spans checks its own bounds when built; span_attention checks only that
    # they fit the call's queries and keys
    q, k = Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros((1, 3, 2)))
    with pytest.raises(ValueError, match="no visible key"):
        Spans(np.array([0, 2]), np.array([1, 2]))
    with pytest.raises(ValueError, match="out of range"):
        Spans(np.array([-1, 2]), np.array([1, 3]))
    with pytest.raises(ValueError, match="one entry per query"):
        Spans(np.array([0, 2]), np.array([1, 3, 3]))
    with pytest.raises(ValueError, match="out of range"):
        span_attention(q, k, k, Spans(np.array([0, 2]), np.array([1, 4])))
    with pytest.raises(ValueError, match="one entry per query"):
        span_attention(q, k, k, Spans(np.array([0]), np.array([1])))
