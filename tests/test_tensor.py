import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchlm.tensor import (
    ATTN_TILE,
    Spans,
    Tensor,
    concat,
    embedding,
    nll_from_logits,
    parameter,
    segment_max,
    softmax,
    span_attention,
)


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
        got = x.grad if x.grad is not None else np.zeros_like(x.data)
        want = numeric_grad(lambda: float(build(*xs).data), x.data)
        np.testing.assert_allclose(got, want, atol=atol, rtol=rtol)


def test_add_mul_broadcast():
    check_op(lambda a, b: ((a + b) * (a * 0.5 + 2.0)).sum(), (3, 4), (4,))


def test_sub_broadcast():
    check_op(lambda a, b: ((a - b) * (a - 2.0)).sum(), (2, 5), (5,))


def test_pow_sqrt_exp_log():
    check_op(lambda a: ((a * a + 1.0) ** -0.5).sum(), (4, 3))


def test_matmul_2d_and_batched():
    check_op(lambda a, b: (a @ b).sum(), (3, 4), (4, 2))
    check_op(lambda a, b: ((a @ b) * 0.3).sum(), (2, 3, 4), (2, 4, 5))


def test_reshape_swapaxes_getitem():
    check_op(lambda a: a.reshape(6, 2).swapaxes(0, 1)[0, ::2].sum(), (3, 4))


def test_sum_mean_keepdims():
    check_op(lambda a: (a.sum(axis=1, keepdims=True) * a).mean(), (3, 5))
    check_op(lambda a: a.mean(axis=0).sum(), (4, 2))


def test_sigmoid_silu():
    check_op(lambda a: a.silu().sum(), (7,))


def test_softmax_grad_and_rows_sum_to_one():
    check_op(lambda a: (softmax(a, axis=-1) * np.arange(5.0)).sum(), (3, 5))
    y = softmax(Tensor(np.random.default_rng(0).normal(size=(64, 17))), axis=-1)
    np.testing.assert_allclose(y.data.sum(axis=1), 1.0, atol=1e-6)


def test_softmax_with_additive_mask_is_exactly_zero():
    x = parameter(np.random.default_rng(1).normal(size=(4, 6)))
    mask = np.zeros((4, 6))
    mask[:, 3:] = -1e30
    y = softmax(x + mask, axis=-1)
    assert (y.data[:, 3:] == 0.0).all()
    np.testing.assert_allclose(y.data.sum(axis=1), 1.0, atol=1e-12)


def test_concat_grad():
    check_op(lambda a, b: concat([a, b], axis=1).sum(axis=0)[1:].sum(), (2, 3), (2, 2))


def test_embedding_scatter_accumulates():
    table = parameter(np.random.default_rng(2).normal(size=(5, 3)))
    idx = np.array([0, 1, 1, 4])
    out = embedding(table, idx)
    (out * np.ones((4, 3))).sum().backward()
    assert table.grad[1].tolist() == [2.0, 2.0, 2.0]
    assert table.grad[2].tolist() == [0.0, 0.0, 0.0]


def test_embedding_numeric():
    idx = np.array([2, 0, 2])
    check_op(lambda t: (embedding(t, idx) * 0.7).sum(), (3, 4))


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
    out = ((a * 0.5 + 1.0) @ a).silu().sum()
    assert out.dtype == np.float32


def test_graph_pruning_without_requires_grad():
    a = Tensor(np.ones(3))
    b = a * 2.0 + 1.0
    assert not b.requires_grad and b._parents == ()


def test_backward_consumes_the_graph_and_only_leaves_keep_grad():
    a = parameter(np.array([2.0, -1.0]))
    mid = a * a
    out = (mid + a).sum()
    other = (mid * 3.0).sum()  # shares ``mid`` with ``out``
    out.backward()
    np.testing.assert_allclose(a.grad, [5.0, -1.0])
    for node in (mid, out):
        assert node.grad is None and node._parents == ()
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


def dense_attention(q, k, v, spans):
    """Reference: full score matrix scaled by 1/sqrt(d), additive -inf mask, softmax, mix."""
    j = np.arange(k.shape[1])
    visible = (spans.lo[:, None] <= j) & (j < spans.hi[:, None])
    scores = (q * (1.0 / np.sqrt(q.shape[-1]))) @ k.swapaxes(-1, -2)
    return softmax(scores + np.where(visible, 0.0, -np.inf), axis=-1) @ v


@settings(max_examples=60, deadline=None)
@given(heads=st.integers(1, 3), n_q=st.integers(1, 3 * ATTN_TILE + 7),
       n_k=st.integers(1, 2 * ATTN_TILE + 5),
       spans=st.sampled_from(["random", "sorted", "windowed"]),
       window=st.integers(1, 3 * ATTN_TILE), n_docs=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_span_attention_matches_dense_oracle(heads, n_q, n_k, spans, window, n_docs, seed):
    rng = np.random.default_rng(seed)
    n_k = n_q if spans == "windowed" else n_k
    if spans == "windowed":  # local attention: lo = max(i - window + 1, document start), hi = i + 1
        i = np.arange(n_q)
        doc_start = np.zeros(n_q, dtype=np.int64)
        for start in np.sort(rng.choice(np.arange(1, n_q), size=min(n_docs - 1, n_q - 1),
                                        replace=False)):
            doc_start[start:] = start
        lo, hi = np.maximum(i - window + 1, doc_start), i + 1
    else:
        lo = rng.integers(0, n_k, size=n_q)
        if spans == "sorted":  # spans move along the keys, so each tile sees only part of them
            lo.sort()
        hi = np.minimum(lo + rng.integers(1, max(2, n_k // 4), size=n_q), n_k)
    dim = int(rng.integers(1, 9))
    leaves = [rng.standard_normal((heads, n, d)) for n, d in ((n_q, dim), (n_k, dim), (n_k, 3))]
    weight = rng.standard_normal((heads, n_q, 3))
    results = []
    for op in (span_attention, dense_attention):
        q, k, v = (parameter(x.copy()) for x in leaves)
        out = op(q, k, v, Spans(lo, hi))
        (out * weight).sum().backward()
        results.append([out.data, q.grad, k.grad, v.grad])
    for got, want in zip(*results):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


def test_span_attention_grad_numeric():
    spans = Spans(np.array([0, 2, 1, 5, 3]), np.array([1, 4, 6, 6, 4]))
    weight = np.random.default_rng(4).standard_normal((2, 5, 4))
    check_op(lambda q, k, v: (span_attention(q, k, v, spans) * weight).sum(),
             (2, 5, 3), (2, 6, 3), (2, 6, 4))


def test_span_attention_memory_is_linear_in_queries():
    # local attention at n=4096, window 512: the tile plan and the kT/vT
    # copies must stay O(n). One forward+backward peaks at about 9.4 MB here
    # (inputs of 1 MB each are not counted); one (n, n) score array would
    # take 256 MB, and a plan that kept its tiles' key columns 9 MB more.
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
