import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchlm import model, textgen, trainer
from patchlm.entropy_lm import train_counts
from patchlm.errors import ConfigError, DataError, NumericError
from patchlm.model import ModelConfig, Stream, init_params, lm_forward
from patchlm.patching import PatchBoundaries, patch_entropy, patch_space, patch_strided
from patchlm.tensor import RowGrad, parameter
from patchlm.trainer import (
    LN2,
    AdamState,
    EvalReport,
    OptimSpec,
    PatchStreamLoader,
    adamw_step,
    check_disjoint,
    eval_bpb,
    global_grad_norm,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    train,
)
from patchlm.model import BltParams
from tests import composed


def tiny_cfg(**over):
    import warnings

    base = dict(enc_dim=16, global_dim=32, enc_layers=1, global_layers=2,
                dec_layers=1, enc_heads=2, global_heads=2, dec_heads=2, hash_vocab=64,
                enc_window=16, dec_window=16)
    base.update(over)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ModelConfig(**base)


def make_docs(n_docs=24, doc_bytes=200, seed=0):
    return [np.frombuffer(textgen.synthetic_text(doc_bytes, seed=seed + i).encode(), np.uint8)
            for i in range(n_docs)]


STRIDED4 = lambda d: patch_strided(len(d), 4)


# -- schedule -------------------------------------------------------------------


def test_lr_schedule_endpoints():
    spec = OptimSpec(lr_peak=4e-4, warmup_steps=2000)
    assert lr_at(0, spec, 10_000) == 0.0
    assert lr_at(2000, spec, 10_000) == 4e-4
    assert abs(lr_at(10_000, spec, 10_000)) < 1e-20


def test_lr_schedule_continuous_at_junction():
    spec = OptimSpec(lr_peak=1e-3, warmup_steps=100)
    left = lr_at(99, spec, 1000)
    mid = lr_at(100, spec, 1000)
    right = lr_at(101, spec, 1000)
    assert left < mid and abs(mid - right) < 1e-3 * mid + 1e-8
    with pytest.raises(ValueError):
        lr_at(5, spec, 50)  # warmup longer than schedule


def test_optim_spec_accepts_its_range_edges_and_rejects_what_lies_past_them():
    OptimSpec(warmup_steps=0, beta1=0.0, beta2=0.0, weight_decay=0.0, grad_clip=math.inf)
    for name, bad in (("lr_peak", math.nan), ("lr_peak", math.inf), ("lr_peak", 0.0),
                      ("eps", math.nan), ("eps", math.inf), ("grad_clip", math.nan),
                      ("grad_clip", 0.0), ("beta1", -3.0), ("beta1", 1.0), ("beta2", math.nan),
                      ("weight_decay", -5.0), ("weight_decay", math.inf), ("warmup_steps", -1)):
        with pytest.raises(ConfigError, match=f"optimizer.{name} must be"):
            OptimSpec(**{name: bad})


# -- adamw ------------------------------------------------------------------------


def _toy_params(values):
    return BltParams({k: parameter(np.array(v, dtype=np.float64), k) for k, v in values.items()})


def test_zero_grads_zero_decay_is_noop():
    params = _toy_params({"w": [1.0, -2.0]})
    params["w"].grad = np.zeros(2)
    state = AdamState.init(params)
    adamw_step(params, state, OptimSpec(weight_decay=0.0), lr=1e-2)
    np.testing.assert_array_equal(params["w"].data, [1.0, -2.0])


def test_gradient_clip_scales_to_threshold():
    params = _toy_params({"w": [0.0]})
    params["w"].grad = np.array([10.0])
    state = AdamState.init(params)
    gnorm = adamw_step(params, state, OptimSpec(weight_decay=0.0, grad_clip=1.0), lr=0.0)
    assert gnorm == 10.0
    # effective gradient is 10 * 0.1 = 1.0; check the first moment
    np.testing.assert_allclose(state.m["w"], [(1 - 0.9) * 1.0])


def test_quadratic_convergence_oracle():
    # minimize (x - 0.5)^2 at fixed lr 1e-2: well inside 200 steps
    params = _toy_params({"x": [0.0]})
    state = AdamState.init(params)
    spec = OptimSpec(weight_decay=0.0)
    for _ in range(200):
        x = params["x"].data[0]
        params["x"].grad = np.array([2 * (x - 0.5)])
        adamw_step(params, state, spec, lr=1e-2)
    assert abs(params["x"].data[0] - 0.5) < 1e-2


def test_nonfinite_grads_skip_step():
    params = _toy_params({"w": [1.0]})
    params["w"].grad = np.array([np.nan])
    state = AdamState.init(params)
    adamw_step(params, state, OptimSpec(), lr=1e-2)
    assert state.skipped == 1 and state.t == 0
    np.testing.assert_array_equal(params["w"].data, [1.0])


def test_weight_decay_exclusions():
    params = _toy_params({"a.attn.wq": [[1.0]], "a.attn_norm": [1.0], "byte_embed": [[1.0]]})
    for t in params.tensors.values():
        t.grad = np.zeros_like(t.data)
    state = AdamState.init(params)
    adamw_step(params, state, OptimSpec(weight_decay=0.5), lr=0.1)
    assert params["a.attn.wq"].data[0, 0] < 1.0  # decayed
    assert params["a.attn_norm"].data[0] == 1.0  # gains excluded
    assert params["byte_embed"].data[0, 0] == 1.0  # embeddings excluded


@pytest.mark.parametrize("grad_clip", [1e-3, 1e9])  # every step clipped, or none
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adamw_is_bitwise_the_allocating_oracle(dtype, grad_clip):
    # documents of 3-7 bytes: the 8-gram table's gradient has no rows, the
    # 7-gram table's only a few; one decayed matrix gets no gradient at all
    cfg = tiny_cfg()
    text = np.frombuffer(textgen.synthetic_text(400, seed=1).encode(), np.uint8)
    cuts = np.cumsum(np.random.default_rng(0).integers(3, 8, 80))
    docs = [text[a:b] for a, b in zip(cuts[:-1], cuts[1:]) if b <= len(text)]
    loader = PatchStreamLoader(docs, lambda d: patch_strided(len(d), 2), patch_budget=24, seed=0)
    spec = OptimSpec(grad_clip=grad_clip)
    runs = [(init_params(cfg, seed=3).astype(dtype), step) for step in (adamw_step, composed.adamw_step)]
    states = [AdamState.init(params) for params, _ in runs]
    for i in range(6):
        stream = loader.next_stream()
        norms = []
        for (params, step), state in zip(runs, states):
            params.zero_grad()
            lm_forward(params, stream, cfg).loss.backward()
            params["global.0.attn.wq"].grad = None
            norms.append(step(params, state, spec, lr=1e-2))
        (params, _), (want, _) = runs
        empty = params["hash_embed.n8"].grad
        assert isinstance(empty, RowGrad) and len(empty.rows) == 0
        assert norms[0] == norms[1] and (norms[0] > grad_clip) == (grad_clip < 1)
        for name, t in params.items():
            assert t.data.dtype == dtype and t.data.tobytes() == want[name].data.tobytes(), (i, name)
            np.testing.assert_array_equal(states[0].m[name], states[1].m[name])
            np.testing.assert_array_equal(states[0].v[name], states[1].v[name])


def test_adamw_allocates_only_its_scratch_at_the_default_config():
    # a `train` step at the default config: 128 patches of ~4.5 bytes
    cfg = ModelConfig()
    params = init_params(cfg, seed=0)
    loader = PatchStreamLoader(make_docs(n_docs=8, doc_bytes=400), lambda d: patch_strided(len(d), 4),
                               patch_budget=128, seed=0)
    lm_forward(params, loader.next_stream(), cfg).loss.backward()
    for size in cfg.ngram_sizes:
        assert isinstance(params[f"hash_embed.n{size}"].grad, RowGrad), size
    scratch = 2 * max(t.data.nbytes for _, t in params.items())  # the update's two; the norm's float64 one
    state = AdamState.init(params)
    for grad_clip in (1e-3, 1e9):
        tracemalloc.start()
        try:
            adamw_step(params, state, OptimSpec(grad_clip=grad_clip), lr=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= scratch + 512 * 1024, (grad_clip, peak, scratch)


# -- loader --------------------------------------------------------------------------


def test_loader_exact_patch_budget():
    loader = PatchStreamLoader(make_docs(), STRIDED4, patch_budget=37, seed=0)
    for _ in range(20):
        stream = loader.next_stream()
        assert stream.n_patches == 37


def test_loader_expected_bytes_per_batch():
    docs = make_docs(n_docs=40, doc_bytes=300, seed=3)
    budget = 64
    loader = PatchStreamLoader(docs, STRIDED4, patch_budget=budget, seed=1)
    realized = [loader.next_stream().n_bytes for _ in range(120)]
    expect = budget * loader.mean_patch_size
    assert abs(np.mean(realized) - expect) / expect < 0.01


def test_loader_carries_remainder_and_reshuffles():
    docs = make_docs(n_docs=6, doc_bytes=120, seed=5)
    loader = PatchStreamLoader(docs, STRIDED4, patch_budget=50, seed=2)
    total = loader.stats.n_patches
    assert total == sum(len(d) // 4 + (len(d) % 4 > 0) for d in docs)
    seen = 0
    epoch0_first = loader.next_stream().data.copy()
    seen += 50
    while loader.state.epoch == 0:
        loader.next_stream()
        seen += 50
    assert total <= seen < total + 50  # the epoch ended with its last patch
    # after a full epoch the permutation changes
    epoch1_first = loader.next_stream().data
    assert len(epoch0_first) != len(epoch1_first) or not np.array_equal(epoch0_first, epoch1_first)


def test_loader_state_roundtrip():
    docs = make_docs(n_docs=10, doc_bytes=150, seed=9)
    a = PatchStreamLoader(docs, STRIDED4, patch_budget=30, seed=4)
    for _ in range(7):
        a.next_stream()
    saved = a.state_dict()
    want = [a.next_stream().data for _ in range(5)]
    b = PatchStreamLoader(docs, STRIDED4, patch_budget=30, seed=4)
    b.load_state_dict(saved)
    got = [b.next_stream().data for _ in range(5)]
    for w, g in zip(want, got):
        np.testing.assert_array_equal(w, g)


# -- eval ---------------------------------------------------------------------------


def test_uniform_model_scores_exactly_eight():
    rep = eval_bpb(None, None, {"x": make_docs(4)})
    assert rep.bpb["x"] == 8.0


def test_bpb_arithmetic_anchor():
    # 693.147 total nats over 1000 predicted bytes is one bit per byte
    assert abs(693.147 / (LN2 * 1000) - 1.0) < 1e-6


def test_bpb_invariant_and_order_independence():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=0)
    docs = make_docs(6, 150, seed=21)
    r1 = eval_bpb(params, cfg, {"a": docs[:3], "b": docs[3:]}, STRIDED4)
    r2 = eval_bpb(params, cfg, {"b": docs[3:], "a": docs[:3]}, STRIDED4)
    assert r1.bpb == r2.bpb
    for s in ("a", "b"):
        assert r1.bpb[s] == r1.loss_nats[s] / (LN2 * r1.n_bytes[s])


@pytest.fixture(scope="module")
def eval_patchers():
    em = train_counts(make_docs(20, 300, seed=50), order=2)
    return {
        "space": patch_space,
        "strided": lambda d: patch_strided(len(d), 3),
        "entropy": lambda d: patch_entropy(em.entropy_trace(d), theta_g=1.5),
    }


@settings(max_examples=30, deadline=None)
@given(scheme=st.sampled_from(["space", "strided", "entropy"]),
       max_stream_bytes=st.integers(4, 64),
       lengths=st.lists(st.integers(1, 90), min_size=1, max_size=3),
       seed=st.integers(0, 1000))
def test_eval_scores_every_byte_exactly_once(eval_patchers, scheme, max_stream_bytes, lengths,
                                             seed):
    cfg = tiny_cfg()
    params = init_params(cfg, seed=0)
    text = textgen.synthetic_text(sum(lengths), seed=seed).encode()
    cuts = np.cumsum([0] + lengths)
    docs = [np.frombuffer(text[a:b], np.uint8) for a, b in zip(cuts[:-1], cuts[1:])]
    if sum(lengths) == len(lengths):  # only 1-byte documents: nothing to predict
        with pytest.raises(DataError, match="no predictable bytes"):
            eval_bpb(params, cfg, {"x": docs}, eval_patchers[scheme], max_stream_bytes)
        return
    rep = eval_bpb(params, cfg, {"x": docs}, eval_patchers[scheme], max_stream_bytes)
    assert rep.n_bytes["x"] == sum(len(d) - 1 for d in docs)
    assert np.isfinite(rep.bpb["x"])


def split_doc_by_patches(bounds, max_bytes):
    """The per-patch loop ``trainer._split_doc`` replaced, kept as its oracle."""
    spans = []
    lo_patch = 0
    starts = bounds.starts
    while lo_patch < bounds.n_patches:
        byte_lo = int(starts[lo_patch])
        hi_patch = lo_patch + 1
        while hi_patch < bounds.n_patches and int(starts[hi_patch]) - byte_lo <= max_bytes:
            hi_patch += 1
        # hi_patch is the first patch start beyond the window (or the end)
        byte_hi = int(starts[hi_patch]) if hi_patch < bounds.n_patches else bounds.n_bytes
        if byte_hi - byte_lo > max_bytes and hi_patch - lo_patch > 1:
            hi_patch -= 1
            byte_hi = int(starts[hi_patch])
        spans.append((byte_lo, byte_hi, starts[lo_patch:hi_patch] - byte_lo))
        lo_patch = hi_patch
    return spans


@settings(max_examples=300, deadline=None)
@given(n_bytes=st.integers(1, 300), max_bytes=st.integers(1, 80), data=st.data())
def test_split_doc_matches_the_per_patch_loop(n_bytes, max_bytes, data):
    inner = data.draw(st.sets(st.integers(1, n_bytes - 1), max_size=n_bytes - 1)
                      if n_bytes > 1 else st.just(set()))
    bounds = PatchBoundaries(np.array(sorted({0, *inner})), n_bytes)
    got, want = trainer._split_doc(bounds, max_bytes), split_doc_by_patches(bounds, max_bytes)
    assert [(lo, hi) for lo, hi, _ in got] == [(lo, hi) for lo, hi, _ in want]
    assert all(np.array_equal(g, w) for (_, _, g), (_, _, w) in zip(got, want))


def span_logits(params, cfg, stream):
    """``lm_forward``'s logits, which a 1-byte stream has although it predicts nothing."""
    cache = {}
    h, p = model.encoder_forward(params, stream, cfg, cache)
    o = model.global_forward(params, p, stream.patch_doc_ids, cfg)
    return model.decoder_forward(params, h, o, stream, cfg, cache).data


def nats_scoring_the_cut_byte_from_the_span(params, cfg, docs, patcher, max_bytes):
    """Total nats under the rule the one-byte patch replaced: each span is
    scored alone, and a span cut short of its document's end also scores the
    next span's first byte from the span's own last logits."""
    total = 0.0
    for d in docs:
        for lo, hi, starts in trainer._split_doc(patcher(d), max_bytes):
            span = Stream.concat([(d[lo:hi], starts)])
            if hi - lo > 1:
                total += lm_forward(params, span, cfg).total_nats
            if hi < len(d):
                z = span_logits(params, cfg, span)[-1]
                total += np.log(np.exp(z - z.max()).sum()) + z.max() - z[d[hi]]
    return total


@pytest.mark.parametrize("scheme", ["strided", "space", "entropy"])
def test_eval_scores_each_cut_byte_as_the_span_would(eval_patchers, scheme):
    cfg = tiny_cfg()
    params = init_params(cfg, seed=3).astype(np.float64)
    text = textgen.synthetic_text(200, seed=17).encode()[:200]
    docs = [np.frombuffer(text[a:b], np.uint8) for a, b in ((0, 30), (30, 95), (95, 200))]
    patcher = eval_patchers[scheme]
    spans = [len(trainer._split_doc(patcher(d), 40)) for d in docs]
    assert min(spans) == 1 and max(spans) >= 3
    rep = eval_bpb(params, cfg, {"x": docs}, patcher, max_stream_bytes=40)
    want = nats_scoring_the_cut_byte_from_the_span(params, cfg, docs, patcher, 40)
    assert abs(rep.loss_nats["x"] - want) <= 1e-12 * want
    assert rep.n_bytes["x"] == sum(len(d) - 1 for d in docs)


def test_eval_uncut_document_scores_as_one_stream():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=4)
    doc = make_docs(1, 300, seed=9)[0]
    rep = eval_bpb(params, cfg, {"x": [doc]}, STRIDED4, max_stream_bytes=len(doc))
    res = lm_forward(params, Stream.from_documents([doc], STRIDED4), cfg)
    assert rep.loss_nats["x"] == res.total_nats
    assert rep.n_bytes["x"] == len(doc) - 1


def test_eval_long_stream_builds_no_graph():
    # one 4096-byte stream at the default config: with a graph alive the peak
    # is several hundred MB
    import tracemalloc

    cfg = ModelConfig()
    params = init_params(cfg, seed=0)
    doc = np.frombuffer(textgen.synthetic_text(4096, seed=5).encode()[:4096], np.uint8)
    tracemalloc.start()
    try:
        rep = eval_bpb(params, cfg, {"x": [doc]}, patch_space, max_stream_bytes=4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_bytes["x"] == 4095
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.0f} MB"


def test_eval_empty_slice_rejected():
    with pytest.raises(DataError, match="empty"):
        eval_bpb(None, None, {"a": []})


def test_disjointness_hash_check():
    docs = make_docs(4, 100, seed=2)
    with pytest.raises(ValueError, match="both"):
        check_disjoint(docs[:3], docs[2:])
    check_disjoint(docs[:2], docs[2:])


# -- training loop ---------------------------------------------------------------------


def test_loss_decreases_on_repetitive_corpus(tmp_path):
    cfg = tiny_cfg()
    params = init_params(cfg, seed=0)
    docs = [np.frombuffer((b"the cat sat on the mat. " * 8), np.uint8)] * 8
    loader = PatchStreamLoader(docs, STRIDED4, patch_budget=48, seed=0)
    optim = OptimSpec(lr_peak=5e-3, warmup_steps=10, weight_decay=0.0)
    res = train(params, cfg, loader, optim, total_steps=60, run_dir=tmp_path / "r")
    first = json.loads((tmp_path / "r" / "metrics.jsonl").read_text().splitlines()[0])
    assert res.final_loss < 0.6 * first["loss_nats"]


def test_resume_is_bit_identical(tmp_path):
    cfg = tiny_cfg()
    docs = make_docs(12, 160, seed=31)
    optim = OptimSpec(lr_peak=2e-3, warmup_steps=5)

    params_a = init_params(cfg, seed=1)
    loader_a = PatchStreamLoader(docs, STRIDED4, patch_budget=32, seed=1)
    train(params_a, cfg, loader_a, optim, total_steps=16, run_dir=tmp_path / "full")

    params_b = init_params(cfg, seed=1)
    loader_b = PatchStreamLoader(docs, STRIDED4, patch_budget=32, seed=1)
    train(params_b, cfg, loader_b, optim, total_steps=16, run_dir=tmp_path / "part",
          checkpoint_every=8)
    # parameters of another seed and a fresh loader: the checkpoint restores both
    params_c = init_params(cfg, seed=2)
    loader_c = PatchStreamLoader(docs, STRIDED4, patch_budget=32, seed=1)
    res = train(params_c, cfg, loader_c, optim, total_steps=16, run_dir=tmp_path / "part",
                resume=tmp_path / "part" / "ckpt_0000008.npz")

    assert res.steps_done == 16
    full = (tmp_path / "full" / "metrics.jsonl").read_bytes()
    assert (tmp_path / "part" / "metrics.jsonl").read_bytes() == full
    for name, t in params_a.items():
        np.testing.assert_array_equal(params_c[name].data, t.data)


def test_divergence_aborts(tmp_path, monkeypatch):
    monkeypatch.setattr(trainer, "DIVERGENCE_PATIENCE", 5)
    cfg = tiny_cfg()
    params = init_params(cfg, seed=0)
    docs = make_docs(6, 150, seed=3)
    loader = PatchStreamLoader(docs, STRIDED4, patch_budget=32, seed=0)
    bad = OptimSpec(lr_peak=2.0, warmup_steps=1, weight_decay=0.0)
    with pytest.raises(NumericError):
        train(params, cfg, loader, bad, total_steps=60, run_dir=tmp_path)


@pytest.mark.parametrize("resume_step", [4, 6])
def test_a_resumed_diverging_run_aborts_at_the_same_step(tmp_path, monkeypatch, resume_step):
    # the checkpoint carries the divergence monitor: a resumed run neither
    # forgets its streak nor takes a later loss as its initial one
    monkeypatch.setattr(trainer, "DIVERGENCE_PATIENCE", 5)
    cfg = tiny_cfg()
    docs = make_docs(6, 150, seed=3)
    bad = OptimSpec(lr_peak=2.0, warmup_steps=1, weight_decay=0.0)

    def abort(**resume):
        loader = PatchStreamLoader(docs, STRIDED4, patch_budget=32, seed=0)
        with pytest.raises(NumericError) as exc:
            train(init_params(cfg, seed=0), cfg, loader, bad, total_steps=60, run_dir=tmp_path,
                  checkpoint_every=2, **resume)
        return str(exc.value), (tmp_path / "metrics.jsonl").read_bytes()

    message, metrics = abort()
    assert resume_step < metrics.count(b"\n") < 60
    assert abort(resume=tmp_path / f"ckpt_{resume_step:07d}.npz") == (message, metrics)


def test_resume_refuses_a_checkpoint_of_another_run(tmp_path):
    cfg = tiny_cfg()
    docs = make_docs(6, 120, seed=11)

    def run(config, run_dir, **kw):
        loader = PatchStreamLoader(docs, STRIDED4, patch_budget=16, seed=0)
        train(init_params(config, seed=0), config, loader, OptimSpec(warmup_steps=1),
              total_steps=2, run_dir=tmp_path / run_dir, **kw)

    run(cfg, "a", config_hash="aaaa")
    with pytest.raises(DataError, match="another config"):
        run(cfg, "b", config_hash="bbbb", resume=tmp_path / "a" / "ckpt_final.npz")
    with pytest.raises(DataError, match="shapes"):
        run(tiny_cfg(hash_vocab=32), "c", config_hash="aaaa",
            resume=tmp_path / "a" / "ckpt_final.npz")


def test_zero_steps_initial_eval_only(tmp_path):
    cfg = tiny_cfg()
    params = init_params(cfg, seed=0)
    docs = make_docs(8, 120, seed=41)
    loader = PatchStreamLoader(docs[:6], STRIDED4, patch_budget=16, seed=0)
    res = train(params, cfg, loader, OptimSpec(), total_steps=0, run_dir=tmp_path,
                eval_slices={"held": docs[6:]}, eval_patcher=STRIDED4)
    assert res.steps_done == 0 and len(res.eval_reports) == 1
    assert res.eval_reports[0].steps == 0


@pytest.mark.parametrize("steps, evals", [(4, [2, 4]), (5, [2, 4, 5]), (0, [0])])
def test_each_step_is_evaluated_at_most_once(tmp_path, steps, evals):
    # the last step is evaluated after the loop only if the loop's schedule missed it
    cfg = tiny_cfg()
    docs = make_docs(8, 120, seed=41)
    loader = PatchStreamLoader(docs[:6], STRIDED4, patch_budget=16, seed=0)
    res = train(init_params(cfg, seed=0), cfg, loader, OptimSpec(warmup_steps=1), total_steps=steps,
                run_dir=tmp_path, eval_slices={"held": docs[6:]}, eval_patcher=STRIDED4, eval_every=2)
    assert [r.steps for r in res.eval_reports] == evals


def test_a_skipped_step_logs_its_grad_norm_as_null(tmp_path, monkeypatch):
    monkeypatch.setattr(trainer, "global_grad_norm", lambda params: math.nan)
    cfg = tiny_cfg()
    loader = PatchStreamLoader(make_docs(6, 120, seed=11), STRIDED4, patch_budget=16, seed=0)
    res = train(init_params(cfg, seed=0), cfg, loader, OptimSpec(warmup_steps=1), total_steps=3,
                run_dir=tmp_path)
    assert res.skipped_steps == 3

    def not_json(name):
        raise ValueError(f"{name} is not JSON")

    rows = [json.loads(line, parse_constant=not_json)
            for line in (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert [row["grad_norm"] for row in rows] == [None] * 3


def test_checkpoint_roundtrip(tmp_path):
    cfg = tiny_cfg()
    params = init_params(cfg, seed=3)
    docs = make_docs(5, 100, seed=7)
    loader = PatchStreamLoader(docs, STRIDED4, patch_budget=16, seed=5)
    state = AdamState.init(params)
    state.t = 42
    loader.next_stream()
    path = tmp_path / "ck.npz"
    save_checkpoint(path, params, state, loader, step=17, config_hash="deadbeef",
                    divergence=trainer.Divergence(initial_loss=5.5, streak=3))
    ck = load_checkpoint(path)
    assert ck["step"] == 17 and ck["config_hash"] == "deadbeef"
    assert ck["adam"].t == 42
    assert ck["loader_state"] == loader.state_dict()
    assert ck["divergence"] == trainer.Divergence(initial_loss=5.5, streak=3)
    for name, t in params.items():
        np.testing.assert_array_equal(ck["params"][name].data, t.data)


def test_metrics_fields_are_deterministic_set(tmp_path):
    cfg = tiny_cfg()
    docs = make_docs(6, 120, seed=11)
    for run in ("m", "m2"):
        params = init_params(cfg, seed=0)
        loader = PatchStreamLoader(docs, STRIDED4, patch_budget=16, seed=0)
        train(params, cfg, loader, OptimSpec(warmup_steps=1), total_steps=3, run_dir=tmp_path / run)
    metrics = (tmp_path / "m" / "metrics.jsonl").read_bytes()
    assert metrics == (tmp_path / "m2" / "metrics.jsonl").read_bytes()
    row = json.loads(metrics.decode().splitlines()[0])
    assert set(row) == {"step", "loss_nats", "bpb", "lr", "grad_norm", "n_patches", "n_bytes"}
    perf = json.loads((tmp_path / "m" / "perf.jsonl").read_text().splitlines()[0])
    assert {"patches_per_s", "bytes_per_s", "peak_rss_mb"} <= set(perf)
    assert perf["peak_rss_mb"] > 1.0
