import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchlm import textgen
from patchlm.entropy_lm import train_counts
from patchlm.model import ModelConfig, Stream, init_params, lm_forward
from patchlm.patching import patch_entropy, patch_space, patch_strided
from patchlm.tensor import parameter
from patchlm.trainer import (
    LN2,
    AdamState,
    DivergenceError,
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


def tiny_cfg(**over):
    import warnings

    base = dict(enc_dim=16, global_dim=32, dec_dim=16, enc_layers=1, global_layers=2,
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


# -- adamw ------------------------------------------------------------------------


def _toy_params(values):
    return BltParams({k: parameter(np.array(v, dtype=np.float64), k) for k, v in values.items()}, {})


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
    total = loader.total_patches
    seen = 0
    epoch0_first = loader.next_stream().data.copy()
    seen += 50
    while loader.state.epoch == 0:
        loader.next_stream()
        seen += 50
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
        with pytest.raises(ValueError, match="no predictable bytes"):
            eval_bpb(params, cfg, {"x": docs}, eval_patchers[scheme], max_stream_bytes)
        return
    rep = eval_bpb(params, cfg, {"x": docs}, eval_patchers[scheme], max_stream_bytes)
    assert rep.n_bytes["x"] == sum(len(d) - 1 for d in docs)
    assert np.isfinite(rep.bpb["x"])


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
    with pytest.raises(ValueError, match="empty"):
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
    ck = load_checkpoint(tmp_path / "part" / "ckpt_0000008.npz")
    loader_c = PatchStreamLoader(docs, STRIDED4, patch_budget=32, seed=1)
    loader_c.load_state_dict(ck["loader_state"])
    # wipe the tail of the metrics file as a resume would append after step 8
    part_rows = (tmp_path / "part" / "metrics.jsonl").read_text().splitlines()[:8]
    (tmp_path / "part" / "metrics.jsonl").write_text("\n".join(part_rows) + "\n")
    train(ck["params"], cfg, loader_c, ck["optim"], total_steps=16,
          run_dir=tmp_path / "part", start_step=ck["step"], adam_state=ck["adam"])

    full = (tmp_path / "full" / "metrics.jsonl").read_text()
    resumed = (tmp_path / "part" / "metrics.jsonl").read_text()
    assert full == resumed


def test_divergence_aborts():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=0)
    docs = make_docs(6, 150, seed=3)
    loader = PatchStreamLoader(docs, STRIDED4, patch_budget=32, seed=0)
    bad = OptimSpec(lr_peak=2.0, warmup_steps=1, weight_decay=0.0)
    with pytest.raises(DivergenceError):
        train(params, cfg, loader, bad, total_steps=60, divergence_patience=5)


def test_zero_steps_initial_eval_only():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=0)
    docs = make_docs(8, 120, seed=41)
    loader = PatchStreamLoader(docs[:6], STRIDED4, patch_budget=16, seed=0)
    res = train(params, cfg, loader, OptimSpec(), total_steps=0,
                eval_slices={"held": docs[6:]}, eval_patcher=STRIDED4)
    assert res.steps_done == 0 and len(res.eval_reports) == 1
    assert res.eval_reports[0].steps == 0


def test_checkpoint_roundtrip(tmp_path):
    cfg = tiny_cfg()
    params = init_params(cfg, seed=3)
    docs = make_docs(5, 100, seed=7)
    loader = PatchStreamLoader(docs, STRIDED4, patch_budget=16, seed=5)
    state = AdamState.init(params)
    state.t = 42
    path = tmp_path / "ck.npz"
    save_checkpoint(path, params, state, loader, step=17, config=cfg,
                    optim=OptimSpec(), config_hash="deadbeef")
    ck = load_checkpoint(path)
    assert ck["step"] == 17 and ck["config_hash"] == "deadbeef"
    assert ck["adam"].t == 42
    assert ck["config"].to_dict() == cfg.to_dict()
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
