"""Per-layer tracing from outside the package.

Spans are opened by the benchmark around calls into ``patchlm``: directly in
the workload code, and through wrappers that ``installed`` puts on the
module-level names ``patchlm.model`` looks up at call time (the block
functions, the mask builders and ``softmax``), on ``trainer.lm_forward`` and
on ``Tensor.__matmul__`` (to count the FLOPs the code executes). A layer's
self time is its span's duration minus the time of the spans opened inside
it. Nothing here edits the package; every wrapper is removed on exit.

``composed_forward`` runs ``lm_forward``'s four stages on detached leaf
tensors so that backward can be timed per stage.
"""

from __future__ import annotations

import contextlib
import functools
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from patchlm import model, patching, tensor, trainer

# Span of a block function -> the FlopsReport component it implements.
BLOCK_COMPONENT = {
    "model.encoder.xattn.fwd": "encoder_xattn",
    "model.encoder.layers.fwd": "encoder_transformer",
    "model.global.fwd": "latent",
    "model.decoder.xattn.fwd": "decoder_xattn",
    "model.decoder.layers.fwd": "decoder_transformer",
}
# Matmuls that stage functions run outside any block, by parameter name.
PARAM_COMPONENT = {
    "enc.pool_proj": "encoder_xattn",
    "dec.patch_proj": "decoder_xattn",
    "out_proj": "decoder_transformer",
}
_STAGE = {"enc.": "encoder", "global.": "global", "dec.": "decoder"}
_MASK_BUILDERS = ("local_block_causal_mask", "block_causal_patch_mask",
                  "patch_membership_mask", "completed_patch_mask")


class NullTracer:
    """Stand-in used by untraced runs: no spans, no wrappers."""

    def span(self, name):
        return contextlib.nullcontext()

    def watch_model(self, em):
        return em

    def watch_patcher(self, patcher, theta):
        return patcher


NULL = NullTracer()


class Tracer(NullTracer):
    """Aggregates span self/inclusive time, counts and matmul FLOPs per phase.

    ``phase`` is "setup" while the workload is built and "op" during traced
    operations; aggregates are keyed by (phase, name).
    """

    def __init__(self):
        self.phase = "setup"
        self._open: list[list] = []  # [name, start, seconds covered by children]
        self.self_s: dict = defaultdict(float)
        self.total_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(float)
        self.flops: dict = defaultdict(float)  # component -> forward FLOPs
        self.block_flops: dict = defaultdict(float)  # block span -> forward FLOPs
        self._last_trace = None

    @contextlib.contextmanager
    def span(self, name):
        frame = [name, time.perf_counter(), 0.0]
        self._open.append(frame)
        try:
            yield
        finally:
            dur = time.perf_counter() - frame[1]
            self._open.pop()
            self.self_s[(self.phase, name)] += dur - frame[2]
            self.total_s[(self.phase, name)] += dur
            if self._open:
                self._open[-1][2] += dur

    def count(self, name, value):
        self.counts[(self.phase, name)] += value

    def count_matmul(self, flops: float, right_name: str | None):
        inner = self._open[-1][0] if self._open else None
        component = BLOCK_COMPONENT.get(inner)
        if component is not None:
            self.block_flops[inner] += flops
        else:
            component = PARAM_COMPONENT.get(right_name, "unattributed")
        self.flops[component] += flops

    def count_stream(self, stream):
        self.count("streams", 1)
        self.count("stream.bytes", stream.n_bytes)
        self.count("stream.patches", stream.n_patches)

    def watch_model(self, em):
        return _WatchedEntropyModel(em, self)

    def watch_patcher(self, patcher, theta):
        """Time each patcher call and count forced splits from outside.

        The patcher's own entropy trace (captured by ``watch_model``) gives
        the unsplit boundaries; ``enforce_max_patch`` counts the splits the
        maximum patch size forces, next to what ``patch_stats`` reports.
        """

        def run(data):
            with self.span("patching.boundaries"):
                bounds = patcher(data)
            flags = self._last_trace.values > theta
            flags[0] = True
            _, forced = patching.enforce_max_patch(
                np.flatnonzero(flags), bounds.n_bytes, patching.DEFAULT_MAX_PATCH)
            self.count("patching.forced_splits", forced)
            self.count("patching.stats_forced_splits", patching.patch_stats(bounds).forced_splits)
            self.count("patching.bytes", bounds.n_bytes)
            self.count("patching.patches", bounds.n_patches)
            return bounds

        return run


class _WatchedEntropyModel:
    """Delegates ``entropy_trace`` to a count model inside a span."""

    def __init__(self, em, tracer: Tracer):
        self._em = em
        self._tracer = tracer

    def entropy_trace(self, data, reset_on_newline: bool = False):
        with self._tracer.span("entropy_lm.entropy_trace"):
            trace = self._em.entropy_trace(data, reset_on_newline=reset_on_newline)
        self._tracer._last_trace = trace
        return trace


def _stage_of(prefix: str) -> str:
    return next(stage for head, stage in _STAGE.items() if prefix.startswith(head))


@contextlib.contextmanager
def installed(tr: Tracer):
    """Route patchlm's block functions, masks, softmax and matmul through spans
    while the ``with`` block runs."""

    def wrap(fn, name_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tr.span(name_of(args, kwargs)):
                return fn(*args, **kwargs)
        return wrapper

    class TimedMask(model.AttentionMask):
        def additive(self, dtype):
            with tr.span("model.masks.fwd"):
                return super().additive(dtype)

    def wrap_mask(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tr.span("model.masks.fwd"):
                m = fn(*args, **kwargs)
            return TimedMask(m.kind, m.allowed)
        return wrapper

    def xattn_name(args, kwargs):
        prefix = args[3] if len(args) > 3 else kwargs["prefix"]
        return f"model.{_stage_of(prefix)}.xattn.fwd"

    def layer_name(args, kwargs):
        stage = _stage_of(args[2] if len(args) > 2 else kwargs["prefix"])
        return "model.global.fwd" if stage == "global" else f"model.{stage}.layers.fwd"

    def traced_lm_forward(params, stream, config):
        tr.count_stream(stream)
        with tr.span("model.fwd"):
            return lm_forward(params, stream, config)

    matmul = tensor.Tensor.__matmul__

    def counted_matmul(a, b):
        out = matmul(a, b)
        tr.count_matmul(2.0 * out.data.size * a.shape[-1], b.name)
        return out

    lm_forward = trainer.lm_forward
    replaced = [
        (model, "augmented_byte_embeddings",
         wrap(model.augmented_byte_embeddings, lambda a, k: "model.embed.fwd")),
        (model, "cross_attention_block", wrap(model.cross_attention_block, xattn_name)),
        (model, "transformer_layer", wrap(model.transformer_layer, layer_name)),
        (model, "softmax", wrap(model.softmax, lambda a, k: "tensor.softmax.fwd")),
        (model, "nll_from_logits", wrap(model.nll_from_logits, lambda a, k: "model.loss.fwd")),
        (trainer, "lm_forward", traced_lm_forward),
        (tensor.Tensor, "__matmul__", counted_matmul),
    ] + [(model, name, wrap_mask(getattr(model, name))) for name in _MASK_BUILDERS]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in replaced]
    try:
        for owner, name, fn in replaced:
            setattr(owner, name, fn)
        yield
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def _leaf(t: tensor.Tensor) -> tensor.Tensor:
    return tensor.Tensor(t.data, requires_grad=True)


def composed_forward(params, stream, config, tr=NULL, mem: dict | None = None):
    """``lm_forward``'s loss, computed stage by stage on detached leaves.

    Returns ``(loss, backward)``; ``backward()`` runs ``Tensor.backward`` once
    per stage, loss first, encoder last, each inside its own span. With
    ``mem`` (and tracemalloc running) it records each stage's peak growth and
    the bytes still held once the loss exists, in MB.
    """
    n = stream.n_bytes
    targets = np.zeros(n, dtype=np.int64)
    targets[: n - 1] = stream.data[1:]
    mask = np.zeros(n, dtype=bool)
    mask[: n - 1] = stream.doc_ids[1:] == stream.doc_ids[: n - 1]
    n_pred = int(mask.sum())
    base = tracemalloc.get_traced_memory()[0] if mem is not None else 0

    @contextlib.contextmanager
    def stage(name):
        if mem is not None:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
        with tr.span(f"model.{name}.stage"):
            yield
        if mem is not None:
            mem[f"model.{name}.fwd_peak_mb"] = (tracemalloc.get_traced_memory()[1] - start) / 2**20

    cache: dict = {}
    with tr.span("model.fwd"):
        with stage("encoder"):
            h, p = model.encoder_forward(params, stream, config, cache)
        h_in, p_in = _leaf(h), _leaf(p)
        with stage("global"):
            o = model.global_forward(params, p_in, stream.patch_doc_ids, config)
        o_in = _leaf(o)
        with stage("decoder"):
            logits = model.decoder_forward(params, h_in, o_in, stream, config, cache)
        logits_in = _leaf(logits)
        with stage("loss"):
            nll = model.nll_from_logits(logits_in, targets)
            loss = (nll * mask.astype(logits.dtype)).sum() * (1.0 / n_pred)
    if mem is not None:
        mem["model.graph_mb"] = (tracemalloc.get_traced_memory()[0] - base) / 2**20

    def backward():
        with tr.span("model.loss.bwd"):
            loss.backward()
        with tr.span("model.decoder.bwd"):
            logits.backward(logits_in.grad)
        with tr.span("model.global.bwd"):
            o.backward(o_in.grad)
        with tr.span("model.encoder.bwd"):
            both = tensor.concat([h.reshape(-1), p.reshape(-1)])
            both.backward(np.concatenate([h_in.grad.ravel(), p_in.grad.ravel()]))

    return loss, backward


def memory_probe(params, stream, config) -> tuple[dict, bool]:
    """Stage peaks under tracemalloc, and whether the composed loss is
    bit-for-bit ``lm_forward``'s loss on the same stream."""
    reference = model.lm_forward(params, stream, config).loss.data.tobytes()
    mem: dict = {}
    tracemalloc.start()
    try:
        loss, _ = composed_forward(params, stream, config, mem=mem)
    finally:
        tracemalloc.stop()
    return mem, loss.data.tobytes() == reference
