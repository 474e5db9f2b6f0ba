"""The benchmark's workloads: inputs made from a seed, set-up, one timed
operation, and the checks on its outputs.

Every workload is a closed loop with one caller: an operation starts when
the previous one has returned. Inputs come from ``textgen`` and depend only
on the seed.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import asdict, dataclass, field

import numpy as np

from patchlm import entropy_lm, model, patching, textgen, trainer

import tracing

LN2 = math.log(2.0)
# A short warm-up and a high peak, so that a few steps already move the loss
# and a broken gradient shows in ``bpb``; the cosine horizon is never reached.
OPTIM = trainer.OptimSpec(lr_peak=4e-3, warmup_steps=10)
SCHEDULE_STEPS = 100_000


@dataclass
class OpResult:
    seconds: float
    n_bytes: int  # bytes credited to throughput (0 when the operation failed)
    attempted: int = 1
    failed: int = 0
    nats: float = float("nan")  # train: mean loss of the step; eval: total loss
    scored: int = 0  # eval: bytes scored
    scorable: int = 0  # eval: sum(len(d) - 1)


def documents(n_docs: int, mean_bytes: int, seed: int) -> list[np.ndarray]:
    return [np.frombuffer(t.encode(), np.uint8)
            for t in textgen.synthetic_documents(n_docs, mean_bytes, seed=seed)]


def _subseed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _failed(t0: float, attempted: int = 1) -> OpResult:
    traceback.print_exc()
    return OpResult(time.perf_counter() - t0, 0, attempted=attempted, failed=attempted)


def calibrated_patcher(em, sample, target: float, tr) -> tuple[float, object]:
    """Calibrate ``entropy_global`` on ``sample``; return (theta, patcher)."""
    em = tr.watch_model(em)
    with tr.span("patching.calibrate_threshold"):
        theta = patching.calibrate_threshold(em, sample, target)
    return theta, entropy_patcher(em, theta, tr)


def entropy_patcher(em, theta: float, tr):
    config = patching.PatchingConfig(scheme="entropy_global", theta_g=theta)
    return tr.watch_patcher(patching.make_patcher(config, entropy_model=em), theta)


def _count_model(docs, order: int, tr):
    with tr.span("entropy_lm.train_counts"):
        return entropy_lm.train_counts(docs, order=order)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class TrainContext:
    config: model.ModelConfig
    params: model.BltParams
    state: trainer.AdamState
    loader: trainer.PatchStreamLoader
    step: int = 0
    warmup_losses: list = field(default_factory=list)


@dataclass(frozen=True)
class TrainWorkload:
    """Training steps on ``entropy_global`` streams of ``patch_budget`` patches."""

    name: str
    patch_budget: int
    warmup_steps: int
    min_ops: int  # timed steps always run; ``bpb`` is their mean loss
    n_docs: int = 128  # ~128 kB: calibration needs at least 1e5 bytes
    doc_bytes: int = 1000
    order: int = 3
    target_patch_size: float = 4.5

    def setup(self, seed: int, tr=tracing.NULL) -> TrainContext:
        docs = documents(self.n_docs, self.doc_bytes, seed)
        em = _count_model(docs, self.order, tr)
        _, patcher = calibrated_patcher(em, docs, self.target_patch_size, tr)
        loader = trainer.PatchStreamLoader(docs, patcher, self.patch_budget, seed=seed)
        config = model.ModelConfig()
        params = model.init_params(config, seed=seed)
        ctx = TrainContext(config, params, trainer.AdamState.init(params), loader)
        for _ in range(self.warmup_steps):
            res = self.op(ctx)
            if res.failed:
                raise RuntimeError("warm-up step failed")
            ctx.warmup_losses.append(res.nats)
        return ctx

    def resolved(self) -> dict:
        return {**asdict(self), "model": model.ModelConfig().to_dict(), "optim": asdict(OPTIM),
                "schedule_steps": SCHEDULE_STEPS}

    def fingerprint(self, ctx: TrainContext):
        return ctx.warmup_losses

    def op(self, ctx: TrainContext) -> OpResult:
        """One step: ``next_stream`` + ``lm_forward`` + ``backward`` + ``adamw_step``."""
        step = ctx.step
        ctx.step += 1
        t0 = time.perf_counter()
        try:
            stream = ctx.loader.next_stream()
            ctx.params.zero_grad()
            res = model.lm_forward(ctx.params, stream, ctx.config)
            res.loss.backward()
            skipped = ctx.state.skipped
            trainer.adamw_step(ctx.params, ctx.state, OPTIM, trainer.lr_at(step, OPTIM, SCHEDULE_STEPS))
        except Exception:
            return _failed(t0)
        dt = time.perf_counter() - t0
        if ctx.state.skipped > skipped:
            return OpResult(dt, 0, failed=1)
        return OpResult(dt, stream.n_bytes, nats=float(res.loss.data))

    def traced_op(self, ctx: TrainContext, tr: tracing.Tracer) -> OpResult:
        """The same step with per-block forward spans and a per-stage backward."""
        step = ctx.step
        ctx.step += 1
        t0 = time.perf_counter()
        try:
            with tr.span("trainer.next_stream"):
                stream = ctx.loader.next_stream()
            ctx.params.zero_grad()
            with tracing.installed(tr):
                loss, backward = tracing.composed_forward(ctx.params, stream, ctx.config, tr)
            backward()
            skipped = ctx.state.skipped
            with tr.span("trainer.adamw_step"):
                trainer.adamw_step(ctx.params, ctx.state, OPTIM,
                                   trainer.lr_at(step, OPTIM, SCHEDULE_STEPS))
        except Exception:
            return _failed(t0)
        dt = time.perf_counter() - t0
        tr.count_stream(stream)
        return OpResult(dt, stream.n_bytes, failed=int(ctx.state.skipped > skipped),
                        nats=float(loss.data))

    def probe_stream(self, ctx: TrainContext):
        return ctx.loader.next_stream()

    def bpb(self, ctx: TrainContext, first: list[OpResult]) -> float:
        return float(np.mean([r.nats for r in first])) / LN2

    def checks(self, ctx: TrainContext, first: list[OpResult]) -> dict:
        return {"loss_after_fixed_steps_finite": bool(np.isfinite(first[-1].nats))}

    def record(self, ctx: TrainContext, first: list[OpResult]) -> dict:
        return {"loss_after_fixed_steps": first[-1].nats,
                "mean_patch_size": ctx.loader.mean_patch_size}


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclass
class EvalContext:
    config: model.ModelConfig
    params: model.BltParams
    em: entropy_lm.EntropyModel
    theta: float
    patcher: object
    docs: list
    calls: int = 0
    warmup_nats: float = float("nan")


@dataclass(frozen=True)
class EvalWorkload:
    """``eval_bpb`` on held-out documents, one document per call."""

    name: str
    doc_bytes: int  # longer than stream_bytes, so each document splits in two spans
    stream_bytes: int
    min_ops: int  # timed calls always made; ``bpb`` covers their documents
    n_eval_docs: int = 4
    n_docs: int = 128
    train_doc_bytes: int = 1000
    order: int = 3
    target_patch_size: float = 4.5

    def setup(self, seed: int, tr=tracing.NULL) -> EvalContext:
        docs = documents(self.n_docs, self.train_doc_bytes, seed)
        em = _count_model(docs, self.order, tr)
        theta, patcher = calibrated_patcher(em, docs, self.target_patch_size, tr)
        config = model.ModelConfig()
        params = model.init_params(config, seed=seed)
        held_out = [np.frombuffer(textgen.synthetic_text(self.doc_bytes, _subseed(seed, 1, i)).encode(),
                                  np.uint8) for i in range(self.n_eval_docs)]
        # the timed operations get an unwatched patcher; traced ones wrap their own
        ctx = EvalContext(config, params, em, theta, entropy_patcher(em, theta, tracing.NULL), held_out)
        # warm up on one stream of the largest size: the first one grows the heap
        report = trainer.eval_bpb(params, config, {"warmup": [held_out[0][: self.stream_bytes]]},
                                  patcher, max_stream_bytes=self.stream_bytes)
        ctx.warmup_nats = report.loss_nats["warmup"]
        return ctx

    def resolved(self) -> dict:
        return {**asdict(self), "model": model.ModelConfig().to_dict()}

    def fingerprint(self, ctx: EvalContext):
        return ctx.warmup_nats

    def op(self, ctx: EvalContext, tr=tracing.NULL, patcher=None) -> OpResult:
        doc = ctx.docs[ctx.calls % len(ctx.docs)]
        ctx.calls += 1
        t0 = time.perf_counter()
        try:
            with tr.span("trainer.eval_bpb"):
                report = trainer.eval_bpb(ctx.params, ctx.config, {"eval": [doc]},
                                          patcher or ctx.patcher, max_stream_bytes=self.stream_bytes)
        except Exception:
            return _failed(t0)
        dt = time.perf_counter() - t0
        scored = report.n_bytes["eval"]
        return OpResult(dt, scored, nats=report.loss_nats["eval"], scored=scored,
                        scorable=len(doc) - 1)

    def traced_op(self, ctx: EvalContext, tr: tracing.Tracer) -> OpResult:
        patcher = entropy_patcher(tr.watch_model(ctx.em), ctx.theta, tr)
        with tracing.installed(tr):
            return self.op(ctx, tr, patcher)

    def probe_stream(self, ctx: EvalContext):
        return model.Stream.from_documents([ctx.docs[0][: self.stream_bytes]], ctx.patcher)

    def bpb(self, ctx: EvalContext, first: list[OpResult]) -> float:
        scored = sum(r.scored for r in first)
        return sum(r.nats for r in first) / (LN2 * scored) if scored else math.nan

    def checks(self, ctx: EvalContext, first: list[OpResult]) -> dict:
        return {"eval_bpb_finite": bool(np.isfinite(self.bpb(ctx, first)))}

    def record(self, ctx: EvalContext, first: list[OpResult]) -> dict:
        scorable = sum(r.scorable for r in first)
        return {"eval_scored_frac": sum(r.scored for r in first) / scorable if scorable else math.nan}


# ---------------------------------------------------------------------------
# Patching
# ---------------------------------------------------------------------------


@dataclass
class PatchContext:
    docs: list
    train_docs: list
    sample: list
    em: entropy_lm.EntropyModel | None = None  # model of the latest pass
    thetas: list = field(default_factory=list)
    n_patches: list = field(default_factory=list)
    warmup_patches: int = 0


@dataclass(frozen=True)
class PatchWorkload:
    """Calibrate and patch a corpus with a freshly built count model, cold."""

    name: str
    n_docs: int
    min_ops: int  # timed passes always made
    n_train_docs: int = 256
    n_sample_docs: int = 128  # the calibration sample; at least 1e5 bytes
    n_warmup_docs: int = 8
    doc_bytes: int = 1000
    order: int = 4
    target_patch_size: float = 4.5
    warmup_theta: float = 2.0  # nats; any threshold exercises the same code

    def setup(self, seed: int, tr=tracing.NULL) -> PatchContext:
        docs = documents(self.n_docs, self.doc_bytes, seed)
        ctx = PatchContext(docs, docs[: self.n_train_docs], docs[: self.n_sample_docs])
        em = _count_model(ctx.train_docs, self.order, tr)
        patcher = entropy_patcher(tr.watch_model(em), self.warmup_theta, tr)
        ctx.warmup_patches = sum(patcher(d).n_patches for d in docs[: self.n_warmup_docs])
        return ctx

    def resolved(self) -> dict:
        return asdict(self)

    def fingerprint(self, ctx: PatchContext):
        return ctx.warmup_patches

    def op(self, ctx: PatchContext, tr=tracing.NULL) -> OpResult:
        """``calibrate_threshold`` + one patcher call per document.

        The count model is rebuilt first, outside the timed region, so that
        every pass starts with the empty entropy memo a CLI run starts with.
        """
        ctx.em = _count_model(ctx.train_docs, self.order, tr)
        t0 = time.perf_counter()
        try:
            theta, patcher = calibrated_patcher(ctx.em, ctx.sample, self.target_patch_size, tr)
        except Exception:
            return _failed(t0, attempted=len(ctx.docs))
        n_bytes = n_patches = failed = 0
        for doc in ctx.docs:
            try:
                n_patches += patcher(doc).n_patches
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            n_bytes += len(doc)
        dt = time.perf_counter() - t0
        ctx.thetas.append(theta)
        ctx.n_patches.append(n_patches)
        return OpResult(dt, n_bytes, attempted=len(ctx.docs), failed=failed)

    def traced_op(self, ctx: PatchContext, tr: tracing.Tracer) -> OpResult:
        return self.op(ctx, tr)

    def bpb(self, ctx: PatchContext, first: list[OpResult]) -> float:
        """Mean next-byte entropy of the count model over the calibration sample."""
        traces = [ctx.em.entropy_trace(d).values for d in ctx.sample]
        return float(np.concatenate(traces).mean()) / LN2

    def checks(self, ctx: PatchContext, first: list[OpResult]) -> dict:
        if not ctx.n_patches:
            return {"a_pass_completed": False}
        mean_size = self.record(ctx, first)["mean_patch_size"]
        return {
            "passes_agree": len(set(ctx.thetas)) == 1 and len(set(ctx.n_patches)) == 1,
            "mean_patch_size_near_target": abs(mean_size / self.target_patch_size - 1) < 0.2,
        }

    def record(self, ctx: PatchContext, first: list[OpResult]) -> dict:
        if not ctx.n_patches:
            return {}
        return {"theta": ctx.thetas[0],
                "mean_patch_size": sum(len(d) for d in ctx.docs) / ctx.n_patches[0]}


# Why each workload exists is stated in BENCHMARK.json.
WORKLOADS = {
    "train-short": TrainWorkload("train-short", patch_budget=128, warmup_steps=2, min_ops=20),
    "train-long": TrainWorkload("train-long", patch_budget=455, warmup_steps=1, min_ops=4),
    "eval-long": EvalWorkload("eval-long", doc_bytes=5120, stream_bytes=4096, min_ops=2),
    "patch-o4": PatchWorkload("patch-o4", n_docs=1024, min_ops=2),
}

# Small variants for the smoke test: the same code paths in seconds.
TINY = {
    "train-short": TrainWorkload("train-short", patch_budget=16, warmup_steps=1, min_ops=2),
    "train-long": TrainWorkload("train-long", patch_budget=32, warmup_steps=1, min_ops=2),
    "eval-long": EvalWorkload("eval-long", doc_bytes=600, stream_bytes=512, min_ops=1,
                              n_eval_docs=2),
    "patch-o4": PatchWorkload("patch-o4", n_docs=160, min_ops=2),
}
