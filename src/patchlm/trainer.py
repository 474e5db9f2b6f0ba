"""Optimization loop: AdamW with warmup+cosine schedule, patch-packed batches,
deterministic resume, and bits-per-byte evaluation.

Reproducibility contract: with a fixed seed, config, and corpus, the loss
trajectory is bit-identical on a single worker, including across a
checkpoint/resume split. Data order is a pure function of (seed, epoch), and
the loader cursor rides along in the checkpoint, so no hidden RNG state
exists.

Checkpoints are format version 3: the state a continued run needs, and the content
hash of the run's ``config.json``, which alone holds the settings. ``load_checkpoint``
refuses any other version, and ``train(resume=path)`` goes on from a checkpoint.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import time
import zipfile
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .entropy_lm import LN256
from .errors import ConfigError, DataError, NumericError
from .model import BltParams, ModelConfig, Stream, lm_forward, param_shapes
from .patching import PatchBoundaries, PatchStats, patch_stats
from .tensor import RowGrad, parameter

LN2 = float(np.log(2.0))

CHECKPOINT_VERSION = 3

DIVERGENCE_FACTOR = 2.0  # the two settings of ``Divergence``
DIVERGENCE_PATIENCE = 100

# longest span eval_bpb cuts a document into; a span cut short of its
# document's end is scored with the next span's first byte, one byte more
EVAL_STREAM_BYTES = 4096


@dataclass(frozen=True)
class OptimSpec:
    """AdamW settings; the schedule is always ``lr_at``'s warmup then cosine to zero."""

    lr_peak: float = 4e-4
    warmup_steps: int = 100
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    weight_decay: float = 0.1
    grad_clip: float = 1.0

    def __post_init__(self):
        rules = {  # every comparison with NaN is False, so NaN breaks each rule
            "lr_peak": ("finite and > 0", 0 < self.lr_peak < math.inf),
            "warmup_steps": (">= 0", self.warmup_steps >= 0),
            "beta1": ("in [0, 1)", 0 <= self.beta1 < 1),
            "beta2": ("in [0, 1)", 0 <= self.beta2 < 1),
            "eps": ("finite and > 0", 0 < self.eps < math.inf),
            "weight_decay": ("finite and >= 0", 0 <= self.weight_decay < math.inf),
            "grad_clip": ("> 0", self.grad_clip > 0),
        }
        for name, (rule, ok) in rules.items():
            if not ok:
                raise ConfigError(f"optimizer.{name} must be {rule}, got {getattr(self, name)}")


def lr_at(step: int, spec: OptimSpec, total_steps: int) -> float:
    """Linear warmup to lr_peak, then cosine decay to exactly zero at total_steps."""
    if not (0 <= step <= total_steps):
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if spec.warmup_steps >= total_steps:
        raise ConfigError(f"optimizer.warmup_steps must be below the {total_steps} total steps")
    if step < spec.warmup_steps:
        return spec.lr_peak * step / spec.warmup_steps
    t = (step - spec.warmup_steps) / (total_steps - spec.warmup_steps)
    return spec.lr_peak * 0.5 * (1.0 + math.cos(math.pi * t))


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------


def _decayable(name: str, ndim: int) -> bool:
    # norms/gains and embedding tables are excluded from weight decay
    return ndim >= 2 and "embed" not in name and not name.endswith("norm")


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    skipped: int = 0

    @classmethod
    def init(cls, params: BltParams) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p.data) for k, p in params.items()},
            v={k: np.zeros_like(p.data) for k, p in params.items()},
        )


def global_grad_norm(params: BltParams) -> float:
    """The float64 norm of all gradients, each squared into one scratch and
    summed over its whole shape; a ``RowGrad``'s squares go at its rows of the
    zeroed scratch, so it sums exactly as its dense array would."""
    grads = [(t.data.shape, t.grad) for t in params.tensors.values() if t.grad is not None]
    scratch = np.empty(max((math.prod(shape) for shape, _ in grads), default=0), np.float64)
    total = 0.0
    for shape, g in grads:
        sq = scratch[: math.prod(shape)].reshape(shape)
        if isinstance(g, RowGrad):
            sq.fill(0.0)
            sq[g.rows] = np.square(g.values, dtype=np.float64)
        else:
            sq[...] = g
            sq *= sq
        total += float(sq.sum())
    return math.sqrt(total)


def adamw_step(params: BltParams, state: AdamState, spec: OptimSpec, lr: float) -> float:
    """One decoupled-weight-decay update with bias correction, in place.

    Gradients are first clipped by global norm; a non-finite gradient skips
    the step (counted). Returns the pre-clip global gradient norm.

    Each array op writes into a moment, the parameter or one of two scratch
    arrays, and an unclipped gradient is not multiplied by one. A table's
    ``RowGrad`` adds its moment terms at its rows only, after the dense
    decay, and a missing gradient adds none: the allocating update's
    ``+ 0`` terms, so results differ at most in the sign of an exact zero.
    """
    gnorm = global_grad_norm(params)
    if not math.isfinite(gnorm):
        state.skipped += 1
        return gnorm
    scale = spec.grad_clip / gnorm if gnorm > spec.grad_clip else 1.0
    state.t += 1
    bc1 = 1.0 - spec.beta1**state.t
    bc2 = 1.0 - spec.beta2**state.t
    scratch = np.empty((2, max(p.data.nbytes for _, p in params.items())), np.uint8)
    for name, p in params.items():
        d, m, v, grad = p.data, state.m[name], state.v[name], p.grad
        m *= spec.beta1
        v *= spec.beta2
        if grad is not None:
            rows, g = (grad.rows, grad.values) if isinstance(grad, RowGrad) else (..., np.asarray(grad, d.dtype))
            a, b = (s[: g.nbytes].view(d.dtype).reshape(g.shape) for s in scratch)
            if scale != 1.0:
                g = np.multiply(g, d.dtype.type(scale), out=a)
            m[rows] += np.multiply(g, 1.0 - spec.beta1, out=b)
            np.multiply(g, 1.0 - spec.beta2, out=b)
            b *= g
            v[rows] += b
        a, b = (s[: d.nbytes].view(d.dtype).reshape(d.shape) for s in scratch)
        np.sqrt(np.divide(v, bc2, out=a), out=a)
        a += spec.eps
        np.divide(m, bc1, out=b)
        b /= a
        if spec.weight_decay and _decayable(name, d.ndim):
            d -= np.multiply(d, lr * spec.weight_decay, out=a)
        b *= lr
        d -= b
    return gnorm


# ---------------------------------------------------------------------------
# Patch-count-packed data loading
# ---------------------------------------------------------------------------


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    mixed = (seed * 0x9E3779B97F4A7C15 + epoch * 0xBF58476D1CE4E5B9) % (1 << 63)
    return np.random.Generator(np.random.PCG64(mixed))


@dataclass
class LoaderState:
    epoch: int = 0
    doc_pos: int = 0
    patch_offset: int = 0


class PatchStreamLoader:
    """Yields streams carrying a fixed number of patches each.

    Documents are patched once up front, shuffled per epoch, and consumed
    greedily; a document whose patches do not fit the remaining budget is
    split at a patch boundary and its remainder carries into the next batch
    (as a fresh context). Byte counts per batch therefore vary around
    patch_budget * mean_patch_size while the patch count is exact.
    """

    def __init__(self, docs: list[np.ndarray], patcher, patch_budget: int, seed: int = 0):
        if patch_budget < 1:
            raise ConfigError("patch_budget must be >= 1")
        self.docs = [np.asarray(d, dtype=np.uint8) for d in docs]
        self.docs = [d for d in self.docs if len(d)]
        if not self.docs:
            raise DataError("no non-empty documents")
        self.bounds: list[PatchBoundaries] = [patcher(d) for d in self.docs]
        self.patch_budget = patch_budget
        self.seed = seed
        self.state = LoaderState()
        self._perm = _epoch_rng(seed, 0).permutation(len(self.docs))

    @property
    def stats(self) -> PatchStats:
        """Patch counts over all documents."""
        return patch_stats(*self.bounds)

    @property
    def mean_patch_size(self) -> float:
        return self.stats.mean_patch_size

    def state_dict(self) -> dict:
        return asdict(self.state)

    def load_state_dict(self, d: dict):
        self.state = LoaderState(**d)
        self._perm = _epoch_rng(self.seed, self.state.epoch).permutation(len(self.docs))

    def _advance_doc(self):
        st = self.state
        st.doc_pos += 1
        st.patch_offset = 0
        if st.doc_pos >= len(self.docs):
            st.doc_pos = 0
            st.epoch += 1
            self._perm = _epoch_rng(self.seed, st.epoch).permutation(len(self.docs))

    def next_stream(self) -> Stream:
        need = self.patch_budget
        pieces = []
        st = self.state
        while need > 0:
            doc_idx = int(self._perm[st.doc_pos])
            b = self.bounds[doc_idx]
            avail = b.n_patches - st.patch_offset
            take = min(avail, need)
            s = b.starts[st.patch_offset : st.patch_offset + take]
            byte_lo = int(s[0])
            byte_hi = int(b.starts[st.patch_offset + take]) if st.patch_offset + take < b.n_patches else b.n_bytes
            pieces.append((self.docs[doc_idx][byte_lo:byte_hi], s - byte_lo))
            need -= take
            if take == avail:
                self._advance_doc()
            else:
                st.patch_offset += take
        return Stream.concat(pieces)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    bpb: dict[str, float]
    loss_nats: dict[str, float]  # total cross-entropy per slice
    n_bytes: dict[str, int]  # predicted byte count per slice
    mean_patch_size: dict[str, float | None]  # None: the uniform predictor has no patcher
    steps: int = 0


def doc_hashes(docs) -> set[bytes]:
    return {hashlib.sha256(np.asarray(d, dtype=np.uint8).tobytes()).digest() for d in docs}


def check_disjoint(train_docs, eval_docs):
    overlap = doc_hashes(train_docs) & doc_hashes(eval_docs)
    if overlap:
        raise ConfigError(f"{len(overlap)} documents appear in both train and eval slices")


def scorable_slices(slices: dict[str, list]) -> dict[str, list[np.ndarray]]:
    """Each slice's non-empty documents as ``uint8`` arrays; a slice with no
    document, or none longer than one byte, has nothing to score and raises."""
    out = {}
    for name, docs in slices.items():
        docs = [np.asarray(d, dtype=np.uint8) for d in docs if len(d)]
        if not docs:
            raise DataError(f"slice {name!r} is empty")
        if all(len(d) == 1 for d in docs):
            raise DataError(f"slice {name!r} has no predictable bytes")
        out[name] = docs
    return out


def _split_doc(bounds: PatchBoundaries, max_bytes: int):
    """Spans of at most max_bytes, cut at patch boundaries; a longer patch is a span of its own."""
    starts, ends = bounds.starts, np.append(bounds.starts[1:], bounds.n_bytes)
    spans, lo = [], 0
    while lo < bounds.n_patches:
        hi = max(lo + 1, int(np.searchsorted(ends, starts[lo] + max_bytes, "right")))
        spans.append((int(starts[lo]), int(ends[hi - 1]), starts[lo:hi] - starts[lo]))
        lo = hi
    return spans


def eval_bpb(
    params: BltParams | None,
    config: ModelConfig | None,
    slices: dict[str, list[np.ndarray]],
    patcher=None,
    max_stream_bytes: int = EVAL_STREAM_BYTES,
    steps: int = 0,
) -> EvalReport:
    """Bits-per-byte per slice: total cross-entropy nats over ln(2) times the
    number of predicted bytes.

    Each document is cut at patch boundaries into spans of at most
    ``max_stream_bytes`` (a longer single patch is a span of its own), and
    each span starts a fresh context. Every byte after a document's first is
    scored exactly once, by the position before it: a span that stops short
    of its document's end also holds the next span's first byte, as a
    one-byte patch of its own, so its stream is one byte longer than the
    span. That byte starts a patch in the document's own boundaries too, and
    the model is causal over bytes and patches, so no earlier position's
    logits change beyond rounding (an attention tile that gains the byte's
    key column may sum in another order). So ``n_bytes`` is ``sum(len(d) - 1)``
    for every patcher, and ``mean_patch_size`` is ``patch_stats`` of the
    documents' boundaries. The forward passes run on ``params.detached()`` and
    build no autodiff graph.

    ``params=None`` evaluates the uniform byte predictor, which scores exactly
    eight bits per byte.
    """
    bpb, nats, nbytes, mps = {}, {}, {}, {}
    for name, docs in scorable_slices(slices).items():
        if params is None:
            n_pred = sum(len(d) - 1 for d in docs)
            total, mean_size = n_pred * LN256, None
        else:
            assert patcher is not None and config is not None
            view = params.detached()
            total, n_pred = 0.0, 0
            bounds = [patcher(d) for d in docs]
            for d, b in zip(docs, bounds):
                for byte_lo, byte_hi, starts in _split_doc(b, max_stream_bytes):
                    if byte_hi < len(d):  # cut: add the next span's first byte as a patch
                        starts = np.append(starts, byte_hi - byte_lo)
                        byte_hi += 1
                    elif byte_hi - byte_lo < 2:
                        continue  # a document's lone last byte predicts nothing
                    res = lm_forward(view, Stream.concat([(d[byte_lo:byte_hi], starts)]), config)
                    total += res.total_nats
                    n_pred += res.n_predicted
            mean_size = patch_stats(*bounds).mean_patch_size
        bpb[name] = total / (LN2 * n_pred)
        nats[name] = total
        nbytes[name] = n_pred
        mps[name] = mean_size
    return EvalReport(bpb, nats, nbytes, mps, steps=steps)


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


@dataclass
class Divergence:
    """A loss above DIVERGENCE_FACTOR times the first step's counts toward divergence,
    and DIVERGENCE_PATIENCE such steps in a row abort the run."""

    initial_loss: float | None = None
    streak: int = 0

    def update(self, loss: float) -> None:
        self.initial_loss = loss if self.initial_loss is None else self.initial_loss
        self.streak = self.streak + 1 if loss > DIVERGENCE_FACTOR * self.initial_loss else 0
        if self.streak >= DIVERGENCE_PATIENCE:
            raise NumericError(f"loss {loss:.3f} above {DIVERGENCE_FACTOR}x initial "
                               f"{self.initial_loss:.3f} for {self.streak} consecutive steps")


def save_checkpoint(path: str | Path, params: BltParams, state: AdamState,
                    loader: PatchStreamLoader, step: int, config_hash: str,
                    divergence: Divergence) -> None:
    arrays = {f"param/{k}": t.data for k, t in params.items()}
    arrays.update({f"adam_m/{k}": v for k, v in state.m.items()})
    arrays.update({f"adam_v/{k}": v for k, v in state.v.items()})
    meta = {
        "version": CHECKPOINT_VERSION,
        "step": step,
        "adam_t": state.t,
        "skipped": state.skipped,
        "config_hash": config_hash,
        "loader_state": loader.state_dict(),
        "divergence": asdict(divergence),
    }
    arrays["meta_json"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path: str | Path) -> dict:
    """The checkpoint's meta, with its ``params``, ``adam`` state and ``divergence`` monitor."""
    try:
        with np.load(path) as z:  # an .npy file loads as an array, which has no ``with``
            ck = json.loads(bytes(z["meta_json"]).decode())
            if ck["version"] != CHECKPOINT_VERSION:
                raise DataError(f"checkpoint {path} has format version {ck['version']}; "
                                f"this build reads version {CHECKPOINT_VERSION}")
            m, v, p = ({k.split("/", 1)[1]: z[k].copy() for k in z.files if k.startswith(kind)}
                       for kind in ("adam_m/", "adam_v/", "param/"))
            ck["adam"] = AdamState(m, v, ck["adam_t"], ck["skipped"])
            ck["divergence"] = Divergence(**ck["divergence"])
    except (OSError, ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile) as exc:
        raise DataError(f"not a readable checkpoint file: {path}") from exc
    ck["params"] = BltParams({k: parameter(a, k) for k, a in p.items()})
    return ck


def check_checkpoint(ck: dict, path: str | Path, config: ModelConfig, config_hash: str) -> None:
    """Raise DataError unless checkpoint ``ck`` was saved under ``config_hash``, the
    hash of the run's config.json, and holds exactly the parameters of ``config``."""
    if ck["config_hash"] != config_hash:
        raise DataError(f"checkpoint {path} was saved under another config than the run's "
                        "config.json")
    if {k: t.shape for k, t in ck["params"].items()} != param_shapes(config):
        raise DataError(f"checkpoint {path} holds other parameter names or shapes")


def _log(path: Path, start_step: int):
    """``path`` opened for appending after its rows of the steps before ``start_step``."""
    rows = path.read_text().splitlines(keepends=True) if start_step and path.exists() else []
    fh = open(path, "w")
    fh.writelines(rows[:start_step])
    return fh


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    steps_done: int
    final_loss: float | None  # None: the run took no step
    eval_reports: list[EvalReport] = field(default_factory=list)
    skipped_steps: int = 0


def train(
    params: BltParams,
    config: ModelConfig,
    loader: PatchStreamLoader,
    optim: OptimSpec,
    total_steps: int,
    run_dir: str | Path,
    eval_slices: dict[str, list[np.ndarray]] | None = None,
    eval_patcher=None,
    eval_every: int = 0,
    checkpoint_every: int = 0,
    eval_stream_bytes: int = EVAL_STREAM_BYTES,
    config_hash: str = "",
    resume: str | Path | None = None,
) -> TrainResult:
    """Run the loop; metrics stream to ``run_dir/metrics.jsonl``.

    Metrics rows carry only deterministic fields (step, loss, bpb, lr,
    grad_norm, patch/byte counts); wall-clock throughput and the process's
    peak resident memory so far go to a separate perf.jsonl, so two
    identical runs produce bit-identical metrics files; a skipped step's
    non-finite ``grad_norm`` reads ``null``. Each step is evaluated at most
    once: every ``eval_every`` steps, and the last. Overlapping train and eval
    documents raise before any file is written. ``resume`` names a checkpoint
    saved under ``config_hash``; the run goes on from its state, after the
    logs' rows of the steps before it.
    """
    if eval_slices:
        check_disjoint(loader.docs, [d for s in eval_slices.values() for d in s])
    if resume is None:
        state, divergence, start = AdamState.init(params), Divergence(), 0
    else:
        ck = load_checkpoint(resume)
        check_checkpoint(ck, resume, config, config_hash)
        for name, t in params.items():
            t.data[...] = ck["params"][name].data
        loader.load_state_dict(ck["loader_state"])
        state, divergence, start = ck["adam"], ck["divergence"], ck["step"]
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    metrics_fh, perf_fh = (_log(run_dir / f"{name}.jsonl", start) for name in ("metrics", "perf"))

    result = TrainResult(steps_done=start, final_loss=None)
    try:
        for step in range(start, total_steps):
            t0 = time.perf_counter()
            stream = loader.next_stream()
            params.zero_grad()
            res = lm_forward(params, stream, config)
            res.loss.backward()
            loss = float(res.loss.data)
            del res  # its logits would otherwise stay alive through the next forward and any eval
            lr = lr_at(step, optim, total_steps)
            gnorm = adamw_step(params, state, optim, lr)
            result.steps_done = step + 1
            result.final_loss = loss
            row = {
                "step": step,
                "loss_nats": loss,
                "bpb": loss / LN2,
                "lr": lr,
                "grad_norm": gnorm if math.isfinite(gnorm) else None,
                "n_patches": stream.n_patches,
                "n_bytes": stream.n_bytes,
            }
            metrics_fh.write(json.dumps(row) + "\n")
            dt = time.perf_counter() - t0
            perf_fh.write(json.dumps({
                "step": step,
                "patches_per_s": stream.n_patches / dt,
                "bytes_per_s": stream.n_bytes / dt,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # ru_maxrss: KiB
            }) + "\n")
            divergence.update(loss)
            if eval_every and eval_slices and (step + 1) % eval_every == 0:
                result.eval_reports.append(
                    eval_bpb(params, config, eval_slices, eval_patcher, eval_stream_bytes,
                             steps=step + 1))
            if checkpoint_every and (step + 1) % checkpoint_every == 0:
                save_checkpoint(run_dir / f"ckpt_{step + 1:07d}.npz", params, state,
                                loader, step + 1, config_hash, divergence)
        save_checkpoint(run_dir / "ckpt_final.npz", params, state, loader,
                        result.steps_done, config_hash, divergence)
        if eval_slices and all(r.steps != result.steps_done for r in result.eval_reports):
            result.eval_reports.append(
                eval_bpb(params, config, eval_slices, eval_patcher, eval_stream_bytes,
                         steps=result.steps_done))
    finally:
        result.skipped_steps = state.skipped
        metrics_fh.close()
        perf_fh.close()
    return result
