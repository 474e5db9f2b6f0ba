"""Optimization loop: AdamW with warmup+cosine schedule, patch-packed batches,
deterministic resume, and bits-per-byte evaluation.

Reproducibility contract: with a fixed seed, config, and corpus, the loss
trajectory is bit-identical on a single worker, including across a
checkpoint/resume split. Data order is a pure function of (seed, epoch), and
the loader cursor rides along in the checkpoint, so no hidden RNG state
exists.

Checkpoints are format version 2, whose ``config`` and ``optim`` records hold
only settings that can vary; ``load_checkpoint`` refuses any other version.
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
from .model import BltParams, ModelConfig, Stream, lm_forward
from .patching import PatchBoundaries

LN2 = float(np.log(2.0))

CHECKPOINT_VERSION = 2

# a loss above this multiple of the first step's loss counts toward divergence,
# and this many such steps in a row abort the run
DIVERGENCE_FACTOR = 2.0
DIVERGENCE_PATIENCE = 100

EVAL_STREAM_BYTES = 4096  # longest stream eval_bpb scores in one forward


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
        if min(self.lr_peak, self.eps, self.grad_clip) <= 0 or self.warmup_steps < 0:
            raise ConfigError("optimizer spec values must be positive")


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
    total = 0.0
    for t in params.tensors.values():
        if t.grad is not None:
            g = np.asarray(t.grad, dtype=np.float64)
            total += float((g * g).sum())
    return math.sqrt(total)


def adamw_step(params: BltParams, state: AdamState, spec: OptimSpec, lr: float) -> float:
    """One decoupled-weight-decay update with bias correction.

    Gradients are first clipped by global norm; a non-finite gradient skips
    the step (counted). Returns the pre-clip global gradient norm.
    """
    gnorm = global_grad_norm(params)
    if not math.isfinite(gnorm):
        state.skipped += 1
        return gnorm
    scale = spec.grad_clip / gnorm if gnorm > spec.grad_clip else 1.0
    state.t += 1
    bc1 = 1.0 - spec.beta1**state.t
    bc2 = 1.0 - spec.beta2**state.t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        g = np.asarray(g, dtype=p.data.dtype) * p.data.dtype.type(scale)
        m = state.m[name]
        v = state.v[name]
        m *= spec.beta1
        m += (1.0 - spec.beta1) * g
        v *= spec.beta2
        v += (1.0 - spec.beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + spec.eps)
        if spec.weight_decay and _decayable(name, p.data.ndim):
            p.data -= (lr * spec.weight_decay) * p.data
        p.data -= lr * update
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
    def total_patches(self) -> int:
        return sum(b.n_patches for b in self.bounds)

    @property
    def mean_patch_size(self) -> float:
        return sum(len(d) for d in self.docs) / self.total_patches

    @property
    def forced_splits(self) -> int:
        """Patch starts the maximum patch size added over all documents."""
        return sum(b.forced_splits for b in self.bounds)

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
        datas, ids, starts = [], [], []
        offset = 0
        seg = 0
        st = self.state
        while need > 0:
            doc_idx = int(self._perm[st.doc_pos])
            b = self.bounds[doc_idx]
            avail = b.n_patches - st.patch_offset
            take = min(avail, need)
            s = b.starts[st.patch_offset : st.patch_offset + take]
            byte_lo = int(s[0])
            byte_hi = int(b.starts[st.patch_offset + take]) if st.patch_offset + take < b.n_patches else b.n_bytes
            datas.append(self.docs[doc_idx][byte_lo:byte_hi])
            ids.append(np.full(byte_hi - byte_lo, seg, dtype=np.int32))
            starts.append(s - byte_lo + offset)
            offset += byte_hi - byte_lo
            seg += 1
            need -= take
            if take == avail:
                self._advance_doc()
            else:
                st.patch_offset += take
        return Stream(np.concatenate(datas), np.concatenate(ids), np.concatenate(starts))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    bpb: dict[str, float]
    loss_nats: dict[str, float]  # total cross-entropy per slice
    n_bytes: dict[str, int]  # predicted byte count per slice
    mean_patch_size: dict[str, float]
    steps: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


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
    """Spans of at most max_bytes, cut at patch boundaries."""
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
    scored exactly once: position i of a span predicts byte i + 1, and the
    last position of a span that stops short of its document's end predicts
    the next span's first byte from the span's own logits; it already sees
    every completed patch of the span, as it would mid-document. So
    ``n_bytes`` is ``sum(len(d) - 1)`` for every patcher. The forward passes
    run on ``params.detached()`` and build no autodiff graph.

    ``params=None`` evaluates the uniform byte predictor, which scores exactly
    eight bits per byte.
    """
    bpb, nats, nbytes, mps = {}, {}, {}, {}
    for name, docs in scorable_slices(slices).items():
        n_pred = sum(len(d) - 1 for d in docs)
        if params is None:
            total = n_pred * LN256
            bpb[name] = total / (LN2 * n_pred)
            nats[name] = total
            nbytes[name] = n_pred
            mps[name] = float("nan")
            continue
        assert patcher is not None and config is not None
        view = params.detached()
        total = 0.0
        n_pred = 0
        n_patches = 0
        n_bytes_all = 0
        for d in docs:
            b = patcher(d)
            n_patches += b.n_patches
            n_bytes_all += b.n_bytes
            for byte_lo, byte_hi, starts in _split_doc(b, max_stream_bytes):
                next_byte = int(d[byte_hi]) if byte_hi < len(d) else None
                if byte_hi - byte_lo < 2 and next_byte is None:
                    continue  # a document's lone last byte predicts nothing
                stream = Stream(d[byte_lo:byte_hi], np.zeros(byte_hi - byte_lo, np.int32),
                                starts, next_byte)
                res = lm_forward(view, stream, config)
                total += res.total_nats
                n_pred += res.n_predicted
        bpb[name] = total / (LN2 * n_pred)
        nats[name] = total
        nbytes[name] = n_pred
        mps[name] = n_bytes_all / n_patches
    return EvalReport(bpb, nats, nbytes, mps, steps=steps)


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


def save_checkpoint(path: str | Path, params: BltParams, state: AdamState,
                    loader: PatchStreamLoader | None, step: int, config: ModelConfig,
                    optim: OptimSpec, config_hash: str = "") -> None:
    arrays = {f"param/{k}": t.data for k, t in params.items()}
    arrays.update({f"adam_m/{k}": v for k, v in state.m.items()})
    arrays.update({f"adam_v/{k}": v for k, v in state.v.items()})
    meta = {
        "version": CHECKPOINT_VERSION,
        "step": step,
        "adam_t": state.t,
        "skipped": state.skipped,
        "config": config.to_dict(),
        "optim": asdict(optim),
        "config_hash": config_hash,
        "loader_state": loader.state_dict() if loader else None,
        "loader_seed": loader.seed if loader else None,
        "rng": "pcg64",
        "params_meta": params.meta,
    }
    arrays["meta_json"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path: str | Path) -> dict:
    try:
        with np.load(path) as z:  # an .npy file loads as an array, which has no ``with``
            meta = json.loads(bytes(z["meta_json"]).decode())
            if meta["version"] != CHECKPOINT_VERSION:
                raise DataError(f"checkpoint {path} has format version {meta['version']}; "
                                      f"this build reads version {CHECKPOINT_VERSION}")
            config = ModelConfig.from_dict(meta["config"])
            params = BltParams(
                {k[len("param/"):]: _param(z[k], k) for k in z.files if k.startswith("param/")},
                meta.get("params_meta", {}),
            )
            state = AdamState(
                m={k[len("adam_m/"):]: z[k].copy() for k in z.files if k.startswith("adam_m/")},
                v={k[len("adam_v/"):]: z[k].copy() for k in z.files if k.startswith("adam_v/")},
                t=meta["adam_t"],
                skipped=meta["skipped"],
            )
    except (OSError, ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile) as exc:
        raise DataError(f"not a readable checkpoint file: {path}") from exc
    return {
        "params": params,
        "adam": state,
        "step": meta["step"],
        "config": config,
        "optim": OptimSpec(**meta["optim"]),
        "config_hash": meta["config_hash"],
        "loader_state": meta["loader_state"],
        "meta": meta,
    }


def _param(arr: np.ndarray, key: str):
    from .tensor import parameter

    return parameter(arr.copy(), key[len("param/"):])


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    steps_done: int
    final_loss: float
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
    start_step: int = 0,
    adam_state: AdamState | None = None,
) -> TrainResult:
    """Run the loop; metrics stream to ``run_dir/metrics.jsonl``.

    Metrics rows carry only deterministic fields (step, loss, bpb, lr,
    grad_norm, patch/byte counts); wall-clock throughput and the process's
    peak resident memory so far go to a separate perf.jsonl, so two
    identical runs produce bit-identical metrics files. Overlapping train and
    eval documents raise before any file is written.
    """
    if eval_slices:
        check_disjoint(loader.docs, [d for s in eval_slices.values() for d in s])
    state = adam_state if adam_state is not None else AdamState.init(params)
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    mode = "a" if start_step > 0 else "w"
    metrics_fh = open(run_dir / "metrics.jsonl", mode)
    perf_fh = open(run_dir / "perf.jsonl", mode)

    result = TrainResult(steps_done=start_step, final_loss=float("nan"))
    initial_loss = None
    bad_streak = 0
    try:
        if total_steps == 0 and eval_slices:
            result.eval_reports.append(
                eval_bpb(params, config, eval_slices, eval_patcher, eval_stream_bytes, steps=0))
        for step in range(start_step, total_steps):
            t0 = time.perf_counter()
            stream = loader.next_stream()
            params.zero_grad()
            res = lm_forward(params, stream, config)
            res.loss.backward()
            lr = lr_at(step, optim, total_steps)
            gnorm = adamw_step(params, state, optim, lr)
            loss = float(res.loss.data)
            result.steps_done = step + 1
            result.final_loss = loss

            if initial_loss is None:
                initial_loss = loss
            bad_streak = bad_streak + 1 if loss > DIVERGENCE_FACTOR * initial_loss else 0
            row = {
                "step": step,
                "loss_nats": loss,
                "bpb": loss / LN2,
                "lr": lr,
                "grad_norm": gnorm,
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
            if bad_streak >= DIVERGENCE_PATIENCE:
                raise NumericError(
                    f"loss {loss:.3f} above {DIVERGENCE_FACTOR}x initial {initial_loss:.3f} "
                    f"for {bad_streak} consecutive steps")
            if eval_every and eval_slices and (step + 1) % eval_every == 0:
                result.eval_reports.append(
                    eval_bpb(params, config, eval_slices, eval_patcher, eval_stream_bytes,
                             steps=step + 1))
            if checkpoint_every and (step + 1) % checkpoint_every == 0:
                save_checkpoint(run_dir / f"ckpt_{step + 1:07d}.npz", params, state,
                                loader, step + 1, config, optim, config_hash)
        save_checkpoint(run_dir / "ckpt_final.npz", params, state, loader,
                        result.steps_done, config, optim, config_hash)
        if eval_slices and total_steps > 0:
            result.eval_reports.append(
                eval_bpb(params, config, eval_slices, eval_patcher, eval_stream_bytes,
                         steps=result.steps_done))
    finally:
        result.skipped_steps = state.skipped
        metrics_fh.close()
        perf_fh.close()
    return result
