"""Batch command-line surface.

Subcommands: train-entropy, calibrate, patch, train, eval-bpb, flops,
size-match, noise, check-incremental, trace. Every command accepts --config,
--seed, and --json; artifact-producing commands write into a run directory
named by config hash + timestamp under --run-root (or $PATCHLM_RUN_ROOT).

Every command that patches (calibrate, patch, train, eval-bpb,
check-incremental, trace) builds its patcher the same way. Given
--target-patch-size (or patching.target_patch_size), it first calibrates the
scheme's threshold on the command's own corpus: theta for entropy_global,
theta-r for entropy_monotonic. That threshold set as well, or any other
scheme with a target, is a config error.

Exit codes: 0 ok, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import os
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import entropy_lm, flops, patching, textgen
from .bpe import train_bpe
from .corpus import CorpusError, NoiseSpec, apply_noise, load_corpus
from .entropy_lm import EntropyDataError, EntropyModelError
from .flops import SizeMatchError
from .model import ModelConfig, NumericError, init_params
from .patching import CalibrationError, PatchingConfig, PatchingError, make_patcher
from .runconfig import ConfigError, RunConfig
from .trainer import (
    CheckpointError,
    OptimSpec,
    PatchStreamLoader,
    eval_bpb,
    load_checkpoint,
    train,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class RunDirError(ConfigError):
    pass


def _run_root(args) -> Path:
    root = args.run_root or os.environ.get("PATCHLM_RUN_ROOT") or "runs"
    return Path(root)


def _make_run_dir(args, cfg: RunConfig) -> Path:
    if args.run_dir:
        run_dir = Path(args.run_dir)
    else:
        stamp = _dt.datetime.now().strftime("%Y%m%d-%H%M%S")
        run_dir = _run_root(args) / f"{cfg.content_hash[:8]}-{stamp}"
    if run_dir.exists() and any(run_dir.iterdir()) and not args.force:
        raise RunDirError(f"run directory {run_dir} exists; pass --force to overwrite")
    run_dir.mkdir(parents=True, exist_ok=True)
    lock = run_dir / ".lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
    except FileExistsError:
        raise RunDirError(f"run directory {run_dir} is locked by another process") from None
    cfg.write(run_dir / "config.json")
    return run_dir


def _release(run_dir: Path | None):
    if run_dir and (run_dir / ".lock").exists():
        (run_dir / ".lock").unlink()


def _emit(report: dict, args, human=None):
    """One internal report; --json prints it verbatim, otherwise a small table."""
    if args.json:
        print(json.dumps(report, indent=2, default=str))
    else:
        lines = human(report) if human else [f"{k}: {v}" for k, v in report.items()]
        print("\n".join(lines))


def _load_docs(args, cfg: RunConfig) -> list[np.ndarray]:
    if args.corpus:
        ds = load_corpus(args.corpus, format=args.format)
        if not len(ds):
            raise CorpusError(f"no documents in {args.corpus}")
        return [d.data for d in ds]
    n_bytes = cfg["data"]["synthetic_bytes"]
    if not n_bytes:
        raise CorpusError("no corpus given: pass --corpus or set data.synthetic_bytes")
    texts = textgen.synthetic_documents(
        max(1, n_bytes // cfg["data"]["synthetic_doc_bytes"]),
        cfg["data"]["synthetic_doc_bytes"],
        seed=cfg["run"]["seed"],
    )
    return [np.frombuffer(t.encode(), np.uint8) for t in texts]


def _entropy_model(args, cfg: RunConfig, docs) -> entropy_lm.EntropyModel:
    path = getattr(args, "entropy_model", None) or cfg["entropy_model"]["path"]
    if path:
        return entropy_lm.EntropyModel.load(path)
    return entropy_lm.train_counts(docs, order=cfg["entropy_model"]["order"],
                                   alpha=cfg["entropy_model"]["alpha"])


def _patcher(args, cfg: RunConfig, docs):
    """The patcher, its resolved config and entropy model (None if unread).

    A target patch size calibrates the scheme's threshold on ``docs``.
    """
    settings = dict(cfg["patching"])
    target = settings.pop("target_patch_size")
    pc = PatchingConfig(**settings)
    model = _entropy_model(args, cfg, docs) if pc.scheme in patching.ENTROPY_THRESHOLDS else None
    if target is not None:
        pc = patching.calibrated_config(pc, model, docs, target)
    vocab = None
    if pc.scheme == "bpe":
        vocab = train_bpe(docs[: min(len(docs), 64)], n_merges=args.bpe_merges)
    return make_patcher(pc, entropy_model=model, bpe_vocab=vocab), pc, model


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_train_entropy(args, cfg: RunConfig) -> int:
    docs = _load_docs(args, cfg)
    model = entropy_lm.train_counts(docs, order=cfg["entropy_model"]["order"],
                                    alpha=cfg["entropy_model"]["alpha"])
    out = Path(args.out or "entropy.bin")
    model.save(out)
    _emit({"out": str(out), "order": model.order, "alpha": model.alpha,
           "docs": len(docs), "bytes": int(sum(len(d) for d in docs)),
           "contexts_per_level": [len(l.ctx_keys) for l in model.levels]}, args)
    return EXIT_OK


def cmd_calibrate(args, cfg: RunConfig) -> int:
    target = cfg["patching"]["target_patch_size"]
    if target is None:
        raise ConfigError("calibrate needs --target-patch-size")
    docs = _load_docs(args, cfg)
    patcher, pc, _ = _patcher(args, cfg, docs)
    sizes = [patching.patch_stats(patcher(d)) for d in docs]
    achieved = sum(s.n_bytes for s in sizes) / sum(s.n_patches for s in sizes)
    (name,) = patching.ENTROPY_THRESHOLDS[pc.scheme]
    _emit({"scheme": pc.scheme, "target_patch_size": target,
           "theta": getattr(pc, name), "achieved_mean_patch_size": achieved,
           "forced_splits": sum(s.forced_splits for s in sizes), "patching": asdict(pc)}, args)
    return EXIT_OK


def cmd_patch(args, cfg: RunConfig) -> int:
    docs = _load_docs(args, cfg)
    patcher, pc, _ = _patcher(args, cfg, docs)
    items = [(f"doc{idx}", patcher(d)) for idx, d in enumerate(docs)]
    out = Path(args.out or "boundaries.tsv")
    patching.write_boundaries_tsv(out, items)
    total_bytes = sum(b.n_bytes for _, b in items)
    total_patches = sum(b.n_patches for _, b in items)
    _emit({"out": str(out), "scheme": pc.scheme, "docs": len(items),
           "n_bytes": total_bytes, "n_patches": total_patches,
           "mean_patch_size": total_bytes / total_patches,
           "forced_splits": sum(b.forced_splits for _, b in items), "patching": asdict(pc)}, args)
    return EXIT_OK


def cmd_train(args, cfg: RunConfig) -> int:
    # built before the run directory, so a config or data error leaves none behind
    docs = _load_docs(args, cfg)
    rng = np.random.Generator(np.random.PCG64(cfg["run"]["seed"]))
    order = rng.permutation(len(docs))
    n_eval = max(1, int(len(docs) * cfg["data"]["eval_fraction"]))
    eval_docs = [docs[i] for i in order[:n_eval]]
    train_docs = [docs[i] for i in order[n_eval:]]
    if args.corpus_eval:
        ds = load_corpus(args.corpus_eval, format=args.format)
        eval_docs = [d.data for d in ds]
        train_docs = docs
    patcher, pc, _ = _patcher(args, cfg, train_docs)
    model_cfg = ModelConfig.from_dict(cfg["model"])
    loader = PatchStreamLoader(train_docs, patcher,
                               patch_budget=cfg["training"]["patch_budget"],
                               seed=cfg["run"]["seed"])
    optim = OptimSpec(**cfg["optimizer"])
    params = init_params(model_cfg, seed=cfg["run"]["seed"])
    run_dir = _make_run_dir(args, cfg)
    try:
        result = train(
            params, model_cfg, loader, optim, cfg["training"]["steps"],
            run_dir=run_dir, eval_slices={"heldout": eval_docs}, eval_patcher=patcher,
            eval_every=cfg["training"]["eval_every"],
            checkpoint_every=cfg["training"]["checkpoint_every"],
            eval_stream_bytes=cfg["training"]["eval_stream_bytes"],
            config_hash=cfg.content_hash,
        )
        report = {
            "run_dir": str(run_dir),
            "steps": result.steps_done,
            "final_loss_nats": result.final_loss,
            "final_bpb": result.final_loss / float(np.log(2)),
            "skipped_steps": result.skipped_steps,
            "mean_patch_size": loader.mean_patch_size,
            "forced_splits": loader.forced_splits,
            "patching": asdict(pc),
            "evals": [r.to_dict() for r in result.eval_reports],
        }
        (run_dir / "report.json").write_text(json.dumps(report, indent=2))
        _emit(report, args)
        return EXIT_OK
    finally:
        _release(run_dir)


def cmd_eval_bpb(args, cfg: RunConfig) -> int:
    docs = _load_docs(args, cfg)
    if all(len(d) < 2 for d in docs):
        raise CorpusError("no byte to predict: every document is shorter than 2 bytes")
    if args.uniform:
        report = eval_bpb(None, None, {"eval": docs}).to_dict()
    else:
        if not args.checkpoint:
            raise ConfigError("eval-bpb needs --checkpoint or --uniform")
        ck = load_checkpoint(args.checkpoint)
        patcher, pc, _ = _patcher(args, cfg, docs)
        report = eval_bpb(ck["params"], ck["config"], {"eval": docs}, patcher,
                          max_stream_bytes=cfg["training"]["eval_stream_bytes"],
                          steps=ck["step"]).to_dict()
        report["patching"] = asdict(pc)

    def human(rep):
        return [f"{name}: {val:.3f} bits/byte" for name, val in rep["bpb"].items()]

    _emit(report, args, human)
    return EXIT_OK


def cmd_flops(args, cfg: RunConfig) -> int:
    model_cfg = ModelConfig.from_dict(cfg["model"])
    rep = flops.blt_flops_per_byte(model_cfg, args.n_ctx, Fraction(str(args.patch_size)))
    doc = rep.as_floats()
    doc.update(n_ctx=args.n_ctx, patch_size=args.patch_size,
               non_embedding_params=flops.non_embedding_params(model_cfg))

    def human(d):
        lines = [f"{'component':<22}{'FLOPs/byte':>14}"]
        for key in ("latent", "encoder_transformer", "decoder_transformer",
                    "encoder_xattn", "decoder_xattn"):
            lines.append(f"{key:<22}{d[key]:>14.1f}")
        lines.append(f"{'total_forward':<22}{d['total_forward']:>14.1f}")
        lines.append(f"{'total_train':<22}{d['total_train']:>14.1f}")
        lines.append(f"non-embedding params: {d['non_embedding_params']}")
        return lines

    _emit(doc, args, human)
    return EXIT_OK


def cmd_size_match(args, cfg: RunConfig) -> int:
    template = ModelConfig.from_dict(cfg["model"])
    fam = flops.width_family(template)
    solved, achieved = flops.size_match(Fraction(str(args.target)), fam,
                                        args.n_ctx, Fraction(str(args.patch_size)),
                                        tol=args.tol)
    _emit({"achieved_flops_per_byte": float(achieved),
           "target": args.target,
           "rel_err": abs(float(achieved) - args.target) / args.target,
           "config": solved.to_dict()}, args)
    return EXIT_OK


def cmd_noise(args, cfg: RunConfig) -> int:
    if args.text is not None:
        text = args.text
    elif args.infile:
        text = Path(args.infile).read_text()
    else:
        text = sys.stdin.read()
    spec = NoiseSpec(strategy=args.strategy, rate=args.rate, seed=args.seed or 0,
                     target=args.target)
    out = apply_noise(text, spec)
    if args.out:
        Path(args.out).write_text(out)
        _emit({"out": args.out, "strategy": args.strategy, "in_chars": len(text),
               "out_chars": len(out)}, args)
    else:
        print(out)
    return EXIT_OK


def cmd_check_incremental(args, cfg: RunConfig) -> int:
    docs = _load_docs(args, cfg)
    patcher, pc, _ = _patcher(args, cfg, docs)
    data = np.concatenate(docs) if len(docs) > 1 else docs[0]
    violations = patching.check_incrementality(patcher, data, n_prefixes=args.n_prefixes,
                                               seed=args.seed or 0)
    _emit({"scheme": pc.scheme, "n_prefixes": args.n_prefixes,
           "n_violations": len(violations), "violations": violations[:32],
           "incremental": not violations, "patching": asdict(pc)}, args)
    return EXIT_OK


def cmd_trace(args, cfg: RunConfig) -> int:
    docs = _load_docs(args, cfg)
    patcher, pc, model = _patcher(args, cfg, docs)
    if model is None:  # the entropy is traced next to any scheme's boundaries
        model = _entropy_model(args, cfg, docs)
    data = docs[0]
    trace = model.entropy_trace(data, reset_on_newline=pc.reset_on_newline)
    bounds = patcher(data)
    out = Path(args.out or "trace.tsv")
    entropy_lm.write_trace_tsv(out, trace, data, bounds)
    _emit({"out": str(out), "positions": len(trace.values),
           "mean_entropy_nats": float(trace.values.mean()),
           "n_boundaries": bounds.n_patches, "patching": asdict(pc)}, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--config", help="JSON run config; flags override its keys")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--json", action="store_true", help="machine-readable output")
    sp.add_argument("--run-root", default=None)
    sp.add_argument("--run-dir", default=None)
    sp.add_argument("--force", action="store_true", help="overwrite an existing run dir")
    sp.add_argument("--corpus", default=None, help="input corpus file")
    sp.add_argument("--format", default="plain-text", choices=["plain-text", "jsonl"])


def _add_patch_flags(sp):
    sp.add_argument("--scheme", default=None, choices=list(patching.SCHEMES))
    sp.add_argument("--k", type=int, default=None, help="stride for the strided scheme")
    sp.add_argument("--theta", type=float, default=None, help="global entropy threshold")
    sp.add_argument("--theta-r", type=float, default=None, help="entropy jump threshold")
    sp.add_argument("--target-patch-size", type=float, default=None,
                    help="calibrate the scheme's threshold (--theta for entropy_global, "
                         "--theta-r for entropy_monotonic) to this mean patch size on "
                         "the command's own corpus")
    sp.add_argument("--reset-newline", action="store_true", default=None)
    sp.add_argument("--max-patch", type=int, default=None)
    sp.add_argument("--entropy-model", default=None, help="path to a saved entropy model")
    sp.add_argument("--bpe-merges", type=int, default=200)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="patchlm", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("train-entropy", help="count-train the byte entropy model")
    _add_common(sp)
    sp.add_argument("--order", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_train_entropy)

    sp = sub.add_parser("calibrate", help="bisect a threshold for a target mean patch size")
    _add_common(sp)
    _add_patch_flags(sp)
    sp.set_defaults(fn=cmd_calibrate)

    sp = sub.add_parser("patch", help="emit patch boundaries for a corpus")
    _add_common(sp)
    _add_patch_flags(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_patch)

    sp = sub.add_parser("train", help="train a model per the run config")
    _add_common(sp)
    _add_patch_flags(sp)
    sp.add_argument("--corpus-eval", default=None)
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("eval-bpb", help="bits-per-byte of a checkpoint (or the uniform model)")
    _add_common(sp)
    _add_patch_flags(sp)
    sp.add_argument("--checkpoint", default=None)
    sp.add_argument("--uniform", action="store_true")
    sp.set_defaults(fn=cmd_eval_bpb)

    sp = sub.add_parser("flops", help="per-component FLOPs/byte for a model config")
    _add_common(sp)
    sp.add_argument("--n-ctx", type=int, default=4096)
    sp.add_argument("--patch-size", type=float, default=4.0)
    sp.set_defaults(fn=cmd_flops)

    sp = sub.add_parser("size-match", help="solve a config for a FLOPs/byte target")
    _add_common(sp)
    sp.add_argument("--target", type=float, required=True)
    sp.add_argument("--n-ctx", type=int, default=4096)
    sp.add_argument("--patch-size", type=float, default=4.0)
    sp.add_argument("--tol", type=float, default=0.005)
    sp.set_defaults(fn=cmd_size_match)

    sp = sub.add_parser("noise", help="apply a character-level noising strategy")
    _add_common(sp)
    sp.add_argument("--strategy", required=True, choices=list(corpus_mod.NOISE_STRATEGIES))
    sp.add_argument("--rate", type=float, default=None)
    sp.add_argument("--target", default="both", choices=["prompt", "completion", "both"])
    sp.add_argument("--text", default=None)
    sp.add_argument("--in", dest="infile", default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_noise)

    sp = sub.add_parser("check-incremental", help="prefix-stability check for a patcher")
    _add_common(sp)
    _add_patch_flags(sp)
    sp.add_argument("--n-prefixes", type=int, default=1000)
    sp.set_defaults(fn=cmd_check_incremental)

    sp = sub.add_parser("trace", help="entropy-and-boundary dump for plotting")
    _add_common(sp)
    _add_patch_flags(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_trace)

    return ap


# patch flag -> key of the ``patching`` config section it overrides
_PATCH_FLAG_KEYS = {"scheme": "scheme", "k": "k", "theta": "theta_g", "theta_r": "theta_r",
                    "max_patch": "max_patch_size", "reset_newline": "reset_on_newline",
                    "target_patch_size": "target_patch_size"}


def _overrides(args) -> dict:
    """Config overrides from the flags, so that config.json records them."""
    overrides = {}
    if args.seed is not None:
        overrides["run"] = {"seed": args.seed}
    patch = {key: getattr(args, flag) for flag, key in _PATCH_FLAG_KEYS.items()
             if getattr(args, flag, None) is not None}
    if patch:
        overrides["patching"] = patch
    if getattr(args, "order", None) is not None:
        overrides["entropy_model"] = {"order": args.order}
    return overrides


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config, _overrides(args))
        return args.fn(args, cfg)
    except (CorpusError, EntropyDataError, CheckpointError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, PatchingError, CalibrationError, EntropyModelError, SizeMatchError,
            ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
