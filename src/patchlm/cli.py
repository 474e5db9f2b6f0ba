"""Batch command-line surface.

Subcommands: train-entropy, calibrate, patch, train, eval-bpb, flops,
size-match, noise, check-incremental, trace. Each accepts only the flags it
reads. Every command takes --json and --log-level (the level of the
messages printed to stderr), and all but noise and eval-bpb take --config.
The commands that read a corpus take --corpus and --format, and all of those
but eval-bpb --seed, which also seeds a synthetic corpus; noise takes --seed
for its own generator. Input files are flags, never config keys: --corpus,
--corpus-eval, --entropy-model, --checkpoint and --in.

Only train writes a run directory: --run-dir, or one named by config hash +
timestamp under --run-root (or $PATCHLM_RUN_ROOT). It and every --out path
are checked before any work: a path below an existing file, an --out that is
a directory or whose directory is missing, and a run directory that holds
files without --force are config errors.

Every command that builds a patcher (calibrate, patch, train,
check-incremental, trace) builds it the same way. Given --target-patch-size
(or patching.target_patch_size), it first calibrates the scheme's threshold
on the command's own corpus: theta for entropy_global, theta-r for
entropy_monotonic. That threshold set as well, or any other scheme with a
target, is a config error. An entropy scheme's count model is the one
--entropy-model loads, or else one trained on the command's corpus at --order
(entropy_model.order); the two flags together are a usage error. train saves
its patcher in the run directory (patcher.json, and entropy.bin for an
entropy scheme) before the first step.
eval-bpb --checkpoint reads the run back from the checkpoint's directory:
that patcher, and the model and eval stream size from the config.json whose
hash the checkpoint holds. So no command fits a patcher to the corpus it scores.

Exit codes: 0 ok, 2 config error (``errors.ConfigError``), 3 data error
(``errors.DataError``), 4 numeric failure (``errors.NumericError``). Any other
exception is a bug: it prints its traceback and exits 1.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import logging
import math
import os
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import entropy_lm, flops, patching, textgen
from .bpe import train_bpe
from .corpus import NoiseSpec, apply_noise, load_corpus
from .errors import ConfigError, DataError, NumericError, read_input
from .model import init_params
from .runconfig import RunConfig
from .trainer import (LN2, PatchStreamLoader, check_checkpoint, check_disjoint,
                      eval_bpb, load_checkpoint, lr_at, scorable_slices, train)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _nearest_dir(path: Path, subject: str) -> Path:
    """The nearest of ``path`` and its ancestors that exists, which must be a directory."""
    found = next(p for p in (path, *path.parents) if p.exists())
    if not found.is_dir():
        raise ConfigError(f"{subject}: {found} is not a directory")
    return found


def _out_path(out: str) -> Path:
    """``--out`` as a path, if it names a file in an existing directory."""
    path = Path(out)
    if path.is_dir() or _nearest_dir(path.parent, f"--out {path}") != path.parent:
        raise ConfigError(f"--out {path} must name a file in an existing directory")
    return path


def _free_run_dir(args, cfg: RunConfig) -> Path:
    """The run directory's path, if it is absent, empty or ``--force`` is given."""
    if args.run_dir:
        run_dir = Path(args.run_dir)
    else:
        stamp = _dt.datetime.now().strftime("%Y%m%d-%H%M%S")
        root = args.run_root or os.environ.get("PATCHLM_RUN_ROOT") or "runs"
        run_dir = Path(root) / f"{cfg.content_hash[:8]}-{stamp}"
    _nearest_dir(run_dir, f"run directory {run_dir}")
    if run_dir.exists() and any(run_dir.iterdir()) and not args.force:
        raise ConfigError(f"run directory {run_dir} exists; pass --force to overwrite")
    return run_dir


def _make_run_dir(run_dir: Path, cfg: RunConfig) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    lock = run_dir / ".lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
    except FileExistsError:
        raise ConfigError(f"run directory {run_dir} is locked by another process") from None
    cfg.write(run_dir / "config.json")


def _emit(report: dict, args, human=None):
    """One internal report; --json prints it verbatim, otherwise a small table."""
    if args.json:
        print(json.dumps(report, indent=2, allow_nan=False))
    else:
        lines = human(report) if human else [f"{k}: {v}" for k, v in report.items()]
        print("\n".join(lines))


def _load_docs(args, cfg: RunConfig, path=None) -> list[np.ndarray]:
    """The documents of ``path``, else of ``--corpus``, else synthetic ones."""
    path = path or args.corpus
    if path:
        docs = load_corpus(path, format=args.format)
        if not docs:
            raise DataError(f"no documents in {path}")
        return docs
    n_bytes = cfg["data"]["synthetic_bytes"]
    if not n_bytes:
        raise DataError("no corpus given: pass --corpus or set data.synthetic_bytes")
    texts = textgen.synthetic_documents(
        max(1, n_bytes // cfg["data"]["synthetic_doc_bytes"]),
        cfg["data"]["synthetic_doc_bytes"],
        seed=cfg["run"]["seed"],
    )
    return [np.frombuffer(t.encode(), np.uint8) for t in texts]


def _entropy_model(args, cfg: RunConfig, docs) -> entropy_lm.EntropyModel:
    if args.entropy_model:
        return entropy_lm.EntropyModel.load(args.entropy_model)
    return entropy_lm.train_counts(docs, order=cfg["entropy_model"]["order"],
                                   alpha=cfg["entropy_model"]["alpha"])


def _positive(args, *flags) -> None:
    """Reject a numeric flag that is not a finite number above zero."""
    for flag in flags:
        val = getattr(args, flag)
        if not (math.isfinite(val) and val > 0):
            raise ConfigError(f"--{flag.replace('_', '-')} must be a finite number > 0, got {val}")


def _patcher(args, cfg: RunConfig, docs, model=None) -> patching.Patcher:
    """The config's patcher; a target patch size calibrates the scheme's threshold on ``docs``.
    An entropy scheme uses ``model``, if given, else ``_entropy_model``'s."""
    pc, target = cfg.patching, cfg["patching"]["target_patch_size"]
    if pc.scheme not in patching.ENTROPY_THRESHOLDS:
        model = None
    elif model is None:
        model = _entropy_model(args, cfg, docs)
    if target is not None:
        pc = patching.calibrated_config(pc, model, docs, target)
    vocab = train_bpe(docs[:64], n_merges=pc.bpe_merges) if pc.scheme == "bpe" else None
    return patching.Patcher(pc, model, vocab)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_train_entropy(args, cfg: RunConfig) -> int:
    out = _out_path(args.out or "entropy.bin")
    docs = _load_docs(args, cfg)
    model = entropy_lm.train_counts(docs, order=cfg["entropy_model"]["order"],
                                    alpha=cfg["entropy_model"]["alpha"])
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
    patcher = _patcher(args, cfg, docs)
    pc = patcher.config
    stats = patching.patch_stats(*map(patcher, docs))
    (name,) = patching.ENTROPY_THRESHOLDS[pc.scheme]
    _emit({"scheme": pc.scheme, "target_patch_size": target,
           "theta": getattr(pc, name), "achieved_mean_patch_size": stats.mean_patch_size,
           "forced_splits": stats.forced_splits, "patching": asdict(pc)}, args)
    return EXIT_OK


def cmd_patch(args, cfg: RunConfig) -> int:
    out = _out_path(args.out or "boundaries.tsv")
    docs = _load_docs(args, cfg)
    patcher = _patcher(args, cfg, docs)
    bounds = [patcher(d) for d in docs]
    patching.write_boundaries_tsv(out, ((f"doc{idx}", b) for idx, b in enumerate(bounds)))
    stats = patching.patch_stats(*bounds)
    _emit({"out": str(out), "scheme": patcher.config.scheme, "docs": len(bounds),
           "n_bytes": stats.n_bytes, "n_patches": stats.n_patches,
           "mean_patch_size": stats.mean_patch_size, "forced_splits": stats.forced_splits,
           "patching": asdict(patcher.config)}, args)
    return EXIT_OK


def cmd_train(args, cfg: RunConfig) -> int:
    optim, model_cfg = cfg.optim, cfg.model
    steps = cfg["training"]["steps"]
    if steps:
        lr_at(0, optim, steps)  # a warmup as long as the run raises before any work
    entropy_model = None
    if args.entropy_model and cfg["patching"]["scheme"] in patching.ENTROPY_THRESHOLDS:
        # config.json and its hash record the order and alpha of the model the run uses
        entropy_model = entropy_lm.EntropyModel.load(args.entropy_model)
        cfg = RunConfig({**cfg.values,
                         "entropy_model": {"order": entropy_model.order, "alpha": entropy_model.alpha}})
    # the run directory is checked first but created last, so a config or data
    # error fails fast and leaves none behind
    run_dir = _free_run_dir(args, cfg)
    docs = _load_docs(args, cfg)
    rng = np.random.Generator(np.random.PCG64(cfg["run"]["seed"]))
    order = rng.permutation(len(docs))
    n_eval = max(1, int(len(docs) * cfg["data"]["eval_fraction"]))
    eval_docs = [docs[i] for i in order[:n_eval]]
    train_docs = [docs[i] for i in order[n_eval:]]
    if args.corpus_eval:
        eval_docs = _load_docs(args, cfg, args.corpus_eval)
        train_docs = docs
    check_disjoint(train_docs, eval_docs)
    scorable_slices({"heldout": eval_docs})
    patcher = _patcher(args, cfg, train_docs, entropy_model)
    loader = PatchStreamLoader(train_docs, patcher,
                               patch_budget=cfg["training"]["patch_budget"],
                               seed=cfg["run"]["seed"])
    params = init_params(model_cfg, seed=cfg["run"]["seed"])
    _make_run_dir(run_dir, cfg)
    try:
        patcher.save(run_dir)  # first, so that every checkpoint can be evaluated
        result = train(
            params, model_cfg, loader, optim, steps,
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
            "final_bpb": (None if result.final_loss is None
                          else result.final_loss / LN2),
            "skipped_steps": result.skipped_steps,
            "mean_patch_size": loader.mean_patch_size,
            "forced_splits": loader.stats.forced_splits,
            "patching": asdict(patcher.config),
            "evals": [asdict(r) for r in result.eval_reports],
        }
        (run_dir / "report.json").write_text(json.dumps(report, indent=2, allow_nan=False))
        _emit(report, args)
        return EXIT_OK
    finally:
        (run_dir / ".lock").unlink(missing_ok=True)


def cmd_eval_bpb(args, cfg: RunConfig) -> int:
    if args.uniform == bool(args.checkpoint):
        raise ConfigError("eval-bpb needs one of --checkpoint and --uniform")
    docs = _load_docs(args, cfg)
    if args.uniform:
        report = asdict(eval_bpb(None, None, {"eval": docs}))
    else:
        ck = load_checkpoint(args.checkpoint)
        run_config = Path(args.checkpoint).parent / "config.json"
        try:  # the run's settings; a config.json that fails to load is bad data here
            cfg = RunConfig.load(run_config)
        except ConfigError as exc:
            raise DataError(f"{run_config} is not a run config: {exc}") from None
        model_cfg = cfg.model
        check_checkpoint(ck, args.checkpoint, model_cfg, cfg.content_hash)
        patcher = patching.Patcher.load(run_config.parent)
        report = asdict(eval_bpb(ck["params"], model_cfg, {"eval": docs},
                                 patcher, max_stream_bytes=cfg["training"]["eval_stream_bytes"],
                                 steps=ck["step"]))
        report["patching"] = asdict(patcher.config)

    def human(rep):
        return [f"{name}: {val:.3f} bits/byte" for name, val in rep["bpb"].items()]

    _emit(report, args, human)
    return EXIT_OK


def cmd_flops(args, cfg: RunConfig) -> int:
    _positive(args, "n_ctx", "patch_size")
    model_cfg = cfg.model
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
    _positive(args, "target", "n_ctx", "patch_size", "tol")
    fam = flops.width_family(cfg.model)
    solved, achieved = flops.size_match(Fraction(str(args.target)), fam,
                                        args.n_ctx, Fraction(str(args.patch_size)),
                                        tol=args.tol)
    _emit({"achieved_flops_per_byte": float(achieved),
           "target": args.target,
           "rel_err": abs(float(achieved) - args.target) / args.target,
           "config": solved.to_dict()}, args)
    return EXIT_OK


def cmd_noise(args, cfg: RunConfig) -> int:
    out_path = _out_path(args.out) if args.out else None
    if args.text is not None:
        text = args.text
    else:
        raw = read_input(args.infile) if args.infile else sys.stdin.buffer.read()
        try:
            text = raw.decode()
        except UnicodeDecodeError:
            raise DataError(f"{args.infile or 'stdin'} is not UTF-8 text") from None
    spec = NoiseSpec(strategy=args.strategy, rate=args.rate, seed=cfg["run"]["seed"])
    out = apply_noise(text, spec)
    if out_path:
        out_path.write_text(out)
        _emit({"out": args.out, "strategy": args.strategy, "in_chars": len(text),
               "out_chars": len(out)}, args)
    else:
        print(out, end="" if out.endswith("\n") else "\n")
    return EXIT_OK


def cmd_check_incremental(args, cfg: RunConfig) -> int:
    _positive(args, "n_prefixes")
    docs = _load_docs(args, cfg)
    patcher = _patcher(args, cfg, docs)
    data = np.concatenate(docs) if len(docs) > 1 else docs[0]
    violations = patching.check_incrementality(patcher, data, n_prefixes=args.n_prefixes,
                                               seed=cfg["run"]["seed"])
    _emit({"scheme": patcher.config.scheme, "n_prefixes": args.n_prefixes,
           "n_violations": len(violations), "violations": violations[:32],
           "incremental": not violations, "patching": asdict(patcher.config)}, args)
    return EXIT_OK


def cmd_trace(args, cfg: RunConfig) -> int:
    out = _out_path(args.out or "trace.tsv")
    docs = _load_docs(args, cfg)
    patcher = _patcher(args, cfg, docs)
    # the entropy is traced next to any scheme's boundaries
    model = patcher.entropy_model or _entropy_model(args, cfg, docs)
    data = docs[0]
    trace = model.entropy_trace(data, reset_on_newline=patcher.config.reset_on_newline)
    bounds = patcher(data)
    entropy_lm.write_trace_tsv(out, trace, data, bounds)
    _emit({"out": str(out), "positions": len(trace.values),
           "mean_entropy_nats": float(trace.values.mean()),
           "n_boundaries": bounds.n_patches, "patching": asdict(patcher.config)}, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# the flags several commands share; each command names the ones it reads
_SHARED_FLAGS = {
    "--json": dict(action="store_true", help="machine-readable output"),
    "--log-level": dict(default="WARNING", choices=["DEBUG", "INFO", "WARNING", "ERROR"],
                        help="lowest level of the log messages printed to stderr"),
    "--config": dict(help="JSON run config; flags override its keys"),
    "--seed": dict(type=int, dest="run.seed"),
    "--corpus": dict(default=None, help="input corpus file"),
    "--format": dict(default="plain-text", choices=["plain-text", "jsonl"]),
    "--order": dict(type=int, dest="entropy_model.order",
                    help="context order of the count model the command trains"),
}

# what a command that reads a corpus takes; the seed also seeds a synthetic one
_CORPUS_FLAGS = ("--config", "--seed", "--corpus", "--format")


def _add_shared(sp, *flags):
    for flag in ("--json", "--log-level", *flags):
        sp.add_argument(flag, **_SHARED_FLAGS[flag])


def _add_patch_flags(sp):
    sp.add_argument("--scheme", choices=list(patching.SCHEMES), dest="patching.scheme")
    sp.add_argument("--k", type=int, dest="patching.k", help="stride for the strided scheme")
    sp.add_argument("--theta", type=float, dest="patching.theta_g", help="global entropy threshold")
    sp.add_argument("--theta-r", type=float, dest="patching.theta_r", help="entropy jump threshold")
    sp.add_argument("--target-patch-size", type=float, dest="patching.target_patch_size",
                    help="calibrate the scheme's threshold (--theta for entropy_global, "
                         "--theta-r for entropy_monotonic) to this mean patch size on "
                         "the command's own corpus")
    sp.add_argument("--reset-newline", action="store_true", default=None,
                    dest="patching.reset_on_newline")
    sp.add_argument("--max-patch", type=int, dest="patching.max_patch_size",
                    help="maximum patch length in bytes; the model sets no limit of its own")
    # a saved model has its own order: the two are contradictory inputs
    source = sp.add_mutually_exclusive_group()
    source.add_argument("--entropy-model", default=None, help="path to a saved entropy model")
    source.add_argument("--order", **_SHARED_FLAGS["--order"])
    sp.add_argument("--bpe-merges", type=int, dest="patching.bpe_merges",
                    help="merges of the bpe scheme's vocabulary")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="patchlm", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("train-entropy", help="count-train the byte entropy model")
    _add_shared(sp, *_CORPUS_FLAGS, "--order")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_train_entropy)

    sp = sub.add_parser("calibrate", help="bisect a threshold for a target mean patch size")
    _add_shared(sp, *_CORPUS_FLAGS)
    _add_patch_flags(sp)
    sp.set_defaults(fn=cmd_calibrate)

    sp = sub.add_parser("patch", help="emit patch boundaries for a corpus")
    _add_shared(sp, *_CORPUS_FLAGS)
    _add_patch_flags(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_patch)

    sp = sub.add_parser("train", help="train a model per the run config")
    _add_shared(sp, *_CORPUS_FLAGS)
    sp.add_argument("--run-root", default=None)
    sp.add_argument("--run-dir", default=None)
    sp.add_argument("--force", action="store_true", help="overwrite an existing run dir")
    _add_patch_flags(sp)
    sp.add_argument("--corpus-eval", default=None)
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("eval-bpb", help="bits-per-byte of a checkpoint (or the uniform model)")
    _add_shared(sp, "--corpus", "--format")
    sp.add_argument("--checkpoint", default=None,
                    help="scored under the config.json and patcher its run saved next to it")
    sp.add_argument("--uniform", action="store_true")
    sp.set_defaults(fn=cmd_eval_bpb)

    sp = sub.add_parser("flops", help="per-component FLOPs/byte for a model config")
    _add_shared(sp, "--config")
    sp.add_argument("--n-ctx", type=int, default=4096)
    sp.add_argument("--patch-size", type=float, default=4.0)
    sp.set_defaults(fn=cmd_flops)

    sp = sub.add_parser("size-match", help="solve a config for a FLOPs/byte target")
    _add_shared(sp, "--config")
    sp.add_argument("--target", type=float, required=True)
    sp.add_argument("--n-ctx", type=int, default=4096)
    sp.add_argument("--patch-size", type=float, default=4.0)
    sp.add_argument("--tol", type=float, default=0.005)
    sp.set_defaults(fn=cmd_size_match)

    sp = sub.add_parser("noise", help="apply a character-level noising strategy")
    _add_shared(sp, "--seed")
    sp.add_argument("--strategy", required=True, choices=list(corpus_mod.NOISE_STRATEGIES))
    sp.add_argument("--rate", type=float, default=None)
    sp.add_argument("--text", default=None)
    sp.add_argument("--in", dest="infile", default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_noise)

    sp = sub.add_parser("check-incremental", help="prefix-stability check for a patcher")
    _add_shared(sp, *_CORPUS_FLAGS)
    _add_patch_flags(sp)
    sp.add_argument("--n-prefixes", type=int, default=1000)
    sp.set_defaults(fn=cmd_check_incremental)

    sp = sub.add_parser("trace", help="entropy-and-boundary dump for plotting")
    _add_shared(sp, *_CORPUS_FLAGS)
    _add_patch_flags(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_trace)

    return ap


def _overrides(args) -> dict:
    """Config overrides from the flags, so that config.json records them.

    A flag that overrides a config key has that key, ``section.name``, as its
    argparse dest (and so as its metavar in --help); a flag left unset is None.
    """
    overrides: dict = {}
    for dest, val in vars(args).items():
        if "." in dest and val is not None:
            section, key = dest.split(".")
            overrides.setdefault(section, {})[key] = val
    return overrides


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=args.log_level, format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = RunConfig.load(getattr(args, "config", None), _overrides(args))
        return args.fn(args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
