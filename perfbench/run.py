"""Benchmark for patchlm: one workload per process, measured from outside.

    python3 perfbench/run.py --workload train-short --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the run sets the workload up several times (``setup_s``
is the median), then runs timed operations for ``--seconds`` and at least
the workload's fixed minimum, and prints the end-to-end metrics. With
``--trace 1`` it sets up once with spans around each layer, runs plain and
traced operations for half the time each, and prints the per-layer metrics.
The second-to-last line of output is a JSON record of the machine, the
configuration and the checks; the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.

The package is imported from ``src/`` next to this directory, never from an
installed copy: without the sources the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

# name -> (unit, better, bound); BENCHMARK.json lists the same metrics.
END_TO_END = {
    "bytes_per_s": ("B/s", "higher", 0.25),
    "op_s_p50": ("s", "lower", 0.25),
    "bpb": ("bits/byte", "lower", 0.05),
    "peak_rss_mb": ("MB", "lower", 0.15),
    "setup_s": ("s", "lower", 0.25),
}
COMPONENTS = ("latent", "encoder_transformer", "decoder_transformer", "encoder_xattn", "decoder_xattn")
GFLOP_BLOCKS = ("encoder.xattn", "encoder.layers", "global", "decoder.xattn", "decoder.layers")
FWD_BLOCKS = ("embed", "encoder.xattn", "encoder.layers", "masks", "global",
              "decoder.xattn", "decoder.layers", "loss")
STAGES = ("encoder", "global", "decoder", "loss")
PER_LAYER = {
    "trainer.next_stream_s": "s",
    "trainer.adamw_step_s": "s",
    "trainer.eval_bpb_s": "s",
    "trainer.stream_bytes": "B",
    "trainer.stream_patches": "count",
    "trainer.eval_scored_frac": "ratio",
    "model.fwd_s": "s",
    **{f"model.{b}.fwd_s": "s" for b in FWD_BLOCKS},
    "tensor.softmax.fwd_s": "s",
    **{f"model.{s}.bwd_s": "s" for s in STAGES},
    **{f"model.{s}.fwd_peak_mb": "MB" for s in STAGES},
    "model.graph_mb": "MB",
    "entropy_lm.train_counts_s": "s",
    "entropy_lm.entropy_trace_s": "s",
    "patching.calibrate_threshold_s": "s",
    "patching.boundaries_s": "s",
    "patching.mean_patch_size": "B",
    "patching.forced_splits": "count",
    "patching.stats_forced_splits": "count",
    **{f"flops.{c}.{kind}_per_byte": "FLOP/B" for c in COMPONENTS for kind in ("analytic", "executed")},
    **{f"model.{b}.gflops_per_s": "GFLOP/s" for b in GFLOP_BLOCKS},
    "trace.overhead_frac": "ratio",
}


def _import_patchlm():
    if not (SRC / "patchlm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no patchlm sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import patchlm

    if Path(patchlm.__file__).resolve().parent != SRC / "patchlm":
        sys.exit(f"perfbench: imported patchlm from {patchlm.__file__}, not {SRC}")


def machine_record(seed: int, workload) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
        "workload": workload.resolved(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def tail_percentile(samples: list[float]) -> dict | None:
    """The highest of a few percentiles with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            return {"percentile": p, "value": statistics.quantiles(samples, n=1000)[round(p * 10) - 1],
                    "samples": n}
    return None


def run_ops(op, seconds: float, min_ops: int) -> list:
    results = []
    deadline = time.perf_counter() + seconds
    while len(results) < min_ops or time.perf_counter() < deadline:
        results.append(op())
    return results


def measure(wl, seed: int, seconds: float) -> tuple[dict, dict, list]:
    setup_s, prints = [], []
    ctx = None
    for _ in range(SETUP_REPEATS):
        ctx = None  # release the previous set-up before building the next
        t0 = time.perf_counter()
        ctx = wl.setup(seed)
        setup_s.append(time.perf_counter() - t0)
        prints.append(wl.fingerprint(ctx))
    results = run_ops(lambda: wl.op(ctx), seconds, wl.min_ops)
    first = results[: wl.min_ops]
    ok = [r for r in results if not r.failed]
    op_s = [r.seconds for r in ok]
    metrics = {
        "bytes_per_s": sum(r.n_bytes for r in ok) / sum(op_s),
        "op_s_p50": statistics.median(op_s),
        "bpb": wl.bpb(ctx, first),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setup_s),
    }
    checks = {"setup_repeats_agree": all(p == prints[0] for p in prints),
              **wl.checks(ctx, first),
              "metrics_finite": all(math.isfinite(v) and v > 0 for v in metrics.values())}
    record = {"setup_s_all": setup_s, "op_s_tail": tail_percentile(op_s), "ops": len(results),
              **wl.record(ctx, first)}
    return metrics, {"checks": checks, **record}, results


def traced(wl, seed: int, seconds: float) -> tuple[dict, dict, list]:
    from patchlm import flops
    import tracing

    tr = tracing.Tracer()
    ctx = wl.setup(seed, tr)
    tr.phase = "op"
    plain = run_ops(lambda: wl.op(ctx), seconds / 2, 1)
    traced_ops = run_ops(lambda: wl.traced_op(ctx, tr), seconds / 2, 1)
    n_ops = len(traced_ops)
    results = plain + traced_ops

    def seconds_per_op(name, inclusive=False):
        table = tr.total_s if inclusive else tr.self_s
        if ("op", name) in table:
            return table[("op", name)] / n_ops
        return table.get(("setup", name), 0.0)  # a traced run sets up once

    def count(name):
        return tr.counts.get(("setup", name), 0.0) + tr.counts.get(("op", name), 0.0)

    def per_byte(ops):
        return statistics.median(r.seconds / r.n_bytes for r in ops if r.n_bytes)

    s_per_byte = {"plain": per_byte(plain), "traced": per_byte(traced_ops)}

    m = {name: 0.0 for name in PER_LAYER}
    m.update({
        "trainer.next_stream_s": seconds_per_op("trainer.next_stream"),
        "trainer.adamw_step_s": seconds_per_op("trainer.adamw_step"),
        "trainer.eval_bpb_s": seconds_per_op("trainer.eval_bpb", inclusive=True),
        "model.fwd_s": seconds_per_op("model.fwd", inclusive=True),
        "tensor.softmax.fwd_s": seconds_per_op("tensor.softmax.fwd"),
        "entropy_lm.train_counts_s": seconds_per_op("entropy_lm.train_counts"),
        "entropy_lm.entropy_trace_s": seconds_per_op("entropy_lm.entropy_trace"),
        "patching.calibrate_threshold_s": seconds_per_op("patching.calibrate_threshold"),
        "patching.boundaries_s": seconds_per_op("patching.boundaries"),
        "patching.forced_splits": count("patching.forced_splits"),
        "patching.stats_forced_splits": count("patching.stats_forced_splits"),
        "trace.overhead_frac": s_per_byte["traced"] / s_per_byte["plain"] - 1.0,
    })
    m.update({f"model.{b}.fwd_s": seconds_per_op(f"model.{b}.fwd") for b in FWD_BLOCKS})
    m.update({f"model.{s}.bwd_s": seconds_per_op(f"model.{s}.bwd") for s in STAGES})
    if count("patching.patches"):
        m["patching.mean_patch_size"] = count("patching.bytes") / count("patching.patches")
    checks = {}
    streams = tr.counts.get(("op", "streams"), 0)
    if streams:
        stream_bytes = tr.counts[("op", "stream.bytes")]
        stream_patches = tr.counts[("op", "stream.patches")]
        m["trainer.stream_bytes"] = stream_bytes / streams
        m["trainer.stream_patches"] = stream_patches / streams
        analytic = flops.blt_flops_per_byte(ctx.config, round(stream_bytes / streams),
                                            stream_bytes / stream_patches).components()
        for c in COMPONENTS:
            m[f"flops.{c}.analytic_per_byte"] = float(analytic[c])
            m[f"flops.{c}.executed_per_byte"] = tr.flops.get(c, 0.0) / stream_bytes
        for b in GFLOP_BLOCKS:
            m[f"model.{b}.gflops_per_s"] = (tr.block_flops[f"model.{b}.fwd"]
                                            / tr.total_s[("op", f"model.{b}.fwd")] / 1e9)
        mem, same_loss = tracing.memory_probe(ctx.params, wl.probe_stream(ctx), ctx.config)
        m.update(mem)
        checks["composed_loss_equals_lm_forward"] = same_loss
        checks["all_matmul_flops_attributed"] = "unattributed" not in tr.flops
    scorable = sum(r.scorable for r in results)
    if scorable:
        m["trainer.eval_scored_frac"] = sum(r.scored for r in results) / scorable
    checks["per_layer_finite"] = all(math.isfinite(v) for v in m.values())
    record = {"checks": checks, "plain_ops": len(plain), "traced_ops": n_ops,
              "s_per_byte": s_per_byte}
    return m, record, results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the smoke test's small inputs")
    args = ap.parse_args(argv)
    _import_patchlm()
    from workloads import TINY, WORKLOADS

    table = TINY if args.size == "tiny" else WORKLOADS
    if args.workload not in table:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(table)}")
    wl = table[args.workload]
    run = traced if args.trace else measure
    metrics, record, results = run(wl, args.seed, args.seconds)
    units = PER_LAYER if args.trace else {k: v[0] for k, v in END_TO_END.items()}
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    record.update(machine=machine_record(args.seed, wl), failed_frac=failed / attempted)
    print(json.dumps({"record": record}, default=float))
    print(json.dumps({
        "correct": all(record["checks"].values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
