"""Paired timing of the benchmark's patch-o4 operation in one process: a base
source tree against the working tree.

    python experiments/ab.py --base <git revision | checkout directory> [--seed 11] [--pairs 20]

The base tree's ``src/patchlm`` (from ``git archive`` of a revision, or from
a checkout directory) and the working tree's load side by side under two
package names; every module imports its siblings relatively. Each tree
builds patch-o4's inputs with its own ``textgen``, at the sizes of
``perfbench/workloads.py`` ``WORKLOADS["patch-o4"]`` (``--docs`` overrides
the document count). The operation is that workload's: calibrate the
threshold of ``entropy_global`` on the sample, then patch every document.

First both trees run it once, and must give the same threshold and the same
patch starts for every document; otherwise the first difference is printed
and the exit status is 1. Then each pair times one warm operation per tree,
each on a count model rebuilt outside the timed part (so each starts with
the empty entropy memo a command starts with), and the order swaps every
pair. Printed: the median of the per-pair ratios base time / working time,
its quartiles, the pairs the working tree won and each tree's median time.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import subprocess
import sys
import tarfile
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def load_tree(name: str, src: Path):
    """Import the ``patchlm`` package under ``src`` as the package ``name``."""
    pkg_dir = src / "patchlm"
    spec = importlib.util.spec_from_file_location(name, pkg_dir / "__init__.py",
                                                  submodule_search_locations=[str(pkg_dir)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for module in ("entropy_lm", "patching", "textgen"):  # each binds itself on the package
        importlib.import_module(f"{name}.{module}")
    return pkg


def base_source(base: str, into: str) -> Path:
    """The ``src`` directory of ``base``: a checkout directory, or else a
    revision of this repository extracted into ``into``."""
    if Path(base).is_dir():
        return Path(base) / "src"
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", base, "src/patchlm"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return Path(into) / "src"


class Tree:
    """One tree's patch-o4 operation on the inputs its own ``textgen`` makes."""

    def __init__(self, name: str, src: Path, workload, seed: int):
        self.workload = workload
        self.pkg = load_tree(f"ab_{name}_patchlm", src)
        texts = self.pkg.textgen.synthetic_documents(workload.n_docs, workload.doc_bytes, seed=seed)
        self.docs = [np.frombuffer(t.encode(), np.uint8) for t in texts]

    def count_model(self):
        return self.pkg.entropy_lm.train_counts(self.docs[: self.workload.n_train_docs],
                                                order=self.workload.order)

    def op(self, model):
        """The threshold and every document's patch starts."""
        patching, wl = self.pkg.patching, self.workload
        theta = patching.calibrate_threshold(model, self.docs[: wl.n_sample_docs],
                                             wl.target_patch_size)
        config = patching.PatchingConfig(scheme="entropy_global", theta_g=theta)
        patcher = patching.make_patcher(config, entropy_model=model)
        return theta, [patcher(doc).starts for doc in self.docs]

    def timed(self) -> float:
        model = self.count_model()
        t0 = time.perf_counter()
        self.op(model)
        return time.perf_counter() - t0


def first_difference(base, work) -> str | None:
    (theta_b, starts_b), (theta_w, starts_w) = base, work
    if theta_b != theta_w:
        return f"theta: base {theta_b!r}, working {theta_w!r}"
    if len(starts_b) != len(starts_w):
        return f"documents: base {len(starts_b)}, working {len(starts_w)}"
    for i, (b, w) in enumerate(zip(starts_b, starts_w)):
        if not np.array_equal(b, w):
            j = next((j for j, (x, y) in enumerate(zip(b, w)) if x != y), min(len(b), len(w)))
            return (f"document {i}, patch {j}: base starts {b[j:j + 3].tolist()}, "
                    f"working {w[j:j + 3].tolist()}")
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision or checkout directory")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--pairs", type=int, default=20)
    ap.add_argument("--docs", type=int, default=None, help="documents patched (default: patch-o4's)")
    args = ap.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    workload = WORKLOADS["patch-o4"]
    if args.docs is not None:
        workload = replace(workload, n_docs=args.docs)
    with tempfile.TemporaryDirectory() as tmp:
        base = Tree("base", base_source(args.base, tmp), workload, args.seed)
        work = Tree("working", ROOT / "src", workload, args.seed)
    diff = first_difference(base.op(base.count_model()), work.op(work.count_model()))
    if diff:
        print(f"outputs differ at {diff}")
        return 1
    print(f"patch-o4, seed {args.seed}, {workload.n_docs} documents: equal theta and patch starts")

    times = {base: [], work: []}
    for pair in range(args.pairs):
        for tree in (base, work) if pair % 2 == 0 else (work, base):
            times[tree].append(tree.timed())
    ratios = np.array(times[base]) / np.array(times[work])
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    print(f"base / working time per pair: median {median:.3f} (quartiles {q1:.3f}, {q3:.3f}); "
          f"working faster in {int((ratios > 1).sum())} of {args.pairs} pairs")
    print(f"median op: base {1e3 * np.median(times[base]):.1f} ms, "
          f"working {1e3 * np.median(times[work]):.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
