"""``experiments/ab.py`` at a small size: the working tree against copies of itself."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _ab(base: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "experiments" / "ab.py"), "--base", str(base),
                           "--docs", "160", "--pairs", "2"],
                          capture_output=True, text=True, timeout=600)


def _copy(tmp_path: Path) -> Path:
    shutil.copytree(ROOT / "src" / "patchlm", tmp_path / "src" / "patchlm",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_ab_times_the_working_tree_against_a_copy_of_itself(tmp_path):
    res = _ab(_copy(tmp_path))
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0] == "patch-o4, seed 11, 160 documents: equal theta and patch starts"
    assert lines[1].startswith("base / working time per pair: median ")
    assert lines[1].endswith(" of 2 pairs")


# a base patcher that drops each document's last patch start but calibrates as before
DROP_LAST_START = """

_call = Patcher.__call__
Patcher.__call__ = lambda self, data: PatchBoundaries(_call(self, data).starts[:-1], len(data))
"""


def test_ab_reports_the_first_difference_and_times_nothing(tmp_path):
    patching = _copy(tmp_path) / "src" / "patchlm" / "patching.py"
    patching.write_text(patching.read_text() + DROP_LAST_START)
    res = _ab(tmp_path)
    assert res.returncode == 1, res.stderr
    assert res.stdout.startswith("outputs differ at document 0, patch "), res.stdout
    assert "time per pair" not in res.stdout
    patching.write_text(patching.read_text().replace("DEFAULT_MAX_PATCH = 512", "DEFAULT_MAX_PATCH = 8"))
    res = _ab(tmp_path)
    assert res.returncode == 1 and res.stdout.startswith("outputs differ at theta: "), res.stdout
