import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import patchlm
from patchlm import textgen
from patchlm.corpus import load_corpus
from patchlm.entropy_lm import train_counts
from patchlm.cli import EXIT_CONFIG, EXIT_DATA, main
from patchlm.model import ModelConfig, init_params
from patchlm.patching import ENTROPY_THRESHOLDS, PatchingConfig, patch_strided
from patchlm.runconfig import ConfigError, RunConfig
from patchlm.trainer import AdamState, OptimSpec, eval_bpb, load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("data") / "corpus.txt"
    lines = [textgen.synthetic_text(300, seed=i).replace("\n", " ") for i in range(400)]
    p.write_text("\n".join(lines) + "\n")
    return p


TINY_MODEL = {"enc_dim": 16, "global_dim": 32, "dec_dim": 16, "enc_layers": 1,
              "global_layers": 2, "dec_layers": 1, "enc_heads": 2, "global_heads": 2,
              "dec_heads": 2, "hash_vocab": 64, "enc_window": 16, "dec_window": 16}


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def save_tiny_checkpoint(path):
    cfg = ModelConfig(**TINY_MODEL)
    params = init_params(cfg, seed=0)
    save_checkpoint(path, params, AdamState.init(params), None, 0, cfg, OptimSpec())


def test_patch_strided_tsv(tmp_path, capsys, corpus_file):
    small = tmp_path / "ten.txt"
    small.write_bytes(b"0123456789\n")
    out = tmp_path / "b.tsv"
    code, _ = run(capsys, "patch", "--corpus", str(small), "--scheme", "strided",
                  "--k", "4", "--out", str(out))
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[1:] == ["doc0\t0", "doc0\t4", "doc0\t8"]
    # one 10-byte stride, cut twice by the maximum patch size
    code, report = run(capsys, "patch", "--json", "--corpus", str(small), "--scheme", "strided",
                       "--k", "10", "--max-patch", "4", "--out", str(out))
    assert code == 0 and json.loads(report)["forced_splits"] == 2
    assert out.read_text().strip().splitlines()[1:] == ["doc0\t0", "doc0\t4", "doc0\t8"]


def test_eval_bpb_uniform_prints_8(capsys, corpus_file):
    code, out = run(capsys, "eval-bpb", "--corpus", str(corpus_file), "--uniform")
    assert code == 0
    assert "8.000" in out


def test_noise_roundtrip(capsys):
    code, out = run(capsys, "noise", "--strategy", "antspeak", "--text", "cat")
    assert code == 0 and out.strip() == "C A T"


def test_flops_json(capsys):
    code, out = run(capsys, "flops", "--json", "--n-ctx", "2048", "--patch-size", "4")
    assert code == 0
    doc = json.loads(out)
    total = (doc["latent"] + doc["encoder_transformer"] + doc["decoder_transformer"]
             + doc["encoder_xattn"] + doc["decoder_xattn"])
    assert abs(total - doc["total_forward"]) < 1e-6
    assert doc["total_train"] == pytest.approx(3 * doc["total_forward"])


def test_size_match_command(capsys):
    code, out = run(capsys, "flops", "--json", "--n-ctx", "2048", "--patch-size", "6")
    target = json.loads(out)["total_forward"]
    code, out = run(capsys, "size-match", "--json", "--target", str(target),
                    "--n-ctx", "2048", "--patch-size", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["rel_err"] < 0.005


def test_check_incremental_strided(capsys, corpus_file):
    code, out = run(capsys, "check-incremental", "--json", "--corpus", str(corpus_file),
                    "--scheme", "strided", "--k", "4", "--n-prefixes", "50")
    assert code == 0
    doc = json.loads(out)
    assert doc["incremental"] is True and doc["n_violations"] == 0


def test_trace_and_train_entropy(tmp_path, capsys, corpus_file):
    model_path = tmp_path / "ent.bin"
    code, _ = run(capsys, "train-entropy", "--corpus", str(corpus_file),
                  "--order", "2", "--out", str(model_path))
    assert code == 0 and model_path.exists()
    out = tmp_path / "trace.tsv"
    code, _ = run(capsys, "trace", "--corpus", str(corpus_file), "--entropy-model",
                  str(model_path), "--theta", "2.0", "--out", str(out))
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "pos\tbyte_hex\tglyph\tentropy_nats\tboundary"


def test_calibrate_command(tmp_path, capsys, corpus_file):
    model_path = tmp_path / "ent.bin"
    run(capsys, "train-entropy", "--corpus", str(corpus_file), "--order", "3",
        "--out", str(model_path))
    code, out = run(capsys, "calibrate", "--json", "--corpus", str(corpus_file),
                    "--entropy-model", str(model_path), "--target-patch-size", "4.5")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["achieved_mean_patch_size"] - 4.5) / 4.5 < 0.02
    assert doc["forced_splits"] == 0


def test_exit_codes(capsys, tmp_path):
    code, _ = run(capsys, "patch", "--corpus", "/nonexistent/file.txt", "--scheme", "strided")
    assert code == EXIT_DATA
    code, _ = run(capsys, "calibrate", "--corpus", str(tmp_path / "nope.txt"))
    assert code == EXIT_CONFIG  # missing --target-patch-size reported before data access
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text('{"nonsense_key": 1}')
    code, _ = run(capsys, "flops", "--config", str(bad_cfg))
    assert code == EXIT_CONFIG
    bad_cfg.write_text('{"model": {"hash_prime": 4}}')
    code, _ = run(capsys, "flops", "--config", str(bad_cfg))
    assert code == EXIT_CONFIG


def run_module(tmp_path, *argv) -> subprocess.CompletedProcess:
    """``python -m patchlm ARGV`` in a fresh interpreter, with this package first on the path."""
    src = str(Path(patchlm.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "patchlm", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


def test_python_dash_m_help(tmp_path):
    proc = run_module(tmp_path, "--help")
    assert proc.returncode == 0 and "train-entropy" in proc.stdout


BAD_INPUTS = {
    "order_above_8": (["train-entropy", "--corpus", "text.txt", "--order", "9"], EXIT_CONFIG),
    "order_0": (["train-entropy", "--corpus", "text.txt", "--order", "0"], EXIT_CONFIG),
    "alpha_0": (["train-entropy", "--corpus", "text.txt", "--config", "alpha0.json"], EXIT_CONFIG),
    "negative_target": (["size-match", "--target", "-1"], EXIT_CONFIG),
    "negative_bpe_merges": (["patch", "--corpus", "text.txt", "--scheme", "bpe",
                             "--bpe-merges", "-1"], EXIT_CONFIG),
    "uniform_on_1_byte": (["eval-bpb", "--corpus", "one.txt", "--uniform"], EXIT_DATA),
    "train_on_1_byte": (["train", "--corpus", "one.txt"], EXIT_DATA),
    "checkpoint_not_a_checkpoint": (["eval-bpb", "--corpus", "text.txt",
                                     "--checkpoint", "text.txt"], EXIT_DATA),
    "checkpoint_version_99": (["eval-bpb", "--corpus", "text.txt",
                               "--checkpoint", "version99.npz"], EXIT_DATA),
    **{f"entropy_model_{bad}": (["patch", "--corpus", "text.txt", "--entropy-model", f"{bad}.bin"],
                                EXIT_DATA)
       for bad in ("magic", "checksum", "version", "not_nested")},
    # on a corpus large enough to calibrate on, so only the contradiction fails
    "theta_and_target": (["patch", "--corpus", "big.txt", "--scheme", "entropy_global",
                          "--theta", "2.0", "--target-patch-size", "4.5"], EXIT_CONFIG),
}


def _write_bad_inputs(tmp_path, corpus_file):
    shutil.copy(corpus_file, tmp_path / "big.txt")
    (tmp_path / "text.txt").write_text("the cat sat on the mat\n")
    (tmp_path / "one.txt").write_bytes(b"x")
    (tmp_path / "alpha0.json").write_text(json.dumps({"entropy_model": {"alpha": 0}}))
    (tmp_path / "magic.bin").write_bytes(b"not an entropy model file")
    good = tmp_path / "good.bin"
    train_counts([b"the cat sat on the mat"], order=2).save(good)
    raw = good.read_bytes()
    (tmp_path / "checksum.bin").write_bytes(raw[:-33] + bytes([raw[-33] ^ 1]) + raw[-32:])
    payload = raw[:8] + struct.pack("<H", 99) + raw[10:-32]  # version 99 under a valid checksum
    (tmp_path / "version.bin").write_bytes(payload + hashlib.sha256(payload).digest())
    model = train_counts([b"abab"], order=1)
    model.levels[1].pair_next[:] = ord("z")  # length-1 pairs whose suffix pair was never counted
    model.save(tmp_path / "not_nested.bin")
    save_tiny_checkpoint(tmp_path / "ckpt.npz")
    with np.load(tmp_path / "ckpt.npz") as z:
        arrays = dict(z)
    meta = json.loads(bytes(arrays["meta_json"]).decode())
    meta["version"] = 99
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode(), np.uint8)
    np.savez(tmp_path / "version99.npz", **arrays)


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_with_code_and_no_traceback(tmp_path, corpus_file, case):
    _write_bad_inputs(tmp_path, corpus_file)
    argv, code = BAD_INPUTS[case]
    proc = run_module(tmp_path, *argv)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr and proc.stderr.strip()
    assert proc.stderr.startswith("data error" if code == EXIT_DATA else "config error")


def test_bpe_merges_flag_is_honoured(tmp_path, capsys, corpus_file):
    counts = {}
    for merges in ("0", "200"):
        code, out = run(capsys, "patch", "--json", "--corpus", str(corpus_file), "--scheme", "bpe",
                        "--bpe-merges", merges, "--out", str(tmp_path / "b.tsv"))
        assert code == 0
        counts[merges] = json.loads(out)
    assert counts["0"]["n_patches"] == counts["0"]["n_bytes"]  # no merges: one byte per patch
    assert counts["200"]["n_patches"] < counts["0"]["n_patches"]


def test_train_entropy_order_flag_is_the_config_order(tmp_path, capsys, corpus_file):
    code, out = run(capsys, "train-entropy", "--json", "--corpus", str(corpus_file),
                    "--order", "1", "--out", str(tmp_path / "ent.bin"))
    assert code == 0 and json.loads(out)["order"] == 1


def test_train_command_end_to_end(tmp_path, capsys, corpus_file):
    cfg = {
        "model": TINY_MODEL,
        "patching": {"scheme": "strided", "k": 4},
        "optimizer": {"warmup_steps": 2, "lr_peak": 1e-3},
        "training": {"steps": 5, "patch_budget": 16, "eval_every": 5},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    run_dir = tmp_path / "run1"
    code, out = run(capsys, "train", "--json", "--config", str(cfg_path),
                    "--corpus", str(corpus_file), "--run-dir", str(run_dir))
    assert code == 0
    assert (run_dir / "metrics.jsonl").exists()
    assert (run_dir / "ckpt_final.npz").exists()
    resolved = json.loads((run_dir / "config.json").read_text())
    assert resolved["model"]["enc_dim"] == 16 and "_content_hash" in resolved
    assert json.loads(out)["forced_splits"] == 0
    # refuses to reuse the run dir without --force
    code, _ = run(capsys, "train", "--config", str(cfg_path), "--corpus",
                  str(corpus_file), "--run-dir", str(run_dir))
    assert code == EXIT_CONFIG


def test_train_target_patch_size_flag_calibrates(tmp_path, capsys, corpus_file):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": TINY_MODEL, "optimizer": {"warmup_steps": 1},
                                    "training": {"steps": 2, "patch_budget": 16}}))
    code, out = run(capsys, "train", "--json", "--config", str(cfg_path), "--corpus",
                    str(corpus_file), "--run-dir", str(tmp_path / "run"),
                    "--scheme", "entropy_global", "--target-patch-size", "4.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["steps"] == 2
    assert abs(doc["mean_patch_size"] - 4.5) < 0.25


def test_train_entropy_monotonic_target_patch_size_calibrates_theta_r(tmp_path, capsys,
                                                                      corpus_file):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": TINY_MODEL, "optimizer": {"warmup_steps": 1},
                                    "training": {"steps": 2, "patch_budget": 16}}))
    code, out = run(capsys, "train", "--json", "--config", str(cfg_path), "--corpus",
                    str(corpus_file), "--run-dir", str(tmp_path / "run"),
                    "--scheme", "entropy_monotonic", "--target-patch-size", "4.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["steps"] == 2
    assert abs(doc["mean_patch_size"] - 4.5) < 0.25


def test_train_patch_flags_are_recorded_in_config_json(tmp_path, capsys, corpus_file):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": TINY_MODEL, "optimizer": {"warmup_steps": 1},
                                    "training": {"steps": 2, "patch_budget": 16}}))
    resolved = {}
    for k in (4, 8):
        run_dir = tmp_path / f"run{k}"
        code, _ = run(capsys, "train", "--config", str(cfg_path), "--corpus", str(corpus_file),
                      "--run-dir", str(run_dir), "--scheme", "strided", "--k", str(k))
        assert code == 0
        resolved[k] = json.loads((run_dir / "config.json").read_text())
        assert resolved[k]["patching"]["scheme"] == "strided"
        assert resolved[k]["patching"]["k"] == k
    assert resolved[4]["_content_hash"] != resolved[8]["_content_hash"]


def test_runconfig_unknown_keys_and_hash():
    with pytest.raises(ConfigError, match="unknown config key"):
        RunConfig({"modle": {}})
    for section, key in (("run", "run_root"), ("run", "name"), ("data", "train_path"),
                         ("data", "eval_path"), ("data", "format"),
                         ("patching", "theta_g_inference"), ("patching", "theta_r_inference")):
        with pytest.raises(ConfigError, match="unknown config key"):
            RunConfig({section: {key: None}})
    a = RunConfig({"run": {"seed": 1}})
    b = RunConfig({"run": {"seed": 1}})
    c = RunConfig({"run": {"seed": 2}})
    assert a.content_hash == b.content_hash != c.content_hash


def test_runconfig_defaults_are_the_dataclass_defaults():
    cfg = RunConfig({})
    assert cfg["model"] == ModelConfig().to_dict()
    assert ModelConfig.from_dict(cfg["model"]) == ModelConfig()
    patching = dict(cfg["patching"])
    assert patching.pop("target_patch_size") is None
    assert PatchingConfig(**patching) == PatchingConfig()
    assert cfg["optimizer"] == asdict(OptimSpec())
    assert OptimSpec(**cfg["optimizer"]) == OptimSpec()


# Every command that builds a patcher, with the arguments it needs besides the
# corpus and the patch flags; paths are relative to the test's directory.
PATCHER_COMMANDS = {
    "calibrate": [],
    "patch": ["--out", "b.tsv"],
    "train": ["--config", "cfg.json", "--corpus-eval", "heldout.txt", "--run-dir", "run"],
    "eval-bpb": ["--checkpoint", "ckpt.npz"],
    "check-incremental": ["--n-prefixes", "3"],
    "trace": ["--out", "trace.tsv"],
}


@pytest.fixture
def patcher_command_dir(tmp_path, monkeypatch, corpus_file):
    monkeypatch.chdir(tmp_path)
    train_counts(load_corpus(corpus_file), order=3).save(tmp_path / "ent.bin")
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"model": TINY_MODEL, "optimizer": {"warmup_steps": 1},
         "training": {"steps": 2, "patch_budget": 16}}))
    (tmp_path / "heldout.txt").write_text(textgen.synthetic_text(300, seed=10_000) + "\n")
    save_tiny_checkpoint(tmp_path / "ckpt.npz")
    return ["--corpus", str(corpus_file), "--entropy-model", "ent.bin"]


@pytest.mark.parametrize("scheme", ["entropy_global", "entropy_monotonic"])
def test_every_patcher_command_calibrates_the_same_threshold(capsys, patcher_command_dir, scheme):
    (name,) = ENTROPY_THRESHOLDS[scheme]
    reports = {}
    for command, extra in PATCHER_COMMANDS.items():
        code, out = run(capsys, command, "--json", *patcher_command_dir, *extra,
                        "--scheme", scheme, "--target-patch-size", "4.5")
        assert code == 0, command
        reports[command] = json.loads(out)
    # a trained run records the calibrated threshold, and evaluating it by its
    # config.json calibrates that threshold again on the eval corpus
    reports["train report.json"] = json.loads(Path("run/report.json").read_text())
    code, out = run(capsys, "eval-bpb", "--json", *patcher_command_dir, "--config",
                    "run/config.json", "--checkpoint", "run/ckpt_final.npz")
    assert code == 0
    reports["eval-bpb --config"] = json.loads(out)
    thetas = {command: report["patching"][name] for command, report in reports.items()}
    assert thetas == dict.fromkeys(thetas, reports["calibrate"]["theta"])


@pytest.mark.parametrize("scheme", ["entropy_or", "strided", "space", "bpe"])
def test_target_patch_size_without_one_threshold_is_a_config_error(capsys, patcher_command_dir,
                                                                   scheme):
    for command, extra in PATCHER_COMMANDS.items():
        code = main([command, *patcher_command_dir, *extra, "--scheme", scheme,
                     "--target-patch-size", "4.5"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, command
        assert err.startswith("config error") and "Traceback" not in err, command
        assert not Path("run").exists(), command  # a failed train leaves no run directory


@pytest.mark.parametrize("scheme", ["entropy_global", "entropy_monotonic"])
def test_threshold_given_next_to_a_target_is_a_config_error(capsys, patcher_command_dir, scheme):
    (name,) = ENTROPY_THRESHOLDS[scheme]
    flag = {"theta_g": "--theta", "theta_r": "--theta-r"}[name]
    for command, extra in PATCHER_COMMANDS.items():
        code = main([command, *patcher_command_dir, *extra, "--scheme", scheme,
                     flag, "0.5", "--target-patch-size", "4.5"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, command
        assert err.startswith("config error") and name in err, command
        assert not Path("run").exists(), command


def test_train_heldout_bpb_uses_eval_stream_bytes(tmp_path, capsys, corpus_file):
    heldout = tmp_path / "heldout.txt"
    heldout.write_text("\n".join(textgen.synthetic_text(300, seed=10_000 + i) for i in range(3)))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": TINY_MODEL, "patching": {"scheme": "strided", "k": 4},
                                    "optimizer": {"warmup_steps": 1},
                                    "training": {"steps": 2, "patch_budget": 16,
                                                 "eval_stream_bytes": 64}}))
    run_dir = tmp_path / "run"
    code, _ = run(capsys, "train", "--config", str(cfg_path), "--corpus", str(corpus_file),
                  "--corpus-eval", str(heldout), "--run-dir", str(run_dir))
    assert code == 0
    reported = json.loads((run_dir / "report.json").read_text())["evals"][-1]["bpb"]["heldout"]
    ck = load_checkpoint(run_dir / "ckpt_final.npz")
    docs = [d.data for d in load_corpus(heldout)]

    def heldout_bpb(stream_bytes):
        return eval_bpb(ck["params"], ck["config"], {"heldout": docs},
                        lambda d: patch_strided(len(d), 4), stream_bytes).bpb["heldout"]

    assert reported == heldout_bpb(64) != heldout_bpb(4096)
