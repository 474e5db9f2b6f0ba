import hashlib
import json
import math
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
from patchlm import textgen, trainer
from patchlm.corpus import load_corpus
from patchlm.entropy_lm import train_counts
from patchlm.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, _overrides, build_parser, main
from patchlm.errors import ConfigError
from patchlm.model import ModelConfig, init_params
from patchlm.patching import ENTROPY_THRESHOLDS, PatchingConfig, Patcher, patch_strided
from patchlm.runconfig import DEFAULTS, RunConfig
from patchlm.trainer import (AdamState, Divergence, OptimSpec, PatchStreamLoader, eval_bpb,
                             load_checkpoint, save_checkpoint)


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("data") / "corpus.txt"
    lines = [textgen.synthetic_text(300, seed=i).replace("\n", " ") for i in range(400)]
    p.write_text("\n".join(lines) + "\n")
    return p


TINY_MODEL = {"enc_dim": 16, "global_dim": 32, "enc_layers": 1,
              "global_layers": 2, "dec_layers": 1, "enc_heads": 2, "global_heads": 2,
              "dec_heads": 2, "hash_vocab": 64, "enc_window": 16, "dec_window": 16}


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def save_tiny_checkpoint(path):
    """A tiny untrained checkpoint, with its run's config.json and a strided
    patcher saved next to it as a run would."""
    cfg = RunConfig({"model": TINY_MODEL})
    params = init_params(ModelConfig(**TINY_MODEL), seed=0)
    patcher = Patcher(PatchingConfig(scheme="strided"))
    loader = PatchStreamLoader([np.frombuffer(b"one document", np.uint8)], patcher, patch_budget=4)
    save_checkpoint(path, params, AdamState.init(params), loader, 0, cfg.content_hash,
                    Divergence())
    cfg.write(Path(path).parent / "config.json")
    patcher.save(Path(path).parent)


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
    bad_cfg.write_text('{"model": {"enc_heads": 3}}')
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


# config values that would otherwise be accepted and then misread
BAD_CONFIGS = {
    "eval_every_negative": {"training": {"eval_every": -1}},  # (step + 1) % -1 is always 0
    "patch_budget_0": {"training": {"patch_budget": 0}},  # the loader would reject it after work
    "checkpoint_every_negative": {"training": {"checkpoint_every": -1}},
    "eval_stream_bytes_0": {"training": {"eval_stream_bytes": 0}},
    "eval_stream_bytes_negative": {"training": {"eval_stream_bytes": -7}},
    "synthetic_bytes_negative": {"data": {"synthetic_bytes": -5}},
    "ngram_sizes_repeated": {"model": {"ngram_sizes": [3, 3]}},
}

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
    # the format that also held the model and optimizer settings of config.json
    "checkpoint_version_2": (["eval-bpb", "--corpus", "text.txt",
                              "--checkpoint", "version2.npz"], EXIT_DATA),
    # parameters that do not match the model of the run's config.json
    **{f"checkpoint_{bad}": (["eval-bpb", "--corpus", "text.txt", "--checkpoint", f"{bad}.npz"],
                             EXIT_DATA)
       for bad in ("out_proj_16x10", "no_out_norm")},
    "removed_key_dec_dim": (["flops", "--config", "dec_dim.json"], EXIT_CONFIG),
    **{f"entropy_model_{bad}": (["patch", "--corpus", "text.txt", "--entropy-model", f"{bad}.bin"],
                                EXIT_DATA)
       for bad in ("magic", "checksum", "version", "not_nested", "truncated", "order_200",
                   "order_0", "trailing_bytes", "pairs_reversed")},
    # on a corpus large enough to calibrate on, so only the contradiction fails
    "theta_and_target": (["patch", "--corpus", "big.txt", "--scheme", "entropy_global",
                          "--theta", "2.0", "--target-patch-size", "4.5"], EXIT_CONFIG),
    # checked before the (missing) corpus is read
    "run_dir_below_a_file": (["train", "--corpus", "missing.txt", "--run-dir", "text.txt/sub"],
                             EXIT_CONFIG),
    # before any work: the corpus is missing, which would exit 3
    **{name: (["train", "--corpus", "missing.txt", "--config", f"{name}.json"], EXIT_CONFIG)
       for name in BAD_CONFIGS if name != "synthetic_bytes_negative"},
    "synthetic_bytes_negative": (["train", "--config", "synthetic_bytes_negative.json"],
                                 EXIT_CONFIG),
}


def _write_bad_inputs(tmp_path, corpus_file):
    shutil.copy(corpus_file, tmp_path / "big.txt")
    (tmp_path / "text.txt").write_text("the cat sat on the mat\n")
    (tmp_path / "one.txt").write_bytes(b"x")
    (tmp_path / "alpha0.json").write_text(json.dumps({"entropy_model": {"alpha": 0}}))
    (tmp_path / "dec_dim.json").write_text(json.dumps({"model": {"dec_dim": 64}}))
    for name, values in BAD_CONFIGS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(values))
    (tmp_path / "magic.bin").write_bytes(b"not an entropy model file")
    good = tmp_path / "good.bin"
    train_counts([b"the cat sat on the mat"], order=2).save(good)
    raw = good.read_bytes()
    (tmp_path / "checksum.bin").write_bytes(raw[:-33] + bytes([raw[-33] ^ 1]) + raw[-32:])
    payload = raw[:8] + struct.pack("<H", 99) + raw[10:-32]  # version 99 under a valid checksum
    (tmp_path / "version.bin").write_bytes(payload + hashlib.sha256(payload).digest())
    # each under a valid checksum: half the payload, headers of order 200 and 0,
    # and the whole payload with zero bytes after its last level
    for name, payload in (("truncated", raw[:(len(raw) - 32) // 2]),
                          ("order_200", raw[:10] + bytes([200]) + raw[11:-32]),
                          ("order_0", raw[:10] + bytes([0]) + raw[11:-32]),
                          ("trailing_bytes", raw[:-32] + bytes(1000))):
        (tmp_path / f"{name}.bin").write_bytes(payload + hashlib.sha256(payload).digest())
    model = train_counts([b"abab"], order=1)
    model.levels[1].pair_next[:] = ord("z")  # length-1 pairs whose suffix pair was never counted
    model.save(tmp_path / "not_nested.bin")
    model = train_counts([b"the cat sat on the mat"], order=3)
    for pairs in (model.levels[3].pair_ctx, model.levels[3].pair_next, model.levels[3].pair_cnt):
        pairs[:] = pairs[::-1].copy()  # strictly decreasing in (context, next byte)
    model.save(tmp_path / "pairs_reversed.bin")
    save_tiny_checkpoint(tmp_path / "ckpt.npz")
    with np.load(tmp_path / "ckpt.npz") as z:
        arrays = dict(z)
    meta = json.loads(bytes(arrays["meta_json"]).decode())
    meta["version"] = 99
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode(), np.uint8)
    np.savez(tmp_path / "version99.npz", **arrays)
    del meta["divergence"]
    meta.update(version=2, config=TINY_MODEL, optim=asdict(OptimSpec()), loader_seed=None,
                rng="pcg64", params_meta={})
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode(), np.uint8)
    np.savez(tmp_path / "version2.npz", **arrays)
    with np.load(tmp_path / "ckpt.npz") as z:
        arrays = dict(z)
    np.savez(tmp_path / "out_proj_16x10.npz", **dict(arrays, **{"param/out_proj": np.zeros((16, 10))}))
    del arrays["param/out_norm"]
    np.savez(tmp_path / "no_out_norm.npz", **arrays)


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_with_code_and_no_traceback(tmp_path, corpus_file, case):
    _write_bad_inputs(tmp_path, corpus_file)
    argv, code = BAD_INPUTS[case]
    proc = run_module(tmp_path, *argv)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr and proc.stderr.strip()
    assert proc.stderr.startswith("data error" if code == EXIT_DATA else "config error")
    if case.startswith("checkpoint_version"):
        assert "format version" in proc.stderr


# run settings the config dataclasses reject: each must fail before the run directory exists
BAD_RUN_SETTINGS = {
    "lr_peak_nan": ("optimizer", "lr_peak", math.nan),
    "eps_inf": ("optimizer", "eps", math.inf),
    "grad_clip_nan": ("optimizer", "grad_clip", math.nan),
    "beta1_negative": ("optimizer", "beta1", -3),
    "beta2_1": ("optimizer", "beta2", 1.0),
    "weight_decay_negative": ("optimizer", "weight_decay", -5),
    "rope_theta_0": ("model", "rope_theta", 0),
    "rope_theta_nan": ("model", "rope_theta", math.nan),
    "alpha_inf": ("entropy_model", "alpha", math.inf),
}


@pytest.mark.parametrize("case", list(BAD_RUN_SETTINGS))
def test_bad_run_settings_exit_2_and_leave_no_run_dir(tmp_path, capsys, corpus_file, case):
    section, key, bad = BAD_RUN_SETTINGS[case]
    values = {"model": dict(TINY_MODEL), "optimizer": {"warmup_steps": 1},
              "training": {"steps": 2, "patch_budget": 16}}
    values.setdefault(section, {})[key] = bad
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(values))  # NaN and Infinity, as Python's json reads them
    run_dir = tmp_path / "run"
    code = main(["train", "--config", str(cfg_path), "--corpus", str(corpus_file),
                 "--run-dir", str(run_dir)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG and key in err, err
    assert not run_dir.exists()


def test_bpe_merges_flag_is_honoured(tmp_path, capsys, corpus_file):
    counts = {}
    for merges in ("0", "200"):
        code, out = run(capsys, "patch", "--json", "--corpus", str(corpus_file), "--scheme", "bpe",
                        "--bpe-merges", merges, "--out", str(tmp_path / "b.tsv"))
        assert code == 0
        counts[merges] = json.loads(out)
    assert counts["0"]["n_patches"] == counts["0"]["n_bytes"]  # no merges: one byte per patch
    assert counts["200"]["n_patches"] < counts["0"]["n_patches"]


def test_bpe_merges_config_key_is_the_flag(tmp_path, capsys, corpus_file):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"patching": {"bpe_merges": 0}}))
    reports = {}
    for argv in (["--config", str(cfg_path)], ["--bpe-merges", "0"]):
        code, out = run(capsys, "patch", "--json", "--corpus", str(corpus_file), "--scheme", "bpe",
                        "--out", str(tmp_path / "b.tsv"), *argv)
        assert code == 0
        reports[argv[0]] = json.loads(out)
    assert reports["--config"]["n_patches"] == reports["--bpe-merges"]["n_patches"]
    assert reports["--config"]["patching"]["bpe_merges"] == 0


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


def test_train_checks_the_run_dir_before_reading_the_corpus(tmp_path, capsys):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "config.json").write_text("{}")
    code = main(["train", "--run-dir", str(run_dir), "--corpus", str(tmp_path / "nonexistent.txt")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG and "run directory" in err


def test_train_on_overlapping_eval_documents_writes_nothing(tmp_path, capsys, corpus_file):
    run_dir = tmp_path / "run"
    code = main(["train", "--corpus", str(corpus_file), "--corpus-eval", str(corpus_file),
                 "--scheme", "strided", "--run-dir", str(run_dir)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG and "both train and eval" in err
    assert not run_dir.exists()


def test_eval_bpb_max_patch_is_the_patchers_alone(tmp_path, capsys, corpus_file):
    # 600-byte patches are past the default 512-byte maximum; --max-patch at
    # train lifts it for the run's patcher, and the model takes patches of any length
    long_doc = tmp_path / "long.txt"
    long_doc.write_text(textgen.synthetic_text(1800, seed=3).replace("\n", " ") + "\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": TINY_MODEL, "training": {"steps": 0}}))
    code, _ = run(capsys, "train", "--config", str(cfg_path), "--corpus", str(corpus_file),
                  "--corpus-eval", str(long_doc), "--run-dir", str(tmp_path / "run"),
                  "--scheme", "strided", "--k", "600", "--max-patch", "1024")
    assert code == 0
    code, out = run(capsys, "eval-bpb", "--json", "--corpus", str(long_doc),
                    "--checkpoint", str(tmp_path / "run" / "ckpt_final.npz"))
    assert code == 0
    doc = json.loads(out)
    assert doc["patching"]["max_patch_size"] == 1024 and doc["mean_patch_size"]["eval"] > 512


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


def test_train_records_the_entropy_model_file_in_config_json(tmp_path, capsys, corpus_file):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": TINY_MODEL, "optimizer": {"warmup_steps": 1},
                                    "training": {"steps": 2, "patch_budget": 16}}))
    docs = load_corpus(corpus_file, "plain-text")
    resolved = {}
    for order in (2, 3):
        train_counts(docs, order=order, alpha=0.25).save(tmp_path / f"ent{order}.bin")
        run_dir = tmp_path / f"run{order}"
        code, _ = run(capsys, "train", "--config", str(cfg_path), "--corpus", str(corpus_file),
                      "--run-dir", str(run_dir), "--theta", "2",
                      "--entropy-model", str(tmp_path / f"ent{order}.bin"))
        assert code == 0
        resolved[order] = json.loads((run_dir / "config.json").read_text())
        assert resolved[order]["entropy_model"] == {"order": order, "alpha": 0.25}
    assert resolved[2]["_content_hash"] != resolved[3]["_content_hash"]


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


# every settable key; adding or removing a setting is a deliberate edit here
CONFIG_KEYS = [
    "run.seed",
    "data.synthetic_bytes", "data.synthetic_doc_bytes", "data.eval_fraction",
    "model.enc_dim", "model.global_dim", "model.enc_layers", "model.global_layers",
    "model.dec_layers", "model.enc_heads", "model.global_heads", "model.dec_heads",
    "model.enc_window", "model.dec_window", "model.ff_mult", "model.rope_theta",
    "model.ngram_sizes", "model.hash_vocab",
    "patching.scheme", "patching.k", "patching.theta_g", "patching.theta_r",
    "patching.reset_on_newline", "patching.max_patch_size", "patching.bpe_merges",
    "patching.target_patch_size",
    "entropy_model.order", "entropy_model.alpha",
    "optimizer.lr_peak", "optimizer.warmup_steps", "optimizer.beta1", "optimizer.beta2",
    "optimizer.eps", "optimizer.weight_decay", "optimizer.grad_clip",
    "training.steps", "training.patch_budget", "training.eval_every",
    "training.checkpoint_every", "training.eval_stream_bytes",
]


def test_config_surface_is_pinned():
    def flat(section, prefix=""):
        for key, val in section.items():
            if isinstance(val, dict):
                yield from flat(val, f"{prefix}{key}.")
            else:
                yield prefix + key

    assert list(flat(DEFAULTS)) == CONFIG_KEYS
    assert len(CONFIG_KEYS) == 40


# every field of a checkpoint's meta: the state a continued run needs, and the
# hash of the config.json that holds its settings
CHECKPOINT_META = ["adam_t", "config_hash", "divergence", "loader_state", "skipped", "step",
                   "version"]


def test_checkpoint_meta_is_pinned(tmp_path):
    save_tiny_checkpoint(tmp_path / "ckpt.npz")
    with np.load(tmp_path / "ckpt.npz") as z:
        meta = json.loads(bytes(z["meta_json"]).decode())
    assert sorted(meta) == CHECKPOINT_META
    assert meta["divergence"] == {"initial_loss": None, "streak": 0}


PATCH_FLAGS = ["--scheme", "--k", "--theta", "--theta-r", "--target-patch-size", "--reset-newline",
               "--max-patch", "--entropy-model", "--order", "--bpe-merges"]
CORPUS_FLAGS = ["--json", "--log-level", "--config", "--seed", "--corpus", "--format"]

# every (subcommand, flag) pair; a command accepts only the flags it reads
CLI_FLAGS = {
    "train-entropy": [*CORPUS_FLAGS, "--order", "--out"],
    "calibrate": [*CORPUS_FLAGS, *PATCH_FLAGS],
    "patch": [*CORPUS_FLAGS, *PATCH_FLAGS, "--out"],
    "train": [*CORPUS_FLAGS, "--run-root", "--run-dir", "--force", *PATCH_FLAGS, "--corpus-eval"],
    "eval-bpb": ["--json", "--log-level", "--corpus", "--format", "--checkpoint", "--uniform"],
    "flops": ["--json", "--log-level", "--config", "--n-ctx", "--patch-size"],
    "size-match": ["--json", "--log-level", "--config", "--target", "--n-ctx", "--patch-size", "--tol"],
    "noise": ["--json", "--log-level", "--seed", "--strategy", "--rate", "--text", "--in", "--out"],
    "check-incremental": [*CORPUS_FLAGS, *PATCH_FLAGS, "--n-prefixes"],
    "trace": [*CORPUS_FLAGS, *PATCH_FLAGS, "--out"],
}


def test_cli_surface_is_pinned():
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    surface = {name: [flag for action in sp._actions for flag in action.option_strings
                      if flag not in ("-h", "--help")]
               for name, sp in sub.choices.items()}
    assert surface == CLI_FLAGS
    assert sum(len(flags) for flags in surface.values()) == 121


# each flag that overrides a config key: a command that takes it, its argv and
# the key and value it sets
OVERRIDE_FLAGS = [
    ("patch", ["--seed", "7"], "run.seed", 7),
    ("train-entropy", ["--order", "5"], "entropy_model.order", 5),
    ("patch", ["--scheme", "space"], "patching.scheme", "space"),
    ("patch", ["--k", "7"], "patching.k", 7),
    ("patch", ["--theta", "1.5"], "patching.theta_g", 1.5),
    ("patch", ["--theta-r", "0.25"], "patching.theta_r", 0.25),
    ("patch", ["--target-patch-size", "5.5"], "patching.target_patch_size", 5.5),
    ("patch", ["--reset-newline"], "patching.reset_on_newline", True),
    ("patch", ["--max-patch", "64"], "patching.max_patch_size", 64),
    ("patch", ["--bpe-merges", "17"], "patching.bpe_merges", 17),
    ("trace", ["--order", "2"], "entropy_model.order", 2),
]


def _lookup(doc: dict, key: str):
    for part in key.split("."):
        doc = doc[part]
    return doc


def test_the_override_flags_are_the_dests_that_name_a_config_key():
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    dests = {a.dest for sp in sub.choices.values() for a in sp._actions if "." in a.dest}
    assert dests == {key for _, _, key, _ in OVERRIDE_FLAGS}


@pytest.mark.parametrize("command, argv, key, value", OVERRIDE_FLAGS)
def test_each_override_flag_lands_under_its_config_key(tmp_path, command, argv, key, value):
    cfg = RunConfig.load(None, _overrides(build_parser().parse_args([command, *argv])))
    cfg.write(tmp_path / "config.json")  # as a run directory records it
    written = json.loads((tmp_path / "config.json").read_text())
    changed = [k for k in CONFIG_KEYS if _lookup(written, k) != _lookup(DEFAULTS, k)]
    assert changed == [key] and _lookup(written, key) == value


def _strict_json(text: str):
    """``text`` parsed as RFC 8259 JSON, which has no NaN or Infinity."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_values_that_do_not_exist_are_json_null(tmp_path, capsys, corpus_file):
    # the uniform predictor has no patcher, and a run of no steps has no final loss
    code, out = run(capsys, "eval-bpb", "--json", "--corpus", str(corpus_file), "--uniform")
    assert code == 0 and _strict_json(out)["mean_patch_size"] == {"eval": None}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": TINY_MODEL, "training": {"steps": 0}}))
    code, out = run(capsys, "train", "--json", "--config", str(cfg_path), "--corpus",
                    str(corpus_file), "--run-dir", str(tmp_path / "run"), "--scheme", "strided")
    assert code == 0
    for doc in (_strict_json(out), _strict_json((tmp_path / "run" / "report.json").read_text())):
        assert doc["steps"] == 0 and doc["final_loss_nats"] is None and doc["final_bpb"] is None
        assert doc["evals"][0]["steps"] == 0


def test_log_level_debug_shows_the_debug_lines(tmp_path):
    (tmp_path / "spaces.txt").write_bytes(b" \t  \n")
    argv = ["patch", "--corpus", "spaces.txt", "--scheme", "space"]
    line = "space patching: degenerate all space-like input of 4 bytes"
    quiet, debug = run_module(tmp_path, *argv), run_module(tmp_path, *argv, "--log-level", "DEBUG")
    assert quiet.returncode == debug.returncode == 0
    assert line not in quiet.stderr
    assert f"DEBUG patchlm.patching: {line}" in debug.stderr


@pytest.mark.parametrize("argv", [
    ["flops", "--corpus", "x"],
    ["size-match", "--target", "1e6", "--seed", "1"],
    ["noise", "--strategy", "drop", "--text", "a", "--config", "c.json"],
    ["patch", "--scheme", "strided", "--run-dir", "r"],
])
def test_a_flag_the_command_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err


def test_runconfig_defaults_are_the_dataclass_defaults():
    cfg = RunConfig({})
    assert cfg["model"] == ModelConfig().to_dict()
    assert ModelConfig(**cfg["model"]) == ModelConfig()
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
    "check-incremental": ["--n-prefixes", "3"],
    "trace": ["--out", "trace.tsv"],
}


@pytest.fixture
def patcher_command_dir(tmp_path, monkeypatch, corpus_file):
    monkeypatch.chdir(tmp_path)
    train_counts(load_corpus(corpus_file, "plain-text"), order=3).save(tmp_path / "ent.bin")
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"model": TINY_MODEL, "optimizer": {"warmup_steps": 1},
         "training": {"steps": 2, "patch_budget": 16}}))
    (tmp_path / "heldout.txt").write_text(textgen.synthetic_text(300, seed=10_000) + "\n")
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
    # a trained run records the calibrated threshold, and its checkpoint is
    # scored under the patcher the run saved, whatever corpus eval-bpb reads
    reports["train report.json"] = json.loads(Path("run/report.json").read_text())
    code, out = run(capsys, "eval-bpb", "--json", "--corpus", "heldout.txt",
                    "--checkpoint", "run/ckpt_final.npz")
    assert code == 0
    reports["eval-bpb"] = json.loads(out)
    thetas = {command: report["patching"][name] for command, report in reports.items()}
    assert thetas == dict.fromkeys(thetas, reports["calibrate"]["theta"])


def test_order_patches_as_a_saved_model_of_that_order_does(capsys, patcher_command_dir, corpus_file):
    # without --entropy-model, a command trains its count model at --order
    train_counts(load_corpus(corpus_file, "plain-text"), order=2).save("ent2.bin")
    for command, extra in PATCHER_COMMANDS.items():
        reports = []
        for source in (["--order", "2"], ["--entropy-model", "ent2.bin"]):
            code, out = run(capsys, command, "--json", "--corpus", str(corpus_file), *extra, *source,
                            "--scheme", "entropy_global", "--target-patch-size", "4.5",
                            *(["--force"] if command == "train" else []))
            assert code == 0, command
            reports.append(json.loads(out))
        assert reports[0] == reports[1], command


@pytest.mark.parametrize("command", list(PATCHER_COMMANDS))
def test_order_next_to_a_saved_entropy_model_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--entropy-model", "ent.bin", "--order", "2"])
    assert exc.value.code == EXIT_CONFIG
    assert "--order: not allowed with argument --entropy-model" in capsys.readouterr().err


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
    docs = load_corpus(heldout, "plain-text")

    def heldout_bpb(stream_bytes):
        return eval_bpb(ck["params"], ModelConfig(**TINY_MODEL), {"heldout": docs},
                        lambda d: patch_strided(len(d), 4), stream_bytes).bpb["heldout"]

    assert reported == heldout_bpb(64) != heldout_bpb(4096)


# settings of a run -> the train flags and the config's training keys that give them
RUN_PATCHERS = {
    "entropy_global": (["--scheme", "entropy_global", "--target-patch-size", "4"], {}),
    "strided": (["--scheme", "strided", "--k", "3"], {}),
    "bpe": (["--scheme", "bpe", "--bpe-merges", "50"], {}),
    "eval_stream_bytes_256": (["--scheme", "strided", "--k", "3"], {"eval_stream_bytes": 256}),
}


@pytest.mark.parametrize("scheme", list(RUN_PATCHERS))
def test_eval_bpb_reproduces_the_runs_heldout_bpb(tmp_path, capsys, corpus_file, scheme):
    # a held-out corpus far under the 1e5 bytes a calibration needs: the run's
    # own patcher is loaded, not fitted again to the documents it scores, and
    # its eval stream size is read from its config.json
    heldout = tmp_path / "heldout.txt"
    heldout.write_text("\n".join(textgen.synthetic_text(300, seed=20_000 + i).replace("\n", " ")
                                 for i in range(8)) + "\n")
    flags, training = RUN_PATCHERS[scheme]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": TINY_MODEL, "optimizer": {"warmup_steps": 1},
                                    "training": {"steps": 3, "patch_budget": 16, **training}}))
    run_dir = tmp_path / "run"
    code, _ = run(capsys, "train", "--config", str(cfg_path), "--corpus", str(corpus_file),
                  "--corpus-eval", str(heldout), "--run-dir", str(run_dir), *flags)
    assert code == 0
    assert (run_dir / "entropy.bin").exists() == (scheme in ENTROPY_THRESHOLDS)
    final = json.loads((run_dir / "report.json").read_text())["evals"][-1]
    code, out = run(capsys, "eval-bpb", "--json", "--corpus", str(heldout),
                    "--checkpoint", str(run_dir / "ckpt_final.npz"))
    assert code == 0
    doc = json.loads(out)
    assert doc["bpb"]["eval"] == final["bpb"]["heldout"]
    assert doc["mean_patch_size"]["eval"] == final["mean_patch_size"]["heldout"]


@pytest.mark.parametrize("damage", ["missing", "not_json", "unknown_key", "no_entropy_model"])
def test_checkpoint_without_a_readable_patcher_is_a_data_error(tmp_path, capsys, corpus_file,
                                                               damage):
    save_tiny_checkpoint(tmp_path / "ckpt.npz")
    saved = tmp_path / "patcher.json"
    if damage == "missing":
        saved.unlink()
    elif damage == "not_json":
        saved.write_text('{"patching": {"scheme": "str')
    elif damage == "unknown_key":
        saved.write_text(json.dumps({"patching": {"scheme": "strided", "stride": 4}, "merges": None}))
    else:  # an entropy scheme whose entropy.bin is gone
        saved.write_text(json.dumps({"patching": {"scheme": "entropy_global", "theta_g": 2.0},
                                     "merges": None}))
    code = main(["eval-bpb", "--corpus", str(corpus_file), "--checkpoint", str(tmp_path / "ckpt.npz")])
    err = capsys.readouterr().err
    assert code == EXIT_DATA and err.startswith("data error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("damage", ["missing", "not_json", "other_run"])
def test_checkpoint_without_its_runs_config_is_a_data_error(tmp_path, capsys, corpus_file, damage):
    save_tiny_checkpoint(tmp_path / "ckpt.npz")
    saved = tmp_path / "config.json"
    if damage == "missing":
        saved.unlink()
    elif damage == "not_json":
        saved.write_text('{"model": {"enc_dim": 1')
    else:  # a run that differs only in its seed
        RunConfig({"model": TINY_MODEL, "run": {"seed": 1}}).write(saved)
    code = main(["eval-bpb", "--corpus", str(corpus_file), "--checkpoint", str(tmp_path / "ckpt.npz")])
    err = capsys.readouterr().err
    assert code == EXIT_DATA and err.startswith("data error: ") and err.count("\n") == 1, err
    assert "config.json" in err


def test_noise_to_stdout_adds_no_second_newline(tmp_path, capsys):
    (tmp_path / "three.txt").write_text("the cat\nsat on\nthe mat\n")
    code, out = run(capsys, "noise", "--strategy", "antspeak", "--in", str(tmp_path / "three.txt"))
    assert code == 0 and out == "T H E C A T\nS A T O N\nT H E M A T\n"
    code, out = run(capsys, "noise", "--strategy", "upper_case", "--text", "cat")
    assert code == 0 and out == "CAT\n"


@pytest.mark.parametrize("strategy", ["upper_case", "antspeak"])
def test_noise_rate_where_it_is_not_read_is_a_config_error(capsys, strategy):
    code = main(["noise", "--strategy", strategy, "--rate", "0.5", "--text", "cat"])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG and "reads no rate" in err


# -- bad input at every edge --------------------------------------------------

# command -> (arguments besides the crossed path, the crossed path's flag, a
# bad number, or for eval-bpb, which reads none, a contradicting flag); an
# argument naming a file of the inputs directory is read from there, and
# outputs land in each case's own directory
EDGE_COMMANDS = {
    "train-entropy": (["--out", "e.bin"], "--corpus", ["--order", "0"]),
    "calibrate": (["--scheme", "entropy_global", "--target-patch-size", "4"], "--corpus",
                  ["--max-patch", "0"]),
    "patch": (["--scheme", "strided", "--out", "b.tsv"], "--corpus", ["--k", "0"]),
    "patch --entropy-model": (["--corpus", "text.txt", "--theta", "2", "--out", "b.tsv"],
                              "--entropy-model", ["--theta", "nan"]),
    "train": (["--config", "cfg.json", "--scheme", "strided", "--run-dir", "run"], "--corpus",
              ["--max-patch", "0"]),
    "train --corpus-eval": (["--config", "cfg.json", "--corpus", "text.txt", "--scheme", "strided",
                             "--run-dir", "run"], "--corpus-eval", ["--k", "0"]),
    "eval-bpb": (["--checkpoint", "ckpt.npz"], "--corpus", ["--uniform"]),
    "eval-bpb --checkpoint": (["--corpus", "text.txt"], "--checkpoint", ["--uniform"]),
    "flops": ([], "--config", ["--patch-size", "nan"]),
    "size-match": (["--target", "1e6"], "--config", ["--tol", "-1"]),
    "noise": (["--strategy", "drop", "--out", "n.txt"], "--in", ["--rate", "2"]),
    "check-incremental": (["--scheme", "strided"], "--corpus", ["--n-prefixes", "-5"]),
    "trace": (["--scheme", "strided", "--out", "t.tsv"], "--corpus", ["--theta", "-1"]),
}

# the file each command reads at the crossed flag when the number is the bad input
GOOD_PATH = {"--corpus": "text.txt", "--corpus-eval": "heldout.txt", "--entropy-model": "ent.bin",
             "--checkpoint": "ckpt.npz", "--config": "cfg.json", "--in": "text.txt"}
BAD_PATHS = {"empty": "empty.bin", "one_byte": "one.bin", "random_binary": "random.bin",
             "missing": "missing.bin", "directory": "a_directory"}
PREFIX = {EXIT_CONFIG: "config error: ", EXIT_DATA: "data error: ", EXIT_NUMERIC: "numeric failure: "}


@pytest.fixture(scope="module")
def edge_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    text = "\n".join(textgen.synthetic_text(120, seed=i).replace("\n", " ") for i in range(12))
    (d / "text.txt").write_text(text + "\n")
    (d / "heldout.txt").write_text(textgen.synthetic_text(200, seed=99).replace("\n", " ") + "\n")
    (d / "cfg.json").write_text(json.dumps({"model": TINY_MODEL, "optimizer": {"warmup_steps": 1},
                                            "training": {"steps": 2, "patch_budget": 16}}))
    train_counts(load_corpus(d / "text.txt", "plain-text"), order=2).save(d / "ent.bin")
    save_tiny_checkpoint(d / "ckpt.npz")
    (d / "empty.bin").write_bytes(b"")
    (d / "one.bin").write_bytes(b"x")
    (d / "random.bin").write_bytes(np.random.default_rng(0).integers(0, 256, 2000, np.uint8).tobytes())
    (d / "a_directory").mkdir()
    return d


@pytest.mark.parametrize("bad", [*BAD_PATHS, "out_of_range"])
@pytest.mark.parametrize("command", list(EDGE_COMMANDS))
def test_bad_input_at_every_edge_exits_with_one_line(tmp_path, monkeypatch, capsys, edge_inputs,
                                                     command, bad):
    args, flag, bad_number = EDGE_COMMANDS[command]
    monkeypatch.chdir(tmp_path)  # outputs land here
    path = GOOD_PATH[flag] if bad == "out_of_range" else BAD_PATHS[bad]
    argv = [command.split()[0], *[str(edge_inputs / a) if (edge_inputs / a).exists() else a
                                  for a in args], flag, str(edge_inputs / path)]
    if bad == "out_of_range":
        argv += bad_number
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC), err
    if code:
        assert err.startswith(PREFIX[code]) and err.count("\n") == 1, err
    if bad in ("missing", "directory", "out_of_range"):
        assert code == (EXIT_CONFIG if bad == "out_of_range" or flag == "--config" else EXIT_DATA), err


def test_a_library_value_error_escapes_main(tmp_path, monkeypatch, corpus_file):
    # a ValueError from inside the model is a bug: it must show its traceback,
    # not read as a config error
    def broken_forward(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(trainer, "lm_forward", broken_forward)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": TINY_MODEL, "optimizer": {"warmup_steps": 1},
                                    "training": {"steps": 2, "patch_budget": 16}}))
    save_tiny_checkpoint(tmp_path / "ckpt.npz")
    with pytest.raises(ValueError, match="injected"):
        main(["train", "--config", str(cfg_path), "--corpus", str(corpus_file),
              "--scheme", "strided", "--run-dir", str(tmp_path / "run")])
    with pytest.raises(ValueError, match="injected"):
        main(["eval-bpb", "--corpus", str(corpus_file), "--checkpoint", str(tmp_path / "ckpt.npz")])


def test_default_warmup_is_shorter_than_the_default_run():
    assert OptimSpec().warmup_steps < DEFAULTS["training"]["steps"]


# patching and count-model settings that RunConfig rejects as it loads:
# (command and flags, config, what the message names)
BAD_PATCH_SETTINGS = {
    "alpha_0": (["patch"], {"entropy_model": {"alpha": 0}}, "alpha"),
    "order_9": (["patch"], {"entropy_model": {"order": 9}}, "order"),
    "max_patch_size_0": (["patch"], {"patching": {"max_patch_size": 0}}, "max_patch_size"),
    "bpe_merges_negative": (["patch"], {"patching": {"bpe_merges": -1}}, "bpe_merges"),
    "k_0": (["patch"], {"patching": {"k": 0}}, "k must be"),
    "target_0.5": (["calibrate", "--target-patch-size", "0.5"], {}, "target patch size"),
    "target_100": (["calibrate", "--target-patch-size", "100"], {}, "target patch size"),
    "train_max_patch_size_0": (["train"], {"patching": {"max_patch_size": 0}}, "max_patch_size"),
}


@pytest.mark.parametrize("case", list(BAD_PATCH_SETTINGS))
def test_bad_patching_settings_exit_2_before_the_corpus_is_read(tmp_path, capsys, case):
    argv, values, named = BAD_PATCH_SETTINGS[case]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(values))
    code = main([*argv, "--config", str(cfg_path), "--corpus", str(tmp_path / "missing.txt")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG and named in err, err


# model and optimizer settings that RunConfig rejects as it loads: (config, what
# the message names); every command that takes --config, with a missing corpus
# where it reads one
BAD_MODEL_SETTINGS = {
    "enc_heads_3": ({"model": {"enc_heads": 3}}, "enc_heads"),
    "rope_theta_0": ({"model": {"rope_theta": 0}}, "rope_theta"),
    "lr_peak_negative": ({"optimizer": {"lr_peak": -1}}, "optimizer.lr_peak"),
    "beta2_1": ({"optimizer": {"beta2": 1}}, "optimizer.beta2"),
}
CONFIG_COMMANDS = {
    "train-entropy": ["--corpus", "missing.txt"],
    "calibrate": ["--corpus", "missing.txt", "--target-patch-size", "4"],
    "patch": ["--corpus", "missing.txt", "--scheme", "strided"],
    "train": ["--corpus", "missing.txt", "--scheme", "strided", "--run-dir", "run"],
    "check-incremental": ["--corpus", "missing.txt", "--scheme", "strided"],
    "trace": ["--corpus", "missing.txt", "--scheme", "strided"],
    "flops": [],
    "size-match": ["--target", "1e6"],
}


def test_config_commands_are_every_command_that_takes_config():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    takes = {name for name, sp in sub.choices.items()
             if any("--config" in a.option_strings for a in sp._actions)}
    assert takes == set(CONFIG_COMMANDS)


@pytest.mark.parametrize("command", list(CONFIG_COMMANDS))
@pytest.mark.parametrize("case", list(BAD_MODEL_SETTINGS))
def test_bad_model_and_optimizer_settings_exit_2_before_any_input_is_read(
        tmp_path, monkeypatch, capsys, case, command):
    monkeypatch.chdir(tmp_path)
    values, named = BAD_MODEL_SETTINGS[case]
    Path("cfg.json").write_text(json.dumps(values))
    code = main([command, *CONFIG_COMMANDS[command], "--config", "cfg.json"])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG and err.startswith("config error: ") and named in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("values, key", [
    ({"optimizer": {"warmup_steps": 5}, "training": {"steps": 5}}, "warmup_steps"),
    ({"training": {"steps": "ten"}}, "training.steps"),
    ({"data": {"eval_fraction": 2.0}}, "data.eval_fraction"),
])
def test_train_config_error_writes_no_run_dir(tmp_path, capsys, corpus_file, values, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(values))
    code = main(["train", "--config", str(cfg_path), "--corpus", str(corpus_file),
                 "--scheme", "strided", "--run-dir", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG and key in err, err
    assert not (tmp_path / "run").exists()


# each command that writes --out, with arguments whose input is missing: a
# bad --out must fail before that input is read
OUT_COMMANDS = {
    "train-entropy": ["--corpus", "missing.txt"],
    "patch": ["--corpus", "missing.txt", "--scheme", "strided"],
    "trace": ["--corpus", "missing.txt", "--scheme", "strided"],
    "noise": ["--strategy", "drop", "--in", "missing.txt"],
}


@pytest.mark.parametrize("out", ["a_directory", "nodir/o.txt", "notes.txt/o.txt"])
@pytest.mark.parametrize("command", list(OUT_COMMANDS))
def test_bad_out_path_is_a_config_error_before_any_work(tmp_path, monkeypatch, capsys, command, out):
    monkeypatch.chdir(tmp_path)
    Path("a_directory").mkdir()
    Path("notes.txt").write_bytes(b"keep me\n")
    code = main([command, *OUT_COMMANDS[command], "--out", out])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG and err.startswith(f"config error: --out {out}"), err
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a_directory", "notes.txt"]


def test_train_eval_slice_with_nothing_to_predict_writes_no_run_dir(tmp_path, capsys, corpus_file):
    heldout = tmp_path / "heldout.txt"
    heldout.write_bytes(b"a\nb\n")  # 1-byte documents: no byte has a predecessor
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": TINY_MODEL, "optimizer": {"warmup_steps": 1},
                                    "training": {"steps": 2, "patch_budget": 16}}))
    code = main(["train", "--config", str(cfg_path), "--corpus", str(corpus_file),
                 "--corpus-eval", str(heldout), "--scheme", "strided",
                 "--run-dir", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == EXIT_DATA and "no predictable bytes" in err, err
    assert not (tmp_path / "run").exists()


def test_check_incremental_reads_the_config_seed(tmp_path, capsys, corpus_file):
    small = tmp_path / "small.txt"
    small.write_text("".join(corpus_file.read_text().splitlines(keepends=True)[:40]))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"run": {"seed": 7}}))
    reports = {}
    for argv in (["--config", str(cfg_path)], ["--seed", "7"], []):
        code, out = run(capsys, "check-incremental", "--json", "--corpus", str(small),
                        "--scheme", "bpe", "--n-prefixes", "50", *argv)
        assert code == 0
        reports[" ".join(argv[:1])] = json.loads(out)["violations"]
    assert reports["--config"] == reports["--seed"] != reports[""]


def test_run_dir_naming_a_file_is_a_config_error(tmp_path, capsys, corpus_file):
    target = tmp_path / "notes.txt"
    target.write_bytes(b"keep me\n")
    code = main(["train", "--corpus", str(corpus_file), "--scheme", "strided",
                 "--run-dir", str(target)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG and "run directory" in err
    assert target.read_bytes() == b"keep me\n"


@pytest.mark.parametrize("values, key", [
    ({"model": {"enc_dim": "64"}}, "model.enc_dim"),
    ({"model": {"hash_vocab": True}}, "model.hash_vocab"),
    ({"model": {"ngram_sizes": [3, "4"]}}, "model.ngram_sizes"),
    ({"patching": {"reset_on_newline": 1}}, "patching.reset_on_newline"),
    ({"patching": {"theta_g": "2"}}, "patching.theta_g"),
    ({"entropy_model": {"path": 3}}, "entropy_model.path"),
    ({"optimizer": {"lr_peak": None}}, "optimizer.lr_peak"),
    ({"training": 5}, "training"),
    ({"data": {"synthetic_doc_bytes": 0}}, "data.synthetic_doc_bytes"),
    ({"data": {"eval_fraction": -0.1}}, "data.eval_fraction"),
    ({"run": {"seed": -1}}, "run.seed"),
])
def test_config_values_are_checked_by_type_and_range(values, key):
    with pytest.raises(ConfigError, match=f"'{key}'"):
        RunConfig(values)


def test_config_accepts_an_int_for_a_float_and_a_value_for_a_null():
    cfg = RunConfig({"optimizer": {"lr_peak": 1}, "patching": {"theta_g": 2},
                     "data": {"eval_fraction": 0}})
    assert cfg["optimizer"]["lr_peak"] == 1 and cfg["patching"]["theta_g"] == 2
