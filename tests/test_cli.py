import json
from dataclasses import asdict

import pytest

from patchlm import textgen
from patchlm.cli import EXIT_CONFIG, EXIT_DATA, main
from patchlm.model import ModelConfig
from patchlm.patching import PatchingConfig
from patchlm.runconfig import ConfigError, RunConfig
from patchlm.trainer import OptimSpec


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
