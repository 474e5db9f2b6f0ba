"""Declarative run configuration: one document drives every command.

Unknown keys are rejected (typos should fail loudly), CLI flags override file
values, and the fully resolved config plus its content hash are written into
every run directory so artifacts are traceable. The ``model``, ``patching``
and ``optimizer`` defaults are those of ``ModelConfig``, ``PatchingConfig``
and ``OptimSpec``, so each default lives in one place. Input and output
locations are not config keys: ``--corpus``, ``--corpus-eval``, ``--format``
and ``--run-root`` name them.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import asdict
from pathlib import Path

from .model import ModelConfig
from .patching import PatchingConfig
from .trainer import OptimSpec


class ConfigError(Exception):
    pass


DEFAULTS: dict = {
    "run": {"seed": 0},
    "rng_algo": "pcg64",
    "data": {
        "synthetic_bytes": 0,  # generate a corpus when no --corpus is given
        "synthetic_doc_bytes": 512,
        "eval_fraction": 0.05,
    },
    "model": ModelConfig().to_dict(),
    # target_patch_size, when set, calibrates the scheme's threshold (patching.calibrated_config)
    "patching": {**asdict(PatchingConfig()), "target_patch_size": None},
    "entropy_model": {"order": 3, "alpha": 0.01, "path": None},
    "optimizer": asdict(OptimSpec()),
    "training": {
        "steps": 1000,
        "patch_budget": 128,
        "eval_every": 0,
        "checkpoint_every": 0,
        "eval_stream_bytes": 4096,
    },
}


def _strip_meta(values: dict) -> dict:
    """Drop underscore-prefixed keys (hash annotations written by `write`)."""
    return {k: (_strip_meta(v) if isinstance(v, dict) else v)
            for k, v in values.items() if not k.startswith("_")}


def _check_keys(given: dict, allowed: dict, path: str = "") -> None:
    for key, val in given.items():
        if key not in allowed:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(allowed[key], dict) and isinstance(val, dict):
            _check_keys(val, allowed[key], path + key + ".")


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


class RunConfig:
    def __init__(self, values: dict):
        _check_keys(values, DEFAULTS)
        self.values = _deep_merge(DEFAULTS, values)
        if self.values["rng_algo"] != "pcg64":
            raise ConfigError(f"unsupported rng_algo {self.values['rng_algo']!r}; this build pins pcg64")

    @classmethod
    def load(cls, path: str | Path | None, overrides: dict | None = None) -> "RunConfig":
        values: dict = {}
        if path:
            p = Path(path)
            if not p.exists():
                raise ConfigError(f"config file not found: {p}")
            try:
                values = json.loads(p.read_text())
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
            if not isinstance(values, dict):
                raise ConfigError("config root must be a JSON object")
            values = _strip_meta(values)
        if overrides:
            _check_keys(overrides, DEFAULTS)
            values = _deep_merge(values, overrides)
        return cls(values)

    def __getitem__(self, key: str):
        return self.values[key]

    def canonical_json(self) -> str:
        return json.dumps(self.values, sort_keys=True, separators=(",", ":"))

    @property
    def content_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def write(self, path: str | Path) -> None:
        doc = dict(self.values)
        doc["_content_hash"] = self.content_hash
        Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
