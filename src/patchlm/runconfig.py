"""Declarative run configuration: one document drives every command.

Unknown keys are rejected (typos should fail loudly), CLI flags override file
values, and the fully resolved config plus its content hash are written into
every run directory so artifacts are traceable. The ``model``, ``patching``
and ``optimizer`` defaults are those of ``ModelConfig``, ``PatchingConfig``
and ``OptimSpec``, and ``entropy_model.alpha`` and ``training.eval_stream_bytes``
are ``entropy_lm.DEFAULT_ALPHA`` and ``trainer.EVAL_STREAM_BYTES``, so each
default lives in one place. Loading builds ``model``, ``optim`` and ``patching``
from their sections, so every command rejects a bad setting before it reads
any input. Input and output locations are not config keys:
``--corpus``, ``--corpus-eval``, ``--entropy-model``, ``--format`` and
``--run-root`` name them.

A setting with one legal value is not a key. Every generator is pcg64, the
learning-rate schedule is warmup then cosine to zero (``trainer.lr_at``), and
the hash n-gram multiplier is BLT's fixed 10-digit prime
(``ngram_hash.DEFAULT_HASH_PRIME``). The maximum patch size is
``patching.max_patch_size`` alone.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import asdict
from math import inf
from pathlib import Path

from .entropy_lm import DEFAULT_ALPHA, check_count_model
from .errors import ConfigError, read_input
from .model import ModelConfig
from .patching import PatchingConfig, check_target
from .trainer import EVAL_STREAM_BYTES, OptimSpec

DEFAULTS: dict = {
    "run": {"seed": 0},
    "data": {
        "synthetic_bytes": 0,  # generate a corpus when no --corpus is given
        "synthetic_doc_bytes": 512,
        "eval_fraction": 0.05,
    },
    "model": ModelConfig().to_dict(),
    # target_patch_size, when set, calibrates the scheme's threshold (patching.calibrated_config)
    "patching": {**asdict(PatchingConfig()), "target_patch_size": None},
    "entropy_model": {"order": 3, "alpha": DEFAULT_ALPHA},
    "optimizer": asdict(OptimSpec()),
    "training": {
        "steps": 1000,
        "patch_budget": 128,
        "eval_every": 0,
        "checkpoint_every": 0,
        "eval_stream_bytes": EVAL_STREAM_BYTES,
    },
}


def _strip_meta(values: dict) -> dict:
    """Drop underscore-prefixed keys (hash annotations written by `write`)."""
    return {k: (_strip_meta(v) if isinstance(v, dict) else v)
            for k, v in values.items() if not k.startswith("_")}


# [low, high) of the keys whose readers do not check them, or check them only
# after the corpus is read
_RANGES = {"run.seed": (0, inf), "data.synthetic_bytes": (0, inf),
           "data.synthetic_doc_bytes": (1, inf), "data.eval_fraction": (0, 1),
           "training.steps": (0, inf), "training.patch_budget": (1, inf),
           "training.eval_every": (0, inf), "training.checkpoint_every": (0, inf),
           "training.eval_stream_bytes": (1, inf)}


def _type_ok(val, default) -> bool:
    """Whether ``val`` has the JSON type of ``default``; an int passes for a float,
    and a ``null`` default takes a number."""
    if default is None:
        return val is None or (isinstance(val, (int, float)) and not isinstance(val, bool))
    want = (int, float) if type(default) is float else type(default)
    if not isinstance(val, want) or isinstance(val, bool) != isinstance(default, bool):
        return False
    return not isinstance(val, list) or all(_type_ok(v, default[0]) for v in val)


def _check_keys(given: dict, allowed: dict, path: str = "") -> None:
    for key, val in given.items():
        name = path + key
        if key not in allowed:
            raise ConfigError(f"unknown config key {name!r}")
        if isinstance(allowed[key], dict) and isinstance(val, dict):
            _check_keys(val, allowed[key], name + ".")
        elif not _type_ok(val, allowed[key]):
            raise ConfigError(f"config key {name!r} has the wrong type: {val!r} "
                              f"(default {allowed[key]!r})")
        elif name in _RANGES and not _RANGES[name][0] <= val < _RANGES[name][1]:  # NaN fails
            raise ConfigError(f"config key {name!r} must be in [{_RANGES[name][0]}, "
                              f"{_RANGES[name][1]}), got {val}")


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
        # a bad model, optimizer, patching or count-model setting fails here,
        # before any input is read
        self.model = ModelConfig(**self.values["model"])
        self.optim = OptimSpec(**self.values["optimizer"])
        settings = dict(self.values["patching"])
        check_target(settings.pop("target_patch_size"))
        self.patching = PatchingConfig(**settings)
        check_count_model(**self.values["entropy_model"])

    @classmethod
    def load(cls, path: str | Path | None, overrides: dict | None = None) -> "RunConfig":
        values: dict = {}
        if path:
            raw = read_input(path, ConfigError)
            try:
                values = json.loads(raw)
            except ValueError as exc:  # JSON or UTF-8 decoding
                raise ConfigError(f"config is not valid JSON: {exc}") from None
            if not isinstance(values, dict):
                raise ConfigError("config root must be a JSON object")
            values = _strip_meta(values)
        if overrides:
            _check_keys(overrides, DEFAULTS)
            values = _deep_merge(values, overrides)
        return cls(values)

    def __getitem__(self, key: str):
        return self.values[key]

    @property
    def content_hash(self) -> str:
        canonical = json.dumps(self.values, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def write(self, path: str | Path) -> None:
        doc = dict(self.values)
        doc["_content_hash"] = self.content_hash
        Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
