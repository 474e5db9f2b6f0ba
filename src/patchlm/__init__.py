"""Byte-level language modeling on dynamically patched byte streams.

The package is organized as a small numpy library:

- ``errors``: the three failures a command reports, one per exit code
- ``corpus``: document loading and character-level noising
- ``textgen``: deterministic English-like sample text (no external datasets)
- ``entropy_lm``: count-based byte language model and per-position entropy traces
- ``patching``: patch boundary schemes, threshold calibration, incrementality checks
- ``bpe``: minimal byte-pair encoder used as a non-incremental baseline
- ``ngram_hash``: rolling polynomial hashing of byte n-grams into bucket ids
- ``tensor``: minimal reverse-mode autodiff over numpy arrays
- ``model``: byte encoder / latent patch transformer / byte decoder
- ``trainer``: AdamW loop, checkpointing, bits-per-byte evaluation
- ``flops``: exact FLOP accounting and inference-budget size matching
- ``runconfig``: declarative run configuration with defaults from the dataclasses
- ``cli``: batch command-line front end
"""

__version__ = "0.1.0"
