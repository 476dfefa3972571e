"""Flat key-value experiment configuration with a stable content hash.

Grammar: one ``key = value`` pair per line; blank lines and ``#`` comments
are ignored.  :class:`ExperimentConfig`'s fields are the schema: a value is
typed like its field's default.  Every key but ``experiment`` is also a CLI
flag ``--key-with-dashes`` that overrides the file.  The canonical
serialization (sorted keys, repr-formatted values) is hashed with SHA-256
and embedded in every output file, so any report can be traced back to the
exact configuration that produced it.

Keys
----
experiment   stability_scaling | risk_decomposition | lecam_audit |
             lemma_audit | bounds_table  (the CLI's subcommand)
methods      comma list of gd, sgd, nag, nag_sc, hb, sgld
source       synthetic | file
data_path    breast-cancer style CSV (source = file)
n, d, T      sample size, dimension, iteration horizon
subsample    size of the fixed sample S drawn from a loaded file
holdout      held-out pool size (replacement draws and sup-gap estimation)
reps         independent perturbation repeats
seed         master seed
eta0         base step size;  schedule = fixed | power;  alpha = power exponent
gamma        heavy ball momentum;  tau = sgld temperature;  kappa = nag_sc
n_test       test-set size (risk_decomposition)
ref_budget   reference-minimizer budget in steps (risk_decomposition)
out          output directory
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Optional, Tuple

from ..losses import ValidationError

EXPERIMENTS = ("stability_scaling", "risk_decomposition", "lecam_audit",
               "lemma_audit", "bounds_table")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "stability_scaling"
    methods: Tuple[str, ...] = ("gd",)
    source: str = "synthetic"
    data_path: Optional[str] = None
    n: int = 500
    d: int = 10
    T: int = 1000
    subsample: int = 500
    holdout: int = 100
    reps: int = 50
    seed: int = 0
    eta0: float = 0.1
    schedule: str = "fixed"
    alpha: float = 0.5
    gamma: float = 0.8
    tau: float = 1.0
    kappa: float = 4.0
    n_test: int = 2000
    ref_budget: int = 0
    out: str = "out"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValidationError(f"unknown experiment {self.experiment!r}")
        if self.schedule not in ("fixed", "power"):
            raise ValidationError(f"unknown schedule {self.schedule!r}")
        if self.source not in ("synthetic", "file"):
            raise ValidationError(f"unknown source {self.source!r}")
        if not self.methods and self.experiment in ("stability_scaling", "risk_decomposition"):
            raise ValidationError(f"{self.experiment} needs at least one method")


_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def parse_config_text(text: str) -> dict:
    """Parse the flat key-value grammar into a typed dict."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = parse_value(key, value)
    return out


def parse_value(key: str, value: str):
    """Type a file value or CLI flag like its key's default (tuple: comma list)."""
    kind = type(_DEFAULTS.get(key))
    try:
        if kind is int:
            return int(value)
        if kind is float:
            return float(value)
        if kind is tuple:
            return tuple(tok.strip() for tok in value.split(",") if tok.strip())
    except ValueError as exc:
        raise ValidationError(f"config key {key!r}: bad value {value!r}") from exc
    return value


def build_config(file_values: Optional[dict] = None,
                 overrides: Optional[dict] = None) -> ExperimentConfig:
    """Merge file keys and CLI overrides (overrides win) into a config."""
    merged = dict(file_values or {})
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(merged) - known
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**merged)


def load_config(path: str, overrides: Optional[dict] = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return build_config(parse_config_text(fh.read()), overrides)


def canonical_text(config: ExperimentConfig) -> str:
    """Sorted, repr-formatted key=value serialization (the hash input).

    The output directory is excluded: it has no effect on results, and two
    runs of one experiment must hash identically wherever they land.
    """
    lines = []
    for f in sorted(fields(config), key=lambda f: f.name):
        if f.name == "out":
            continue
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = ",".join(value)
        lines.append(f"{f.name}={value!r}")
    return "\n".join(lines) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_text(config).encode("utf-8")).hexdigest()[:16]
