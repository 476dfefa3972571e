"""Flat key-value experiment configuration with a stable content hash.

Grammar: one ``key = value`` pair per line, each key at most once; blank lines
and ``#`` comments are ignored.  :class:`ExperimentConfig`'s fields are the
schema: every value, from a file, a flag or Python, is typed like its field's
default in one place (:func:`parse_value`), so equal configs hash alike; a float
must be finite.  Every key but ``experiment`` (the subcommand's) is also a CLI
flag ``--key-with-dashes`` that overrides the file.  The canonical serialization
(sorted keys, repr-formatted values) is hashed with SHA-256 and embedded in every
output file, so any report can be traced back to the exact configuration that
produced it.

Keys
----
``EXPERIMENTS`` is the one table of experiments: each one's CLI subcommand and
the keys it reads, marked below s (stability_scaling), r (risk_decomposition)
and b (bounds_table); lecam_audit and lemma_audit read none.  A key set off its
default where its experiment does not read it is rejected by name (it would
change the hash and nothing else); seed and out are legal everywhere, though
lecam_audit and bounds_table draw nothing and only record seed.  In s and r,
gamma, kappa and tau need hb, nag_sc and sgld, schedule and alpha (power only)
a method other than sgld.

experiment     a key of EXPERIMENTS (the CLI's subcommand sets it)
methods    sr  comma list of gd, sgd, nag, nag_sc, hb, sgld, each at most once
n          srb size of S (>= 1)
d, T       sr  dimension of the generated rows (>= 1), iteration horizon (>= 0)
holdout    s   held-out pool size (>= 1; replacement draws and sup-gap estimation)
reps       s   independent perturbation repeats (>= 1)
seed           master seed (>= 0) of every random stream (optstab.streams)
eta0       srb base step size;  schedule (sr) fixed | power;  alpha (srb) its exponent
gamma, tau srb heavy ball momentum, sgld temperature;  kappa (sr) nag_sc's
n_test     r   test-set size (>= 1);  ref_budget (r) reference-minimizer budget in steps
out            output directory
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from typing import Optional, Tuple

from ..losses import ValidationError
from ..optimizers import METHODS

# each experiment's CLI subcommand and the keys it reads besides experiment, seed and out
EXPERIMENTS = {
    "stability_scaling": ("stability", frozenset("methods n d T holdout reps eta0 schedule "
                                                 "alpha gamma tau kappa".split())),
    "risk_decomposition": ("risk", frozenset("methods n d T eta0 schedule alpha gamma tau "
                                             "kappa n_test ref_budget".split())),
    "lecam_audit": ("lecam", frozenset()),
    "lemma_audit": ("lemmas", frozenset()),
    "bounds_table": ("bounds", frozenset("n eta0 alpha gamma tau".split())),
}
# the key each method alone reads in stability_scaling and risk_decomposition
METHOD_KEYS = {"hb": "gamma", "nag_sc": "kappa", "sgld": "tau"}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "stability_scaling"
    methods: Tuple[str, ...] = ("gd",)
    n: int = 500
    d: int = 10
    T: int = 1000
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
        for f in fields(self):
            object.__setattr__(self, f.name, parse_value(f.name, getattr(self, f.name)))
        if self.experiment not in EXPERIMENTS:
            raise ValidationError(f"unknown experiment {self.experiment!r}")
        if self.schedule not in ("fixed", "power"):
            raise ValidationError(f"unknown schedule {self.schedule!r}")
        if not self.methods:
            raise ValidationError(f"{self.experiment} needs at least one method")
        for m in self.methods:
            if m not in METHODS:
                raise ValidationError(f"config key 'methods': unknown method {m!r}")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:  # it would run once but hash as listed
            raise ValidationError(f"config key 'methods': {','.join(repeated)} repeated")
        for key, least in (("seed", 0), ("ref_budget", 0), ("T", 0), ("n", 1), ("d", 1),
                           ("holdout", 1), ("reps", 1), ("n_test", 1)):
            if getattr(self, key) < least:
                raise ValidationError(f"config key {key!r}: bad value "
                                      f"'{getattr(self, key)}' (need >= {least})")
        # an unread key at its default changes neither the run nor the hash
        reads, context = EXPERIMENTS[self.experiment][1] | {"experiment", "seed", "out"}, ""
        if "methods" in reads:  # a method reads its own key; sgld runs eta0 / t
            context = f" (methods {','.join(self.methods)}, schedule {self.schedule})"
            reads -= {key for m, key in METHOD_KEYS.items() if m not in self.methods}
            if set(self.methods) <= {"sgld"}:
                reads -= {"schedule", "alpha"}
            if self.schedule == "fixed":
                reads -= {"alpha"}
        for f in fields(self):
            if f.name not in reads and getattr(self, f.name) != f.default:
                raise ValidationError(f"config key {f.name!r}: {self.experiment} "
                                      f"does not read it{context}")


_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def parse_config_text(text: str) -> dict:
    """Parse the flat key-value grammar into a dict of each value's text."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:  # else its last value would win unseen
            raise ValidationError(f"config line {lineno}: key {key!r} repeated")
        out[key] = value
    return out


def parse_value(key: str, value):
    """Type a value like its key's default from its text: a file value or flag as
    written, a Python value as ``str`` gives it, a sequence of method names joined
    by commas (a tuple key's text is a comma list).  A float must be finite."""
    kind = type(_DEFAULTS.get(key))
    try:
        text = ",".join(value) if kind is tuple and not isinstance(value, str) else str(value)
        if kind is int:
            return int(text)
        if kind is float:
            if not math.isfinite(float(text)):
                raise ValueError
            return float(text)
        if kind is tuple:
            return tuple(tok.strip() for tok in text.split(",") if tok.strip())
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"config key {key!r}: bad value {value!r}") from exc
    return text


def build_config(file_values: Optional[dict] = None,
                 overrides: Optional[dict] = None) -> ExperimentConfig:
    """Merge file keys and CLI overrides (overrides win, but not over the file's
    experiment) into a config."""
    merged = dict(file_values or {})
    for key, value in (overrides or {}).items():
        if key == "experiment" and merged.get(key, value) != value:
            raise ValidationError(f"config key 'experiment': the file runs {merged[key]!r}, "
                                  f"the subcommand {value!r}")
        if value is not None:
            merged[key] = value
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(merged) - known
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**merged)


def load_config(path: str, overrides: Optional[dict] = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # bad config input, not a runtime error
        why = getattr(exc, "strerror", None) or exc  # an OSError without its path
        raise ValidationError(f"config file {path!r}: {why}") from exc
    return build_config(parse_config_text(text), overrides)


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
