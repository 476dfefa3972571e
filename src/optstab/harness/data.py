"""Data ingestion and synthetic generation for the experiments."""

from __future__ import annotations

import logging
from typing import Tuple

import numpy as np

from ..losses import Dataset, ValidationError, _residual, _unit_rows, normalize_rows
from ..streams import stream

log = logging.getLogger(__name__)

_BC_COLUMNS = 11  # record id, 9 integer features in 1..10, class in {2, 4}
_BC_FEATURE_MAX = 10.0


def load_breast_cancer(path: str) -> Dataset:
    """Load a breast-cancer style CSV into a row-normalized labeled dataset.

    Column layout: record id, nine integer features valued 1..10, class label
    2 (benign) or 4 (malignant).  Missing features are marked '?'; rows
    containing them are dropped.  Features are scaled by 1/10 into (0, 1]
    (keeping every row nonzero) and then row-normalized, which certifies the
    unit-row constants of the logistic loss.
    """
    rows, labels = [], []
    raw_count = dropped = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            raw_count += 1
            parts = line.split(",")
            if len(parts) != _BC_COLUMNS:
                raise ValidationError(
                    f"{path}:{lineno}: expected {_BC_COLUMNS} columns, got {len(parts)}")
            if "?" in parts:
                dropped += 1
                continue
            try:
                feats = [float(tok) for tok in parts[1:-1]]
                cls = int(parts[-1])
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: malformed row") from exc
            if cls not in (2, 4):
                raise ValidationError(f"{path}:{lineno}: class must be 2 or 4")
            rows.append(feats)
            labels.append(1 if cls == 4 else 0)
    if not rows:
        raise ValidationError(f"{path}: no usable rows")
    X = normalize_rows(np.asarray(rows) / _BC_FEATURE_MAX)
    log.info("loaded %d rows from %s (%d raw, %d dropped for missing values)",
             len(rows), path, raw_count, dropped)
    return Dataset.from_labeled(X, np.asarray(labels, dtype=float))


def gen_synthetic(d: int, n: int, seed: int = 0) -> Tuple[Dataset, np.ndarray]:
    """Synthetic logistic data: unit-norm Gaussian rows, labels Bernoulli(r(theta*, x)).

    theta* is the all-ones vector; rows are standard normal draws rescaled to
    unit norm in place, one gradient row block at a time (``losses._unit_rows``),
    so the draw is the only design-sized array; the Bernoulli parameter is the
    logistic link at x.theta*, read from the loss's one residual form at y = 0
    (s = 1), sigma(u).  Deterministic for a fixed seed (its "rows" and "labels"
    streams); the first m rows of a draw are the draw of m rows.
    """
    if d < 1 or n < 1:
        raise ValidationError("need d >= 1 and n >= 1")
    X = _unit_rows(stream(seed, "rows").standard_normal((n, d)))
    theta_star = np.ones(d)
    p = _residual(X @ -theta_star)
    u = stream(seed, "labels").uniform(size=n)
    y = (u < p).astype(float)
    return Dataset.from_labeled(X, y), theta_star


def split_sample(data: Dataset, size: int, seed: int = 0) -> Tuple[Dataset, Dataset]:
    """Draw a fixed sample of ``size`` points without replacement; the rest
    forms the held-out pool (the seed's "split" stream)."""
    if not 1 <= size < data.n:
        raise ValidationError(f"sample size {size} must lie in [1, {data.n - 1}]")
    perm = stream(seed, "split").permutation(data.n)
    return data.take(perm[:size]), data.take(perm[size:])
