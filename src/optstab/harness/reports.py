"""Report assembly and byte-stable emission of series CSVs and report.json.

Both carry the generating config hash: a CSV in a leading comment line, the
JSON summary in its ``config_hash`` field.  Floats are written with ``repr``
(shortest round-trip), so a fixed report serializes to identical bytes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..losses import ValidationError


@dataclass(frozen=True)
class Series:
    """One curve: value (and optional stderr) per iteration index."""

    name: str
    t: np.ndarray
    value: np.ndarray
    stderr: Optional[np.ndarray] = None

    def __post_init__(self):
        if len(self.t) != len(self.value):
            raise ValidationError(f"series {self.name!r}: t/value length mismatch")
        if self.stderr is not None and len(self.stderr) != len(self.t):
            raise ValidationError(f"series {self.name!r}: stderr length mismatch")


@dataclass
class Report:
    """Everything one experiment produced, tied to its config hash."""

    experiment: str
    config_hash: str
    seed: int
    versions: Dict[str, str]
    series: List[Series] = field(default_factory=list)
    slope_fits: Dict[str, dict] = field(default_factory=dict)
    records: Dict[str, object] = field(default_factory=dict)
    passed: Optional[bool] = None

    def add_series(self, name: str, t, value, stderr=None) -> None:
        self.series.append(Series(name=name, t=np.asarray(t),
                                  value=np.asarray(value, dtype=float),
                                  stderr=None if stderr is None
                                  else np.asarray(stderr, dtype=float)))


def package_versions() -> Dict[str, str]:
    from .. import __version__
    return {"optstab": __version__, "numpy": np.__version__}


def write_series_csv(series: Series, path: str, config_hash: str) -> None:
    lines = [f"# config={config_hash}", "t,value,stderr"]
    err = series.stderr if series.stderr is not None else np.zeros(len(series.t))
    # tolist() gives Python floats, whose repr is repr(float(x)) of each element
    for t, v, e in zip(np.asarray(series.t).tolist(),
                       np.asarray(series.value, dtype=float).tolist(),
                       np.asarray(err, dtype=float).tolist()):
        lines.append(f"{int(t)},{v!r},{e!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_report(report: Report, out_dir: str) -> List[str]:
    """Write one CSV per series, then report.json; return their paths in that order.
    report.json is encoded first, so a report it cannot hold writes no file."""
    summary = {
        "experiment": report.experiment,
        "config_hash": report.config_hash,
        "seed": report.seed,
        "versions": report.versions,
        "series": sorted(s.name for s in report.series),
        "slope_fits": report.slope_fits,
        "records": report.records,
        "passed": report.passed,
    }
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for series in report.series:
        path = os.path.join(out_dir, f"{series.name}.csv")
        write_series_csv(series, path, report.config_hash)
        written.append(path)
    path = os.path.join(out_dir, "report.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return [*written, path]
