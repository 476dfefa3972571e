"""Report assembly and byte-stable emission of series files and plot scripts.

Every emitted file carries the generating config hash: series CSVs in a
leading comment line, the JSON summary in its ``config_hash`` field, and the
plot script in its header.  Floats are written with ``repr`` (shortest
round-trip), so a fixed report serializes to identical bytes.
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
    """One plotted curve: value (and optional stderr) per iteration index."""

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


_PLOT_TEMPLATE = """\
# auto-generated plot script (config={config_hash})
# renders every series CSV next to this file; stability curves use log-log axes
import csv
import os

import matplotlib.pyplot as plt

HERE = os.path.dirname(os.path.abspath(__file__))
SERIES = {series_names}
LOG_LOG = {log_log}


def read(name):
    ts, vs, es = [], [], []
    with open(os.path.join(HERE, name + ".csv")) as fh:
        for row in csv.reader(line for line in fh if not line.startswith("#")):
            if row[0] == "t":
                continue
            ts.append(int(row[0])); vs.append(float(row[1])); es.append(float(row[2]))
    return ts, vs, es


fig, ax = plt.subplots(figsize=(7, 5))
for name in SERIES:
    ts, vs, es = read(name)
    pts = [(t, v) for t, v in zip(ts, vs) if not LOG_LOG or (t > 0 and v > 0)]
    ax.plot([p[0] for p in pts], [p[1] for p in pts], label=name)
if LOG_LOG:
    ax.set_xscale("log")
    ax.set_yscale("log")
ax.set_xlabel("iteration t")
ax.set_ylabel("value")
ax.legend(fontsize=7)
fig.tight_layout()
fig.savefig(os.path.join(HERE, "{experiment}.png"), dpi=150)
print("wrote", os.path.join(HERE, "{experiment}.png"))
"""


def write_plot_script(report: Report, out_dir: str) -> str:
    names = sorted(s.name for s in report.series)
    log_log = report.experiment == "stability_scaling"
    text = _PLOT_TEMPLATE.format(config_hash=report.config_hash,
                                 series_names=repr(names),
                                 log_log=repr(log_log),
                                 experiment=report.experiment)
    path = os.path.join(out_dir, "plot_series.py")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return [float(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_report(report: Report, out_dir: str) -> List[str]:
    """Write report.json, one CSV per series, and the plot script."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for series in report.series:
        path = os.path.join(out_dir, f"{series.name}.csv")
        write_series_csv(series, path, report.config_hash)
        written.append(path)
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
    path = os.path.join(out_dir, "report.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    return [*written, path, write_plot_script(report, out_dir)]
