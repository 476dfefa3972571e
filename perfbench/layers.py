"""Per-layer metrics of one traced iteration, from optstab's span names.

Spans are named ``<module>.<function>`` (see ``spans.py``); the module path is
the layer.  Times are span durations or self times (duration minus the part
covered by child spans).  Work counts are taken at the same call boundaries
from arguments' array shapes and from returned objects.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Dict, Tuple

from .spans import Tracer, self_times

MODULES = ("optimizers", "losses", "stability_lab", "bounds", "lecam", "matrixlemmas",
           "harness.config", "harness.data", "harness.experiments", "harness.reports")
GRAD = ("losses.empirical_risk_grad", "losses.sample_grad")
VALUES = ("losses.loss_values_matrix", "losses.empirical_risk_batch")
FITS = ("stability_lab.fit_loglog_slope", "stability_lab.fit_power_law",
        "stability_lab.detect_saturation")
SWEEPS = ("nag_sweep", "hb_sweep", "scnag_sweep", "recursion_u_sweep", "adversarial_max")


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


# Bytes computed for a gradient on labeled data: each operand read once (the
# rows used and their labels, theta) plus the gradient written once.  Useful
# traffic derived from shapes, not a measured memory bandwidth.
def _risk_grad(args, kwargs, g):
    d = _arg(args, kwargs, 2, "data")
    return {"bytes": d.X.nbytes + d.y.nbytes + 2 * g.nbytes}


def _sample_grad(args, kwargs, g):
    d = _arg(args, kwargs, 2, "data")
    return {"bytes": d.X.itemsize * (d.X.shape[1] + 1) + 2 * g.nbytes}


COUNTERS = {
    "optimizers.run": lambda a, k, tr: {"steps": tr.thetas.shape[0] - 1,
                                        "trace_bytes": tr.thetas.nbytes},
    "losses.empirical_risk_grad": _risk_grad,
    "losses.sample_grad": _sample_grad,
    "losses.loss_values_matrix": lambda a, k, v: {"elements": v.size},
    "losses.empirical_risk_batch": lambda a, k, v: {
        "elements": v.size * _arg(a, k, 2, "data").n},
    "stability_lab.repeat_and_average": lambda a, k, avg: {"pairs": avg.reps},
    "harness.reports.write_report": lambda a, k, paths: {
        "bytes": sum(os.path.getsize(p) for p in paths)},
}
COUNTERS.update({f"matrixlemmas.{s}": (lambda a, k, res: {"checks": res.checks})
                 for s in SWEEPS})


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> Tuple[Dict[str, float], Dict[str, int]]:
    """(times, counts) of one traced iteration whose timed region took wall_s.

    Module self times plus ``trace.unattributed_s`` add up to ``wall_s``.
    """
    selfs = self_times(tracer.spans)
    calls, dur, slf, module_self = (defaultdict(int), defaultdict(float),
                                    defaultdict(float), defaultdict(float))
    for sid, _, name, start, end in tracer.spans:
        calls[name] += 1
        dur[name] += end - start
        slf[name] += selfs[sid]
        module_self[name.rsplit(".", 1)[0]] += selfs[sid]

    def total(table, names):
        return sum(table[n] for n in names)

    def count(names, key):
        return int(sum(tracer.counts[n][key] for n in names if n in tracer.counts))

    steps = count(["optimizers.run"], "steps")
    grad_bytes = count(GRAD, "bytes")
    elements = count(VALUES, "elements")
    counts = {
        "optimizers.run.calls": calls["optimizers.run"],
        "optimizers.steps": steps,
        "optimizers.trace_bytes": count(["optimizers.run"], "trace_bytes"),
        "losses.grad.calls": total(calls, GRAD),
        "losses.grad.bytes_computed": grad_bytes,
        "losses.values.calls": total(calls, VALUES),
        "losses.values.elements": elements,
        "stability_lab.pairs": count(["stability_lab.repeat_and_average"], "pairs"),
        "stability_lab.fit.calls": total(calls, FITS),
        "bounds.calls": sum(v for n, v in calls.items() if n.startswith("bounds.")),
        "lecam.calls": sum(v for n, v in calls.items() if n.startswith("lecam.")),
        "matrixlemmas.checks": count([f"matrixlemmas.{s}" for s in SWEEPS], "checks"),
        "harness.reports.bytes": count(["harness.reports.write_report"], "bytes"),
        "trace.spans": len(tracer.spans),
    }
    run_self = slf["optimizers.run"]
    grad_self = total(slf, GRAD)
    values_self = total(slf, VALUES)
    times = {
        "optimizers.run.self_s": run_self,
        "optimizers.us_per_step": _ratio(run_self, steps) * 1e6,
        "losses.grad.self_s": grad_self,
        "losses.grad.gbps_computed": _ratio(grad_bytes, grad_self) / 1e9,
        "losses.values.self_s": values_self,
        "losses.values.elements_per_s": _ratio(elements, values_self),
        "stability_lab.fit.s": total(dur, FITS),
        "stability_lab.risk_curves.s": dur["stability_lab.risk_curves"],
        "harness.data.s": sum(v for n, v in dur.items() if n.startswith("harness.data.")),
        "harness.reports.write_s": dur["harness.reports.write_report"],
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - sum(module_self.values()),
    }
    times.update({f"matrixlemmas.{s}.s": dur[f"matrixlemmas.{s}"] for s in SWEEPS})
    times.update({f"{m}.self_s": module_self[m] for m in MODULES})
    return times, counts
