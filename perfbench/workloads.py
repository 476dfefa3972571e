"""The benchmark's workloads: their inputs, timed operations, output checks
and work counts.

An operation is one experiment call (its report is written inside the timed
region) or one ``matrixlemmas.adversarial_max`` call.  Every call into
optstab goes through a module attribute (``experiments.run_experiment``,
not an imported name), so the tracer in ``spans.py`` sees it.

The output checks read the written files back with this module's own
parser rather than optstab's, so a defect in optstab's reader cannot hide a
bad file.  Work is counted from the written outputs and returned objects,
never from timers.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from optstab import matrixlemmas
from optstab.harness import config, data, experiments, reports

Counts = Dict[str, int]
CheckResult = Tuple[List[str], Counts]

STABILITY_METHODS = ("gd", "sgd", "nag", "hb", "sgld")
# Methods whose stability bound holds for every perturbed pair, so the repeat
# mean must sit under the bound overlay at every t.  The sgd and sgld bounds
# hold in expectation only; their exceedances are counted, not failed.
DETERMINISTIC_METHODS = ("gd", "nag", "hb")
# Lipschitz constant of the logistic loss on the unit-norm synthetic rows.
LIPSCHITZ = 1.0
ADVERSARIAL_LEMMAS = ("hb", "nag_sc", "recursion_u")
ADVERSARIAL_BUDGET = 4000
LEMMA_SWEEPS = ("nag_convex", "hb", "nag_sc", "recursion_u")


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]                   # timed
    check: Callable[[str, object], CheckResult]  # (output dir, result) -> problems, counts


@dataclass(frozen=True)
class Workload:
    name: str
    work_key: str                   # the count behind ref_work_per_s
    setup: Callable[[int], List[Op]]
    probe: str                      # speed.py kernel that tracks its hot path


@dataclass
class Iteration:
    """One closed-loop pass over a workload's operations."""

    wall_s: float
    problems: Dict[str, List[str]]  # op name -> problems (empty when it passed)
    counts: Dict[str, Counts]       # op name -> work counts
    hashes: Dict[str, str]          # output file (relative path) -> sha256


def read_outputs(out_dir: str):
    """report.json plus every series CSV it lists, as (t, value, stderr) arrays."""
    with open(os.path.join(out_dir, "report.json"), "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    series = {}
    for name in summary["series"]:
        with open(os.path.join(out_dir, f"{name}.csv"), "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if lines[:2] != [f"# config={summary['config_hash']}", "t,value,stderr"]:
            raise ValueError(f"{name}.csv: header does not match report.json")
        rows = [line.split(",") for line in lines[2:]]
        series[name] = np.array(rows, dtype=float).reshape(len(rows), 3)
    return summary, series


def _nonfinite(series) -> List[str]:
    return [f"{name}: non-finite values" for name, a in sorted(series.items())
            if not np.all(np.isfinite(a))]


def check_stability(out_dir: str, _report) -> CheckResult:
    summary, series = read_outputs(out_dir)
    problems = _nonfinite(series)
    counts: Counts = {"opt_steps": 0, "pairs": 0}
    for m in STABILITY_METHODS:
        gap, sup, bound = (series[f"{m}_{k}"][:, 1]
                           for k in ("param_gap", "sup_loss_gap", "bound"))
        over_lipschitz = int(np.count_nonzero(sup > LIPSCHITZ * gap + 1e-12))
        if over_lipschitz:
            problems.append(f"{m}: sup-loss gap above L * param gap at {over_lipschitz} t")
        violations = int(np.count_nonzero(sup > bound))
        counts[f"bound_violations.{m}"] = violations
        if m in DETERMINISTIC_METHODS and violations:
            problems.append(f"{m}: mean sup-loss gap above its bound at {violations} t")
        reps = len(summary["records"]["perturbations"][m])
        counts["pairs"] += reps
        counts["opt_steps"] += 2 * reps * (len(gap) - 1)
    return problems, counts


def check_risk(ref_budget: int):
    def check(out_dir: str, _report) -> CheckResult:
        summary, series = read_outputs(out_dir)
        problems = _nonfinite(series)
        rises = int(np.count_nonzero(np.diff(series["gd_train_risk"][:, 1]) > 0))
        if rises:
            problems.append(f"gd train risk increased at {rises} steps")
        steps = 0
        for name, s in series.items():
            if name.endswith("_train_risk"):
                method = name[:-len("_train_risk")]
                steps += len(s) - 1
                if f"{method}_reference_risk" in summary["records"]:
                    steps += ref_budget
        return problems, {"opt_steps": steps}
    return check


def check_audit(out_dir: str, _report) -> CheckResult:
    summary, series = read_outputs(out_dir)
    problems = _nonfinite(series)
    if summary["passed"] is not True:
        problems.append(f"{summary['experiment']}: passed is {summary['passed']!r}")
    records = summary["records"]
    checks = sum(records[k]["checks"] for k in LEMMA_SWEEPS if k in records)
    return problems, {"envelope_checks": checks}


def check_sweep(_out_dir: str, result) -> CheckResult:
    problems = []
    if result.counterexamples:
        problems.append(f"{result.lemma}: {len(result.counterexamples)} counterexamples")
    return problems, {"envelope_checks": result.checks}


def _experiment_op(cfg, check) -> Op:
    return Op(cfg.experiment, lambda: experiments.run_experiment(cfg), check)


def setup_stability(seed: int) -> List[Op]:
    cfg = config.build_config(overrides=dict(
        experiment="stability_scaling", methods=STABILITY_METHODS,
        n=500, d=10, T=1000, reps=10, seed=seed))
    # The experiment regenerates its sample from the config on every call;
    # set-up generates it once the same way so that setup_s prices it.
    full, _ = data.gen_synthetic(cfg.d, cfg.n + cfg.holdout, seed=cfg.seed)
    data.split_sample(full, cfg.n, seed=cfg.seed)
    return [_experiment_op(cfg, check_stability)]


def setup_risk(seed: int) -> List[Op]:
    cfg = config.build_config(overrides=dict(
        experiment="risk_decomposition", methods=("gd", "nag", "hb"),
        n=2000, d=200, T=1000, n_test=2000, ref_budget=2000, seed=seed))
    data.gen_synthetic(cfg.d, cfg.n, seed=cfg.seed)
    data.gen_synthetic(cfg.d, cfg.n_test, seed=cfg.seed + 1)
    return [_experiment_op(cfg, check_risk(cfg.ref_budget))]


def setup_audits(seed: int) -> List[Op]:
    ops = [_experiment_op(config.build_config(overrides=dict(experiment=e, seed=seed)),
                          check_audit)
           for e in ("lemma_audit", "lecam_audit", "bounds_table")]
    for lemma in ADVERSARIAL_LEMMAS:
        ops.append(Op(f"adversarial_max.{lemma}",
                      lambda lemma=lemma: matrixlemmas.adversarial_max(
                          lemma, ADVERSARIAL_BUDGET, seed=seed),
                      check_sweep))
    return ops


WORKLOADS = {w.name: w for w in (
    Workload("stability-coupled", "opt_steps", setup_stability, "interp"),
    Workload("risk-wide", "opt_steps", setup_risk, "blas"),
    Workload("audits", "envelope_checks", setup_audits, "interp"),
)}


def file_hashes(root: str) -> Dict[str, str]:
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            path = os.path.join(dirpath, f)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_iteration(ops: List[Op], out_dir: str) -> Iteration:
    """Run every operation once, timing calls plus report writing, then check
    the outputs outside the timed region."""
    results, problems = {}, {}
    start = time.perf_counter()
    for op in ops:
        try:
            result = op.call()
            if isinstance(result, reports.Report):
                reports.write_report(result, os.path.join(out_dir, op.name))
            results[op.name] = result
        except Exception as exc:  # a failed operation is counted, the run goes on
            problems[op.name] = [f"raised {type(exc).__name__}: {exc}"]
    wall_s = time.perf_counter() - start
    counts = {}
    for op in ops:
        if op.name not in results:
            continue
        try:
            problems[op.name], counts[op.name] = op.check(
                os.path.join(out_dir, op.name), results[op.name])
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems[op.name] = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return Iteration(wall_s, problems, counts, file_hashes(out_dir))


class Tally:
    """Operations attempted and failed over a run.  An operation fails if it
    raised, failed an output check, or did not reproduce the output bytes and
    work counts of the first (warm-up) pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        self._first = None

    def add(self, ops: List[Op], it: Iteration) -> None:
        problems = {op.name: list(it.problems.get(op.name, ())) for op in ops}
        if self._first is None:
            self._first = it
        else:
            for path in sorted(set(it.hashes) | set(self._first.hashes)):
                if it.hashes.get(path) != self._first.hashes.get(path):
                    op = path.split(os.sep)[0]
                    problems.setdefault(op, []).append(f"{path}: bytes differ from first run")
            for name, counts in it.counts.items():
                if counts != self._first.counts.get(name):
                    problems[name].append(f"work counts {counts} differ from first run")
        self.attempted += len(ops)
        for name, found in problems.items():
            if found:
                self.failed += 1
                self.messages.extend(f"{name}: {p}" for p in found)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
