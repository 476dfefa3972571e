"""Experiment orchestration: wiring data, optimizers, measurements, bounds,
and audits into reports."""

from __future__ import annotations

import dataclasses
import functools
import logging
from typing import List

import numpy as np

from .. import bounds as bounds_mod
from .. import lecam, matrixlemmas
from ..losses import Dataset, ValidationError, logistic_spec, loss_constants
from ..optimizers import OptimizerConfig, fixed, power
from ..stability_lab import (
    fit_loglog_slope,
    fit_power_law,
    repeat_and_average,
    risk_curves,
)
from .config import METHOD_KEYS, ExperimentConfig, config_hash
from .data import gen_synthetic, split_sample
from .reports import Report, package_versions

log = logging.getLogger(__name__)


def _optimizer_config(cfg: ExperimentConfig, method: str) -> OptimizerConfig:
    own = {key: getattr(cfg, key) for m, key in METHOD_KEYS.items() if m == method}
    # the sgld analysis assumes the eta0/t schedule
    schedule = (power(cfg.eta0, 1.0) if method == "sgld" else
                power(cfg.eta0, cfg.alpha) if cfg.schedule == "power" else fixed(cfg.eta0))
    return OptimizerConfig(method=method, schedule=schedule, T=cfg.T, **own)


def _bound_slack(bound: np.ndarray, gap: np.ndarray, stderr: np.ndarray) -> dict:
    """Smallest bound - mean gap over t >= 1 (both are 0 at t = 0), the t where
    it occurs, the gap's stderr there, and the number of t where the mean gap
    exceeds the bound."""
    t = int(np.argmin(bound[1:] - gap[1:])) + 1
    return {"min": float(bound[t] - gap[t]), "t": t, "stderr": float(stderr[t]),
            "crossings": int(np.count_nonzero(gap > bound))}


def _new_report(cfg: ExperimentConfig) -> Report:
    return Report(experiment=cfg.experiment, config_hash=config_hash(cfg),
                  seed=cfg.seed, versions=package_versions())


def _logistic_data(cfg: ExperimentConfig):
    """The fixed sample S of n points plus the held-out pool used for perturbations."""
    full, _ = gen_synthetic(cfg.d, cfg.n + cfg.holdout, seed=cfg.seed)
    return split_sample(full, cfg.n, seed=cfg.seed)


def _stability_scaling(cfg: ExperimentConfig) -> Report:
    spec = logistic_spec()
    opt_cfgs = [_optimizer_config(cfg, m) for m in cfg.methods]
    sample, pool = _logistic_data(cfg)
    constants = loss_constants(spec, sample)
    report = _new_report(cfg)
    report.records["n"] = sample.n
    report.records["perturbations"] = {}
    report.records["bound_slack"] = {}
    ts = np.arange(cfg.T + 1)

    avg = repeat_and_average(opt_cfgs, spec, sample, pool, reps=cfg.reps, seed=cfg.seed)
    # logistic loss on unit-norm rows is L-Lipschitz at every theta
    L = loss_constants(spec, pool).L
    over = np.argwhere(avg.repeats.sup_loss_gap > L * avg.repeats.param_gap + 1e-12)
    if over.size:
        j, i, t = over[0]
        raise RuntimeError(f"{cfg.methods[j]}: sup-loss gap exceeds L * param gap at "
                           f"repeat {i}, t = {t}")
    for j, (m, oc) in enumerate(zip(cfg.methods, opt_cfgs)):
        report.add_series(f"{m}_param_gap", ts, avg.param_gap[j], avg.param_gap_stderr[j])
        report.add_series(f"{m}_sup_loss_gap", ts, avg.sup_loss_gap[j],
                          avg.sup_loss_gap_stderr[j])
        report.records["perturbations"][m] = avg.perturbations
        for label, series in (("param_gap", avg.param_gap[j]),
                              ("sup_loss_gap", avg.sup_loss_gap[j])):
            try:
                fit = fit_loglog_slope(series)
                report.slope_fits[f"{m}_{label}"] = dataclasses.asdict(fit)
            except ValidationError as exc:
                log.warning("slope fit skipped for %s_%s: %s", m, label, exc)
        try:
            bound = bounds_mod.stability_bound_curve(oc, bounds_mod.CONVEX, constants,
                                                     sample.n, ts)
            report.add_series(f"{m}_bound", ts, bound)
            if cfg.T:
                report.records["bound_slack"][m] = _bound_slack(
                    bound, avg.sup_loss_gap[j], avg.sup_loss_gap_stderr[j])
        except bounds_mod.NoBoundError as exc:
            log.info("no bound overlay for %s: %s", m, exc)
    return report


def _risk_decomposition(cfg: ExperimentConfig) -> Report:
    spec = logistic_spec()
    # the test rows continue the train rows' streams: the first n rows are
    # gen_synthetic(d, n, seed)
    full, _ = gen_synthetic(cfg.d, cfg.n + cfg.n_test, seed=cfg.seed)
    train = Dataset.from_labeled(full.X[:cfg.n], full.y[:cfg.n])
    test = Dataset.from_labeled(full.X[cfg.n:], full.y[cfg.n:])
    report = _new_report(cfg)
    ts = np.arange(cfg.T + 1)
    # the reference depends on neither method nor seed: it rides in the full-gradient
    # batch of risk_curves when it can
    curves, ref_risk = risk_curves([_optimizer_config(cfg, m) for m in cfg.methods], spec,
                                   train, test, cfg.ref_budget, seed=cfg.seed)
    for m, rc in zip(cfg.methods, curves):
        report.add_series(f"{m}_train_risk", ts, rc.train)
        report.add_series(f"{m}_test_risk", ts, rc.test)
        report.add_series(f"{m}_gen_gap", ts, rc.gen_gap)
        if ref_risk is not None:
            report.add_series(f"{m}_opt_error", ts, rc.train - ref_risk)
            report.records[f"{m}_reference_risk"] = ref_risk
        report.records[f"{m}_final_gen_gap"] = float(rc.gen_gap[-1])
    return report


def _lecam_audit(cfg: ExperimentConfig) -> Report:
    report = _new_report(cfg)
    ns = np.arange(1, 13)
    tvs, kls, bayes = [], [], []
    checks: List[dict] = []
    ok = True
    for n in ns:
        tv, kl = lecam.tv_kl_product(int(n))
        err = lecam.bayes_test_error(tv)
        tvs.append(tv)
        kls.append(kl)
        bayes.append(err)
        good = tv <= 0.5 + 1e-12 and err >= 0.25 - 1e-12 and tv * tv <= kl / 2 + 1e-12
        ok &= good
        checks.append({"n": int(n), "tv": tv, "kl": kl, "bayes_error": err,
                       "ok": good})
    report.add_series("lecam_tv", ns, np.array(tvs))
    report.add_series("lecam_kl", ns, np.array(kls))
    report.add_series("lecam_bayes_error", ns, np.array(bayes))
    report.records["two_point_checks"] = checks

    R, beta = 2.0, 1.0
    certs = []
    for variant in bounds_mod.SETTINGS:
        for n in (1, 4, 16, 64):
            cert = lecam.phi_certificate(variant, n, beta, R / 2.0)
            ok &= cert.passed
            certs.append(dataclasses.asdict(cert))
    report.records["phi_certificates"] = certs
    report.passed = bool(ok)
    return report


def _lemma_audit(cfg: ExperimentConfig) -> Report:
    report = _new_report(cfg)
    sweeps = {
        "nag_convex": matrixlemmas.nag_sweep(100_000, 64, seed=cfg.seed),
        "hb": matrixlemmas.hb_sweep([g / 10.0 for g in range(10)], 41, 200),
        "nag_sc": matrixlemmas.scnag_sweep([1.0, 2.0, 4.0, 16.0, 100.0], 64, 200),
        "recursion_u": matrixlemmas.recursion_u_sweep(0.01, 128),
    }
    ok = True
    for name, res in sweeps.items():
        ok &= res.ok
        report.records[name] = {
            "max_ratio": res.max_ratio,
            "witness": res.witness,
            "counterexamples": res.counterexamples[:20],
            "counterexample_count": len(res.counterexamples),
            "checks": res.checks,
        }
    report.passed = bool(ok)
    return report


def _bounds_table(cfg: ExperimentConfig) -> Report:
    spec = logistic_spec()
    constants = loss_constants(spec)
    report = _new_report(cfg)
    ts = 2 ** np.arange(4, 13)
    # every row is checked as a run before any bound is evaluated
    row = functools.partial(OptimizerConfig, T=int(ts[-1]), gamma=cfg.gamma, tau=cfg.tau)
    eta = fixed(cfg.eta0)
    configs = {"gd": row("gd", eta), "sgd": row("sgd", eta), "hb": row("hb", eta),
               "nag": row("nag", eta), "sgd_power": row("sgd", power(cfg.eta0, cfg.alpha)),
               "sgld": row("sgld", power(cfg.eta0, 1.0))}
    rows, ok = {}, True
    for label, oc in configs.items():
        curve = bounds_mod.stability_bound_table_form(oc, bounds_mod.CONVEX, constants,
                                                      cfg.n, ts)
        fit = fit_power_law(ts, curve)
        nominal = bounds_mod.table_exponent(oc)
        rows[label] = {"exponent_fitted": fit.exponent, "exponent_nominal": nominal}
        ok &= abs(fit.exponent - nominal) < 1e-9
        report.add_series(f"bound_{label}", ts, curve)
    report.records["exponents"] = rows
    report.passed = bool(ok)
    return report


_RUNNERS = {
    "stability_scaling": _stability_scaling,
    "risk_decomposition": _risk_decomposition,
    "lecam_audit": _lecam_audit,
    "lemma_audit": _lemma_audit,
    "bounds_table": _bounds_table,
}


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Run the configured experiment and return its report."""
    return _RUNNERS[cfg.experiment](cfg)
