"""Experiment orchestration: wiring data, optimizers, measurements, bounds,
and audits into reports."""

from __future__ import annotations

import dataclasses
import logging
import math
from typing import List

import numpy as np

from .. import bounds as bounds_mod
from .. import lecam, matrixlemmas
from ..losses import ValidationError, logistic_spec, loss_constants
from ..optimizers import OptimizerConfig, StepSchedule, fixed, power, validate_config
from ..stability_lab import (
    fit_loglog_slope,
    fit_power_law,
    repeat_and_average,
    risk_curves,
)
from .config import ExperimentConfig, config_hash
from .data import gen_synthetic, load_breast_cancer, split_sample
from .reports import Report, package_versions

log = logging.getLogger(__name__)


def _schedule(cfg: ExperimentConfig, method: str) -> StepSchedule:
    if method == "sgld":
        # the sgld analysis assumes the eta0/t schedule
        return power(cfg.eta0, 1.0)
    if cfg.schedule == "fixed":
        return fixed(cfg.eta0)
    return power(cfg.eta0, cfg.alpha)


def _optimizer_config(cfg: ExperimentConfig, method: str) -> OptimizerConfig:
    return OptimizerConfig(method=method, schedule=_schedule(cfg, method), T=cfg.T,
                           seed=cfg.seed, gamma=cfg.gamma, kappa=cfg.kappa,
                           tau=cfg.tau)


def _new_report(cfg: ExperimentConfig) -> Report:
    return Report(experiment=cfg.experiment, config_hash=config_hash(cfg),
                  seed=cfg.seed, versions=package_versions())


def _logistic_data(cfg: ExperimentConfig):
    """The fixed sample S plus the held-out pool used for perturbations."""
    if cfg.source == "file":
        if not cfg.data_path:
            raise ValidationError("source=file needs data_path")
        full = load_breast_cancer(cfg.data_path)
        return split_sample(full, cfg.subsample, seed=cfg.seed)
    full, _ = gen_synthetic(cfg.d, cfg.n + cfg.holdout, seed=cfg.seed)
    return split_sample(full, cfg.n, seed=cfg.seed)


def _stability_scaling(cfg: ExperimentConfig) -> Report:
    spec = logistic_spec()
    constants = loss_constants(spec)
    opt_cfgs = {m: _optimizer_config(cfg, m) for m in cfg.methods}
    for oc in opt_cfgs.values():
        validate_config(oc, constants)

    sample, pool = _logistic_data(cfg)
    constants = loss_constants(spec, sample)
    report = _new_report(cfg)
    report.records["n"] = sample.n
    report.records["perturbations"] = {}
    ts = np.arange(cfg.T + 1)

    for m, oc in opt_cfgs.items():
        avg = repeat_and_average(oc, spec, sample, pool, reps=cfg.reps,
                                 perturbation_seed=cfg.seed)
        report.add_series(f"{m}_param_gap", ts, avg.param_gap, avg.param_gap_stderr)
        report.add_series(f"{m}_sup_loss_gap", ts, avg.sup_loss_gap,
                          avg.sup_loss_gap_stderr)
        report.records["perturbations"][m] = avg.perturbations
        for label, series in (("param_gap", avg.param_gap),
                              ("sup_loss_gap", avg.sup_loss_gap)):
            try:
                fit = fit_loglog_slope(series)
                report.slope_fits[f"{m}_{label}"] = dataclasses.asdict(fit)
            except ValidationError as exc:
                log.warning("slope fit skipped for %s_%s: %s", m, label, exc)
        try:
            query = bounds_mod.BoundQuery(method=m, setting=bounds_mod.CONVEX,
                                          constants=constants, schedule=oc.schedule,
                                          T=cfg.T, n=sample.n, gamma=oc.gamma, tau=oc.tau)
            report.add_series(f"{m}_bound", ts, bounds_mod.stability_bound_curve(query, ts))
        except bounds_mod.NoBoundError as exc:
            log.info("no bound overlay for %s: %s", m, exc)
    return report


def _risk_decomposition(cfg: ExperimentConfig) -> Report:
    spec = logistic_spec()
    constants = loss_constants(spec)
    opt_cfgs = {m: _optimizer_config(cfg, m) for m in cfg.methods}
    for oc in opt_cfgs.values():
        validate_config(oc, constants)

    train, _ = gen_synthetic(cfg.d, cfg.n, seed=cfg.seed)
    test, _ = gen_synthetic(cfg.d, cfg.n_test, seed=cfg.seed + 1)
    report = _new_report(cfg)
    ts = np.arange(cfg.T + 1)
    for m, oc in opt_cfgs.items():
        curves = risk_curves(oc, spec, train, test,
                             reference_budget=cfg.ref_budget or None)
        report.add_series(f"{m}_train_risk", ts, curves.train)
        report.add_series(f"{m}_test_risk", ts, curves.test)
        report.add_series(f"{m}_gen_gap", ts, curves.gen_gap)
        if curves.opt_error is not None:
            report.add_series(f"{m}_opt_error", ts, curves.opt_error)
            report.records[f"{m}_reference_risk"] = curves.reference_risk
        report.records[f"{m}_final_gen_gap"] = float(curves.gen_gap[-1])
    return report


def _lecam_audit(cfg: ExperimentConfig) -> Report:
    report = _new_report(cfg)
    ns = np.arange(1, 13)
    tvs, kls, bayes = [], [], []
    checks: List[dict] = []
    ok = True
    for n in ns:
        tv, kl = lecam.tv_kl_product(int(n))
        err = lecam.bayes_test_error(int(n))
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
    for variant in lecam.VARIANTS:
        for n in (1, 4, 16, 64):
            cert = lecam.phi_certificate(variant, n, beta, R / 2.0)
            ok &= cert.passed
            certs.append(dataclasses.asdict(cert))
    report.records["phi_certificates"] = certs

    const_checks = []
    for n in (1, 5, 50):
        mm_c = bounds_mod.minimax_bound(bounds_mod.CONVEX, n, R, beta)
        mm_sc = bounds_mod.minimax_bound(bounds_mod.STRONGLY_CONVEX, n, R, beta)
        ref_c = R * R * beta / (256.0 * math.sqrt(6.0 * n))
        ref_sc = R * R * beta / (192.0 * n)
        good = abs(mm_c - ref_c) <= 1e-12 and abs(mm_sc - ref_sc) <= 1e-12
        ok &= good
        const_checks.append({"n": n, "convex": mm_c, "strongly_convex": mm_sc,
                             "ok": good})
    report.records["minimax_constants"] = const_checks
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
    rows = {}
    entries = (("gd", fixed(cfg.eta0), {}),
               ("sgd", fixed(cfg.eta0), {}),
               ("hb", fixed(cfg.eta0), {"gamma": cfg.gamma}),
               ("nag", fixed(cfg.eta0), {}),
               ("sgd_power", power(cfg.eta0, cfg.alpha), {}),
               ("sgld", power(cfg.eta0, 1.0), {"tau": cfg.tau}))
    ok = True
    for label, sched, extra in entries:
        method = label.split("_")[0]
        curve = np.array([bounds_mod.stability_bound_table_form(
            bounds_mod.BoundQuery(method=method, setting=bounds_mod.CONVEX,
                                  constants=constants, schedule=sched, T=int(t),
                                  n=cfg.n, gamma=extra.get("gamma", 0.0),
                                  tau=extra.get("tau"))) for t in ts])
        fit = fit_power_law(ts, curve)
        nominal = bounds_mod.table_exponent(method, sched)
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
