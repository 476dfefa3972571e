"""Acceptance suite.

Each test evaluates one numbered acceptance criterion at its stated
tolerance and prints a PASS/FAIL line.  The logistic scaling experiments
share one synthetic dataset (d = 10, unit-norm rows, labels from the
logistic link at the all-ones parameter); step sizes are per method where
not pinned, chosen so the growth phase of each gap curve fills the measured
window (the fitted regime is reported alongside each slope).
"""

import math
import time

import numpy as np
import pytest

from optstab import bounds as B
from optstab import lecam, matrixlemmas as ML
from optstab.losses import (
    Dataset,
    lecam_strongly_convex_spec,
    linear_worstcase_spec,
    logistic_spec,
    loss_constants,
    quadratic_spec,
)
from optstab.optimizers import OptimizerConfig, fixed, power, run
from optstab.stability_lab import (
    _coupled_gaps,
    fit_loglog_slope,
    repeat_and_average,
    risk_curves,
)
from optstab.harness.data import gen_synthetic, split_sample

SEED = 7
LOGISTIC = logistic_spec()
SYMBOL_HOLDOUT = Dataset.from_symbols(np.array([1.0, -1.0]))


def flip_gap(cfg, spec, data, k, theta0=None):
    """Parameter-gap series of the coupled pair (S, S with symbol k flipped)."""
    z = Dataset.from_symbols([-int(data.s[k])])
    return _coupled_gaps([cfg], spec, data, [k], z, 0, SYMBOL_HOLDOUT, theta0)[0][0, 0]


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def logistic_data():
    full, _ = gen_synthetic(10, 600, seed=SEED)
    return split_sample(full, 500, seed=SEED)


@pytest.fixture(scope="module")
def deterministic_experiments(logistic_data):
    # gd, nag and hb share data, T, seeds and perturbations, so they run as
    # one batch with a step size per method
    sample, pool = logistic_data
    cfgs = [OptimizerConfig(method="gd", schedule=fixed(0.1), T=1000),
            OptimizerConfig(method="nag", schedule=fixed(0.001), T=1000),
            OptimizerConfig(method="hb", schedule=fixed(0.005), gamma=0.8, T=1000)]
    start = time.perf_counter()
    avgs = repeat_and_average(cfgs, LOGISTIC, sample, pool, reps=50, seed=SEED + 1)
    return avgs, time.perf_counter() - start


@pytest.fixture(scope="module")
def gd_experiment(deterministic_experiments):
    avg, elapsed = deterministic_experiments
    return avg.param_gap[0], elapsed


@pytest.fixture(scope="module")
def nag_experiment(deterministic_experiments):
    return deterministic_experiments[0].param_gap[1]


@pytest.fixture(scope="module")
def hb_experiment(deterministic_experiments):
    return deterministic_experiments[0].param_gap[2]


@pytest.fixture(scope="module")
def sgd_experiment():
    # denser perturbed-index hits (n = 100) and more repeats tame the
    # heavy-tailed hit-time noise of the stochastic gap estimator
    full, _ = gen_synthetic(10, 200, seed=SEED)
    sample, pool = split_sample(full, 100, seed=SEED)
    cfg = OptimizerConfig(method="sgd", schedule=power(0.1, 0.5), T=1000)
    return repeat_and_average([cfg], LOGISTIC, sample, pool, reps=200, seed=SEED + 1)


def test_criterion_01_gd_stability_slope(gd_experiment):
    param_gap, elapsed = gd_experiment
    fit = fit_loglog_slope(param_gap, window=(10, 1000))
    ok = 0.9 <= fit.exponent <= 1.1 and elapsed <= 60.0
    report(1, ok, f"gd slope {fit.exponent:.3f} on [{fit.t_lo}, {fit.t_hi}], "
                  f"runtime {elapsed:.1f}s")


def test_criterion_02_nag_stability_slope(nag_experiment):
    # quadratic loss: per-sample quadratic centered at +-r; the vanishing
    # step keeps the coupled curvature negligible across the whole window
    spec = lecam_strongly_convex_spec(beta=1.0, r=1.0, domain_radius=2.0)
    rng = np.random.Generator(np.random.Philox(42))
    data = Dataset.from_symbols(np.where(rng.uniform(size=100) < 0.5, 1.0, -1.0))
    cfg = OptimizerConfig(method="nag", schedule=fixed(1e-8), T=1000)
    quad_fit = fit_loglog_slope(flip_gap(cfg, spec, data, 3, np.zeros(2)), window=(10, 1000))

    log_fit = fit_loglog_slope(nag_experiment, window=(10, 1000))
    ok = 1.8 <= quad_fit.exponent <= 2.2 and 1.8 <= log_fit.exponent <= 2.2
    report(2, ok, f"nag slope quadratic {quad_fit.exponent:.3f}, "
                  f"logistic {log_fit.exponent:.3f} "
                  f"on [{log_fit.t_lo}, {log_fit.t_hi}]")


def test_criterion_03_sgd_power_slope(sgd_experiment):
    fit = fit_loglog_slope(sgd_experiment.param_gap[0], window=(50, 1000))
    ok = 0.35 <= fit.exponent <= 0.65
    report(3, ok, f"sgd power(0.1, 0.5) slope {fit.exponent:.3f} "
                  f"on [{fit.t_lo}, {fit.t_hi}]")


def test_criterion_04_hb_slope(hb_experiment):
    # the window starts past the momentum build-up transient (~1/(1-gamma))
    fit = fit_loglog_slope(hb_experiment, window=(25, 1000))
    ok = 0.85 <= fit.exponent <= 1.15
    report(4, ok, f"hb(gamma=0.8) slope {fit.exponent:.3f} "
                  f"on [{fit.t_lo}, {fit.t_hi}]")


def test_criterion_05_linear_loss_tightness():
    spec = linear_worstcase_spec(L=1.0)
    data = Dataset.from_symbols(np.ones(10))
    cfg = OptimizerConfig(method="gd", schedule=fixed(0.1), T=50)
    param_gap = flip_gap(cfg, spec, data, 0)
    worst = 0.0
    for T in (1, 5, 50):
        expect = 2 * 0.1 * 1.0 * T / 10
        worst = max(worst, abs(param_gap[T] - expect) / expect)
    ok = worst <= 1e-12
    report(5, ok, f"linear-loss gap vs 2 eta L T / n, worst rel err {worst:.2e}")


def test_criterion_06_bound_domination(deterministic_experiments, sgd_experiment):
    avg, _ = deterministic_experiments  # gd, nag, hb
    ts = np.arange(1001)
    c = loss_constants(LOGISTIC)
    gd = OptimizerConfig(method="gd", schedule=fixed(0.1), T=1000)
    envelope = B.stability_bound_curve(gd, B.CONVEX, c, 500, ts) / c.L
    gd_ok = bool(np.all(avg.repeats.param_gap[0] <= envelope + 1e-9))
    lip_ok = all(np.all(exp.repeats.sup_loss_gap <= 1.0 * exp.repeats.param_gap)
                 for exp in (avg, sgd_experiment))
    ok = gd_ok and lip_ok
    report(6, ok, f"gd gap under 2 eta L t / n: {gd_ok}; "
                  f"sup_loss_gap <= L * param_gap everywhere: {lip_ok}")


def test_criterion_07_lemma_sweeps():
    start = time.perf_counter()
    sweeps = [
        ML.nag_sweep(100_000, 64, seed=SEED),
        ML.hb_sweep([g / 10 for g in range(10)], 41, 200),
        ML.scnag_sweep([1.0, 2.0, 4.0, 16.0, 100.0], 64, 200),
        ML.recursion_u_sweep(0.01, 128),
    ]
    elapsed = time.perf_counter() - start
    counts = {s.lemma: len(s.counterexamples) for s in sweeps}
    ok = all(s.ok for s in sweeps) and elapsed <= 120.0
    report(7, ok, f"counterexamples {counts}, runtime {elapsed:.1f}s")


def test_criterion_08_lecam_audit():
    ok = True
    details = []
    for n in range(1, 13):
        tv, kl = lecam.tv_kl_product(n)
        err = lecam.bayes_test_error(tv)
        ok &= tv <= 0.5 + 1e-12 and err >= 0.25 - 1e-12 and tv * tv <= kl / 2 + 1e-12
    details.append("tv/bayes/pinsker n=1..12")
    for variant in ("convex", "strongly_convex"):
        for n in (1, 4, 16, 64):
            ok &= lecam.phi_certificate(variant, n, 1.0, 1.0).passed
    details.append("phi certificates")
    R, beta = 2.0, 1.5
    for n in (1, 4, 36):
        ok &= abs(B.minimax_bound(B.CONVEX, n, R, beta)
                  - R * R * beta / (256 * math.sqrt(6 * n))) <= 1e-12
        ok &= abs(B.minimax_bound(B.STRONGLY_CONVEX, n, R, beta)
                  - R * R * beta / (192 * n)) <= 1e-12
    details.append("displayed minimax constants")
    report(8, ok, "; ".join(details))


def test_criterion_09_gd_convergence_envelope():
    rng = np.random.Generator(np.random.Philox(SEED + 9))
    dummy = Dataset.from_symbols(np.array([1.0]))
    violations = 0
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 8))
        M = rng.standard_normal((d, d))
        A = M.T @ M / d
        theta_star = rng.standard_normal(d)
        spec = quadratic_spec(A, A @ theta_star, domain_radius=100.0)
        beta = float(np.linalg.eigvalsh(A)[-1])
        theta0 = rng.standard_normal(d)
        trace = run(OptimizerConfig(method="gd", schedule=fixed(1 / beta), T=500),
                    spec, dummy, theta0=theta0)
        f_star = 0.5 * theta_star @ A @ theta_star - (A @ theta_star) @ theta_star
        excess = trace.risks[1:] - f_star
        envelope = 2 * np.sum((theta0 - theta_star) ** 2) * beta / np.arange(1, 501)
        worst = max(worst, float(np.max(excess / envelope)))
        violations += int(np.any(excess > envelope + 1e-12))
    ok = violations == 0
    report(9, ok, f"100 random PSD quadratics, worst excess/envelope {worst:.3f}, "
                  f"violations {violations}")


def test_criterion_10_strongly_convex_stability_envelope():
    spec = lecam_strongly_convex_spec(beta=1.0, r=1.0, domain_radius=2.0)
    c = loss_constants(spec)
    rng = np.random.Generator(np.random.Philox(SEED + 10))
    data = Dataset.from_symbols(np.where(rng.uniform(size=50) < 0.5, 1.0, -1.0))
    cfg = OptimizerConfig(method="gd", schedule=fixed(0.5), T=500)
    ts = np.arange(501)
    envelope = B.stability_bound_curve(cfg, B.STRONGLY_CONVEX, c, 50, ts) / c.L
    slack = float(np.max(flip_gap(cfg, spec, data, 5, np.zeros(2)) - envelope))
    ok = slack <= 1e-9
    report(10, ok, f"ridge-type quadratic gap under the geometric envelope, "
                   f"max slack {slack:.2e}")


def test_criterion_11_risk_decomposition_ordering():
    train, _ = gen_synthetic(200, 2000, seed=101)
    test = gen_synthetic(200, 2000, seed=102)[0]
    methods = ("nag", "gd")
    cfgs = [OptimizerConfig(method=m, schedule=fixed(0.1), T=1000) for m in methods]
    curves = dict(zip(methods, risk_curves(cfgs, LOGISTIC, train, test, seed=5)[0]))
    nag_late = curves["nag"].gen_gap[1000]
    nag_early = curves["nag"].gen_gap[10]
    gd_late = curves["gd"].gen_gap[1000]
    ok = nag_late > nag_early and nag_late > gd_late
    report(11, ok, f"nag gap t=1000 {nag_late:.4f} > t=10 {nag_early:.4f} "
                   f"and > gd t=1000 {gd_late:.4f}")


def test_criterion_12_early_stopping_values():
    a = B.early_stopping_T(400, 0.1, 1.0, 1.0)
    b = B.early_stopping_T(10000, 0.1, 1.0, 1.0)
    ok = a == 200 and b == 1000
    report(12, ok, f"early_stopping_T(400)={a}, early_stopping_T(10000)={b}")
