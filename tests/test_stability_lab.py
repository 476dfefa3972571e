import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optstab.bounds import BoundQuery, CONVEX, stability_bound
from optstab.losses import (
    DataPoint,
    Dataset,
    ValidationError,
    empirical_risk_grad,
    lecam_strongly_convex_spec,
    linear_worstcase_spec,
    logistic_spec,
    loss_constants,
    loss_values_matrix,
    normalize_rows,
    sample_grad,
)
from optstab.optimizers import (
    METHODS,
    OptimizerConfig,
    fixed,
    nag_momentum_sequence,
    power,
    sc_momentum,
    step_size,
)
from optstab.stability_lab import (
    detect_saturation,
    estimate_sup_loss_gap,
    fit_loglog_slope,
    fit_power_law,
    gd_param_gap_bound,
    gd_param_gap_bound_sc,
    make_perturbed_pair,
    repeat_and_average,
    risk_curves,
    run_pair,
)

SYMBOL_HOLDOUT = Dataset.from_symbols(np.array([1.0, -1.0]))


def logistic_fixture(n=40, d=4, seed=0):
    rng = np.random.Generator(np.random.Philox(seed))
    X = normalize_rows(rng.standard_normal((n, d)))
    y = rng.integers(0, 2, n).astype(float)
    return Dataset.from_labeled(X, y)


# ---------------------------------------------------------------- pairs


def test_make_pair_differs_only_at_k():
    data = Dataset.from_symbols(np.ones(3))
    pair = make_perturbed_pair(data, 1, DataPoint.symbol(-1))
    assert pair.perturbed.s[1] == -1
    assert pair.base.s[1] == 1
    assert np.all(np.delete(pair.base.s, 1) == np.delete(pair.perturbed.s, 1))


def test_identity_perturbation_keeps_gaps_zero_for_every_method():
    data = logistic_fixture()
    pair = make_perturbed_pair(data, 2, data.point(2))
    spec = logistic_spec()
    holdout = logistic_fixture(n=10, seed=99)
    for method, kw in [("gd", {}), ("sgd", {}), ("nag", {}), ("hb", {"gamma": 0.5}),
                       ("sgld", {"tau": 1.0})]:
        cfg = OptimizerConfig(method=method, schedule=fixed(0.1), T=25, seed=4, **kw)
        trace = run_pair(cfg, spec, pair, holdout)
        np.testing.assert_array_equal(trace.param_gap, 0.0)
        np.testing.assert_array_equal(trace.sup_loss_gap, 0.0)


def test_pair_index_out_of_range():
    data = Dataset.from_symbols(np.ones(3))
    with pytest.raises(ValidationError):
        make_perturbed_pair(data, 3, DataPoint.symbol(-1))


# ---------------------------------------------------------------- run_pair


def test_param_gap_zero_at_start():
    data = logistic_fixture()
    pair = make_perturbed_pair(data, 0, logistic_fixture(seed=5).point(0))
    cfg = OptimizerConfig(method="gd", schedule=fixed(0.1), T=10, seed=0)
    trace = run_pair(cfg, logistic_spec(), pair, logistic_fixture(n=8, seed=9))
    assert trace.param_gap[0] == 0.0


def test_linear_loss_gap_is_exactly_tight():
    spec = linear_worstcase_spec(L=1.0)
    data = Dataset.from_symbols(np.ones(10))
    pair = make_perturbed_pair(data, 0, DataPoint.symbol(-1))
    cfg = OptimizerConfig(method="gd", schedule=fixed(0.1), T=50, seed=0)
    trace = run_pair(cfg, spec, pair, SYMBOL_HOLDOUT)
    for T in (1, 5, 50):
        expect = 2 * 0.1 * 1.0 * T / 10
        assert abs(trace.param_gap[T] - expect) <= 1e-12 * expect


def test_gd_gap_dominated_by_linear_envelope():
    data = logistic_fixture(n=50, seed=3)
    pool = logistic_fixture(n=10, seed=7)
    pair = make_perturbed_pair(data, 4, pool.point(0))
    cfg = OptimizerConfig(method="gd", schedule=fixed(0.1), T=200, seed=0)
    trace = run_pair(cfg, logistic_spec(), pair, pool)
    ts = np.arange(201)
    envelope = gd_param_gap_bound(0.1, 1.0, ts, 50)
    assert np.all(trace.param_gap <= envelope + 1e-9)


def test_lipschitz_domination_of_sup_gap():
    data = logistic_fixture(n=30, seed=11)
    pool = logistic_fixture(n=20, seed=13)
    pair = make_perturbed_pair(data, 1, pool.point(3))
    cfg = OptimizerConfig(method="nag", schedule=fixed(0.2), T=100, seed=2)
    trace = run_pair(cfg, logistic_spec(), pair, pool)
    assert np.all(trace.sup_loss_gap <= 1.0 * trace.param_gap)


def test_strongly_convex_gap_envelope():
    spec = lecam_strongly_convex_spec(beta=1.0, r=1.0, domain_radius=2.0)
    c = loss_constants(spec)
    rng = np.random.Generator(np.random.Philox(17))
    data = Dataset.from_symbols(np.where(rng.uniform(size=50) < 0.5, 1.0, -1.0))
    pair = make_perturbed_pair(data, 5, DataPoint.symbol(-int(data.s[5])))
    cfg = OptimizerConfig(method="gd", schedule=fixed(0.5), T=500, seed=0)
    trace = run_pair(cfg, spec, pair, SYMBOL_HOLDOUT, dim=2)
    ts = np.arange(501)
    envelope = gd_param_gap_bound_sc(0.5, c.L, c.alpha, c.beta, ts, 50)
    assert np.all(trace.param_gap <= envelope + 1e-9)


# ------------------------------------------------------------- sup-gap op


def test_sup_gap_zero_for_equal_parameters():
    holdout = logistic_fixture(n=5, seed=21)
    theta = np.array([0.2, -0.1, 0.4, 0.0])
    assert estimate_sup_loss_gap(theta, theta, logistic_spec(), holdout) == 0.0


def test_sup_gap_linear_loss_independent_of_z():
    spec = linear_worstcase_spec(L=1.0)
    got = estimate_sup_loss_gap([0.3, 0.0], [0.2, 0.0], spec, SYMBOL_HOLDOUT)
    assert got == pytest.approx(0.1, abs=1e-15)


def test_sup_gap_bounded_by_lipschitz_for_logistic():
    rng = np.random.Generator(np.random.Philox(23))
    holdout = logistic_fixture(n=25, seed=29)
    for _ in range(20):
        a = rng.standard_normal(4)
        b = rng.standard_normal(4)
        gap = estimate_sup_loss_gap(a, b, logistic_spec(), holdout)
        assert gap <= np.linalg.norm(a - b) + 1e-12


def test_sup_gap_requires_nonempty_holdout():
    with pytest.raises(ValidationError):
        Dataset.from_symbols(np.array([]))


# ---------------------------------------------------------------- repeats


def test_single_repeat_equals_trace():
    data = logistic_fixture(n=20, seed=31)
    pool = logistic_fixture(n=10, seed=37)
    cfg = OptimizerConfig(method="gd", schedule=fixed(0.1), T=20, seed=5)
    avg = repeat_and_average(cfg, logistic_spec(), data, pool, reps=1,
                             perturbation_seed=8)
    np.testing.assert_array_equal(avg.param_gap, avg.repeats[0].param_gap)
    np.testing.assert_array_equal(avg.param_gap_stderr, 0.0)


def test_deterministic_methods_give_zero_stderr_for_fixed_perturbation():
    # force identical repeats by a single-point pool and n = 1 sample index
    data = Dataset.from_symbols(np.ones(1))
    pool = Dataset.from_symbols(-np.ones(1))
    spec = linear_worstcase_spec(L=1.0)
    cfg = OptimizerConfig(method="gd", schedule=fixed(0.1), T=10, seed=5)
    avg = repeat_and_average(cfg, spec, data, pool, reps=6, perturbation_seed=3)
    np.testing.assert_allclose(avg.param_gap_stderr, 0.0, atol=1e-15)
    np.testing.assert_allclose(avg.sup_loss_gap_stderr, 0.0, atol=1e-15)


def test_repeat_records_and_worker_independence():
    data = logistic_fixture(n=15, seed=41)
    pool = logistic_fixture(n=6, seed=43)
    cfg = OptimizerConfig(method="sgd", schedule=fixed(0.1), T=15, seed=5)
    seq = repeat_and_average(cfg, logistic_spec(), data, pool, reps=5,
                             perturbation_seed=4)
    assert all(0 <= r["k"] < 15 for r in seq.perturbations)
    with pytest.raises(ValidationError):
        repeat_and_average(cfg, logistic_spec(), data, pool, reps=0)


# ------------------------------------------- batched vs per-pair reference


def _reference_trajectory(config, spec, data, theta0):
    """One member stepped alone, method by method, through the public
    single-point gradients, with the index and noise streams drawn as the
    optimizers draw them (SeedSequence(seed).spawn(2), Philox)."""
    T, d = config.T, theta0.shape[0]
    idx_seq, noise_seq = np.random.SeedSequence(config.seed).spawn(2)
    indices = np.random.Generator(np.random.Philox(idx_seq)).integers(0, data.n, size=T)
    noise = np.random.Generator(np.random.Philox(noise_seq)).standard_normal((T, d))
    gammas = nag_momentum_sequence(max(T, 1))
    thetas = [theta0]
    for t in range(1, T + 1):
        eta = step_size(config.schedule, t)
        prev = thetas[-1]
        older = thetas[-2] if t >= 2 else prev
        if config.method in ("sgd", "sgld"):
            theta = prev - eta * sample_grad(spec, prev, data, indices[t - 1])
            if config.method == "sgld":
                scale = config.noise_scale * math.sqrt(2.0 * eta / config.tau)
                theta = theta + scale * noise[t - 1]
        elif config.method == "hb":
            theta = (prev - eta * empirical_risk_grad(spec, prev, data)
                     + config.gamma * (prev - older))
        else:
            g = 0.0
            if t >= 2 and config.method == "nag":
                g = gammas[t - 2]
            elif t >= 2 and config.method == "nag_sc":
                g = -sc_momentum(config.kappa)
            look = (1.0 - g) * prev + g * older
            theta = look - eta * empirical_risk_grad(spec, look, data)
        thetas.append(theta)
    return np.array(thetas)


def _reference_repeats(config, spec, sample, pool, reps, perturbation_seed, theta0):
    """Per-repeat (param_gap, sup_loss_gap), one pair at a time."""
    out = []
    for i in range(reps):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(perturbation_seed, spawn_key=(i,))))
        k = int(rng.integers(0, sample.n))
        pair = make_perturbed_pair(sample, k, pool.point(int(rng.integers(0, pool.n))))
        cfg = config.with_seed(config.seed ^ i)
        th = _reference_trajectory(cfg, spec, pair.base, theta0)
        th_p = _reference_trajectory(cfg, spec, pair.perturbed, theta0)
        sup = np.abs(loss_values_matrix(spec, th, pool)
                     - loss_values_matrix(spec, th_p, pool)).max(axis=1)
        out.append((np.linalg.norm(th - th_p, axis=1), sup))
    return out


def _family_case(family, seed, n):
    """(spec, sample, pool, theta0, dim, beta) for one drawn example."""
    rng = np.random.Generator(np.random.Philox(seed))
    if family == "logistic":
        X = normalize_rows(rng.standard_normal((n + 4, 3)))
        y = rng.integers(0, 2, n + 4).astype(float)
        data = Dataset.from_labeled(X, y)
        return (logistic_spec(), data.take(np.arange(n)), data.take(np.arange(n, n + 4)),
                0.3 * rng.standard_normal(3), None, 0.25)
    s = np.where(rng.uniform(size=n + 3) < 0.5, 1.0, -1.0)
    sample, pool = Dataset.from_symbols(s[:n]), Dataset.from_symbols(s[n:])
    if family == "linear_worstcase":
        return linear_worstcase_spec(L=1.5), sample, pool, np.zeros(1), None, 0.0
    spec = lecam_strongly_convex_spec(beta=1.0, r=1.0, domain_radius=2.0)
    return spec, sample, pool, rng.standard_normal(2), 2, 1.0


def _config(method, eta, kind, T, seed, beta):
    # every step-size precondition holds: eta <= 0.9 / beta and, for heavy
    # ball with gamma = 0.5, eta < 0.5 / beta
    if beta > 0:
        eta = min(eta, (0.45 if method == "hb" else 0.9) / beta)
    schedule = fixed(eta) if kind == "fixed" else power(eta, 0.5)
    return OptimizerConfig(method=method, schedule=schedule, T=T, seed=seed, gamma=0.5,
                           kappa=4.0, tau=2.0)


@settings(max_examples=60, deadline=None)
@given(method=st.sampled_from(METHODS),
       family=st.sampled_from(("logistic", "lecam_strongly_convex", "linear_worstcase")),
       reps=st.integers(1, 6), T=st.integers(1, 60), n=st.integers(1, 12),
       eta=st.floats(0.01, 1.0), kind=st.sampled_from(("fixed", "power")),
       data_seed=st.integers(0, 2 ** 32 - 1), seed=st.integers(0, 2 ** 16),
       perturbation_seed=st.integers(0, 2 ** 16), start=st.booleans())
def test_batched_repeats_match_per_pair_reference(method, family, reps, T, n, eta, kind,
                                                  data_seed, seed, perturbation_seed,
                                                  start):
    spec, sample, pool, theta0, dim, beta = _family_case(family, data_seed, n)
    theta0 = theta0 if start else np.zeros_like(theta0)
    cfg = _config(method, eta, kind, T, seed, beta)
    avg = repeat_and_average(cfg, spec, sample, pool, reps=reps,
                             perturbation_seed=perturbation_seed,
                             theta0=theta0 if start else None, dim=dim)
    expected = _reference_repeats(cfg, spec, sample, pool, reps, perturbation_seed, theta0)
    for rep, (param_gap, sup_gap) in zip(avg.repeats, expected):
        for got, want in ((rep.param_gap, param_gap), (rep.sup_loss_gap, sup_gap)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            np.testing.assert_array_equal(got[want == 0], 0.0)


@settings(max_examples=30, deadline=None)
@given(method=st.sampled_from(METHODS), family=st.sampled_from(("logistic",
                                                              "lecam_strongly_convex")),
       reps=st.integers(2, 6), T=st.integers(1, 60), data_seed=st.integers(0, 2 ** 32 - 1),
       seed=st.integers(0, 2 ** 16))
def test_identity_perturbation_gaps_are_exactly_zero_in_a_batch(method, family, reps, T,
                                                                data_seed, seed):
    # a one-row sample whose pool is that same row: every repeat swaps x_k for
    # itself, so every member of the batch must follow the same iterates
    spec, sample, _, theta0, dim, beta = _family_case(family, data_seed, 1)
    cfg = _config(method, 0.3, "fixed", T, seed, beta)
    avg = repeat_and_average(cfg, spec, sample, sample, reps=reps, theta0=theta0, dim=dim)
    for rep in avg.repeats:
        np.testing.assert_array_equal(rep.param_gap, 0.0)
        np.testing.assert_array_equal(rep.sup_loss_gap, 0.0)


# ---------------------------------------------------------------- slope fit


def test_slope_fit_exact_square_law():
    t = np.arange(0, 401)
    v = 3.0 * t.astype(float) ** 2
    fit = fit_loglog_slope(v, window=(1, 400))
    assert fit.exponent == pytest.approx(2.0, abs=1e-10)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-9)
    assert fit.residual_rms < 1e-12


def test_slope_fit_exact_square_root_law():
    t = np.arange(0, 401)
    fit = fit_loglog_slope(0.7 * np.sqrt(t.astype(float)), window=(1, 400))
    assert fit.exponent == pytest.approx(0.5, abs=1e-10)


def test_slope_fit_bounded_perturbation():
    rng = np.random.Generator(np.random.Philox(47))
    t = np.arange(0, 1001).astype(float)
    eps = rng.uniform(-0.05, 0.05, size=t.size)
    v = 2.0 * t * (1.0 + eps)
    fit = fit_loglog_slope(v, window=(10, 1000), saturation=False)
    assert abs(fit.exponent - 1.0) <= 0.05


def test_slope_fit_rejects_nonpositive_values():
    v = np.zeros(50)
    with pytest.raises(ValidationError):
        fit_loglog_slope(v, window=(1, 49))


def test_slope_fit_bad_window():
    with pytest.raises(ValidationError):
        fit_loglog_slope(np.ones(10), window=(0, 9))
    with pytest.raises(ValidationError):
        fit_loglog_slope(np.ones(10), window=(5, 20))


def test_fit_power_law_direct_grid():
    t = np.array([16, 32, 64, 128, 256])
    fit = fit_power_law(t, 5.0 * t ** 0.25)
    assert fit.exponent == pytest.approx(0.25, abs=1e-12)


def test_saturation_detection_cuts_plateau():
    t = np.arange(0, 2001).astype(float)
    v = np.minimum(t, 300.0) + 1e-9
    cut = detect_saturation(v, 10, 2000)
    assert 200 <= cut <= 450
    fit = fit_loglog_slope(v, window=(10, 2000))
    assert fit.exponent == pytest.approx(1.0, abs=0.05)
    assert fit.t_hi <= 450


def test_saturation_detection_keeps_pure_power_law():
    t = np.arange(0, 2001).astype(float)
    v = 2.0 * t ** 1.3 + 1e-12
    assert detect_saturation(v, 10, 2000) == 2000


# ---------------------------------------------------------------- risks


def test_risk_curves_gap_zero_when_test_equals_train():
    data = logistic_fixture(n=30, seed=51)
    cfg = OptimizerConfig(method="gd", schedule=fixed(0.1), T=30, seed=0)
    rc = risk_curves(cfg, logistic_spec(), data, data)
    np.testing.assert_allclose(rc.gen_gap, 0.0, atol=1e-15)


def test_risk_curves_reference_minimizer_self_consistent():
    data = logistic_fixture(n=25, seed=53)
    cfg = OptimizerConfig(method="gd", schedule=fixed(1.0), T=400, seed=0)
    rc = risk_curves(cfg, logistic_spec(), data, data, reference_budget=2000)
    # by T = 400 a 1/beta-step GD run is essentially at the reference minimum
    assert rc.opt_error is not None
    assert rc.opt_error[-1] == pytest.approx(0.0, abs=1e-4)
    assert np.all(rc.opt_error >= -1e-9)


def test_optimization_error_dominates_in_underparameterized_regime():
    # d = 20, n = 2000: while the method is still descending, the
    # optimization error is the dominant term of the risk decomposition
    from optstab.harness.data import gen_synthetic

    train, _ = gen_synthetic(20, 2000, seed=31)
    test, _ = gen_synthetic(20, 2000, seed=32)
    windows = {"gd": (10, 500), "nag": (10, 80)}  # nag reaches the empirical
    # minimum around t ~ 90 here, after which the comparison flips trivially
    for method, (lo, hi) in windows.items():
        cfg = OptimizerConfig(method=method, schedule=fixed(0.1), T=500, seed=3)
        rc = risk_curves(cfg, logistic_spec(), train, test, reference_budget=10000)
        ts = np.arange(lo, hi + 1)
        assert np.all(rc.opt_error[ts] > np.abs(rc.gen_gap[ts])), method


def test_generalization_gap_under_stability_bound_on_average():
    # expected generalization gap of gd stays below the uniform stability
    # bound (plus sampling error) when averaged over independent datasets
    spec = logistic_spec()
    T, n, eta = 50, 100, 0.1
    gaps = []
    for seed in range(10):
        rng = np.random.Generator(np.random.Philox(seed + 600))
        X = normalize_rows(rng.standard_normal((2 * n, 5)))
        u = X @ np.ones(5)
        y = (rng.uniform(size=2 * n) < 1 / (1 + np.exp(-u))).astype(float)
        train = Dataset.from_labeled(X[:n], y[:n])
        test = Dataset.from_labeled(X[n:], y[n:])
        cfg = OptimizerConfig(method="gd", schedule=fixed(eta), T=T, seed=seed)
        rc = risk_curves(cfg, spec, train, test)
        gaps.append(rc.gen_gap[-1])
    bound = stability_bound(BoundQuery(
        method="gd", setting=CONVEX, constants=loss_constants(spec),
        schedule=fixed(eta), T=T, n=n))
    stderr = np.std(gaps, ddof=1) / math.sqrt(len(gaps))
    assert np.mean(gaps) <= bound + 3 * stderr
