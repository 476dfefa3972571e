import math

import numpy as np
import pytest

from optstab.losses import (
    Dataset,
    ValidationError,
    linear_worstcase_spec,
    logistic_spec,
    normalize_rows,
    quadratic_spec,
)
from optstab.optimizers import (
    OptimizerConfig,
    fixed,
    nag_momentum,
    nag_momentum_sequence,
    power,
    run,
    sc_momentum,
    step_size,
)

DUMMY = Dataset.from_symbols(np.array([1.0]))


def quad1d(beta):
    return quadratic_spec(np.array([[beta]]), domain_radius=10.0)


# ---------------------------------------------------------------- schedules


def test_fixed_schedule():
    assert step_size(fixed(0.1), 7) == 0.1


def test_power_schedule():
    assert step_size(power(1.0, 0.5), 4) == pytest.approx(0.5)
    assert step_size(power(0.5, 1.0), 10) == pytest.approx(0.05)


def test_schedule_validation():
    with pytest.raises(ValidationError):
        fixed(0.0)
    with pytest.raises(ValidationError):
        power(0.1, 1.5)
    with pytest.raises(ValidationError):
        step_size(fixed(0.1), 0)


# ---------------------------------------------------------------- momentum


def test_nag_momentum_first_step_vanishes():
    assert nag_momentum(1) == 0.0


def test_nag_momentum_second_value():
    # lambda_2 = (1 + sqrt 5)/2, lambda_3 = (1 + sqrt(1 + 4 lambda_2^2))/2
    lam2 = (1 + math.sqrt(5)) / 2
    lam3 = (1 + math.sqrt(1 + 4 * lam2 * lam2)) / 2
    assert nag_momentum(2) == pytest.approx((1 - lam2) / lam3, abs=1e-12)
    assert nag_momentum(2) == pytest.approx(-0.28175, abs=1e-5)


def test_nag_momentum_range_up_to_1e4():
    g = nag_momentum_sequence(10_000)
    assert np.all(g > -1.0) and np.all(g <= 0.0)


def test_nag_momentum_rejects_zero():
    with pytest.raises(ValidationError):
        nag_momentum(0)


def test_sc_momentum_exact():
    for kappa in (1.0, 2.0, 9.0, 100.0):
        rk = math.sqrt(kappa)
        assert sc_momentum(kappa) == (rk - 1) / (rk + 1)


# ---------------------------------------------------------------- runs


def test_gd_one_step_solves_quadratic():
    beta = 2.0
    trace = run(OptimizerConfig(method="gd", schedule=fixed(1 / beta), T=1),
                quad1d(beta), DUMMY, theta0=[1.0])
    assert trace.thetas[1, 0] == pytest.approx(0.0, abs=1e-15)


def test_hb_with_zero_momentum_equals_gd():
    spec = quad1d(1.0)
    kw = dict(schedule=fixed(0.3), T=25)
    gd = run(OptimizerConfig(method="gd", **kw), spec, DUMMY, theta0=[1.5])
    hb = run(OptimizerConfig(method="hb", gamma=0.0, **kw), spec, DUMMY, theta0=[1.5])
    np.testing.assert_array_equal(gd.thetas, hb.thetas)


def test_gd_convergence_envelope_on_random_quadratics():
    # f(theta_T) - f* <= 2 ||theta0 - theta*||^2 / (eta T) for eta = 1/beta
    rng = np.random.Generator(np.random.Philox(99))
    for _ in range(100):
        d = int(rng.integers(2, 7))
        M = rng.standard_normal((d, d))
        A = M.T @ M / d
        theta_star = rng.standard_normal(d)
        spec = quadratic_spec(A, A @ theta_star, domain_radius=100.0)
        beta = float(np.linalg.eigvalsh(A)[-1])
        theta0 = rng.standard_normal(d)
        trace = run(OptimizerConfig(method="gd", schedule=fixed(1 / beta), T=500),
                    spec, DUMMY, theta0=theta0)
        f_star = 0.5 * theta_star @ A @ theta_star - (A @ theta_star) @ theta_star
        ts = np.arange(1, 501)
        envelope = 2 * np.sum((theta0 - theta_star) ** 2) * beta / ts
        assert np.all(trace.risks[1:] - f_star <= envelope + 1e-12)


def test_traces_are_bitwise_deterministic():
    rng = np.random.Generator(np.random.Philox(3))
    X = normalize_rows(rng.standard_normal((20, 4)))
    y = rng.integers(0, 2, 20).astype(float)
    data = Dataset.from_labeled(X, y)
    spec = logistic_spec()
    for method, kw in [("gd", {}), ("sgd", {}), ("nag", {}), ("hb", {"gamma": 0.5}),
                       ("sgld", {"tau": 2.0})]:
        cfg = OptimizerConfig(method=method, schedule=fixed(0.1), T=30, seed=17, **kw)
        a = run(cfg, spec, data)
        b = run(cfg, spec, data)
        np.testing.assert_array_equal(a.thetas, b.thetas)
        np.testing.assert_array_equal(a.risks, b.risks)


def test_gd_descent_on_convex_smooth_losses():
    rng = np.random.Generator(np.random.Philox(4))
    X = normalize_rows(rng.standard_normal((30, 3)))
    y = rng.integers(0, 2, 30).astype(float)
    data = Dataset.from_labeled(X, y)
    trace = run(OptimizerConfig(method="gd", schedule=fixed(1.0), T=200),
                logistic_spec(), data)
    assert np.all(np.diff(trace.risks) <= 1e-15)


def test_sgld_with_zero_noise_scale_matches_sgd():
    rng = np.random.Generator(np.random.Philox(5))
    X = normalize_rows(rng.standard_normal((15, 3)))
    y = rng.integers(0, 2, 15).astype(float)
    data = Dataset.from_labeled(X, y)
    spec = logistic_spec()
    sgd = run(OptimizerConfig(method="sgd", schedule=fixed(0.1), T=40, seed=11),
              spec, data)
    sgld = run(OptimizerConfig(method="sgld", schedule=fixed(0.1), T=40, seed=11,
                               tau=1.0, noise_scale=0.0), spec, data)
    np.testing.assert_array_equal(sgd.thetas, sgld.thetas)


def test_sgld_noise_scales_with_temperature():
    rng = np.random.Generator(np.random.Philox(6))
    X = normalize_rows(rng.standard_normal((15, 3)))
    y = rng.integers(0, 2, 15).astype(float)
    data = Dataset.from_labeled(X, y)
    spec = logistic_spec()
    hot = run(OptimizerConfig(method="sgld", schedule=fixed(0.1), T=40, seed=11,
                              tau=0.1), spec, data)
    cold = run(OptimizerConfig(method="sgld", schedule=fixed(0.1), T=40, seed=11,
                               tau=1e6), spec, data)
    assert np.linalg.norm(hot.thetas[-1]) > np.linalg.norm(cold.thetas[-1])


def test_nag_first_update_is_plain_gradient_step():
    spec = quad1d(1.0)
    nag = run(OptimizerConfig(method="nag", schedule=fixed(0.5), T=1), spec, DUMMY,
              theta0=[2.0])
    gd = run(OptimizerConfig(method="gd", schedule=fixed(0.5), T=1), spec, DUMMY,
             theta0=[2.0])
    np.testing.assert_array_equal(nag.thetas, gd.thetas)


def test_nag_converges_faster_than_gd_on_ill_conditioned_quadratic():
    A = np.diag([1.0, 0.01])
    spec = quadratic_spec(A, domain_radius=10.0)
    theta0 = [1.0, 1.0]
    kw = dict(schedule=fixed(1.0), T=80)
    gd = run(OptimizerConfig(method="gd", **kw), spec, DUMMY, theta0=theta0)
    nag = run(OptimizerConfig(method="nag", **kw), spec, DUMMY, theta0=theta0)
    assert nag.risks[-1] < gd.risks[-1]


def test_trace_shape_and_step_sizes():
    trace = run(OptimizerConfig(method="gd", schedule=power(0.5, 1.0), T=4),
                quad1d(1.0), DUMMY, theta0=[1.0])
    assert trace.thetas.shape == (5, 1)
    np.testing.assert_allclose(trace.step_sizes, [0.5, 0.25, 0.5 / 3, 0.125])


def test_symbol_dataset_default_dimension():
    spec = linear_worstcase_spec(L=1.0)
    trace = run(OptimizerConfig(method="gd", schedule=fixed(0.1), T=3),
                spec, Dataset.from_symbols(np.ones(4)))
    assert trace.thetas.shape == (4, 1)
    trace = run(OptimizerConfig(method="gd", schedule=fixed(0.1), T=3),
                spec, Dataset.from_symbols(np.ones(4)), dim=3)
    assert trace.thetas.shape == (4, 3)


# ---------------------------------------------------------------- validation


def test_step_size_preconditions():
    spec = quad1d(2.0)  # beta = 2, so 1/beta = 0.5
    for method in ("gd", "nag", "sgd"):
        with pytest.raises(ValidationError):
            run(OptimizerConfig(method=method, schedule=fixed(0.6), T=1), spec, DUMMY)
    run(OptimizerConfig(method="gd", schedule=fixed(0.5), T=1), spec, DUMMY)


def test_hb_step_size_range():
    spec = quad1d(2.0)
    # needs eta < (1 - gamma)/beta = 0.1
    with pytest.raises(ValidationError):
        run(OptimizerConfig(method="hb", gamma=0.8, schedule=fixed(0.1), T=1),
            spec, DUMMY)
    run(OptimizerConfig(method="hb", gamma=0.8, schedule=fixed(0.09), T=1),
        spec, DUMMY)


def test_linear_loss_unconstrained_step():
    spec = linear_worstcase_spec(L=1.0)
    run(OptimizerConfig(method="gd", schedule=fixed(100.0), T=1), spec,
        Dataset.from_symbols(np.ones(3)))


def test_config_validation():
    with pytest.raises(ValidationError):
        OptimizerConfig(method="newton", schedule=fixed(0.1), T=1)
    with pytest.raises(ValidationError):
        OptimizerConfig(method="hb", schedule=fixed(0.1), T=1, gamma=1.0)
    with pytest.raises(ValidationError):
        OptimizerConfig(method="nag_sc", schedule=fixed(0.1), T=1, kappa=0.5)
    with pytest.raises(ValidationError):
        OptimizerConfig(method="sgld", schedule=fixed(0.1), T=1)
    with pytest.raises(ValidationError):
        OptimizerConfig(method="gd", schedule=fixed(0.1), T=-1)


def test_nag_sc_uses_configured_momentum():
    # with kappa = 1 the momentum is 0 and nag_sc must match plain gd
    spec = quad1d(1.0)
    kw = dict(schedule=fixed(0.5), T=20)
    gd = run(OptimizerConfig(method="gd", **kw), spec, DUMMY, theta0=[1.0])
    sc = run(OptimizerConfig(method="nag_sc", kappa=1.0, **kw), spec, DUMMY,
             theta0=[1.0])
    np.testing.assert_allclose(sc.thetas, gd.thetas, atol=1e-15)


def test_nag_sc_recursion_matches_manual_unroll():
    beta, kappa = 1.0, 4.0
    spec = quad1d(beta)
    eta = 1.0 / beta
    gamma = sc_momentum(kappa)
    trace = run(OptimizerConfig(method="nag_sc", kappa=kappa, schedule=fixed(eta),
                                T=5), spec, DUMMY, theta0=[1.0])
    theta_prev, theta = 1.0, 1.0 - eta * beta * 1.0
    for t in range(2, 6):
        w = (1 + gamma) * theta - gamma * theta_prev
        theta_prev, theta = theta, w - eta * beta * w
        assert trace.thetas[t, 0] == pytest.approx(theta, abs=1e-15)


def test_non_finite_iterate_names_method_and_step():
    # beta = 0, so no step-size precondition stops eta = 1e308; theta_1 = -1e308
    # is finite and theta_2 overflows
    spec = linear_worstcase_spec(L=1.0)
    cfg = OptimizerConfig(method="gd", schedule=fixed(1e308), T=5)
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError, match="gd: iterate 2 is not finite"):
            run(cfg, spec, Dataset.from_symbols(np.ones(4)))
