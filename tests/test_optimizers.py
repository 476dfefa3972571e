import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optstab import losses
from optstab.losses import (
    Dataset,
    ValidationError,
    lecam_convex_spec,
    lecam_strongly_convex_spec,
    linear_worstcase_spec,
    logistic_spec,
    loss_constants,
    normalize_rows,
    quadratic_spec,
    sample_grad,
)
from optstab.optimizers import (
    _DRAW_STEPS,
    _INDEX_STEPS,
    OptimizerConfig,
    StepSchedule,
    _coefficients,
    _step_sizes,
    _stream_draws,
    batch_iterates,
    fixed,
    nag_momentum_sequence,
    power,
    run,
    sc_momentum,
    step_size,
)
from optstab.streams import stream

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


@pytest.mark.parametrize("eta0", [0.1, 0.3, 1.0 / 3.0, 2.5])
def test_a_fixed_step_is_the_law_at_alpha_0(eta0):
    # eta0 * t^(-0.0) is eta0 exactly, so a fixed run keeps its step bits
    assert fixed(eta0) == StepSchedule(eta0, 0.0) == StepSchedule(eta0)
    assert all(step_size(fixed(eta0), t) == eta0 for t in range(1, 1001))
    assert np.array_equal(_step_sizes(fixed(eta0), 1000), np.full(1000, eta0))


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
def test_a_decreasing_step_is_the_scalar_pow(alpha):
    expect = [0.1 * float(t) ** (-alpha) for t in range(1, 1001)]
    assert _step_sizes(power(0.1, alpha), 1000).tolist() == expect


@pytest.mark.parametrize("make, message", [
    (lambda: power(0.1, 0.0), "power schedule needs 0 < alpha <= 1"),
    (lambda: power(0.1, 1.5), "power schedule needs 0 < alpha <= 1"),
    (lambda: power(0.0, 1.5), "eta0 must be positive"),
    (lambda: StepSchedule(0.1, 1.5), "0 <= alpha <= 1"),
    (lambda: StepSchedule(0.1, -0.5), "0 <= alpha <= 1"),
    (lambda: StepSchedule(0.0, 0.0), "eta0 must be positive"),
])
def test_the_step_law_rejects_its_bad_pairs(make, message):
    with pytest.raises(ValidationError, match=message):
        make()


# ---------------------------------------------------------------- momentum


def test_nag_momentum_first_step_vanishes():
    assert nag_momentum_sequence(1)[-1] == 0.0


def test_nag_momentum_second_value():
    # lambda_2 = (1 + sqrt 5)/2, lambda_3 = (1 + sqrt(1 + 4 lambda_2^2))/2
    lam2 = (1 + math.sqrt(5)) / 2
    lam3 = (1 + math.sqrt(1 + 4 * lam2 * lam2)) / 2
    assert nag_momentum_sequence(2)[-1] == pytest.approx((1 - lam2) / lam3, abs=1e-12)
    assert nag_momentum_sequence(2)[-1] == pytest.approx(-0.28175, abs=1e-5)


def test_nag_momentum_range_up_to_1e4():
    g = nag_momentum_sequence(10_000)
    assert np.all(g > -1.0) and np.all(g <= 0.0)


def test_nag_momentum_rejects_zero():
    with pytest.raises(ValidationError):
        nag_momentum_sequence(0)


def test_sc_momentum_exact():
    for kappa in (1.0, 2.0, 9.0, 100.0):
        rk = math.sqrt(kappa)
        assert sc_momentum(kappa) == (rk - 1) / (rk + 1)


def test_sc_momentum_is_elementwise():
    kappas = np.array([[1.0, 2.0], [9.0, 100.0]])
    np.testing.assert_array_equal(sc_momentum(kappas),
                                  [[sc_momentum(k) for k in row] for row in kappas])
    with pytest.raises(ValidationError, match="kappa must be >= 1"):
        sc_momentum(np.array([4.0, 0.5]))


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


def test_traces_are_bitwise_deterministic():
    rng = np.random.Generator(np.random.Philox(3))
    X = normalize_rows(rng.standard_normal((20, 4)))
    y = rng.integers(0, 2, 20).astype(float)
    data = Dataset.from_labeled(X, y)
    spec = logistic_spec()
    for method, kw in [("gd", {}), ("sgd", {}), ("nag", {}), ("hb", {"gamma": 0.5}),
                       ("sgld", {"tau": 2.0})]:
        cfg = OptimizerConfig(method=method, schedule=fixed(0.1), T=30, **kw)
        a = run(cfg, spec, data, seed=17)
        b = run(cfg, spec, data, seed=17)
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


def test_sgld_at_infinite_temperature_matches_sgd():
    rng = np.random.Generator(np.random.Philox(5))
    X = normalize_rows(rng.standard_normal((15, 3)))
    y = rng.integers(0, 2, 15).astype(float)
    data = Dataset.from_labeled(X, y)
    spec = logistic_spec()
    sgd = run(OptimizerConfig(method="sgd", schedule=fixed(0.1), T=40), spec, data,
              seed=11)
    sgld = run(OptimizerConfig(method="sgld", schedule=fixed(0.1), T=40, tau=math.inf),
               spec, data, seed=11)
    np.testing.assert_array_equal(sgd.thetas, sgld.thetas)


def test_sgld_noise_scales_with_temperature():
    rng = np.random.Generator(np.random.Philox(6))
    X = normalize_rows(rng.standard_normal((15, 3)))
    y = rng.integers(0, 2, 15).astype(float)
    data = Dataset.from_labeled(X, y)
    spec = logistic_spec()
    hot = run(OptimizerConfig(method="sgld", schedule=fixed(0.1), T=40, tau=0.1),
              spec, data, seed=11)
    cold = run(OptimizerConfig(method="sgld", schedule=fixed(0.1), T=40, tau=1e6),
               spec, data, seed=11)
    assert np.linalg.norm(hot.thetas[-1]) > np.linalg.norm(cold.thetas[-1])


def test_sgld_symbol_path_does_not_depend_on_theta0_dimension():
    # a symbol family reads only theta[0], so only theta[0] draws noise
    spec = lecam_strongly_convex_spec(beta=2.0, r=0.7)
    data = Dataset.from_symbols(np.array([1.0, -1.0, 1.0]))
    cfg = OptimizerConfig(method="sgld", schedule=fixed(0.2), T=30, tau=0.5)
    one = run(cfg, spec, data, theta0=[0.3], seed=4)
    two = run(cfg, spec, data, theta0=[0.3, -1.0], seed=4)
    np.testing.assert_array_equal(one.thetas[:, 0], two.thetas[:, 0])
    np.testing.assert_array_equal(two.thetas[:, 1], -1.0)
    assert np.all(np.diff(one.thetas[:, 0]) != 0)


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
                spec, Dataset.from_symbols(np.ones(4)), theta0=np.zeros(3))
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


def test_diverging_lookahead_names_method_and_step():
    # theta_2 = -1.6e308 is finite; the lookahead of step 3,
    # (1 - gamma_2) theta_2 + gamma_2 theta_1, overflows before the gradient
    cfg = OptimizerConfig("nag", fixed(8e307), T=5)
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError, match="nag: iterate 3 is not finite"):
            run(cfg, linear_worstcase_spec(1.0), Dataset.from_symbols(np.ones(4)))


def test_non_finite_iterate_names_the_diverging_column_of_a_batch():
    # gd at eta = 0.1 stays finite next to heavy ball at eta = 1e308
    spec = linear_worstcase_spec(L=1.0)
    configs = [OptimizerConfig(method="gd", schedule=fixed(0.1), T=5),
               OptimizerConfig(method="hb", schedule=fixed(1e308), gamma=0.5, T=5)]
    states = batch_iterates(configs, spec, Dataset.from_symbols(np.ones(4)), 0, [0, 1])
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError, match="hb: iterate 2 is not finite"):
            list(states)


@pytest.mark.parametrize("other", [
    OptimizerConfig(method="sgd", schedule=fixed(0.1), T=5),
    OptimizerConfig(method="sgld", schedule=fixed(0.1), T=5, tau=1.0),
    OptimizerConfig(method="nag", schedule=fixed(0.1), T=6),
])
def test_batch_rejects_mixed_gradient_kinds_and_horizons(other):
    gd = OptimizerConfig(method="gd", schedule=fixed(0.1), T=5)
    with pytest.raises(ValidationError, match="one gradient kind and one T"):
        next(batch_iterates([gd, other], quad1d(1.0), DUMMY, 0, [0]))
    with pytest.raises(ValidationError):
        next(batch_iterates([], quad1d(1.0), DUMMY, 0, [0]))


def test_mismatched_inputs_fail_before_the_first_state():
    # the batch checks its data and state dimension once, before theta_0
    gd = OptimizerConfig(method="gd", schedule=fixed(0.1), T=5)
    labeled = Dataset.from_labeled(normalize_rows(np.eye(2)), [0, 1])
    for spec, data, theta0 in ((linear_worstcase_spec(L=1.0), labeled, None),
                               (logistic_spec(), DUMMY, None),
                               (quadratic_spec(np.eye(2)), DUMMY, None),
                               (quadratic_spec(np.eye(2)), labeled, [0.0, 0.0, 0.0])):
        with pytest.raises(ValidationError):
            next(batch_iterates([gd], spec, data, 0, [0], theta0=theta0))


def test_drawn_rows_lie_in_range(monkeypatch):
    # every row the engine hands the kernel lies in [0, n), and member b of a
    # stack reads its own sample through the member grid
    family = losses._KERNELS["logistic"]
    seen = []
    monkeypatch.setitem(losses._KERNELS, "logistic", dataclasses.replace(
        family, grad=lambda spec, thetas, data, rows, reverse:
        seen.append(rows) or family.grad(spec, thetas, data, rows, reverse)))
    rng = np.random.Generator(np.random.Philox(41))
    configs = [OptimizerConfig(method="sgd", schedule=fixed(0.5), T=200),
               OptimizerConfig(method="sgld", schedule=fixed(0.5), T=200, tau=4.0)]
    for n in (1, 7):
        samples = [Dataset.from_labeled(normalize_rows(rng.standard_normal((n, 2))),
                                        rng.integers(0, 2, size=n)) for _ in range(3)]
        for data in (samples[0], Dataset.stack(samples)):
            seen.clear()
            for _ in batch_iterates(configs, logistic_spec(), data, 5, [0, 1, 4]):
                pass
            assert len(seen) == 200
            for index in seen:
                assert len(index) == 1 + len(data.stack_shape)
                if data.stack_shape:
                    np.testing.assert_array_equal(index[0], [0, 1, 2])
                assert index[-1].shape == (3,)
            drawn = np.concatenate([index[-1] for index in seen])
            assert set(drawn.tolist()) == set(range(n))


def test_alternating_block_walk_matches_a_forward_only_loop(monkeypatch):
    # blocks of 3 rows over n = 23: the engine walks them forward on even steps
    # and backward on odd ones, and its iterates are bitwise those of a loop
    # that always walks forward, on a shared sample and on a stack
    from optstab import optimizers

    monkeypatch.setattr(losses, "_GRAD_BLOCK_BYTES", 3 * 4 * 8)
    rng = np.random.Generator(np.random.Philox(42))
    samples = [Dataset.from_labeled(normalize_rows(rng.standard_normal((23, 4))),
                                    rng.integers(0, 2, size=23)) for _ in range(3)]
    configs = [OptimizerConfig(method=m, schedule=fixed(1.5), T=30, gamma=0.5)
               for m in ("gd", "nag", "hb")]
    theta0 = rng.standard_normal(4)
    block_grad, walks = optimizers._block_grad, []

    def states(data, forward_only):
        def spy(spec, thetas, data, rows, reverse):
            walks.append(reverse)
            return block_grad(spec, thetas, data, rows, reverse and not forward_only)
        monkeypatch.setattr(optimizers, "_block_grad", spy)
        walks.clear()
        return np.stack(list(batch_iterates(configs, logistic_spec(), data, 3, [0, 1, 2],
                                            theta0=theta0)))

    for data in (samples[0], Dataset.stack(samples)):
        serpentine = states(data, False)
        assert walks == [t % 2 == 1 for t in range(30)]
        np.testing.assert_array_equal(serpentine, states(data, True))


FULL_METHODS, SAMPLED_METHODS = ("gd", "nag", "nag_sc", "hb"), ("sgd", "sgld")


def _reference_states(cfg, spec, data, seed, members, theta0):
    """theta_0..theta_T (T+1, B, d) of one config, each step through the public
    per-vector gradients on the (B, d) stack of member vectors."""
    T, B = cfg.T, len(members)
    nag = nag_momentum_sequence(T - 1) if T > 1 else []
    rows = [stream(seed, "sgd_index", m).integers(0, data.n, size=T) for m in members]
    # sgld noise over the coordinates the family reads: a symbol family's theta[0]
    width = 1 if spec.variant == "symbol" else len(theta0)
    noise = [stream(seed, "sgld_noise", m).standard_normal((T, width)) for m in members]
    prev = older = np.tile(theta0, (B, 1))
    states = [prev]
    for t in range(T):
        eta = step_size(cfg.schedule, t + 1)
        a = 0.0
        if t and cfg.method == "nag":
            a = nag[t - 1]
        elif t and cfg.method == "nag_sc":
            a = -sc_momentum(cfg.kappa)
        b = cfg.gamma if cfg.method == "hb" else 0.0
        look = (1.0 - a) * prev + a * older
        grad = (sample_grad(spec, look, data, [r[t] for r in rows]) if cfg.sampled
                else sample_grad(spec, look, data, None))
        theta = look - eta * grad + b * (prev - older)
        if cfg.method == "sgld":
            c = math.sqrt(2.0 * eta / cfg.tau)
            theta[:, :width] += c * np.stack([z[t] for z in noise])
        older, prev = prev, theta
        states.append(theta)
    return np.stack(states)


def _family_case(family, rng, n, d, B, stacked):
    """A spec of the family and its data: one sample, or B stacked samples."""
    if family == "logistic":
        samples = [Dataset.from_labeled(normalize_rows(rng.standard_normal((n, d))),
                                        rng.integers(0, 2, size=n)) for _ in range(B)]
    else:
        samples = [Dataset.from_symbols(rng.choice([-1.0, 1.0], size=n)) for _ in range(B)]
    M = rng.standard_normal((d, d))
    spec = {"logistic": logistic_spec(),
            "quadratic": quadratic_spec(M @ M.T / d, rng.standard_normal(d)),
            "linear_worstcase": linear_worstcase_spec(L=1.5),
            "lecam_convex": lecam_convex_spec(beta=2.0, r=0.7),
            "lecam_strongly_convex": lecam_strongly_convex_spec(beta=2.0, r=0.7)}[family]
    return spec, Dataset.stack(samples) if stacked else samples[0]


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(sorted(losses._KERNELS)), sampled=st.booleans(),
       stacked=st.booleans(), n=st.integers(1, 6), d=st.integers(1, 4),
       members=st.lists(st.integers(0, 3), min_size=1, max_size=3),
       T=st.integers(0, 8), seed=st.integers(0, 2**32 - 1),
       picks=st.lists(st.tuples(st.integers(0, 3), st.floats(0.05, 0.95),
                                st.floats(0.0, 0.9), st.booleans()),
                      min_size=3, max_size=3))
def test_batch_states_match_a_per_vector_reference(family, sampled, stacked, n, d,
                                                   members, T, seed, picks):
    # one config: bitwise the public per-vector recursion; k = 3 columns of
    # one kind: each column within 1e-13 relative of its config alone
    rng = np.random.Generator(np.random.Philox(seed))
    spec, data = _family_case(family, rng, n, d, len(members), stacked)
    beta = loss_constants(spec, data).beta
    configs = []
    for which, frac, gamma, decays in picks:
        method = (SAMPLED_METHODS if sampled else FULL_METHODS)[which % (2 if sampled else 4)]
        scale = frac * (1.0 - gamma if method == "hb" else 1.0) / (beta if beta > 0 else 1.0)
        configs.append(OptimizerConfig(
            method=method, schedule=power(scale, 0.5) if decays else fixed(scale), T=T,
            gamma=gamma if method == "hb" else 0.0, kappa=1.0 + 50.0 * frac,
            tau=0.5 + 4.0 * gamma))
    theta0 = rng.standard_normal(d)
    refs = [_reference_states(cfg, spec, data, seed, members, theta0) for cfg in configs]
    one = np.stack(list(batch_iterates(configs[:1], spec, data, seed, members,
                                       theta0=theta0)))
    np.testing.assert_array_equal(one[:, :, 0], refs[0])
    batch = np.stack(list(batch_iterates(configs, spec, data, seed, members,
                                         theta0=theta0)))
    for j, ref in enumerate(refs):
        np.testing.assert_allclose(batch[:, :, j], ref, rtol=1e-13,
                                   atol=1e-13 * np.abs(ref).max(), err_msg=configs[j].method)


S, I = _DRAW_STEPS, _INDEX_STEPS


@pytest.mark.parametrize("T", [1, S - 1, S, S + 1, 2 * S + 1, I - 1, I, I + 1, 2 * I + 1])
@pytest.mark.parametrize("n", [1, 7, 501, 2 ** 31 + 5])
def test_streamed_draws_join_into_the_one_shot_draws(T, n):
    # indices drawn I and noise S steps at a time, each distinct member's streams
    # once: the blocks join into each member's whole-horizon draw, bit for bit
    members, width, seed = [3, 0, 3, 5, 0], 3, 11
    steps = list(_stream_draws(seed, members, n, width, T))
    assert len(steps) == T
    rows = np.stack([r for r, _ in steps])
    noise = np.stack([z for _, z in steps])
    np.testing.assert_array_equal(
        rows, np.stack([stream(seed, "sgd_index", m).integers(0, n, size=T)
                        for m in members], axis=1))
    np.testing.assert_array_equal(
        noise, np.stack([stream(seed, "sgld_noise", m).standard_normal((T, width))
                         for m in members], axis=1))
    quiet = list(_stream_draws(seed, members, n, 0, T))
    assert all(z is None for _, z in quiet)
    np.testing.assert_array_equal(np.stack([r for r, _ in quiet]), rows)


def _all_terms_states(configs, spec, data, seed, members, theta0):
    """theta_0..theta_T (T+1, B, k, d) of a batch, each step applying all four terms
    of the law (lookahead, gradient, momentum, noise) to the whole (B, k, d) state."""
    B, k, T, d = len(members), len(configs), configs[0].T, len(theta0)
    etas = np.stack([_step_sizes(cfg.schedule, T) for cfg in configs], axis=1)
    a, b, c = (np.stack(column, axis=1)[..., None] for column in
               zip(*(_coefficients(cfg, etas[:, j]) for j, cfg in enumerate(configs))))
    rows = np.stack([stream(seed, "sgd_index", m).integers(0, data.n, size=T)
                     for m in members], axis=1)
    noise = np.stack([stream(seed, "sgld_noise", m).standard_normal((T, d))
                      for m in members], axis=1)
    prev = older = np.tile(theta0, (B, k, 1))
    states = [prev]
    for t in range(T):
        look = (1.0 - a[t]) * prev + a[t] * older
        grad = losses._block_grad(spec, look, data, rows[t] if configs[0].sampled else None,
                                  t % 2 == 1)
        theta = (look - etas[t][:, None] * grad + b[t] * (prev - older)
                 + c[t] * noise[t][:, None])
        older, prev = prev, theta
        states.append(theta)
    return np.stack(states)


def _cfg(method, T=5, gamma=0.5):
    return OptimizerConfig(method=method, schedule=fixed(1.0), T=T, gamma=gamma, kappa=4.0,
                           tau=3.0)


@pytest.mark.parametrize("configs", [
    [_cfg("gd")], [_cfg("sgd"), _cfg("sgld")], [_cfg("gd"), _cfg("hb")],
    [_cfg("hb", gamma=0.0)], [_cfg("nag", T=1)], [_cfg("nag")], [_cfg("nag_sc")],
    [_cfg("gd"), _cfg("nag"), _cfg("hb")]],
    ids=["gd", "sgd+sgld", "gd+hb", "hb-gamma0", "nag-T1", "nag-T5", "nag_sc", "gd+nag+hb"])
@pytest.mark.parametrize("stacked", [False, True], ids=["shared", "stack"])
def test_batch_skipping_dead_terms_equals_the_all_terms_law(configs, stacked):
    # a batch steps only the terms some column's coefficients keep live; the
    # terms it skips add zeros, so every state equals the all-terms law's
    rng = np.random.Generator(np.random.Philox(41))
    members = [0, 1, 0]
    spec, data = _family_case("logistic", rng, 7, 3, len(members), stacked)
    theta0 = rng.standard_normal(3)
    got = list(batch_iterates(configs, spec, data, 9, members, theta0=theta0))
    ref = _all_terms_states(configs, spec, data, 9, members, theta0)
    assert len(got) == len(ref)
    for t, (state, expect) in enumerate(zip(got, ref)):
        assert np.array_equal(state, expect), t


@pytest.mark.parametrize("method", SAMPLED_METHODS)
def test_sampled_batch_across_step_blocks_matches_the_per_vector_reference(method):
    # a horizon of 2S + 1 steps crosses two step blocks of draws; members repeat
    # as in a coupled pair batch, each index's streams drawn once
    rng = np.random.Generator(np.random.Philox(29))
    members, T = [0, 1, 2, 0, 1, 2], 2 * S + 1
    spec, data = _family_case("logistic", rng, 7, 3, len(members), True)
    cfg = OptimizerConfig(method=method, schedule=power(2.0, 0.5), T=T, tau=3.0)
    theta0 = rng.standard_normal(3)
    batch = np.stack(list(batch_iterates([cfg], spec, data, 5, members, theta0=theta0)))
    np.testing.assert_array_equal(batch[:, :, 0],
                                  _reference_states(cfg, spec, data, 5, members, theta0))
