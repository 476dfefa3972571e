import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optstab.bounds import (
    CONVEX,
    STRONGLY_CONVEX,
    stability_bound_curve,
)
from optstab.losses import (
    Dataset,
    ValidationError,
    empirical_risk_batch,
    lecam_strongly_convex_spec,
    linear_worstcase_spec,
    logistic_spec,
    loss_constants,
    loss_values_matrix,
    normalize_rows,
    quadratic_spec,
    sample_grad,
)
from optstab.optimizers import (
    METHODS,
    STOCHASTIC_METHODS,
    OptimizerConfig,
    batch_iterates,
    fixed,
    nag_momentum_sequence,
    power,
    sc_momentum,
    step_size,
)
from optstab.stability_lab import (
    StabilityTrace,
    _GAP_STEPS,
    _GapBlock,
    _coupled_gaps,
    _log_grid,
    detect_saturation,
    fit_loglog_slope,
    fit_power_law,
    reference_risk,
    repeat_and_average,
    risk_curves,
)
from optstab.streams import stream

SYMBOL_HOLDOUT = Dataset.from_symbols(np.array([1.0, -1.0]))


def logistic_fixture(n=40, d=4, seed=0):
    rng = np.random.Generator(np.random.Philox(seed))
    X = normalize_rows(rng.standard_normal((n, d)))
    y = rng.integers(0, 2, n).astype(float)
    return Dataset.from_labeled(X, y)


def run_pair(cfg, spec, data, k, z, holdout, theta0=None, seed=0):
    """Gap series of the one coupled pair (data, data with row k replaced by the
    one-point sample z)."""
    pg, sg = _coupled_gaps([cfg], spec, data, [k], z, seed, holdout, theta0)
    return StabilityTrace(param_gap=pg[0, 0], sup_loss_gap=sg[0, 0])


def _sup_gap(theta, theta_p, spec, holdout):
    """max over the holdout of |l(theta; z) - l(theta'; z)|, (..., m), for rows theta_p
    (..., m, d) against m rows theta or one row shared by them: one step of a
    ``_GapBlock``, evaluated as ``_coupled_gaps`` evaluates its blocks."""
    theta, theta_p = np.atleast_2d(theta), np.atleast_2d(theta_p)
    B, (*lead, m, d) = theta.shape[-2], theta_p.shape
    block = _GapBlock((1, *lead), B, m, d, holdout.n)
    block.rows[0, ..., :B, :], block.rows[0, ..., B:, :] = theta, theta_p
    return block.evaluate(spec, holdout, 1)[1, 0]


# ---------------------------------------------------------------- pairs


def test_make_pair_differs_only_at_k():
    data = Dataset.from_symbols(np.ones(3))
    base, perturbed = data, data.replace(1, Dataset.from_symbols([-1]))
    assert perturbed.s[1] == -1
    assert base.s[1] == 1
    assert np.all(np.delete(base.s, 1) == np.delete(perturbed.s, 1))


def test_identity_perturbation_keeps_gaps_zero_for_every_method():
    data = logistic_fixture()
    spec = logistic_spec()
    holdout = logistic_fixture(n=10, seed=99)
    for method, kw in [("gd", {}), ("sgd", {}), ("nag", {}), ("hb", {"gamma": 0.5}),
                       ("sgld", {"tau": 1.0})]:
        cfg = OptimizerConfig(method=method, schedule=fixed(0.1), T=25, **kw)
        trace = run_pair(cfg, spec, data, 2, data.point(2), holdout, seed=4)
        np.testing.assert_array_equal(trace.param_gap, 0.0)
        np.testing.assert_array_equal(trace.sup_loss_gap, 0.0)


def test_identity_perturbation_keeps_gaps_zero_over_row_blocks(monkeypatch):
    # full gradients over blocks of 7 rows of n = 40 (the last block partial):
    # members whose samples agree still follow exactly equal iterates
    from optstab import losses

    monkeypatch.setattr(losses, "_GRAD_BLOCK_BYTES", 7 * 4 * 8)
    data = logistic_fixture()
    ks = [0, 13, 39]
    configs = [OptimizerConfig(method=m, schedule=fixed(0.1), T=25, gamma=0.5)
               for m in ("gd", "nag", "hb")]
    param_gap, sup_gap = _coupled_gaps(configs, logistic_spec(), data, ks, data.take(ks), 4,
                                       logistic_fixture(n=10, seed=99), None)
    assert param_gap.shape == (3, 3, 26)
    np.testing.assert_array_equal(param_gap, 0.0)
    np.testing.assert_array_equal(sup_gap, 0.0)


def test_pair_index_out_of_range():
    data = Dataset.from_symbols(np.ones(3))
    with pytest.raises(ValidationError):
        data.replace(3, Dataset.from_symbols([-1]))


# ---------------------------------------------------------------- run_pair


def test_param_gap_zero_at_start():
    data = logistic_fixture()
    cfg = OptimizerConfig(method="gd", schedule=fixed(0.1), T=10)
    trace = run_pair(cfg, logistic_spec(), data, 0, logistic_fixture(seed=5).point(0),
                     logistic_fixture(n=8, seed=9))
    assert trace.param_gap[0] == 0.0


def test_linear_loss_gap_is_exactly_tight():
    spec = linear_worstcase_spec(L=1.0)
    data = Dataset.from_symbols(np.ones(10))
    cfg = OptimizerConfig(method="gd", schedule=fixed(0.1), T=50)
    trace = run_pair(cfg, spec, data, 0, Dataset.from_symbols([-1]), SYMBOL_HOLDOUT)
    for T in (1, 5, 50):
        expect = 2 * 0.1 * 1.0 * T / 10
        assert abs(trace.param_gap[T] - expect) <= 1e-12 * expect


def test_gd_gap_dominated_by_linear_envelope():
    data = logistic_fixture(n=50, seed=3)
    pool = logistic_fixture(n=10, seed=7)
    cfg = OptimizerConfig(method="gd", schedule=fixed(0.1), T=200)
    trace = run_pair(cfg, logistic_spec(), data, 4, pool.point(0), pool)
    ts = np.arange(201)
    c = loss_constants(logistic_spec())
    envelope = stability_bound_curve(cfg, CONVEX, c, 50, ts) / c.L
    assert np.all(trace.param_gap <= envelope + 1e-9)


def test_lipschitz_domination_of_sup_gap():
    data = logistic_fixture(n=30, seed=11)
    pool = logistic_fixture(n=20, seed=13)
    cfg = OptimizerConfig(method="nag", schedule=fixed(0.2), T=100)
    trace = run_pair(cfg, logistic_spec(), data, 1, pool.point(3), pool, seed=2)
    assert np.all(trace.sup_loss_gap <= 1.0 * trace.param_gap)


def test_strongly_convex_gap_envelope():
    spec = lecam_strongly_convex_spec(beta=1.0, r=1.0, domain_radius=2.0)
    c = loss_constants(spec)
    rng = np.random.Generator(np.random.Philox(17))
    data = Dataset.from_symbols(np.where(rng.uniform(size=50) < 0.5, 1.0, -1.0))
    cfg = OptimizerConfig(method="gd", schedule=fixed(0.5), T=500)
    trace = run_pair(cfg, spec, data, 5, Dataset.from_symbols([-int(data.s[5])]),
                     SYMBOL_HOLDOUT, theta0=np.zeros(2))
    ts = np.arange(501)
    envelope = stability_bound_curve(cfg, STRONGLY_CONVEX, c, 50, ts) / c.L
    assert np.all(trace.param_gap <= envelope + 1e-9)


# ------------------------------------------------------------- sup-gap op


def test_sup_gap_zero_for_equal_parameters():
    holdout = logistic_fixture(n=5, seed=21)
    theta = np.array([0.2, -0.1, 0.4, 0.0])
    assert _sup_gap(theta, theta, logistic_spec(), holdout) == 0.0


def test_sup_gap_linear_loss_independent_of_z():
    spec = linear_worstcase_spec(L=1.0)
    got = _sup_gap([0.3, 0.0], [0.2, 0.0], spec, SYMBOL_HOLDOUT)
    assert got == pytest.approx(0.1, abs=1e-15)


def test_sup_gap_bounded_by_lipschitz_for_logistic():
    rng = np.random.Generator(np.random.Philox(23))
    holdout = logistic_fixture(n=25, seed=29)
    for _ in range(20):
        a = rng.standard_normal(4)
        b = rng.standard_normal(4)
        gap = _sup_gap(a, b, logistic_spec(), holdout)
        assert gap <= np.linalg.norm(a - b) + 1e-12


@pytest.mark.parametrize("method", ["gd", "nag", "hb"])
def test_sup_gap_shared_base_row_matches_broadcast_form_bitwise(method):
    # a deterministic method's one base run against P perturbed runs: the
    # shared row gives the gaps of the base row broadcast to P rows, each
    # batch evaluated by its own matrix product
    spec, P = logistic_spec(), 5
    data, pool = logistic_fixture(n=40, seed=59), logistic_fixture(n=20, seed=61)
    perturbed = [data.replace(3 * i, pool.point(i)) for i in range(P)]
    samples = Dataset.stack([data] + perturbed)
    cfg = OptimizerConfig(method=method, schedule=fixed(1.0), T=40, gamma=0.5)
    for state in batch_iterates([cfg], spec, samples, 0, [0] * (P + 1)):
        state = state[:, 0]
        base = np.broadcast_to(state[:1], (P, state.shape[1]))
        expected = np.abs(loss_values_matrix(spec, base, pool)
                          - loss_values_matrix(spec, state[1:], pool)).max(axis=1)
        got = _sup_gap(state[:1], state[1:], spec, pool)
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(_sup_gap(base, state[1:], spec, pool), expected)


@pytest.mark.parametrize("method", ["gd", "sgd"])
def test_identity_perturbation_gap_is_exactly_zero_for_wide_batches(monkeypatch, method):
    # d = 10, a one-point sample and a pool of that point plus one other: a pair
    # that swaps the row for itself runs no member of its own (in one product the
    # base and perturbed rows need not round alike) and reads exactly 0 beside the
    # live pairs, whose gaps go through the holdout products
    from optstab import stability_lab

    calls = []
    evaluate = _GapBlock.evaluate

    def counted(self, *args):
        calls.append(1)
        return evaluate(self, *args)

    monkeypatch.setattr(stability_lab._GapBlock, "evaluate", counted)
    rng = np.random.Generator(np.random.Philox(5))
    X = normalize_rows(rng.standard_normal((2, 10)))
    sample = Dataset.from_labeled(X[:1], [1.0])
    pool = Dataset.from_labeled(X, [1.0, 0.0])
    cfg = OptimizerConfig(method=method, schedule=fixed(0.5), T=50)
    for reps in (6, 10, 15, 20):
        calls.clear()
        avg = repeat_and_average([cfg], logistic_spec(), sample, pool, reps=reps,
                                 theta0=0.3 * rng.standard_normal(10), seed=1)
        assert len(calls) == math.ceil((cfg.T + 1) / _GAP_STEPS)
        same = np.array([p["z"]["y"] == 1 for p in avg.perturbations])
        assert same.any() and not same.all()
        for gap in (avg.repeats.param_gap, avg.repeats.sup_loss_gap):
            np.testing.assert_array_equal(gap[:, same], 0.0)
            np.testing.assert_array_equal(gap[:, ~same, 0], 0.0)
            assert np.all(gap[:, ~same, 1:] > 0)


@pytest.mark.parametrize("method, P", [("gd", 3), ("sgd", 3), ("gd", 1)])
def test_rows_that_did_not_move_read_exactly_0_where_products_round_by_row(monkeypatch,
                                                                           method, P):
    # a values kernel that moves row i of each product by i ulps, as a BLAS product
    # may round equal rows apart by position: base row i and perturbed row i sit at
    # different positions of one product, so a pair whose runs are equal (every pair
    # at t = 0, an sgd pair until it draws its replaced row) reads exactly 0 in both
    # series only by the moved-row mask; every other entry reads more than 0
    from optstab import stability_lab

    values = stability_lab.loss_values_matrix

    def by_row(spec, thetas, data, out=None, scratch=None):
        v = values(spec, thetas, data, out, scratch)
        v += np.arange(v.shape[-2])[:, None] * np.spacing(v)
        return v

    monkeypatch.setattr(stability_lab, "loss_values_matrix", by_row)
    spec, sample, pool, theta0, _ = _family_case("logistic", 17, 12)
    cfg = OptimizerConfig(method=method, schedule=fixed(0.5), T=20)
    ks = list(range(P))
    pg, sg = _coupled_gaps([cfg], spec, sample, ks, pool.take(ks), 0, pool, theta0)
    still = pg == 0
    assert still[..., 0].all() and still[..., 1:].sum() == (37 if method == "sgd" else 0)
    assert np.all(sg[still] == 0) and np.all(pg[~still] > 0) and np.all(sg[~still] > 0)


def test_sup_gap_requires_nonempty_holdout():
    with pytest.raises(ValidationError):
        Dataset.from_symbols(np.array([]))


# ---------------------------------------------------------------- repeats


def test_single_repeat_equals_trace():
    data = logistic_fixture(n=20, seed=31)
    pool = logistic_fixture(n=10, seed=37)
    cfg = OptimizerConfig(method="gd", schedule=fixed(0.1), T=20)
    avg = repeat_and_average([cfg], logistic_spec(), data, pool, reps=1, seed=5)
    np.testing.assert_array_equal(avg.param_gap, avg.repeats.param_gap[:, 0])
    np.testing.assert_array_equal(avg.param_gap_stderr, 0.0)


def test_deterministic_methods_give_zero_stderr_for_fixed_perturbation():
    # force identical repeats by a single-point pool and n = 1 sample index
    data = Dataset.from_symbols(np.ones(1))
    pool = Dataset.from_symbols(-np.ones(1))
    spec = linear_worstcase_spec(L=1.0)
    cfg = OptimizerConfig(method="gd", schedule=fixed(0.1), T=10)
    avg = repeat_and_average([cfg], spec, data, pool, reps=6, seed=5)
    np.testing.assert_allclose(avg.param_gap_stderr, 0.0, atol=1e-15)
    np.testing.assert_allclose(avg.sup_loss_gap_stderr, 0.0, atol=1e-15)


def test_repeat_records_and_worker_independence():
    data = logistic_fixture(n=15, seed=41)
    pool = logistic_fixture(n=6, seed=43)
    cfg = OptimizerConfig(method="sgd", schedule=fixed(0.1), T=15)
    seq = repeat_and_average([cfg], logistic_spec(), data, pool, reps=5, seed=5)
    assert all(0 <= r["k"] < 15 for r in seq.perturbations)
    with pytest.raises(ValidationError):
        repeat_and_average([cfg], logistic_spec(), data, pool, reps=0, seed=5)


def _mixed_kinds():
    """A 40-point sample, a 10-point pool, and sgd, gd, sgld and nag at T = 30: the
    two gradient kinds interleaved."""
    cfgs = {m: OptimizerConfig(method=m, schedule=fixed(0.1), T=30, tau=2.0)
            for m in ("sgd", "gd", "sgld", "nag")}
    return logistic_fixture(n=40, d=3, seed=71), logistic_fixture(n=10, d=3, seed=73), cfgs


def test_mixed_kind_repeats_equal_their_per_kind_calls_bitwise():
    # one call over interleaved kinds runs each kind as its own batch, in config
    # order, on the same perturbations: its rows are those of the per-kind calls
    def series(avg):
        return (avg.param_gap, avg.param_gap_stderr, avg.sup_loss_gap,
                avg.sup_loss_gap_stderr, avg.repeats.param_gap, avg.repeats.sup_loss_gap)

    sample, pool, cfgs = _mixed_kinds()
    order = ["sgd", "gd", "sgld", "nag"]
    mixed = repeat_and_average([cfgs[m] for m in order], logistic_spec(), sample, pool,
                               reps=3, seed=9)
    rows = {}
    for kind in (["gd", "nag"], ["sgd", "sgld"]):
        avg = repeat_and_average([cfgs[m] for m in kind], logistic_spec(), sample, pool,
                                 reps=3, seed=9)
        assert avg.perturbations == mixed.perturbations
        rows.update((m, (avg, j)) for j, m in enumerate(kind))
    for i, m in enumerate(order):
        avg, j = rows[m]
        for got, want in zip(series(mixed), series(avg)):
            np.testing.assert_array_equal(got[i], want[j])


@pytest.mark.parametrize("ref_budget", [0, 20, 30, 50])
def test_mixed_kind_risk_curves_equal_their_per_kind_calls_bitwise(ref_budget):
    # budget 0: no reference; 20 < T: it runs alone; 30 and 50 >= T: it rides in
    # the full-gradient batch, in the mixed call as in the [gd, nag] one
    train, test, cfgs = _mixed_kinds()
    order = ["sgd", "gd", "nag"]
    mixed, ref = risk_curves([cfgs[m] for m in order], logistic_spec(), train, test,
                             ref_budget, seed=9)
    full, full_ref = risk_curves([cfgs["gd"], cfgs["nag"]], logistic_spec(), train, test,
                                 ref_budget, seed=9)
    (sgd,), _ = risk_curves([cfgs["sgd"]], logistic_spec(), train, test, seed=9)
    assert ref == full_ref and (ref is None) == (ref_budget == 0)
    for got, want in zip(mixed, [sgd, *full]):
        for field in ("train", "test", "gen_gap"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))


def test_lab_rejects_no_configs_and_configs_of_two_horizons():
    sample, pool, cfgs = _mixed_kinds()
    other = OptimizerConfig(method="sgd", schedule=fixed(0.1), T=20)
    for configs in ([], [cfgs["gd"], other], [cfgs["sgd"], other]):
        with pytest.raises(ValidationError, match="at least one config, all of one T"):
            repeat_and_average(configs, logistic_spec(), sample, pool, reps=2)
        with pytest.raises(ValidationError, match="at least one config, all of one T"):
            risk_curves(configs, logistic_spec(), sample, pool)


def test_a_negative_reference_budget_is_named():
    sample, pool, cfgs = _mixed_kinds()
    with pytest.raises(ValidationError, match="reference budget must be >= 0"):
        reference_risk(logistic_spec(), sample, -1)
    with pytest.raises(ValidationError, match="reference budget must be >= 0"):
        risk_curves([cfgs["gd"]], logistic_spec(), sample, pool, ref_budget=-3)


@pytest.mark.parametrize("family", ["logistic", "linear_worstcase"])
def test_perturbation_records_name_the_drawn_pool_row(family):
    # each record holds the replaced index and the pool row the repeat drew,
    # with the report's JSON types: floats for x, ints for y and s
    spec, sample, pool, theta0, beta = _family_case(family, 19, 12)
    cfg = _config("gd", 0.1, "fixed", 5, beta)
    avg = repeat_and_average([cfg], spec, sample, pool, reps=6, theta0=theta0, seed=3)
    for i, rec in enumerate(avg.perturbations):
        rng = stream(3, "perturbation", i)
        k, j = int(rng.integers(0, sample.n)), int(rng.integers(0, pool.n))
        if family == "logistic":
            z = {"kind": "labeled", "x": pool.X[j].tolist(), "y": int(pool.y[j])}
            assert all(type(v) is float for v in rec["z"]["x"])
            assert type(rec["z"]["y"]) is int
        else:
            z = {"kind": "symbol", "s": int(pool.s[j])}
            assert type(rec["z"]["s"]) is int
        assert json.dumps(rec) == json.dumps({"repeat": i, "k": k, "z": z})


# ------------------------------------------- batched vs per-pair reference


def _reference_trajectory(config, seed, member, spec, data, theta0):
    """One member stepped alone, method by method, through the public
    single-point gradients, with the index and noise streams drawn as the
    optimizers draw them (the seed's streams at ``member``)."""
    T, d = config.T, theta0.shape[0]
    indices = stream(seed, "sgd_index", member).integers(0, data.n, size=T)
    # sgld noise over the coordinates the family reads: a symbol family's theta[0]
    width = 1 if spec.variant == "symbol" else d
    noise = np.zeros((T, d))
    noise[:, :width] = stream(seed, "sgld_noise", member).standard_normal((T, width))
    gammas = nag_momentum_sequence(max(T, 1))
    thetas = [theta0]
    for t in range(1, T + 1):
        eta = step_size(config.schedule, t)
        prev = thetas[-1]
        older = thetas[-2] if t >= 2 else prev
        if config.method in ("sgd", "sgld"):
            theta = prev - eta * sample_grad(spec, prev, data, indices[t - 1])
            if config.method == "sgld":
                scale = math.sqrt(2.0 * eta / config.tau)
                theta = theta + scale * noise[t - 1]
        elif config.method == "hb":
            theta = (prev - eta * sample_grad(spec, prev, data, None)
                     + config.gamma * (prev - older))
        else:
            g = 0.0
            if t >= 2 and config.method == "nag":
                g = gammas[t - 2]
            elif t >= 2 and config.method == "nag_sc":
                g = -sc_momentum(config.kappa)
            look = (1.0 - g) * prev + g * older
            theta = look - eta * sample_grad(spec, look, data, None)
        thetas.append(theta)
    return np.array(thetas)


def _assert_bitwise_equal(a, b):
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def _reference_repeats(config, seed, spec, sample, pool, reps, theta0):
    """Per-repeat (param_gap, sup_loss_gap), one pair at a time."""
    out = []
    for i in range(reps):
        rng = stream(seed, "perturbation", i)
        k = int(rng.integers(0, sample.n))
        perturbed = sample.replace(k, pool.point(int(rng.integers(0, pool.n))))
        th = _reference_trajectory(config, seed, i, spec, sample, theta0)
        th_p = _reference_trajectory(config, seed, i, spec, perturbed, theta0)
        sup = np.abs(loss_values_matrix(spec, th, pool)
                     - loss_values_matrix(spec, th_p, pool)).max(axis=1)
        out.append((np.linalg.norm(th - th_p, axis=1), sup))
    return out


def _family_case(family, seed, n):
    """(spec, sample, pool, theta0, beta) for one drawn example."""
    rng = np.random.Generator(np.random.Philox(seed))
    if family == "logistic":
        X = normalize_rows(rng.standard_normal((n + 4, 3)))
        y = rng.integers(0, 2, n + 4).astype(float)
        data = Dataset.from_labeled(X, y)
        return (logistic_spec(), data.take(np.arange(n)), data.take(np.arange(n, n + 4)),
                0.3 * rng.standard_normal(3), 0.25)
    s = np.where(rng.uniform(size=n + 3) < 0.5, 1.0, -1.0)
    sample, pool = Dataset.from_symbols(s[:n]), Dataset.from_symbols(s[n:])
    if family == "linear_worstcase":
        return linear_worstcase_spec(L=1.5), sample, pool, np.zeros(1), 0.0
    spec = lecam_strongly_convex_spec(beta=1.0, r=1.0, domain_radius=2.0)
    return spec, sample, pool, rng.standard_normal(2), 1.0


def _config(method, eta, kind, T, beta):
    # every step-size precondition holds: eta <= 0.9 / beta and, for heavy
    # ball with gamma = 0.5, eta < 0.5 / beta
    if beta > 0:
        eta = min(eta, (0.45 if method == "hb" else 0.9) / beta)
    schedule = fixed(eta) if kind == "fixed" else power(eta, 0.5)
    return OptimizerConfig(method=method, schedule=schedule, T=T, gamma=0.5, kappa=4.0,
                           tau=2.0)


@settings(max_examples=60, deadline=None)
@given(method=st.sampled_from(METHODS),
       family=st.sampled_from(("logistic", "lecam_strongly_convex", "linear_worstcase")),
       reps=st.integers(1, 6), T=st.integers(1, 60), n=st.integers(1, 12),
       eta=st.floats(0.01, 1.0), kind=st.sampled_from(("fixed", "power")),
       data_seed=st.integers(0, 2 ** 32 - 1), seed=st.integers(0, 2 ** 16),
       start=st.booleans())
def test_batched_repeats_match_per_pair_reference(method, family, reps, T, n, eta, kind,
                                                  data_seed, seed, start):
    spec, sample, pool, theta0, beta = _family_case(family, data_seed, n)
    theta0 = theta0 if start else np.zeros_like(theta0)
    cfg = _config(method, eta, kind, T, beta)
    # the default theta0 is the zero vector of the sample's dimension; the
    # two-dimensional theta0 of the symbol family is passed
    avg = repeat_and_average([cfg], spec, sample, pool, reps=reps,
                             theta0=theta0 if start or theta0.size != sample.dim else None,
                             seed=seed)
    expected = _reference_repeats(cfg, seed, spec, sample, pool, reps, theta0)
    for i, (param_gap, sup_gap) in enumerate(expected):
        for got, want in ((avg.repeats.param_gap[0, i], param_gap),
                          (avg.repeats.sup_loss_gap[0, i], sup_gap)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            np.testing.assert_array_equal(got[want == 0], 0.0)


def _one_kind(methods):
    """The drawn methods of the first one's gradient kind, in draw order."""
    sampled = methods[0] in STOCHASTIC_METHODS
    return [m for m in methods if (m in STOCHASTIC_METHODS) == sampled]


@settings(max_examples=40, deadline=None)
@given(methods=st.lists(st.sampled_from(METHODS), min_size=1, max_size=4),
       family=st.sampled_from(("logistic", "lecam_strongly_convex")),
       reps=st.integers(2, 6), T=st.integers(1, 60), data_seed=st.integers(0, 2 ** 32 - 1),
       seed=st.integers(0, 2 ** 16))
def test_identity_perturbation_gaps_are_exactly_zero_in_a_batch(methods, family, reps, T,
                                                                data_seed, seed):
    # a one-row sample whose pool is that same row: every repeat swaps x_k for
    # itself, so every member of the batch, in every config column, must
    # follow the same iterates as its base run
    spec, sample, _, theta0, beta = _family_case(family, data_seed, 1)
    configs = [_config(m, 0.3 / (j + 1), "fixed", T, beta)
               for j, m in enumerate(_one_kind(methods))]
    avg = repeat_and_average(configs, spec, sample, sample, reps=reps, theta0=theta0,
                             seed=seed)
    assert avg.repeats.param_gap.shape == (len(configs), reps, T + 1)
    np.testing.assert_array_equal(avg.repeats.param_gap, 0.0)
    np.testing.assert_array_equal(avg.repeats.sup_loss_gap, 0.0)


@settings(max_examples=40, deadline=None)
@given(methods=st.lists(st.sampled_from(METHODS), min_size=2, max_size=4),
       etas=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
       family=st.sampled_from(("logistic", "lecam_strongly_convex", "linear_worstcase")),
       reps=st.integers(1, 4), T=st.integers(1, 60), n=st.integers(1, 12),
       kind=st.sampled_from(("fixed", "power")), data_seed=st.integers(0, 2 ** 32 - 1),
       seed=st.integers(0, 2 ** 16))
def test_method_batch_matches_one_config_batches(methods, etas, family, reps, T, n, kind,
                                                 data_seed, seed):
    # k configs of one kind as one batch against each config alone: the
    # column's margins share one product with the other columns', so they
    # may round differently, within 1e-12 of the iterates' scale
    spec, sample, pool, theta0, beta = _family_case(family, data_seed, n)
    configs = [_config(m, eta, kind, T, beta)
               for m, eta in zip(_one_kind(methods), etas)]
    rng = np.random.Generator(np.random.Philox(data_seed))
    ks, zs = zip(*((int(rng.integers(0, n)), int(rng.integers(0, pool.n)))
                   for _ in range(reps)))
    z = pool.take(list(zs))
    perturbed = [sample.replace(k, pool.point(i)) for k, i in zip(ks, zs)]
    members = [*range(reps), *range(reps)]
    samples = Dataset.stack([sample] * reps + perturbed)
    states = np.array(list(batch_iterates(configs, spec, samples, seed, members,
                                          theta0=theta0)))
    gaps = _coupled_gaps(configs, spec, sample, ks, z, seed, pool, theta0)
    for j, cfg in enumerate(configs):
        alone = np.array(list(batch_iterates([cfg], spec, samples, seed, members,
                                             theta0=theta0)))[:, :, 0]
        norms = np.linalg.norm(alone, axis=-1)
        np.testing.assert_allclose(states[:, :, j], alone, rtol=0,
                                   atol=1e-12 * norms.max())
        # per pair and step: max(||theta_t||, ||theta'_t||)
        scale = np.maximum(norms[:, :reps], norms[:, reps:]).T
        for got, want in zip((g[j] for g in gaps),
                             _coupled_gaps([cfg], spec, sample, ks, z, seed, pool, theta0)):
            assert np.all(np.abs(got - want[0]) <= 1e-12 * scale)


def _stepwise_gaps(configs, spec, base, k, z, seed, holdout, theta0):
    """_coupled_gaps one state at a time, as each state is yielded: the
    reference for its blocks of states.  As there, one batch on the one sample
    plus the swaps, and a pair whose z row equals row k[i] runs no member."""
    P = len(k)
    live = [i for i in range(P) if not all(np.array_equal(a[i], b[k[i]])
                                           for a, b in zip(z._arrays, base._arrays))]
    runs = live if configs[0].sampled else [0]
    B = len(runs)
    param_gap, sup_gap = np.zeros((2, len(configs), P, configs[0].T + 1))
    swaps = ([-1] * B + [k[i] for i in live], z.take(live))
    for t, state in enumerate(batch_iterates(configs, spec, base, seed, [*runs, *live],
                                             theta0=theta0, swaps=swaps)):
        theta, theta_p = state[:B].swapaxes(0, 1), state[B:].swapaxes(0, 1)
        param_gap[:, live, t] = np.linalg.norm(theta - theta_p, axis=-1)
        sup_gap[:, live, t] = _sup_gap(theta, theta_p, spec, holdout)
    return param_gap, sup_gap


_BLOCK_METHODS = [("gd", "nag", "hb"), ("sgd", "sgld")]
# (family, methods, layout): "pairs", P = 5; "one-pair", one deterministic pair,
# whose base and perturbed rows take one two-row product; "grouped", P = 5 under a
# lowered _PRODUCT_MACS: each state's base rows, then its perturbed rows, 3 rows a
# product (gd's 6 rows in 2 products, sgd's 10 in 4)
_BLOCK_CASES = [pytest.param(family, methods, "pairs", id=f"{family}-methods{i}")
                for family in ("logistic", "linear_worstcase", "quadratic")
                for i, methods in enumerate(_BLOCK_METHODS)] + [
    pytest.param(family, _BLOCK_METHODS[0], "one-pair", id=f"{family}-one-pair")
    for family in ("logistic", "linear_worstcase", "quadratic")] + [
    pytest.param(family, methods, "grouped", id=f"{family}-grouped-methods{i}")
    for family in ("logistic", "linear_worstcase", "quadratic")
    for i, methods in enumerate(_BLOCK_METHODS)]


@pytest.mark.parametrize("family, methods, layout", _BLOCK_CASES)
def test_blocked_gaps_match_per_step_reference_bitwise(monkeypatch, family, methods, layout):
    # one shared base run (gd, nag, hb) or one base run per pair (sgd, sgld);
    # T + 1 = 38 states end on a partial block
    from optstab import stability_lab

    T, P = 37, 1 if layout == "one-pair" else 5
    assert (T + 1) % _GAP_STEPS
    spec, sample, pool, theta0, beta = _family_case(family.replace("quadratic", "logistic"),
                                                    17, 12)
    if family == "quadratic":  # sample independent: every pair's gaps are exactly 0
        spec, beta = quadratic_spec(np.diag([1.0, 0.5, 0.25]), [0.3, -0.2, 0.1]), 1.0
    if layout == "grouped":
        monkeypatch.setattr(stability_lab, "_PRODUCT_MACS", 3 * theta0.size * pool.n)
        block = stability_lab._GapBlock((1,), 1, P, theta0.size, pool.n)
        assert block.per == 3
    configs = [_config(m, 0.5, "fixed", T, beta) for m in methods]
    ks, z = [2 * i for i in range(P)], pool.take([i % pool.n for i in range(P)])
    if layout == "one-pair":  # the first row that differs from z's, so the pair runs
        ks = [next(k for k in range(sample.n) if not np.array_equal(sample._arrays[0][k],
                                                                    z._arrays[0][0]))]
    got = _coupled_gaps(configs, spec, sample, ks, z, 3, pool, theta0)
    want = _stepwise_gaps(configs, spec, sample, ks, z, 3, pool, theta0)
    for g, w in zip(got, want):
        assert g.shape == (len(methods), P, T + 1)
        assert np.any(w[..., -1] > 0) == (family != "quadratic")
        _assert_bitwise_equal(g, w)
    for g in _coupled_gaps(configs, spec, sample, ks, sample.take(ks), 3, pool, theta0):
        _assert_bitwise_equal(g, np.zeros_like(g))
    if layout == "grouped":  # the gaps of one product per step, up to its rounding
        monkeypatch.undo()
        for g, w in zip(got, _coupled_gaps(configs, spec, sample, ks, z, 3, pool, theta0)):
            np.testing.assert_allclose(g, w, rtol=1e-13, atol=1e-15)


def _stacked_gaps(configs, spec, base, k, z, seed, holdout, theta0):
    """The gap series of the P pairs as one batch on a Dataset.stack of copies of
    the sample (B base copies, then each pair's base.replace(k[i], z_i)), one state
    at a time; and the largest iterate norm of the run."""
    P = len(k)
    B = P if configs[0].sampled else 1
    samples = Dataset.stack([base] * B + [base.replace(k[i], z.point(i)) for i in range(P)])
    gaps, scale = np.empty((2, len(configs), P, configs[0].T + 1)), 0.0
    for t, state in enumerate(batch_iterates(configs, spec, samples, seed,
                                             [*range(B), *range(P)], theta0=theta0)):
        theta, theta_p = state[:B].swapaxes(0, 1), state[B:].swapaxes(0, 1)
        gaps[0][..., t] = np.linalg.norm(theta - theta_p, axis=-1)
        gaps[1][..., t] = _sup_gap(theta, theta_p, spec, holdout)
        scale = max(scale, np.linalg.norm(state, axis=-1).max())
    return gaps, scale


@pytest.mark.parametrize("methods", [("gd", "nag", "hb"), ("sgd", "sgld")])
@pytest.mark.parametrize("family", ["logistic", "logistic-blocked", "linear_worstcase",
                                    "lecam_strongly_convex", "quadratic"])
def test_shared_design_gaps_equal_the_stacked_form(monkeypatch, family, methods):
    # the pairs run on the one sample plus per-member swaps, against each perturbed
    # run on its own copy of the sample: sgd and sgld bitwise (the same rows), gd,
    # nag and hb within 1e-13 of the iterates' scale (every member's margins in
    # one product); pairs that swap a row for itself read exactly 0
    from optstab import losses

    if family == "logistic-blocked":  # blocks of 5 rows over n = 12 and the 4 swaps
        monkeypatch.setattr(losses, "_GRAD_BLOCK_BYTES", 5 * 3 * 8)
    T, P = 37, 6
    spec, sample, pool, theta0, beta = _family_case(family.split("-")[0].replace(
        "quadratic", "logistic"), 19, 12)
    if family == "quadratic":
        spec, beta = quadratic_spec(np.diag([1.0, 0.5, 0.25]), [0.3, -0.2, 0.1]), 1.0
    configs = [_config(m, 0.5, "fixed", T, beta) for m in methods]
    ks, live = [2 * i for i in range(P)], [0, 2, 3, 4, 5]
    # pair 1 swaps its row for itself; the others swap in a pool row or a flipped symbol
    if sample.kind == "labeled":
        X, y = pool.X[np.arange(P) % pool.n], pool.y[np.arange(P) % pool.n]
        X[1], y[1] = sample.X[ks[1]], sample.y[ks[1]]
        z = Dataset.from_labeled(X, y)
    else:
        z = Dataset.from_symbols(np.where(np.arange(P) == 1, 1, -1) * sample.s[ks])
    got = _coupled_gaps(configs, spec, sample, ks, z, 3, pool, theta0)
    want, scale = _stacked_gaps(configs, spec, sample, ks, z, 3, pool, theta0)
    for g, w in zip(got, want):
        assert g.shape == (len(methods), P, T + 1)
        assert (family == "quadratic") == (not np.any(w[:, live, -1] > 0))
        if methods[0] == "sgd":
            _assert_bitwise_equal(g[:, live], w[:, live])
        else:
            assert np.abs(g - w)[:, live].max() <= 1e-13 * scale
        np.testing.assert_array_equal(np.delete(g, live, axis=1), 0.0)
    for g in _coupled_gaps(configs, spec, sample, ks, sample.take(ks), 3, pool, theta0):
        _assert_bitwise_equal(g, np.zeros_like(g))


@pytest.mark.parametrize("method", ["gd", "sgd"])
def test_a_replacement_point_off_the_unit_sphere_is_rejected(method):
    # the logistic constants hold on unit rows only: a pool row of norm 2 that a
    # repeat swaps in fails the check, as it would as a row of the sample
    data = logistic_fixture(n=20)
    pool = Dataset.from_labeled(2.0 * logistic_fixture(n=3, seed=1).X, [0.0, 1.0, 1.0])
    cfg = OptimizerConfig(method=method, schedule=fixed(0.1), T=5)
    with pytest.raises(ValidationError, match="unit-norm rows"):
        repeat_and_average([cfg], logistic_spec(), data, pool, reps=3)


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


def _lstsq_loglog(x, y):
    """Least-squares line y ~ coef[0] x + coef[1] by np.linalg.lstsq: (sum of
    squared residuals, coef, residuals), the reference for the closed form."""
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    return float(resid @ resid), coef, resid


@settings(max_examples=100, deadline=None)
@given(T=st.integers(20, 3000), exponent=st.floats(-2.0, 2.0), sigma=st.floats(0.0, 0.3),
       seed=st.integers(0, 2 ** 32 - 1))
@example(T=1681, exponent=2.0, sigma=0.0, seed=0)  # an exact law: both rms are rounding
@example(T=1681, exponent=2.0, sigma=1e-9, seed=0)  # rms far below the log values' size
def test_fit_power_law_matches_lstsq(T, exponent, sigma, seed):
    t = _log_grid(max(1, T // 10), T).astype(float)
    v = _noisy(3.0 * t ** exponent, sigma, seed)
    x, y = np.log(t), np.log(v)
    _, coef, resid = _lstsq_loglog(x, y)
    fit = fit_power_law(t, v)
    assert fit.exponent == pytest.approx(coef[0], rel=1e-12, abs=1e-13)
    assert fit.intercept == pytest.approx(coef[1], rel=1e-12, abs=1e-12)
    # Both rms are of residuals r_i = y_i - (c0 x_i + c1) evaluated in floating point,
    # the fit's with its own coefficients.  Evaluating one residual (a product, a sum
    # and a difference) rounds it by at most 3 eps M_i, M_i = |y_i| + |c0 x_i| + |c1|
    # the magnitudes it cancels, to first order; the two coefficient pairs differ by
    # (dc0, dc1).  So r_fit - r_ref = -(dc0 x_i + dc1) + (at most 6 eps M_i), and by
    # the triangle inequality for the rms, |rms_fit - rms_ref| <= rms(dc0 x + dc1)
    # + 6 eps rms(M).  At an exact power law both rms are this rounding alone (about
    # 1e-14 from the reference at T = 1681, about 1e-15 from the fit), so no fixed
    # absolute tolerance below it holds; the rms and mean themselves round relatively
    # (rel).
    eps = np.finfo(float).eps
    rms = lambda r: float(np.sqrt(np.mean(r ** 2)))
    M = np.abs(y) + np.abs(coef[0] * x) + np.abs(coef[1])
    tol = rms((fit.exponent - coef[0]) * x + (fit.intercept - coef[1])) + 6 * eps * rms(M)
    assert fit.residual_rms == pytest.approx(rms(resid), rel=1e-9, abs=tol)


def _lstsq_saturation(values, t_lo, t_hi):
    """detect_saturation with one lstsq fit per segment of every split: the
    reference for its cumulative-sum pass."""
    grid = _log_grid(t_lo, t_hi)
    if grid.size < 16:
        return t_hi
    v = values[grid]
    if np.any(v <= 0):
        return t_hi
    x, y = np.log(grid.astype(float)), np.log(v)
    sse_single, _, _ = _lstsq_loglog(x, y)
    best = None
    for j in range(6, grid.size - 6):
        sse_head, coef_head, _ = _lstsq_loglog(x[:j], y[:j])
        sse_tail, coef_tail, _ = _lstsq_loglog(x[j:], y[j:])
        if best is None or sse_head + sse_tail < best[0]:
            best = (sse_head + sse_tail, j, coef_head, coef_tail)
    sse_split, j, coef_head, coef_tail = best
    if sse_split < 0.5 * sse_single and coef_tail[0] < 0.75 * coef_head[0]:
        return int(grid[j])
    return t_hi


def _noisy(v, sigma, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return v * np.exp(sigma * rng.standard_normal(v.shape))


@settings(max_examples=200, deadline=None)
@given(T=st.integers(20, 3000), head=st.floats(0.3, 2.0), tail=st.floats(0.0, 1.5),
       where=st.floats(0.0, 1.0), sigma=st.floats(1e-4, 0.3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_saturation_onset_matches_lstsq_split_loop_on_broken_power_laws(T, head, tail,
                                                                        where, sigma, seed):
    t_lo = max(1, T // 10)
    t = np.maximum(np.arange(T + 1, dtype=float), 1.0)
    t_break = t_lo + where * (T - t_lo)
    v = _noisy(np.where(t < t_break, t ** head,
                        t_break ** (head - tail) * t ** tail), sigma, seed)
    assert detect_saturation(v, t_lo, T) == _lstsq_saturation(v, t_lo, T)


@settings(max_examples=100, deadline=None)
@given(T=st.integers(20, 3000), exponent=st.floats(0.3, 2.0), sigma=st.floats(0.0, 0.3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_saturation_onset_matches_lstsq_split_loop_on_pure_power_laws(T, exponent, sigma,
                                                                      seed):
    t_lo = max(1, T // 10)
    v = _noisy(np.maximum(np.arange(T + 1, dtype=float), 1.0) ** exponent, sigma, seed)
    assert detect_saturation(v, t_lo, T) == _lstsq_saturation(v, t_lo, T)


# ---------------------------------------------------------------- risks


@pytest.mark.parametrize("T", [62, 63, 64, 130])
def test_streamed_risk_curves_equal_the_stored_trace_risks_bitwise(T):
    # risks taken block by block as the batch advances equal empirical_risk_batch
    # over the whole stored (k, T+1, d) trace, for 63 to 131 states: a last block
    # of 63, 64, 1 or 3 states; train and test of 2,000 x 20, whose products take
    # the BLAS's blocked path
    rng = np.random.Generator(np.random.Philox(61))
    X = normalize_rows(rng.standard_normal((4000, 20)))
    y = rng.integers(0, 2, 4000).astype(float)
    train, test = Dataset.from_labeled(X[:2000], y[:2000]), Dataset.from_labeled(X[2000:],
                                                                                 y[2000:])
    cfgs = [OptimizerConfig(method=m, schedule=fixed(0.5), T=T, gamma=0.5 * (m == "hb"))
            for m in ("gd", "nag", "hb")]
    curves, _ = risk_curves(cfgs, logistic_spec(), train, test, seed=7)
    trace = np.stack([s[0] for s in batch_iterates(cfgs, logistic_spec(), train, 7, [0])],
                     axis=1)
    for rc, a, b in zip(curves, empirical_risk_batch(logistic_spec(), trace, train),
                        empirical_risk_batch(logistic_spec(), trace, test)):
        np.testing.assert_array_equal(rc.train, a)
        np.testing.assert_array_equal(rc.test, b)


def test_risk_curves_gap_zero_when_test_equals_train():
    data = logistic_fixture(n=30, seed=51)
    cfg = OptimizerConfig(method="gd", schedule=fixed(0.1), T=30)
    (rc,), _ = risk_curves([cfg], logistic_spec(), data, data)
    np.testing.assert_allclose(rc.gen_gap, 0.0, atol=1e-15)


def test_risk_curves_reference_minimizer_self_consistent():
    data = logistic_fixture(n=25, seed=53)
    cfg = OptimizerConfig(method="gd", schedule=fixed(1.0), T=400)
    (rc,), _ = risk_curves([cfg], logistic_spec(), data, data)
    opt_error = rc.train - reference_risk(logistic_spec(), data, 2000)
    # by T = 400 a 1/beta-step GD run is essentially at the reference minimum
    assert opt_error[-1] == pytest.approx(0.0, abs=1e-4)
    assert np.all(opt_error >= -1e-9)


def test_reference_risk_rejects_a_loss_without_curvature():
    with pytest.raises(ValidationError, match="beta > 0"):
        reference_risk(linear_worstcase_spec(L=1.0), SYMBOL_HOLDOUT, 10)


def test_optimization_error_dominates_in_underparameterized_regime():
    # d = 20, n = 2000: while the method is still descending, the
    # optimization error is the dominant term of the risk decomposition
    from optstab.harness.data import gen_synthetic

    train, _ = gen_synthetic(20, 2000, seed=31)
    test, _ = gen_synthetic(20, 2000, seed=32)
    windows = {"gd": (10, 500), "nag": (10, 80)}  # nag reaches the empirical
    # minimum around t ~ 90 here, after which the comparison flips trivially
    ref = reference_risk(logistic_spec(), train, 10000)
    for method, (lo, hi) in windows.items():
        cfg = OptimizerConfig(method=method, schedule=fixed(0.1), T=500)
        (rc,), _ = risk_curves([cfg], logistic_spec(), train, test, seed=3)
        opt_error = rc.train - ref
        ts = np.arange(lo, hi + 1)
        assert np.all(opt_error[ts] > np.abs(rc.gen_gap[ts])), method


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
        cfg = OptimizerConfig(method="gd", schedule=fixed(eta), T=T)
        (rc,), _ = risk_curves([cfg], spec, train, test, seed=seed)
        gaps.append(rc.gen_gap[-1])
    bound = stability_bound_curve(cfg, CONVEX, loss_constants(spec), n, [T])[0]
    stderr = np.std(gaps, ddof=1) / math.sqrt(len(gaps))
    assert np.mean(gaps) <= bound + 3 * stderr
