import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optstab.losses import (
    DataPoint,
    Dataset,
    LossConstants,
    ValidationError,
    as_param_vector,
    empirical_risk,
    empirical_risk_batch,
    empirical_risk_grad,
    lecam_convex_kinks,
    lecam_convex_spec,
    lecam_strongly_convex_spec,
    linear_worstcase_spec,
    logistic_spec,
    loss_constants,
    loss_grad,
    loss_value,
    loss_values_matrix,
    normalize_rows,
    _sigmoid,
    sample_grad,
)

RNG = np.random.Generator(np.random.Philox(20240811))


def random_point(spec, d, rng):
    if spec.family == "logistic":
        x = rng.standard_normal(d)
        x /= max(1.0, np.linalg.norm(x))
        return DataPoint.labeled(x, int(rng.integers(0, 2)))
    return DataPoint.symbol(int(rng.choice([-1, 1])))


# ---------------------------------------------------------------- values


def test_lecam_convex_center_is_zero():
    spec = lecam_convex_spec(beta=1.0, r=1.0)
    assert loss_value(spec, [-1.0], DataPoint.symbol(-1)) == 0.0


def test_lecam_convex_linear_piece_value():
    # |theta[0] + r| = 1 > r/2, so the linear piece (beta r / 4)|u| applies
    spec = lecam_convex_spec(beta=1.0, r=1.0)
    assert loss_value(spec, [0.0], DataPoint.symbol(-1)) == pytest.approx(0.25)


def test_logistic_at_zero_is_log2():
    spec = logistic_spec()
    z = DataPoint.labeled(np.array([0.3, 0.4]), 1)
    assert loss_value(spec, [0.0, 0.0], z) == pytest.approx(math.log(2.0))


def test_variant_mismatch_rejected():
    spec = logistic_spec()
    with pytest.raises(ValidationError):
        loss_value(spec, [0.0], DataPoint.symbol(1))
    with pytest.raises(ValidationError):
        loss_value(lecam_convex_spec(1.0, 1.0), [0.0],
                   DataPoint.labeled(np.array([1.0]), 1))


def test_dimension_mismatch_rejected():
    spec = logistic_spec()
    z = DataPoint.labeled(np.array([1.0, 0.0, 0.0]), 0)
    with pytest.raises(ValidationError):
        loss_value(spec, [0.0, 0.0], z)


# ---------------------------------------------------------------- gradients


def test_quadratic_gradient_identity():
    from optstab.losses import quadratic_spec

    spec = quadratic_spec(np.eye(2))
    g = loss_grad(spec, [2.0, 0.0], DataPoint.symbol(1))
    np.testing.assert_allclose(g, [2.0, 0.0])


def test_logistic_gradient_at_zero():
    spec = logistic_spec()
    x = np.array([0.6, -0.3])
    for y in (0, 1):
        g = loss_grad(spec, [0.0, 0.0], DataPoint.labeled(x, y))
        np.testing.assert_allclose(g, (0.5 - y) * x)


def test_lecam_sc_gradient():
    spec = lecam_strongly_convex_spec(beta=2.0, r=1.0)
    g = loss_grad(spec, [0.0, 0.0], DataPoint.symbol(1))
    np.testing.assert_allclose(g, [-2.0, 0.0])


def _near_kink(spec, theta, z):
    if spec.family != "lecam_convex":
        return False
    return any(abs(theta[0] - k) < 1e-4 for k in lecam_convex_kinks(spec, z.s))


@pytest.mark.parametrize("spec", [
    logistic_spec(),
    lecam_convex_spec(beta=1.0, r=1.0),
    lecam_strongly_convex_spec(beta=2.0, r=0.5),
    linear_worstcase_spec(L=1.5),
], ids=lambda s: s.family)
def test_gradient_matches_finite_differences(spec):
    d = 3
    rng = np.random.Generator(np.random.Philox(5))
    checked = 0
    while checked < 100:
        theta = rng.uniform(-2.0, 2.0, size=d)
        z = random_point(spec, d, rng)
        if _near_kink(spec, theta, z):
            continue
        g = loss_grad(spec, theta, z)
        fd = np.zeros(d)
        h = 1e-5
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            fd[i] = (loss_value(spec, theta + e, z) - loss_value(spec, theta - e, z)) / (2 * h)
        scale = max(1.0, np.linalg.norm(g))
        assert np.linalg.norm(g - fd) / scale < 1e-6, (spec.family, theta)
        checked += 1


def test_quadratic_gradient_matches_finite_differences():
    from optstab.losses import quadratic_spec

    rng = np.random.Generator(np.random.Philox(6))
    M = rng.standard_normal((4, 4))
    spec = quadratic_spec(M @ M.T / 4, rng.standard_normal(4))
    for _ in range(100):
        theta = rng.uniform(-2, 2, size=4)
        g = loss_grad(spec, theta, DataPoint.symbol(1))
        h = 1e-5
        fd = np.array([
            (loss_value(spec, theta + h * e, DataPoint.symbol(1))
             - loss_value(spec, theta - h * e, DataPoint.symbol(1))) / (2 * h)
            for e in np.eye(4)])
        assert np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g)) < 1e-5


def test_lecam_convex_kink_uses_linear_slope():
    spec = lecam_convex_spec(beta=1.0, r=1.0)
    lo, hi = lecam_convex_kinks(spec, -1)  # centered at -1: kinks at -1.5, -0.5
    g = loss_grad(spec, [hi], DataPoint.symbol(-1))
    assert g[0] == pytest.approx(0.25)  # beta*r/4 with positive sign
    g = loss_grad(spec, [lo], DataPoint.symbol(-1))
    assert g[0] == pytest.approx(-0.25)


# ---------------------------------------------------------------- risks


def test_empirical_risk_of_identical_points():
    spec = lecam_convex_spec(beta=1.0, r=1.0)
    data = Dataset.from_symbols(np.ones(7))
    theta = [0.3]
    assert empirical_risk(spec, theta, data) == pytest.approx(
        loss_value(spec, theta, DataPoint.symbol(1)))


def test_empirical_risk_linear_worstcase():
    spec = linear_worstcase_spec(L=1.0)
    data = Dataset.from_symbols(np.ones(5))
    assert empirical_risk(spec, [3.0], data) == pytest.approx(3.0)


def test_empirical_risk_lecam_symmetric_pair():
    spec = lecam_convex_spec(beta=1.0, r=1.0)
    data = Dataset.from_symbols(np.array([-1.0, 1.0]))
    assert empirical_risk(spec, [0.0], data) == pytest.approx(0.25)


def test_empirical_risk_grad_is_mean_of_sample_grads():
    from optstab.losses import quadratic_spec

    rng = np.random.Generator(np.random.Philox(8))
    X = normalize_rows(rng.standard_normal((6, 3)))
    y = rng.integers(0, 2, size=6).astype(float)
    labeled = Dataset.from_labeled(X, y)
    theta = rng.standard_normal(3)
    symbols = Dataset.from_symbols(rng.choice([-1.0, 1.0], size=6))
    M = rng.standard_normal((3, 3))
    for spec, data in ((logistic_spec(), labeled),
                       (quadratic_spec(M @ M.T, rng.standard_normal(3)), labeled),
                       (linear_worstcase_spec(L=2.0), symbols),
                       (lecam_convex_spec(beta=1.5, r=0.8), symbols),
                       (lecam_strongly_convex_spec(beta=1.5, r=0.8), symbols)):
        mean_grad = np.mean([sample_grad(spec, theta, data, i) for i in range(6)], axis=0)
        np.testing.assert_allclose(empirical_risk_grad(spec, theta, data), mean_grad,
                                   atol=1e-14, err_msg=spec.family)


def test_stacked_gradients_equal_single_vector_gradients_bitwise():
    # every vector of a stack, on the shared sample or on its own sample of a
    # stack, gets exactly the gradient a single-vector call gives
    from optstab.losses import quadratic_spec

    rng = np.random.Generator(np.random.Philox(10))
    X = normalize_rows(rng.standard_normal((4, 6, 3)))
    labeled = [Dataset.from_labeled(X[b], rng.integers(0, 2, size=6)) for b in range(4)]
    symbols = [Dataset.from_symbols(rng.choice([-1.0, 1.0], size=6)) for b in range(4)]
    thetas = rng.standard_normal((4, 3))
    rows = np.array([5, 0, 3, 3])
    M = rng.standard_normal((3, 3))
    for spec, samples in ((logistic_spec(), labeled),
                          (quadratic_spec(M @ M.T, rng.standard_normal(3)), labeled),
                          (linear_worstcase_spec(L=2.0), symbols),
                          (lecam_convex_spec(beta=1.5, r=0.8), symbols),
                          (lecam_strongly_convex_spec(beta=1.5, r=0.8), symbols)):
        stacked = Dataset.stack(samples)
        assert stacked.stack_shape == (4,) and stacked.n == 6
        for data, per_member in ((samples[0], [samples[0]] * 4), (stacked, samples)):
            np.testing.assert_array_equal(
                empirical_risk_grad(spec, thetas, data),
                [empirical_risk_grad(spec, t, d) for t, d in zip(thetas, per_member)])
            np.testing.assert_array_equal(
                sample_grad(spec, thetas, data, rows),
                [sample_grad(spec, t, d, i) for t, d, i in zip(thetas, per_member, rows)])
        with pytest.raises(ValidationError):
            sample_grad(spec, thetas, stacked, rows + 1)
    with pytest.raises(ValidationError):
        Dataset.stack([labeled[0], symbols[0]])


def test_empty_dataset_rejected():
    with pytest.raises(ValidationError):
        Dataset.from_symbols(np.array([]))


def test_loss_values_matrix_agrees_with_scalar_path():
    rng = np.random.Generator(np.random.Philox(9))
    X = normalize_rows(rng.standard_normal((5, 3)))
    y = rng.integers(0, 2, size=5).astype(float)
    data = Dataset.from_labeled(X, y)
    spec = logistic_spec()
    thetas = rng.standard_normal((4, 3))
    V = loss_values_matrix(spec, thetas, data)
    for i in range(4):
        for j in range(5):
            assert V[i, j] == pytest.approx(
                loss_value(spec, thetas[i], data.point(j)), abs=1e-12)
    np.testing.assert_allclose(empirical_risk_batch(spec, thetas, data),
                               V.mean(axis=1))


def _logaddexp_values(u, y):
    # the former np.logaddexp form, kept as the reference for _logistic_values
    return np.logaddexp(0.0, u) - y * u


def _ulp_errors(values, u, y):
    """|values - (log1p(exp(u)) - y u)| in ulps of the exact value.

    The mpmath reference works at 200 bits plus 2|u| more, which covers the
    cancellation of log1p(exp(u)) against u at y = 1 (about 1.44|u| bits).
    """
    mpmath = pytest.importorskip("mpmath")
    errs = []
    for value, ui, yi in zip(values, u, y):
        with mpmath.workprec(200 + int(2 * abs(ui))):
            m = mpmath.mpf(float(ui))
            exact = mpmath.log1p(mpmath.exp(m)) - int(yi) * m
            errs.append(float(abs(mpmath.mpf(float(value)) - exact)
                              / np.spacing(float(exact))))
    return np.array(errs)


def _margins(scale, size=1000):
    return scale * np.random.Generator(np.random.Philox(int(10 * scale))).standard_normal(size)


@pytest.mark.parametrize("scale", [0.1, 1.0, 5.0, 30.0])
@pytest.mark.parametrize("y", [0, 1])
def test_logistic_value_within_2_ulp_of_mpmath(scale, y):
    # theta = [u] against x = [1] makes the margin u exactly
    spec = logistic_spec()
    u = _margins(scale)
    values = [loss_value(spec, [ui], DataPoint.labeled([1.0], y)) for ui in u]
    assert _ulp_errors(values, u, np.full_like(u, y)).max() <= 2


def test_logaddexp_reference_fails_2_ulp_at_scale_5():
    u = _margins(5.0)
    assert _ulp_errors(_logaddexp_values(u, 1.0), u, np.ones_like(u)).max() > 2


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    st.lists(st.lists(st.floats(-60, 60), min_size=d, max_size=d), min_size=1, max_size=4),
    st.lists(st.lists(st.floats(-1, 1), min_size=d, max_size=d), min_size=1, max_size=6),
    st.lists(st.integers(0, 1), min_size=6, max_size=6))))
def test_logistic_values_match_logaddexp_reference(case):
    thetas, X, labels = np.array(case[0]), np.array(case[1]), case[2]
    y = np.array(labels[:len(X)], dtype=float)
    spec = logistic_spec()
    V = loss_values_matrix(spec, thetas, Dataset.from_labeled(X, y))
    U = thetas @ X.T
    # within the reference's own cancellation error
    assert np.all(np.abs(V - _logaddexp_values(U, y))
                  <= 4 * np.spacing(np.maximum(np.abs(U), 1.0)))
    # l(theta; (x, y)) = l(-theta; (x, 1 - y)), bit for bit
    _assert_bitwise_equal(V, loss_values_matrix(spec, -thetas,
                                                Dataset.from_labeled(X, 1.0 - y)))


def test_logistic_values_at_huge_margins_are_exact_without_warnings():
    u = np.array([1e3, -1e3, 1e6, -1e6])
    data = Dataset.from_labeled(np.ones((2, 1)), [0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        V = loss_values_matrix(logistic_spec(), u[:, None], data)
    np.testing.assert_array_equal(V, np.stack([np.maximum(u, 0.0), np.maximum(-u, 0.0)],
                                              axis=1))


def test_labels_outside_0_1_rejected():
    with pytest.raises(ValidationError):
        Dataset.from_labeled(np.ones((2, 1)), [0.0, 0.5])


def _masked_sigmoid(u):
    # the masked two-branch form, kept as the reference for _sigmoid
    out = np.empty_like(u, dtype=float)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


def _assert_bitwise_equal(a, b):
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def test_sigmoid_matches_masked_reference_bitwise():
    u = np.array([800.0, -800.0, 40.0, -40.0, 1e-3, -1e-3, 0.0])
    _assert_bitwise_equal(_sigmoid(u), _masked_sigmoid(u))


@settings(deadline=None, max_examples=300)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=40))
def test_sigmoid_matches_masked_reference_on_floats(values):
    u = np.array(values)
    _assert_bitwise_equal(_sigmoid(u), _masked_sigmoid(u))


# ---------------------------------------------------------------- constants


def test_logistic_constants():
    c = loss_constants(logistic_spec())
    assert (c.L, c.beta, c.alpha) == (1.0, 0.25, 0.0)


def test_logistic_constants_reject_unnormalized_design():
    X = np.array([[3.0, 4.0]])
    data = Dataset.from_labeled(X, np.array([1.0]))
    with pytest.raises(ValidationError):
        loss_constants(logistic_spec(), data)
    ok = Dataset.from_labeled(normalize_rows(X), np.array([1.0]))
    loss_constants(logistic_spec(), ok)


def test_quadratic_constants():
    from optstab.losses import quadratic_spec

    c = loss_constants(quadratic_spec(np.diag([1.0, 2.0]), domain_radius=1.0))
    assert (c.beta, c.alpha, c.L) == (2.0, 1.0, 2.0)


def test_lecam_sc_alpha_equals_beta():
    c = loss_constants(lecam_strongly_convex_spec(beta=3.0, r=1.0))
    assert c.alpha == c.beta == 3.0


def test_linear_worstcase_beta_zero():
    c = loss_constants(linear_worstcase_spec(L=2.0))
    assert c.beta == 0.0 and c.alpha == 0.0 and c.L == 2.0


def test_constants_validation():
    with pytest.raises(ValidationError):
        LossConstants(L=1.0, beta=1.0, alpha=2.0, R=1.0)
    with pytest.raises(ValidationError):
        LossConstants(L=0.0, beta=1.0, alpha=0.0, R=1.0)


# ---------------------------------------------------------------- normalize_rows


def test_normalize_rows_example():
    out = normalize_rows(np.array([[3.0, 4.0]]))
    np.testing.assert_allclose(out, [[0.6, 0.8]])


def test_normalize_rows_idempotent():
    X = normalize_rows(RNG.standard_normal((4, 3)))
    np.testing.assert_allclose(normalize_rows(X), X, atol=1e-15)


def test_normalize_rows_random_matrix():
    X = normalize_rows(RNG.standard_normal((5, 3)))
    np.testing.assert_allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-12)


def test_normalize_rows_zero_row_rejected():
    with pytest.raises(ValidationError):
        normalize_rows(np.array([[0.0, 0.0], [1.0, 0.0]]))


# ---------------------------------------------------------------- invariants


def test_logistic_per_sample_gradient_and_hessian_bounds():
    spec = logistic_spec()
    rng = np.random.Generator(np.random.Philox(10))
    X = normalize_rows(rng.standard_normal((50, 4)))
    for _ in range(20):
        theta = rng.uniform(-3, 3, size=4)
        for i in range(50):
            z = DataPoint.labeled(X[i], int(rng.integers(0, 2)))
            assert np.linalg.norm(loss_grad(spec, theta, z)) <= 1.0 + 1e-12
            u = X[i] @ theta
            s = 1.0 / (1.0 + math.exp(-u))
            # per-sample Hessian is s(1-s) x x^T: spectral norm s(1-s)||x||^2
            assert s * (1 - s) * (X[i] @ X[i]) <= 0.25 + 1e-12


def test_lecam_convex_piece_values_agree_at_kinks():
    beta, r = 1.3, 0.7
    spec = lecam_convex_spec(beta=beta, r=r)
    for s in (-1, 1):
        for kink in lecam_convex_kinks(spec, s):
            quad = 0.5 * beta * (kink - s * r) ** 2
            lin = 0.25 * beta * r * abs(kink - s * r)
            assert quad == pytest.approx(beta * r * r / 8)
            assert lin == pytest.approx(beta * r * r / 8)
            assert loss_value(spec, [kink], DataPoint.symbol(s)) == pytest.approx(
                beta * r * r / 8)


@pytest.mark.parametrize("spec", [
    logistic_spec(),
    lecam_strongly_convex_spec(beta=2.0, r=0.5),
    linear_worstcase_spec(L=1.5),
], ids=lambda s: s.family)
def test_midpoint_convexity(spec):
    d = 3
    rng = np.random.Generator(np.random.Philox(11))
    for _ in range(100):
        u = rng.uniform(-2, 2, size=d)
        v = rng.uniform(-2, 2, size=d)
        z = random_point(spec, d, rng)
        mid = loss_value(spec, (u + v) / 2, z)
        assert mid <= (loss_value(spec, u, z) + loss_value(spec, v, z)) / 2 + 1e-12


def test_midpoint_convexity_quadratic():
    from optstab.losses import quadratic_spec

    rng = np.random.Generator(np.random.Philox(12))
    M = rng.standard_normal((3, 3))
    spec = quadratic_spec(M @ M.T / 3, rng.standard_normal(3))
    z = DataPoint.symbol(1)
    for _ in range(100):
        u = rng.uniform(-2, 2, size=3)
        v = rng.uniform(-2, 2, size=3)
        mid = loss_value(spec, (u + v) / 2, z)
        assert mid <= (loss_value(spec, u, z) + loss_value(spec, v, z)) / 2 + 1e-12


def test_midpoint_convexity_lecam_convex_within_pieces():
    # convexity holds on each piece; the quadratic-to-linear transition at
    # |u| = r/2 is value-continuous but drops slope (quad side beta*r/2,
    # linear side beta*r/4), so segments straddling a kink are excluded here
    # and the transition itself is pinned by the companion test below.
    spec = lecam_convex_spec(beta=1.0, r=1.0)
    rng = np.random.Generator(np.random.Philox(13))
    z = DataPoint.symbol(1)
    regions = [(0.5, 1.5), (1.5, 3.0), (-2.0, 0.5)]  # quad zone and both tails
    for lo, hi in regions:
        for _ in range(40):
            a, b = rng.uniform(lo, hi, size=2)
            mid = loss_value(spec, [(a + b) / 2], z)
            assert mid <= (loss_value(spec, [a], z) + loss_value(spec, [b], z)) / 2 + 1e-12


def test_lecam_convex_transition_is_not_convex():
    # documents the designed loss's kink defect: the chord from u=0.4 to
    # u=0.6 lies below the curve at u=0.5
    spec = lecam_convex_spec(beta=1.0, r=1.0)
    z = DataPoint.symbol(1)
    a, b = 1.4, 1.6
    chord = (loss_value(spec, [a], z) + loss_value(spec, [b], z)) / 2
    assert loss_value(spec, [1.5], z) > chord


@pytest.mark.parametrize("spec", [
    logistic_spec(),
    lecam_strongly_convex_spec(beta=2.0, r=0.5),
], ids=lambda s: s.family)
def test_beta_smoothness_sampled(spec):
    c = loss_constants(spec)
    rng = np.random.Generator(np.random.Philox(14))
    d = 3
    for _ in range(100):
        u = rng.uniform(-2, 2, size=d)
        v = rng.uniform(-2, 2, size=d)
        z = random_point(spec, d, rng)
        gu = loss_grad(spec, u, z)
        gv = loss_grad(spec, v, z)
        assert np.linalg.norm(gu - gv) <= c.beta * np.linalg.norm(u - v) + 1e-12


def test_beta_smoothness_lecam_convex_within_pieces():
    spec = lecam_convex_spec(beta=1.0, r=1.0)
    rng = np.random.Generator(np.random.Philox(15))
    z = DataPoint.symbol(1)
    for lo, hi in [(0.5, 1.5), (1.5, 4.0), (-3.0, 0.5)]:
        for _ in range(40):
            a, b = rng.uniform(lo, hi, size=2)
            ga = loss_grad(spec, [a], z)
            gb = loss_grad(spec, [b], z)
            assert np.linalg.norm(ga - gb) <= 1.0 * abs(a - b) + 1e-12


def test_linear_worstcase_smoothness_is_exact_zero():
    spec = linear_worstcase_spec(L=1.0)
    g1 = loss_grad(spec, [0.0, 0.0], DataPoint.symbol(1))
    g2 = loss_grad(spec, [5.0, -3.0], DataPoint.symbol(1))
    np.testing.assert_array_equal(g1, g2)


# ---------------------------------------------------------------- datasets


def test_dataset_replace():
    data = Dataset.from_symbols(np.array([1.0, 1.0, -1.0]))
    new = data.replace(0, DataPoint.symbol(-1))
    assert new.s[0] == -1
    assert np.all(new.s[1:] == data.s[1:])
    with pytest.raises(ValidationError):
        data.replace(3, DataPoint.symbol(1))
    with pytest.raises(ValidationError):
        data.replace(0, DataPoint.labeled(np.array([1.0]), 1))


def test_param_vector_validation():
    with pytest.raises(ValidationError):
        as_param_vector([np.nan, 1.0])
    with pytest.raises(ValidationError):
        as_param_vector(np.zeros((2, 2)))
