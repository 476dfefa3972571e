import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from optstab.losses import (
    Dataset,
    LossConstants,
    ValidationError,
    as_param_vector,
    empirical_risk,
    empirical_risk_batch,
    lecam_convex_kinks,
    lecam_convex_spec,
    lecam_strongly_convex_spec,
    linear_worstcase_spec,
    logistic_spec,
    loss_constants,
    loss_values_matrix,
    normalize_rows,
    quadratic_spec,
    _EXP_CAP,
    _RISK_ROWS,
    _block_grad,
    _block_rows,
    _logistic_values,
    _residual,
    _swap_rows,
    sample_grad,
)

RNG = np.random.Generator(np.random.Philox(20240811))


def random_point(spec, d, rng):
    if spec.family == "logistic":
        x = rng.standard_normal(d)
        x /= max(1.0, np.linalg.norm(x))
        return Dataset.from_labeled([x], [int(rng.integers(0, 2))])
    return Dataset.from_symbols([int(rng.choice([-1, 1]))])


# ---------------------------------------------------------------- values


def test_lecam_convex_center_is_zero():
    spec = lecam_convex_spec(beta=1.0, r=1.0)
    assert empirical_risk(spec, [-1.0], Dataset.from_symbols([-1])) == 0.0


def test_lecam_convex_linear_piece_value():
    # |theta[0] + r| = 1 > r/2, so the linear piece (beta r / 2)|u| - beta r^2 / 8 applies
    spec = lecam_convex_spec(beta=1.0, r=1.0)
    assert empirical_risk(spec, [0.0], Dataset.from_symbols([-1])) == pytest.approx(0.375)


def test_logistic_at_zero_is_log2():
    spec = logistic_spec()
    z = Dataset.from_labeled([np.array([0.3, 0.4])], [1])
    assert empirical_risk(spec, [0.0, 0.0], z) == pytest.approx(math.log(2.0))


def test_variant_mismatch_rejected():
    spec = logistic_spec()
    with pytest.raises(ValidationError):
        empirical_risk(spec, [0.0], Dataset.from_symbols([1]))
    with pytest.raises(ValidationError):
        empirical_risk(lecam_convex_spec(1.0, 1.0), [0.0],
                       Dataset.from_labeled([np.array([1.0])], [1]))


def test_dimension_mismatch_rejected():
    spec = logistic_spec()
    z = Dataset.from_labeled([np.array([1.0, 0.0, 0.0])], [0])
    with pytest.raises(ValidationError):
        empirical_risk(spec, [0.0, 0.0], z)


# ---------------------------------------------------------------- gradients


def test_quadratic_gradient_identity():
    from optstab.losses import quadratic_spec

    spec = quadratic_spec(np.eye(2))
    g = sample_grad(spec, [2.0, 0.0], Dataset.from_symbols([1]), None)
    np.testing.assert_allclose(g, [2.0, 0.0])


def test_logistic_gradient_at_zero():
    spec = logistic_spec()
    x = np.array([0.6, -0.3])
    for y in (0, 1):
        g = sample_grad(spec, [0.0, 0.0], Dataset.from_labeled([x], [y]), None)
        np.testing.assert_allclose(g, (0.5 - y) * x)


def test_lecam_sc_gradient():
    spec = lecam_strongly_convex_spec(beta=2.0, r=1.0)
    g = sample_grad(spec, [0.0, 0.0], Dataset.from_symbols([1]), None)
    np.testing.assert_allclose(g, [-2.0, 0.0])


def _near_kink(spec, theta, z):
    if spec.family != "lecam_convex":
        return False
    return any(abs(theta[0] - k) < 1e-4 for k in lecam_convex_kinks(spec, int(z.s[0])))


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
        g = sample_grad(spec, theta, z, None)
        fd = np.zeros(d)
        h = 1e-5
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            fd[i] = (empirical_risk(spec, theta + e, z)
                     - empirical_risk(spec, theta - e, z)) / (2 * h)
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
        g = sample_grad(spec, theta, Dataset.from_symbols([1]), None)
        h = 1e-5
        fd = np.array([
            (empirical_risk(spec, theta + h * e, Dataset.from_symbols([1]))
             - empirical_risk(spec, theta - h * e, Dataset.from_symbols([1]))) / (2 * h)
            for e in np.eye(4)])
        assert np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g)) < 1e-5


def test_lecam_convex_kink_uses_linear_slope():
    spec = lecam_convex_spec(beta=1.0, r=1.0)
    lo, hi = lecam_convex_kinks(spec, -1)  # centered at -1: kinks at -1.5, -0.5
    g = sample_grad(spec, [hi], Dataset.from_symbols([-1]), None)
    assert g[0] == pytest.approx(0.5)  # beta*r/2 with positive sign
    g = sample_grad(spec, [lo], Dataset.from_symbols([-1]), None)
    assert g[0] == pytest.approx(-0.5)


# ---------------------------------------------------------------- risks


def test_empirical_risk_of_identical_points():
    spec = lecam_convex_spec(beta=1.0, r=1.0)
    data = Dataset.from_symbols(np.ones(7))
    theta = [0.3]
    assert empirical_risk(spec, theta, data) == pytest.approx(
        empirical_risk(spec, theta, Dataset.from_symbols([1])))


def test_empirical_risk_linear_worstcase():
    spec = linear_worstcase_spec(L=1.0)
    data = Dataset.from_symbols(np.ones(5))
    assert empirical_risk(spec, [3.0], data) == pytest.approx(3.0)


def test_empirical_risk_lecam_symmetric_pair():
    spec = lecam_convex_spec(beta=1.0, r=1.0)
    data = Dataset.from_symbols(np.array([-1.0, 1.0]))
    assert empirical_risk(spec, [0.0], data) == pytest.approx(0.375)


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
        np.testing.assert_allclose(sample_grad(spec, theta, data, None), mean_grad,
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
                sample_grad(spec, thetas, data, None),
                [sample_grad(spec, t, d, None) for t, d in zip(thetas, per_member)])
            np.testing.assert_array_equal(
                sample_grad(spec, thetas, data, rows),
                [sample_grad(spec, t, d, i) for t, d, i in zip(thetas, per_member, rows)])
        with pytest.raises(ValidationError):
            sample_grad(spec, thetas, stacked, rows + 1)
    with pytest.raises(ValidationError):
        Dataset.stack([labeled[0], symbols[0]])


def test_block_gradients_equal_one_vector_blocks():
    # a (B, k, d) block stack against a stack of B samples, with one row per
    # block for sampled gradients: column j agrees with each vector alone to
    # rounding (the k margins of a block share one product), and the block
    # k = 1 is the public per-vector call bit for bit
    from optstab.losses import quadratic_spec

    rng = np.random.Generator(np.random.Philox(14))
    X = normalize_rows(rng.standard_normal((4, 7, 3)))
    labeled = Dataset.stack([Dataset.from_labeled(X[b], rng.integers(0, 2, size=7))
                             for b in range(4)])
    symbols = Dataset.stack([Dataset.from_symbols(rng.choice([-1.0, 1.0], size=7))
                             for b in range(4)])
    thetas = rng.standard_normal((4, 3, 3))
    rows = np.array([6, 0, 2, 2])
    M = rng.standard_normal((3, 3))
    for spec, data in ((logistic_spec(), labeled),
                       (quadratic_spec(M @ M.T, rng.standard_normal(3)), labeled),
                       (linear_worstcase_spec(L=2.0), symbols),
                       (lecam_convex_spec(beta=1.5, r=0.8), symbols),
                       (lecam_strongly_convex_spec(beta=1.5, r=0.8), symbols)):
        for i in (None, rows):
            block = _block_grad(spec, thetas, data, i)
            assert block.shape == thetas.shape
            for j in range(3):
                alone = sample_grad(spec, thetas[:, j], data, i)
                np.testing.assert_allclose(block[:, j], alone, rtol=1e-13, atol=1e-15,
                                           err_msg=spec.family)
                np.testing.assert_array_equal(
                    _block_grad(spec, thetas[:, j:j + 1], data, i)[:, 0], alone)


def _unsigned_grad(thetas, X, y):
    """The logistic mean gradient in the unsigned form the one-block and
    sampled-row kernels once took: negated margins W = -theta @ X^T on the
    d-major design, signed by a pass W *= s, then the residual s / (1 + e^W)
    contracted with X (s = 1 - 2y)."""
    s = (1.0 - 2.0 * y)[..., None, :]
    W = -thetas @ np.ascontiguousarray(X.swapaxes(-1, -2))
    W *= s
    np.minimum(W, _EXP_CAP, out=W)
    np.exp(W, out=W)
    W += 1.0
    return np.divide(s, W, out=W) @ X / X.shape[-2]


def _unsigned_values(thetas, X, y):
    """The logistic losses in the unsigned form the one-block values kernel once
    took: margins on the d-major design, signed by a pass V *= s, then softplus."""
    V = thetas @ np.ascontiguousarray(X.swapaxes(-1, -2))
    V *= (1.0 - 2.0 * y)[..., None, :]
    return np.maximum(V, 0.0) + np.log1p(np.exp(-np.abs(V)))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_row_blocked_gradient_matches_one_block_contraction(monkeypatch, k):
    # blocks of 5 rows over n = 23 (four full blocks, then a partial one), on
    # a shared sample and on a stack: the partial gradients summed in block
    # order agree with the whole design's contraction to 1e-13 relative, and
    # the backward walk visits the blocks last to first yet is bitwise the
    # forward walk
    from optstab import losses

    rng = np.random.Generator(np.random.Philox(30 + k))
    n, d = 23, 4
    X = normalize_rows(rng.standard_normal((3, n, d)))
    y = rng.integers(0, 2, size=(3, n)).astype(float)
    stacked = Dataset.stack([Dataset.from_labeled(X[b], y[b]) for b in range(3)])
    thetas = 2.0 * rng.standard_normal((3, k, d))
    calls = []
    monkeypatch.setattr(losses, "_residual",
                        lambda W, s=None, weights=None:
                        calls.append(W.shape) or _residual(W, s, weights))
    monkeypatch.setattr(losses, "_GRAD_BLOCK_BYTES", 5 * d * X.itemsize)
    for data, whole in ((Dataset.from_labeled(X[0], y[0]), _unsigned_grad(thetas, X[0], y[0])),
                        (stacked, _unsigned_grad(thetas, X, y))):
        calls.clear()
        blocked = _block_grad(logistic_spec(), thetas, data, None)
        assert calls == [(3, k, 5)] * 4 + [(3, k, 3)]
        np.testing.assert_allclose(blocked, whole, rtol=0,
                                   atol=1e-13 * np.abs(whole).max())
        calls.clear()
        np.testing.assert_array_equal(_block_grad(logistic_spec(), thetas, data, None, True),
                                      blocked)
        assert calls == [(3, k, 3)] + [(3, k, 5)] * 4


def _per_row_grad(thetas, X, y):
    """The logistic mean gradient summed one row at a time, for (k, d) thetas."""
    g = np.zeros_like(thetas)
    for x, label in zip(X, y):
        g += (1.0 / (1.0 + np.exp(-(thetas @ x))) - label)[:, None] * x
    return g / len(X)


@settings(deadline=None, max_examples=60)
@given(k=st.integers(1, 6), d=st.integers(1, 6), n=st.integers(2, 40),
       rows=st.integers(1, 39), members=st.sampled_from([None, 2]),
       reverse=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_full_gradient_matches_per_row_reference(k, d, n, rows, members, reverse, seed):
    # k = 1..6 columns over a design of at least two row blocks (the last one
    # possibly partial), on a shared sample or a stack, walked either way:
    # within 1e-12 of the gradient's scale of the row-by-row sum
    from optstab import losses

    rng = np.random.Generator(np.random.Philox(seed))
    shape = (n,) if members is None else (members, n)
    X = normalize_rows(rng.standard_normal((int(np.prod(shape)), d))).reshape(shape + (d,))
    y = rng.integers(0, 2, size=shape).astype(float)
    thetas = 3.0 * rng.standard_normal(shape[:-1] + (k, d))
    data = Dataset.from_labeled(X, y)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(losses, "_GRAD_BLOCK_BYTES", min(rows, n - 1) * d * X.itemsize)
        got = _block_grad(logistic_spec(), thetas, data, None, reverse)
    want = (_per_row_grad(thetas, X, y) if members is None else
            np.stack([_per_row_grad(thetas[b], X[b], y[b]) for b in range(members)]))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_one_block_gradient_is_the_whole_design_contraction_bitwise():
    # a design that fits in one block (d = 10 up to n = 8000) takes exactly
    # the whole-design operations, for single vectors and for k = 3 blocks
    rng = np.random.Generator(np.random.Philox(31))
    X = normalize_rows(rng.standard_normal((8000, 10)))
    y = rng.integers(0, 2, size=8000).astype(float)
    data = Dataset.from_labeled(X, y)
    for thetas in (rng.standard_normal((1, 1, 10)), rng.standard_normal((2, 3, 10))):
        np.testing.assert_array_equal(
            _block_grad(logistic_spec(), thetas, data, None),
            _unsigned_grad(thetas, X, y))


def _one_block_stack(seed, members=11, n=500, d=10):
    rng = np.random.Generator(np.random.Philox(seed))
    X = normalize_rows(rng.standard_normal((members * n, d))).reshape(members, n, d)
    y = rng.integers(0, 2, size=(members, n)).astype(float)
    return rng, X, y, Dataset.from_labeled(X, y)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_one_block_gradient_of_a_stack_member_is_its_own_bitwise(k):
    # each member of an 11-sample one-block stack takes the bytes of its sample
    # alone; column j of the k-column block agrees with the 1-column block to
    # rounding (a one-column product takes the BLAS's matrix-vector kernel)
    rng, X, y, stack = _one_block_stack(40 + k)
    thetas = 2.0 * rng.standard_normal((11, k, 10))
    got = _block_grad(logistic_spec(), thetas, stack, None)
    for b in range(11):
        np.testing.assert_array_equal(
            got[b], _block_grad(logistic_spec(), thetas[b], Dataset.from_labeled(X[b], y[b]),
                                None))
    for j in range(k):
        np.testing.assert_allclose(got[:, j],
                                   _block_grad(logistic_spec(), thetas[:, j:j + 1], stack,
                                               None)[:, 0], rtol=1e-13, atol=1e-15)


@settings(deadline=None, max_examples=80)
@given(members=st.sampled_from([None, 1, 3]), n=st.integers(1, 30), d=st.integers(1, 5),
       k=st.integers(1, 5), labels=st.sampled_from(["mixed", "zeros", "ones"]),
       scale=st.sampled_from([1.0, 30.0, 1e3, 1e6]), seed=st.integers(0, 2 ** 32 - 1))
def test_signed_kernels_equal_the_unsigned_forms_bitwise(members, n, d, k, labels, scale,
                                                         seed):
    # the one-block gradient and values kernels and the sampled-row gradient read
    # signed operands, yet give the bytes of the unsigned forms s / (1 + e^W) @ X and
    # V *= s: on a sample or a one-block stack whose member 0 is a perturbed copy
    # drawing its replaced row, with mixed labels or all 0 or all 1, and at margins
    # up to about 1e6, where no warning may be raised; the design is left as it was
    rng = np.random.Generator(np.random.Philox(seed))
    shape = (n,) if members is None else (members, n)
    X = normalize_rows(rng.standard_normal((int(np.prod(shape)), d))).reshape(shape + (d,))
    y = {"mixed": rng.integers(0, 2, size=shape).astype(float), "zeros": np.zeros(shape),
         "ones": np.ones(shape)}[labels]
    rows = rng.integers(0, n, size=shape[:-1])
    if members is None:
        data = Dataset.from_labeled(X, y)
    else:
        samples = [Dataset.from_labeled(X[b], y[b]) for b in range(members)]
        z = Dataset.from_labeled(normalize_rows(rng.standard_normal((1, d))), y[0, :1])
        samples[0] = samples[0].replace(int(rows[0]), z)
        data = Dataset.stack(samples)
    X, y = data.X.copy(), data.y
    picked = (rows,) if members is None else (np.arange(members), rows)
    thetas = scale * rng.standard_normal(shape[:-1] + (k, d))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = (_block_grad(logistic_spec(), thetas, data, None),
               _block_grad(logistic_spec(), thetas, data, rows),
               _logistic_values(logistic_spec(), thetas, data))
        want = (_unsigned_grad(thetas, X, y),
                _unsigned_grad(thetas, X[picked][..., None, :], y[picked][..., None]),
                _unsigned_values(thetas, X, y))
    for a, b in zip(got, want):
        _assert_bitwise_equal(a, b)
    # at n = 1 or d = 1 the d-major view of X is C-contiguous itself: still a copy
    _assert_bitwise_equal(data.X, X)


@pytest.mark.parametrize("family", ["logistic", "logistic-blocked", "quadratic",
                                    "linear_worstcase", "lecam_convex",
                                    "lecam_strongly_convex"])
def test_values_into_a_caller_buffer_equal_the_allocating_call_bitwise(monkeypatch, family):
    # given a buffer, loss_values_matrix fills and returns it with the bytes of the
    # allocating call: the logistic softplus in place there (its scratch the
    # caller's or its own), on the one-block and the blocked path; the other
    # families copy their result into it
    from optstab import losses

    rng = np.random.Generator(np.random.Philox(41))
    thetas = rng.standard_normal((4, 2, 3, 5))  # a stack (..., k, d)
    labeled = Dataset.from_labeled(normalize_rows(rng.standard_normal((30, 5))),
                                   rng.integers(0, 2, 30))
    symbols = Dataset.from_symbols(np.where(rng.uniform(size=30) < 0.5, 1.0, -1.0))
    spec, data = {
        "logistic": (logistic_spec(), labeled),
        "logistic-blocked": (logistic_spec(), labeled),
        "quadratic": (quadratic_spec(np.diag([1.0, 0.5, 0.25, 0.1, 0.0]),
                                     rng.standard_normal(5)), labeled),
        "linear_worstcase": (linear_worstcase_spec(L=1.5), symbols),
        "lecam_convex": (lecam_convex_spec(beta=1.0, r=0.5), symbols),
        "lecam_strongly_convex": (lecam_strongly_convex_spec(beta=1.0, r=0.5), symbols),
    }[family]
    if family == "logistic-blocked":  # blocks of 7 rows over n = 30
        monkeypatch.setattr(losses, "_GRAD_BLOCK_BYTES", 7 * 5 * 8)
        assert _block_rows(labeled.X) == 7
    want = loss_values_matrix(spec, thetas, data)
    assert want.shape == (4, 2, 3, 30)
    out, scratch, alone = np.full((3,) + want.shape, np.nan)
    assert loss_values_matrix(spec, thetas, data, out, scratch) is out
    assert loss_values_matrix(spec, thetas, data, alone) is alone
    for got in (out, alone):
        _assert_bitwise_equal(got, want)


def test_one_block_operands_are_cached_read_only_and_multi_block_designs_copy_nothing():
    # the signs and the signed design s X, d-major and row-major, are built once per
    # Dataset, on the first gradient, and shared by every later one; a design of
    # more than one block never builds a signed copy, for gradients or values
    from optstab import losses

    rng, X, y, stack = _one_block_stack(47)
    thetas = rng.standard_normal((11, 3, 10))
    first = _block_grad(logistic_spec(), thetas, stack, None)
    signs, cols, rows = stack._signs, stack._signed_cols, stack._signed_rows
    signed = (1.0 - 2.0 * y)[..., None] * X
    for a in (signs, cols, rows):
        assert not a.flags.writeable and a.flags.c_contiguous
        assert not np.shares_memory(a, X)
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0
    assert cols.shape == (11, 10, 500) and rows.shape == (11, 500, 10)
    np.testing.assert_array_equal(signs, 1.0 - 2.0 * y)
    np.testing.assert_array_equal(cols, signed.swapaxes(-1, -2))
    np.testing.assert_array_equal(rows, signed)
    np.testing.assert_array_equal(_block_grad(logistic_spec(), thetas, stack, None), first)
    assert stack._signs is signs and stack._signed_cols is cols and stack._signed_rows is rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(losses, "_GRAD_BLOCK_BYTES", 100 * 10 * X.itemsize)
        wide, single = Dataset.from_labeled(X, y), Dataset.from_labeled(X[0], y[0])
        np.testing.assert_allclose(_block_grad(logistic_spec(), thetas, wide, None), first,
                                   rtol=1e-13, atol=1e-15)
        loss_values_matrix(logistic_spec(), thetas[0], single)
        # each member of a blocked stack takes the values of its own sample
        np.testing.assert_allclose(
            _logistic_values(logistic_spec(), thetas, wide),
            [loss_values_matrix(logistic_spec(), t, Dataset.from_labeled(x, l))
             for t, x, l in zip(thetas, X, y)], rtol=1e-13, atol=1e-15)
        for data in (wide, single):
            assert not {"_signed_cols", "_signed_rows"} & set(vars(data))


def _residual_ulp_errors(R, u, y):
    """|R - (sigma(u) - y)| in ulps of the exact value.

    The mpmath reference works at 200 + 3|u| bits: sigma(u) - 1 at y = 1
    cancels about 1.44|u| bits, and at a flat 200 bits the reference itself
    cancels for |u| beyond about 140.
    """
    mpmath = pytest.importorskip("mpmath")
    errs = []
    for r, ui, yi in zip(R, u, y):
        with mpmath.workprec(200 + int(3 * abs(ui))):
            m = mpmath.mpf(float(ui))
            exact = 1 / (1 + mpmath.exp(-m)) - int(yi)
            errs.append(float(abs(mpmath.mpf(float(r)) - exact)
                              / np.spacing(abs(float(exact)))))
    return np.array(errs)


def _one_row_residuals(u, y):
    """The logistic gradient at theta = [u_i] against the one-row sample
    x = [1] with label y: the residual sigma(u_i) - y itself, by the one-block path."""
    return _block_grad(logistic_spec(), u[:, None, None],
                       Dataset.from_labeled([[1.0]], [y]), None)[:, 0, 0]


@pytest.mark.parametrize("scale", [0.1, 1.0, 5.0, 30.0])
@pytest.mark.parametrize("y", [0, 1])
def test_gradient_residual_within_3_ulp_of_mpmath(scale, y):
    u = _margins(scale)
    assert _residual_ulp_errors(_one_row_residuals(u, y), u, np.full_like(u, y)).max() <= 3


@pytest.mark.parametrize("scale", [1.0, 5.0, 30.0])
def test_label_subtracted_residual_fails_3_ulp_at_y_1(scale):
    # sigma(u) - 1 cancels for u >> 1, where -sigma(-u) does not
    u = _margins(scale)
    assert _residual_ulp_errors(_masked_sigmoid(u) - 1.0, u, np.ones_like(u)).max() > 3


def test_gradient_residual_at_huge_margins_is_exact_without_warnings():
    u = np.array([1e3, -1e3, 1e6, -1e6])
    for y in (0, 1):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            R = _one_row_residuals(u, y)
        assert np.abs(R - ((u > 0) - y)).max() <= 1e-300


def test_sampled_gradients_gather_each_members_row():
    # one row per member picked from a stack by its member grid, also for
    # vectors with a leading axis of their own broadcast against the stack
    rng = np.random.Generator(np.random.Philox(32))
    X = normalize_rows(rng.standard_normal((4, 9, 3)))
    y = rng.integers(0, 2, size=(4, 9)).astype(float)
    samples = [Dataset.from_labeled(X[b], y[b]) for b in range(4)]
    thetas = rng.standard_normal((2, 4, 3))
    rows = rng.integers(0, 9, size=(2, 4))
    got = sample_grad(logistic_spec(), thetas, Dataset.stack(samples), rows)
    for a in range(2):
        np.testing.assert_array_equal(
            got[a], [sample_grad(logistic_spec(), t, z, i)
                     for t, z, i in zip(thetas[a], samples, rows[a])])


def _swap_case(family, rng, n, d, P):
    """(spec, sample, P replacement points as one P-row sample, L) of a family;
    every per-sample gradient at |theta| <= 1 has norm at most L."""
    if family in ("logistic", "quadratic"):
        data = Dataset.from_labeled(normalize_rows(rng.standard_normal((n + P, d))),
                                    rng.integers(0, 2, size=n + P))
        M = rng.standard_normal((d, d))
        spec = (logistic_spec() if family == "logistic" else
                quadratic_spec(M @ M.T / d, rng.standard_normal(d)))
    else:
        data = Dataset.from_symbols(rng.choice([-1.0, 1.0], size=n + P))
        spec = (linear_worstcase_spec(L=1.5) if family == "linear_worstcase" else
                lecam_strongly_convex_spec(beta=2.0, r=0.7))
    L = loss_constants(spec).L if family != "quadratic" else (
        np.linalg.norm(spec.A, 2) + np.linalg.norm(spec.b))
    return spec, data.take(np.arange(n)), data.take(np.arange(n, n + P)), L


@pytest.mark.parametrize("family, block", [
    ("logistic", None), ("logistic", 5), ("linear_worstcase", None),
    ("lecam_strongly_convex", None), ("quadratic", None)],
    ids=["logistic", "logistic-blocked", "linear_worstcase", "lecam_strongly_convex",
         "quadratic"])
def test_swapped_gradients_equal_the_stacked_samples(monkeypatch, family, block):
    # B = 6 members on one sample plus swaps (k_m, z_m), k_m = -1 for none,
    # against each member on its own copy S.replace(k_m, z_m) of a stack: full
    # gradients (every vector in one product) within a few ulps of the
    # per-sample gradient scale L, sampled rows bitwise (the same signed rows)
    from optstab import losses

    if block:  # blocks of 5 rows over n = 23, the extended design's last one partial
        monkeypatch.setattr(losses, "_GRAD_BLOCK_BYTES", block * 3 * 8)
    rng = np.random.Generator(np.random.Philox(33))
    spec, data, z, L = _swap_case(family, rng, 23, 3, 4)
    k = np.array([-1, 4, 0, -1, 22, 4])
    picks = [0, 1, 2, 3]
    stack = Dataset.stack([data if km < 0 else data.replace(int(km), z.point(picks.pop(0)))
                           for km in k])
    thetas = rng.uniform(-1.0, 1.0, (6, 3, 3)) / np.sqrt(3)
    for full in (True, False):
        ext, (_, into), weights = _swap_rows(data, k, z, 6, full)
        assert ext.n == 27 and (weights is None) != full
        if full:
            got, want = _block_grad(spec, thetas, ext, None, False, weights), _block_grad(
                spec, thetas, stack, None)
            assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * L
            np.testing.assert_array_equal(_block_grad(spec, thetas, ext, None, True, weights),
                                          got)
        else:
            for rows in (np.array([4, 4, 0, 22, 22, 7]), rng.integers(0, 23, size=6)):
                np.testing.assert_array_equal(
                    _block_grad(spec, thetas, ext, np.where(rows == k, into, rows)),
                    _block_grad(spec, thetas, stack, rows))


def test_shared_design_gradient_bytes_do_not_depend_on_the_blas_thread_count():
    # 51 members of a swapped batch on a (2000, 200) design: one product of all 51
    # vectors against a 400-row block runs threaded and rounds apart at 1 and 2
    # OpenBLAS threads; a group of members per product (_PRODUCT_MACS) does not.
    # The same holds for a sup-gap pass of 8 steps, one base and 50 perturbed
    # members each, on a 100-point holdout: one (51, 200) @ (200, 100) product a step
    import os
    import subprocess
    import sys

    import optstab

    script = """if True:
        import hashlib, numpy as np
        from optstab.losses import (Dataset, _block_grad, _swap_rows, logistic_spec,
                                    normalize_rows)
        rng = np.random.Generator(np.random.Philox(35))
        data = Dataset.from_labeled(normalize_rows(rng.standard_normal((2050, 200))),
                                    rng.integers(0, 2, size=2050))
        ext, _, w = _swap_rows(data.take(range(2000)), [-1, *range(50)],
                               data.take(range(2000, 2050)), 51, True)
        thetas = rng.standard_normal((51, 1, 200)) / 20
        for reverse in (False, True):
            g = _block_grad(logistic_spec(), thetas, ext, None, reverse, w)
            print(hashlib.sha256(g.tobytes()).hexdigest())
        from optstab.stability_lab import _GapBlock
        block = _GapBlock((8, 1), 1, 50, 200, 100)  # 8 steps of one config
        block.rows[..., :1, :] = rng.standard_normal((8, 1, 1, 200)) / 20
        block.rows[..., 1:, :] = (block.rows[..., :1, :]
                                  + rng.standard_normal((8, 1, 50, 200)) / 200)
        gaps = block.evaluate(logistic_spec(), data.take(range(100)), 8)[1]
        print(hashlib.sha256(gaps.tobytes()).hexdigest())
    """
    src = os.path.dirname(os.path.dirname(optstab.__file__))
    out = [subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src,
                                          "OPENBLAS_NUM_THREADS": str(threads)}).stdout
           for threads in (1, 2)]
    lines = [o.split() for o in out]  # gradient forward, reverse; sup gaps
    assert len(lines[0]) == 3 and lines[0][0] == lines[0][1] and lines[0] == lines[1]


@pytest.mark.parametrize("k, z", [
    ([0, 23], "one"), ([0, -2], "two"), ([0.0, 1.0], "two"), ([[0, 1]], "two"),
    ([0, 1, 2], "two"), ([0, -1], "two"), ([0, 1], "symbol"), ([0, 1], "wide")])
def test_swaps_are_checked(k, z):
    rng = np.random.Generator(np.random.Philox(34))
    data = Dataset.from_labeled(normalize_rows(rng.standard_normal((23, 3))),
                                rng.integers(0, 2, size=23))
    z = {"one": data.take([0]), "two": data.take([0, 1]),
         "symbol": Dataset.from_symbols([1.0, -1.0]),
         "wide": Dataset.from_labeled(np.eye(4)[:2], [0, 1])}[z]
    with pytest.raises(ValidationError, match="swaps need"):
        _swap_rows(data, k, z, 2, True)
    with pytest.raises(ValidationError, match="swaps need"):
        _swap_rows(Dataset.stack([data, data]), [0, 1], data.take([0, 1]), 2, True)


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
                empirical_risk(spec, thetas[i], data.point(j)), abs=1e-12)
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
    values = [empirical_risk(spec, [ui], Dataset.from_labeled([[1.0]], [y])) for ui in u]
    assert _ulp_errors(values, u, np.full_like(u, y)).max() <= 2


def test_logaddexp_reference_fails_2_ulp_at_scale_5():
    u = _margins(5.0)
    assert _ulp_errors(_logaddexp_values(u, 1.0), u, np.ones_like(u)).max() > 2


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    st.lists(st.lists(st.floats(-60, 60), min_size=d, max_size=d), min_size=1, max_size=4),
    st.lists(st.lists(st.floats(-1, 1), min_size=d, max_size=d), min_size=1, max_size=6),
    st.lists(st.integers(0, 1), min_size=6, max_size=6))))
# margins under cancellation: row 2's is 0.1700000000000034 as thetas @ X.T and
# 0.1700000000000002 on the kernel's operand, a loss error of 1.67e-15 between them
@example(case=([[43.7, 57.7]], [[-0.2, -0.5], [0.4, -0.3]], [0] * 6))
def test_logistic_values_match_logaddexp_reference(case):
    thetas, X, labels = np.array(case[0]), np.array(case[1]), case[2]
    y = np.array(labels[:len(X)], dtype=float)
    spec = logistic_spec()
    data = Dataset.from_labeled(X, y)
    V = loss_values_matrix(spec, thetas, data)
    U = (thetas @ data._signed_cols) * data._signs  # the kernel's margins, bit for bit
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
    # the masked two-branch form of sigma(u)
    out = np.empty_like(u, dtype=float)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


def _assert_bitwise_equal(a, b):
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


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


@pytest.mark.parametrize("shape", [(1001, 200), (3, 500, 200)])
def test_logistic_constants_check_every_row_block(shape):
    # the norm check reads one gradient row block of rows at a time, over every
    # member of a stack: a long row in the last, partial block is found
    rng = np.random.Generator(np.random.Philox(8))
    X = normalize_rows(rng.standard_normal((int(np.prod(shape[:-1])), shape[-1])))
    y = rng.integers(0, 2, size=shape[:-1])
    loss_constants(logistic_spec(), Dataset.from_labeled(X.reshape(shape), y))
    X[-1] *= 1.0 + 1e-8
    with pytest.raises(ValidationError, match="unit-norm"):
        loss_constants(logistic_spec(), Dataset.from_labeled(X.reshape(shape), y))


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


@pytest.mark.parametrize("d", [1, 200])
@pytest.mark.parametrize("blocks", [0.5, 1, 2.5])
def test_blocked_normalization_equals_one_division_bitwise(d, blocks):
    # below one gradient row block, exactly one, and not a multiple of the block;
    # the input is left as it was
    n = max(1, int(blocks * _block_rows(np.empty((1, d)))))
    X = np.random.Generator(np.random.Philox(d)).standard_normal((n, d))
    before = X.copy()
    np.testing.assert_array_equal(normalize_rows(X),
                                  X / np.linalg.norm(X, axis=1, keepdims=True))
    np.testing.assert_array_equal(X, before)


@pytest.mark.parametrize("shape", [(4, 6, 3), (2, 2, 5, 1), (3, 1000, 200)])
@pytest.mark.parametrize("layout", ["C", "transposed", "F"])
def test_normalize_rows_of_a_stack_normalizes_each_members_rows(shape, layout):
    # norms over the last axis: every row of every member has unit norm, and each
    # member is the 2-D normalization of its own rows, bit for bit, whatever the
    # stack's memory layout
    rng = np.random.Generator(np.random.Philox(7))
    if layout == "transposed":
        X = rng.standard_normal((shape[1], shape[0]) + shape[2:]).swapaxes(0, 1)
    else:
        X = np.array(rng.standard_normal(shape), order=layout)
    got = normalize_rows(X)
    np.testing.assert_allclose(np.linalg.norm(got, axis=-1), 1.0, atol=1e-14)
    for idx in np.ndindex(shape[:-2]):
        np.testing.assert_array_equal(got[idx], normalize_rows(X[idx]))


# ---------------------------------------------------------------- invariants


def test_logistic_per_sample_gradient_and_hessian_bounds():
    spec = logistic_spec()
    rng = np.random.Generator(np.random.Philox(10))
    X = normalize_rows(rng.standard_normal((50, 4)))
    for _ in range(20):
        theta = rng.uniform(-3, 3, size=4)
        for i in range(50):
            z = Dataset.from_labeled([X[i]], [int(rng.integers(0, 2))])
            assert np.linalg.norm(sample_grad(spec, theta, z, None)) <= 1.0 + 1e-12
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
            lin = 0.5 * beta * r * abs(kink - s * r) - beta * r * r / 8
            assert quad == pytest.approx(beta * r * r / 8)
            assert lin == pytest.approx(beta * r * r / 8)
            assert empirical_risk(spec, [kink], Dataset.from_symbols([s])) == pytest.approx(
                beta * r * r / 8)


@pytest.mark.parametrize("spec", [
    logistic_spec(),
    linear_worstcase_spec(L=1.0),
    # the quadratic piece's slope beta |u| reaches beta r / 2 at |u| = r / 2, where the
    # linear piece's slope beta r / 2 takes over: no concave kink
    lecam_convex_spec(beta=1.0, r=1.0),
    lecam_strongly_convex_spec(beta=1.0, r=1.0),
], ids=lambda s: s.family)
def test_per_sample_loss_is_midpoint_convex(spec):
    # l(theta) <= (l(theta - h e) + l(theta + h e)) / 2 on a grid of step h along a
    # line e, across every kink of the symbol families (theta[0] in [-3, 3], r = 1)
    rng = np.random.Generator(np.random.Philox(31))
    if spec.family == "logistic":
        data = Dataset.from_labeled(normalize_rows(rng.standard_normal((8, 3))),
                                    rng.integers(0, 2, 8).astype(float))
        e = normalize_rows(rng.standard_normal((1, 3)))[0]
    else:
        data, e = Dataset.from_symbols([-1.0, 1.0]), np.ones(1)
    V = loss_values_matrix(spec, np.linspace(-3.0, 3.0, 6001)[:, None] * e, data)
    assert (V[:-2] - 2.0 * V[1:-1] + V[2:]).min() >= -1e-12


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
        mid = empirical_risk(spec, (u + v) / 2, z)
        assert mid <= (empirical_risk(spec, u, z) + empirical_risk(spec, v, z)) / 2 + 1e-12


def test_midpoint_convexity_quadratic():
    from optstab.losses import quadratic_spec

    rng = np.random.Generator(np.random.Philox(12))
    M = rng.standard_normal((3, 3))
    spec = quadratic_spec(M @ M.T / 3, rng.standard_normal(3))
    z = Dataset.from_symbols([1])
    for _ in range(100):
        u = rng.uniform(-2, 2, size=3)
        v = rng.uniform(-2, 2, size=3)
        mid = empirical_risk(spec, (u + v) / 2, z)
        assert mid <= (empirical_risk(spec, u, z) + empirical_risk(spec, v, z)) / 2 + 1e-12


def test_midpoint_convexity_lecam_convex_within_pieces():
    # convexity holds on each piece; segments straddling the quadratic-to-linear
    # transition at |u| = r/2 are checked by test_per_sample_loss_is_midpoint_convex
    spec = lecam_convex_spec(beta=1.0, r=1.0)
    rng = np.random.Generator(np.random.Philox(13))
    z = Dataset.from_symbols([1])
    regions = [(0.5, 1.5), (1.5, 3.0), (-2.0, 0.5)]  # quad zone and both tails
    for lo, hi in regions:
        for _ in range(40):
            a, b = rng.uniform(lo, hi, size=2)
            mid = empirical_risk(spec, [(a + b) / 2], z)
            assert mid <= (empirical_risk(spec, [a], z)
                           + empirical_risk(spec, [b], z)) / 2 + 1e-12


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
        gu = sample_grad(spec, u, z, None)
        gv = sample_grad(spec, v, z, None)
        assert np.linalg.norm(gu - gv) <= c.beta * np.linalg.norm(u - v) + 1e-12


@pytest.mark.parametrize("beta, r", [(1.0, 1.0), (1.5, 0.8), (4.0, 0.25)])
def test_lecam_convex_slope_is_beta_lipschitz_across_its_kinks(beta, r):
    # a uniformly sampled pair almost never straddles a kink, so a slope jump there
    # is checked here: k -/+ eps on either side of each kink, for both symbols
    spec = lecam_convex_spec(beta=beta, r=r)
    for s in (-1, 1):
        z = Dataset.from_symbols([s])
        for kink in lecam_convex_kinks(spec, s):
            for eps in (1e-6, 1e-3, r / 8):
                jump = sample_grad(spec, [kink - eps], z, None) - sample_grad(
                    spec, [kink + eps], z, None)
                assert np.linalg.norm(jump) <= beta * 2 * eps + 1e-12, (s, kink, eps)


def test_beta_smoothness_lecam_convex_within_pieces():
    spec = lecam_convex_spec(beta=1.0, r=1.0)
    rng = np.random.Generator(np.random.Philox(15))
    z = Dataset.from_symbols([1])
    for lo, hi in [(0.5, 1.5), (1.5, 4.0), (-3.0, 0.5)]:
        for _ in range(40):
            a, b = rng.uniform(lo, hi, size=2)
            ga = sample_grad(spec, [a], z, None)
            gb = sample_grad(spec, [b], z, None)
            assert np.linalg.norm(ga - gb) <= 1.0 * abs(a - b) + 1e-12


def test_linear_worstcase_smoothness_is_exact_zero():
    spec = linear_worstcase_spec(L=1.0)
    g1 = sample_grad(spec, [0.0, 0.0], Dataset.from_symbols([1]), None)
    g2 = sample_grad(spec, [5.0, -3.0], Dataset.from_symbols([1]), None)
    np.testing.assert_array_equal(g1, g2)


# ---------------------------------------------------------------- datasets


def test_dataset_replace():
    data = Dataset.from_symbols(np.array([1.0, 1.0, -1.0]))
    new = data.replace(0, Dataset.from_symbols([-1]))
    assert new.s[0] == -1
    assert np.all(new.s[1:] == data.s[1:])
    with pytest.raises(ValidationError):
        data.replace(3, Dataset.from_symbols([1]))
    with pytest.raises(ValidationError):
        data.replace(0, Dataset.from_labeled([np.array([1.0])], [1]))
    # a point is the one-row sample, and replace takes exactly one such row
    X = normalize_rows(np.random.Generator(np.random.Philox(31)).standard_normal((3, 2)))
    data = Dataset.from_labeled(X, [0.0, 1.0, 1.0])
    z = data.point(1)
    assert z.n == 1 and z.stack_shape == ()
    np.testing.assert_array_equal(z.X, X[1:2])
    np.testing.assert_array_equal(z.y, [1.0])
    new = data.replace(0, z)
    np.testing.assert_array_equal(new.X, X[[1, 1, 2]])
    np.testing.assert_array_equal(new.y, [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(data.X, X)
    for i in (-1, 3):
        with pytest.raises(ValidationError):
            data.point(i)
    with pytest.raises(ValidationError):
        data.replace(0, data.take([0, 1]))
    with pytest.raises(ValidationError):
        data.replace(0, Dataset.from_labeled([[1.0, 0.0, 0.0]], [1]))


def test_symbol_sample_is_a_one_column_design():
    s = np.array([1.0, -1.0, -1.0, 1.0])
    data = Dataset.from_symbols(s)
    assert data.kind == "symbol" and data.y is None
    assert data.X.shape == (4, 1) and data.dim == 1 and data.n == 4
    np.testing.assert_array_equal(data.s, s)
    np.testing.assert_array_equal(data.point(2).s, [-1.0])
    stacked = Dataset.stack([data, data.replace(0, data.point(1))])
    assert stacked.kind == "symbol" and stacked.stack_shape == (2,)
    np.testing.assert_array_equal(stacked.s, [s, [-1.0, -1.0, -1.0, 1.0]])
    labeled = Dataset.from_labeled(np.ones((2, 1)), [0.0, 1.0])
    assert labeled.kind == "labeled" and labeled.s is None
    for X in (np.ones((3, 2)), np.full((3, 1), 0.5), np.ones(3)):
        with pytest.raises(ValidationError):
            Dataset(X)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("kind", ["symbol", "labeled"])
def test_point_and_replace_reject_a_stack(kind, n):
    # indexing a stack's first axis picks a member, not a row: unchecked,
    # replace(k, z) would overwrite all of member k of a symbol stack or of a
    # labeled stack with n == d = 3, and point(i) would return member i
    rng = np.random.Generator(np.random.Philox(32))
    if kind == "symbol":
        sample = Dataset.from_symbols(np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0))
    else:
        sample = Dataset.from_labeled(normalize_rows(rng.standard_normal((n, 3))),
                                      rng.integers(0, 2, n))
    stack = Dataset.stack([sample, sample])
    with pytest.raises(ValidationError, match="stack"):
        stack.point(0)
    with pytest.raises(ValidationError, match="stack"):
        stack.replace(1, sample.point(0))


def test_param_vector_validation():
    with pytest.raises(ValidationError):
        as_param_vector([np.nan, 1.0])
    with pytest.raises(ValidationError):
        as_param_vector(np.zeros((2, 2)))


_RISK_DESIGNS = {}


def _risk_design(n, d):
    """A labeled (n, d) design, built once per shape."""
    if (n, d) not in _RISK_DESIGNS:
        rng = np.random.Generator(np.random.Philox(n + d))
        _RISK_DESIGNS[n, d] = Dataset.from_labeled(normalize_rows(
            rng.standard_normal((n, d))), rng.integers(0, 2, size=n))
    return _RISK_DESIGNS[n, d]


@settings(max_examples=30, deadline=None)
@given(m=st.sampled_from([1, 2, 3, 41, 64, 65, 130]),
       lead=st.sampled_from([(3,), (2, 2), (1,)]),
       shape=st.sampled_from([(300, 20), (900, 200)]), seed=st.integers(0, 2 ** 32 - 1))
def test_empirical_risk_batch_of_a_stack_equals_one_call_per_leading_index(m, lead,
                                                                          shape, seed):
    # (300, 20) is one gradient row block, (900, 200) two and a part; the risks of
    # a stack equal one call per leading index and, _RISK_ROWS vectors at a time,
    # the row means of the stack's one values matrix
    data = _risk_design(*shape)
    thetas = 0.3 * np.random.Generator(np.random.Philox(seed)).standard_normal(
        lead + (m, shape[1]))
    risks = empirical_risk_batch(logistic_spec(), thetas, data)
    assert risks.shape == lead + (m,)
    for idx in np.ndindex(lead):
        np.testing.assert_array_equal(risks[idx],
                                      empirical_risk_batch(logistic_spec(), thetas[idx], data))
    for i in range(0, m, _RISK_ROWS):
        block = thetas[..., i:i + _RISK_ROWS, :]
        np.testing.assert_array_equal(
            risks[..., i:i + _RISK_ROWS],
            loss_values_matrix(logistic_spec(), block, data).mean(axis=-1))


@pytest.mark.parametrize("m", [64, 200, 1001])
def test_empirical_risk_batch_in_blocks_equals_one_values_matrix_bitwise(m):
    # the blocked risks of a long batch equal the row means of one m x n
    # values matrix, for one batch and for a stack of k batches, at a sample
    # size (n x d = 2000 x 20) whose products all take the BLAS's blocked path
    rng = np.random.Generator(np.random.Philox(12))
    data = Dataset.from_labeled(normalize_rows(rng.standard_normal((2000, 20))),
                                rng.integers(0, 2, size=2000))
    thetas = 0.3 * rng.standard_normal((3, m, 20))
    for block in (thetas[0], thetas):
        np.testing.assert_array_equal(
            empirical_risk_batch(logistic_spec(), block, data),
            loss_values_matrix(logistic_spec(), block, data).mean(axis=-1))
