import math

import numpy as np
import pytest

from optstab.losses import ValidationError
from optstab.matrixlemmas import (
    LEMMAS,
    TOL,
    _batch_spectral_norm,
    _companion_radius,
    _scnag_bound,
    _scnag_grid,
    _scnag_scan,
    _hb_scan,
    _nag_scan,
    _recursion_scan,
    _sweep,
    _uniform_pm1,
    adversarial_max,
    hb_sweep,
    nag_sweep,
    recursion_u,
    recursion_u_sweep,
    scnag_h_range,
    scnag_sweep,
)
from optstab.optimizers import sc_momentum
from optstab.streams import stream


def _search_stream(lemma, seed):
    """The stream a lemma's search draws from."""
    return stream(seed, "lemma_search", LEMMAS.index(lemma))


# ------------------------------------------------------------ spectral norm


def test_spectral_norm_identity():
    assert _batch_spectral_norm(1.0, 0.0, 0.0, 1.0) == pytest.approx(1.0)


def test_spectral_norm_diagonal():
    assert _batch_spectral_norm(3.0, 0.0, 0.0, 4.0) == pytest.approx(4.0)


def test_spectral_norm_shear_is_golden_ratio():
    got = _batch_spectral_norm(1.0, 1.0, 0.0, 1.0)
    assert got == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)


def test_spectral_norm_agrees_with_power_iteration():
    rng = np.random.Generator(np.random.Philox(1))
    for _ in range(50):
        M = rng.standard_normal((2, 2)) * rng.uniform(0.1, 10)
        v = rng.standard_normal(2)
        MtM = M.T @ M
        for _ in range(200):
            v = MtM @ v
            v /= np.linalg.norm(v)
        sigma = math.sqrt(v @ MtM @ v)
        assert _batch_spectral_norm(*M.ravel()) == pytest.approx(sigma,
                                                               abs=1e-10 * max(1, sigma))


def _expression_spectral_norm(u, v, u1, v1):
    """The closed form as one expression, one fresh array per operation."""
    fro2 = u * u + v * v + u1 * u1 + v1 * v1
    det = u * v1 - v * u1
    inner = np.maximum(fro2 * fro2 - 4.0 * det * det, 0.0)
    return np.sqrt(np.maximum((fro2 + np.sqrt(inner)) / 2.0, 0.0))


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_batch_spectral_norm_in_place_equals_expression_form_bitwise(scale):
    rng = np.random.Generator(np.random.Philox(3))
    entries = scale * rng.standard_normal((4, 10_000))
    # rank-one draws put F^4 - 4 det^2 at its cancellation point
    entries[:, :100] = np.outer([1.0, 2.0, 3.0, 6.0], entries[0, :100])
    np.testing.assert_array_equal(_batch_spectral_norm(*entries),
                                  _expression_spectral_norm(*entries))
    for M in entries[:, :5].T:
        assert _batch_spectral_norm(*M) == _expression_spectral_norm(*M)


def test_batch_spectral_norm_into_caller_buffers_bitwise():
    rng = np.random.Generator(np.random.Philox(4))
    entries = rng.standard_normal((4, 1000))
    entries[:, :10] = np.outer([1.0, 2.0, 3.0, 6.0], entries[0, :10])
    out = tuple(np.full(1000, np.nan) for _ in range(3))
    norm = _batch_spectral_norm(*entries, out)
    assert norm is out[1]
    np.testing.assert_array_equal(norm, _batch_spectral_norm(*entries))


def test_spectral_norm_submultiplicative():
    rng = np.random.Generator(np.random.Philox(2))
    for _ in range(100):
        A = rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 2))
        assert (_batch_spectral_norm(*(A @ B).ravel())
                <= _batch_spectral_norm(*A.ravel()) * _batch_spectral_norm(*B.ravel())
                + 1e-12)


# ------------------------------------------------- one-draw product checks


def _one_draw(scan):
    """(norm, bound, ok) of a one-draw scan checked at its horizon only."""
    _, (_, _, norm, bound), violations, checks = scan
    assert checks == 1
    return norm, bound, not violations


def _nag_check(h, gammas):
    """||H_t ... H_1|| against 2 (t + 1), one draw h with the given gammas."""
    gammas = np.asarray(gammas, dtype=float)
    return _one_draw(_nag_scan(np.array([h]), lambda s, g: g.fill(gammas[s - 1]),
                               len(gammas), True))


def _hb_check(gamma, a, t):
    """||H^t|| against 2 / (1 - sqrt(gamma)), one draw (gamma, a)."""
    return _one_draw(_hb_scan([gamma], [a], t, True))


def _scnag_check(kappa, alpha, beta, eta, t, h_samples=64):
    """The worst ||H^t|| over the problem's h grid against 2 (1 + t) rho^(t-1)."""
    top, (rho,) = _scnag_grid([(kappa, alpha, beta, eta)], h_samples)
    return _one_draw(_scnag_scan(top, lambda s: _scnag_bound(rho, s), t, True))


def _scnag_nominal(kappa, alpha, eta, t):
    """The tighter-looking envelope 2 (1 + t) (g (1 - alpha eta))^(t/2)."""
    return 2.0 * (1 + t) * (sc_momentum(kappa) * (1.0 - alpha * eta)) ** (t / 2.0)


def test_nag_check_single_factor():
    norm, bound, ok = _nag_check(1.0, [0.0])
    assert norm == pytest.approx(math.sqrt(2), abs=1e-12)
    assert bound == 4.0 and ok


def test_nag_check_h_zero_stays_small():
    rng = np.random.Generator(np.random.Philox(3))
    norm, _, ok = _nag_check(0.0, rng.uniform(-0.99, 0.99, size=37))
    assert norm <= 1.0 + 1e-12 and ok


def test_nag_check_extreme_momentum_top_entry():
    # at h = 1, gamma = -1 the top-left entry follows a_{i+1} = 2a_i - a_{i-1},
    # reaching 4 after three factors
    norm, bound, _ = _nag_check(1.0, [-0.999999999, -0.999999999, -0.999999999])
    P = np.eye(2)
    H = np.array([[2.0, -1.0], [1.0, 0.0]])
    for _ in range(3):
        P = H @ P
    assert P[0, 0] == pytest.approx(4.0)
    assert norm <= bound and bound == 8.0


def test_hb_check_gamma_zero():
    norm, bound, ok = _hb_check(0.0, 0.5, 1)
    assert norm == pytest.approx(math.sqrt(1.25), abs=1e-12)
    assert bound == 2.0 and ok


def test_hb_bound_value():
    _, bound, _ = _hb_check(0.81, 0.0, 5)
    assert bound == pytest.approx(2.0 / (1.0 - 0.9), abs=1e-12)


def test_hb_admissible_powers_up_to_200():
    for gamma in (0.0, 0.3, 0.6, 0.9):
        for a in (0.0, (1 - gamma) / 2, 1 - gamma):
            for t in (1, 50, 200):
                assert _hb_check(gamma, a, t)[2]


# ---------------------------------------------- strongly convex fixed momentum


def test_scnag_grid_equals_per_row_linspace_bitwise():
    # the vectorized h grid is each row's np.linspace to the bit, also with a
    # zero-width kappa = 1 row among rows of positive width
    rng = np.random.Generator(np.random.Philox(40))
    kappas = [1.0, 2.5, 4.0, 100.0] + np.exp(rng.uniform(0.0, np.log(100.0), 60)).tolist()
    problems = [(k, 1.0, k, 1.0 / k) for k in kappas] + [(1.0, 0.3, 0.3, 1.7)]
    for h_samples in (0, 16, 64):
        (p, q), rho = _scnag_grid(problems, h_samples)
        g = sc_momentum(np.array([k for k, *_ in problems]))[:, None]
        hs = np.array([np.linspace(*scnag_h_range(a, b, e), h_samples + 2)
                       for _, a, b, e in problems])
        np.testing.assert_array_equal(p, (1.0 + g) * hs)
        np.testing.assert_array_equal(q, -g * hs)
        assert rho == _companion_radius((1.0 + g) * hs, g * hs).max(axis=1).tolist()


def test_companion_radius_is_the_largest_root_modulus():
    rng = np.random.Generator(np.random.Philox(9))
    p, q = rng.standard_normal(2000), rng.standard_normal(2000)
    q[:100] = p[:100] ** 2 / 4.0  # double roots
    rho = _companion_radius(p, q)
    # real roots: bitwise the larger of the two root moduli
    disc = p * p - 4.0 * q
    sq, real = np.sqrt(np.abs(disc)), disc >= 0
    np.testing.assert_array_equal(rho[real],
                                  np.maximum(np.abs(p + sq), np.abs(p - sq))[real] / 2.0)
    for i in range(100, 2000, 19):
        assert rho[i] == pytest.approx(max(abs(np.roots([1.0, -p[i], q[i]]))), rel=1e-9)


def test_scnag_reported_nominal_envelope_arithmetic():
    # 2 * 3 * (gamma (1 - alpha eta))^(t/2) = 2 * 3 * (1/3 * 3/4)^1
    assert _scnag_nominal(4.0, 1.0, 0.25, 2) == pytest.approx(1.5, abs=1e-12)
    assert _scnag_check(4.0, 1.0, 4.0, 0.25, 2)[2]


def test_scnag_identity_at_t0():
    norm, bound, ok = _scnag_check(4.0, 1.0, 4.0, 0.25, 0)
    assert norm == pytest.approx(1.0) and bound == 2.0 and ok


def test_scnag_envelope_is_one_elementwise_form():
    # the scalar path keeps the bits of 2.0 if t == 0 else 2.0 (1 + t) rho^(t-1)
    # (Python pow), the array path those of 2.0 (1 + T) rho^(T - 1) over T >= 1
    # (numpy pow); rho = 0 (kappa = 1) takes no negative power at t = 0
    _, rhos = _scnag_grid([(k, 1.0, k, 1.0 / k) for k in (1.0, 1.5, 2.0, 4.0, 16.0,
                                                           100.0)], 16)
    assert rhos[0] == 0.0
    with np.errstate(all="raise"):
        for rho in rhos + [0.3, 0.999]:
            assert [_scnag_bound(rho, t) for t in range(201)] == [
                2.0 if t == 0 else 2.0 * (1 + t) * rho ** (t - 1) for t in range(201)]
        T = np.random.Generator(np.random.Philox(5)).integers(1, 65, 500)
        R = np.resize(np.array(rhos), T.size)
        assert np.array_equal(_scnag_bound(R, T), 2.0 * (1 + T) * R ** (T - 1))
        assert _scnag_bound(R, np.zeros_like(T)).tolist() == [2.0] * T.size


def test_scnag_kappa_one_closed_form():
    # gamma = 0: H = [[h, 0], [1, 0]] with the single admissible h = 1 - eta;
    # H^t = [[h^t, 0], [h^(t-1), 0]] is rotation free
    eta = 0.5
    h = 1.0 - eta
    for t in (1, 3, 10, 60):
        norm, _, ok = _scnag_check(1.0, 1.0, 1.0, eta, t)
        expect = h ** (t - 1) * math.sqrt(h * h + 1.0)
        assert norm == pytest.approx(expect, rel=1e-10)
        assert ok
        # decay envelope quoted for this case
        assert norm <= 2.0 * (1 + t) * h ** (t / 2.0)


def test_scnag_validation():
    # the sweep reads each kappa's momentum from sc_momentum, which rejects
    # kappa < 1 whether it is the only kappa or one of several
    for kappas in ([0.5], [4.0, 0.5]):
        with pytest.raises(ValidationError, match="kappa must be >= 1"):
            scnag_sweep(kappas, 8, 4)
    with pytest.raises(ValidationError, match="kappa must be >= 1"):
        _scnag_check(0.5, 1.0, 0.5, 0.1, 1)


def test_scnag_nominal_envelope_has_counterexample_but_certified_holds():
    # at kappa = 4, eta = 1/beta, the admissible h reaches the double root
    # h = 3/4 where H^t = (1+t) rho^t on top but t rho^(t-1) below; by t = 5
    # the product norm exceeds 2 (1+t) rho^t while 2 (1+t) rho^(t-1) holds
    norm, bound, ok = _scnag_check(4.0, 1.0, 4.0, 0.25, 5)
    assert norm > _scnag_nominal(4.0, 1.0, 0.25, 5) + 1e-9
    assert norm <= bound + 1e-9 and ok


# ------------------------------------------------------------- recursion_u


def test_recursion_u_at_h1_is_arithmetic():
    a = recursion_u(1.0, 16)
    np.testing.assert_allclose(a, np.arange(17) + 1.0)


def test_recursion_u_at_h0():
    np.testing.assert_allclose(recursion_u(0.0, 5), [1, 0, 0, 0, 0, 0])


def test_recursion_u_hand_unroll():
    a = recursion_u(0.5, 2)
    assert a[2] == pytest.approx(2 * 0.5 * 1.0 - 0.5 * 1.0)
    assert abs(a[2]) <= 3.0


def test_recursion_u_range_validation():
    with pytest.raises(ValidationError):
        recursion_u(1.2, 4)


# ---------------------------------------------------------------- sweeps


def test_nag_sweep_small_budget_clean():
    res = nag_sweep(2000, 32, seed=5)
    assert res.ok and res.max_ratio <= 1.0 + 1e-9
    assert res.witness


@pytest.mark.parametrize("seed, ratio, witness", [
    (0, 0.6489972513558899, {"h": 0.9847773680770275, "t": 2, "draw": 9476}),
    (1, 0.6265096694111757, {"h": 0.9971867876164825, "t": 2, "draw": 4114}),
], ids=["seed0", "seed1"])
def test_nag_sweep_pinned_exactly(seed, ratio, witness):
    res = nag_sweep(20_000, 64, seed=seed)
    assert res.max_ratio == ratio and res.witness == witness
    assert res.checks == 1_280_000 and res.counterexamples == []


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_buffered_gamma_draw_equals_uniform_bitwise(seed):
    ref = np.random.Generator(np.random.Philox(seed))
    rng = np.random.Generator(np.random.Philox(seed))
    out = np.empty(5000)
    for _ in range(3):  # the same buffer, refilled, keeps the stream in step
        expected = ref.uniform(-1.0, 1.0, size=5000)
        assert _uniform_pm1(rng, out) is out
        np.testing.assert_array_equal(out, expected)


def test_hb_sweep_clean():
    res = hb_sweep([g / 10 for g in range(10)], 11, 64)
    assert res.ok
    # gamma = a = 0 has ratio sqrt(1/2) at every t; ties go to the first check
    assert res.witness == {"gamma": 0.0, "a": 0.0, "t": 1}


def test_scnag_sweep_clean():
    res = scnag_sweep([1.0, 2.0, 4.0], 16, 64)
    assert res.ok


def test_recursion_sweep_hits_exact_bound():
    # at h = 1, the grid's last point, every a_i = i + 1 meets its envelope exactly
    res = recursion_u_sweep(0.25, 64)
    assert res.ok and res.checks == 5 * 64
    assert res.max_ratio == 1.0 and res.witness == {"h": 1.0, "i": 1}


def test_recursion_search_worst_ratio_is_its_largest_h():
    # a_1 = 2h against 2 is the worst ratio over i >= 1 of every draw here, so
    # the search reports the largest h it drew, at i = 1
    for seed in range(12):
        hs = _search_stream("recursion_u", seed).uniform(0.0, 1.0, 4000)
        res = adversarial_max("recursion_u", 4000, seed)
        assert res.max_ratio == hs.max() < 1.0 and res.ok
        assert res.witness == {"h": res.max_ratio, "i": 1}


def test_sweeps_reject_inputs_outside_their_lemma():
    # gamma = 1 is outside the hb lemma (0 <= gamma < 1): its bound 2 / (1 - sqrt(gamma))
    # divides by zero
    with pytest.raises(ValidationError, match="0 <= gamma < 1"):
        hb_sweep([0.5, 1.0], 5, 10)
    with pytest.raises(ValidationError, match="0 < h_step <= 1"):
        recursion_u_sweep(0.0, 10)  # an h grid of step 0
    with pytest.raises(ValidationError, match="at least one kappa"):
        scnag_sweep([], 4, 10)


def test_adversarial_max_degenerate_budget():
    res = adversarial_max("hb", 1, seed=0)
    assert res.checks == 1 and res.max_ratio <= 1.0 + 1e-9


def test_adversarial_max_all_lemmas():
    for lemma in ("nag_convex", "hb", "nag_sc", "recursion_u"):
        res = adversarial_max(lemma, 50, seed=2, t_max=16)
        assert res.ok, lemma
    with pytest.raises(ValidationError):
        adversarial_max("unknown", 10)
    with pytest.raises(ValidationError):
        adversarial_max("hb", 0)
    for lemma in ("nag_convex", "hb", "nag_sc", "recursion_u"):
        with pytest.raises(ValidationError, match="t_max"):
            adversarial_max(lemma, 10, t_max=0)


# ------------------------------------------------- sweep engine equivalence


def test_lemma_checks_match_matrix_power_reference():
    rng = np.random.Generator(np.random.Philox(21))
    for _ in range(40):
        h = rng.uniform(0.0, 1.0)
        gammas = rng.uniform(-0.99, 0.99, size=int(rng.integers(1, 40)))
        P = np.eye(2)
        for g in gammas:
            P = np.array([[(1.0 - g) * h, g * h], [1.0, 0.0]]) @ P
        ref = np.linalg.norm(P, 2)
        assert _nag_check(h, gammas)[0] == pytest.approx(ref, rel=1e-10)

        gamma = rng.uniform(0.0, 0.999)
        a = rng.uniform(0.0, 1.0 - gamma)
        t = int(rng.integers(0, 65))
        H = np.array([[1.0 + gamma - a, -gamma], [1.0, 0.0]])
        ref = np.linalg.norm(np.linalg.matrix_power(H, t), 2)
        assert _hb_check(gamma, a, t)[0] == pytest.approx(ref, rel=1e-10)

        kappa = float(np.exp(rng.uniform(0.0, np.log(100.0))))
        t = int(rng.integers(0, 65))
        norm = _scnag_check(kappa, 1.0, kappa, 1.0 / kappa, t, h_samples=6)[0]
        g = sc_momentum(kappa)
        ref = max(np.linalg.norm(np.linalg.matrix_power(
            np.array([[(1.0 + g) * h, -g * h], [1.0, 0.0]]), t), 2)
            for h in np.linspace(0.0, 1.0 - 1.0 / kappa, 8))
        assert norm == pytest.approx(ref, rel=1e-10)


def _adversarial_reference(lemma, budget, t_max, seed):
    """Replays the documented stream: each parameter for the whole budget in one
    array call, then t ~ U{1..t_max}; then each draw's ratio on its own."""
    rng = _search_stream(lemma, seed)
    if lemma == "hb":
        g = rng.uniform(0.0, 0.999, budget)
        a = rng.uniform(0.0, 1.0 - g)
        ts = rng.integers(1, t_max + 1, budget)
        ratios = [np.linalg.norm(np.linalg.matrix_power(
            np.array([[1.0 + g[j] - a[j], -g[j]], [1.0, 0.0]]), ts[j]), 2)
            * (1.0 - math.sqrt(g[j])) / 2.0 for j in range(budget)]
        witness = lambda j: {"gamma": g[j], "a": a[j], "t": ts[j]}
    elif lemma == "nag_sc":
        kappas = np.exp(rng.uniform(0.0, np.log(100.0), budget))
        ts = rng.integers(1, t_max + 1, budget)
        checks = [_scnag_check(float(k), 1.0, float(k), 1.0 / k, int(t), h_samples=16)
                  for k, t in zip(kappas, ts)]
        ratios = [norm / bound for norm, bound, _ in checks]
        witness = lambda j: {"kappa": kappas[j], "t": ts[j]}
    else:  # recursion_u: every a_i with 1 <= i <= t against i + 1
        hs = rng.uniform(0.0, 1.0, budget)
        ts = rng.integers(1, t_max + 1, budget)
        per_i = [np.abs(recursion_u(float(h), int(t)))[1:] / (np.arange(t) + 2.0)
                 for h, t in zip(hs, ts)]
        ratios = [r.max() for r in per_i]
        witness = lambda j: {"h": hs[j], "i": int(np.argmax(per_i[j])) + 1}
    return max(ratios), witness(int(np.argmax(ratios)))


def _checks(lemma, budget, t_max, seed):
    """The checks a search makes: one a draw, or recursion_u's every a_i with
    1 <= i <= t, the sum of its drawn t (replayed from the stream)."""
    if lemma != "recursion_u":
        return budget
    rng = _search_stream(lemma, seed)
    rng.uniform(0.0, 1.0, budget)
    return int(rng.integers(1, t_max + 1, budget).sum())


def test_adversarial_max_matches_per_draw_reference():
    budget, t_max, seed = 60, 24, 3
    for lemma, rel in (("hb", 1e-10), ("nag_sc", 1e-12), ("recursion_u", 1e-12)):
        ratio, witness = _adversarial_reference(lemma, budget, t_max, seed)
        res = adversarial_max(lemma, budget, seed=seed, t_max=t_max)
        assert res.max_ratio == pytest.approx(ratio, rel=rel), lemma
        assert res.witness == witness, lemma
        assert res.checks == _checks(lemma, budget, t_max, seed) and res.ok, lemma


def test_recursion_sweep_path_matches_scalar_unroll():
    eps = np.finfo(float).eps
    for h in np.linspace(0.0, 1.0, 21):
        for t in (0, 1, 2, 5, 33, 64):
            _, (_, step, value, bound), _, checks = _recursion_scan(np.array([h]), t,
                                                                    True)
            assert (step, bound, checks) == (t, t + 1.0, 1)
            assert value == pytest.approx(abs(recursion_u(float(h), t)[t]),
                                          rel=0, abs=64 * eps * (t + 1))


def test_adversarial_max_pinned_results():
    # recursion_u reports the largest h it drew, at i = 1
    h = float(_search_stream("recursion_u", 0).uniform(0.0, 1.0, 200).max())
    pins = {
        "hb": (0.3966179517609632,
               {"gamma": 0.7242843751017608, "a": 0.007028533539987745, "t": 11}),
        "nag_sc": (0.889671307940406, {"kappa": 97.73472127932057, "t": 62}),
        "recursion_u": (h, {"h": h, "i": 1}),
    }
    for lemma, (ratio, witness) in pins.items():
        res = adversarial_max(lemma, 200, seed=0)
        assert res.max_ratio == pytest.approx(ratio, rel=1e-12), lemma
        assert res.witness == pytest.approx(witness, rel=1e-12), lemma
        assert res.checks == _checks(lemma, 200, 64, 0) and res.ok, lemma


def _stacked_reference_sweep(top, envelope, k, t_max, check):
    """Per-check loop over stacked products P_s = H_s @ P_{s-1} and SVD norms;
    every draw advances to t_max, and ``check(s)`` says which are checked."""
    H = np.zeros((k, 2, 2))
    H[:, 1, 0] = 1.0
    P = np.broadcast_to(np.eye(2), H.shape)
    worst, at, violations, checks = -np.inf, None, [], 0
    for s in range(t_max + 1):
        if s:
            H[:, 0, 0], H[:, 0, 1] = top(s)
            P = H @ P
        bound = np.broadcast_to(envelope(s), k)
        for j in np.flatnonzero(np.broadcast_to(check(s), k)):
            checks += 1
            norm = np.linalg.norm(P[j], 2)
            if norm / bound[j] > worst:
                worst, at = norm / bound[j], (j, s, norm)
            if norm > bound[j] + TOL * min(bound[j], 1.0):
                violations.append((j, s, norm / bound[j]))
    return worst, at, violations, checks


def test_sweep_counterexamples_match_stacked_matmul_reference():
    # a fraction of each lemma's envelope (the hb lemma's worst ratio is
    # sqrt(1/2)), so the sweep reports violations; with sorted per-draw horizons
    # the sweep retires each draw after its horizon, and the reference does not
    k, t_max = 40, 48
    rng = np.random.Generator(np.random.Philox(17))
    hs = rng.uniform(0.5, 1.0, size=k)
    gammas = rng.uniform(-1.0, -0.5, size=(t_max + 1, k))
    G = rng.uniform(0.0, 0.9, size=k)
    A = rng.uniform(0.0, 1.0, size=k) * (1.0 - G)
    sorted_horizons = rng.integers(0, t_max + 1, size=k)
    order = np.argsort(-sorted_horizons, kind="stable")  # the draws, by horizon
    hs, gammas, G, A = hs[order], gammas[:, order], G[order], A[order]
    sorted_horizons = sorted_horizons[order]
    lemmas = {
        "nag_convex": (lambda s: ((1.0 - gammas[s]) * hs, gammas[s] * hs),
                       lambda s: 0.5 * 2.0 * (s + 1)),
        "hb": (lambda s: (1.0 + G - A, -G), lambda s: 0.25 * 2.0 / (1.0 - np.sqrt(G))),
    }
    for lemma, (top, envelope) in lemmas.items():
        for horizons in (sorted_horizons, 2):
            for at_horizon in (True, False):
                # each draw at its horizon only, or at every step 1 ... horizon
                check = ((lambda s: s == horizons) if at_horizon else
                         (lambda s: (s >= 1) & (s <= horizons)))
                case = (lemma, np.ndim(horizons), at_horizon)
                worst, (draw, step, value, _), violations, checks = _sweep(
                    top, _batch_spectral_norm, envelope, (k,), horizons, at_horizon)
                ref_worst, ref_at, ref_violations, ref_checks = _stacked_reference_sweep(
                    top, envelope, k, t_max, check)
                assert (draw, step, checks) == (*ref_at[:2], ref_checks), case
                assert value == pytest.approx(ref_at[2], rel=1e-12, abs=0)
                assert worst == pytest.approx(ref_worst, rel=1e-12, abs=0)
                assert violations, case
                assert [v[:2] for v in violations] == [v[:2] for v in ref_violations]
                assert [v[2] for v in violations] == pytest.approx(
                    [v[2] for v in ref_violations], rel=1e-12, abs=0)


def test_a_nan_value_is_a_counterexample_and_the_finite_worst_stays():
    # draw 1's value is nan at every step: each of its checks fails with ratio
    # nan, and the worst ratio is the one the other two draws give without it
    def nan_at_draw_1(*P):
        value = _batch_spectral_norm(*P)
        value[1] = math.nan
        return value

    p = np.array([0.5, 0.9, 0.7])
    top = lambda s: (p, np.zeros(3))
    worst, at, violations, checks = _sweep(top, nan_at_draw_1, lambda s: 4.0, (3,), 5)
    finite = _sweep(lambda s: (p[[0, 2]], np.zeros(2)), _batch_spectral_norm,
                    lambda s: 4.0, (2,), 5)
    assert finite[1][0] == 1 and (worst, at) == (finite[0], (2, *finite[1][1:]))
    assert [v[:2] for v in violations] == [(1, s) for s in range(1, 6)]
    assert all(math.isnan(v[2]) for v in violations) and checks == 15 == finite[3] + 5


@pytest.mark.parametrize("bad, witness", [(math.nan, 2), (math.inf, 2), (1e200, 1)])
def test_the_screen_measures_every_non_finite_draw(bad, witness):
    # a non-finite (or overflowing) F^2 measures the whole step: the nan or inf
    # value is a counterexample, and the worst ratio is the unscreened sweep's,
    # the finite draws' (an inf value's at 1e200: ratio inf)
    p = np.array([0.5, bad, 0.7, 0.2])
    top = lambda s: (p, np.full(4, 0.1))
    with np.errstate(all="ignore"):
        scans = [_sweep(top, _batch_spectral_norm, lambda s: 2.0 * (s + 1), (4,), 6,
                        screen=screen) for screen in (False, True)]
    assert repr(scans[0]) == repr(scans[1])  # repr: a nan ratio is unequal to itself
    worst, (draw, _, _, _), violations, _ = scans[1]
    assert {v[0] for v in violations} == {1} and draw == witness
