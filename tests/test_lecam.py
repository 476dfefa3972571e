import itertools
import math

import numpy as np
import pytest

from optstab.bounds import CONVEX, STRONGLY_CONVEX, minimax_bound
from optstab.lecam import (
    bayes_test_error,
    lecam_distributions,
    minimax_consistency,
    phi_certificate,
    phi_formula,
    population_excess_risk,
    population_minimizer,
    population_risk,
    separation_delta,
    tv_kl_product,
)
from optstab.losses import ValidationError


# ------------------------------------------------------------ distributions


def test_distribution_pair_at_n6():
    p1, p2 = lecam_distributions(6)
    assert p1 == pytest.approx(7 / 12)
    assert p2 == pytest.approx(5 / 12)


def test_distribution_pair_symmetry_and_normalization():
    for n in (1, 3, 10, 500):
        p1, p2 = lecam_distributions(n)  # P1(-1), P2(-1)
        assert p1 == pytest.approx(1.0 - p2)
        assert p1 > 0.5


def test_distribution_limit():
    p1, _ = lecam_distributions(10 ** 8)
    assert p1 == pytest.approx(0.5, abs=1e-3)


def test_distributions_need_n_at_least_1():
    with pytest.raises(ValidationError):
        lecam_distributions(0)


# ------------------------------------------------------------- excess risk


def test_sc_excess_zero_at_minimizer():
    for n in (1, 4, 25):
        theta_star = -1.0 / math.sqrt(6 * n)
        assert population_excess_risk("strongly_convex", 1, theta_star, 1.0, 1.0,
                                      n) == pytest.approx(0.0, abs=1e-14)


def test_sc_excess_at_unit_distance():
    theta_star = -1.0 / math.sqrt(6.0)
    got = population_excess_risk("strongly_convex", 1, theta_star + 1.0, 1.0, 1.0, 1)
    assert got >= 1.0 / 12.0
    assert got == pytest.approx(0.5)  # quadratic with curvature beta = 1


def test_sc_minimizer_closed_form_mirrors():
    t1, m1 = population_minimizer("strongly_convex", 1, 2.0, 1.5, 4)
    t2, m2 = population_minimizer("strongly_convex", 2, 2.0, 1.5, 4)
    assert t1 == pytest.approx(-1.5 / math.sqrt(24.0))
    assert t2 == pytest.approx(-t1)
    assert m1 == m2 == pytest.approx(0.5 * 2.0 * (1.5 ** 2) * (1 - 1 / 24.0))


def test_convex_excess_nonnegative_and_zero_at_minimizer():
    rng = np.random.Generator(np.random.Philox(7))
    for v in (1, 2):
        t_star, _ = population_minimizer("convex", v, 1.0, 1.0, 2)
        assert population_excess_risk("convex", v, t_star, 1.0, 1.0, 2) == \
            pytest.approx(0.0, abs=1e-12)
        thetas = rng.uniform(-1.0, 1.0, size=50)
        assert population_excess_risk("convex", v, thetas, 1.0, 1.0, 2).min() >= -1e-12


def test_convex_minimizer_lies_in_the_known_bracket():
    for (beta, r), v, n in itertools.product(((1.0, 1.0), (2.0, 1.5)), (1, 2),
                                             (1, 4, 16, 64, 1000)):
        t_star, min_val = population_minimizer("convex", v, beta, r, n)
        lo, hi = (-r, -r / 2) if v == 1 else (r / 2, r)
        assert lo <= t_star <= hi
        f = lambda t: population_risk("convex", v, t, beta, r, n)
        assert min_val == f(t_star)[0]
        # no point of a dense grid on the bracket lies lower
        assert f(np.linspace(lo, hi, 100_001)).min() >= min_val
        # zero one-sided slopes: on either side the risk rises by the
        # quadratic term w beta h^2 / 2 alone, to rounding
        w = 0.5 + separation_delta(n)
        h = 1e-3 * r
        for step in (h, -h):
            rise = f(t_star + step)[0] - min_val
            assert rise == pytest.approx(0.5 * w * beta * h * h, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("variant", ["convex", "strongly_convex"])
@pytest.mark.parametrize("v", [0, 3])
def test_population_functions_reject_an_identity_other_than_1_or_2(variant, v):
    # v = 0 once read P2 (index -1), v = 3 raised IndexError, and the strongly
    # convex minimizer answered for any v
    calls = (lambda: population_risk(variant, v, 0.1, 1.0, 1.0, 4),
             lambda: population_minimizer(variant, v, 1.0, 1.0, 4),
             lambda: population_excess_risk(variant, v, 0.1, 1.0, 1.0, 4))
    for call in calls:
        with pytest.raises(ValidationError, match="identity v must be 1 or 2"):
            call()


def test_every_function_of_a_variant_rejects_an_unknown_one():
    # each names the variant, none answers it as the convex or strongly convex one
    calls = (lambda: population_risk("bogus", 1, 0.1, 1.0, 1.0, 4),
             lambda: population_minimizer("bogus", 1, 1.0, 1.0, 4),
             lambda: population_excess_risk("bogus", 1, 0.1, 1.0, 1.0, 4),
             lambda: phi_formula("bogus", 1.0, 1.0, 4),
             lambda: phi_certificate("bogus", 4, 1.0, 1.0))
    for call in calls:
        with pytest.raises(ValidationError, match="unknown variant 'bogus'"):
            call()


# ------------------------------------------------------------ certificates


def test_phi_certificate_convex_example():
    cert = phi_certificate("convex", 1, 1.0, 1.0)
    assert cert.phi == pytest.approx(1 / math.sqrt(96), abs=1e-12)
    assert cert.passed and cert.grid_min >= cert.phi * (1 - 1e-6)


def test_convex_certificate_needs_its_grid():
    # the population risk is convex, so its least excess beyond r lies at distance r
    # from theta*, which the grid reads at its first point past theta* + r
    theta_star, _ = population_minimizer("convex", 1, 1.0, 1.0, 16)
    (at_r,) = population_excess_risk("convex", 1, theta_star + 1.0, 1.0, 1.0, 16)
    grid = np.linspace(-1.0, 1.0, 401)
    (at_first,) = population_excess_risk("convex", 1, grid[grid >= theta_star + 1.0][0],
                                         1.0, 1.0, 16)
    cert = phi_certificate("convex", 16, 1.0, 1.0)
    assert cert.passed and cert.phi < at_r < cert.grid_min == at_first
    assert (round(at_r, 5), round(cert.grid_min, 5)) == (0.04867, 0.04880)


def test_phi_certificate_sc_example():
    cert = phi_certificate("strongly_convex", 1, 1.0, 1.0)
    assert cert.phi == pytest.approx(1 / 12)
    assert cert.passed


def test_phi_scales_quadratically_in_r():
    for variant in ("convex", "strongly_convex"):
        assert phi_formula(variant, 1.0, 2.0, 5) == pytest.approx(
            4 * phi_formula(variant, 1.0, 1.0, 5))


@pytest.mark.parametrize("variant", ["convex", "strongly_convex"])
@pytest.mark.parametrize("n", [1, 4, 16, 64])
def test_phi_certificates_pass_at_half_domain(variant, n):
    assert phi_certificate(variant, n, 1.0, 1.0).passed


def test_phi_certificate_rejects_coarse_grid():
    with pytest.raises(ValidationError):
        phi_certificate("convex", 1, 1.0, 1.0, resolution=0.1)


# ----------------------------------------------------------------- tv / kl


def test_kl_at_n6():
    _, kl = tv_kl_product(6)
    assert kl == pytest.approx(math.log(1.4), abs=1e-12)
    assert kl == pytest.approx(0.336472, abs=1e-6)


def test_tv_at_n1():
    tv, _ = tv_kl_product(1)
    assert tv == pytest.approx(1 / math.sqrt(6), abs=1e-12)


def test_tv_bounded_for_enumerated_range():
    for n in range(1, 13):
        tv, _ = tv_kl_product(n)
        assert 0.0 < tv <= 0.5 + 1e-12


def test_tv_nondecreasing_in_n_for_fixed_separation():
    # decoupled from the 1/sqrt(24 n) schedule, more samples can only help
    # the test distinguish the two distributions
    d = 0.1

    def tv_fixed(n):
        from math import comb

        total = 0.0
        for k in range(n + 1):
            p1 = comb(n, k) * (0.5 - d) ** k * (0.5 + d) ** (n - k)
            p2 = comb(n, k) * (0.5 + d) ** k * (0.5 - d) ** (n - k)
            total += abs(p1 - p2)
        return total / 2

    vals = [tv_fixed(n) for n in range(1, 16)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_pinsker_inequality_on_construction():
    for n in range(1, 13):
        tv, kl = tv_kl_product(n)
        assert tv * tv <= kl / 2 + 1e-12


def test_tv_enumeration_matches_brute_force():
    # full 2^n enumeration cross-check of the count-class computation
    for n in (1, 2, 5, 8):
        d = separation_delta(n)
        tv_classes, _ = tv_kl_product(n)
        tv_brute = 0.0
        for mask in range(2 ** n):
            ones = bin(mask).count("1")
            p1 = (0.5 - d) ** ones * (0.5 + d) ** (n - ones)
            p2 = (0.5 + d) ** ones * (0.5 - d) ** (n - ones)
            tv_brute += abs(p1 - p2)
        assert tv_classes == pytest.approx(tv_brute / 2, abs=1e-14)


def test_enumeration_range_guard():
    # the log-space sum over n + 1 count classes has no upper limit on n
    tv, kl = tv_kl_product(10**6)
    assert 0.0 <= tv <= 1.0 and tv * tv <= kl / 2
    assert 0.25 <= bayes_test_error(tv) <= 0.5
    with pytest.raises(ValidationError):
        tv_kl_product(0)


# ------------------------------------------------------------- bayes error


def test_bayes_error_formula():
    for n in (1, 4, 12):
        tv, _ = tv_kl_product(n)
        assert bayes_test_error(tv) == pytest.approx((1 - tv) / 2)


def test_bayes_error_at_least_quarter():
    for n in range(1, 13):
        assert bayes_test_error(tv_kl_product(n)[0]) >= 0.25 - 1e-12


# --------------------------------------------------- minimax consistency


def test_sc_phi_quarter_reproduces_minimax_rate():
    for n in (1, 4, 100):
        rel = minimax_consistency(n, R=2.0, beta=1.5)
        sc = rel["strongly_convex"]
        assert sc["phi_quarter"] == pytest.approx(sc["minimax"], abs=1e-15)


def test_convex_phi_quarter_is_four_times_minimax_rate():
    for n in (1, 4, 100):
        rel = minimax_consistency(n, R=2.0, beta=1.5)
        cx = rel["convex"]
        assert cx["phi_quarter"] == pytest.approx(4.0 * cx["minimax"], rel=1e-12)


def test_minimax_displayed_constants():
    for n in (1, 7, 50):
        R, beta = 2.0, 1.5
        assert minimax_bound(CONVEX, n, R, beta) == pytest.approx(
            R * R * beta / (256 * math.sqrt(6 * n)), abs=1e-12)
        assert minimax_bound(STRONGLY_CONVEX, n, R, beta) == pytest.approx(
            R * R * beta / (192 * n), abs=1e-12)
