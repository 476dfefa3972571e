import dataclasses
import math

import numpy as np
import pytest

from optstab.bounds import (
    C1,
    C2,
    C3,
    CONVEX,
    STRONGLY_CONVEX,
    NoBoundError,
    convergence_lower_bound,
    early_stopping_T,
    minimax_bound,
    sgld_burn_in,
    stability_bound,
    stability_bound_curve,
    stability_bound_table_form,
    table_exponent,
    tradeoff_check,
)
from optstab.losses import LossConstants, ValidationError
from optstab.optimizers import METHODS, OptimizerConfig, fixed, power

C_CONVEX = LossConstants(L=1.0, beta=0.25, alpha=0.0, R=1.0)


def q(method, setting=CONVEX, constants=C_CONVEX, schedule=None, T=10, n=100,
      gamma=0.0, tau=None, kappa=None):
    """The arguments (config, setting, constants, n) of a bound evaluation."""
    config = OptimizerConfig(method=method, schedule=schedule or fixed(0.1), T=T,
                             gamma=gamma, tau=tau, kappa=kappa)
    return config, setting, constants, n


def at(query, **changes):
    """``query`` with its config's fields replaced."""
    config, *rest = query
    return (dataclasses.replace(config, **changes), *rest)


SC = LossConstants(L=1.0, beta=2.0, alpha=1.0, R=1.0)


# ---------------------------------------------------------------- stability


def test_gd_convex_bound():
    assert stability_bound(*q("gd", T=100, n=500)) == pytest.approx(0.04)


def test_nag_convex_bound():
    assert stability_bound(*q("nag", T=10, n=500)) == pytest.approx(0.08)


def test_hb_convex_bound():
    # 4 * 0.1 * 10 / ((1 - sqrt(0.8)) * 500), evaluated exactly
    expect = 4.0 * 0.1 * 10 / ((1 - math.sqrt(0.8)) * 500)
    got = stability_bound(*q("hb", T=10, n=500, gamma=0.8))
    assert got == pytest.approx(expect, abs=1e-12)
    assert got == pytest.approx(0.0757771, abs=1e-6)


def test_sgd_power_bound():
    got = stability_bound(*q("sgd", schedule=power(0.1, 0.5), T=100, n=500))
    assert got == pytest.approx(2 * 0.1 * 1 * 10 / 500)


def test_gd_strongly_convex_limit():
    sc = LossConstants(L=1.0, beta=2.0, alpha=1.0, R=1.0)
    got = stability_bound(*q("gd", setting=STRONGLY_CONVEX, constants=sc,
                            schedule=fixed(0.5), T=100000, n=100))
    assert got == pytest.approx(4.0 / 100)


def test_sgld_bound_example():
    got = stability_bound(*q("sgld", schedule=power(0.5, 1.0), T=10, n=100, tau=1.0))
    # k0 = 1; sum_{t=2}^{10} 0.5/t = 0.5 (H_10 - 1)
    tail = 0.5 * (sum(1.0 / t for t in range(1, 11)) - 1.0)
    assert got == pytest.approx((1.0 / 100) * (1 + math.sqrt(tail)), abs=1e-12)
    assert got == pytest.approx(0.019821, abs=1e-5)


def test_sgld_burn_in():
    assert sgld_burn_in(0.5, 1.0, 1.0) == 1
    assert sgld_burn_in(3.7, 1.0, 1.0) == 4
    assert sgld_burn_in(4.0, 1.0, 1.0) == 5  # needs eta_t tau L^2 strictly < 1


def test_no_bound_pairs_raise():
    with pytest.raises(NoBoundError):
        stability_bound(*q("hb", setting=STRONGLY_CONVEX, constants=SC,
                          schedule=fixed(0.1), gamma=0.5))
    with pytest.raises(NoBoundError):
        stability_bound(*q("nag", schedule=power(0.1, 0.5)))
    with pytest.raises(NoBoundError):
        stability_bound(*q("sgld", schedule=fixed(0.1), tau=1.0))
    with pytest.raises(NoBoundError):  # raised even at T = 0
        stability_bound(*q("hb", setting=STRONGLY_CONVEX, constants=SC,
                          schedule=fixed(0.1), gamma=0.5, T=0))


@pytest.mark.parametrize("query", [
    q("gd"),
    q("sgd"),
    q("nag"),
    q("hb", gamma=0.8),
    q("sgd", schedule=power(0.1, 0.5)),
    q("sgld", schedule=power(0.5, 1.0), tau=1.0),
    q("gd", setting=STRONGLY_CONVEX, constants=SC, schedule=fixed(0.5)),
    q("sgd", setting=STRONGLY_CONVEX, constants=SC, schedule=fixed(0.5)),
    q("nag_sc", setting=STRONGLY_CONVEX, constants=SC, schedule=fixed(0.5), kappa=2.0),
], ids=lambda v: f"{v[0].method}-{v[1]}-{'power' if v[0].schedule.alpha else 'fixed'}")
def test_zero_at_T0_and_nondecreasing_and_inverse_n(query):
    assert stability_bound(*at(query, T=0)) == 0.0
    vals = [stability_bound(*at(query, T=T))
            for T in (0, 1, 2, 5, 10, 50, 100, 1000)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[1] > 0
    config, setting, constants, n = query
    one = stability_bound(config, setting, constants, n)
    half = stability_bound(config, setting, constants, 2 * n)
    assert half == pytest.approx(one / 2, rel=1e-15)


def test_nag_to_gd_ratio_is_2T():
    for T in (1, 3, 10, 200):
        ratio = stability_bound(*q("nag", T=T)) / stability_bound(*q("gd", T=T))
        assert ratio == pytest.approx(2.0 * T, rel=1e-12)


def test_strongly_convex_bounds_monotone_to_limit():
    for method, limit in (("gd", 4.0), ("sgd", 2.0), ("nag_sc", 4.0)):
        base = q(method, setting=STRONGLY_CONVEX, constants=SC, schedule=fixed(0.5),
                 n=100, kappa=2.0)
        vals = np.array([stability_bound(*at(base, T=T))
                         for T in range(0, 200)])
        diffs = np.diff(vals)
        assert np.all(diffs >= 0)
        # strictly increasing until the geometric term underflows the limit
        assert np.all(diffs[:20] > 0)
        assert np.all(vals <= limit / 100 + 1e-15)
        assert stability_bound(*at(base, T=100000)) == pytest.approx(
            limit / 100)


def test_doubling_exponents_for_power_law_methods():
    cases = [(q("gd"), 1.0), (q("sgd"), 1.0), (q("hb", gamma=0.8), 1.0),
             (q("nag"), 2.0), (q("sgd", schedule=power(0.1, 0.5)), 0.5),
             (q("sgd", schedule=power(0.1, 0.3)), 0.7)]
    for base, exponent in cases:
        for T in (1, 4, 32, 256):
            lhs = math.log(stability_bound(*at(base, T=2 * T))) \
                - math.log(stability_bound(*at(base, T=T)))
            assert lhs == pytest.approx(exponent * math.log(2), abs=1e-12)


def test_table_exponents():
    assert table_exponent(q("gd")[0]) == 1.0
    assert table_exponent(q("sgd")[0]) == 1.0
    assert table_exponent(q("hb")[0]) == 1.0
    assert table_exponent(q("nag")[0]) == 2.0
    assert table_exponent(q("sgd", schedule=power(0.1, 0.5))[0]) == 0.5
    assert table_exponent(q("sgld", schedule=power(0.5, 1.0), tau=1.0)[0]) == 0.25


def test_sgld_table_form_is_quarter_power():
    base = q("sgld", schedule=power(0.5, 1.0), tau=2.0, n=100)
    for T in (4, 16, 256):
        ratio = np.divide(*stability_bound_table_form(*base, [2 * T, T]))
        assert ratio == pytest.approx(2 ** 0.25, rel=1e-12)


def _raises_no_bound(call) -> bool:
    try:
        call()
    except NoBoundError:
        return True
    return False


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("method", METHODS)
def test_bound_readers_share_their_domains(method, alpha):
    # the three convex readers raise together: for nag_sc, nag or hb on a
    # decreasing step and sgld off eta0 / t; the strongly convex curve and table
    # form raise together too; every convergence lower bound needs a fixed step
    schedule = fixed(0.1) if alpha == 0 else power(0.1, alpha)
    kw = dict(schedule=schedule, gamma=0.5 if method == "hb" else 0.0,
              tau=1.0 if method == "sgld" else None,
              kappa=SC.beta / SC.alpha if method == "nag_sc" else None)
    convex, sc = q(method, **kw), q(method, setting=STRONGLY_CONVEX, constants=SC, **kw)
    readers = [lambda: stability_bound_curve(*convex, [1, 16]),
               lambda: stability_bound_table_form(*convex, [1, 16]),
               lambda: table_exponent(convex[0])]
    no_row = method == "nag_sc" or (method in ("nag", "hb") and alpha != 0) or (
        method == "sgld" and alpha != 1)
    assert [_raises_no_bound(r) for r in readers] == [no_row] * 3
    assert _raises_no_bound(lambda: stability_bound_table_form(*sc, [1, 16])) \
        == _raises_no_bound(lambda: stability_bound_curve(*sc, [1, 16]))
    if alpha != 0:
        for query in (convex, sc):
            with pytest.raises(NoBoundError, match="fixed step"):
                convergence_lower_bound(*query)


def test_nag_sc_bounds_need_the_loss_kappa():
    # the bounds use kappa = beta/alpha = 2 of SC; the run's momentum uses config.kappa
    args = dict(setting=STRONGLY_CONVEX, constants=SC, schedule=fixed(0.5), T=20, n=50)
    ok = q("nag_sc", kappa=2.0 * (1 + 1e-10), **args)
    assert stability_bound(*ok) == stability_bound(*q("nag_sc", kappa=2.0, **args))
    assert convergence_lower_bound(*ok) == convergence_lower_bound(*q("nag", **args))
    bad = q("nag_sc", kappa=4.0, **args)
    with pytest.raises(NoBoundError, match="kappa"):
        stability_bound_curve(*bad, [0, 1, 2])
    with pytest.raises(NoBoundError, match="kappa"):
        convergence_lower_bound(*bad)


@pytest.mark.parametrize("setting, constants, n", [
    ("concave", C_CONVEX, 10), (CONVEX, C_CONVEX, 0), (CONVEX, C_CONVEX, 10.5),
    (STRONGLY_CONVEX, C_CONVEX, 10)])
def test_every_bound_rejects_a_bad_setting_or_n(setting, constants, n):
    gd = OptimizerConfig(method="gd", schedule=fixed(0.1), T=10)
    for bound in (stability_bound, convergence_lower_bound):
        with pytest.raises(ValidationError):
            bound(gd, setting, constants, n)
    for curve in (stability_bound_curve, stability_bound_table_form):
        with pytest.raises(ValidationError):
            curve(gd, setting, constants, n, [1])


# ------------------------------------------------------- convergence bounds


def test_default_universal_constants():
    assert C1 == pytest.approx(256 * math.sqrt(6))
    assert C2 == 2097152.0
    assert C3 == 192.0


def test_convergence_gd_convex_example():
    got = convergence_lower_bound(*q("gd", constants=LossConstants(1, 1, 0, 1)))
    assert got == pytest.approx(1 / 4194304, rel=1e-12)
    assert got == pytest.approx(2.3842e-7, rel=1e-4)


def test_convergence_nag_convex_example():
    got = convergence_lower_bound(*q("nag", constants=LossConstants(1, 1, 0, 1)))
    assert got == pytest.approx(1 / 83886080, rel=1e-12)
    assert got == pytest.approx(1.1921e-8, rel=1e-4)


def test_convergence_strongly_convex_offset_is_negative():
    base = q("gd", setting=STRONGLY_CONVEX, constants=SC, schedule=fixed(0.5),
             T=100000, n=50)
    got = convergence_lower_bound(*base)
    expect = SC.beta * SC.R ** 2 / (192 * 50) - 4 * (SC.R * SC.beta) ** 2 / (SC.alpha * 50)
    assert got == pytest.approx(expect, rel=1e-9)
    assert got < 0


def test_convergence_nag_strongly_convex_decay_rate():
    base = q("nag_sc", setting=STRONGLY_CONVEX, constants=SC, schedule=fixed(0.5),
             n=50, kappa=2.0)
    kappa = SC.beta / SC.alpha
    bulk = 4 * (SC.R * SC.beta) ** 2 / (SC.alpha * 50)
    vals = [convergence_lower_bound(*at(base, T=T)) for T in (1, 2, 3)]
    diffs = np.diff(vals)
    assert diffs[1] / diffs[0] == pytest.approx(1 - 1 / math.sqrt(kappa), rel=1e-9)
    assert bulk > 0


def test_convergence_requires_T_at_least_1():
    with pytest.raises(ValidationError):
        convergence_lower_bound(*q("gd", T=0))
    with pytest.raises(NoBoundError):
        convergence_lower_bound(*q("hb", gamma=0.5))


# ---------------------------------------------------------------- minimax


def test_minimax_convex_example():
    assert minimax_bound(CONVEX, 4, 2.0, 1.0) == pytest.approx(0.0031894, abs=1e-6)


def test_minimax_strongly_convex_example():
    assert minimax_bound(STRONGLY_CONVEX, 4, 2.0, 1.0) == pytest.approx(4 / 768)


def test_minimax_monotone_in_n():
    for setting in (CONVEX, STRONGLY_CONVEX):
        vals = [minimax_bound(setting, n, 1.0, 1.0) for n in (1, 2, 5, 10, 100)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------- trade-off


def test_tradeoff_check():
    assert tradeoff_check(0.04, 0.0, 2.4e-7)
    assert tradeoff_check(0.0, 0.0, 0.0)
    assert not tradeoff_check(1e-9, 1e-9, 1e-3)
    with pytest.raises(ValidationError):
        tradeoff_check(-1.0, 0.0, 0.0)


# ---------------------------------------------------------------- early stop


def test_early_stopping_examples():
    assert early_stopping_T(400, 0.1, 1.0, 1.0) == 200
    assert early_stopping_T(10000, 0.1, 1.0, 1.0) == 1000


def test_early_stopping_square_root_scaling():
    base = early_stopping_T(1000, 0.1, 1.0, 1.0)
    assert early_stopping_T(4000, 0.1, 1.0, 1.0) == pytest.approx(2 * base, abs=1)


def test_early_stopping_floor_and_validation():
    assert early_stopping_T(1, 10.0, 10.0, 10.0) == 1
    with pytest.raises(ValidationError):
        early_stopping_T(0, 0.1, 1.0, 1.0)


# ---------------------------------------------------------------- one step law
# eta_t = eta0 t^-a with a = 0 a fixed step: each reference below is the
# fixed-step expression written out on its own, evaluated as its form was
# evaluated when a schedule had a kind


@pytest.mark.parametrize("method", ["gd", "sgd"])
@pytest.mark.parametrize("eta0, L, n", [(0.1, 1.0, 500), (0.3, 0.5, 77), (1 / 3, 1.7, 1000)])
def test_convex_curve_at_alpha_0_is_the_fixed_step_form_bitwise(method, eta0, L, n):
    T = np.arange(5001, dtype=float)
    constants = LossConstants(L=L, beta=0.25, alpha=0.0, R=1.0)
    got = stability_bound_curve(*q(method, constants=constants, schedule=fixed(eta0), n=n), T)
    assert np.array_equal(got, np.where(T == 0, 0.0, 2.0 * eta0 * L * L * T / n))
    assert table_exponent(q(method, schedule=fixed(eta0))[0]) == 1.0


@pytest.mark.parametrize("kappa", [1.5, 4.0, 100.0])
@pytest.mark.parametrize("scale", [0.1, 1.0])
@pytest.mark.parametrize("T", [1, 10, 1000])
def test_strongly_convex_forms_keep_their_contraction_bits(kappa, scale, T):
    L, R, alpha, n = 1.3, 2.0, 0.5, 64
    beta = kappa * alpha
    eta = scale / beta
    sc = LossConstants(L=L, beta=beta, alpha=alpha, R=R)
    k = beta / alpha
    Ts = np.asarray([T], dtype=float)  # the stability forms ran on a one-horizon array
    stability = {
        "gd": (4.0 * L * L / (alpha * n)) * (1.0 - (1.0 - eta * beta / (1.0 + k)) ** Ts),
        "sgd": (2.0 * L * L / (alpha * n)) * (1.0 - (1.0 - eta * alpha / 2.0) ** Ts),
        "nag_sc": (4.0 * L * L / (alpha * n)) * (1.0 - (1.0 - 1.0 / math.sqrt(k)) ** Ts),
    }
    lead, bulk = beta * R * R / (C3 * n), 4.0 * (R * beta) ** 2 / (alpha * n)
    convergence = {
        "gd": lead - bulk + bulk * (1.0 - eta * beta / (1.0 + k)) ** T,
        "nag": lead - bulk + bulk * (1.0 - 1.0 / math.sqrt(k)) ** T,
        "nag_sc": lead - bulk + bulk * (1.0 - 1.0 / math.sqrt(k)) ** T,
    }
    query = lambda m: q(m, setting=STRONGLY_CONVEX, constants=sc, schedule=fixed(eta),
                        T=T, n=n, kappa=kappa)
    for method, expect in stability.items():
        assert stability_bound(*query(method)) == float(expect[0]), method
    for method, expect in convergence.items():
        assert convergence_lower_bound(*query(method)) == expect, method


@pytest.mark.parametrize("eta0, gamma, alpha, tau, n", [
    (0.1, 0.8, 0.5, 1.0, 500), (0.3, 0.5, 0.3, 2.5, 77)])
def test_table_form_over_horizons_equals_the_per_horizon_form_bitwise(eta0, gamma, alpha,
                                                                      tau, n):
    from optstab.losses import logistic_spec, loss_constants

    constants = loss_constants(logistic_spec())
    L = constants.L
    ts = 2 ** np.arange(4, 13)
    rows = {"gd": ("gd", fixed(eta0)), "sgd": ("sgd", fixed(eta0)), "hb": ("hb", fixed(eta0)),
            "nag": ("nag", fixed(eta0)), "sgd_power": ("sgd", power(eta0, alpha)),
            "sgld": ("sgld", power(eta0, 1.0))}

    def per_horizon(label, t):  # one horizon at a time; sgld's on a Python int
        if label == "sgld":
            return L * L * math.sqrt(tau * eta0) * t ** 0.25 / n
        T = np.asarray([t], dtype=float)
        curve = {"gd": lambda: 2.0 * eta0 * L * L * T / n,
                 "sgd": lambda: 2.0 * eta0 * L * L * T / n,
                 "hb": lambda: 4.0 * eta0 * L * L * T / ((1.0 - math.sqrt(gamma)) * n),
                 "nag": lambda: 4.0 * eta0 * L * L * T * T / n,
                 "sgd_power": lambda: 2.0 * eta0 * L * L * T ** (1.0 - alpha) / n}[label]()
        return float(np.where(T == 0, 0.0, curve)[0])

    for label, (method, schedule) in rows.items():
        config = OptimizerConfig(method=method, schedule=schedule, T=int(ts[-1]),
                                 gamma=gamma, tau=tau)
        got = stability_bound_table_form(config, CONVEX, constants, n, ts)
        assert got.tolist() == [per_horizon(label, int(t)) for t in ts], label
