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


def bound_at_T(config, setting, constants, n):
    """The stability bound at config.T: the curve at that one horizon."""
    return float(stability_bound_curve(config, setting, constants, n, [config.T])[0])


# ---------------------------------------------------------------- stability


def test_gd_convex_bound():
    assert bound_at_T(*q("gd", T=100, n=500)) == pytest.approx(0.04)


def test_nag_convex_bound():
    assert bound_at_T(*q("nag", T=10, n=500)) == pytest.approx(0.08)


def test_hb_convex_bound():
    # 4 * 0.1 * 10 / ((1 - sqrt(0.8)) * 500), evaluated exactly
    expect = 4.0 * 0.1 * 10 / ((1 - math.sqrt(0.8)) * 500)
    got = bound_at_T(*q("hb", T=10, n=500, gamma=0.8))
    assert got == pytest.approx(expect, abs=1e-12)
    assert got == pytest.approx(0.0757771, abs=1e-6)


def test_sgd_power_bound():
    got = bound_at_T(*q("sgd", schedule=power(0.1, 0.5), T=100, n=500))
    assert got == pytest.approx(2 * 0.1 * 1 * 10 / 500)


def test_gd_strongly_convex_limit():
    sc = LossConstants(L=1.0, beta=2.0, alpha=1.0, R=1.0)
    got = bound_at_T(*q("gd", setting=STRONGLY_CONVEX, constants=sc,
                       schedule=fixed(0.5), T=100000, n=100))
    assert got == pytest.approx(4.0 / 100)


def test_sgld_bound_example():
    got = bound_at_T(*q("sgld", schedule=power(0.5, 1.0), T=10, n=100, tau=1.0))
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
        bound_at_T(*q("hb", setting=STRONGLY_CONVEX, constants=SC,
                     schedule=fixed(0.1), gamma=0.5))
    with pytest.raises(NoBoundError):
        bound_at_T(*q("nag", schedule=power(0.1, 0.5)))
    with pytest.raises(NoBoundError):
        bound_at_T(*q("sgld", schedule=fixed(0.1), tau=1.0))
    with pytest.raises(NoBoundError):  # raised even at T = 0
        bound_at_T(*q("hb", setting=STRONGLY_CONVEX, constants=SC,
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
    assert bound_at_T(*at(query, T=0)) == 0.0
    vals = [bound_at_T(*at(query, T=T))
            for T in (0, 1, 2, 5, 10, 50, 100, 1000)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[1] > 0
    config, setting, constants, n = query
    one = bound_at_T(config, setting, constants, n)
    half = bound_at_T(config, setting, constants, 2 * n)
    assert half == pytest.approx(one / 2, rel=1e-15)


def test_nag_to_gd_ratio_is_2T():
    for T in (1, 3, 10, 200):
        ratio = bound_at_T(*q("nag", T=T)) / bound_at_T(*q("gd", T=T))
        assert ratio == pytest.approx(2.0 * T, rel=1e-12)


def test_strongly_convex_bounds_monotone_to_limit():
    for method, limit in (("gd", 4.0), ("sgd", 2.0), ("nag_sc", 4.0)):
        base = q(method, setting=STRONGLY_CONVEX, constants=SC, schedule=fixed(0.5),
                 n=100, kappa=2.0)
        vals = np.array([bound_at_T(*at(base, T=T)) for T in range(0, 200)])
        diffs = np.diff(vals)
        assert np.all(diffs >= 0)
        # strictly increasing until the geometric term underflows the limit
        assert np.all(diffs[:20] > 0)
        assert np.all(vals <= limit / 100 + 1e-15)
        assert bound_at_T(*at(base, T=100000)) == pytest.approx(limit / 100)


def test_doubling_exponents_for_power_law_methods():
    cases = [(q("gd"), 1.0), (q("sgd"), 1.0), (q("hb", gamma=0.8), 1.0),
             (q("nag"), 2.0), (q("sgd", schedule=power(0.1, 0.5)), 0.5),
             (q("sgd", schedule=power(0.1, 0.3)), 0.7)]
    for base, exponent in cases:
        for T in (1, 4, 32, 256):
            lhs = math.log(bound_at_T(*at(base, T=2 * T))) \
                - math.log(bound_at_T(*at(base, T=T)))
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


# The step-size exponents a in {0, 0.5, 1} at which each reader returns a value (it
# raises NoBoundError at the others), per (method, setting): the stability curve, its
# table form, the table exponent and the convergence lower bound.  table_exponent takes
# no setting (it reads the convex row), so it has no strongly convex column (None).
ANY, FIXED, HARMONIC, NONE = {0.0, 0.5, 1.0}, {0.0}, {1.0}, set()
DOMAINS = {
    ("gd", CONVEX): (ANY, ANY, ANY, FIXED),
    ("sgd", CONVEX): (ANY, ANY, ANY, NONE),
    ("nag", CONVEX): (FIXED, FIXED, FIXED, FIXED),
    ("nag_sc", CONVEX): (NONE, NONE, NONE, NONE),
    ("hb", CONVEX): (FIXED, FIXED, FIXED, NONE),
    ("sgld", CONVEX): (HARMONIC, HARMONIC, HARMONIC, NONE),
    ("gd", STRONGLY_CONVEX): (FIXED, FIXED, None, FIXED),
    ("sgd", STRONGLY_CONVEX): (FIXED, FIXED, None, NONE),
    ("nag", STRONGLY_CONVEX): (NONE, NONE, None, FIXED),
    ("nag_sc", STRONGLY_CONVEX): (FIXED, FIXED, None, FIXED),
    ("hb", STRONGLY_CONVEX): (NONE, NONE, None, NONE),
    ("sgld", STRONGLY_CONVEX): (NONE, NONE, None, NONE),
}


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("method", METHODS)
def test_bound_readers_share_their_domains(method, alpha):
    # the truth table above, in both settings; every convergence lower bound needs a
    # fixed step, and says so
    schedule = fixed(0.1) if alpha == 0 else power(0.1, alpha)
    kw = dict(schedule=schedule, gamma=0.5 if method == "hb" else 0.0,
              tau=1.0 if method == "sgld" else None,
              kappa=SC.beta / SC.alpha if method == "nag_sc" else None)
    for setting, constants in ((CONVEX, C_CONVEX), (STRONGLY_CONVEX, SC)):
        query = q(method, setting=setting, constants=constants, **kw)
        readers = [lambda: stability_bound_curve(*query, [1, 16]),
                   lambda: stability_bound_table_form(*query, [1, 16]),
                   lambda: table_exponent(query[0]),
                   lambda: convergence_lower_bound(*query)]
        domains = DOMAINS[method, setting]
        got = [None if domain is None else not _raises_no_bound(read)
               for domain, read in zip(domains, readers)]
        assert got == [None if domain is None else alpha in domain for domain in domains], \
            setting
        if alpha != 0:
            with pytest.raises(NoBoundError, match="fixed step"):
                convergence_lower_bound(*query)


def test_nag_sc_bounds_need_the_loss_kappa():
    # the bounds use kappa = beta/alpha = 2 of SC; the run's momentum uses config.kappa
    args = dict(setting=STRONGLY_CONVEX, constants=SC, schedule=fixed(0.5), T=20, n=50)
    ok = q("nag_sc", kappa=2.0 * (1 + 1e-10), **args)
    assert bound_at_T(*ok) == bound_at_T(*q("nag_sc", kappa=2.0, **args))
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
    for bound in (bound_at_T, convergence_lower_bound):
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


@pytest.mark.parametrize("method", ["gd", "sgd", "nag", "hb"])
@pytest.mark.parametrize("eta0, L, n", [(0.1, 1.0, 500), (0.3, 0.5, 77), (1 / 3, 1.7, 1000)])
def test_convex_curve_at_alpha_0_is_the_fixed_step_form_bitwise(method, eta0, L, n):
    T = np.arange(5001, dtype=float)
    constants = LossConstants(L=L, beta=0.25, alpha=0.0, R=1.0)
    gamma = 0.8 if method == "hb" else 0.0
    query = q(method, constants=constants, schedule=fixed(eta0), n=n, gamma=gamma)
    form = {"gd": lambda: 2.0 * eta0 * L * L * T / n,
            "sgd": lambda: 2.0 * eta0 * L * L * T / n,
            "nag": lambda: 4.0 * eta0 * L * L * T * T / n,
            "hb": lambda: 4.0 * eta0 * L * L * T / ((1.0 - math.sqrt(gamma)) * n)}[method]()
    assert np.array_equal(stability_bound_curve(*query, T), np.where(T == 0, 0.0, form))
    assert table_exponent(query[0]) == (2.0 if method == "nag" else 1.0)


@pytest.mark.parametrize("eta0, tau, L, n, k0", [
    (0.5, 1.0, 1.0, 100, 1), (3.7, 1.0, 1.0, 100, 4), (1.85, 2.0, 0.9, 77, 3)])
def test_sgld_curve_is_its_written_form_bitwise(eta0, tau, L, n, k0):
    # eta_t = eta0 / t; the harmonic tail sum_{k0 < t <= T} 1/t accumulated in order
    constants = LossConstants(L=L, beta=0.25, alpha=0.0, R=1.0)
    assert sgld_burn_in(eta0, tau, L) == k0
    expect, harmonic = [0.0], 0.0
    for t in range(1, 5001):
        harmonic += 1.0 / t if t > k0 else 0.0
        expect.append((L / n) * (min(k0, t) + L * math.sqrt(tau * (eta0 * harmonic))))
    query = q("sgld", constants=constants, schedule=power(eta0, 1.0), n=n, tau=tau)
    assert stability_bound_curve(*query, np.arange(5001)).tolist() == expect


@pytest.mark.parametrize("eta, T, R", [(0.1, 10, 1.0), (1 / 3, 777, 2.5), (3.9, 5000, 0.3)])
def test_convex_convergence_bounds_are_their_written_forms_bitwise(eta, T, R):
    constants = LossConstants(L=1.0, beta=0.25, alpha=0.0, R=R)
    query = lambda m: q(m, constants=constants, schedule=fixed(eta), T=T)
    assert convergence_lower_bound(*query("gd")) == R * R / (2.0 * C2 * eta * T)
    assert convergence_lower_bound(*query("nag")) == R * R / (4.0 * C2 * eta * T * T)


# each bound holds only in its proof's step-size range, which is the range the step
# engine accepts: eta0 <= 1/beta for gd, sgd, nag and nag_sc (C_CONVEX: 4, SC: 0.5)
# and eta0 < (1 - gamma)/beta for hb (gamma = 0.5: 2); sgld's bound has no such range
@pytest.mark.parametrize("method, setting, inside, over", [
    ("gd", CONVEX, 4.0, 4.0 * (1 + 1e-9)),
    ("sgd", CONVEX, 4.0, 4.0 * (1 + 1e-9)),
    ("nag", CONVEX, 4.0, 4.0 * (1 + 1e-9)),
    ("hb", CONVEX, 2.0 * (1 - 1e-9), 2.0),
    ("gd", STRONGLY_CONVEX, 0.5, 0.5 * (1 + 1e-9)),
    ("sgd", STRONGLY_CONVEX, 0.5, 0.5 * (1 + 1e-9)),
    ("nag", STRONGLY_CONVEX, 0.5, 0.5 * (1 + 1e-9)),
    ("nag_sc", STRONGLY_CONVEX, 0.5, 0.5 * (1 + 1e-9)),
])
def test_every_bound_rejects_a_step_past_its_limit(method, setting, inside, over):
    kw = dict(setting=setting, constants=C_CONVEX if setting == CONVEX else SC, T=1000,
              gamma=0.5 if method == "hb" else 0.0, kappa=2.0 if method == "nag_sc" else None)
    readers = (lambda *query: stability_bound_curve(*query, [1, 2, 1000]),
               lambda *query: stability_bound_table_form(*query, [1, 2, 1000]),
               convergence_lower_bound)
    values = 0
    for read in readers:
        with pytest.raises(ValidationError, match=f"{method} needs eta"):
            read(*q(method, schedule=fixed(over), **kw))
        try:
            value = read(*q(method, schedule=fixed(inside), **kw))
        except NoBoundError:  # the row lacks this piece
            continue
        assert np.all(np.isfinite(value))
        values += 1
    assert values >= 1


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
        assert bound_at_T(*query(method)) == float(expect[0]), method
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
