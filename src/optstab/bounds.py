"""Closed-form stability bounds, convergence lower bounds, minimax rates,
and the square-root early-stopping rule.

All functions are pure.  Formula catalogue (L Lipschitz, beta smoothness,
alpha strong convexity, R domain diameter, eta_t = eta0 t^-a the step size,
a fixed eta = eta0 when a = 0, T iterations, n sample size, kappa = beta/alpha):

stability (convex, smooth):
    gd / sgd, eta0 t^-a      2 eta0 L^2 T^(1-a) / n
    nag, fixed eta           4 eta L^2 T^2 / n
    hb, fixed eta, gamma     4 eta L^2 T / ((1 - sqrt(gamma)) n)
    sgld, eta0 / t           (L/n) (min(k0, T) + L sqrt(tau * sum_{t>k0}^T eta_t)),
                             k0 = min{t >= 1 : eta_t tau L^2 < 1}
stability (strongly convex, smooth):
    gd                       (4 L^2 / (alpha n)) (1 - (1 - eta beta/(1+kappa))^T)
    sgd                      (2 L^2 / (alpha n)) (1 - (1 - eta alpha/2)^T)
    nag_sc                   (4 L^2 / (alpha n)) (1 - (1 - 1/sqrt(kappa))^T)

convergence lower bounds:
    gd convex                R^2 / (2 C2 eta T)
    nag convex               R^2 / (4 C2 eta T^2)
    gd strongly convex       beta R^2/(C3 n) - 4 (R beta)^2/(alpha n)
                             + (4 (R beta)^2/(alpha n)) (1 - eta beta/(1+kappa))^T
    nag strongly convex      same with (1 - 1/sqrt(kappa))^T

minimax risk:
    convex                   R^2 beta / (C1 sqrt(n))
    strongly convex          R^2 beta / (C3 n)

The universal constants are C1 = 256 sqrt(6), C2 = 16 C1^2 / 3 and C3 = 192
(module constants); they are not canonical.

Every stability and convergence entry point takes the ``OptimizerConfig`` of
the run it bounds, then the setting, the loss constants and n.  The formulas
use kappa = beta/alpha of the loss: a nag_sc config with another raises NoBoundError.
"""

from __future__ import annotations

import math

import numpy as np

from .losses import LossConstants, ValidationError
from .optimizers import OptimizerConfig


class NoBoundError(ValueError):
    """No bound is available for the requested method/setting pair."""


CONVEX = "convex"
STRONGLY_CONVEX = "strongly_convex"
SETTINGS = (CONVEX, STRONGLY_CONVEX)

C1 = 256.0 * math.sqrt(6.0)
C2 = 16.0 * 256.0 ** 2 * 6.0 / 3.0  # 16 C1^2 / 3 = 2097152 exactly
C3 = 192.0


def _check(config: OptimizerConfig, setting: str, constants: LossConstants, n: int,
           ts=()) -> np.ndarray:
    """Validate a query; return its horizons ``ts`` as floats."""
    if setting not in SETTINGS:
        raise ValidationError(f"unknown setting {setting!r}")
    if n < 1:
        raise ValidationError("need n >= 1")
    if int(config.T) != config.T or int(n) != n:
        raise ValidationError("T and n must be integral")
    if setting == STRONGLY_CONVEX:
        beta, alpha = constants.beta, constants.alpha
        if alpha <= 0:
            raise ValidationError("strongly convex setting needs alpha > 0")
        if config.method == "nag_sc" and abs(beta - config.kappa * alpha) > 1e-9 * beta:
            raise NoBoundError(f"nag_sc kappa {config.kappa:g} != beta/alpha {beta / alpha:g}")
    T = np.asarray(ts, dtype=float)
    if np.any(T < 0) or np.any(T != np.floor(T)):
        raise ValidationError("horizons must be integers >= 0")
    return T


def _contraction(method: str, eta: float, constants: LossConstants) -> float:
    """Per-step contraction of gd's, sgd's or nag's = nag_sc's strongly convex forms."""
    beta, alpha = constants.beta, constants.alpha
    if method == "gd":
        return 1.0 - eta * beta / (1.0 + beta / alpha)
    if method == "sgd":
        return 1.0 - eta * alpha / 2.0
    return 1.0 - 1.0 / math.sqrt(beta / alpha)


# The step-size exponent alpha each convex stability row accepts (None: any in
# [0, 1]); a method without a row has no convex stability bound.
_CONVEX_ALPHA = {"gd": None, "sgd": None, "nag": 0.0, "hb": 0.0, "sgld": 1.0}


def _convex_row(config: OptimizerConfig) -> str:
    """The method of config's convex stability row; NoBoundError where its
    method has no row or its schedule lies outside the row's domain."""
    method, alpha = config.method, config.schedule.alpha
    if method not in _CONVEX_ALPHA or _CONVEX_ALPHA[method] not in (None, alpha):
        raise NoBoundError(f"no stability bound available for ({method}, {CONVEX}, "
                           f"alpha {alpha:g})")
    return method


def sgld_burn_in(eta0: float, tau: float, L: float) -> int:
    """k0 = min{t >= 1 : (eta0/t) * tau * L^2 < 1} for the eta0/t schedule."""
    m = eta0 * tau * L * L
    return max(1, math.floor(m) + 1) if m >= 1 else 1


def stability_bound_curve(config: OptimizerConfig, setting: str, constants: LossConstants,
                          n: int, ts) -> np.ndarray:
    """Uniform stability bound at every horizon T in ``ts`` (``config.T`` is not read).

    Each formula is written once over the array of horizons; sgld's harmonic
    tail is a cumulative sum.  Zero at T = 0 for every method.  Raises
    NoBoundError for pairs without a formula (e.g. heavy ball in the strongly
    convex setting), whatever the horizons.
    """
    T = _check(config, setting, constants, n, ts)
    L, alpha = constants.L, constants.alpha
    method, sched = config.method, config.schedule
    curve = None
    if setting == CONVEX:
        _convex_row(config)
        if method in ("gd", "sgd"):
            curve = 2.0 * sched.eta0 * L * L * T ** (1.0 - sched.alpha) / n
        elif method == "nag":
            curve = 4.0 * sched.eta0 * L * L * T * T / n
        elif method == "hb":
            curve = 4.0 * sched.eta0 * L * L * T / ((1.0 - math.sqrt(config.gamma)) * n)
        else:  # sgld, eta0 / t
            k0 = sgld_burn_in(sched.eta0, config.tau, L)
            # harmonic[j] = sum_{t=k0+1}^{k0+j} 1/t
            t_max = int(T.max()) if T.size else 0
            harmonic = np.concatenate(
                [[0.0], np.cumsum(1.0 / np.arange(k0 + 1, max(t_max, k0) + 1))])
            tail = sched.eta0 * harmonic[np.maximum(T - k0, 0).astype(int)]
            curve = (L / n) * (np.minimum(k0, T) + L * np.sqrt(config.tau * tail))
    elif sched.alpha != 0:
        raise NoBoundError("strongly convex bounds assume a fixed step size")
    elif method in ("gd", "sgd", "nag_sc"):
        curve = ((2.0 if method == "sgd" else 4.0) * L * L / (alpha * n)) * (
            1.0 - _contraction(method, sched.eta0, constants) ** T)
    if curve is None:
        raise NoBoundError(f"no stability bound available for ({method}, {setting}, "
                           f"alpha {sched.alpha:g})")
    return np.where(T == 0, 0.0, curve)


def stability_bound(config: OptimizerConfig, setting: str, constants: LossConstants,
                    n: int) -> float:
    """Uniform stability bound at iteration T: the curve evaluated at config.T."""
    return float(stability_bound_curve(config, setting, constants, n, [config.T])[0])


def stability_bound_table_form(config: OptimizerConfig, setting: str,
                               constants: LossConstants, n: int, ts) -> np.ndarray:
    """Asymptotic power-law form of ``stability_bound_curve``, used for rate tables.

    Identical to it except for sgld, whose exact bound grows like sqrt(log T);
    the tabulated rate replaces it with the envelope L^2 sqrt(tau eta0) T^(1/4) / n
    from log T <= 2 sqrt(T), each T^(1/4) a Python pow (numpy's may differ by 1 ulp).
    """
    if config.method != "sgld":
        return stability_bound_curve(config, setting, constants, n, ts)
    T = _check(config, setting, constants, n, ts)
    stability_bound_curve(config, setting, constants, n, ())  # raises where the curve does
    scale = constants.L * constants.L * math.sqrt(config.tau * config.schedule.eta0)
    return np.array([scale * t ** 0.25 / n for t in T.tolist()])


def table_exponent(config: OptimizerConfig) -> float:
    """Growth exponent in T of the convex stability bound (rate-table column);
    NoBoundError wherever ``stability_bound_curve`` has no convex formula."""
    method = _convex_row(config)
    if method in ("gd", "sgd"):
        return 1.0 - config.schedule.alpha
    return {"nag": 2.0, "hb": 1.0, "sgld": 0.25}[method]


def convergence_lower_bound(config: OptimizerConfig, setting: str,
                            constants: LossConstants, n: int) -> float:
    """Convergence-rate lower bound implied by the stability/convergence trade-off.

    The strongly convex forms carry a negative offset and may return negative
    values.  Every form assumes a fixed step: a decreasing one raises NoBoundError.
    """
    _check(config, setting, constants, n)
    T, method = config.T, config.method
    if T == 0:
        raise ValidationError("convergence lower bound needs T >= 1")
    if config.schedule.alpha != 0:
        raise NoBoundError("convergence lower bounds assume a fixed step size")
    R, beta, alpha = constants.R, constants.beta, constants.alpha
    eta = config.schedule.eta0
    if setting == CONVEX:
        if method == "gd":
            return R * R / (2.0 * C2 * eta * T)
        if method == "nag":
            return R * R / (4.0 * C2 * eta * T * T)
        raise NoBoundError(f"no convex convergence lower bound for {method!r}")
    if method not in ("gd", "nag", "nag_sc"):
        raise NoBoundError(f"no strongly convex convergence lower bound for {method!r}")
    lead = beta * R * R / (C3 * n)
    bulk = 4.0 * (R * beta) ** 2 / (alpha * n)
    return lead - bulk + bulk * _contraction(method, eta, constants) ** T


def minimax_bound(setting: str, n: int, R: float, beta: float) -> float:
    """Minimax excess-risk lower bound over the loss class of the setting."""
    if setting not in SETTINGS:
        raise ValidationError(f"unknown setting {setting!r}")
    if n < 1:
        raise ValidationError("n must be >= 1")
    if setting == CONVEX:
        return R * R * beta / (C1 * math.sqrt(n))
    return R * R * beta / (C3 * n)


def tradeoff_check(stab: float, opt: float, mm: float) -> bool:
    """True iff stability + optimization error dominates the minimax bound."""
    if min(stab, opt, mm) < 0:
        raise ValidationError("tradeoff_check needs nonnegative inputs")
    return stab + opt >= mm


def early_stopping_T(n: int, eta: float, L: float, R: float) -> int:
    """Iteration budget T ~ sqrt(n / (eta^2 L^2 R^2)) balancing both error terms."""
    if min(n, eta, L, R) <= 0:
        raise ValidationError("early_stopping_T needs positive inputs")
    return max(1, int(round(math.sqrt(n / (eta * eta * L * L * R * R)))))
