"""Closed-form stability bounds, convergence lower bounds, minimax rates,
and the square-root early-stopping rule.

All functions are pure.  Formula catalogue (L Lipschitz, beta smoothness,
alpha strong convexity, R domain diameter, eta step size, T iterations,
n sample size, kappa = beta/alpha):

stability (convex, smooth):
    gd / sgd, fixed eta      2 eta L^2 T / n
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

The universal constants default to C1 = 256 sqrt(6), C2 = 16 C1^2 / 3 and
C3 = 192; they are not canonical and every entry point accepts overrides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .losses import LossConstants, ValidationError
from .optimizers import StepSchedule


class NoBoundError(ValueError):
    """No bound is available for the requested method/setting pair."""


CONVEX = "convex"
STRONGLY_CONVEX = "strongly_convex"
SETTINGS = (CONVEX, STRONGLY_CONVEX)

_C1_DEFAULT = 256.0 * math.sqrt(6.0)


@dataclass(frozen=True)
class UniversalConstants:
    c1: float = _C1_DEFAULT
    c2: float = 16.0 * 256.0 ** 2 * 6.0 / 3.0  # 16 c1^2 / 3 = 2097152 exactly
    c3: float = 192.0

    def __post_init__(self):
        if min(self.c1, self.c2, self.c3) <= 0:
            raise ValidationError("universal constants must be positive")


DEFAULT_CONSTANTS = UniversalConstants()


@dataclass(frozen=True)
class BoundQuery:
    """Arguments of a bound evaluation for one (method, setting) pair."""

    method: str
    setting: str
    constants: LossConstants
    schedule: StepSchedule
    T: int
    n: int
    gamma: float = 0.0            # heavy ball momentum
    tau: Optional[float] = None   # sgld temperature

    def __post_init__(self):
        if self.setting not in SETTINGS:
            raise ValidationError(f"unknown setting {self.setting!r}")
        if self.T < 0 or self.n < 1:
            raise ValidationError("need T >= 0 and n >= 1")
        if int(self.T) != self.T or int(self.n) != self.n:
            raise ValidationError("T and n must be integral")
        if self.setting == STRONGLY_CONVEX and self.constants.alpha <= 0:
            raise ValidationError("strongly convex setting needs alpha > 0")


def sgld_burn_in(eta0: float, tau: float, L: float) -> int:
    """k0 = min{t >= 1 : (eta0/t) * tau * L^2 < 1} for the eta0/t schedule."""
    m = eta0 * tau * L * L
    return max(1, math.floor(m) + 1) if m >= 1 else 1


def stability_bound_curve(q: BoundQuery, ts) -> np.ndarray:
    """Uniform stability bound at every horizon T in ``ts`` (``q.T`` is not read).

    Each formula is written once over the array of horizons; sgld's harmonic
    tail is a cumulative sum.  Zero at T = 0 for every method.  Raises
    NoBoundError for pairs without a formula (e.g. heavy ball in the strongly
    convex setting), whatever the horizons.
    """
    T = np.asarray(ts, dtype=float)
    if np.any(T < 0) or np.any(T != np.floor(T)):
        raise ValidationError("horizons must be integers >= 0")
    L, beta, alpha = q.constants.L, q.constants.beta, q.constants.alpha
    n, sched = q.n, q.schedule
    curve = None
    if q.setting == CONVEX:
        if q.method in ("gd", "sgd"):
            if sched.kind == "fixed":
                curve = 2.0 * sched.eta0 * L * L * T / n
            else:
                curve = 2.0 * sched.eta0 * L * L * T ** (1.0 - sched.alpha) / n
        elif q.method == "nag" and sched.kind == "fixed":
            curve = 4.0 * sched.eta0 * L * L * T * T / n
        elif q.method == "hb" and sched.kind == "fixed":
            curve = 4.0 * sched.eta0 * L * L * T / ((1.0 - math.sqrt(q.gamma)) * n)
        elif q.method == "sgld":
            if sched.kind != "power" or sched.alpha != 1.0:
                raise NoBoundError("sgld bound needs the eta0/t schedule")
            if q.tau is None or q.tau <= 0:
                raise NoBoundError("sgld bound needs tau > 0")
            k0 = sgld_burn_in(sched.eta0, q.tau, L)
            # harmonic[j] = sum_{t=k0+1}^{k0+j} 1/t
            t_max = int(T.max()) if T.size else 0
            harmonic = np.concatenate(
                [[0.0], np.cumsum(1.0 / np.arange(k0 + 1, max(t_max, k0) + 1))])
            tail = sched.eta0 * harmonic[np.maximum(T - k0, 0).astype(int)]
            curve = (L / n) * (np.minimum(k0, T) + L * np.sqrt(q.tau * tail))
    elif sched.kind != "fixed":
        raise NoBoundError("strongly convex bounds assume a fixed step size")
    else:
        kappa = beta / alpha
        eta = sched.eta0
        if q.method == "gd":
            curve = (4.0 * L * L / (alpha * n)) * (
                1.0 - (1.0 - eta * beta / (1.0 + kappa)) ** T)
        elif q.method == "sgd":
            curve = (2.0 * L * L / (alpha * n)) * (1.0 - (1.0 - eta * alpha / 2.0) ** T)
        elif q.method == "nag_sc":
            curve = (4.0 * L * L / (alpha * n)) * (
                1.0 - (1.0 - 1.0 / math.sqrt(kappa)) ** T)
    if curve is None:
        raise NoBoundError(
            f"no stability bound available for ({q.method}, {q.setting}, {sched.kind})")
    return np.where(T == 0, 0.0, curve)


def stability_bound(q: BoundQuery) -> float:
    """Uniform stability bound at iteration T: the curve evaluated at q.T."""
    return float(stability_bound_curve(q, [q.T])[0])


def stability_bound_table_form(q: BoundQuery) -> float:
    """Asymptotic power-law form of the stability bound, used for rate tables.

    Identical to ``stability_bound`` except for sgld, whose exact bound grows
    like sqrt(log T); the tabulated rate replaces it with the envelope
    L^2 sqrt(tau eta0) T^(1/4) / n obtained from log T <= 2 sqrt(T).
    """
    if q.method == "sgld":
        if q.tau is None or q.tau <= 0:
            raise NoBoundError("sgld bound needs tau > 0")
        L = q.constants.L
        return L * L * math.sqrt(q.tau * q.schedule.eta0) * q.T ** 0.25 / q.n
    return stability_bound(q)


def table_exponent(method: str, schedule: StepSchedule) -> float:
    """Growth exponent in T of the stability bound (rate-table column)."""
    if method in ("gd", "sgd"):
        return 1.0 if schedule.kind == "fixed" else 1.0 - schedule.alpha
    if method == "hb":
        return 1.0
    if method == "nag":
        return 2.0
    if method == "sgld":
        return 0.25
    raise NoBoundError(f"no tabulated exponent for {method!r}")


def convergence_lower_bound(q: BoundQuery,
                            consts: UniversalConstants = DEFAULT_CONSTANTS,
                            clamp: bool = False) -> float:
    """Convergence-rate lower bound implied by the stability/convergence trade-off.

    The strongly convex forms carry a negative offset and may return negative
    values; pass clamp=True to floor the result at zero.
    """
    if q.T == 0:
        raise ValidationError("convergence lower bound needs T >= 1")
    R, beta, alpha = q.constants.R, q.constants.beta, q.constants.alpha
    eta = q.schedule.eta0
    if q.setting == CONVEX:
        if q.method == "gd":
            val = R * R / (2.0 * consts.c2 * eta * q.T)
        elif q.method == "nag":
            val = R * R / (4.0 * consts.c2 * eta * q.T * q.T)
        else:
            raise NoBoundError(f"no convex convergence lower bound for {q.method!r}")
    else:
        kappa = beta / alpha
        lead = beta * R * R / (consts.c3 * q.n)
        bulk = 4.0 * (R * beta) ** 2 / (alpha * q.n)
        if q.method == "gd":
            decay = (1.0 - eta * beta / (1.0 + kappa)) ** q.T
        elif q.method in ("nag", "nag_sc"):
            decay = (1.0 - 1.0 / math.sqrt(kappa)) ** q.T
        else:
            raise NoBoundError(
                f"no strongly convex convergence lower bound for {q.method!r}")
        val = lead - bulk + bulk * decay
    return max(0.0, val) if clamp else val


def minimax_bound(setting: str, n: int, R: float, beta: float,
                  consts: UniversalConstants = DEFAULT_CONSTANTS) -> float:
    """Minimax excess-risk lower bound over the loss class of the setting."""
    if setting not in SETTINGS:
        raise ValidationError(f"unknown setting {setting!r}")
    if n < 1:
        raise ValidationError("n must be >= 1")
    if setting == CONVEX:
        return R * R * beta / (consts.c1 * math.sqrt(n))
    return R * R * beta / (consts.c3 * n)


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
