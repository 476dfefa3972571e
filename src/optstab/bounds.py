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
the run it bounds, then the setting, the loss constants and n.  Each bound is one
(method, setting) row of ``_ROWS``, with the step-size exponent a its stability
forms accept.  A bound holds only in its proof's step-size range: a config the
step engine rejects (``optimizers.validate_config``) raises ValidationError.  The
formulas use kappa = beta/alpha of the loss: another nag_sc kappa raises NoBoundError.
"""

from __future__ import annotations

import math

import numpy as np

from .losses import LossConstants, ValidationError
from .optimizers import OptimizerConfig, validate_config


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
    validate_config(config, constants)
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


def sgld_burn_in(eta0: float, tau: float, L: float) -> int:
    """k0 = min{t >= 1 : (eta0/t) * tau * L^2 < 1} for the eta0/t schedule."""
    m = eta0 * tau * L * L
    return max(1, math.floor(m) + 1) if m >= 1 else 1


def _power_law(config, c, n, T):
    return 2.0 * config.schedule.eta0 * c.L * c.L * T ** (1.0 - config.schedule.alpha) / n


def _sgld_curve(config, c, n, T):
    eta0, L = config.schedule.eta0, c.L
    k0 = sgld_burn_in(eta0, config.tau, L)
    # harmonic[j] = sum_{t=k0+1}^{k0+j} 1/t
    t_max = int(T.max()) if T.size else 0
    harmonic = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(k0 + 1, max(t_max, k0) + 1))])
    tail = eta0 * harmonic[np.maximum(T - k0, 0).astype(int)]
    return (L / n) * (np.minimum(k0, T) + L * np.sqrt(config.tau * tail))


def _sgld_envelope(config, c, n, T):
    scale = c.L * c.L * math.sqrt(config.tau * config.schedule.eta0)
    return np.array([scale * t ** 0.25 / n for t in T.tolist()])


def _row(alpha, curve=None, exponent=None, lower=None, table=None) -> dict:
    return dict(alpha=alpha, curve=curve, table=table or curve, exponent=exponent, lower=lower)


def _strongly_convex(rho, scale=None, lower=True) -> dict:
    """The fixed-step row of one contraction factor rho(eta, constants): stability
    if ``scale`` is given, and the convergence lower bound if ``lower``."""
    def curve(config, c, n, T):
        return (scale * c.L * c.L / (c.alpha * n)) * (1.0 - rho(config.schedule.eta0, c) ** T)

    def bound(config, c, n):
        lead = c.beta * c.R * c.R / (C3 * n)
        bulk = 4.0 * (c.R * c.beta) ** 2 / (c.alpha * n)
        return lead - bulk + bulk * rho(config.schedule.eta0, c) ** config.T
    return _row(0.0, curve if scale else None, lower=bound if lower else None)


def _nag_rho(eta, c):
    return 1.0 - 1.0 / math.sqrt(c.beta / c.alpha)


# One row per (method, setting): "alpha", the step-size exponent its stability forms
# accept (None: any in [0, 1]), and its pieces (None: absent): the stability "curve" and
# its rate-"table" form over horizons, the table's growth "exponent", the "lower" bound.
_ROWS = {
    ("gd", CONVEX): _row(None, _power_law, lambda cfg: 1.0 - cfg.schedule.alpha,
                         lambda cfg, c, n: c.R * c.R / (2.0 * C2 * cfg.schedule.eta0 * cfg.T)),
    ("sgd", CONVEX): _row(None, _power_law, lambda cfg: 1.0 - cfg.schedule.alpha),
    ("nag", CONVEX): _row(
        0.0, lambda cfg, c, n, T: 4.0 * cfg.schedule.eta0 * c.L * c.L * T * T / n,
        lambda cfg: 2.0,
        lambda cfg, c, n: c.R * c.R / (4.0 * C2 * cfg.schedule.eta0 * cfg.T * cfg.T)),
    ("hb", CONVEX): _row(0.0, lambda cfg, c, n, T: 4.0 * cfg.schedule.eta0 * c.L * c.L * T / (
        (1.0 - math.sqrt(cfg.gamma)) * n), lambda cfg: 1.0),
    ("sgld", CONVEX): _row(1.0, _sgld_curve, lambda cfg: 0.25, table=_sgld_envelope),
    ("gd", STRONGLY_CONVEX): _strongly_convex(
        lambda eta, c: 1.0 - eta * c.beta / (1.0 + c.beta / c.alpha), 4.0),
    ("sgd", STRONGLY_CONVEX): _strongly_convex(lambda eta, c: 1.0 - eta * c.alpha / 2.0, 2.0,
                                               lower=False),
    ("nag_sc", STRONGLY_CONVEX): _strongly_convex(_nag_rho, 4.0),
    ("nag", STRONGLY_CONVEX): _strongly_convex(_nag_rho),
}


def _piece(config: OptimizerConfig, setting: str, piece: str):
    """``piece`` of config's row; NoBoundError where the row is missing, lacks the
    piece, or does not accept the schedule's step-size exponent."""
    row, alpha = _ROWS.get((config.method, setting)), config.schedule.alpha
    if row is None or row[piece] is None or row["alpha"] not in (None, alpha):
        raise NoBoundError(f"no {piece} bound for ({config.method}, {setting}, alpha {alpha:g})")
    return row[piece]


def _form(piece: str, config, setting, constants, n, ts) -> np.ndarray:
    T = _check(config, setting, constants, n, ts)
    return np.where(T == 0, 0.0, _piece(config, setting, piece)(config, constants, n, T))


def stability_bound_curve(config: OptimizerConfig, setting: str, constants: LossConstants,
                          n: int, ts) -> np.ndarray:
    """Uniform stability bound at every horizon T in ``ts`` (``config.T`` is not read).

    Zero at T = 0 for every method.  Raises NoBoundError for pairs without a formula
    (e.g. heavy ball in the strongly convex setting), whatever the horizons.
    """
    return _form("curve", config, setting, constants, n, ts)


def stability_bound_table_form(config: OptimizerConfig, setting: str,
                               constants: LossConstants, n: int, ts) -> np.ndarray:
    """Asymptotic power-law form of ``stability_bound_curve``, used for rate tables.

    Identical to it except for sgld, whose exact bound grows like sqrt(log T);
    the tabulated rate replaces it with the envelope L^2 sqrt(tau eta0) T^(1/4) / n
    from log T <= 2 sqrt(T), each T^(1/4) a Python pow (numpy's may differ by 1 ulp).
    """
    return _form("table", config, setting, constants, n, ts)


def table_exponent(config: OptimizerConfig) -> float:
    """Growth exponent in T of the convex stability bound (rate-table column);
    NoBoundError wherever ``stability_bound_curve`` has no convex formula."""
    return _piece(config, CONVEX, "exponent")(config)


def convergence_lower_bound(config: OptimizerConfig, setting: str,
                            constants: LossConstants, n: int) -> float:
    """Convergence-rate lower bound implied by the stability/convergence trade-off.

    The strongly convex forms carry a negative offset and may return negative
    values.  Every form assumes a fixed step: a decreasing one raises NoBoundError.
    """
    _check(config, setting, constants, n)
    if config.T == 0:
        raise ValidationError("convergence lower bound needs T >= 1")
    if config.schedule.alpha != 0:
        raise NoBoundError("convergence lower bounds assume a fixed step size")
    return _piece(config, setting, "lower")(config, constants, n)


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
    if not all(0 < x < math.inf for x in (n, eta, L, R)):  # nan fails too
        raise ValidationError("early_stopping_T needs finite positive inputs")
    try:  # eta^2 L^2 R^2 may round to 0, or the budget to inf
        return max(1, int(round(math.sqrt(n / (eta * eta * L * L * R * R)))))
    except (ZeroDivisionError, OverflowError) as exc:
        raise ValidationError("early_stopping_T: n / (eta L R)^2 is past the float range") from exc
