"""Two-point minimax construction: distributions, excess-risk certificates,
and exact total-variation / KL computations.

The construction places two distributions on the symbol space {-1, +1},

    P1(Z = -1) = P2(Z = +1) = 1/2 + delta,   delta = 1 / sqrt(24 n),

pairs them with the designed losses centered at +-r (Huber: quadratic up to
|u| = r/2, then linear with the same slope; or pure quadratic), and certifies a
separation Phi(r): any first coordinate at distance >= r from the population
minimizer carries excess risk at least Phi(r).  Combined with the Bayes error
of testing P1^n against P2^n this yields the minimax lower bounds evaluated in
:mod:`optstab.bounds`.
The pair is its two weights (P1(-1), P2(-1)) = (1/2 + delta, 1/2 - delta), and
``lecam_distributions`` is the one place they are written: every population
risk, minimizer and divergence here reads them, with P(+1) = 1 - P(-1).

Everything here is deterministic and exact up to floating point: minimizers
are closed forms, and the total variation between the n-fold products is a
sum over the n + 1 exchangeable count classes rather than the 2^n outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .bounds import SETTINGS, minimax_bound
from .losses import (
    Dataset,
    LossSpec,
    ValidationError,
    lecam_convex_spec,
    lecam_strongly_convex_spec,
    loss_values_matrix,
)

_SYMBOLS = Dataset.from_symbols([-1, 1])


def separation_delta(n: int) -> float:
    """delta = 1 / sqrt(24 n)."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    return 1.0 / math.sqrt(24.0 * n)


def lecam_distributions(n: int) -> Tuple[float, float]:
    """The pair's weights (P1(-1), P2(-1)) = (1/2 + 1/sqrt(24 n), 1/2 - 1/sqrt(24 n));
    P_v(+1) = 1 - P_v(-1), so P2(+1) = P1(-1)."""
    d = separation_delta(n)
    return 0.5 + d, 0.5 - d


def _p_minus(v: int, n: int) -> float:
    """P_v(-1), for v = 1 or 2 only (v = 0 must not wrap around to P2)."""
    if v not in (1, 2):
        raise ValidationError("identity v must be 1 or 2")
    return lecam_distributions(n)[v - 1]


def _loss_spec(variant: str, beta: float, r: float) -> LossSpec:
    if variant == "convex":
        return lecam_convex_spec(beta=beta, r=r)
    if variant == "strongly_convex":
        return lecam_strongly_convex_spec(beta=beta, r=r)
    raise ValidationError(f"unknown variant {variant!r}")


def population_risk(variant: str, v: int, theta1, beta: float, r: float,
                    n: int) -> np.ndarray:
    """E_{Z ~ P_v} l(theta; Z) as a function of the first coordinate (vectorized)."""
    p_minus = _p_minus(v, n)
    spec = _loss_spec(variant, beta, r)
    theta1 = np.atleast_1d(np.asarray(theta1, dtype=float))
    vals = loss_values_matrix(spec, theta1[:, None], _SYMBOLS)
    return p_minus * vals[:, 0] + (1.0 - p_minus) * vals[:, 1]


def population_minimizer(variant: str, v: int, beta: float, r: float,
                         n: int) -> Tuple[float, float]:
    """(theta1*, minimum value) of the population risk under P_v, in closed form.

    Strongly convex: theta1* = -+ r / sqrt(6 n), minimum (beta/2)(r^2 - r^2/(6 n)).
    Convex: theta1* = -+ (r - (1 - w) r / (2 w)) with w = P1(-1), where the
    quadratic piece at the nearer center (weight w) balances the slope beta r / 2
    of the far linear piece (weight 1 - w); it lies in [-r, -r/2] (v = 1;
    mirrored for v = 2).
    """
    sign = -1.0 if _p_minus(v, n) > 0.5 else 1.0  # toward the likelier center
    _loss_spec(variant, beta, r)  # checks the variant
    if variant == "strongly_convex":
        theta_star = sign * r / math.sqrt(6.0 * n)
        min_val = 0.5 * beta * (r * r - r * r / (6.0 * n))
        return theta_star, min_val
    w = lecam_distributions(n)[0]
    theta_star = sign * (r - (1.0 - w) * r / (2.0 * w))
    return theta_star, float(population_risk("convex", v, theta_star, beta, r, n)[0])


def population_excess_risk(variant: str, v: int, theta1, beta: float, r: float,
                           n: int) -> np.ndarray:
    """Excess population risk E_{P_v} l(theta; Z) - min over theta (vectorized)."""
    _, min_val = population_minimizer(variant, v, beta, r, n)
    return population_risk(variant, v, theta1, beta, r, n) - min_val


def phi_formula(variant: str, beta: float, r: float, n: int) -> float:
    """The certified separation: beta r^2 / sqrt(96 n) (convex),
    beta r^2 / (12 n) (strongly convex)."""
    _loss_spec(variant, beta, r)  # checks the variant
    if variant == "convex":
        return beta * r * r / math.sqrt(96.0 * n)
    return beta * r * r / (12.0 * n)


@dataclass(frozen=True)
class PhiCertificate:
    variant: str
    r: float
    beta: float
    n: int
    phi: float        # claimed separation
    grid_min: float   # smallest excess risk found at distance >= r
    passed: bool


def phi_certificate(variant: str, n: int, beta: float, r: float,
                    resolution: float = None) -> PhiCertificate:
    """Grid-certify that excess risk >= Phi(r) whenever |theta1 - theta_v*| >= r.

    The feasible first coordinate ranges over [-r, r] (the domain whose half
    width the construction sets to r).  The grid resolution must be at most
    r / 200; the certificate passes when the grid minimum over both
    identities clears Phi(r) up to relative slack 1e-6.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    if resolution is None:
        resolution = r / 200.0
    if resolution > r / 200.0 + 1e-15:
        raise ValidationError("grid too coarse: need resolution <= r/200")
    phi = phi_formula(variant, beta, r, n)
    grid_min = math.inf
    m = int(math.ceil(2.0 * r / resolution)) + 1
    grid = np.linspace(-r, r, m)
    for v in (1, 2):
        theta_star, _ = population_minimizer(variant, v, beta, r, n)
        far = grid[np.abs(grid - theta_star) >= r]
        if far.size == 0:
            continue
        vals = population_excess_risk(variant, v, far, beta, r, n)
        grid_min = min(grid_min, float(vals.min()))
    passed = grid_min >= phi * (1.0 - 1e-6)
    return PhiCertificate(variant=variant, r=r, beta=beta, n=n, phi=phi,
                          grid_min=grid_min, passed=passed)


def tv_kl_product(n: int) -> Tuple[float, float]:
    """Exact TV(P1^n, P2^n) and n * KL(P1 || P2) for the n-coupled pair.

    TV is computed by summing over the n + 1 exchangeable classes (count of
    +1 outcomes); KL uses the two-point divergence
    2 delta log((1 + 2 delta)/(1 - 2 delta)) with 2 delta = 1/sqrt(6 n).
    """
    if n < 1:
        raise ValidationError("exact enumeration needs n >= 1")
    # P1(-1) = P2(+1) = hi, P1(+1) = P2(-1) = lo
    hi, lo = lecam_distributions(n)
    ks = np.arange(n + 1)
    lg = np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1)  # lg[i] = log i!
    log_comb = lg[n] - lg[ks] - lg[n - ks]
    # probability of k "+1" outcomes under each product measure
    logp1 = log_comb + ks * math.log(lo) + (n - ks) * math.log(hi)
    logp2 = log_comb + ks * math.log(hi) + (n - ks) * math.log(lo)
    tv = 0.5 * float(np.abs(np.exp(logp1) - np.exp(logp2)).sum())
    two_delta = 2.0 * separation_delta(n)  # equals 1/sqrt(6 n)
    kl = n * two_delta * math.log((1.0 + two_delta) / (1.0 - two_delta))
    return tv, kl


def bayes_test_error(tv: float) -> float:
    """Minimal worst-case test error distinguishing P1^n from P2^n: (1 - TV)/2."""
    return (1.0 - tv) / 2.0


def minimax_consistency(n: int, R: float, beta: float) -> dict:
    """Relate the certified separation at r = R/2 to the displayed minimax rates.

    For the convex class, Phi(R/2)/4 evaluates to exactly four times the
    displayed rate R^2 beta / (C1 sqrt(n)); for the strongly convex class
    Phi(R/2)/4 reproduces R^2 beta / (192 n) exactly.
    """
    r = R / 2.0
    out = {}
    for setting in SETTINGS:
        out[setting] = {
            "phi_quarter": phi_formula(setting, beta, r, n) / 4.0,
            "minimax": minimax_bound(setting, n, R, beta),
        }
    return out
