"""Empirical stability measurement on coupled perturbed pairs.

A perturbed pair is two samples differing in exactly one point.  Both runs
start from the same theta0 and, for randomized methods, share the index and
noise streams (same config seed), so the measured gaps isolate the data
perturbation.  Two series are recorded per pair:

* ``param_gap[t]``     = ||theta_t - theta'_t||_2
* ``sup_loss_gap[t]``  = max over a holdout set of |l(theta_t; z) - l(theta'_t; z)|,
  a finite-sample lower estimate of the defining supremum.

Every pair of an experiment runs as one batch: the base and the perturbed
runs of all repeats form one state advanced by ``optimizers.batch_iterates``
(a deterministic method's base runs coincide, so it needs only one), and
both gap series are computed from each state as the run progresses, so no
iterate trace is stored.  Repeats redraw
the perturbed index and replacement point from a seeded stream and are
averaged elementwise with standard errors; per-repeat gap series are
retained for audit.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .losses import (
    DataPoint,
    Dataset,
    LossSpec,
    ValidationError,
    empirical_risk,
    empirical_risk_batch,
    loss_constants,
    loss_values_matrix,
)
from .optimizers import STOCHASTIC_METHODS, OptimizerConfig, batch_iterates, fixed, run


@dataclass(frozen=True)
class PerturbedPair:
    """Samples S and S' agreeing everywhere except position k (0-based)."""

    base: Dataset
    perturbed: Dataset
    k: int
    z_new: DataPoint


def make_perturbed_pair(data: Dataset, k: int, z_new: DataPoint) -> PerturbedPair:
    """Replace position k of the sample by z_new."""
    return PerturbedPair(base=data, perturbed=data.replace(k, z_new), k=k,
                         z_new=z_new)


@dataclass(frozen=True)
class StabilityTrace:
    """Per-iteration gap series for one coupled pair."""

    param_gap: np.ndarray
    sup_loss_gap: np.ndarray

    @property
    def T(self) -> int:
        return len(self.param_gap) - 1


def estimate_sup_loss_gap(theta, theta_p, spec: LossSpec, holdout: Dataset):
    """max over holdout points of |l(theta; z) - l(theta'; z)|.

    Given (k, d) batches of parameter vectors, returns the k row-wise gaps.
    Both batches are evaluated in one call as a stack, each by its own matrix
    product, so equal parameters give a gap of exactly 0.
    """
    if holdout.n < 1:
        raise ValidationError("holdout must be nonempty")
    values = loss_values_matrix(
        spec, np.stack([np.atleast_2d(theta), np.atleast_2d(theta_p)]), holdout)
    gaps = np.abs(values[0] - values[1]).max(axis=1)
    return gaps if np.ndim(theta) == 2 else float(gaps[0])


def _coupled_gaps(config: OptimizerConfig, spec: LossSpec, pairs: List[PerturbedPair],
                  seeds: List[int], holdout: Dataset, theta0,
                  dim: Optional[int]) -> Tuple[np.ndarray, np.ndarray]:
    """(param_gap, sup_loss_gap), each (P, T+1), of P coupled pairs run as one
    batch: the base runs, then the P perturbed runs.  Pair i runs with seed
    ``seeds[i]``.  A deterministic method's base runs coincide whatever
    their seeds, so one base run stands for all of them.
    """
    P = len(pairs)
    B = P if config.method in STOCHASTIC_METHODS else 1
    param_gap = np.empty((P, config.T + 1))
    sup_gap = np.empty((P, config.T + 1))
    samples = Dataset.stack([p.base for p in pairs[:B]] + [p.perturbed for p in pairs])
    states = batch_iterates(config, spec, samples, seeds[:B] + seeds, theta0=theta0,
                            dim=dim)
    for t, state in enumerate(states):
        base, perturbed = np.broadcast_to(state[:B], (P, state.shape[1])), state[B:]
        param_gap[:, t] = np.linalg.norm(base - perturbed, axis=1)
        sup_gap[:, t] = estimate_sup_loss_gap(base, perturbed, spec, holdout)
    return param_gap, sup_gap


def run_pair(config: OptimizerConfig, spec: LossSpec, pair: PerturbedPair,
             holdout: Dataset, theta0=None, dim: Optional[int] = None) -> StabilityTrace:
    """Run the method on both samples of a pair under identical random streams."""
    pg, sg = _coupled_gaps(config, spec, [pair], [config.seed], holdout, theta0, dim)
    return StabilityTrace(param_gap=pg[0], sup_loss_gap=sg[0])


@dataclass(frozen=True)
class AveragedStability:
    """Elementwise mean and standard error of gap series over repeats."""

    param_gap: np.ndarray
    param_gap_stderr: np.ndarray
    sup_loss_gap: np.ndarray
    sup_loss_gap_stderr: np.ndarray
    repeats: List[StabilityTrace]
    perturbations: List[dict]  # per repeat: {"k": ..., "z": ...} audit record

    @property
    def reps(self) -> int:
        return len(self.repeats)


def _mean_stderr(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    mean = rows.mean(axis=0)
    if rows.shape[0] < 2:
        return mean, np.zeros_like(mean)
    return mean, rows.std(axis=0, ddof=1) / math.sqrt(rows.shape[0])


def _describe_point(z: DataPoint) -> dict:
    if z.kind == "symbol":
        return {"kind": "symbol", "s": z.s}
    return {"kind": "labeled", "x": [float(v) for v in z.x], "y": z.y}


def repeat_and_average(config: OptimizerConfig, spec: LossSpec, sample: Dataset,
                       pool: Dataset, reps: int, perturbation_seed: int = 0,
                       theta0=None, dim: Optional[int] = None) -> AveragedStability:
    """Average gap series over ``reps`` independent perturbations.

    Each repeat draws the perturbed index uniformly and the replacement point
    from the held-out pool (which also serves as the sup-gap holdout), both
    from a Philox stream keyed by (perturbation_seed, repeat).  The optimizer
    streams use config.seed XOR repeat, so repeats are decoupled while the
    two runs inside a repeat stay coupled.  All runs advance as one batch.
    """
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    pairs, seeds, records = [], [], []
    for i in range(reps):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(perturbation_seed, spawn_key=(i,))))
        k = int(rng.integers(0, sample.n))
        z_new = pool.point(int(rng.integers(0, pool.n)))
        pairs.append(make_perturbed_pair(sample, k, z_new))
        seeds.append(config.seed ^ i)
        records.append({"repeat": i, "k": k, "z": _describe_point(z_new)})
    pg, sg = _coupled_gaps(config, spec, pairs, seeds, pool, theta0, dim)
    pg_mean, pg_err = _mean_stderr(pg)
    sg_mean, sg_err = _mean_stderr(sg)
    return AveragedStability(param_gap=pg_mean, param_gap_stderr=pg_err,
                             sup_loss_gap=sg_mean, sup_loss_gap_stderr=sg_err,
                             repeats=[StabilityTrace(param_gap=a, sup_loss_gap=b)
                                      for a, b in zip(pg, sg)],
                             perturbations=records)


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares fit of log(value) against log(t) over [t_lo, t_hi]."""

    exponent: float
    intercept: float
    t_lo: int
    t_hi: int
    residual_rms: float


def _log_grid(t_lo: int, t_hi: int, points: int = 64) -> np.ndarray:
    grid = np.unique(np.round(np.geomspace(t_lo, t_hi, points)).astype(int))
    return grid[(grid >= t_lo) & (grid <= t_hi)]


def _lstsq_loglog(x: np.ndarray, y: np.ndarray):
    """Least-squares line y ~ coef[0] x + coef[1]: (sum of squared residuals,
    coef, residuals)."""
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    return float(resid @ resid), coef, resid


def detect_saturation(values: np.ndarray, t_lo: int, t_hi: int) -> int:
    """Right edge of the power-law window before the series saturates.

    A two-segment least-squares changepoint is fitted to log(value) against
    log(t) on a geometric subgrid of [t_lo, t_hi].  The break is accepted as
    a saturation onset only when it halves the single-line residual AND the
    tail slope drops below three quarters of the head slope; otherwise the
    series is treated as a single power law and t_hi is returned.  (A
    threshold on local slopes alone misses gradual saturation, where the
    tail keeps growing at a reduced exponent.)
    """
    grid = _log_grid(t_lo, t_hi)
    if grid.size < 16:
        return t_hi
    v = values[grid]
    if np.any(v <= 0):
        return t_hi
    x = np.log(grid.astype(float))
    y = np.log(v)
    sse_single, _, _ = _lstsq_loglog(x, y)
    best = None
    for j in range(6, grid.size - 6):
        sse_head, coef_head, _ = _lstsq_loglog(x[:j], y[:j])
        sse_tail, coef_tail, _ = _lstsq_loglog(x[j:], y[j:])
        if best is None or sse_head + sse_tail < best[0]:
            best = (sse_head + sse_tail, j, coef_head, coef_tail)
    if best is None:
        return t_hi
    sse_split, j, coef_head, coef_tail = best
    if sse_split < 0.5 * sse_single and coef_tail[0] < 0.75 * coef_head[0]:
        return int(grid[j])
    return t_hi


def fit_power_law(t, v) -> SlopeFit:
    """Least-squares fit of log(v) against log(t) on an explicit grid."""
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    if t.size < 2:
        raise ValidationError("slope fit needs at least two points")
    if np.any(t <= 0) or np.any(v <= 0):
        raise ValidationError("slope fit needs strictly positive values in the window")
    _, coef, resid = _lstsq_loglog(np.log(t), np.log(v))
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return SlopeFit(exponent=float(coef[0]), intercept=float(coef[1]),
                    t_lo=int(round(t[0])), t_hi=int(round(t[-1])), residual_rms=rms)


def fit_loglog_slope(values, window: Optional[Tuple[int, int]] = None,
                     saturation: bool = True) -> SlopeFit:
    """Fit a power-law exponent to a series indexed by t = 0..T.

    ``window`` gives (t_lo, t_hi) with t_lo >= 1; the default is
    (max(1, T // 10), T).  With ``saturation`` the upper edge is trimmed by
    :func:`detect_saturation`.  The fit runs on a geometric subgrid, and all
    values in the window must be strictly positive.
    """
    values = np.asarray(values, dtype=float)
    T = len(values) - 1
    if window is None:
        window = (max(1, T // 10), T)
    t_lo, t_hi = int(window[0]), int(window[1])
    if t_lo < 1 or t_hi > T or t_hi <= t_lo:
        raise ValidationError(f"bad fit window ({t_lo}, {t_hi}) for T={T}")
    if saturation:
        t_hi = max(detect_saturation(values, t_lo, t_hi), min(t_lo + 1, t_hi))
    grid = _log_grid(t_lo, t_hi)
    return fit_power_law(grid, values[grid])


def gd_param_gap_bound(eta: float, L: float, t, n: int) -> np.ndarray:
    """Iterate-gap envelope 2 eta L t / n for fixed-step full-gradient descent."""
    return 2.0 * eta * L * np.asarray(t, dtype=float) / n


def gd_param_gap_bound_sc(eta: float, L: float, alpha: float, beta: float,
                          t, n: int) -> np.ndarray:
    """Strongly convex iterate-gap envelope
    (4 L / (alpha n)) (1 - (1 - eta beta / (1 + kappa))^t)."""
    kappa = beta / alpha
    t = np.asarray(t, dtype=float)
    return (4.0 * L / (alpha * n)) * (1.0 - (1.0 - eta * beta / (1.0 + kappa)) ** t)


@dataclass(frozen=True)
class RiskCurves:
    """Per-iteration train/test risks and the derived error estimates."""

    train: np.ndarray
    test: np.ndarray
    gen_gap: np.ndarray                 # test - train
    opt_error: Optional[np.ndarray]     # train - reference empirical minimum
    reference_risk: Optional[float]


def risk_curves(config: OptimizerConfig, spec: LossSpec, train: Dataset,
                test: Dataset, reference_budget: Optional[int] = None,
                theta0=None) -> RiskCurves:
    """Train/test risk along a run, with an optional optimization-error series.

    The empirical minimum is approximated by a long full-gradient run
    (``reference_budget`` steps at eta = 1/beta; pass 0 or None to skip).
    """
    trace = run(config, spec, train, theta0=theta0)
    train_risk = trace.risks
    test_risk = empirical_risk_batch(spec, trace.thetas, test)
    opt_error = None
    ref_risk = None
    if reference_budget:
        beta = loss_constants(spec, train).beta
        eta_ref = 1.0 / beta if beta > 0 else config.schedule.eta0
        ref_cfg = OptimizerConfig(method="gd", schedule=fixed(eta_ref),
                                  T=int(reference_budget), seed=config.seed)
        # only the last iterate's risk is read; it is evaluated in a batch of
        # two rows, which takes the same matrix-product path as the train-risk
        # series it is subtracted from (a single row goes through a
        # matrix-vector product that rounds differently)
        last = deque(batch_iterates(ref_cfg, spec, train, [config.seed], theta0=theta0),
                     maxlen=2)
        ref_risk = float(empirical_risk_batch(spec, np.concatenate(last), train)[-1])
        opt_error = train_risk - ref_risk
    return RiskCurves(train=train_risk, test=test_risk,
                      gen_gap=test_risk - train_risk,
                      opt_error=opt_error, reference_risk=ref_risk)
