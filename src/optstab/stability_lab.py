"""Empirical stability measurement on coupled perturbed pairs.

A perturbed pair is a base sample S and its perturbed copy S', S with row
k replaced by a point z, which differ in exactly one point.  Both runs
start from the same theta0 and, for randomized methods, share the index and
noise streams (one member index under the batch's seed), so the measured
gaps isolate the data perturbation.  Two series are recorded per pair:

* ``param_gap[t]``     = ||theta_t - theta'_t||_2
* ``sup_loss_gap[t]``  = max over a holdout set of |l(theta_t; z) - l(theta'_t; z)|,
  a finite-sample lower estimate of the defining supremum.

The lab runs its configs as one batch per gradient kind (``_kinds``), the full-gradient
kind first and config order kept within a kind.  All pairs of a kind's configs run as
one state: the base and perturbed runs of all repeats, each with the kind's config
columns, advanced by ``optimizers.batch_iterates`` on the one sample S plus per-member
swaps (k, z), so a perturbed run costs one row, not a copy of S (deterministic methods'
base runs coincide, so they need only one).  Both gap series are computed as the run
progresses over blocks of 8 consecutive states (``_GAP_STEPS``), so no iterate trace is
stored: each state's base rows, then its perturbed rows, are copied into one block
allocated once per kind (``_GapBlock``) and evaluated in buffers allocated with it.
Each step's products keep their step-by-step shape, so the gaps do not depend on the
block length.
Repeat i draws the perturbed index and replacement point from the seed's
"perturbation" stream at i and runs its pair as member i, and repeats are
averaged elementwise with standard errors; per-repeat gap series are
retained for audit.

The risk decomposition measures the optimization error against an empirical
minimum from one long full-gradient run (:func:`reference_risk`), which
depends only on the loss, the training sample and the budget, so one
reference serves every method (riding in the full-gradient batch if it can).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .losses import (
    Dataset,
    LossSpec,
    _PRODUCT_MACS,
    _RISK_ROWS,
    ValidationError,
    empirical_risk_batch,
    loss_constants,
    loss_values_matrix,
)
from .optimizers import OptimizerConfig, batch_iterates, fixed
from .streams import stream

# States per block of _coupled_gaps (buffers allocated once per kind): 8, 16 and 32 ran
# a 5-method, 10-repeat pass within 3 % of one another, 64 about 5 % slower
_GAP_STEPS = 8


@dataclass(frozen=True)
class StabilityTrace:
    """Per-iteration gap series, (T+1,) for one coupled pair or a stack of them."""

    param_gap: np.ndarray
    sup_loss_gap: np.ndarray


class _GapBlock:
    """The gap pass's buffers, allocated once.  ``rows`` (steps, ..., B + m, d)
    holds each state's B base rows (B = m, or one row for all m perturbed rows),
    then its m perturbed rows.  The holdout products take consecutive groups of
    rows under ``losses._PRODUCT_MACS`` multiply-adds, so their bytes do not
    depend on the BLAS thread count."""

    def __init__(self, lead: tuple, B: int, m: int, d: int, h: int):
        self.B, self.per = B, max(1, _PRODUCT_MACS // (d * h))
        self.rows = np.empty((*lead, B + m, d))
        self.values, self.scratch = np.empty((2, *lead, B + m, h))  # each row's losses
        self.diff, self.delta = np.empty((*lead, m, h)), np.empty((*lead, m, d))
        self.moved, self.gaps = np.empty((*lead, m), bool), np.empty((2, *lead, m))
        self.arg = np.empty(math.prod(lead) * m, np.intp)  # each row's argmax over h
        self.offsets = np.arange(0, self.arg.size * h, h)  # and the row's flat offset

    def evaluate(self, spec: LossSpec, holdout: Dataset, s: int) -> np.ndarray:
        """(param_gap, sup_loss_gap), (2, s, ..., m), of the first s steps' rows:
        ||theta - theta'||_2 and max over the holdout of |l(theta; z) - l(theta'; z)|,
        exactly 0 for equal finite parameters (theta - theta' = 0), as rows of one
        BLAS product need not round alike: some row positions take another kernel."""
        B, rows, values, diff = self.B, self.rows[:s], self.values[:s], self.diff[:s]
        gaps = self.gaps[:, :s]
        delta = np.subtract(rows[..., :B, :], rows[..., B:, :], out=self.delta[:s])
        moved = np.logical_or.reduce(delta, axis=-1, out=self.moved[:s])
        np.sqrt(np.add.reduce(np.multiply(delta, delta, out=delta), axis=-1, out=gaps[0]),
                out=gaps[0])
        for b in range(0, rows.shape[-2], self.per):
            cut = (..., slice(b, b + self.per), slice(None))
            loss_values_matrix(spec, rows[cut], holdout, values[cut], self.scratch[:s][cut])
        np.subtract(values[..., :B, :], values[..., B:, :], out=diff)
        # each row's max is its entry at its argmax, found faster than by a max-reduce
        flat = np.abs(diff, out=diff).reshape(-1)
        arg = np.argmax(flat.reshape(-1, diff.shape[-1]), axis=-1, out=self.arg[:moved.size])
        arg += self.offsets[:arg.size]
        np.take(flat, arg, out=gaps[1].reshape(-1), mode="clip")
        return np.multiply(gaps, moved, out=gaps)  # 0 for rows that did not move


def _kinds(configs: Sequence[OptimizerConfig]) -> List[Tuple[List[int], list]]:
    """Each gradient kind's (config indices, configs), the full-gradient kind first and
    config order kept within a kind: the batches of ``optimizers.batch_iterates``."""
    if not configs or len({cfg.T for cfg in configs}) != 1:
        raise ValidationError("need at least one config, all of one T")
    cols = [[j for j, cfg in enumerate(configs) if cfg.sampled == s] for s in (False, True)]
    return [(js, [configs[j] for j in js]) for js in cols if js]


def _coupled_gaps(configs: Sequence[OptimizerConfig], spec: LossSpec, base: Dataset,
                  ks: Sequence[int], z: Dataset, seed: int, holdout: Dataset,
                  theta0) -> Tuple[np.ndarray, np.ndarray]:
    """(param_gap, sup_loss_gap), each (k, P, T+1), of the P coupled pairs
    (base, base with row ks[i] replaced by row i of z) of each of k configs run
    under ``seed``, one batch per gradient kind (``_kinds``), on the one sample
    ``base`` plus the swaps: the base runs, then the P perturbed runs.  Both runs
    of pair i are member i.  Deterministic methods' base runs coincide whatever
    their streams, so one base run stands for all of them.  A pair whose z row
    equals row ks[i] runs no member of its own (one product need not round equal
    members alike); its gaps are exactly 0.  Each state is copied into a
    ``_GapBlock`` of _GAP_STEPS states by a kind's configs, taken when it is full.
    """
    kinds, ks = _kinds(configs), np.asarray(ks)
    same = np.logical_and.reduce([(a == b[ks]).reshape(len(ks), -1).all(axis=1)
                                  for a, b in zip(z._arrays, base._arrays)])
    live = np.flatnonzero(~same)
    T, swapped = configs[0].T, (list(ks[live]), z.take(live)) if live.size else None
    gaps = np.zeros((2, len(configs), len(ks), T + 1))
    d = base.dim if theta0 is None else np.size(theta0)  # symbol families read theta[0]
    for js, kind in kinds:
        runs = live if kind[0].sampled and live.size else [0]
        swaps = ([-1] * len(runs) + swapped[0], swapped[1]) if swapped else None
        states = batch_iterates(kind, spec, base, seed, [*runs, *live], theta0, swaps)
        if not live.size:  # every pair swaps a row for itself: no gap to take
            next(states)  # the batch still checks its inputs
            continue
        block = _GapBlock((_GAP_STEPS, len(kind)), len(runs), live.size, d, holdout.n)
        for t, state in enumerate(states):
            j = t % _GAP_STEPS
            block.rows[j] = state.swapaxes(0, 1)  # (k, members, d): each config's rows
            if j == _GAP_STEPS - 1 or t == T:
                gaps[:, np.array(js)[:, None], live, t - j:t + 1] = np.transpose(
                    block.evaluate(spec, holdout, j + 1), (0, 2, 3, 1))
    return gaps[0], gaps[1]


@dataclass(frozen=True)
class AveragedStability:
    """Gap series of k configs over the same perturbations: per repeat
    (``repeats``, arrays (k, reps, T+1)) and their elementwise means and
    standard errors over repeats (k, T+1); row j belongs to config j."""

    param_gap: np.ndarray
    param_gap_stderr: np.ndarray
    sup_loss_gap: np.ndarray
    sup_loss_gap_stderr: np.ndarray
    repeats: StabilityTrace
    perturbations: List[dict]  # per repeat: {"k": ..., "z": ...} audit record

    @property
    def reps(self) -> int:
        return len(self.perturbations)


def _mean_stderr(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Mean and standard error over the repeat axis of (k, reps, T+1) series."""
    mean = rows.mean(axis=1)
    if rows.shape[1] < 2:
        return mean, np.zeros_like(mean)
    return mean, rows.std(axis=1, ddof=1) / math.sqrt(rows.shape[1])


def _describe_point(z: Dataset) -> dict:
    """JSON record of a one-point sample."""
    if z.kind == "symbol":
        return {"kind": "symbol", "s": int(z.s[0])}
    return {"kind": "labeled", "x": [float(v) for v in z.X[0]], "y": int(z.y[0])}


def repeat_and_average(configs: Sequence[OptimizerConfig], spec: LossSpec,
                       sample: Dataset, pool: Dataset, reps: int,
                       theta0=None, *, seed: int = 0) -> AveragedStability:
    """Average each config's gap series over ``reps`` independent perturbations.

    Repeat i draws the perturbed index uniformly and the replacement point
    from the held-out pool (which also serves as the sup-gap holdout), both
    from ``stream(seed, "perturbation", i)``, and runs both sides of its pair
    as member i, so repeats are decoupled while the two runs inside a repeat
    stay coupled.  The draws serve all configs; each gradient kind runs as one batch.
    """
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    ks, zs, records = [], [], []
    for i in range(reps):
        rng = stream(seed, "perturbation", i)
        ks.append(int(rng.integers(0, sample.n)))
        zs.append(int(rng.integers(0, pool.n)))
        records.append({"repeat": i, "k": ks[-1], "z": _describe_point(pool.point(zs[-1]))})
    pg, sg = _coupled_gaps(configs, spec, sample, ks, pool.take(zs), seed, pool, theta0)
    return AveragedStability(*_mean_stderr(pg), *_mean_stderr(sg), StabilityTrace(pg, sg),
                             records)


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


def _centred_moments(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per point (1, x, y, x x, x y, y y) of the centred points, (6, N): a
    segment's sums of them are the input of ``_line_fits``."""
    x, y = x - x.mean(), y - y.mean()
    return np.stack([np.ones_like(x), x, y, x * x, x * y, y * y])


def _line_fits(sums: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(sum of squared residuals, slope) of the least-squares lines of
    segments given by their sums (n, Sx, Sy, Sxx, Sxy, Syy), each (splits,)
    or scalars: the only line fit of log value against log t."""
    n, sx, sy, sxx, sxy, syy = sums
    cxy = sxy - sx * sy / n
    slope = cxy / (sxx - sx * sx / n)
    return syy - sy * sy / n - slope * cxy, slope


def detect_saturation(values: np.ndarray, t_lo: int, t_hi: int) -> int:
    """Right edge of the power-law window before the series saturates.

    A two-segment least-squares changepoint is fitted to log(value) against
    log(t) on a geometric subgrid of [t_lo, t_hi]: the head and tail lines
    at every split come from one pass of prefix and suffix cumulative sums
    of the centred log t and log value.  The break is accepted as a
    saturation onset only when it halves the single-line residual AND the
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
    cols = _centred_moments(np.log(grid.astype(float)), np.log(v))
    head = np.cumsum(cols, axis=1)
    sse_single, _ = _line_fits(head[:, -1])
    # split j fits points [0, j) and [j, N)
    j = np.arange(6, grid.size - 6)
    sse_head, slope_head = _line_fits(head[:, j - 1])
    sse_tail, slope_tail = _line_fits(np.cumsum(cols[:, ::-1], axis=1)[:, ::-1][:, j])
    sse_split = sse_head + sse_tail
    best = int(np.argmin(sse_split))
    if sse_split[best] < 0.5 * sse_single and slope_tail[best] < 0.75 * slope_head[best]:
        return int(grid[j[best]])
    return t_hi


def fit_power_law(t, v) -> SlopeFit:
    """Least-squares fit of log(v) against log(t) on an explicit grid."""
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    if t.size < 2:
        raise ValidationError("slope fit needs at least two points")
    if np.any(t <= 0) or np.any(v <= 0):
        raise ValidationError("slope fit needs strictly positive values in the window")
    x, y = np.log(t), np.log(v)
    _, slope = _line_fits(_centred_moments(x, y).sum(axis=1))
    intercept = y.mean() - slope * x.mean()
    # the rms from the residuals: a difference of sums can round below 0
    rms = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return SlopeFit(exponent=float(slope), intercept=float(intercept),
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


@dataclass(frozen=True)
class RiskCurves:
    """Per-iteration train/test risks and the generalization gap."""

    train: np.ndarray
    test: np.ndarray
    gen_gap: np.ndarray  # test - train


def _reference_config(spec: LossSpec, train: Dataset, T: int) -> OptimizerConfig:
    if T < 0:
        raise ValidationError("the reference budget must be >= 0")
    beta = loss_constants(spec, train).beta
    if beta <= 0:
        raise ValidationError("reference run needs beta > 0")
    return OptimizerConfig(method="gd", schedule=fixed(1.0 / beta), T=int(T))


def reference_risk(spec: LossSpec, train: Dataset, budget: int, theta0=None) -> float:
    """Approximate empirical minimum of ``train``: the empirical risk after
    ``budget`` full-gradient steps at eta = 1/beta from theta0 (default 0).

    A negative budget, or a loss with beta = 0 (no 1/beta step), raises
    ValidationError.  Only the last two states of the run are kept (theta0 twice
    at budget 0).
    """
    ref_cfg = _reference_config(spec, train, budget)
    # only the last iterate's risk is read; it is evaluated in a batch of
    # two rows, which avoids the matrix-vector product that a single row
    # goes through; that does not guarantee it rounds like row T of a
    # (T+1)-row train-risk series, since rows of one product round by position
    last = deque(batch_iterates([ref_cfg], spec, train, 0, [0], theta0=theta0), maxlen=2)
    return float(empirical_risk_batch(spec, np.concatenate((last[0], last[-1]))[:, 0],
                                      train)[-1])


def risk_curves(configs: Sequence[OptimizerConfig], spec: LossSpec, train: Dataset,
                test: Dataset, ref_budget: int = 0, *,
                seed: int = 0) -> Tuple[List[RiskCurves], Optional[float]]:
    """Train/test risk along each config's run from 0, one batch per gradient kind
    (``_kinds``) under ``seed``, and with ``ref_budget`` ``reference_risk(spec,
    train, ref_budget)`` (optimization error: ``train - reference``), else None.
    With T <= ref_budget the full-gradient batch runs the reference as one more
    column, its trace not stored; gd has no momentum, so from its state at T it
    resumes alone.  Otherwise the reference runs alone.  Both risks are taken as
    each batch advances, on each block of _RISK_ROWS states (the blocks
    ``empirical_risk_batch`` takes of a whole trace, one column at a time), so no
    trace is stored and one (_RISK_ROWS, n) values block is held at a time."""
    kinds, T = _kinds(configs), configs[0].T
    risks, start, done = np.empty((2, len(configs), T + 1)), None, 0
    for js, kind in kinds:
        k, joined = len(kind), 0 < ref_budget and T <= ref_budget and not kind[0].sampled
        columns = [*kind, _reference_config(spec, train, T)] if joined else kind
        block = np.empty((k, _RISK_ROWS, train.dim))
        for t, state in enumerate(batch_iterates(columns, spec, train, seed, [0])):
            j = t % _RISK_ROWS
            block[:, j] = state[0, :k]
            if j == _RISK_ROWS - 1 or t == T:
                for risk, data in zip(risks, (train, test)):
                    risk[js, t - j:t + 1] = empirical_risk_batch(spec, block[:, :j + 1], data)
        if joined:
            start, done = state[0, k], T
    ref = reference_risk(spec, train, ref_budget - done, start) if ref_budget else None
    return [RiskCurves(train=a, test=b, gen_gap=b - a) for a, b in zip(*risks)], ref
