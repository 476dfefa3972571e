"""Seedable first-order optimizers as one batched momentum-form recursion.

Methods: full gradient descent (``gd``), single-sample stochastic gradient
descent (``sgd``), Nesterov acceleration with the vanishing-momentum
recursion (``nag``), Nesterov acceleration with the fixed momentum
``sc_momentum(kappa)`` for strongly convex problems (``nag_sc``),
heavy ball with fixed momentum (``hb``), and stochastic gradient Langevin
dynamics (``sgld``).

Every method is one coefficient schedule of the same step (see
``_coefficients``), differing otherwise only in whether the gradient is the
full empirical-risk gradient or a single sampled row's.  ``batch_iterates``
runs B members of k configs of one gradient kind as one (B, k, d) state
under (T, k) coefficient columns, each member on the shared sample or on its
own sample of a stack; ``run`` records the trace of its one-config,
one-member case.  A batch steps the lookahead only if some column's a_t is
nonzero (nag, nag_sc) and the momentum only if some b_t is (hb with gamma > 0),
otherwise theta_t = theta_{t-1} - eta_t g_t (+ the sgld noise): a skipped term
adds zeros, so the iterates are those of the whole law up to the sign of an
exact zero.  theta_0 is the zero vector of the sample's dimension
unless given (the symbol families read only theta[0]).  A batch checks its
inputs once, before theta_0, then calls the unchecked ``losses._block_grad``.

Randomized methods draw their index and Gaussian noise streams from
``streams.stream(seed, "sgd_index", member)`` and ``(seed, "sgld_noise",
member)``, where the seed is the batch's argument, not the config's, so every
iterate is a deterministic function of (config, seed, member, loss, sample,
theta0).  Members with the same index share identical streams, which is what
couples a perturbed pair; a member's columns share them too (sgld scales the
noise per column).  The streams are drawn one block at a time, as the run
reaches it, each distinct member's once: noise ``_DRAW_STEPS`` (64) steps and
indices ``_INDEX_STEPS`` (1024) steps a block, whatever the dimension; a draw
continues its generator's stream, so the blocks are the draw of the whole
horizon.  The noise covers the coordinates the loss reads: theta[0] of a symbol
family, so its path does not depend on theta0's dimension.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .losses import (
    Dataset,
    LossSpec,
    ValidationError,
    _block_grad,
    _check_dataset,
    as_param_vector,
    empirical_risk_batch,
    loss_constants,
)
from .streams import stream

METHODS = ("gd", "sgd", "nag", "nag_sc", "hb", "sgld")
STOCHASTIC_METHODS = ("sgd", "sgld")


@dataclass(frozen=True)
class StepSchedule:
    """eta_t = eta0 * t^(-alpha) for steps t >= 1, 0 <= alpha <= 1 (0: a fixed step)."""

    eta0: float
    alpha: float = 0.0

    def __post_init__(self):
        if self.eta0 <= 0:
            raise ValidationError("eta0 must be positive")
        if not 0 <= self.alpha <= 1:
            raise ValidationError("step-size exponent needs 0 <= alpha <= 1")


def fixed(eta0: float) -> StepSchedule:
    return StepSchedule(eta0)


def power(eta0: float, alpha: float) -> StepSchedule:
    if eta0 > 0 and not 0 < alpha <= 1:  # a bad eta0 is named first, by StepSchedule
        raise ValidationError("power schedule needs 0 < alpha <= 1")
    return StepSchedule(eta0, alpha)


def step_size(schedule: StepSchedule, t: int) -> float:
    """Step size used by update number t (t >= 1)."""
    if t < 1:
        raise ValidationError("step index starts at 1")
    return schedule.eta0 * float(t) ** (-schedule.alpha)


def nag_momentum_sequence(t_max: int) -> np.ndarray:
    """Momentum coefficients gamma_1..gamma_t_max of the vanishing-momentum recursion.

    lambda_0 = 0, lambda_t = (1 + sqrt(1 + 4 lambda_{t-1}^2)) / 2 and
    gamma_t = (1 - lambda_t) / lambda_{t+1}.  The recursion starts at t = 1
    (lambda_1 = 1 makes the first momentum term vanish, so the update that
    produces theta_1 is a plain gradient step); every coefficient lies in
    (-1, 0].
    """
    if t_max < 1:
        raise ValidationError("t must be >= 1")
    lam = np.empty(t_max + 2)
    lam[0] = 0.0
    for i in range(1, t_max + 2):
        lam[i] = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * lam[i - 1] ** 2))
    return (1.0 - lam[1:t_max + 1]) / lam[2:t_max + 2]


def sc_momentum(kappa):
    """Fixed momentum (sqrt(kappa) - 1) / (sqrt(kappa) + 1), elementwise on an
    array: the one copy of the nag_sc momentum (``matrixlemmas`` reads it)."""
    if np.any(np.less(kappa, 1)):
        raise ValidationError("kappa must be >= 1")
    rk = np.sqrt(kappa)
    return (rk - 1.0) / (rk + 1.0)


@dataclass(frozen=True)
class OptimizerConfig:
    method: str
    schedule: StepSchedule
    T: int
    gamma: float = 0.0              # heavy ball momentum
    kappa: Optional[float] = None   # nag_sc condition number
    tau: Optional[float] = None     # sgld temperature

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(f"unknown method {self.method!r}")
        if self.T < 0:
            raise ValidationError("T must be >= 0")
        if self.method == "hb" and not 0 <= self.gamma < 1:
            raise ValidationError("heavy ball needs 0 <= gamma < 1")
        if self.method == "nag_sc" and (self.kappa is None or self.kappa < 1):
            raise ValidationError("nag_sc needs kappa >= 1")
        if self.method == "sgld" and (self.tau is None or self.tau <= 0):
            raise ValidationError("sgld needs temperature tau > 0")

    @property
    def sampled(self) -> bool:  # one sampled row's gradient per step, else the full one
        return self.method in STOCHASTIC_METHODS


def validate_config(config: OptimizerConfig, constants) -> None:
    """Reject configurations that violate method step-size preconditions.

    The largest scheduled step (eta_1) is checked: gd/sgd/nag/nag_sc need
    eta <= 1/beta, heavy ball needs eta < (1 - gamma)/beta.  A zero
    smoothness constant leaves the step size unconstrained.
    """
    eta1 = config.schedule.eta0
    beta = constants.beta
    if beta <= 0:
        return
    if config.method in ("gd", "sgd", "nag", "nag_sc"):
        if eta1 > 1.0 / beta + 1e-12:
            raise ValidationError(
                f"{config.method} needs eta <= 1/beta = {1.0 / beta:g}, got {eta1:g}")
    elif config.method == "hb":
        if eta1 >= (1.0 - config.gamma) / beta:
            raise ValidationError(
                f"hb needs eta < (1-gamma)/beta = {(1.0 - config.gamma) / beta:g}, "
                f"got {eta1:g}")


@dataclass(frozen=True)
class IterateTrace:
    """theta_0..theta_T plus per-iterate empirical risk and per-step step sizes."""

    thetas: np.ndarray       # (T+1, d)
    risks: np.ndarray        # (T+1,)
    step_sizes: np.ndarray   # (T,)

    @property
    def T(self) -> int:
        return self.thetas.shape[0] - 1


def _step_sizes(schedule: StepSchedule, T: int) -> np.ndarray:
    return np.array([step_size(schedule, t) for t in range(1, T + 1)])


def _coefficients(config: OptimizerConfig, etas: np.ndarray):
    """Per-step lookahead weights a_t, momentum weights b_t and noise scales c_t.

    Step t of every method is
        look_t    = (1 - a_t) theta_{t-1} + a_t theta_{t-2}
        theta_t   = look_t - eta_t g_t(look_t) + b_t (theta_{t-1} - theta_{t-2})
                    + c_t xi_t
    with theta_{-1} = theta_0, g_t the full or the sampled gradient and xi_t
    standard Gaussian noise.
    """
    T, method = len(etas), config.method
    a, b, c = np.zeros(T), np.zeros(T), np.zeros(T)
    if method == "nag" and T > 1:
        a[1:] = nag_momentum_sequence(T - 1)
    elif method == "nag_sc":
        a[1:] = -sc_momentum(config.kappa)
    elif method == "hb":
        b[:] = config.gamma
    elif method == "sgld":
        c = np.sqrt(2.0 * etas / config.tau)
    return a, b, c


# Steps per draw of a batch's sgld noise, and of its sgd indices: a run holds one
# block of each.  An index costs 8 bytes per member and step, and one
# Generator.integers call about 9 us whatever its size, so indices come in longer blocks
_DRAW_STEPS = 64
_INDEX_STEPS = 1024


def _stream_draws(seed: int, members: Sequence[int], n: int, width: int,
                  T: int) -> Iterator[tuple]:
    """Per step t < T, the members' (B,) sgd indices in [0, n) and, for width > 0,
    their (B, width) sgld noise, else None; indices drawn _INDEX_STEPS and noise
    _DRAW_STEPS steps at a time, from each distinct member's streams once, which
    every member of its index reads."""
    ids, member_of = np.unique(members, return_inverse=True)

    def blocks(name, steps, draw):
        gens = [stream(seed, name, int(m)) for m in ids]
        for t in range(0, T, steps):
            S = min(steps, T - t)
            # np.take, not [:, member_of], keeps each step's slice C-contiguous
            yield from np.take(np.stack([draw(g, S) for g in gens], axis=1), member_of,
                               axis=1)

    rows = blocks("sgd_index", _INDEX_STEPS, lambda g, S: g.integers(0, n, size=S))
    xi = (blocks("sgld_noise", _DRAW_STEPS, lambda g, S: g.standard_normal((S, width)))
          if width else itertools.repeat(None))
    return zip(rows, xi)


def batch_iterates(configs: Sequence[OptimizerConfig], spec: LossSpec, data: Dataset,
                   seed: int, members: Sequence[int], theta0=None) -> Iterator[np.ndarray]:
    """Yield the (B, k, d) states theta_0..theta_T of B members by k configs.

    The configs share their gradient kind and T.  Member b runs ``configs[j]``
    in column j on ``data``, or on sample b of a stack of B samples
    (``Dataset.stack``).  Its index and noise streams, ``stream(seed,
    "sgd_index", members[b])`` and ``stream(seed, "sgld_noise", members[b])``
    (over theta[0] alone for a symbol family), serve all its columns; members
    with equal indices share them, which couples them.  Members whose indices and
    samples agree follow exactly equal iterates.  theta0 defaults to the
    zero vector of the sample's dimension (the symbol families read only
    theta[0]).  Data of the wrong kind or dimension raise ValidationError
    before theta_0; the first iterate that is not finite raises
    FloatingPointError naming its method and step.
    """
    B, k = len(members), len(configs)
    if k < 1 or len({(cfg.sampled, cfg.T) for cfg in configs}) != 1:
        raise ValidationError("a batch needs configs of one gradient kind and one T")
    if data.stack_shape not in ((), (B,)):
        raise ValidationError("need one sample, or one sample per member")
    theta = np.zeros(data.dim) if theta0 is None else as_param_vector(theta0).copy()
    _check_dataset(spec, theta, data)
    constants = loss_constants(spec, data)
    for config in configs:
        validate_config(config, constants)
    T, n, d = configs[0].T, data.n, theta.shape[0]
    etas = np.stack([_step_sizes(cfg.schedule, T) for cfg in configs], axis=1)
    a, b, c = (np.stack(column, axis=1)[..., None] for column in
               zip(*(_coefficients(cfg, etas[:, j]) for j, cfg in enumerate(configs))))
    etas, keep = etas[..., None], 1.0 - a

    # a term whose coefficients are all zero adds only zeros: step the live ones
    lookahead, momentum, noisy = (bool(x.any()) for x in (a, b, c))
    draws = itertools.repeat((None, None))
    if configs[0].sampled:
        # sgd (indices only) and sgld (both) of one member read the same indices
        width = 1 if spec.variant == "symbol" else d  # the coordinates the noise reads
        draws = _stream_draws(seed, members, n, width if noisy else 0, T)

    # inputs checked above, rows drawn in [0, n), iterates checked below: no per-step checks
    # theta_0 C-contiguous, as a lookahead would leave it: a step without one passes
    # it to the gradient as it is
    prev = older = np.tile(theta, (B, k, 1))
    yield prev
    for t, (rows, noise) in zip(range(T), draws):
        look = keep[t] * prev + a[t] * older if lookahead else prev
        # odd steps walk a blocked design backward, from the rows still in cache
        grad = _block_grad(spec, look, data, rows, t % 2 == 1)
        theta = look - etas[t] * grad
        if momentum:
            theta += b[t] * (prev - older)
        if noise is not None:
            theta[..., :noise.shape[-1]] += c[t] * noise[:, None]
        if not np.isfinite(theta).all():
            j = int(np.argmin(np.isfinite(theta).all(axis=(0, 2))))
            raise FloatingPointError(f"{configs[j].method}: iterate {t + 1} is not finite")
        older, prev = prev, theta
        yield theta


def run(config: OptimizerConfig, spec: LossSpec, data: Dataset, theta0=None, *,
        seed: int = 0) -> IterateTrace:
    """Run the configured method on the empirical risk of ``data``.

    The one-config, one-member case of :func:`batch_iterates`, under ``seed``.
    """
    states = batch_iterates([config], spec, data, seed, [0], theta0=theta0)
    thetas = np.stack([state[0, 0] for state in states])
    return IterateTrace(thetas=thetas, risks=empirical_risk_batch(spec, thetas, data),
                        step_sizes=_step_sizes(config.schedule, config.T))
