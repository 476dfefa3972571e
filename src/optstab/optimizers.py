"""Seedable first-order optimizers as one batched momentum-form recursion.

Methods: full gradient descent (``gd``), single-sample stochastic gradient
descent (``sgd``), Nesterov acceleration with the vanishing-momentum
recursion (``nag``), Nesterov acceleration with fixed momentum
(sqrt(kappa)-1)/(sqrt(kappa)+1) for strongly convex problems (``nag_sc``),
heavy ball with fixed momentum (``hb``), and stochastic gradient Langevin
dynamics (``sgld``).

Every method is one coefficient schedule of the same step (see
``_coefficients``), differing otherwise only in whether the gradient is the
full empirical-risk gradient or a single sampled row's.  ``batch_iterates``
runs B members of one method as one (B, d) state, each member on the shared
sample or on its own sample of a stack; ``run`` is its one-member case and
is the only place that records an iterate trace.

Randomized methods draw their index and Gaussian noise streams from Philox
4x64 counter-based generators keyed by the member's seed, so every iterate
is a deterministic function of (config, seed, loss, sample, theta0).  Members
with the same seed share identical streams, which is what couples a
perturbed pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from .losses import (
    Dataset,
    LossSpec,
    ValidationError,
    as_param_vector,
    empirical_risk_batch,
    empirical_risk_grad,
    loss_constants,
    sample_grad,
)

METHODS = ("gd", "sgd", "nag", "nag_sc", "hb", "sgld")
STOCHASTIC_METHODS = ("sgd", "sgld")


@dataclass(frozen=True)
class StepSchedule:
    """eta_t = eta0 (fixed) or eta0 * t^(-alpha) (power), for steps t >= 1."""

    kind: str  # "fixed" | "power"
    eta0: float
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in ("fixed", "power"):
            raise ValidationError(f"unknown schedule kind {self.kind!r}")
        if self.eta0 <= 0:
            raise ValidationError("eta0 must be positive")
        if self.kind == "power" and not 0 < self.alpha <= 1:
            raise ValidationError("power schedule needs 0 < alpha <= 1")


def fixed(eta0: float) -> StepSchedule:
    return StepSchedule(kind="fixed", eta0=eta0)


def power(eta0: float, alpha: float) -> StepSchedule:
    return StepSchedule(kind="power", eta0=eta0, alpha=alpha)


def step_size(schedule: StepSchedule, t: int) -> float:
    """Step size used by update number t (t >= 1)."""
    if t < 1:
        raise ValidationError("step index starts at 1")
    if schedule.kind == "fixed":
        return schedule.eta0
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


def nag_momentum(t: int) -> float:
    """gamma_t for a single index t >= 1."""
    return float(nag_momentum_sequence(t)[-1])


def sc_momentum(kappa: float) -> float:
    """Fixed momentum (sqrt(kappa) - 1) / (sqrt(kappa) + 1)."""
    if kappa < 1:
        raise ValidationError("kappa must be >= 1")
    rk = math.sqrt(kappa)
    return (rk - 1.0) / (rk + 1.0)


@dataclass(frozen=True)
class OptimizerConfig:
    method: str
    schedule: StepSchedule
    T: int
    seed: int = 0
    gamma: float = 0.0              # heavy ball momentum
    kappa: Optional[float] = None   # nag_sc condition number
    tau: Optional[float] = None     # sgld temperature
    noise_scale: float = 1.0        # sgld noise multiplier (diagnostic hook)

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

    def with_seed(self, seed: int) -> "OptimizerConfig":
        return replace(self, seed=seed)


def validate_config(config: OptimizerConfig, constants) -> None:
    """Reject configurations that violate method step-size preconditions.

    The largest scheduled step (eta_1) is checked: gd/sgd/nag/nag_sc need
    eta <= 1/beta, heavy ball needs eta < (1 - gamma)/beta.  A zero
    smoothness constant leaves the step size unconstrained.
    """
    eta1 = step_size(config.schedule, 1)
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

    method: str
    thetas: np.ndarray       # (T+1, d)
    risks: np.ndarray        # (T+1,)
    step_sizes: np.ndarray   # (T,)
    seed: int

    @property
    def T(self) -> int:
        return self.thetas.shape[0] - 1

    def final(self) -> np.ndarray:
        return self.thetas[-1]


def _streams(config: OptimizerConfig, n: int, d: int):
    """Pre-drawn index and noise streams, keyed by the config seed.

    Indices and noise come from independently keyed Philox generators, so a
    method that consumes only indices (sgd) sees the same index stream as
    one that consumes both (sgld).
    """
    ss = np.random.SeedSequence(config.seed & 0xFFFFFFFFFFFFFFFF)
    idx_seq, noise_seq = ss.spawn(2)
    indices = np.random.Generator(np.random.Philox(idx_seq)).integers(0, n, size=config.T)
    noise = None
    if config.method == "sgld":
        noise = np.random.Generator(np.random.Philox(noise_seq)).standard_normal(
            (config.T, d))
    return indices, noise


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
        c = config.noise_scale * np.sqrt(2.0 * etas / config.tau)
    return a, b, c


def batch_iterates(config: OptimizerConfig, spec: LossSpec, data: Dataset,
                   seeds: Sequence[int], theta0=None,
                   dim: Optional[int] = None) -> Iterator[np.ndarray]:
    """Yield the (B, d) states theta_0..theta_T of B runs of one method.

    Member b runs ``config`` with seed ``seeds[b]`` on ``data``, or on sample
    b of a stack of B samples (``Dataset.stack``).  Members with equal seeds
    share their index and noise streams, which couples them, and every
    member's gradient comes from its own matrix-vector products, as in a
    single run, so members whose seeds and samples agree follow exactly equal
    iterates.  theta0 defaults to the zero vector; for symbol datasets the
    dimension is taken from ``dim`` (default 1) since the data carry none.
    Raises FloatingPointError naming the method and step at the first
    iterate that is not finite.
    """
    B = len(seeds)
    if data.stack_shape not in ((), (B,)):
        raise ValidationError("need one sample, or one sample per member")
    validate_config(config, loss_constants(spec, data))
    if theta0 is not None:
        theta = as_param_vector(theta0).copy()
    elif data.kind == "labeled":
        theta = np.zeros(data.dim)
    else:
        theta = np.zeros(dim if dim is not None else 1)
    T, n, d = config.T, data.n, theta.shape[0]
    etas = _step_sizes(config.schedule, T)
    a, b, c = _coefficients(config, etas)
    keep = 1.0 - a

    noise = np.zeros((T, 1, 1))
    if config.method in STOCHASTIC_METHODS:
        streams = [_streams(config.with_seed(seed), n, d) for seed in seeds]
        idx = np.stack([indices for indices, _ in streams], axis=1)
        if config.method == "sgld":
            noise = np.stack([xi for _, xi in streams], axis=1)

        def gradient(t, look):
            return sample_grad(spec, look, data, idx[t])
    else:
        def gradient(t, look):
            return empirical_risk_grad(spec, look, data)
    noise *= c[:, None, None]

    prev = older = np.broadcast_to(theta, (B, d))
    yield prev
    for t in range(T):
        look = keep[t] * prev + a[t] * older
        theta = look - etas[t] * gradient(t, look) + b[t] * (prev - older) + noise[t]
        if not np.isfinite(theta).all():
            raise FloatingPointError(
                f"{config.method}: iterate {t + 1} is not finite")
        older, prev = prev, theta
        yield theta


def run(config: OptimizerConfig, spec: LossSpec, data: Dataset,
        theta0=None, dim: Optional[int] = None) -> IterateTrace:
    """Run the configured method on the empirical risk of ``data``.

    The one-member case of :func:`batch_iterates`, recording its trace.
    """
    thetas = np.concatenate(list(batch_iterates(config, spec, data, [config.seed],
                                                theta0=theta0, dim=dim)))
    return IterateTrace(method=config.method, thetas=thetas,
                        risks=empirical_risk_batch(spec, thetas, data),
                        step_sizes=_step_sizes(config.schedule, config.T),
                        seed=config.seed)
