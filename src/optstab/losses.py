"""Loss families with values, gradients, and certified constants.

Every family evaluates a per-sample loss l(theta; z) together with its
gradient and a set of certified constants (Lipschitz L, smoothness beta,
strong convexity alpha, domain diameter R).  Five families are supported:

* ``logistic``              -- negative log-likelihood of a Bernoulli GLM,
                               l(theta; (x, y)) = log(1 + exp(x.theta)) - y x.theta
* ``quadratic``             -- l(theta; z) = 0.5 theta'A theta - b.theta, sample
                               independent; A symmetric PSD
* ``linear_worstcase``      -- l(theta; s) = s * L * theta[0] on symbols s in {-1,+1}
* ``lecam_convex``          -- piecewise quadratic/linear in theta[0], centered at
                               s*r: (beta/2)u^2 for |u| <= r/2, (beta*r/4)|u| beyond
* ``lecam_strongly_convex`` -- pure quadratic (beta/2)(theta[0] - s*r)^2

Each family's math lives in one entry of a private kernel table: a value
kernel over a batch of parameter vectors and every data row, a mean-gradient
kernel over all rows or one row per parameter vector, and the constants.
The public functions are thin wrappers around it.  The gradient functions
also take a stack (..., d) of parameter vectors and a stack of samples
(``Dataset.stack``); every vector's gradient is then computed by its own
matrix-vector products, exactly as for a single vector.

All evaluation is pure and re-entrant; specs and datasets are immutable
once constructed and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np


class ValidationError(ValueError):
    """A precondition on inputs or configuration was violated."""


def _as_params(theta) -> np.ndarray:
    """Coerce to a finite float array of parameter vectors (..., d)."""
    arr = np.asarray(theta, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if not np.isfinite(arr).all():
        raise ValidationError("parameter vector has non-finite entries")
    return arr


def as_param_vector(theta) -> np.ndarray:
    """Coerce to a finite 1-D float array (model parameters)."""
    arr = np.asarray(theta, dtype=float)
    if arr.ndim > 1:
        raise ValidationError(f"parameter vector must be 1-D, got shape {arr.shape}")
    return _as_params(arr)


@dataclass(frozen=True)
class DataPoint:
    """One sample: either a labeled pair (x, y in {0,1}) or a symbol in {-1,+1}."""

    kind: str  # "labeled" | "symbol"
    x: Optional[np.ndarray] = None
    y: Optional[int] = None
    s: Optional[int] = None

    @staticmethod
    def labeled(x, y: int) -> "DataPoint":
        x = np.asarray(x, dtype=float)
        if int(y) not in (0, 1):
            raise ValidationError(f"label must be 0 or 1, got {y}")
        return DataPoint(kind="labeled", x=x, y=int(y))

    @staticmethod
    def symbol(s: int) -> "DataPoint":
        if int(s) not in (-1, 1):
            raise ValidationError(f"symbol must be -1 or +1, got {s}")
        return DataPoint(kind="symbol", s=int(s))


@dataclass(frozen=True)
class Dataset:
    """A sample of n points, homogeneous in variant, backed by dense arrays.

    A stack of equal-size samples (``Dataset.stack``) carries its stack axes
    in front: X (..., n, d), y and s (..., n).  Only the gradient functions
    and ``loss_constants`` read stacks.
    """

    kind: str  # "labeled" | "symbol"
    X: Optional[np.ndarray] = None  # (n, d) rows for labeled data
    y: Optional[np.ndarray] = None  # (n,) labels in {0, 1}
    s: Optional[np.ndarray] = None  # (n,) symbols in {-1, +1}

    def __post_init__(self):
        if self.kind == "labeled":
            if self.X is None or self.y is None:
                raise ValidationError("labeled dataset needs X and y")
            if self.X.ndim < 2 or self.y.shape != self.X.shape[:-1]:
                raise ValidationError("labeled dataset shapes disagree")
            if self.X.shape[-2] < 1:
                raise ValidationError("dataset must contain at least one point")
        elif self.kind == "symbol":
            if self.s is None or np.asarray(self.s).ndim < 1:
                raise ValidationError("symbol dataset needs a 1-D symbol array")
            if np.shape(self.s)[-1] < 1:
                raise ValidationError("dataset must contain at least one point")
            if not np.all(np.isin(self.s, (-1, 1))):
                raise ValidationError("symbols must lie in {-1, +1}")
        else:
            raise ValidationError(f"unknown dataset kind {self.kind!r}")

    @staticmethod
    def from_labeled(X, y) -> "Dataset":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        return Dataset(kind="labeled", X=X, y=y)

    @staticmethod
    def from_symbols(s) -> "Dataset":
        return Dataset(kind="symbol", s=np.asarray(s, dtype=float))

    @staticmethod
    def stack(samples: Sequence["Dataset"]) -> "Dataset":
        """Equal-size samples of one kind stacked along a new first axis."""
        if len({z.kind for z in samples}) != 1 or any(z.stack_shape for z in samples):
            raise ValidationError("can only stack single samples of one kind")
        if samples[0].kind == "labeled":
            return Dataset(kind="labeled", X=np.stack([z.X for z in samples]),
                           y=np.stack([z.y for z in samples]))
        return Dataset(kind="symbol", s=np.stack([z.s for z in samples]))

    @property
    def n(self) -> int:
        return self.X.shape[-2] if self.kind == "labeled" else self.s.shape[-1]

    @property
    def dim(self) -> Optional[int]:
        return self.X.shape[-1] if self.kind == "labeled" else None

    @property
    def stack_shape(self) -> tuple:
        """Leading shape of a stack of samples; () for a single sample."""
        return self.X.shape[:-2] if self.kind == "labeled" else self.s.shape[:-1]

    def point(self, i: int) -> DataPoint:
        if not 0 <= i < self.n:
            raise ValidationError(f"index {i} out of range for n={self.n}")
        if self.kind == "labeled":
            return DataPoint.labeled(self.X[i], int(self.y[i]))
        return DataPoint.symbol(int(self.s[i]))

    def replace(self, k: int, z: DataPoint) -> "Dataset":
        """Copy with position k (0-based) substituted by z."""
        if not 0 <= k < self.n:
            raise ValidationError(f"index {k} out of range for n={self.n}")
        if z.kind != self.kind:
            raise ValidationError(f"variant mismatch: {z.kind} point into {self.kind} set")
        if self.kind == "labeled":
            if z.x.shape != (self.X.shape[1],):
                raise ValidationError("replacement point has wrong dimension")
            X = self.X.copy()
            y = self.y.copy()
            X[k] = z.x
            y[k] = z.y
            return Dataset(kind="labeled", X=X, y=y)
        s = self.s.copy()
        s[k] = z.s
        return Dataset(kind="symbol", s=s)

    def take(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        if self.kind == "labeled":
            return Dataset(kind="labeled", X=self.X[idx], y=self.y[idx])
        return Dataset(kind="symbol", s=self.s[idx])


@dataclass(frozen=True)
class LossSpec:
    """A loss family plus its parameters and the domain diameter R."""

    family: str
    domain_radius: float = 1.0
    A: Optional[np.ndarray] = None     # quadratic
    b: Optional[np.ndarray] = None     # quadratic
    L: Optional[float] = None          # linear_worstcase
    beta: Optional[float] = None       # lecam families
    r: Optional[float] = None          # lecam families

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown loss family {self.family!r}")
        if self.domain_radius <= 0:
            raise ValidationError("domain_radius must be positive")
        if self.family == "quadratic":
            A = np.asarray(self.A, dtype=float)
            if A.ndim != 2 or A.shape[0] != A.shape[1]:
                raise ValidationError("quadratic A must be a square matrix")
            if not np.allclose(A, A.T, atol=1e-10):
                raise ValidationError("quadratic A must be symmetric")
            if np.linalg.eigvalsh(A)[0] < -1e-10:
                raise ValidationError("quadratic A must be positive semi-definite")
            b = np.zeros(A.shape[0]) if self.b is None else np.asarray(self.b, dtype=float)
            if b.shape != (A.shape[0],):
                raise ValidationError("quadratic b has wrong dimension")
            object.__setattr__(self, "A", A)
            object.__setattr__(self, "b", b)
        if self.family == "linear_worstcase" and (self.L is None or self.L <= 0):
            raise ValidationError("linear_worstcase needs L > 0")
        if self.family in ("lecam_convex", "lecam_strongly_convex"):
            if self.beta is None or self.beta <= 0 or self.r is None or self.r <= 0:
                raise ValidationError("lecam families need beta > 0 and r > 0")

    @property
    def variant(self) -> str:
        """Data variant this family consumes."""
        return _KERNELS[self.family].variant


def logistic_spec(domain_radius: float = 1.0) -> LossSpec:
    return LossSpec(family="logistic", domain_radius=domain_radius)


def quadratic_spec(A, b=None, domain_radius: float = 1.0) -> LossSpec:
    return LossSpec(family="quadratic", A=np.asarray(A, dtype=float), b=b,
                    domain_radius=domain_radius)


def linear_worstcase_spec(L: float, domain_radius: float = 1.0) -> LossSpec:
    return LossSpec(family="linear_worstcase", L=L, domain_radius=domain_radius)


def lecam_convex_spec(beta: float, r: float, domain_radius: float = None) -> LossSpec:
    R = 2.0 * r if domain_radius is None else domain_radius
    return LossSpec(family="lecam_convex", beta=beta, r=r, domain_radius=R)


def lecam_strongly_convex_spec(beta: float, r: float, domain_radius: float = None) -> LossSpec:
    R = 2.0 * r if domain_radius is None else domain_radius
    return LossSpec(family="lecam_strongly_convex", beta=beta, r=r, domain_radius=R)


@dataclass(frozen=True)
class LossConstants:
    """Certified constants: L Lipschitz, beta smoothness, alpha strong convexity, R diameter."""

    L: float
    beta: float
    alpha: float
    R: float

    def __post_init__(self):
        if self.L <= 0 or self.R <= 0:
            raise ValidationError("L and R must be positive")
        if self.beta < 0 or self.alpha < 0:
            raise ValidationError("beta and alpha must be nonnegative")
        if self.beta > 0 and self.alpha > self.beta * (1 + 1e-12):
            raise ValidationError("alpha must not exceed beta")
        if self.beta == 0 and self.alpha != 0:
            raise ValidationError("alpha must be 0 when beta is 0")

    @property
    def kappa(self) -> float:
        """Condition number beta/alpha (inf for non-strongly-convex losses)."""
        return self.beta / self.alpha if self.alpha > 0 else float("inf")


def _sigmoid(u):
    """Numerically stable logistic function; both branches share exp(-|u|).

    Computed in place on two buffers instead of six temporaries: the
    optimizer engine calls it on a block of every member's margins each
    step, and every fresh block-sized temporary can cost page faults.
    """
    e = np.abs(u)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(u >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def _check_dataset(spec: LossSpec, theta: np.ndarray, data: Dataset) -> None:
    want = spec.variant
    if want != "any" and data.kind != want:
        raise ValidationError(f"{spec.family} expects {want} data, got {data.kind}")
    if data.kind == "labeled" and data.X.shape[-1] != theta.shape[-1]:
        raise ValidationError("dimension mismatch between data rows and theta")
    if spec.family == "quadratic" and theta.shape[-1:] != (spec.A.shape[0],):
        raise ValidationError("theta dimension does not match quadratic A")


def _lecam_convex_piece(u: np.ndarray, beta: float, r: float) -> np.ndarray:
    """Piecewise value in the offset u = theta[0] - s*r (vectorized)."""
    au = np.abs(u)
    return np.where(au <= r / 2, 0.5 * beta * u * u, 0.25 * beta * r * au)


def _lecam_convex_slope(u: np.ndarray, beta: float, r: float) -> np.ndarray:
    """One-sided slope; at |u| = r/2 the linear-piece slope is used."""
    au = np.abs(u)
    return np.where(au < r / 2, beta * u, 0.25 * beta * r * np.sign(u))


def _rows(a: np.ndarray, rows, feature_ndim: int = 0) -> np.ndarray:
    """A sample array (..., n, *features) itself when ``rows`` is None;
    otherwise row rows[b] of member b's sample, kept as a one-row sample
    (..., 1, *features).  A single sample is shared by every member."""
    if rows is None:
        return a
    picked = a[np.indices(a.shape[:a.ndim - 1 - feature_ndim], sparse=True) + (rows,)]
    return np.expand_dims(picked, picked.ndim - feature_ndim)


@dataclass(frozen=True)
class _Family:
    """One loss family's math, batched over parameters and data rows."""

    variant: str         # data it consumes: "labeled", "symbol" or "any"
    values: Callable     # (spec, thetas (k, d), data) -> (k, n) per-sample losses
    grad: Callable       # (spec, thetas (..., d), data, rows) -> (..., d) mean gradients
    #                      over all rows (rows None) or over row rows[b] alone
    constants: Callable  # (spec, data or None) -> (L, beta, alpha)


def _logistic_values(spec: LossSpec, thetas: np.ndarray, data: Dataset) -> np.ndarray:
    U = thetas @ data.X.T
    values = np.logaddexp(0.0, U)
    U *= data.y
    values -= U
    return values


def _logistic_grad(spec: LossSpec, thetas: np.ndarray, data: Dataset, rows) -> np.ndarray:
    X = _rows(data.X, rows, 1)
    R = _sigmoid(X @ thetas[..., None])
    R -= _rows(data.y, rows)[..., None]
    return (X.swapaxes(-1, -2) @ R)[..., 0] / X.shape[-2]


def _logistic_constants(spec: LossSpec, data: Optional[Dataset]):
    if data is not None:
        if data.kind != "labeled":
            raise ValidationError("logistic constants need labeled data")
        if np.linalg.norm(data.X, axis=-1).max() > 1.0 + 1e-9:
            raise ValidationError(
                "logistic design must have unit-norm rows; run normalize_rows first")
    return 1.0, 0.25, 0.0


def _quadratic_values(spec: LossSpec, thetas: np.ndarray, data: Dataset) -> np.ndarray:
    v = 0.5 * np.einsum("...i,ij,...j->...", thetas, spec.A, thetas) - thetas @ spec.b
    return np.broadcast_to(v[..., None], v.shape + (data.n,))


def _quadratic_constants(spec: LossSpec, data: Optional[Dataset]):
    eig = np.linalg.eigvalsh(spec.A)
    beta = float(eig[-1])
    return beta * spec.domain_radius, beta, float(max(eig[0], 0.0))


def _symbol_family(value, mean_slope, constants) -> _Family:
    """A family reading only theta[0] and the symbols s: ``value(spec, t0, s)``
    broadcasts losses, ``mean_slope(spec, t0, s)`` averages d l / d theta[0]
    over the last axis of s."""
    def grad(spec, thetas, data, rows):
        g = np.zeros_like(thetas)
        g[..., 0] = mean_slope(spec, thetas[..., 0:1], _rows(data.s, rows))
        return g
    return _Family("symbol",
                   lambda spec, thetas, data: value(spec, thetas[..., 0:1], data.s),
                   grad, constants)


_KERNELS = {
    "logistic": _Family("labeled", _logistic_values, _logistic_grad, _logistic_constants),
    "quadratic": _Family("any", _quadratic_values,
                         lambda spec, thetas, data, rows:
                         (spec.A @ thetas[..., None])[..., 0] - spec.b,
                         _quadratic_constants),
    "linear_worstcase": _symbol_family(
        lambda spec, t0, s: spec.L * t0 * s,
        lambda spec, t0, s: spec.L * s.mean(axis=-1),
        lambda spec, data: (spec.L, 0.0, 0.0)),
    "lecam_convex": _symbol_family(
        lambda spec, t0, s: _lecam_convex_piece(t0 - spec.r * s, spec.beta, spec.r),
        lambda spec, t0, s: _lecam_convex_slope(t0 - spec.r * s, spec.beta,
                                                spec.r).mean(axis=-1),
        # gradient magnitude peaks at the quadratic-piece boundary |u| = r/2
        lambda spec, data: (0.5 * spec.beta * spec.r, spec.beta, 0.0)),
    "lecam_strongly_convex": _symbol_family(
        lambda spec, t0, s: 0.5 * spec.beta * (t0 - spec.r * s) ** 2,
        lambda spec, t0, s: spec.beta * (t0 - spec.r * s).mean(axis=-1),
        # |grad| = beta*|theta[0] - s*r| <= beta*(R/2 + r)
        lambda spec, data: (spec.beta * (spec.domain_radius / 2 + spec.r), spec.beta,
                            spec.beta)),
}
FAMILIES = tuple(_KERNELS)


def _single(z: DataPoint) -> Dataset:
    """The one-point sample {z}."""
    if z.kind == "labeled":
        return Dataset.from_labeled(z.x[None, :], [z.y])
    return Dataset.from_symbols([z.s])


def loss_value(spec: LossSpec, theta, z: DataPoint) -> float:
    """Per-sample loss l(theta; z)."""
    return empirical_risk(spec, theta, _single(z))


def loss_grad(spec: LossSpec, theta, z: DataPoint) -> np.ndarray:
    """Gradient of the per-sample loss with respect to theta."""
    return empirical_risk_grad(spec, theta, _single(z))


def loss_values_matrix(spec: LossSpec, thetas: np.ndarray, data: Dataset) -> np.ndarray:
    """Per-sample losses for a batch of parameter vectors: (k, n) matrix.

    Row i holds l(thetas[i]; z_j) for every point z_j of the dataset.  A
    stack (..., k, d) of batches gives (..., k, n), each batch evaluated by
    its own matrix product.  This is the vectorized engine behind empirical
    risks and sup-loss gaps.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    _check_dataset(spec, thetas, data)
    return _KERNELS[spec.family].values(spec, thetas, data)


def empirical_risk(spec: LossSpec, theta, data: Dataset) -> float:
    """Average loss over the sample: R_S(theta) = (1/n) sum_i l(theta; z_i)."""
    theta = as_param_vector(theta)
    return float(loss_values_matrix(spec, theta[None, :], data).mean(axis=1)[0])


def empirical_risk_batch(spec: LossSpec, thetas: np.ndarray, data: Dataset) -> np.ndarray:
    """Empirical risk for each row of a (k, d) batch of parameter vectors."""
    return loss_values_matrix(spec, thetas, data).mean(axis=1)


def empirical_risk_grad(spec: LossSpec, theta, data: Dataset) -> np.ndarray:
    """Gradient of the empirical risk at theta.

    theta may be a stack (..., d) of parameter vectors and data a stack of
    samples broadcast against it; the result has the broadcast shape.
    """
    theta = _as_params(theta)
    _check_dataset(spec, theta, data)
    return _KERNELS[spec.family].grad(spec, theta, data, None)


def sample_grad(spec: LossSpec, theta, data: Dataset, i) -> np.ndarray:
    """Gradient of the i-th per-sample loss.

    For a stack (..., d) of parameter vectors, i may be an index array: each
    vector takes the gradient at row i[b] of its own sample.
    """
    theta = _as_params(theta)
    _check_dataset(spec, theta, data)
    rows = np.broadcast_to(np.asarray(i, dtype=np.intp),
                           np.broadcast_shapes(np.shape(i), theta.shape[:-1],
                                               data.stack_shape))
    if (rows < 0).any() or (rows >= data.n).any():
        raise ValidationError(f"index out of range for n={data.n}")
    return _KERNELS[spec.family].grad(spec, theta, data, rows)


def loss_constants(spec: LossSpec, data: Optional[Dataset] = None) -> LossConstants:
    """Certified constants for a family.

    For the logistic family the constants L = 1 and beta = 1/4 are certified
    only for unit-norm design rows; pass the dataset to have that precondition
    checked (rows exceeding norm 1 raise ``ValidationError``).

    For ``linear_worstcase`` the smoothness constant is identically zero and
    is reported as such; step-size rules that divide by beta treat it as
    unconstrained.
    """
    L, beta, alpha = _KERNELS[spec.family].constants(spec, data)
    return LossConstants(L=L, beta=beta, alpha=alpha, R=spec.domain_radius)


def normalize_rows(X) -> np.ndarray:
    """Rescale every row of X to unit Euclidean norm."""
    X = np.asarray(X, dtype=float)
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise ValidationError("cannot normalize a zero row")
    return X / norms


def lecam_convex_kinks(spec: LossSpec, s: int) -> tuple:
    """theta[0] locations where the piecewise family switches pieces."""
    c = s * spec.r
    return (c - spec.r / 2, c + spec.r / 2)
