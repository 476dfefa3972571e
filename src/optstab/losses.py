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

``Dataset`` is the only sample type, one design X (n, d): labeled by y, or
the one column of a symbol sample's s (y None).  A point is the one-row sample
``data.point(i)``, so l(theta; z_i) is ``empirical_risk(spec, theta,
data.point(i))`` and its gradient ``sample_grad(spec, theta, data, i)``.

Each family's math lives in one entry of a private kernel table: a value
kernel and a mean-gradient kernel (over all rows or one row per sample),
both on blocks (..., k, d) of parameter vectors against sample (...) of a
stack (``Dataset.stack``), so a sample's k logistic margins are one
product; plus the constants.  The logistic kernels fold the row signs
s = 1 - 2y into what they read wherever they can.  A design that fits in one
gradient block is read through its signed copies s X, which its ``Dataset``
builds once: d-major (..., d, n) for the margins (-theta against it gives the
signed negated margins -s u), row-major (..., n, d) for the contraction; the
values kernel reads the same d-major copy.  A sampled-row gradient signs its
gathered rows once.  A flip of sign is exact, so these give the bytes of the
unsigned forms.  A larger design's full gradient streams each member's rows
in blocks small enough to stay in L2 between the margins and the
contraction, one product R @ Xb per member and block (whose rounding,
unlike a product over a whole large design, does not depend on the BLAS
thread count), and signs each block's margins by a pass over s; its
margins are theta @ Xb^T, or Xb @ theta^T made C-contiguous from k = 4
columns on, the faster side there at d = 200.  It sums the blocks' partial
gradients in block order whichever way it walks them, so the optimizer
engine walks backward on odd steps, starting on the blocks the last step
left in L2, at no change in bytes.  Every residual sigma(u) - y takes the
one form s sigma(s u) = s / (1 + exp(-s u)) (``_residual``), its sign s
left to a signed operand where there is one: no label subtraction, so no
cancellation at y = 1, u >> 1, and no overflow warning.
The public functions are validated wrappers around the table; the
gradient ones pass each vector of a stack (..., d) as a block k = 1 to
``_block_grad``, the unchecked entry the optimizer engine calls each step.

All evaluation is pure and re-entrant; specs and datasets are immutable
once constructed and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterator, Optional, Sequence

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
class Dataset:
    """A sample of n points as one design X (n, d), backed by dense arrays.

    A labeled sample has labels y (n,) in {0, 1}; a symbol sample is the
    one-column design of its symbols s in {-1, +1}, with y None.  A stack of
    equal-size samples (``Dataset.stack``) carries its stack axes in front:
    X (..., n, d), y (..., n).  Only the gradient functions and
    ``loss_constants`` read stacks; ``point`` and ``replace`` reject them.
    """

    X: np.ndarray
    y: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.X.ndim < 2 or self.X.shape[-2] < 1:
            raise ValidationError("dataset needs a design X (..., n, d) of at least one point")
        if self.y is None:
            if self.X.shape[-1] != 1 or not np.all(np.isin(self.X, (-1, 1))):
                raise ValidationError("an unlabeled sample is one column of symbols "
                                      "in {-1, +1}")
        elif self.y.shape != self.X.shape[:-1]:
            raise ValidationError("labeled dataset shapes disagree")
        elif not np.all(np.isin(self.y, (0, 1))):
            raise ValidationError("labels must lie in {0, 1}")

    @staticmethod
    def from_labeled(X, y) -> "Dataset":
        return Dataset(np.asarray(X, dtype=float), np.asarray(y, dtype=float))

    @staticmethod
    def from_symbols(s) -> "Dataset":
        return Dataset(np.asarray(s, dtype=float)[..., None])

    @property
    def kind(self) -> str:
        return "symbol" if self.y is None else "labeled"

    @property
    def s(self) -> Optional[np.ndarray]:
        """Symbols (..., n) of a symbol sample, None for a labeled one."""
        return self.X[..., 0] if self.y is None else None

    @property
    def n(self) -> int:
        return self.X.shape[-2]

    @property
    def dim(self) -> int:
        return self.X.shape[-1]

    @property
    def stack_shape(self) -> tuple:
        """Leading shape of a stack of samples; () for a single sample."""
        return self.X.shape[:-2]

    @property
    def _arrays(self) -> tuple:
        """The row-aligned arrays: (X,) or (X, y)."""
        return (self.X,) if self.y is None else (self.X, self.y)

    @staticmethod
    def stack(samples: Sequence["Dataset"]) -> "Dataset":
        """Equal-size samples of one kind stacked along a new first axis."""
        if len({z.kind for z in samples}) != 1 or any(z.stack_shape for z in samples):
            raise ValidationError("can only stack single samples of one kind")
        return Dataset(*(np.stack(a) for a in zip(*(z._arrays for z in samples))))

    def _check_index(self, i: int) -> None:
        if self.stack_shape:
            raise ValidationError("point and replace need a single sample, not a stack")
        if not 0 <= i < self.n:
            raise ValidationError(f"index {i} out of range for n={self.n}")

    def point(self, i: int) -> "Dataset":
        """The one-point sample {z_i}."""
        self._check_index(i)
        return self.take([i])

    def replace(self, k: int, z: "Dataset") -> "Dataset":
        """Copy with position k (0-based) substituted by the one-point sample z."""
        self._check_index(k)
        if z.kind != self.kind or z.n != 1 or z.stack_shape or z.dim != self.dim:
            raise ValidationError(f"replacement must be one {self.kind} point of this "
                                  "sample's dimension")
        arrays = tuple(a.copy() for a in self._arrays)
        for a, b in zip(arrays, z._arrays):
            a[k] = b[0]
        return Dataset(*arrays)

    def take(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(*(a[idx] for a in self._arrays))

    @cached_property
    def _signs(self) -> np.ndarray:
        """Row signs s = 1 - 2y (..., n) of a labeled sample, read-only, built once."""
        return _read_only(1.0 - 2.0 * self.y)

    @cached_property
    def _signed_cols(self) -> np.ndarray:
        """The signed design s X as a C-contiguous d-major copy (..., d, n), the
        one-block logistic margins operand; read-only, built once."""
        return _read_only(np.multiply(self.X.swapaxes(-1, -2), self._signs[..., None, :],
                                      order="C"))

    @cached_property
    def _signed_rows(self) -> np.ndarray:
        """The signed design s X (..., n, d), the one-block logistic gradient's
        contraction operand; read-only, built once."""
        return _read_only(self._signs[..., None] * self.X)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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
    otherwise the index ``rows`` (member grids, then row per member) picks
    each member's row, kept as a one-row sample (..., 1, *features)."""
    if rows is None:
        return a
    return a[rows][(..., None) + (slice(None),) * feature_ndim]


@lru_cache(maxsize=None)
def _member_grid(stack_shape: tuple) -> tuple:
    """Sparse index grids over a stack's members, () for a single sample;
    built once per stack shape and read-only, since every step shares them."""
    return tuple(map(_read_only, np.indices(stack_shape, sparse=True)))


@dataclass(frozen=True)
class _Family:
    """One loss family's math, batched over parameters and data rows."""

    variant: str         # data it consumes: "labeled", "symbol" or "any"
    values: Callable     # (spec, thetas (..., k, d), data) -> (..., k, n) losses
    grad: Callable       # (spec, thetas (..., k, d), data, rows, reverse) -> (..., k, d)
    #                      mean gradients over all rows (rows None) or one row per
    #                      member; reverse walks row blocks backward, same bytes
    constants: Callable  # (spec, data or None) -> (L, beta, alpha)


# Bytes of one member's design rows per block of a logistic full-gradient
# step (400 rows at d = 200): the contraction then reads rows the margins have
# just left in L2.  Measured at k = 4 on a (2000, 200) design, ms per call at
# 100/200/400/500/667/1000/2000 rows: 0.82/0.58/0.51/0.50/0.49/0.54/0.75, with
# 400 to 667 rows within the noise.  Every d = 10 design up to n = 8000 is one block.
_GRAD_BLOCK_BYTES = 640_000
# Columns from which a full gradient's margins are Xb @ theta^T: ms per call on a
# (2000, 200) design, theta @ Xb^T / Xb @ theta^T, at k = 1..6: 0.32/0.33,
# 0.36/0.33, 0.53/0.60, 0.79/0.53, 0.95/0.72, 0.88/0.67; at d = 10 a tie.
_ROWS_FIRST_K = 4
# Cap on -s u before exp: exp(709) is finite, and a capped residual is within
# 1.3e-308 of the exact one.
_EXP_CAP = 709.0


def _block_rows(X: np.ndarray) -> int:
    """Design rows per block of a logistic full gradient."""
    return max(1, _GRAD_BLOCK_BYTES // (X.shape[-1] * X.itemsize))


def _residual(W: np.ndarray, s: Optional[np.ndarray] = None) -> np.ndarray:
    """The logistic residual sigma(u) - y = s sigma(s u) = s / (1 + exp(-s u))
    (s = 1 - 2y, exact for y in {0, 1}), in place on a block W of negated
    margins.  Given s, W holds -u and is signed here; without it W holds -s u
    and the result is sigma(s u), whose sign a signed operand supplies.  No
    label subtraction, so no cancellation at y = 1, u >> 1, and no overflow
    warning, as -s u is capped at _EXP_CAP."""
    if s is not None:
        W *= s
    np.minimum(W, _EXP_CAP, out=W)
    np.exp(W, out=W)
    W += 1.0
    return np.divide(1.0 if s is None else s, W, out=W)


def _logistic_values(spec: LossSpec, thetas: np.ndarray, data: Dataset) -> np.ndarray:
    """Softplus of the signed margin v = s u (s = 1 - 2y; exact for y in {0, 1}),
    max(v, 0) + log1p(exp(-|v|)): no cancellation at y = 1, u >> 1.  A one-block
    design's v is one product on its signed d-major copy."""
    if data.n <= _block_rows(data.X):
        V = thetas @ data._signed_cols
    else:
        V = thetas @ data.X.swapaxes(-1, -2)
        V *= data._signs[..., None, :]
    e = np.abs(V)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.log1p(e, out=e)
    np.maximum(V, 0.0, out=V)
    V += e
    return V


def _logistic_grad(spec: LossSpec, thetas: np.ndarray, data: Dataset, rows,
                   reverse: bool) -> np.ndarray:
    neg = -thetas  # margins of -theta are exactly -u
    if rows is not None:  # each member's one row x, signed once: s x
        sx = _rows(data.X, rows, 1) * _rows(data._signs, rows)[..., None]
        return _residual(neg @ sx.swapaxes(-1, -2)) @ sx
    X = data.X
    n, step = X.shape[-2], _block_rows(X)
    if n <= step:  # one block: margins and contraction on the signed copies
        return _residual(neg @ data._signed_cols) @ data._signed_rows / n
    s = data._signs[..., None, :]
    starts = range(0, n, step)
    rows_first = thetas.shape[-2] >= _ROWS_FIRST_K
    neg_t = np.ascontiguousarray(neg.swapaxes(-1, -2)) if rows_first else None
    parts = {}  # kept per block and summed in block order: the same bytes either way
    for i in (reversed(starts) if reverse else starts):
        # margins, residuals and contraction of one block while it is in L2; the
        # contraction is one product R @ Xb per member of a C-contiguous R (a transposed
        # R rounds apart), whose rounding within a block does not depend on the BLAS
        # thread count (over a whole 2,000-row design at d = 200 it does)
        Xb = X[..., i:i + step, :]
        W = (np.ascontiguousarray((Xb @ neg_t).swapaxes(-1, -2)) if rows_first
             else neg @ Xb.swapaxes(-1, -2))
        parts[i] = _residual(W, s[..., i:i + step]) @ Xb
    return sum((parts[i] for i in starts[1:]), parts[0]) / n


def _logistic_constants(spec: LossSpec, data: Optional[Dataset]):
    if data is not None:
        if data.kind != "labeled":
            raise ValidationError("logistic constants need labeled data")
        X = data.X.reshape(-1, data.dim)  # every member's rows
        if np.max([norms.max() for _, norms in _row_norms(X)]) > 1.0 + 1e-9:
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
    def grad(spec, thetas, data, rows, reverse):
        g = np.zeros_like(thetas)
        g[..., 0] = mean_slope(spec, thetas[..., 0:1], _rows(data.s, rows)[..., None, :])
        return g
    return _Family("symbol",
                   lambda spec, thetas, data: value(spec, thetas[..., 0:1], data.s),
                   grad, constants)


_KERNELS = {
    "logistic": _Family("labeled", _logistic_values, _logistic_grad, _logistic_constants),
    "quadratic": _Family("any", _quadratic_values,
                         lambda spec, thetas, data, rows, reverse:
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


def loss_values_matrix(spec: LossSpec, thetas: np.ndarray, data: Dataset) -> np.ndarray:
    """Per-sample losses for a batch of parameter vectors: (k, n) matrix.

    Row i holds l(thetas[i]; z_j) for every point z_j of the dataset.  A
    stack (..., k, d) of batches gives (..., k, n), each batch evaluated by
    its own matrix product.  This is the vectorized engine behind empirical
    risks and sup-loss gaps; ``data`` is a single sample.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    _check_dataset(spec, thetas, data)
    return _KERNELS[spec.family].values(spec, thetas, data)


def empirical_risk(spec: LossSpec, theta, data: Dataset) -> float:
    """Average loss over the sample: R_S(theta) = (1/n) sum_i l(theta; z_i)."""
    theta = as_param_vector(theta)
    return float(loss_values_matrix(spec, theta[None, :], data).mean(axis=1)[0])


# Vectors per values block of empirical_risk_batch.  On the BLAS's blocked path rows
# round as in one product; a one-row last block takes gemv and may round an ulp apart.
_RISK_ROWS = 64


def empirical_risk_batch(spec: LossSpec, thetas: np.ndarray, data: Dataset) -> np.ndarray:
    """Empirical risk of each vector of a block (..., m, d) against the single
    sample ``data``: one leading index and _RISK_ROWS vectors at a time, so
    neither a long trace nor a stack of them holds more than one (_RISK_ROWS, n)
    values block.  A stacked product is one product per leading index, so the
    risks are those of one values matrix over the whole block."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    risks = np.empty(thetas.shape[:-1])
    for idx in np.ndindex(thetas.shape[:-2]):
        for i in range(0, thetas.shape[-2], _RISK_ROWS):
            risks[idx][i:i + _RISK_ROWS] = loss_values_matrix(
                spec, thetas[idx][i:i + _RISK_ROWS], data).mean(axis=-1)
    return risks


def sample_grad(spec: LossSpec, theta, data: Dataset, i) -> np.ndarray:
    """Gradient of the i-th per-sample loss (of the empirical risk for i None).

    For a stack (..., d) of parameter vectors, i may be an index array: each
    vector takes the gradient at row i[b] of its own sample.
    """
    thetas = _as_params(theta)[..., None, :]
    _check_dataset(spec, thetas, data)
    if i is not None:
        i = np.broadcast_to(np.asarray(i, dtype=np.intp),
                            np.broadcast_shapes(np.shape(i), thetas.shape[:-2],
                                                data.stack_shape))
        if (i < 0).any() or (i >= data.n).any():
            raise ValidationError(f"index out of range for n={data.n}")
    return _block_grad(spec, thetas, data, i)[..., 0, :]


def _block_grad(spec: LossSpec, thetas: np.ndarray, data: Dataset, rows,
                reverse: bool = False) -> np.ndarray:
    """Unchecked gradient at blocks (..., k, d) of k vectors against samples
    (...): of the empirical risk for rows None, else of row rows[...] of each
    block's sample (callers check data, dimension, finiteness and rows).
    ``reverse`` walks a blocked design's rows backward, bit for bit equal."""
    if rows is not None:
        rows = _member_grid(data.stack_shape) + (rows,)
    return _KERNELS[spec.family].grad(spec, thetas, data, rows, reverse)


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
    """A copy of X (..., d) with every row rescaled to unit Euclidean norm (norms
    over the last axis), by ``_unit_rows`` on its (-1, d) view, so a stack's rows
    are those of its members normalized one by one."""
    X = np.array(X, dtype=float, order="C")  # so the (-1, d) reshape is a view
    _unit_rows(X.reshape(-1, X.shape[-1]))
    return X


def _unit_rows(X: np.ndarray) -> np.ndarray:
    """Divide every row of a float array X by its Euclidean norm over axis 1, in
    place, one gradient row block at a time (``_row_norms``)."""
    for rows, norms in _row_norms(X):
        if np.any(norms == 0):
            raise ValidationError("cannot normalize a zero row")
        X[rows] /= norms
    return X


def _row_norms(X: np.ndarray) -> Iterator[tuple]:
    """(rows, norms) per gradient row block (``_block_rows``) of X (n, ...): the
    block's slice and its Euclidean norms over axis 1 (kept), so the squares summed
    for them never span the whole design.  Each norm is its own reduction over its
    row, so they are the bytes of ``norm(X, axis=1)``."""
    step = _block_rows(X)
    for i in range(0, X.shape[0], step):
        yield slice(i, i + step), np.linalg.norm(X[i:i + step], axis=1, keepdims=True)


def lecam_convex_kinks(spec: LossSpec, s: int) -> tuple:
    """theta[0] locations where the piecewise family switches pieces."""
    c = s * spec.r
    return (c - spec.r / 2, c + spec.r / 2)
