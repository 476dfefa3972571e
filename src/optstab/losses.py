"""Loss families with values, gradients, and certified constants.

Every family evaluates a per-sample loss l(theta; z) together with its
gradient and a set of certified constants (Lipschitz L, smoothness beta,
strong convexity alpha, domain diameter R).  Five families are supported:

* ``logistic``              -- negative log-likelihood of a Bernoulli GLM,
                               l(theta; (x, y)) = log(1 + exp(x.theta)) - y x.theta
* ``quadratic``             -- l(theta; z) = 0.5 theta'A theta - b.theta, sample
                               independent; A symmetric PSD
* ``linear_worstcase``      -- l(theta; s) = s * L * theta[0] on symbols s in {-1,+1}
* ``lecam_convex``          -- Huber in u = theta[0] - s*r: (beta/2)u^2 for
                               |u| <= r/2, (beta*r/2)|u| - beta*r^2/8 beyond
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
A coupled batch is one sample S plus per-member swaps (k_m, z_m)
(``_swap_rows``): its members read one extended design [S; z], each its own
n rows of it, so a perturbed member costs one row, not a copy of S.  Its full
gradient weighs each member's row gradients by 1/n (0 off its rows), and
takes all members' margins in one product, a group of members per product
under ``_PRODUCT_MACS``, so that its bytes do not depend on the thread count.

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


def _check_dataset(spec: LossSpec, theta: np.ndarray, data: Dataset) -> None:
    want = spec.variant
    if want != "any" and data.kind != want:
        raise ValidationError(f"{spec.family} expects {want} data, got {data.kind}")
    if data.kind == "labeled" and data.X.shape[-1] != theta.shape[-1]:
        raise ValidationError("dimension mismatch between data rows and theta")
    if spec.family == "quadratic" and theta.shape[-1:] != (spec.A.shape[0],):
        raise ValidationError("theta dimension does not match quadratic A")


def _lecam_convex_piece(u: np.ndarray, beta: float, r: float) -> np.ndarray:
    """Huber value in the offset u = theta[0] - s*r (vectorized)."""
    au = np.abs(u)
    return np.where(au <= r / 2, 0.5 * beta * u * u, 0.5 * beta * r * au - 0.125 * beta * r * r)


def _lecam_convex_slope(u: np.ndarray, beta: float, r: float) -> np.ndarray:
    """Slope; both pieces give beta r / 2 at |u| = r/2, the linear one's is used."""
    au = np.abs(u)
    return np.where(au < r / 2, beta * u, 0.5 * beta * r * np.sign(u))


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
    values: Callable     # (spec, thetas (..., k, d), data, out, scratch) -> (..., k, n)
    grad: Callable       # (spec, thetas (..., k, d), data, rows, reverse, weights) ->
    #                      (..., k, d) mean gradients over all rows (rows None) or one
    #                      row per member; see _block_grad for reverse and weights
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
# Multiply-adds per product of a shared design's full gradient, whose members are
# taken a group at a time to stay under it: on OpenBLAS 0.3.31 every margins and
# contraction product up to 960,000 multiply-adds gave the same bytes at 1 and 2
# threads, and some from 1,024,000 did not (a threaded product, split otherwise)
_PRODUCT_MACS = 640_000
# Cap on -s u before exp: exp(709) is finite, and a capped residual is within
# 1.3e-308 of the exact one.
_EXP_CAP = 709.0


def _block_rows(X: np.ndarray) -> int:
    """Design rows per block of a logistic full gradient."""
    return max(1, _GRAD_BLOCK_BYTES // (X.shape[-1] * X.itemsize))


def _residual(W: np.ndarray, s: Optional[np.ndarray] = None,
              weights: Optional[np.ndarray] = None) -> np.ndarray:
    """The logistic residual sigma(u) - y = s sigma(s u) = s / (1 + exp(-s u))
    (s = 1 - 2y, exact for y in {0, 1}), in place on a block W of negated
    margins.  Given s, W holds -u and is signed here; without it W holds -s u
    and the result is sigma(s u), whose sign a signed operand supplies.  No
    label subtraction, so no cancellation at y = 1, u >> 1, and no overflow
    warning, as -s u is capped at _EXP_CAP.  Row weights (B, 1, m) of the B
    members whose vectors fill W (B k, m) scale their residuals, in the divide."""
    if s is not None:
        W *= s
    np.minimum(W, _EXP_CAP, out=W)
    np.exp(W, out=W)
    W += 1.0
    if weights is None:
        return np.divide(1.0 if s is None else s, W, out=W)
    V = W.reshape(weights.shape[0], -1, W.shape[-1])  # each member's rows of W
    return np.divide(weights if s is None else s * weights, V, out=V).reshape(W.shape)


def _logistic_values(spec: LossSpec, thetas: np.ndarray, data: Dataset, out=None,
                     scratch=None) -> np.ndarray:
    """Softplus of the signed margin v = s u (s = 1 - 2y; exact for y in {0, 1}),
    max(v, 0) + log1p(exp(-|v|)): no cancellation at y = 1, u >> 1, in place in
    ``out`` with log1p(exp(-|v|)) in ``scratch`` (each allocated if None).  A
    one-block design's v is one product on its signed d-major copy."""
    if data.n <= _block_rows(data.X):
        V = np.matmul(thetas, data._signed_cols, out=out)
    else:
        V = np.matmul(thetas, data.X.swapaxes(-1, -2), out=out)
        V *= data._signs[..., None, :]
    e = np.abs(V, out=scratch)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.log1p(e, out=e)
    np.maximum(V, 0.0, out=V)
    V += e
    return V


def _logistic_grad(spec: LossSpec, thetas: np.ndarray, data: Dataset, rows,
                   reverse: bool, weights: Optional[np.ndarray]) -> np.ndarray:
    neg = -thetas  # margins of -theta are exactly -u
    if rows is not None:  # each member's one row x, signed once: s x
        sx = _rows(data.X, rows, 1) * _rows(data._signs, rows)[..., None]
        return _residual(neg @ sx.swapaxes(-1, -2)) @ sx
    X = data.X
    n, step = X.shape[-2], _block_rows(X)
    shape = neg.shape
    if weights is not None:  # members' vectors in one product on the shared design
        per = max(1, _PRODUCT_MACS // (shape[-2] * min(n, step) * shape[-1]))
        if len(weights) > per:  # a group of members per product
            return np.concatenate([_logistic_grad(spec, thetas[b:b + per], data, None,
                                                  reverse, weights[b:b + per])
                                   for b in range(0, len(weights), per)])
        neg = neg.reshape(-1, shape[-1])
    if n <= step:  # one block: margins and contraction on the signed copies
        g = _residual(neg @ data._signed_cols, None, weights) @ data._signed_rows
        return (g / n if weights is None else g).reshape(shape)
    s = data._signs[..., None, :]
    starts = range(0, n, step)
    rows_first = neg.shape[-2] >= _ROWS_FIRST_K
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
        w = None if weights is None else weights[..., i:i + step]
        parts[i] = _residual(W, s[..., i:i + step], w) @ Xb
    g = sum((parts[i] for i in starts[1:]), parts[0])
    return (g / n if weights is None else g).reshape(shape)


def _logistic_constants(spec: LossSpec, data: Optional[Dataset]):
    if data is not None:
        if data.kind != "labeled":
            raise ValidationError("logistic constants need labeled data")
        X = data.X.reshape(-1, data.dim)  # every member's rows
        if np.max([norms.max() for _, norms in _row_norms(X)]) > 1.0 + 1e-9:
            raise ValidationError(
                "logistic design must have unit-norm rows; run normalize_rows first")
    return 1.0, 0.25, 0.0


def _quadratic_values(spec: LossSpec, thetas: np.ndarray, data: Dataset, *_) -> np.ndarray:
    v = 0.5 * np.einsum("...i,ij,...j->...", thetas, spec.A, thetas) - thetas @ spec.b
    return np.broadcast_to(v[..., None], v.shape + (data.n,))


def _quadratic_constants(spec: LossSpec, data: Optional[Dataset]):
    eig = np.linalg.eigvalsh(spec.A)
    beta = float(eig[-1])
    return beta * spec.domain_radius, beta, float(max(eig[0], 0.0))


def _symbol_family(value, slope, constants) -> _Family:
    """A family reading only theta[0] and the symbols s: ``value(spec, t0, s)``
    broadcasts losses, ``slope(spec, t0, s)`` the slopes d l / d theta[0], whose
    mean over the last axis of s, or sum under row weights, is the gradient."""
    def grad(spec, thetas, data, rows, reverse, weights):
        g = np.zeros_like(thetas)
        slopes = slope(spec, thetas[..., 0:1], _rows(data.s, rows)[..., None, :])
        g[..., 0] = slopes.mean(axis=-1) if weights is None else (slopes * weights).sum(-1)
        return g
    return _Family("symbol",
                   lambda spec, thetas, data, *_: value(spec, thetas[..., 0:1], data.s),
                   grad, constants)


_KERNELS = {
    "logistic": _Family("labeled", _logistic_values, _logistic_grad, _logistic_constants),
    "quadratic": _Family("any", _quadratic_values,
                         lambda spec, thetas, data, rows, reverse, weights:
                         (spec.A @ thetas[..., None])[..., 0] - spec.b,
                         _quadratic_constants),
    "linear_worstcase": _symbol_family(
        lambda spec, t0, s: spec.L * t0 * s,
        lambda spec, t0, s: spec.L * s,
        lambda spec, data: (spec.L, 0.0, 0.0)),
    "lecam_convex": _symbol_family(
        lambda spec, t0, s: _lecam_convex_piece(t0 - spec.r * s, spec.beta, spec.r),
        lambda spec, t0, s: _lecam_convex_slope(t0 - spec.r * s, spec.beta, spec.r),
        # |grad| reaches beta r / 2 at |u| = r/2 and stays there on the linear pieces
        lambda spec, data: (0.5 * spec.beta * spec.r, spec.beta, 0.0)),
    "lecam_strongly_convex": _symbol_family(
        lambda spec, t0, s: 0.5 * spec.beta * (t0 - spec.r * s) ** 2,
        lambda spec, t0, s: spec.beta * (t0 - spec.r * s),
        # |grad| = beta*|theta[0] - s*r| <= beta*(R/2 + r)
        lambda spec, data: (spec.beta * (spec.domain_radius / 2 + spec.r), spec.beta,
                            spec.beta)),
}
FAMILIES = tuple(_KERNELS)


def loss_values_matrix(spec: LossSpec, thetas: np.ndarray, data: Dataset, out=None,
                       scratch=None) -> np.ndarray:
    """Per-sample losses for a batch of parameter vectors: (k, n) matrix.

    Row i holds l(thetas[i]; z_j) for every point z_j of the dataset.  A
    stack (..., k, d) of batches gives (..., k, n), each batch evaluated by
    its own matrix product.  This is the vectorized engine behind empirical
    risks and sup-loss gaps; ``data`` is a single sample.  Given ``out``, a
    float buffer (..., k, n) the caller owns, the losses are written there and
    it is returned, with the same bytes: the logistic family computes them in
    place there, taking its softplus term in ``scratch`` (a second such buffer,
    allocated if None); the other families' results are copied into it.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    _check_dataset(spec, thetas, data)
    values = _KERNELS[spec.family].values(spec, thetas, data, out, scratch)
    if out is None or values is out:
        return values
    np.copyto(out, values)
    return out


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
                reverse: bool = False, weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Unchecked gradient at blocks (..., k, d) of k vectors against samples
    (...): of the empirical risk for rows None, else of row rows[...] of each
    block's sample (callers check data, dimension, finiteness and rows).
    ``reverse`` walks a blocked design's rows backward, bit for bit equal.
    Given row weights (B, 1, n) of B blocks on one sample (``_swap_rows``), a
    full gradient is each block's weighted sum of the row gradients instead."""
    if rows is not None:
        rows = _member_grid(data.stack_shape) + (rows,)
    return _KERNELS[spec.family].grad(spec, thetas, data, rows, reverse, weights)


def _swap_rows(data: Dataset, ks, z: Dataset, B: int, full: bool) -> tuple:
    """B members on one sample S = ``data``, member m's sample S with row ks[m]
    replaced by the next row of z (ks[m] = -1: S itself): the extended sample
    [S; z] they all read, (ks, into) with into[m] the row of it standing for
    row ks[m] in m's sample, and for ``full`` gradients the row weights
    (B, 1, n + z.n), 1/n on m's rows (else None).  Checks the swaps."""
    k = np.asarray(ks)
    swapped = k >= 0
    if (data.stack_shape or k.shape != (B,) or k.dtype.kind not in "iu"
            or np.any((k < -1) | (k >= data.n))):
        raise ValidationError("swaps need one sample and one row in [-1, n) per member")
    if z.kind != data.kind or z.stack_shape or z.dim != data.dim or z.n != swapped.sum():
        raise ValidationError(f"swaps need one {data.kind} point of the sample's "
                              "dimension per swapping member")
    into = k.copy()
    into[swapped] = data.n + np.arange(z.n)
    weights = None
    if full:
        weights = np.zeros((len(k), 1, data.n + z.n))
        weights[:, 0, :data.n] = 1.0 / data.n
        weights[swapped, 0, k[swapped]] = 0.0
        weights[swapped, 0, into[swapped]] = 1.0 / data.n
    ext = Dataset(*(np.concatenate(a) for a in zip(data._arrays, z._arrays)))
    return ext, (k, into), weights


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
