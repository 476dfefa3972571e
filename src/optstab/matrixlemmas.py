"""Brute-force verification of spectral-norm envelopes for the 2x2
companion-matrix products that drive the momentum stability analysis.

Three product families are audited, plus one scalar recursion:

* ``nag_convex``  H_i = [[(1-g_i) h, g_i h], [1, 0]],  0 <= h <= 1, -1 < g_i < 1;
  envelope ||H_t ... H_1|| <= 2 (t + 1).
* ``hb``          H = [[1 + g - a, -g], [1, 0]],  0 <= g < 1, 0 <= a <= 1 - g;
  envelope ||H^t|| <= 2 / (1 - sqrt(g)).
* ``nag_sc``      H = [[(1+g) h, -g h], [1, 0]] with g = ``optimizers.sc_momentum(k)``
  and h in [1 - beta eta, 1 - alpha eta].  The certified envelope is
  2 (1 + t) rho^(t-1) where rho is the spectral radius of H: the top row of
  H^t is a degree-t root sum bounded by (t+1) rho^t, and the bottom row lags
  it by exactly one factor of rho.  The tighter-looking 2 (1+t) (g (1-alpha
  eta))^(t/2) envelope fails on that lagging row (see tests for a concrete
  violation), so the checks use the certified form.
* ``recursion_u`` a_{i+1} = 2 h a_i - h a_{i-1}, a_0 = 1, a_1 = 2h; for
  0 <= h <= 1 both characteristic roots have modulus sqrt(h), giving
  |a_i| <= i + 1.  (At h = 1 the sequence is exactly i + 1.)

Every grid sweep and adversarial search runs through one batched sweep
over P_s = H_s P_{s-1} (analysis order) for a whole batch of parameter draws.
Each factor is a companion matrix H_s = [[p, q], [1, 0]], so the sweep keeps
P_s's four entries and advances them by a two-row recurrence: the new bottom
row is the old top row, the new top row is p (top row) + q (bottom row).
Each draw has a horizon, its last step, and the draws come in non-increasing
horizon order: those still advancing at step s are a leading prefix, and those
checked at s one slice of it.  The hb and nag_sc searches check each draw at
its horizon only, the other sweeps at every step 1 ... horizon.  A check
compares a measured quantity (the spectral norm, in closed form, or
|P_s[0, 0]| = |a_s| for the scalar recursion) with the lemma's envelope, and fails
above bound + TOL min(bound, 1), so a vanishing product still fails a vanishing
envelope, or on a nan value.  Each sweep allocates its state and scratch arrays
once and runs every step in place.  The nag_convex sweep, whose envelope is one
scalar a step, screens its draws by the bracket F/sqrt(2) <= sigma_max <= F on
the Frobenius norm: a step computes the exact norm only of the draws whose F^2
reaches half the step's largest or the squared bound, the few that can set its
worst ratio or fail, and its results are those of the unscreened sweep.

Results are max reductions, so ``nag_sweep``, the largest sweep, splits its
draws into contiguous shards [a, b), one per CPU this process may run on (each
at least 20,000 draws), runs each shard's sweep on its own thread (numpy frees
the GIL inside each array operation) and merges the shards' results into
exactly the one-shard result: the highest ratio, ties to the earliest (step,
draw); the violations in (step, draw) order.  A lemma's draws come from the
stream ``streams.stream(seed, "lemma_search", i)``, i its position in ``LEMMAS``.
In nag_sweep's (i = 0), h takes the first ``draws`` doubles, and step s's gammas
the next ``draws`` doubles in draw order.  Each shard reads its own copy of that
stream positioned there (double p is counter p // 4 plus p % 4 discarded), so
the output bytes do not depend on the shard count.  The random searches draw
each parameter for their whole budget in one array call, then every draw's
horizon (``adversarial_max`` gives the order), and sort their draws by
descending horizon, stably: each step checks by horizon, then in draw order.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .losses import ValidationError
from .optimizers import sc_momentum
from .streams import stream

LEMMAS = ("nag_convex", "hb", "nag_sc", "recursion_u")
TOL = 1e-9


def _batch_spectral_norm(u, v, u1, v1, out=None) -> np.ndarray:
    """sigma_max of [[u, v], [u1, v1]]: sqrt((F^2 + sqrt(F^4 - 4 det^2)) / 2),
    in place on three buffers (``out``, else new ones; the result is the second)
    with the operations of the plain expression."""
    if out is None:
        out = [np.empty(np.broadcast(u, v, u1, v1).shape) for _ in range(3)]
    fro2, det, tmp = out
    np.multiply(u, u, out=fro2)
    fro2 += np.multiply(v, v, out=tmp)
    fro2 += np.multiply(u1, u1, out=tmp)
    fro2 += np.multiply(v1, v1, out=tmp)
    np.multiply(u, v1, out=det)
    det -= np.multiply(v, u1, out=tmp)
    np.multiply(np.multiply(det, 4.0, out=tmp), det, out=tmp)
    np.subtract(np.multiply(fro2, fro2, out=det), tmp, out=det)
    np.sqrt(np.maximum(det, 0.0, out=det), out=det)
    det += fro2
    det /= 2.0
    return np.sqrt(np.maximum(det, 0.0, out=det), out=det)


@dataclass(frozen=True)
class SweepResult:
    """Outcome of a parameter sweep: worst norm/bound ratio and any violations."""

    lemma: str
    max_ratio: float
    witness: dict
    counterexamples: List[dict]
    checks: int

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _sweep(top, measure, envelope, shape: Tuple[int, ...], horizons, at_horizon=False,
           free=None, screen=False):
    """Check measure(P_s) against envelope(s) along P_s = H_s ... H_1, P_0 = I.

    Axis 0 of ``shape`` indexes draws.  ``top(s)`` gives the per-draw top row
    (p, q) of the companion factor H_s = [[p, q], [1, 0]]; P_s = [[u, v], [u1, v1]]
    is four arrays of ``shape``, advanced as (u, u1) <- (p u + q u1, u) and
    likewise for v, computed as q u1 + p u (the same bits) in u1's buffer.
    ``horizons`` is each draw's last step: one int, or a non-increasing array
    (the draws past horizon s - 1 retire: the rest are a leading prefix, advanced
    as views).  Each draw is checked at its horizon only if ``at_horizon``, else
    at every step 1 ... horizon.  ``measure(u, v, u1, v1, scratch)`` gives one
    value per checked draw, ``envelope(s)`` a scalar or per-draw bound >= 0.  A
    check fails when value > bound + TOL min(bound, 1), or when the value or the
    bound is nan (ratio nan, which never sets the worst ratio); a zero bound
    gives ratio 0 to a value of exactly 0, else inf.  ``free``, if given, is the
    sweep's (3, *shape) scratch; p and q may live in free[1] and free[2], which
    each step overwrites only after its advance.

    ``screen`` is for ``measure`` the spectral norm and a scalar envelope below
    1e77: F/sqrt(2) <= sigma_max <= F with F^2 = u^2 + v^2 + u1^2 + v1^2, so only
    a draw with F^2 >= (the step's largest F^2) / 2 can set its worst ratio, and
    only one with F^2 > bound^2 can fail.  A step measures only the draws with
    F^2 >= min(max F^2 / 2, bound^2) (1 - 64 eps), a margin over the rounding of
    F^2, the closed form and the ratio (all of them if an F^2 is inf or nan); the
    others are checked by that bracket.  The results are the unscreened bits.

    Returns the worst ratio (first in step, then draw order), its check as
    (draw, step, value, bound), every violation as (draw, step, ratio), and the
    number of checks made.
    """
    u, v, u1, v1 = np.ones(shape), np.zeros(shape), np.zeros(shape), np.ones(shape)
    free = np.empty((3, *shape)) if free is None else free
    n = shape[0]
    if np.ndim(horizons):  # live[s] counts the draws with horizon >= s
        t_max = int(horizons[0])
        live = np.searchsorted(-horizons, -np.arange(t_max + 2), side="right")
    else:
        t_max, live = horizons, [n] * (horizons + 1) + [0]
    worst, at, violations, checks = -np.inf, (None, 0, math.nan, math.nan), [], 0
    for s in range(t_max + 1):
        m = live[s]
        if m < len(u):
            u, v, u1, v1, free = u[:m], v[:m], u1[:m], v1[:m], free[:, :m]
        if s:
            p, q = (x[:m] for x in top(s))
            u, u1 = np.add(np.multiply(q, u1, out=u1), np.multiply(p, u, out=free[0]),
                           out=u1), u
            v, v1 = np.add(np.multiply(q, v1, out=v1), np.multiply(p, v, out=free[0]),
                           out=v1), v
        lo, hi = (live[s + 1], m) if at_horizon else (0, m if s else 0)
        checks += hi - lo
        if lo == hi:
            continue
        env = np.asarray(envelope(s))
        rows, draws = slice(lo, hi), range(lo, hi)
        if screen:
            fro2 = np.multiply(u[rows], u[rows], out=free[0, :hi - lo])
            for x in (v, u1, v1):
                fro2 += np.multiply(x[rows], x[rows], out=free[1, :hi - lo])
            top2 = fro2.max()
            if top2 < np.inf:  # else (an inf or nan F^2) every draw is measured
                cut = min(top2 / 2.0, float(env) ** 2) * (1.0 - 64 * np.finfo(float).eps)
                rows = draws = lo + np.flatnonzero(fro2 >= cut)
        bound = np.broadcast_to(env, n)[rows]
        # scratch from the leading rows: a few checks a step touch few of its pages
        norm = measure(u[rows], v[rows], u1[rows], v1[rows], free[:, :len(draws)])
        if env.min() > 0:  # the masked divide's bits, without its prefill
            out = free[2, :len(draws)]
            ratio = np.divide(norm, bound, out=out if norm.shape == out.shape else None)
        else:
            ratio = np.divide(norm, bound, out=np.where(norm == 0, 0.0, np.inf),
                              where=bound > 0)
        j = int(np.argmax(ratio))  # the first nan, if any
        failed = not ratio[j] < 1.0  # a violation has ratio >= 1 (or nan)
        if np.isnan(ratio[j]):
            j = int(np.argmax(np.where(np.isnan(ratio), -np.inf, ratio)))
        if ratio[j] > worst:
            worst, at = float(ratio[j]), (int(draws[j]), s, float(norm[j]), float(bound[j]))
        if failed:
            violations += [(int(draws[i]), s, float(ratio[i])) for i in
                           np.flatnonzero(~(norm <= bound + TOL * np.minimum(bound, 1.0)))]
    return worst, at, violations, int(checks)


def _result(lemma: str, scan, describe) -> SweepResult:
    """Name the witness and each counterexample by ``describe(draw, step)``."""
    worst, (draw, step, _, _), violations, checks = scan
    return SweepResult(lemma=lemma, max_ratio=worst,
                       witness={} if draw is None else describe(draw, step),
                       counterexamples=[dict(describe(j, s), ratio=r)
                                        for j, s, r in violations],
                       checks=checks)


def _nag_scan(hs: np.ndarray, gamma, horizons, at_horizon=False):
    """H_s = [[(1 - g_s) h, g_s h], [1, 0]], gamma(s, g) writing g_s; envelope 2 (s + 1)."""
    free = np.empty((3, *hs.shape))
    _, p, g = free
    def top(s):  # q = g h lands on g, which gamma refills every step
        gamma(s, g)
        np.multiply(np.subtract(1.0, g, out=p), hs, out=p)
        return p, np.multiply(g, hs, out=g)
    return _sweep(top, _batch_spectral_norm, lambda s: 2.0 * (s + 1), hs.shape,
                  horizons, at_horizon, free, screen=True)


def _hb_scan(G, A, horizons, at_horizon=False):
    """Fixed H = [[1 + g - a, -g], [1, 0]] per draw; envelope 2 / (1 - sqrt(g))."""
    G, A = np.asarray(G, dtype=float), np.asarray(A, dtype=float)
    top, bound = (1.0 + G - A, -G), 2.0 / (1.0 - np.sqrt(G))
    return _sweep(lambda s: top, _batch_spectral_norm, lambda s: bound, G.shape,
                  horizons, at_horizon)


def _companion_radius(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Spectral radius of [[p, -q], [1, 0]], i.e. largest root modulus of
    x^2 - p x + q (vectorized); real roots give (|p| + sqrt(disc)) / 2."""
    disc = p * p - 4.0 * q
    return np.where(disc >= 0, (np.abs(p) + np.sqrt(np.abs(disc))) / 2.0,
                    np.sqrt(np.maximum(q, 0.0)))


def scnag_h_range(alpha: float, beta: float, eta: float) -> Tuple[float, float]:
    return 1.0 - beta * eta, 1.0 - alpha * eta


def _scnag_bound(rho, t):
    """Certified envelope 2 (1 + t) rho^(t-1), elementwise (Python's pow on scalars);
    the t = 0 product is I, bound 2, read as rho^0, so rho = 0 takes no rho^-1."""
    return 2.0 * (1 + t) * rho ** (t - 1 + (t == 0))


def _scnag_grid(problems, h_samples: int):
    """Per row (kappa, alpha, beta, eta) of ``problems`` (an (m, 4) array or a
    list of tuples): the top rows (p, q) of H = [[(1 + g) h, -g h], [1, 0]], with
    g = ``sc_momentum(kappa)``, at ``h_samples`` + 2 equispaced h in
    [1 - beta eta, 1 - alpha eta], and the largest radius rho."""
    kappa, alpha, beta, eta = np.asarray(problems, dtype=float).T[..., None]
    g = sc_momentum(kappa)
    lo, hi = scnag_h_range(alpha, beta, eta)
    # each row as np.linspace computes it (lo + i * step, then hi last); its
    # axis form would take the divide-then-multiply branch for every row once
    # any row has zero width (kappa = 1)
    hs = lo + np.arange(h_samples + 2) * ((hi - lo) / (h_samples + 1))
    hs[:, -1:] = hi
    rho = _companion_radius((1.0 + g) * hs, g * hs).max(axis=1)
    return ((1.0 + g) * hs, -g * hs), rho.tolist()


def _scnag_scan(top, envelope, horizons, at_horizon=False):
    """Powers of each draw's fixed H; the value is the worst norm over its h grid."""
    return _sweep(lambda s: top, lambda *P: _batch_spectral_norm(*P).max(axis=1),
                  envelope, top[0].shape, horizons, at_horizon)


def recursion_u(h: float, t: int) -> np.ndarray:
    """Unroll a_{i+1} = 2h a_i - h a_{i-1} (a_0 = 1, a_1 = 2h) for i <= t.

    Raises if any |a_i| exceeds i + 1, which cannot happen for 0 <= h <= 1.
    The batched sweeps read a_i as the top-left entry of [[2h, -h], [1, 0]]^i.
    """
    if not 0.0 <= h <= 1.0:
        raise ValidationError("recursion_u needs 0 <= h <= 1")
    if t < 0:
        raise ValidationError("t must be >= 0")
    a = np.empty(t + 1)
    a[0] = 1.0
    if t >= 1:
        a[1] = 2.0 * h
    for i in range(1, t):
        a[i + 1] = 2.0 * h * a[i] - h * a[i - 1]
    limit = np.arange(t + 1) + 1.0
    bad = np.abs(a) > limit + TOL
    if np.any(bad):
        i = int(np.argmax(bad))
        raise RuntimeError(f"recursion bound |a_i| <= i+1 violated at i={i}: a_i={a[i]}")
    return a


def _recursion_scan(hs: np.ndarray, horizons, at_horizon=False):
    """|a_s| = |u_s|, the top-left entry of [[2h, -h], [1, 0]]^s, against s + 1."""
    top = (2.0 * hs, -hs)
    return _sweep(lambda s: top, lambda u, *_: np.abs(u), lambda s: s + 1.0,
                  hs.shape, horizons, at_horizon)


def _uniform_pm1(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """rng.uniform(-1, 1, out.shape) bit for bit, into ``out`` (it is -1 + 2 u)."""
    return np.subtract(np.multiply(rng.random(out=out), 2.0, out=out), 1.0, out=out)


def _positioned(key, p: int) -> np.random.Generator:
    """The Philox stream on ``key`` from its p-th double on (4 doubles a counter step)."""
    rng = np.random.Generator(np.random.Philox(key=key, counter=p // 4))
    rng.random(p % 4)
    return rng


def _shard_count(draws: int) -> int:
    """One shard per CPU this process may run on, each of at least 20,000 draws:
    below that, handing the GIL between threads costs more than the second CPU
    saves."""
    return max(1, min(len(os.sched_getaffinity(0)), draws // 20_000))


def _run_shards(scan, shards):
    """[scan(a, b) for (a, b) in shards], the first on the calling thread and each
    other on its own; every thread is joined, and a shard's exception re-raised.
    Plain threads, not a pool: a ThreadPoolExecutor in their place raised the peak
    RSS of three perfbench ``audits`` passes in one process from 46.5 to 49.5 MB
    (2 CPUs, numpy 2.4), over the benchmark's 5 % bound."""
    results, errors = [None] * len(shards), []

    def run(i):
        try:
            results[i] = scan(*shards[i])
        except BaseException as exc:  # re-raised in the caller once all are joined
            errors.append(exc)

    started = []
    try:
        for i in range(1, len(shards)):
            started.append(threading.Thread(target=run, args=(i,)))
            started[-1].start()
        results[0] = scan(*shards[0])
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
    return results


def _merge(scans, shards):
    """The _sweep result over all draws from those of its contiguous shards."""
    worst, at, violations, checks = -np.inf, (None, 0, math.nan, math.nan), [], 0
    for (ratio, (draw, s, norm, bound), found, count), (a, _) in zip(scans, shards):
        if draw is not None and (ratio > worst or
                                 ratio == worst and (s, draw + a) < at[1::-1]):
            worst, at = ratio, (draw + a, s, norm, bound)
        violations += [(j + a, t, r) for j, t, r in found]
        checks += count
    violations.sort(key=lambda x: (x[1], x[0]))
    return worst, at, violations, checks


def nag_sweep(draws: int, t_max: int, seed: int = 0) -> SweepResult:
    """Random search over the vanishing-momentum hypothesis box.

    Each draw fixes h ~ U[0, 1] and a fresh gamma_i ~ U(-1, 1) per factor;
    every prefix length 1 <= s <= t_max is checked against 2 (s + 1).  The draws
    run in shards on ``_shard_count(draws)`` threads, with the one-shard result.
    """
    if draws < 1:
        raise ValidationError(f"draws must be >= 1, got {draws}")
    key = stream(seed, "lemma_search", 0).bit_generator.state["state"]["key"]
    hs = _positioned(key, 0).uniform(0.0, 1.0, size=draws)
    k = min(_shard_count(draws), draws)
    shards = [(draws * i // k, draws * (i + 1) // k) for i in range(k)]

    def scan(a, b):  # step s's gammas of draws [a, b) are doubles draws s + [a, b)
        gamma = lambda s, g: _uniform_pm1(_positioned(key, draws * s + a), g)
        return _nag_scan(hs[a:b], gamma, t_max)

    return _result("nag_convex", _merge(_run_shards(scan, shards), shards),
                   lambda j, s: {"h": float(hs[j]), "t": s, "draw": j})


def hb_sweep(gammas: Sequence[float], a_points: int, t_max: int) -> SweepResult:
    """Grid search over (gamma, a) with every power 1 <= t <= t_max checked."""
    if not all(0.0 <= g < 1.0 for g in gammas):
        raise ValidationError(f"hb_sweep needs 0 <= gamma < 1, got {list(gammas)}")
    pairs = [(g, a) for g in gammas for a in np.linspace(0.0, 1.0 - g, a_points)]
    G = np.array([p[0] for p in pairs])
    A = np.array([p[1] for p in pairs])
    return _result("hb", _hb_scan(G, A, t_max),
                   lambda j, s: {"gamma": float(G[j]), "a": float(A[j]), "t": s})


def scnag_sweep(kappas: Sequence[float], h_samples: int, t_max: int) -> SweepResult:
    """Check every kappa on (alpha, beta) = (1, kappa) at eta = 1/beta for all
    1 <= t <= t_max.

    Powers are accumulated incrementally, so each t's verdict is that of H^t
    checked at its horizon t alone.
    """
    if len(kappas) == 0:
        raise ValidationError("scnag_sweep needs at least one kappa")
    top, rho = _scnag_grid([(k, 1.0, k, 1.0 / k) for k in kappas], h_samples)
    scan = _scnag_scan(top, lambda s: [_scnag_bound(r, s) for r in rho], t_max)
    return _result("nag_sc", scan, lambda j, s: {"kappa": kappas[j], "t": s})


def recursion_u_sweep(h_step: float, t_max: int) -> SweepResult:
    """Unroll the scalar recursion on an h grid and confirm |a_i| <= i + 1."""
    if not 0.0 < h_step <= 1.0:
        raise ValidationError(f"recursion_u_sweep needs 0 < h_step <= 1, got {h_step}")
    hs = np.arange(0.0, 1.0 + h_step / 2, h_step)
    return _result("recursion_u", _recursion_scan(hs, t_max),
                   lambda j, s: {"h": float(hs[j]), "i": s})


def adversarial_max(lemma: str, budget: int, seed: int = 0,
                    t_max: int = 64) -> SweepResult:
    """Random search for envelope violations within a lemma's hypothesis box.

    ``stream(seed, "lemma_search", LEMMAS.index(lemma))`` gives each parameter
    for the whole budget in one array call, parameter by parameter: hb draws gamma ~ U[0, 0.999),
    then a ~ U[0, 1 - gamma), then t; nag_sc draws kappa = exp(U[0, log 100)),
    then t; recursion_u draws h ~ U[0, 1), then t; every t ~ U{1..t_max}.
    hb and nag_sc check the product at t, recursion_u every a_i with 1 <= i <= t;
    ``checks`` counts them: the budget, or recursion_u's sum of the drawn t.
    Returns the worst observed value/bound ratio with witness parameters; any
    value above its bound by more than TOL min(bound, 1) is a counterexample.
    """
    if budget < 1 or t_max < 1:
        raise ValidationError(f"budget and t_max must be >= 1, got {budget} and {t_max}")
    if lemma == "nag_convex":
        return nag_sweep(budget, t_max, seed=seed)
    if lemma not in LEMMAS:
        raise ValidationError(f"unknown lemma {lemma!r}")
    rng = stream(seed, "lemma_search", LEMMAS.index(lemma))
    if lemma == "hb":
        G = rng.uniform(0.0, 0.999, budget)
        draws = {"gamma": G, "a": rng.uniform(0.0, 1.0 - G)}
    elif lemma == "nag_sc":
        draws = {"kappa": np.exp(rng.uniform(0.0, np.log(100.0), budget))}
    else:  # recursion_u
        draws = {"h": rng.uniform(0.0, 1.0, budget)}
    T = rng.integers(1, t_max + 1, budget)
    order = np.argsort(-T, kind="stable")  # ties keep their draw order
    T, draws = T[order], {name: x[order] for name, x in draws.items()}
    if lemma == "hb":
        scan = _hb_scan(draws["gamma"], draws["a"], T, at_horizon=True)
    elif lemma == "nag_sc":
        K = draws["kappa"]
        top, rho = _scnag_grid(np.stack([K, np.ones(budget), K, 1.0 / K], axis=1), 16)
        bounds = _scnag_bound(np.array(rho), T)
        scan = _scnag_scan(top, lambda s: bounds, T, at_horizon=True)
    else:
        scan = _recursion_scan(draws["h"], T)
    step = "i" if lemma == "recursion_u" else "t"
    return _result(lemma, scan, lambda j, s: {
        **{name: float(x[j]) for name, x in draws.items()}, step: s})
