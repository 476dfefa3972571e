"""nag_sweep's sharded run equals its one-shard run, and every audit sweep
can fail: scaled just below its measured worst ratio, it reports violations."""

import threading
import time

import numpy as np
import pytest

import optstab.matrixlemmas as ML
from optstab.streams import stream


def _shards(monkeypatch, k):
    monkeypatch.setattr(ML, "_shard_count", lambda draws: k)


def _scale_envelopes(monkeypatch, scale):
    sweep = ML._sweep

    def scaled(top, measure, envelope, *args, **kwargs):
        return sweep(top, measure, lambda s: scale * np.asarray(envelope(s)), *args,
                     **kwargs)

    monkeypatch.setattr(ML, "_sweep", scaled)


def _unscreened(monkeypatch):
    sweep = ML._sweep
    monkeypatch.setattr(ML, "_sweep", lambda *args, **kwargs: sweep(
        *args, **{**kwargs, "screen": False}))


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_positioned_stream_reads_the_plain_stream_from_p(seed):
    plain = np.random.Generator(np.random.Philox(seed)).random(10)
    key = np.random.Philox(seed).state["state"]["key"]
    for p in range(10):
        assert ML._positioned(key, p).random() == plain[p]
    np.testing.assert_array_equal(ML._positioned(key, 3).random(7), plain[3:])


def test_one_shard_reads_the_documented_stream():
    # h takes the first `draws` doubles, each step's gammas the next `draws`
    draws, t_max, seed = 2001, 24, 4
    rng = stream(seed, "lemma_search", 0)
    hs = rng.uniform(0.0, 1.0, size=draws)
    gammas = rng.uniform(-1.0, 1.0, size=(t_max, draws))
    worst, (draw, step, _, _), violations, checks = ML._nag_scan(
        hs, lambda s, g: np.copyto(g, gammas[s - 1]), t_max)
    res = ML.nag_sweep(draws, t_max, seed)
    assert res.max_ratio == worst and violations == res.counterexamples == []
    assert res.checks == checks == draws * t_max
    assert res.witness == {"h": float(hs[draw]), "t": step, "draw": draw}


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("draws, t_max", [(3, 16), (2001, 16), (40_001, 4)])
def test_shards_equal_one_shard(monkeypatch, k, draws, t_max):
    # 40,001 draws split unevenly, at edges off the 4-double Philox blocks
    witness_shards = set()
    for seed in range(12):
        _shards(monkeypatch, 1)
        one = ML.nag_sweep(draws, t_max, seed)
        _shards(monkeypatch, k)
        assert ML.nag_sweep(draws, t_max, seed) == one
        witness_shards.add(one.witness["draw"] * min(k, draws) // draws)
    if draws > k:  # the witness offsets are exercised, not only shard 0's
        assert len(witness_shards) > 1


def test_merge_breaks_ties_by_earliest_step_then_draw():
    def scan(ratio, draw, step):
        return ratio, (draw, step, 1.0, 2.0), [(draw, step, ratio)], 10 * step

    shards = [(0, 10), (10, 20)]
    worst, at, violations, checks = ML._merge([scan(1.5, 4, 3), scan(1.5, 2, 2)], shards)
    assert (worst, at, checks) == (1.5, (12, 2, 1.0, 2.0), 50)
    assert violations == [(12, 2, 1.5), (4, 3, 1.5)]
    assert ML._merge([scan(1.5, 4, 3), scan(1.5, 2, 3)], shards)[1][0] == 4
    assert ML._merge([scan(1.0, 4, 3), scan(1.5, 2, 5)], shards)[1][0] == 12


def test_nag_sweep_needs_a_draw():
    with pytest.raises(ML.ValidationError, match="draws"):
        ML.nag_sweep(0, 4)


def test_shard_count_is_one_per_cpu_above_20000_draws():
    cpus = len(ML.os.sched_getaffinity(0))
    assert ML._shard_count(1) == ML._shard_count(39_999) == 1
    assert ML._shard_count(100_000) == min(cpus, 5)
    assert ML._shard_count(10 ** 9) == cpus


class _ShardFailure(Exception):
    pass


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_a_failing_shard_reraises_after_every_thread_joins(monkeypatch, failing):
    baseline = threading.active_count()
    scan, finished = ML._nag_scan, []

    def flaky(hs, gamma, t_max):
        on_caller = threading.current_thread() is threading.main_thread()
        if on_caller == (failing == "caller"):
            raise _ShardFailure(failing)
        time.sleep(0.05)  # the others are still running when the failure lands
        finished.append(len(hs))
        return scan(hs, gamma, t_max)

    monkeypatch.setattr(ML, "_nag_scan", flaky)
    _shards(monkeypatch, 3)
    with pytest.raises(_ShardFailure, match=failing):
        ML.nag_sweep(3000, 4)
    assert threading.active_count() == baseline
    assert len(finished) == (2 if failing == "caller" else 1)


# ------------------------------------------------------------ mutation tests

# a check's slack is TOL min(bound, 1), relative to bounds below 1: the nag_sc
# sweep's worst ratio sits at kappa = 100, t = 200, where the norm is 2.8e-7, and
# an absolute TOL = 1e-9 would hide a cut of 1e-6 there
JUST_BELOW = 1 - 1e-6


def _nag_convex():
    return ML.nag_sweep(40_001, 16, seed=2)


AUDIT_SWEEPS = {
    "nag_convex": _nag_convex,
    "hb": lambda: ML.hb_sweep([g / 10.0 for g in range(10)], 41, 200),
    "nag_sc": lambda: ML.scnag_sweep([1.0, 2.0, 4.0, 16.0, 100.0], 64, 200),
    "recursion_u": lambda: ML.recursion_u_sweep(0.01, 128),
    "adversarial hb": lambda: ML.adversarial_max("hb", 4000, seed=1),
    "adversarial nag_sc": lambda: ML.adversarial_max("nag_sc", 4000, seed=1),
    "adversarial recursion_u": lambda: ML.adversarial_max("recursion_u", 4000, seed=1),
}


@pytest.mark.parametrize("name", AUDIT_SWEEPS)
def test_every_sweep_fails_with_its_envelope_just_below_its_worst_ratio(monkeypatch,
                                                                        name):
    _shards(monkeypatch, 3)  # nag_convex runs sharded
    clean = AUDIT_SWEEPS[name]()
    assert clean.ok
    _scale_envelopes(monkeypatch, JUST_BELOW * clean.max_ratio)
    cut = AUDIT_SWEEPS[name]()
    # the clean run's witness is a counterexample (rounding may move ties)
    assert any(c.items() >= clean.witness.items() for c in cut.counterexamples), name


@pytest.mark.parametrize("scale", [0.99, 0.8])
def test_sharded_counterexamples_equal_one_shard_in_order(monkeypatch, scale):
    _shards(monkeypatch, 1)
    worst = _nag_convex().max_ratio
    _scale_envelopes(monkeypatch, scale * worst)
    one = _nag_convex()
    for k in (2, 3):
        _shards(monkeypatch, k)
        assert _nag_convex() == one
    assert one.counterexamples
    if scale < 0.99:  # the merge interleaves several shards and steps
        draws = [c["draw"] for c in one.counterexamples]
        assert min(draws) < 40_001 // 3 and max(draws) >= 2 * 40_001 // 3
        assert len({c["t"] for c in one.counterexamples}) > 1


def test_nag_sc_search_retiring_checked_draws_equals_full_advance(monkeypatch):
    # each draw is checked only at its own t; advancing every draw to the largest
    # t, with an infinite bound at the other steps, changes nothing but the count
    # of checks, which here is one finite-bound check a draw
    _scale_envelopes(monkeypatch, 0.6)  # so that there are counterexamples to order
    scaled = ML._sweep

    def full_advance(top, measure, envelope, shape, horizons, at_horizon=False,
                     free=None):
        assert at_horizon and np.ndim(horizons)
        H = np.asarray(horizons)
        *scan, _ = scaled(top, measure, lambda s: np.where(H == s, envelope(s), np.inf),
                          shape, int(H[0]), False, free)
        return (*scan, H.size)

    for seed in range(12):
        retiring = ML.adversarial_max("nag_sc", 1000, seed)
        assert len(retiring.counterexamples) > 1
        with monkeypatch.context() as m:
            m.setattr(ML, "_sweep", full_advance)
            assert ML.adversarial_max("nag_sc", 1000, seed) == retiring


def test_a_zero_envelope_passes_exact_zero_products_only(monkeypatch):
    # at kappa = 1, H = [[0, 0], [1, 0]]: its products from t = 2 on are exactly 0;
    # the sweep's other 801 of 1,000 checks are above 0 (many by less than TOL)
    _scale_envelopes(monkeypatch, 0.0)
    res = ML.scnag_sweep([1.0, 2.0, 4.0, 16.0, 100.0], 64, 200)
    assert len(res.counterexamples) == 801
    assert all(c["ratio"] == np.inf for c in res.counterexamples)
    assert not any(c["kappa"] == 1.0 and c["t"] >= 2 for c in res.counterexamples)


def test_a_single_check_fails_just_below_a_small_bound(monkeypatch):
    # norm 2.8e-7 against its bound 3.1e-7: a cut 1e-6 below their ratio fails
    top, (rho,) = ML._scnag_grid([(100.0, 1.0, 100.0, 0.01)], 64)

    def check():  # (norm, bound, violations) of H^200 at its horizon alone
        _, (_, _, norm, bound), violations, _ = ML._scnag_scan(
            top, lambda s: ML._scnag_bound(rho, s), 200, True)
        return norm, bound, violations

    norm, bound, violations = check()
    assert not violations and norm < 1e-6
    _scale_envelopes(monkeypatch, JUST_BELOW * norm / bound)
    assert check()[2]


def _replay(lemma, seed, budget, t_max=64):
    """A search's first parameter and its horizons, as its stream gives them."""
    rng = stream(seed, "lemma_search", ML.LEMMAS.index(lemma))
    if lemma == "hb":
        x = rng.uniform(0.0, 0.999, budget)
        rng.uniform(0.0, 1.0 - x)
    elif lemma == "nag_sc":
        x = np.exp(rng.uniform(0.0, np.log(100.0), budget))
    else:
        x = rng.uniform(0.0, 1.0, budget)
    return x, rng.integers(1, t_max + 1, budget)


@pytest.mark.parametrize("lemma, name, step", [
    ("hb", "gamma", "t"), ("nag_sc", "kappa", "t"), ("recursion_u", "h", "i")])
def test_search_counterexamples_come_in_step_horizon_stream_order(monkeypatch, lemma,
                                                                   name, step):
    # the searches sort their draws by descending horizon, stably: each step's
    # checks come by descending horizon, then in the stream's draw order
    _scale_envelopes(monkeypatch, 0.3)
    for seed in range(4):
        x, T = _replay(lemma, seed, 1000)
        index = {v: j for j, v in enumerate(x)}
        found = ML.adversarial_max(lemma, 1000, seed).counterexamples
        keys = [(c[step], -T[index[c[name]]], index[c[name]]) for c in found]
        assert len({k[0] for k in keys}) > 1 and keys == sorted(keys), (lemma, seed)
        if step == "t":  # hb and nag_sc check each draw at its horizon only
            assert all(s == -t for s, t, _ in keys)


@pytest.mark.parametrize("draws", [3, 2001, 40_001])
def test_screened_sweep_equals_unscreened_bitwise(monkeypatch, draws):
    # the bracket screen measures only the draws that can set a step's worst ratio
    # or fail: the results (worst ratio, witness, violations in order, checks) are
    # the unscreened sweep's, also with the envelope cut to 0.99, 0.8 and 0.6 of
    # the worst ratio, so that there are violations (at 0.6, some with F^2 below
    # half the step's largest: only the bound^2 side of the screen keeps them);
    # seeds 0-11 run every pair of t_max in (4, 16, 64) and 1 to 3 shards
    for seed in range(12):
        t_max, k = (4, 16, 64)[seed % 3], seed // 3 % 3 + 1
        _shards(monkeypatch, k)
        worst = None
        for scale in (None, 0.99, 0.8, 0.6):
            with monkeypatch.context() as m:
                if scale is not None:
                    _scale_envelopes(m, scale * worst)
                screened = ML.nag_sweep(draws, t_max, seed)
                _unscreened(m)
                assert screened == ML.nag_sweep(draws, t_max, seed), (seed, scale)
            worst = worst or screened.max_ratio
            assert screened.ok == (scale is None), (seed, scale)
