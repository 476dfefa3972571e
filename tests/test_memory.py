"""Peak memory of the paths that hold one block at a time, measured by tracemalloc
(numpy reports its array buffers to it): data generation, the logistic unit-norm
check, risk values and the optimizer's stream draws must not allocate temporaries
that grow with the whole design or the whole horizon; a coupled batch's perturbed
members cost a few rows each, not a copy of the design."""

import tracemalloc
from collections import deque

from optstab.harness.data import gen_synthetic
from optstab.losses import (
    _GRAD_BLOCK_BYTES,
    _RISK_ROWS,
    Dataset,
    logistic_spec,
    loss_constants,
)
from optstab.optimizers import (
    _DRAW_STEPS,
    _INDEX_STEPS,
    OptimizerConfig,
    batch_iterates,
    fixed,
)
from optstab.stability_lab import _coupled_gaps, risk_curves


def _peak_bytes(fn) -> int:
    """Peak bytes allocated while fn() runs, its result included, measured on a
    second call, so that lazy imports and first-call caches are not counted."""
    fn()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.clear_traces()
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()


def test_gen_synthetic_holds_one_design():
    # the row norms take one gradient row block at a time: no squared copy of the
    # whole (4000, 200) design
    d, n = 200, 4000
    assert _peak_bytes(lambda: gen_synthetic(d, n, seed=0)) < 1.25 * n * d * 8


def test_logistic_constants_check_holds_one_row_block():
    # the unit-norm check of a (2000, 200) design squares one gradient row block
    # at a time, not the whole design
    data = gen_synthetic(200, 2000, seed=1)[0]
    stack = Dataset.stack([data] * 3)
    for sample in (data, stack):
        assert _peak_bytes(lambda: loss_constants(logistic_spec(), sample)) < (
            2 * _GRAD_BLOCK_BYTES)


def test_risk_run_holds_one_values_block():
    # k = 3 columns at n = 2000, d = 200: one (64, n) values block and its scratch
    # at a time, not one per column
    d, n = 200, 2000
    train, _ = gen_synthetic(d, n, seed=1)
    test, _ = gen_synthetic(d, n, seed=2)
    configs = [OptimizerConfig(method=m, schedule=fixed(1.0), T=2 * _RISK_ROWS, gamma=0.5)
               for m in ("gd", "nag", "hb")]
    peak = _peak_bytes(lambda: risk_curves(configs, logistic_spec(), train, test))
    assert peak < n * d * 8 + 2 * _RISK_ROWS * n * 8


def test_sgld_batch_draws_one_step_block():
    # the noise of B members comes _DRAW_STEPS steps at a time and their indices
    # _INDEX_STEPS steps at a time: over the whole run, setup included, a horizon
    # that crosses full blocks of both and one four times as long peak less than
    # one noise block plus one index block apart.  B is large enough that these
    # blocks dwarf what grows with T outside the draws (the (T, 1) coefficient
    # columns and the schedule's T step sizes, about 50 bytes a step)
    n, d, B = 500, 20, 64
    T = 2 * _INDEX_STEPS + 1
    data = gen_synthetic(d, n, seed=3)[0]

    def peak(T):
        cfg = OptimizerConfig(method="sgld", schedule=fixed(0.5), T=T, tau=100.0)
        return _peak_bytes(lambda: deque(batch_iterates(
            [cfg], logistic_spec(), data, 0, list(range(B))), maxlen=0))

    noise_block, index_block = _DRAW_STEPS * B * d * 8, _INDEX_STEPS * B * 8
    assert abs(peak(4 * T) - peak(T)) < noise_block + index_block


def test_coupled_pairs_cost_rows_not_designs():
    # P = 4 and P = 16 pairs on one (2000, 50) design (800 KB, two gradient row
    # blocks), with an 8-point holdout and T = 3: the 12 more perturbed members (and,
    # for sgd, 12 more base members) cost their swapped rows, their rows of the
    # margins and residuals and gd's row weights (n values each), under half a
    # design all told, not a copy of the design each
    n, d = 2000, 50
    data = gen_synthetic(d, n + 16, seed=4)[0]
    sample, pool = data.take(range(n)), data.take(range(n, n + 16))
    holdout = pool.take(range(8))

    def peak(method, P):
        cfg = OptimizerConfig(method=method, schedule=fixed(0.5), T=3)
        ks = list(range(0, 3 * P, 3))
        return _peak_bytes(lambda: _coupled_gaps([cfg], logistic_spec(), sample, ks,
                                                 pool.take(range(P)), 0, holdout, None))

    for method in ("gd", "sgd"):
        assert peak(method, 16) - peak(method, 4) < n * d * 8 / 2, method
