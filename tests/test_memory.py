"""Peak memory of the paths that hold one block at a time, measured by tracemalloc
(numpy reports its array buffers to it): data generation, the logistic unit-norm
check, risk values and the optimizer's stream draws must not allocate temporaries
that grow with the whole design or the whole horizon."""

import tracemalloc

from optstab.harness.data import gen_synthetic
from optstab.losses import (
    _GRAD_BLOCK_BYTES,
    _RISK_ROWS,
    Dataset,
    logistic_spec,
    loss_constants,
)
from optstab.optimizers import _DRAW_STEPS, OptimizerConfig, batch_iterates, fixed
from optstab.stability_lab import risk_curves


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
    # the index and noise draws of B members come one step block at a time: a
    # horizon four times as long holds less than one more step block
    n, d, B, T = 500, 20, 16, 200
    data = gen_synthetic(d, n, seed=3)[0]

    def peak(T):
        cfg = OptimizerConfig(method="sgld", schedule=fixed(0.5), T=T, tau=100.0)
        return _peak_bytes(lambda: [None for _ in batch_iterates(
            [cfg], logistic_spec(), data, 0, list(range(B)))])

    assert abs(peak(4 * T) - peak(T)) < _DRAW_STEPS * B * (d + 1) * 8
