"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import os
import re
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from optstab import losses, optimizers  # noqa: E402
from optstab.harness import config, experiments, reports  # noqa: E402
from perfbench import layers, spans, workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_self_time_is_duration_minus_union_of_children():
    tree = [
        (0, -1, "p", 0.0, 10.0),
        (1, 0, "a", 1.0, 3.0),
        (2, 0, "b", 2.0, 5.0),    # overlaps a: the union [1, 5] counts once
        (3, 0, "c", 8.0, 12.0),   # clipped to the parent's end: [8, 10]
        (4, 2, "d", 2.5, 4.0),    # grandchild: only b loses it
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0 - 1.5)
    assert selfs[4] == pytest.approx(1.5)
    assert spans.union_length([], 0.0, 1.0) == 0.0


def test_tracer_spans_calls_into_modules_and_restores_them():
    X = losses.normalize_rows(np.eye(3)[[0, 1, 2, 0]])
    data = losses.Dataset.from_labeled(X, [0, 1, 1, 0])
    cfg = optimizers.OptimizerConfig(method="gd", schedule=optimizers.fixed(0.5), T=4)
    original = optimizers.run
    tracer = spans.Tracer(layers.COUNTERS)
    with spans.traced_package(tracer, "optstab"):
        assert optimizers.run is not original
        optimizers.run(cfg, losses.logistic_spec(), data)
        losses.empirical_risk(losses.logistic_spec(), [0.0, 0.0, 0.0], data)
    assert optimizers.run is original
    by_name = {}
    for sid, parent, name, start, end in tracer.spans:
        by_name.setdefault(name, []).append((sid, parent))
        assert start <= end
    (run_id, run_parent), = by_name["optimizers.run"]
    assert run_parent == -1
    assert len(by_name["losses.empirical_risk_grad"]) == 4
    assert all(parent == run_id for _, parent in by_name["losses.empirical_risk_grad"])
    # empirical_risk calls loss_values_matrix inside losses: no span for that
    assert [p for _, p in by_name["losses.empirical_risk"]] == [-1]
    assert tracer.counts["optimizers.run"]["steps"] == 4
    times, counts = layers.layer_metrics(tracer, wall_s=1.0)
    assert counts["optimizers.steps"] == 4
    assert sum(times[f"{m}.self_s"] for m in layers.MODULES) + \
        times["trace.unattributed_s"] == pytest.approx(1.0)


def test_metric_names_and_units_are_well_formed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert all(re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", m["unit"]) for m in metrics)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    times, counts = layers.layer_metrics(spans.Tracer(), wall_s=1.0)
    assert set(times) | set(counts) <= {m["name"] for m in spec["per_layer"]}


def _small_stability_outputs(out_dir):
    cfg = config.build_config(overrides=dict(
        experiment="stability_scaling", methods=workloads.STABILITY_METHODS,
        n=40, d=3, T=30, reps=2, holdout=10))
    reports.write_report(experiments.run_experiment(cfg),
                         os.path.join(out_dir, cfg.experiment))


def _set_value(path, row, value):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    t, _, err = lines[row].split(",")
    lines[row] = f"{t},{value},{err}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _truncate(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text[:len(text) // 2])


@pytest.mark.parametrize("corrupt, expected", [
    (None, 0.0),
    (lambda d: _set_value(os.path.join(d, "gd_param_gap.csv"), 7, "nan"), 1.0),
    (lambda d: _set_value(os.path.join(d, "hb_sup_loss_gap.csv"), 12, "0.5"), 1.0),
    (lambda d: _truncate(os.path.join(d, "nag_bound.csv")), 1.0),
    (lambda d: os.remove(os.path.join(d, "sgld_bound.csv")), 1.0),
])
def test_corrupted_output_file_counts_as_failed(tmp_path, corrupt, expected):
    out = str(tmp_path / "out")
    _small_stability_outputs(out)
    if corrupt is not None:
        corrupt(os.path.join(out, "stability_scaling"))
    # the operation hands back the files already on disk, unrewritten
    ops = [workloads.Op("stability_scaling", lambda: None, workloads.check_stability)]
    tally = workloads.Tally()
    tally.add(ops, workloads.run_iteration(ops, out))
    assert (tally.attempted, tally.failed_share) == (1, expected)


def test_output_bytes_that_change_between_passes_count_as_failed(tmp_path):
    out = str(tmp_path / "out")
    _small_stability_outputs(out)
    ops = [workloads.Op("stability_scaling", lambda: None, workloads.check_stability)]
    tally = workloads.Tally()
    tally.add(ops, workloads.run_iteration(ops, out))
    with open(os.path.join(out, "stability_scaling", "plot_series.py"), "a",
              encoding="utf-8") as fh:
        fh.write("# edited\n")
    tally.add(ops, workloads.run_iteration(ops, out))
    assert (tally.attempted, tally.failed) == (2, 1)


def test_speed_probe_samples_the_block_and_restores_the_handler():
    import signal
    import time

    from perfbench import speed

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(interval=0.005) as probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.05:
            pass
        wall = time.perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.samples) >= 3 and 0.0 < probe.probe_s < wall
    assert probe.reference_seconds(wall) == pytest.approx(
        (wall - probe.probe_s) * probe.speed)
