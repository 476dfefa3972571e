import json
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from optstab.harness.config import (
    _READS,
    EXPERIMENTS,
    ExperimentConfig,
    build_config,
    canonical_text,
    config_hash,
    load_config,
    parse_config_text,
)
from optstab.harness.data import gen_synthetic, split_sample
from optstab.bounds import CONVEX, stability_bound_curve
from optstab.harness.experiments import _logistic_data, _optimizer_config, run_experiment
from optstab.harness.reports import Series, write_report, write_series_csv
from optstab.harness.cli import main as cli_main
from optstab.losses import ValidationError, logistic_spec, loss_constants
from optstab.optimizers import METHODS


# ---------------------------------------------------------------- config


def test_parse_config_text():
    cfg = build_config(parse_config_text("""
# comment
experiment = stability_scaling
methods = gd, nag
n = 250
eta0 = 0.05
"""))
    assert cfg.methods == ("gd", "nag")
    assert cfg.n == 250 and cfg.eta0 == 0.05


def test_parse_rejects_garbage():
    with pytest.raises(ValidationError):
        parse_config_text("just some words\n")
    with pytest.raises(ValidationError):
        build_config(parse_config_text("n = three\n"))


def test_build_config_overrides_win():
    cfg = build_config({"n": 100, "seed": 1}, {"seed": 7, "T": None})
    assert cfg.n == 100 and cfg.seed == 7
    assert cfg.T == ExperimentConfig().T


def test_unknown_keys_rejected():
    for values in ({"banana": 1}, {"loss": "quadratic"}):
        with pytest.raises(ValidationError):
            build_config(values)


def test_config_hash_stable_and_sensitive():
    a = build_config({"n": 100})
    b = build_config({"n": 100})
    c = build_config({"n": 101})
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert "n=100" in canonical_text(a)


def test_load_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("experiment = lecam_audit\nseed = 3\n")
    cfg = load_config(str(path), {"seed": 9})
    assert cfg.experiment == "lecam_audit" and cfg.seed == 9


# ---------------------------------------------------------------- data


# a config that reads every float key: gamma (hb), kappa (nag_sc), tau (sgld), alpha (power)
_READS_EVERY_FLOAT = {"methods": "gd,hb,nag_sc,sgld", "schedule": "power"}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["eta0", "alpha", "gamma", "tau", "kappa"])
def test_non_finite_float_is_rejected_by_name_from_file_flag_and_python(
        tmp_path, monkeypatch, capsys, key, value):
    from optstab.harness import cli

    def unreachable(cfg):
        raise AssertionError(f"ran with {key} = {getattr(cfg, key)}")

    monkeypatch.setattr(cli, "run_experiment", unreachable)
    for python_value in (float(value), value):
        with pytest.raises(ValidationError, match=f"config key '{key}': bad value"):
            build_config(overrides={**_READS_EVERY_FLOAT, key: python_value})
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"{key} = {value}\n")
    with pytest.raises(ValidationError, match=f"config key '{key}': bad value"):
        load_config(str(cfgfile), _READS_EVERY_FLOAT)
    out = tmp_path / "x"
    flags = ["--methods", _READS_EVERY_FLOAT["methods"], "--schedule", "power"]
    for argv in (["--config", str(cfgfile)], [f"--{key}={value}"]):
        assert cli_main(["stability", "--out", str(out)] + flags + argv) == 1
        assert f"error: config key '{key}': bad value '{value}'" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_method_is_rejected_by_key_from_file_flag_and_python(tmp_path, monkeypatch,
                                                                     capsys):
    from optstab.harness import cli

    def unreachable(cfg):
        raise AssertionError(f"ran with methods {cfg.methods}")

    monkeypatch.setattr(cli, "run_experiment", unreachable)
    want = "config key 'methods': unknown method 'foo'"
    with pytest.raises(ValidationError, match=want):
        build_config(overrides=dict(methods=("gd", "foo")))
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("methods = gd,foo\n")
    with pytest.raises(ValidationError, match=want):
        load_config(str(cfgfile))
    out = tmp_path / "x"
    for argv in (["--config", str(cfgfile)], ["--methods", "gd,foo"]):
        assert cli_main(["stability", "--out", str(out)] + argv) == 1
        assert f"error: {want}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["-inf", "-nan", "-1e-3", "-1.5E+2", "-1"])
def test_negative_flag_value_reads_alike_after_a_space_or_an_equals_sign(tmp_path, capsys,
                                                                         value):
    # argparse alone reads -inf, -nan and -1e-3 after a space as options
    out, seen = tmp_path / "x", []
    for argv in (["--eta0", value], [f"--eta0={value}"]):
        seen.append((cli_main(["stability", "--out", str(out)] + argv),
                     capsys.readouterr().err))
    assert seen[0] == seen[1] and seen[0][0] == 1
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("reps", True), ("n", False), ("n", 500.0),
                                        ("T", 20.0), ("seed", 0.0), ("methods", [1, 2]),
                                        ("methods", ("gd", None)), ("methods", 3)])
def test_python_value_of_the_wrong_type_is_rejected_by_name(key, value):
    with pytest.raises(ValidationError, match=f"config key '{key}': bad value"):
        build_config(overrides={key: value})


@pytest.mark.parametrize("python", [
    dict(methods=["gd", "sgd"], eta0=1, T=20, reps=2),
    dict(methods=("gd", "sgd"), eta0=1.0, T=20, reps=2),
    dict(methods="gd,sgd", eta0=1, T=20, reps=2),
    dict(methods=["gd", "sgd"], eta0="1", T="20", reps="2"),
], ids=["list-int", "tuple-float", "comma-string", "text"])
def test_python_config_hashes_as_its_cli_and_file_twins(tmp_path, monkeypatch, python):
    from optstab.harness import cli

    seen = []

    def stop(cfg):
        seen.append(cfg)
        raise RuntimeError("stop before running")

    monkeypatch.setattr(cli, "run_experiment", stop)
    assert cli_main(["stability", "--methods", "gd,sgd", "--eta0", "1", "--T", "20",
                     "--reps", "2"]) == 2
    cfgfile = tmp_path / "twin.cfg"
    cfgfile.write_text("methods = gd, sgd\neta0 = 1\nT = 20\nreps = 2\n")
    cfg = build_config(overrides=python)
    assert cfg == seen[0] == load_config(str(cfgfile))
    assert config_hash(cfg) == config_hash(seen[0])
    assert cfg.methods == ("gd", "sgd") and type(cfg.eta0) is float and cfg.eta0 == 1.0


def test_bounds_table_accepts_its_default_methods_as_a_list():
    assert build_config(overrides=dict(experiment="bounds_table", methods=["gd"])) == \
        ExperimentConfig(experiment="bounds_table")



def test_gen_synthetic_rows_unit_norm_and_deterministic():
    a, theta_a = gen_synthetic(6, 200, seed=5)
    b, _ = gen_synthetic(6, 200, seed=5)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_allclose(np.linalg.norm(a.X, axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(theta_a, np.ones(6))


@pytest.mark.parametrize("d, n", [(1, 5), (3, 7), (10, 600), (200, 1001)])
def test_gen_synthetic_rows_are_the_draw_over_its_row_norms_bitwise(d, n):
    # drawn into a 64-byte-aligned buffer and normalized in place one gradient row
    # block at a time (1001 rows at d = 200 are two blocks and a part), the rows
    # are those of one division of the plain draw
    from optstab.streams import stream

    Z = stream(4, "rows").standard_normal((n, d))
    X = gen_synthetic(d, n, seed=4)[0].X
    assert X.ctypes.data % 64 == 0 and X.flags.c_contiguous
    np.testing.assert_array_equal(X, Z / np.linalg.norm(Z, axis=1, keepdims=True))


def test_gen_synthetic_label_frequency_concentrates():
    data, theta = gen_synthetic(8, 4000, seed=11)
    u = data.X @ theta
    p = 1.0 / (1.0 + np.exp(-u))
    assert abs(data.y.mean() - p.mean()) <= 3 * np.sqrt(0.25 / 4000)


def test_gen_synthetic_labels_match_two_branch_sigmoid():
    # the link read from the loss's residual at y = 0 draws the labels that the
    # masked two-branch sigma draws from the same "labels" stream
    from optstab.streams import stream

    for d, n, seed in ((10, 600, 0), (200, 4000, 1), (25, 3300, 2)):
        data, theta = gen_synthetic(d, n, seed=seed)
        u = data.X @ theta
        e = np.exp(-np.abs(u))
        p = np.where(u >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        np.testing.assert_array_equal(data.y, stream(seed, "labels").uniform(size=n) < p)


def test_split_sample_partitions():
    data, _ = gen_synthetic(4, 50, seed=2)
    sample, rest = split_sample(data, 30, seed=3)
    assert sample.n == 30 and rest.n == 20
    with pytest.raises(ValidationError):
        split_sample(data, 50, seed=3)


# ---------------------------------------------------------------- reports


def test_series_round_trip(tmp_path):
    s = Series(name="demo", t=np.arange(5), value=np.linspace(0, 1, 5) ** 3,
               stderr=np.full(5, 0.125))
    path = str(tmp_path / "demo.csv")
    write_series_csv(s, path, "cafe0123")
    lines = open(path).read().splitlines()
    assert lines[:2] == ["# config=cafe0123", "t,value,stderr"]
    # every float is written with repr, so it parses back to the same bits
    t, value, stderr = np.array([line.split(",") for line in lines[2:]], dtype=float).T
    np.testing.assert_array_equal(t, s.t)
    np.testing.assert_array_equal(value, s.value)
    np.testing.assert_array_equal(stderr, s.stderr)


def test_emitted_files_are_byte_stable(tmp_path):
    cfg = build_config({"experiment": "bounds_table", "n": 100})
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    write_report(run_experiment(cfg), out1)
    write_report(run_experiment(cfg), out2)
    for name in sorted(os.listdir(out1)):
        b1 = open(os.path.join(out1, name), "rb").read()
        b2 = open(os.path.join(out2, name), "rb").read()
        assert b1 == b2, name


@pytest.mark.parametrize("keys", [
    {"experiment": "stability_scaling", "methods": ("gd", "sgd"), "n": 40, "d": 3, "T": 30,
     "reps": 2, "holdout": 10},
    {"experiment": "risk_decomposition", "methods": ("gd", "sgd"), "n": 40, "d": 3, "T": 30,
     "n_test": 20, "ref_budget": 30},
    {"experiment": "lecam_audit"},
    {"experiment": "lemma_audit"},
    {"experiment": "bounds_table"},
], ids=lambda keys: keys["experiment"])
def test_report_writes_exactly_its_data_files(tmp_path, keys):
    # an output directory holds report.json and one CSV per series it lists, no more
    report = run_experiment(build_config(keys))
    out = str(tmp_path / "out")
    files = write_report(report, out)
    with open(os.path.join(out, "report.json")) as fh:
        listed = json.load(fh)["series"]
    assert listed == sorted(s.name for s in report.series)
    assert sorted(os.listdir(out)) == sorted(["report.json", *(f"{n}.csv" for n in listed)])
    assert files == [os.path.join(out, f"{s.name}.csv") for s in report.series] + [
        os.path.join(out, "report.json")]


def test_report_json_cannot_hold_writes_no_file(tmp_path):
    from optstab.harness.reports import Report

    report = Report(experiment="demo", config_hash="cafe0123", seed=0, versions={},
                    records={"methods": {"gd"}})  # a set: JSON has no such value
    report.add_series("a", np.arange(3), np.zeros(3))
    with pytest.raises(TypeError):
        write_report(report, str(tmp_path))
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------- experiments


def test_stability_scaling_small_end_to_end(tmp_path):
    cfg = build_config({
        "experiment": "stability_scaling", "methods": ("gd",), "n": 40, "d": 4,
        "T": 60, "reps": 3, "holdout": 10, "seed": 2, "eta0": 0.1,
    })
    report = run_experiment(cfg)
    names = {s.name for s in report.series}
    assert names == {"gd_param_gap", "gd_sup_loss_gap", "gd_bound"}
    assert "gd_param_gap" in report.slope_fits
    # perturbation records round-trip through the report file
    out = str(tmp_path / "out")
    write_report(report, out)
    with open(os.path.join(out, "report.json")) as fh:
        summary = json.load(fh)
    recs = summary["records"]["perturbations"]["gd"]
    assert len(recs) == 3
    assert recs == report.records["perturbations"]["gd"]
    for rec in recs:
        assert 0 <= rec["k"] < 40 and rec["z"]["kind"] == "labeled"


def test_stability_report_records_bound_slack():
    # nag has no bound overlay under a power schedule, so no slack record
    cfg = build_config({
        "experiment": "stability_scaling", "methods": ("gd", "sgd", "nag"), "n": 40,
        "d": 4, "T": 60, "reps": 3, "holdout": 10, "seed": 2, "eta0": 0.5,
        "schedule": "power",
    })
    report = run_experiment(cfg)
    series = {s.name: s for s in report.series}
    assert set(report.records["bound_slack"]) == {"gd", "sgd"}
    for m, rec in report.records["bound_slack"].items():
        gap = series[f"{m}_sup_loss_gap"]
        slack = series[f"{m}_bound"].value - gap.value
        assert 1 <= rec["t"] <= 60
        assert rec["min"] == slack[1:].min() == slack[rec["t"]]
        assert rec["stderr"] == gap.stderr[rec["t"]]
        assert rec["crossings"] == np.count_nonzero(gap.value > series[f"{m}_bound"].value)


def test_stability_bound_overlay_reads_the_run_config():
    # the overlay is the bound of the config each method ran, gamma and tau included
    cfg = build_config({
        "experiment": "stability_scaling", "methods": ("gd", "sgd", "hb", "sgld"),
        "n": 40, "d": 4, "T": 30, "reps": 2, "holdout": 10, "seed": 3, "eta0": 0.1,
        "gamma": 0.5, "tau": 2.5,
    })
    series = {s.name: s.value for s in run_experiment(cfg).series}
    sample, _ = _logistic_data(cfg)
    constants, ts = loss_constants(logistic_spec(), sample), np.arange(cfg.T + 1)
    for m in cfg.methods:
        expect = stability_bound_curve(_optimizer_config(cfg, m), CONVEX, constants,
                                       sample.n, ts)
        assert np.array_equal(series[f"{m}_bound"], expect), m


def test_stability_scaling_rejects_bad_step_before_running():
    cfg = build_config({
        "experiment": "stability_scaling", "methods": ("hb",), "gamma": 0.99,
        "eta0": 0.1, "n": 20, "d": 3, "T": 10, "reps": 1,
    })
    with pytest.raises(ValidationError):
        run_experiment(cfg)  # hb needs eta < (1 - gamma)/beta = 0.04


def test_risk_decomposition_small(tmp_path):
    cfg = build_config({
        "experiment": "risk_decomposition", "methods": ("gd", "nag"), "n": 60,
        "d": 5, "T": 40, "n_test": 80, "seed": 3, "eta0": 0.1, "ref_budget": 200,
    })
    report = run_experiment(cfg)
    names = {s.name for s in report.series}
    assert {"gd_train_risk", "gd_test_risk", "gd_gen_gap", "gd_opt_error",
            "nag_train_risk", "nag_test_risk", "nag_gen_gap"} <= names
    assert "gd_final_gen_gap" in report.records


def test_risk_decomposition_runs_one_reference_for_all_methods(monkeypatch):
    from optstab import optimizers, stability_lab
    from optstab.harness.experiments import _optimizer_config
    from optstab.losses import logistic_spec

    cfg = build_config({
        "experiment": "risk_decomposition", "methods": ("gd", "nag", "hb"), "n": 60,
        "d": 5, "T": 40, "n_test": 80, "seed": 3, "eta0": 0.1, "ref_budget": 300,
    })
    runs = []
    engine = optimizers.batch_iterates

    def counting(*args, **kwargs):
        runs.append([c.method for c in args[0]])
        return engine(*args, **kwargs)

    monkeypatch.setattr(optimizers, "batch_iterates", counting)
    monkeypatch.setattr(stability_lab, "batch_iterates", counting)
    report = run_experiment(cfg)
    # the reference (budget 300 >= T = 40) rides as a fourth column of the methods'
    # batch for all T steps, then continues alone for the rest of its budget
    assert sorted(runs) == [["gd"], ["gd", "nag", "hb", "gd"]]
    monkeypatch.undo()

    refs = {report.records[f"{m}_reference_risk"] for m in cfg.methods}
    assert len(refs) == 1
    # the test rows continue the train rows' streams
    full, _ = gen_synthetic(cfg.d, cfg.n + cfg.n_test, seed=cfg.seed)
    train, test = full.take(np.arange(cfg.n)), full.take(np.arange(cfg.n, full.n))
    series = {s.name: s for s in report.series}
    ref = stability_lab.reference_risk(logistic_spec(), train, cfg.ref_budget)
    curves, _ = stability_lab.risk_curves([_optimizer_config(cfg, m) for m in cfg.methods],
                                          logistic_spec(), train, test)
    for m, rc in zip(cfg.methods, curves):
        np.testing.assert_array_equal(series[f"{m}_opt_error"].value, rc.train - ref)
        np.testing.assert_array_equal(series[f"{m}_test_risk"].value, rc.test)
        assert report.records[f"{m}_reference_risk"] == ref


def test_negative_ref_budget_is_rejected_by_name():
    with pytest.raises(ValidationError, match="config key 'ref_budget'"):
        build_config({"experiment": "risk_decomposition", "ref_budget": -5})


@pytest.mark.parametrize("argv, key", [
    (["stability", "--holdout", "0"], "holdout"), (["risk", "--n-test", "0"], "n_test"),
    (["stability", "--n", "0"], "n"), (["risk", "--d", "0"], "d"),
    (["stability", "--reps", "0"], "reps"), (["risk", "--T", "-1"], "T"),
    (["bounds", "--n", "0"], "n")])
def test_cli_empty_pool_or_test_set_exits_1_by_name(tmp_path, capsys, argv, key):
    # a holdout pool, test set, sample, dimension or repeat count of no points, or
    # a negative horizon, is a config error naming its key, raised before any data
    # is drawn or any file written
    out = tmp_path / "x"
    assert cli_main(argv + ["--out", str(out)]) == 1
    least = 0 if key == "T" else 1
    assert (f"config key {key!r}: bad value '{argv[-1]}' (need >= {least})"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("methods, T, budget", [
    (("gd", "nag"), 40, 25),  # budget < T: the reference runs alone
    (("gd", "nag"), 40, 40),  # it rides for T steps and resumes for none
    (("gd", "nag"), 40, 300),  # it rides for T steps, then resumes alone
    (("gd", "nag"), 0, 300),  # T = 0: it rides in a batch of no steps
    (("gd", "nag", "hb"), 40, 300),  # four columns: margins as Xb @ theta^T
    (("gd", "sgd"), 40, 300),
    (("sgd", "sgld"), 40, 300),  # no full-gradient method: it runs alone
])
def test_risk_reference_equals_standalone_reference_risk(monkeypatch, methods, T, budget):
    from optstab import losses
    from optstab.losses import logistic_spec
    from optstab.stability_lab import reference_risk

    # 16-row blocks: the 60-row design is four blocks, the last one partial
    monkeypatch.setattr(losses, "_GRAD_BLOCK_BYTES", 16 * 5 * 8)
    cfg = build_config({
        "experiment": "risk_decomposition", "methods": methods, "n": 60, "d": 5, "T": T,
        "n_test": 80, "seed": 3, "eta0": 0.1, "ref_budget": budget,
    })
    report = run_experiment(cfg)
    full, _ = gen_synthetic(cfg.d, cfg.n + cfg.n_test, seed=cfg.seed)
    ref = reference_risk(logistic_spec(), full.take(np.arange(cfg.n)), budget)
    for m in methods:
        assert report.records[f"{m}_reference_risk"] == pytest.approx(ref, rel=1e-12, abs=0)


def test_lecam_audit_passes():
    report = run_experiment(build_config({"experiment": "lecam_audit"}))
    assert report.passed is True
    assert len(report.records["two_point_checks"]) == 12
    assert len(report.records["phi_certificates"]) == 8


def test_bounds_table_exponents():
    report = run_experiment(build_config({"experiment": "bounds_table"}))
    assert report.passed is True
    rows = report.records["exponents"]
    assert rows["gd"]["exponent_fitted"] == pytest.approx(1.0, abs=1e-9)
    assert rows["nag"]["exponent_fitted"] == pytest.approx(2.0, abs=1e-9)
    assert rows["sgd_power"]["exponent_fitted"] == pytest.approx(0.5, abs=1e-9)
    assert rows["sgld"]["exponent_fitted"] == pytest.approx(0.25, abs=1e-9)
    assert rows["hb"]["exponent_fitted"] == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------- cli


def test_cli_earlystop():
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(["earlystop", "--n", "400", "--eta", "0.1"])
    assert code == 0
    assert buf.getvalue().strip() == "200"


def test_cli_validation_error_exit_code(tmp_path):
    code = cli_main(["stability", "--methods", "hb", "--gamma", "0.99",
                     "--eta0", "0.1", "--n", "20", "--d", "3", "--T", "5",
                     "--reps", "1", "--out", str(tmp_path)])
    assert code == 1


@pytest.mark.parametrize("key, value", [("schedule", "linear"), ("n", "abc"),
                                        ("seed", "-1"), ("ref_budget", "-5")])
def test_cli_bad_value_exits_1_from_file_and_flag(tmp_path, monkeypatch, capsys, key,
                                                  value):
    from optstab.harness import cli

    def unreachable(cfg):
        raise AssertionError(f"ran with {key} = {cfg}")

    monkeypatch.setattr(cli, "run_experiment", unreachable)
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"{key} = {value}\n")
    out = str(tmp_path / "x")
    errors = []
    for argv in (["--config", str(cfgfile)], [f"--{key.replace('_', '-')}", value]):
        assert cli_main(["stability", "--out", out] + argv) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert f"{value!r}" in errors[0]


@pytest.mark.parametrize("argv, message", [
    (["--log-level", "loud", "stability"], "argument --log-level: invalid choice"),
    ([], "the following arguments are required: command"),
    (["earlystop", "--n", "abc", "--eta", "0.1"], "argument --n: invalid int value"),
    (["stability", "--T"], "argument --T: expected one argument"),
], ids=["log-level", "no-subcommand", "earlystop-n", "missing-value"])
def test_cli_usage_error_exits_1(capsys, argv, message):
    assert cli_main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_cli_help_exits_0(capsys):
    for argv in (["--help"], ["stability", "--help"]):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(argv)
        assert exit_info.value.code == 0
        assert "usage: optstab" in capsys.readouterr().out


class _ReadRecorder:
    """Stands in for a config and records the name of every attribute read."""

    def __init__(self, cfg):
        self._cfg, self.reads = cfg, set()

    def __getattr__(self, name):
        self.reads.add(name)
        return getattr(self._cfg, name)


@pytest.mark.parametrize("command", ["risk", "lecam", "lemmas", "bounds"])
def test_cli_data_path_outside_stability_exits_1_by_name(tmp_path, capsys, command):
    # the removed data-file key is an unrecognized flag in every subcommand
    out = tmp_path / "x"
    assert cli_main([command, "--data-path", "bc.csv", "--out", str(out)]) == 1
    assert "unrecognized arguments: --data-path bc.csv" in capsys.readouterr().err
    assert not out.exists()


_RUN_KEYS = dict(methods=METHODS, n=40, T=30, schedule="power")


@pytest.mark.parametrize("experiment, keys, unread", [
    ("stability_scaling", dict(_RUN_KEYS, reps=2), set()),
    ("risk_decomposition", dict(_RUN_KEYS, n_test=40, ref_budget=40), set()),
    ("lecam_audit", {}, set()),
    ("lemma_audit", {}, set()),
    ("bounds_table", {}, set()),
    # the keys only some methods read
    ("stability_scaling", dict(methods=("gd",), n=40, T=30, reps=2),
     {"gamma", "kappa", "tau", "alpha"}),
    ("stability_scaling", dict(methods=("hb", "nag_sc"), n=40, T=30, reps=2,
                               schedule="power"), {"tau"}),
    ("risk_decomposition", dict(methods=("sgld",), n=40, T=30, n_test=40),
     {"gamma", "kappa", "schedule", "alpha"}),
    ("risk_decomposition", dict(methods=("sgd", "sgld"), n=40, T=30, n_test=40,
                                schedule="power"), {"gamma", "kappa"}),
], ids=["stability", "risk", "lecam", "lemmas", "bounds", "stability-gd",
        "stability-hb-nag_sc", "risk-sgld", "risk-sgd-sgld"])
def test_each_experiment_reads_exactly_its_table_of_keys(monkeypatch, experiment, keys,
                                                         unread):
    # the experiment reads every key of its table but those the methods and
    # schedule leave unread; the hash (which reads every key) is stubbed out
    from optstab.harness import experiments

    monkeypatch.setattr(experiments, "config_hash", lambda cfg: "0" * 16)
    proxy = _ReadRecorder(ExperimentConfig(experiment=experiment, **keys))
    run_experiment(proxy)
    assert proxy.reads == _READS[experiment] - unread | {"experiment", "seed"}


_OFF_DEFAULT = dict(methods="sgd", n="77", d="20", T="50",
                    holdout="30", reps="3", eta0="0.3", schedule="power", alpha="0.3",
                    gamma="0.5", tau="2.5", kappa="9", n_test="10", ref_budget="100")
_UNREAD = [(e, f.name) for e in EXPERIMENTS for f in fields(ExperimentConfig)
           if f.name not in _READS[e] | {"experiment", "seed", "out"}]


@pytest.mark.parametrize("experiment, key", _UNREAD, ids=[f"{e}-{k}" for e, k in _UNREAD])
def test_cli_unread_key_off_its_default_exits_1_by_name(tmp_path, capsys, experiment,
                                                        key):
    from optstab.harness.cli import _SUBCOMMAND_EXPERIMENT

    command = {e: c for c, e in _SUBCOMMAND_EXPERIMENT.items()}[experiment]
    cfgfile = tmp_path / "unread.cfg"
    cfgfile.write_text(f"{key} = {_OFF_DEFAULT[key]}\n")
    out = tmp_path / "x"
    for argv in (["--config", str(cfgfile)], ["--" + key.replace("_", "-"), _OFF_DEFAULT[key]]):
        assert cli_main([command, "--out", str(out)] + argv) == 1
        assert f"config key '{key}': {experiment} does not read it" in capsys.readouterr().err
        assert not (out / "report.json").exists()


@pytest.mark.parametrize("argv, key", [
    (["stability", "--methods", "gd", "--gamma", "0.5", "--kappa", "9", "--tau", "3"],
     "gamma"),
    (["stability", "--methods", "hb,sgld", "--kappa", "9"], "kappa"),
    (["risk", "--methods", "gd,sgd", "--tau", "3"], "tau"),
    (["stability", "--methods", "sgld", "--schedule", "power"], "schedule"),
    (["risk", "--methods", "nag", "--alpha", "0.3"], "alpha"),
], ids=["gamma", "kappa", "tau", "schedule", "alpha"])
def test_cli_key_no_selected_method_reads_exits_1_by_name(tmp_path, capsys, argv, key):
    out = tmp_path / "x"
    assert cli_main(argv + ["--out", str(out)]) == 1
    methods = argv[argv.index("--methods") + 1]
    err = capsys.readouterr().err
    assert f"config key '{key}': " in err
    assert f"does not read it (methods {methods}, schedule" in err
    assert not (out / "report.json").exists()
    # with a method that reads it, the key is legal
    build_config({"experiment": "stability_scaling", "methods": ("hb", "nag_sc", "sgld"),
                  "schedule": "power", key: _OFF_DEFAULT[key]})


def test_cli_unread_key_at_its_default_is_accepted(tmp_path):
    # reps = 50 is the default: the bounds table runs, and its hash is the default run's
    out = tmp_path / "x"
    assert cli_main(["bounds", "--reps", "50", "--out", str(out)]) == 0
    assert (out / "report.json").exists()
    assert build_config({"experiment": "bounds_table", "reps": 50}) == \
        ExperimentConfig(experiment="bounds_table")


@pytest.mark.parametrize("line", ["source = file", "subsample = 300", "data_path = bc.csv"])
def test_cli_removed_data_keys_exit_1_as_unknown(tmp_path, capsys, line):
    key, value = line.split(" = ")
    cfgfile = tmp_path / "old.cfg"
    cfgfile.write_text(line + "\n")
    out = tmp_path / "x"
    assert cli_main(["stability", "--config", str(cfgfile), "--out", str(out)]) == 1
    assert f"unknown config keys: [{key!r}]" in capsys.readouterr().err
    # its flag is an unrecognized argument: exit 1 like a bad key, not argparse's 2
    flag = "--" + key.replace("_", "-")
    assert cli_main(["stability", flag, value, "--out", str(out)]) == 1
    assert f"error: unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["stability", "risk"])
def test_cli_empty_methods_exits_1_from_file_and_flag(tmp_path, monkeypatch, capsys,
                                                      command):
    from optstab.harness import cli

    def unreachable(cfg):
        raise AssertionError(f"ran with no methods: {cfg}")

    monkeypatch.setattr(cli, "run_experiment", unreachable)
    cfgfile = tmp_path / "empty.cfg"
    cfgfile.write_text("methods =\n")
    out = str(tmp_path / "x")
    for argv in (["--config", str(cfgfile)], ["--methods", ""]):
        assert cli_main([command, "--out", out] + argv) == 1
        assert "needs at least one method" in capsys.readouterr().err
    with pytest.raises(ValidationError, match="lecam_audit needs at least one method"):
        ExperimentConfig(experiment="lecam_audit", methods=())


@pytest.mark.parametrize("command", ["stability", "risk"])
def test_cli_repeated_method_exits_1_from_file_and_flag(tmp_path, monkeypatch, capsys,
                                                        command):
    # a repeated method ran once, yet the config hash recorded it twice
    from optstab.harness import cli

    def unreachable(cfg):
        raise AssertionError(f"ran with a repeated method: {cfg}")

    monkeypatch.setattr(cli, "run_experiment", unreachable)
    cfgfile = tmp_path / "twice.cfg"
    cfgfile.write_text("methods = gd, nag, gd\n")
    out = tmp_path / "x"
    for argv in (["--config", str(cfgfile)], ["--methods", "gd,gd"]):
        assert cli_main([command, "--out", str(out), "--T", "30"] + argv) == 1
        assert "config key 'methods': gd repeated" in capsys.readouterr().err
        assert not out.exists()


def test_bounds_table_evaluates_each_row_once_over_its_horizons(monkeypatch):
    from optstab.harness import experiments

    table_form, calls = experiments.bounds_mod.stability_bound_table_form, []

    def spy(config, setting, constants, n, ts):
        calls.append(ts)
        return table_form(config, setting, constants, n, ts)

    monkeypatch.setattr(experiments.bounds_mod, "stability_bound_table_form", spy)
    report = run_experiment(ExperimentConfig(experiment="bounds_table"))
    assert report.passed and len(calls) == len(report.records["exponents"]) == 6
    assert all(np.array_equal(ts, 2 ** np.arange(4, 13)) for ts in calls)


def test_cli_flags_are_the_config_fields():
    import argparse

    from optstab.harness import cli

    parser = cli._parser()
    subcommands = next(a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    expected = {"--config"} | {
        "--" + f.name.replace("_", "-") for f in fields(ExperimentConfig)
        if f.name != "experiment"}
    assert {"--n-test", "--ref-budget", "--T"} <= expected
    assert len(expected) == 17
    for name in cli._SUBCOMMAND_EXPERIMENT:
        flags = {opt for action in subcommands[name]._actions
                 for opt in action.option_strings} - {"-h", "--help"}
        assert flags == expected, name


def test_cli_runtime_error_exit_code(tmp_path, monkeypatch, capsys):
    # a non-finite iterate is a runtime error: exit 2, naming method and step
    import numpy as np

    from optstab.harness import cli
    from optstab.losses import Dataset, linear_worstcase_spec
    from optstab.optimizers import OptimizerConfig, fixed, run

    def overflowing_run(cfg):
        with np.errstate(over="ignore"):
            run(OptimizerConfig(method="gd", schedule=fixed(1e308), T=5),
                linear_worstcase_spec(L=1.0), Dataset.from_symbols(np.ones(4)))

    monkeypatch.setattr(cli, "run_experiment", overflowing_run)
    code = cli_main(["stability", "--out", str(tmp_path)])
    assert code == 2
    assert "gd: iterate 2 is not finite" in capsys.readouterr().err


@pytest.fixture
def restore_optstab_log_level():
    import logging

    logger = logging.getLogger("optstab")
    level = logger.level
    yield
    logger.setLevel(level)


def test_cli_log_level_filters_optstab_records(tmp_path, caplog,
                                               restore_optstab_log_level):
    # T = 0 leaves no fit window, so every slope fit logs a warning
    argv = ["stability", "--T", "0", "--reps", "2", "--n", "20", "--d", "3",
            "--holdout", "5", "--out", str(tmp_path)]
    for level, warned in (("error", False), ("WARNING", True), ("debug", True)):
        caplog.clear()
        assert cli_main(["--log-level", level] + argv) == 0
        assert any("slope fit skipped" in r.getMessage() for r in caplog.records) == warned
    assert cli_main(["--log-level", "loud"] + argv) == 1


def test_cli_debug_logs_runtime_error_traceback(tmp_path, monkeypatch, capsys, caplog,
                                                restore_optstab_log_level):
    from optstab.harness import cli

    def failing_run(cfg):
        raise RuntimeError("iterate exploded")

    monkeypatch.setattr(cli, "run_experiment", failing_run)
    argv = ["stability", "--out", str(tmp_path)]
    assert cli_main(argv) == 2
    assert "runtime error: iterate exploded" in capsys.readouterr().err
    assert not any(r.exc_info for r in caplog.records)
    assert cli_main(["--debug"] + argv) == 2
    assert "runtime error: iterate exploded" in capsys.readouterr().err
    tracebacks = [r for r in caplog.records if r.exc_info]
    assert len(tracebacks) == 1 and tracebacks[0].exc_info[0] is RuntimeError
    assert "failing_run" in caplog.text


def test_stability_lipschitz_violation_exits_2(tmp_path, monkeypatch, capsys):
    # a gap estimate doubled past L * param gap must stop the experiment with
    # a RuntimeError naming the method, the repeat and the step: the first
    # exceedance in method order, whichever gradient kind comes first
    import re

    from optstab import stability_lab

    coupled = stability_lab._coupled_gaps

    def doubled_sup_gaps(*args):
        param_gap, sup_gap = coupled(*args)
        return param_gap, 2.0 * sup_gap

    monkeypatch.setattr(stability_lab, "_coupled_gaps", doubled_sup_gaps)
    for methods in (("gd", "sgd"), ("sgd", "gd")):
        keys = {"methods": methods, "n": 40, "d": 2, "T": 60, "reps": 2, "holdout": 20,
                "eta0": 1.0}
        message = rf"{methods[0]}: sup-loss gap .* at repeat \d+, t = \d+$"
        with pytest.raises(RuntimeError, match="^" + message):
            run_experiment(build_config(dict(keys, experiment="stability_scaling")))
        flags = ["--methods", ",".join(methods), "--n", "40", "--d", "2", "--T", "60",
                 "--reps", "2", "--holdout", "20", "--eta0", "1.0", "--out", str(tmp_path)]
        assert cli_main(["stability"] + flags) == 2
        assert re.search("runtime error: " + message, capsys.readouterr().err, re.M)


def test_cli_bounds_subcommand(tmp_path):
    import io
    from contextlib import redirect_stdout

    out = str(tmp_path / "bt")
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(["bounds", "--out", out])
    assert code == 0
    assert os.path.exists(os.path.join(out, "report.json"))
    assert "audit PASS" in buf.getvalue()


@pytest.mark.parametrize("flag, value, message", [
    ("--gamma", "1", "heavy ball needs 0 <= gamma < 1"),
    ("--gamma", "1.5", "heavy ball needs 0 <= gamma < 1"),
    ("--tau", "0", "sgld needs temperature tau > 0"),
    # a bound holds only in its proof's step-size range, the one the step engine takes
    ("--eta0", "5", "gd needs eta <= 1/beta = 4, got 5"),
    ("--eta0", "3.9 --gamma 0.5", "hb needs eta < (1-gamma)/beta = 2, got 3.9"),
])
def test_cli_bounds_bad_row_config_exits_1_writing_nothing(tmp_path, capsys, flag, value,
                                                           message):
    out = tmp_path / "bt"
    assert cli_main(["bounds", flag, *value.split(), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_cli_stability_with_config_file(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "experiment = stability_scaling\nmethods = gd\nn = 30\nd = 3\n"
        "T = 40\nreps = 2\nholdout = 8\n")
    out = str(tmp_path / "run")
    code = cli_main(["stability", "--config", str(cfgfile), "--out", out,
                     "--seed", "4"])
    assert code == 0
    with open(os.path.join(out, "report.json")) as fh:
        summary = json.load(fh)
    assert summary["experiment"] == "stability_scaling"
    assert summary["seed"] == 4
    assert set(summary["series"]) == {"gd_param_gap", "gd_sup_loss_gap", "gd_bound"}


@pytest.mark.parametrize("text, message", [
    ("experiment = risk_decomposition\nT = 20\n", "config key 'experiment': the file "
     "runs 'risk_decomposition', the subcommand 'stability_scaling'"),
    ("T = 20\nT = 30\n", "config line 2: key 'T' repeated"),
    (None, "exp.cfg': No such file or directory"),
    (b"T = 20\n\xff\n", "exp.cfg': 'utf-8' codec can't decode byte 0xff")],
    ids=["experiment", "repeated", "missing", "undecodable"])
def test_cli_bad_config_file_exits_1_writing_nothing(tmp_path, capsys, text, message):
    # a file's experiment is not overridden by the subcommand, a repeated key does not
    # take its last value, and an unreadable file is bad config input, not a runtime error
    cfgfile, out = tmp_path / "exp.cfg", tmp_path / "run"
    if text is not None:
        cfgfile.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert cli_main(["stability", "--config", str(cfgfile), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config ") and message in err
    assert not (out / "report.json").exists()


def test_cli_end_to_end_determinism(tmp_path):
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    c1 = cli_main(["lecam", "--out", out1])
    c2 = cli_main(["lecam", "--out", out2])
    assert c1 == 0 and c2 == 0
    for name in sorted(os.listdir(out1)):
        assert open(os.path.join(out1, name), "rb").read() == \
            open(os.path.join(out2, name), "rb").read()


def test_cli_audit_failure_exit_code(tmp_path, monkeypatch):
    # wire check: a failed audit report must surface as exit code 3
    from optstab.harness import cli as cli_mod
    from optstab.harness.reports import Report as R

    def failing(cfg):
        return R(experiment=cfg.experiment, config_hash="00", seed=0, versions={},
                 passed=False)

    monkeypatch.setattr(cli_mod, "run_experiment", failing)
    code = cli_mod.main(["lemmas", "--out", str(tmp_path / "x")])
    assert code == 3


def test_risk_decomposition_nag_test_risk_separates():
    cfg = build_config({
        "experiment": "risk_decomposition", "methods": ("nag",), "n": 300,
        "d": 60, "T": 300, "n_test": 600, "seed": 12, "eta0": 0.1,
    })
    report = run_experiment(cfg)
    gap = next(s for s in report.series if s.name == "nag_gen_gap").value
    assert gap[-1] > 5 * max(gap[10], 1e-6)
    assert gap[-1] > 0.01


def test_cli_entry_point_installed():
    proc = subprocess.run([sys.executable, "-m", "optstab.harness.cli",
                           "earlystop", "--n", "10000", "--eta", "0.1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1000"
