import json
import os
import subprocess
import sys

import numpy as np
import pytest

from optstab.harness.config import (
    ExperimentConfig,
    build_config,
    canonical_text,
    config_hash,
    load_config,
    parse_config_text,
)
from optstab.harness.data import gen_synthetic, load_breast_cancer, split_sample
from optstab.harness.experiments import run_experiment
from optstab.harness.reports import (
    Report,
    Series,
    load_report,
    read_series_csv,
    write_report,
    write_series_csv,
)
from optstab.harness.cli import main as cli_main
from optstab.losses import ValidationError

BC_FIXTURE = """\
1000025,5,1,1,1,2,1,3,1,1,2
1002945,5,4,4,5,7,10,3,2,1,2
1015425,3,1,1,1,2,2,?,1,1,2
1016277,6,8,8,1,3,4,3,7,1,4
1017023,4,1,1,3,2,1,3,1,1,2
"""


# ---------------------------------------------------------------- config


def test_parse_config_text():
    cfg = parse_config_text("""
# comment
experiment = stability_scaling
methods = gd, nag
n = 250
eta0 = 0.05
""")
    assert cfg["methods"] == ("gd", "nag")
    assert cfg["n"] == 250 and cfg["eta0"] == 0.05


def test_parse_rejects_garbage():
    with pytest.raises(ValidationError):
        parse_config_text("just some words\n")
    with pytest.raises(ValidationError):
        parse_config_text("n = three\n")


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


def test_breast_cancer_fixture_drops_missing(tmp_path):
    path = tmp_path / "bc.csv"
    path.write_text(BC_FIXTURE)
    data = load_breast_cancer(str(path))
    assert data.n == 4  # the '?' row is dropped
    np.testing.assert_allclose(np.linalg.norm(data.X, axis=1), 1.0, atol=1e-12)
    # class 4 maps to label 1
    np.testing.assert_array_equal(data.y, [0.0, 0.0, 1.0, 0.0])


def test_breast_cancer_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n")
    with pytest.raises(ValidationError):
        load_breast_cancer(str(path))
    path.write_text("1,5,1,1,1,2,1,3,1,1,7\n")
    with pytest.raises(ValidationError):
        load_breast_cancer(str(path))


def test_gen_synthetic_rows_unit_norm_and_deterministic():
    a, theta_a = gen_synthetic(6, 200, seed=5)
    b, _ = gen_synthetic(6, 200, seed=5)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_allclose(np.linalg.norm(a.X, axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(theta_a, np.ones(6))


def test_gen_synthetic_label_frequency_concentrates():
    data, theta = gen_synthetic(8, 4000, seed=11)
    u = data.X @ theta
    p = 1.0 / (1.0 + np.exp(-u))
    assert abs(data.y.mean() - p.mean()) <= 3 * np.sqrt(0.25 / 4000)


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
    chash, back = read_series_csv(path)
    assert chash == "cafe0123"
    np.testing.assert_array_equal(back.t, s.t)
    np.testing.assert_array_equal(back.value, s.value)
    np.testing.assert_array_equal(back.stderr, s.stderr)


def test_report_round_trip_and_hash_guard(tmp_path):
    report = Report(experiment="bounds_table", config_hash="abcd", seed=1,
                    versions={"optstab": "0.1.0"})
    report.add_series("curve_a", np.arange(4), np.arange(4) + 0.5)
    report.add_series("curve_b", np.arange(4), np.arange(4) * 2.0)
    out = str(tmp_path / "out")
    write_report(report, out)
    back = load_report(out)
    assert back.config_hash == "abcd"
    assert sorted(s.name for s in back.series) == ["curve_a", "curve_b"]
    # tamper with one series' embedded hash -> aggregation refuses
    path = os.path.join(out, "curve_a.csv")
    text = open(path).read().replace("# config=abcd", "# config=eeee")
    open(path, "w").write(text)
    with pytest.raises(ValidationError):
        load_report(out)


def test_emitted_files_are_byte_stable(tmp_path):
    cfg = build_config({"experiment": "bounds_table", "n": 100})
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    write_report(run_experiment(cfg), out1)
    write_report(run_experiment(cfg), out2)
    for name in sorted(os.listdir(out1)):
        b1 = open(os.path.join(out1, name), "rb").read()
        b2 = open(os.path.join(out2, name), "rb").read()
        assert b1 == b2, name


def test_plot_script_uses_loglog_for_stability(tmp_path):
    report = Report(experiment="stability_scaling", config_hash="ff", seed=0,
                    versions={})
    report.add_series("gd_param_gap", np.arange(3), np.arange(3) + 1.0)
    files = write_report(report, str(tmp_path))
    script = [f for f in files if f.endswith(".py")][0]
    text = open(script).read()
    assert 'ax.set_xscale("log")' in text and 'ax.set_yscale("log")' in text
    assert "gd_param_gap" in text


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


def test_cli_bounds_subcommand(tmp_path):
    import io
    from contextlib import redirect_stdout

    out = str(tmp_path / "bt")
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(["bounds", "--out", out, "--format", "csv"])
    assert code == 0
    assert os.path.exists(os.path.join(out, "report.json"))
    assert not os.path.exists(os.path.join(out, "plot_series.py"))
    assert "audit PASS" in buf.getvalue()


def test_cli_stability_with_config_file(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "experiment = stability_scaling\nmethods = gd\nn = 30\nd = 3\n"
        "T = 40\nreps = 2\nholdout = 8\n")
    out = str(tmp_path / "run")
    code = cli_main(["stability", "--config", str(cfgfile), "--out", out,
                     "--seed", "4"])
    assert code == 0
    report = load_report(out)
    assert report.experiment == "stability_scaling"
    assert {s.name for s in report.series} == {"gd_param_gap", "gd_sup_loss_gap",
                                               "gd_bound"}


def test_cli_end_to_end_determinism(tmp_path):
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    c1 = cli_main(["lecam", "--out", out1, "--format", "csv"])
    c2 = cli_main(["lecam", "--out", out2, "--format", "csv"])
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
    code = cli_mod.main(["lemmas", "--out", str(tmp_path / "x"), "--format", "csv"])
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
