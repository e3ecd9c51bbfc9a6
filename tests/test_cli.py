import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussian_reference import reference_region, reference_scan
from wiretapsi import GaussianWiretapParams, ToolkitError, gaussian
from wiretapsi.cli import _DEFAULTS, main
from wiretapsi.modelio import (
    load_sim_config,
    model_to_dict,
    policy_to_dict,
    write_csv,
    write_json,
)
from wiretapsi.reference import degraded_bsc_pair, uniform_input_policy
from wiretapsi.simulator import run_experiment


def read(path):
    return path.read_bytes()


@pytest.fixture()
def model_file(tmp_path):
    model = degraded_bsc_pair(0.05, 0.2)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(model)))
    return path


@pytest.fixture()
def sim_file(tmp_path, model_file):
    model = degraded_bsc_pair(0.05, 0.2)
    policy = uniform_input_policy(model)
    (tmp_path / "policy.json").write_text(json.dumps(policy_to_dict(policy)))
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({
        "model_file": "model.json", "policy_file": "policy.json",
        "n": 4, "rate": 0.3, "epsilon_typ": 0.25, "trials": 5, "seed": 7}))
    return path


def test_gaussian_scan_artifacts(tmp_path):
    out = tmp_path / "scan"
    assert main(["gaussian-scan", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "alpha,mi_uy,mi_uv12,mi_uz,deltaI,R,RZ"
    assert len(lines) == 1 + 81           # alpha from -2 to 2, step 0.05
    roots = json.loads((out / "scan_roots.json").read_text())
    assert set(roots) == {"alpha_star", "alpha_root_neg", "alpha_root_pos"}
    assert roots["alpha_star"] == pytest.approx(0.0, abs=1e-12)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "gaussian-scan"
    assert manifest["settings"]["step"] == 0.05


def test_gaussian_scan_replay_is_byte_identical(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    argv = ["gaussian-scan", "--p", "2.0", "--rho-xv1", "0.3",
            "--alpha-min", "-1.0", "--alpha-max", "1.5", "--step", "0.1"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(["gaussian-scan", "--config", str(first / "manifest.json"),
                 "--out", str(second)]) == 0
    for name in ("sweep.csv", "scan_roots.json", "manifest.json"):
        assert read(first / name) == read(second / name)


def test_discrete_region_artifacts_and_replay(tmp_path, model_file, monkeypatch):
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["discrete-region", "--model", str(model_file),
                 "--random", "25", "--curve-points", "9",
                 "--seed", "4", "--out", str(first)]) == 0
    lines = (first / "region.csv").read_text().splitlines()
    assert lines[0] == "R,d,policy_id"
    assert len(lines) > 1
    summary = json.loads((first / "summary.json").read_text())
    for key in ("secrecy_rate", "secrecy_upper_bound",
                "main_channel_capacity", "max_r_u1", "points"):
        assert key in summary
    assert summary["secrecy_rate"] <= summary["secrecy_upper_bound"] + 1e-9

    # the manifest stores the model path absolutized, so replay works from
    # anywhere
    monkeypatch.chdir(tmp_path)
    assert main(["discrete-region", "--config", str(first / "manifest.json"),
                 "--out", str(second)]) == 0
    for name in ("region.csv", "summary.json", "manifest.json"):
        assert read(first / name) == read(second / name)


def test_gaussian_region_case1(tmp_path):
    out = tmp_path / "reg"
    assert main(["gaussian-region", "--case", "1", "--p", "0.5", "--q", "1.0",
                 "--n1", "0.25", "--n2", "1.0", "--grid", "8",
                 "--out", str(out)]) == 0
    thresholds = json.loads((out / "thresholds.json").read_text())
    assert set(thresholds) == {"P1", "P2", "regime", "c_m"}
    assert thresholds["P1"] == pytest.approx(0.368034, abs=1e-6)
    assert thresholds["P2"] == pytest.approx(0.724745, abs=1e-6)
    assert thresholds["regime"] == "mid"
    lines = (out / "boundary.csv").read_text().splitlines()
    assert lines[0] == "P,regime,R,Rd_cap"
    assert len(lines) == 1 + 9
    assert all(row.startswith("0.5,mid,") for row in lines[1:])


def test_gaussian_region_case2(tmp_path):
    out = tmp_path / "reg2"
    assert main(["gaussian-region", "--case", "2", "--p", "3.0",
                 "--grid", "4", "--out", str(out)]) == 0
    thresholds = json.loads((out / "thresholds.json").read_text())
    assert set(thresholds) == {"P3", "P4", "regime", "c_m"}
    assert thresholds["P4"] == pytest.approx(2.0, abs=1e-12)
    assert thresholds["regime"] == "high"


def test_simulate_report_and_codebook(tmp_path, sim_file):
    out = tmp_path / "sim_out"
    assert main(["simulate", "--sim-config", str(sim_file),
                 "--dump-codebook", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    expected = run_experiment(load_sim_config(str(sim_file))).to_dict()
    assert report == json.loads(json.dumps(expected))
    book_lines = (out / "codebook.txt").read_text().splitlines()
    assert book_lines[0] == "# seed 7"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["settings"]["dump_codebook"] is True


def test_simulate_seed_override_and_replay(tmp_path, sim_file):
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--sim-config", str(sim_file), "--seed", "9",
                 "--out", str(first)]) == 0
    report = json.loads((first / "report.json").read_text())
    assert report["seed"] == 9
    assert main(["simulate", "--config", str(first / "manifest.json"),
                 "--out", str(second)]) == 0
    assert read(first / "report.json") == read(second / "report.json")


def test_validate_subcommand(tmp_path, capsys):
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["validate", "--out", str(first)]) == 0
    stdout = capsys.readouterr().out
    assert "[pass]" in stdout
    assert "discrepancy record(s) on file" in stdout
    doc = json.loads((first / "validation.json").read_text())
    assert doc["passed"] is True
    assert len(doc["discrepancies"]) > 0
    assert {c["name"] for c in doc["checks"]} >= {
        "gaussian_closed_form_vs_oracle", "alpha_star_grid_argmax",
        "posterior_matches_brute_force"}
    assert main(["validate", "--config", str(first / "manifest.json"),
                 "--out", str(second)]) == 0
    assert read(first / "validation.json") == read(second / "validation.json")


def test_validate_redraws_a_uniform_posterior_codebook(tmp_path):
    # the first codebook at seed 22 gives a uniform posterior for every z
    assert main(["validate", "--seed", "22", "--out", str(tmp_path / "v")]) == 0
    checks = json.loads((tmp_path / "v" / "validation.json").read_text())["checks"]
    posterior = next(c for c in checks if c["name"] == "posterior_matches_brute_force")
    assert posterior["passed"] and "codebook seed" in posterior["detail"]


def test_validate_exit_one_on_failure(tmp_path, monkeypatch, capsys):
    import wiretapsi.cli as cli
    import wiretapsi.validate as validate

    def broken(seed):
        report = validate.run_suites(seed=seed)
        failed = [validate.CheckResult(c.name, False, c.detail)
                  for c in report.checks]
        return validate.ValidationReport(tuple(failed), report.discrepancies)

    monkeypatch.setattr(cli, "run_suites", broken)
    assert main(["validate", "--out", str(tmp_path / "v")]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_config_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"step": 0.5, "p": 2.0, "out": "ignored"}))
    out = tmp_path / "o1"
    assert main(["gaussian-scan", "--config", str(cfg), "--step", "1.0",
                 "--out", str(out)]) == 0
    settings = json.loads((out / "manifest.json").read_text())["settings"]
    assert settings["step"] == 1.0      # flag beats config
    assert settings["p"] == 2.0         # config beats default
    assert settings["q1"] == 1.0        # default survives
    assert "out" not in settings


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 0.5}))
    assert main(["gaussian-scan", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "unknown setting 'steps'" in capsys.readouterr().err


def test_manifest_subcommand_mismatch(tmp_path, capsys):
    out = tmp_path / "scan"
    assert main(["gaussian-scan", "--out", str(out)]) == 0
    assert main(["gaussian-region", "--config", str(out / "manifest.json"),
                 "--out", str(tmp_path / "r")]) == 2
    assert "manifest is for 'gaussian-scan'" in capsys.readouterr().err


def test_missing_model_is_usage_error(tmp_path, capsys):
    assert main(["discrete-region", "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err

    assert main(["discrete-region", "--model", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "o2")]) == 2
    assert "absent.json" in capsys.readouterr().err


def test_nan_in_model_is_usage_error(tmp_path, model_file, capsys):
    doc = json.loads(model_file.read_text())
    doc["main_kernel"][0][0][0] = float("nan")
    model_file.write_text(json.dumps(doc))          # writes a NaN literal
    assert "NaN" in model_file.read_text()
    assert main(["discrete-region", "--model", str(model_file), "--random", "5",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-finite" in err
    assert "Traceback" not in err


def test_cli_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["wiretapsi.cli"].__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c",
                          "import sys, wiretapsi.cli; print('scipy' in sys.modules)"],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="thread count read from /proc/self/status")
def test_wiretapsi_threads_caps_blas_before_numpy_loads():
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["wiretapsi.cli"].__file__)))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(PYTHONPATH=src, WIRETAPSI_THREADS="1")
    probe = ("import os, wiretapsi.cli\n"
             "threads = [line.split()[1] for line in open('/proc/self/status')\n"
             "           if line.startswith('Threads:')]\n"
             "print(os.environ.get('OPENBLAS_NUM_THREADS'), threads[0])")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["1", "1"]


def _config_exit(tmp_path, capsys, argv, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code = main(argv + ["--config", str(cfg), "--out", str(tmp_path / "o")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("argv,doc,message", [
    (["discrete-region"], {"n_random": "5"}, "'n_random' must be int"),
    (["discrete-region"], {"model": 3}, "'model' must be str"),
    (["discrete-region"], {"mode": "v2"}, "'mode' must be one of"),
    (["gaussian-scan"], {"step": "a"}, "'step' must be float"),
    (["gaussian-scan"], {"p": True}, "'p' must be float"),
    (["gaussian-region"], {"grid_size": 16.0}, "'grid_size' must be int"),
    (["gaussian-region"], {"case": 1}, "'case' must be str"),
    (["simulate"], {"seed": "1"}, "'seed' must be int"),
    (["simulate"], {"dump_codebook": 1}, "'dump_codebook' must be bool"),
    (["validate"], {"seed": True}, "'seed' must be int"),
])
def test_config_values_of_the_wrong_type_exit_two(tmp_path, capsys, argv, doc, message):
    code, err = _config_exit(tmp_path, capsys, argv, doc)
    assert code == 2
    assert err.startswith("error:") and message in err and "Traceback" not in err


def test_config_accepts_an_int_for_a_float_and_null_for_a_none_default(
        tmp_path, capsys, sim_file):
    code, _ = _config_exit(tmp_path, capsys, ["gaussian-scan"], {"step": 1, "p": 2})
    assert code == 0
    settings = json.loads((tmp_path / "o" / "manifest.json").read_text())["settings"]
    assert settings["step"] == 1 and isinstance(settings["step"], int)
    code, _ = _config_exit(tmp_path, capsys, ["simulate"],
                           {"seed": None, "sim_config": str(sim_file)})
    assert code == 0


def test_degenerate_geometry_surfaces_expression(tmp_path, capsys):
    # Case II thresholds with n1 far above n2 have no real solution
    assert main(["gaussian-region", "--case", "2", "--q", "1.0",
                 "--n1", "3.0", "--n2", "0.5",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "5*q^2 + 4*q*(n2 - n1)" in err


def test_bad_scan_range(tmp_path, capsys):
    assert main(["gaussian-scan", "--step", "-0.1",
                 "--out", str(tmp_path / "o")]) == 2
    assert "step" in capsys.readouterr().err


def test_argparse_usage_failure():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["gaussian-scan", "--q1", "nan"],
    ["gaussian-scan", "--p", "inf"],
    ["gaussian-scan", "--alpha-min", "nan"],
    ["gaussian-region", "--p", "inf"],
    ["gaussian-region", "--case", "2", "--q", "nan"],
    ["gaussian-scan", "--step", "1e-9"],
    ["gaussian-region", "--grid", "1000000000"],
    ["gaussian-scan", "--p", "1e300"],
    ["gaussian-scan", "--q1", "1e300"],                    # determinant overflow
    ["gaussian-scan", "--alpha-min", "1e300", "--alpha-max", "1e300"],   # covariance overflow
    ["gaussian-region", "--n1", "1e-300", "--p", "1e9"],   # p / n1 overflows
])
def test_gaussian_bad_inputs_exit_two_without_traceback(tmp_path, capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # no numpy warning on the way
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


GAUSSIAN_FLAGS = {
    "gaussian-scan": ("p", "q1", "q2", "n1", "n2", "rho-xv1", "rho-xv2",
                      "rho-v1v2", "alpha-min", "alpha-max", "step"),
    "gaussian-region": ("p", "q", "n1", "n2", "grid"),
}
ADVERSARIAL = ("nan", "inf", "-inf", "0", "-0.0", "-1", "-2.5", "1e-300",
               "1e300", "0.5", "2", "3e5", "1000000000")


SCAN_FIELDS = ("p", "q1", "q2", "n1", "n2", "rho_xv1", "rho_xv2", "rho_v1v2")


def reference_exit(subcommand, flags, out):
    """Exit code of the one-alpha reference on these flags; on success it
    writes the artifacts the command writes, to out."""
    settings = dict(_DEFAULTS[subcommand])
    for flag, value in flags:
        if flag == "grid":
            settings["grid_size"] = int(value)
        else:
            settings[flag.replace("-", "_")] = value if flag == "case" else float(value)
    try:
        if subcommand == "gaussian-scan":
            params = GaussianWiretapParams(*(settings[k] for k in SCAN_FIELDS))
            alphas = gaussian.scan_alphas(settings["alpha_min"], settings["alpha_max"],
                                          settings["step"])
            rows, roots = reference_scan(params, alphas)
            write_csv(os.path.join(out, "sweep.csv"),
                      ("alpha", "mi_uy", "mi_uv12", "mi_uz", "deltaI", "R", "RZ"), rows)
            write_json(os.path.join(out, "scan_roots.json"), roots)
        else:
            p = settings["p"]
            thresholds, regime, boundary, c_m = reference_region(
                settings["case"], p, settings["q"], settings["n1"], settings["n2"],
                settings["grid_size"])
            names = ("P1", "P2") if settings["case"] == "1" else ("P3", "P4")
            write_json(os.path.join(out, "thresholds.json"), {
                names[0]: thresholds[0], names[1]: thresholds[1],
                "regime": regime, "c_m": c_m})
            write_csv(os.path.join(out, "boundary.csv"), ("P", "regime", "R", "Rd_cap"),
                      [(float(p), regime, float(r), float(cap)) for r, cap in boundary])
    except (ToolkitError, OverflowError, np.linalg.LinAlgError):
        return 2
    return 0


@given(st.sampled_from(sorted(GAUSSIAN_FLAGS)).flatmap(lambda sub: st.tuples(
    st.just(sub),
    st.lists(st.tuples(st.sampled_from(GAUSSIAN_FLAGS[sub]),
                       st.sampled_from(ADVERSARIAL)), min_size=1, max_size=3),
    st.sampled_from(("1", "2")))))
@settings(max_examples=80, deadline=None)
def test_gaussian_flags_match_the_one_alpha_reference(case):
    # Every run exits 0 or 2 without a traceback, exactly when the one-alpha
    # reference does, and writes the reference's artifact bytes.
    subcommand, flags, which = case
    flags = [(flag, value) for flag, value in flags
             if flag != "grid" or value.lstrip("-").isdigit()]   # argparse's own check
    if subcommand == "gaussian-region":
        flags.insert(0, ("case", which))
    argv = [subcommand] + [f"--{flag}={value}" for flag, value in flags]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, tempfile.TemporaryDirectory() as ref, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv + ["--out", os.path.join(out, "o")])
        assert code == reference_exit(subcommand, flags, ref)
        for name in os.listdir(ref):
            with open(os.path.join(out, "o", name), "rb") as got, \
                    open(os.path.join(ref, name), "rb") as expected:
                assert got.read() == expected.read(), name
    # what a shell user sees: numpy's warnings, then the program's own lines
    stderr = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
                     for w in caught) + err.getvalue()
    assert stderr == "" or stderr.startswith("error:"), stderr
    assert "Traceback" not in stderr
    if code == 2:
        assert any(line.startswith("error:") for line in err.getvalue().splitlines())
