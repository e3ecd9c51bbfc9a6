import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from gaussian_reference import reference_region, reference_scan
from wiretapsi import GaussianWiretapParams, ToolkitError, ValidationError, gaussian
from wiretapsi import cli
from wiretapsi.cli import _DEFAULTS, main
from wiretapsi.modelio import (
    load_sim_config,
    model_to_dict,
    policy_to_dict,
    write_csv,
    write_json,
)
from wiretapsi.reference import degraded_bsc_pair, trend_instance, uniform_input_policy
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
    import wiretapsi.validate as validate

    run_suites = validate.run_suites

    def broken(seed):
        report = run_suites(seed=seed)
        failed = [validate.CheckResult(c.name, False, c.detail)
                  for c in report.checks]
        return validate.ValidationReport(tuple(failed), report.discrepancies)

    # the handler calls run_suites through its home module
    monkeypatch.setattr(validate, "run_suites", broken)
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


def test_discrete_region_refuses_a_negative_seed(tmp_path, model_file, capsys):
    assert main(["discrete-region", "--model", str(model_file), "--seed", "-1",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be a nonnegative integer")
    assert not (tmp_path / "o").exists()


def test_validate_refuses_a_negative_seed(tmp_path, capsys):
    assert main(["validate", "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be a nonnegative integer")
    assert not (tmp_path / "o").exists()


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


# Each subcommand's flags: flag -> (setting, default).  Manifests written by
# earlier versions replay only while these hold.
CLI_FLAGS = {
    "discrete-region": {"--seed": ("seed", 0), "--model": ("model", None),
                        "--u-card": ("u_card", 2), "--random": ("n_random", 2000),
                        "--grid": ("grid_steps", 0), "--mode": ("mode", "v1v2"),
                        "--curve-points": ("curve_points", 33)},
    "gaussian-scan": {"--seed": ("seed", 0), "--p": ("p", 1.0), "--q1": ("q1", 1.0),
                      "--q2": ("q2", 1.0), "--n1": ("n1", 1.0), "--n2": ("n2", 1.0),
                      "--rho-xv1": ("rho_xv1", 0.0), "--rho-xv2": ("rho_xv2", 0.0),
                      "--rho-v1v2": ("rho_v1v2", 0.0), "--alpha-min": ("alpha_min", -2.0),
                      "--alpha-max": ("alpha_max", 2.0), "--step": ("step", 0.05)},
    "gaussian-region": {"--seed": ("seed", 0), "--case": ("case", "1"), "--p": ("p", 1.0),
                        "--q": ("q", 1.0), "--n1": ("n1", 1.0), "--n2": ("n2", 1.0),
                        "--grid": ("grid_size", 64)},
    "simulate": {"--seed": ("seed", None), "--sim-config": ("sim_config", None),
                 "--dump-codebook": ("dump_codebook", False)},
    "validate": {"--seed": ("seed", 0)},
}


def test_flags_map_to_their_settings_and_defaults():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(CLI_FLAGS) == set(_DEFAULTS)
    for subcommand, flags in CLI_FLAGS.items():
        dests = {action.option_strings[0]: action.dest
                 for action in sub.choices[subcommand]._actions}
        assert dests == {"-h": "help", "--out": "out", "--config": "config",
                         **{flag: key for flag, (key, _) in flags.items()}}, subcommand
        assert _DEFAULTS[subcommand] == dict(flags.values()), subcommand
        # a flag left out is None, so the config file or the default holds
        assert vars(parser.parse_args([subcommand])) == {
            "subcommand": subcommand, "out": None, "config": None,
            **{key: None for key, _ in flags.values()}}


@pytest.mark.parametrize("subcommand", sorted(CLI_FLAGS))
def test_help_names_every_flag_with_its_default(capsys, subcommand):
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--help"])
    assert exc.value.code == 0
    options = " ".join(capsys.readouterr().out.split()).split(" options: ", 1)[1]
    for flag, (_, default) in CLI_FLAGS[subcommand].items():
        entry = options.split(f" {flag} ", 1)[1].split("(default: ", 1)
        assert " --" not in entry[0], flag
        assert entry[1].startswith(f"{'none' if default is None else default})"), flag


# contents that no loader can take as a JSON object
UNREADABLE = {"not utf-8": b"\xff\xfe{", "nested past the decoder's depth": b"[" * 100_000,
              "an int past the digit limit": b'{"seed": ' + b"7" * 5_000 + b"}",
              "a number": b"3"}


@pytest.mark.parametrize("content", sorted(UNREADABLE))
@pytest.mark.parametrize("where", ["config", "model", "sim-config", "model_file"])
def test_unreadable_input_files_exit_two(tmp_path, capsys, sim_file, where, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(UNREADABLE[content])
    if where == "model_file":
        sim_file.write_text(json.dumps(dict(json.loads(sim_file.read_text()),
                                            model_file="bad.json")))
    argv = {"config": ["validate", "--config", str(bad)],
            "model": ["discrete-region", "--model", str(bad)],
            "sim-config": ["simulate", "--sim-config", str(bad)],
            "model_file": ["simulate", "--sim-config", str(sim_file)]}[where]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "bad.json" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("out", ["file", "file/sub", "taken"])
def test_an_unwritable_out_exits_two(tmp_path, capsys, out):
    # --out is a file, lies under a file, or holds a directory where an
    # artifact goes; a directory without write permission fails the same
    # way, but a test run as root cannot make one
    (tmp_path / "file").touch()
    (tmp_path / "taken" / "sweep.csv").mkdir(parents=True)
    assert main(["gaussian-scan", "--step", "0.5", "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not list(tmp_path.rglob(".tmp-*"))


@pytest.mark.parametrize("argv", [
    ["gaussian-scan", "--q1", "nan"],
    ["gaussian-scan", "--p", "inf"],
    ["gaussian-scan", "--alpha-min", "nan"],
    ["gaussian-region", "--p", "inf"],
    ["gaussian-region", "--case", "2", "--q", "nan"],
    ["gaussian-scan", "--step", "1e-9"],
    ["gaussian-region", "--grid", "1000000000"],
    ["gaussian-scan", "--p", "1e300"],
    # I(u; y) and I(u; v1, v2) are past what float64 resolves at every
    # alpha but 0, so deltaI is indeterminate
    ["gaussian-scan", "--q1", "1e300"],
    ["gaussian-scan", "--alpha-min", "1e300", "--alpha-max", "1e300"],   # covariance overflow
    ["gaussian-region", "--n1", "1e-300", "--p", "1e9"],   # p / n1 overflows
    ["gaussian-region", "--case", "2", "--p", "1e50"],     # knee rate is inf - inf
    # high regime: I(u; y) at the knee alpha = 1 is past what float64
    # resolves, so the knee rate is indeterminate
    ["gaussian-region", "--p", "1e16", "--q", "1e6"],
    # high regime as well: the knee rate is indeterminate the same way,
    # before any rate is inverted
    ["gaussian-region", "--p", "56234132.5", "--q", "1e-6", "--n1", "1e-8"],
    # x = -v2, so u is fixed by (v1, v2): I(u; v1, v2) is infinite on every
    # row while I(u; z) is 0, and deltaI is indeterminate
    ["gaussian-scan", "--step", "0.25", "--q1", "1e150", "--n1", "1e150", "--rho-xv2", "-1"],
])
def test_gaussian_bad_inputs_exit_two_without_traceback(tmp_path, capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # no numpy warning on the way
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("noise", ["1e8", "1e12", "1e16"])
def test_gaussian_scan_resolves_large_noise(tmp_path, noise):
    # a large but well-conditioned noise is not rank loss: I(u; y) and
    # I(u; z) stay finite and match their closed forms
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["gaussian-scan", "--step", "0.25", "--n1", noise, "--n2", noise,
                     "--rho-v1v2", "0.5", "--out", str(out)]) == 0
    params = GaussianWiretapParams(1.0, 1.0, 1.0, float(noise), float(noise), 0.0, 0.0, 0.5)
    header, *rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 17
    for row in rows:
        cells = dict(zip(header.split(","), map(float, row.split(","))))
        assert not any(math.isnan(v) for v in cells.values())
        for name, closed in (("mi_uy", gaussian.mi_uy), ("mi_uz", gaussian.mi_uz)):
            want = closed(params, cells["alpha"])
            assert math.isfinite(cells[name]) and cells[name] >= 0.0
            assert abs(cells[name] - want) <= 1e-14 + 1e-11 * want


def test_gaussian_scan_refuses_a_correlation_matrix_below_the_psd_floor(tmp_path, capsys):
    # the correlation matrix's determinant is only -8.1e-13, but its least
    # eigenvalue, about -3e-7, fails the PSD test GaussianWiretapParams
    # takes at construction
    rho = {"rho_xv1": 1.0, "rho_xv2": 1.0, "rho_v1v2": 0.9999991}
    a, b, c = rho.values()
    assert -1e-12 < 1.0 - a * a - b * b - c * c + 2.0 * a * b * c < 0.0
    with pytest.raises(ValidationError, match="not PSD"):
        GaussianWiretapParams(p=1.0, q1=1.0, q2=1.0, n1=1.0, n2=1.0, **rho)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["gaussian-scan", "--rho-xv1", "1", "--rho-xv2", "1",
                     "--rho-v1v2", "0.9999991", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not PSD" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_gaussian_scan_on_a_singular_block_prints_no_warning(tmp_path, capsys):
    # at p = 1e-300, var(u | v1, v2) = p lies far below the rounding of
    # q1 - E11, so I(u; v1, v2), about 500 bits wherever alpha != 0, is past
    # what float64 resolves: the scan refuses with one error line, and no
    # numpy warning reaches stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["gaussian-scan", "--p", "1e-300", "--rho-v1v2", "1e-300",
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "indeterminate" in err and err.count("\n") == 1
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


@given(seed=st.sampled_from((-2, -1, 0, 1, 12345, 2**63 - 1, 2**64)),
       n_random=st.integers(-1, 50), grid=st.integers(-1, 3), u_card=st.integers(-1, 8),
       curve_points=st.integers(-1, 100), mode=st.sampled_from(("v1v2", "v1")))
@settings(max_examples=60, deadline=None)
def test_discrete_region_exits_zero_or_two(seed, n_random, grid, u_card, curve_points, mode):
    # Every run exits 0 or 2 with no traceback and no numpy warning; stderr
    # is empty or an error: line.  The model is stateless, so even the
    # finest grid (3 steps over 2 * u_card outcomes) stays a few hundred
    # policies.
    model = degraded_bsc_pair(0.05, 0.2)
    argv = ["discrete-region", "--seed", str(seed), "--random", str(n_random),
            "--grid", str(grid), "--u-card", str(u_card),
            "--curve-points", str(curve_points), "--mode", mode]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as root, contextlib.redirect_stderr(err):
        path = os.path.join(root, "model.json")
        with open(path, "w") as fh:
            json.dump(model_to_dict(model), fh)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv + ["--model", path, "--out", os.path.join(root, "o")])
    assert code in (0, 2)
    assert not caught, [str(w.message) for w in caught]
    stderr = err.getvalue()
    assert (stderr == "") if code == 0 else stderr.startswith("error:"), stderr
    assert "Traceback" not in stderr


def _perturbed(doc, key, index, value):
    """doc with the index-th number under key (mod their count) replaced."""
    doc = json.loads(json.dumps(doc))
    leaves = []

    def walk(node):
        for i, item in enumerate(node):
            if isinstance(item, list):
                walk(item)
            else:
                leaves.append((node, i))
    if key == "cards":
        names = sorted(doc["cards"])
        doc["cards"][names[index % len(names)]] = int(value) if math.isfinite(value) else 2 ** 60
    else:
        walk(doc[key])
        node, i = leaves[index % len(leaves)]
        node[i] = value
    return doc


# simulate fields: values that make a small runnable config, and values
# that must be refused before any table is built
SIM_GOOD = {"n": st.integers(4, 8), "rate": st.floats(0.15, 0.4),
            "epsilon_typ": st.floats(0.05, 0.45), "trials": st.integers(1, 30),
            "seed": st.sampled_from((0, 1, 2 ** 63 - 1, 2 ** 64))}
SIM_BAD = {"n": st.sampled_from((-1, 0, 17, 2 ** 60)),
           "rate": st.sampled_from((-1.0, 0.0, 1e6, 1e300, math.inf, math.nan)),
           "epsilon_typ": st.sampled_from((-1.0, 0.0, 5.0, math.inf, math.nan)),
           "trials": st.sampled_from((-1, 0, 2 ** 27, 2 ** 60, 2 ** 63 - 1, 2 ** 64)),
           "seed": st.sampled_from((-1, -2 ** 63))}


@st.composite
def sim_inputs(draw):
    """A sim config with at most one field broken, or one model or policy
    number perturbed."""
    broken = draw(st.one_of(st.none(), st.sampled_from(("model",) + tuple(SIM_GOOD))))
    fields = {key: draw(SIM_BAD[key] if key == broken else SIM_GOOD[key]) for key in SIM_GOOD}
    perturb = None
    if broken == "model":
        perturb = draw(st.tuples(
            st.sampled_from(("cards", "state_pmf", "main_kernel", "wiretap_kernel", "policy")),
            st.integers(0, 63),
            st.sampled_from((-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 3.0, 1e300, math.nan, math.inf))))
    return fields, perturb


@given(sim_inputs())
@settings(max_examples=80, deadline=None)
def test_simulate_exits_zero_or_two(case):
    # Every run exits 0 or 2 with no traceback and no numpy warning; stderr
    # is empty or an error: line.  A run that passes its checks is small
    # (n <= 8 over a binary state, at most 30 trials); a huge n, rate or
    # trial count is refused before any table is built.
    fields, perturb = case
    model, policy = trend_instance()
    model_doc, policy_doc = model_to_dict(model), policy_to_dict(policy)
    if perturb is not None:
        key, index, value = perturb
        if key == "policy":
            policy_doc = _perturbed(policy_doc, "table", index, value)
        else:
            model_doc = _perturbed(model_doc, key, index, value)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as root, contextlib.redirect_stderr(err):
        for name, doc in (("model.json", model_doc), ("policy.json", policy_doc),
                          ("sim.json", {"model_file": "model.json",
                                        "policy_file": "policy.json", **fields})):
            with open(os.path.join(root, name), "w") as fh:
                json.dump(doc, fh)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["simulate", "--sim-config", os.path.join(root, "sim.json"),
                         "--out", os.path.join(root, "o")])
    event(f"exit {code}")
    assert code in (0, 2)
    assert not caught, [str(w.message) for w in caught]
    stderr = err.getvalue()
    assert (stderr == "") if code == 0 else stderr.startswith("error:"), stderr
    assert "Traceback" not in stderr


@pytest.mark.parametrize("seed", [2 ** 32, 2 ** 64 - 1, 2 ** 64, 2 ** 100])
def test_seeds_past_64_bits_run(tmp_path, model_file, capsys, seed):
    # seeds of two to four 32-bit words reach every generator of the program
    assert main(["validate", "--seed", str(seed), "--out", str(tmp_path / "v")]) == 0
    assert main(["discrete-region", "--model", str(model_file), "--random", "3",
                 "--seed", str(seed), "--out", str(tmp_path / "d")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert manifest["settings"]["seed"] == seed


def artifacts(out):
    return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


def test_main_called_repeatedly_leaks_no_setting(tmp_path, model_file, capsys):
    # The parser is built once per process.  Interleaved subcommands and
    # flags give what a freshly built parser gives, the calls without a
    # flag get its default back, and usage errors still exit 2.
    model = str(model_file)
    calls = [
        ["gaussian-scan", "--p", "2.0", "--rho-xv1", "0.3", "--step", "0.5"],
        ["discrete-region", "--model", model, "--random", "7", "--mode", "v1",
         "--curve-points", "4", "--seed", "3"],
        ["gaussian-scan", "--step", "0.5"],
        ["discrete-region", "--model", model, "--random", "7"],
        ["gaussian-region", "--case", "2", "--grid", "8", "--p", "3.0"],
        ["gaussian-region", "--grid", "8"],
        ["validate", "--seed", "5"],
        ["validate"],
    ]
    assert cli._build_parser() is cli._build_parser()
    for i, argv in enumerate(calls):
        assert main(argv + ["--out", str(tmp_path / f"warm{i}")]) == 0
    for i, argv in enumerate(calls):
        cli._build_parser.cache_clear()
        assert main(argv + ["--out", str(tmp_path / f"fresh{i}")]) == 0
        assert artifacts(tmp_path / f"warm{i}") == artifacts(tmp_path / f"fresh{i}"), argv
    # the calls without a flag hold the defaults, not the flags of the call before
    defaults = {2: dict(_DEFAULTS["gaussian-scan"], step=0.5),
                3: dict(_DEFAULTS["discrete-region"], model=model, n_random=7),
                5: dict(_DEFAULTS["gaussian-region"], grid_size=8),
                7: _DEFAULTS["validate"]}
    for i, want in defaults.items():
        assert json.loads((tmp_path / f"warm{i}" / "manifest.json").read_text())["settings"] == want
    capsys.readouterr()
    for argv in ([], ["gaussian-scan", "--bogus"], ["discrete-region", "--mode", "v9"],
                 ["validate", "--seed", "1.5"], ["simulate", "--dump-codebook", "yes"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
    assert main(calls[2] + ["--out", str(tmp_path / "after")]) == 0
    assert artifacts(tmp_path / "after") == artifacts(tmp_path / "warm2")


# validate --seed flags: (argv words, None if the flag is refused, else the seed)
VALIDATE_SEEDS = [([], 0), (["--seed", "0"], 0), (["--seed", "22"], 22),
                  (["--seed", str(2 ** 64)], 2 ** 64), (["--seed", str(2 ** 100)], 2 ** 100),
                  (["--seed", "-1"], -1), (["--seed", str(-2 ** 70)], -2 ** 70),
                  (["--seed", "1.5"], None), (["--seed", "True"], None),
                  (["--seed", "x"], None)]
# validate --config documents: (document, raw text or None, whether the
# document is accepted, the seed it sets or None)
VALIDATE_CONFIGS = [
    (None, None, True, None), ({}, None, True, None), ({"seed": 7}, None, True, 7),
    ({"seed": 2 ** 64}, None, True, 2 ** 64), ({"seed": -3}, None, True, -3),
    ({"out": "elsewhere"}, None, True, None),
    ({"subcommand": "validate", "version": "0", "settings": {"seed": 9}}, None, True, 9),
    ({"settings": {"seed": 4}}, None, True, 4),
    ({"seed": True}, None, False, None), ({"seed": False}, None, False, None),
    ({"seed": 1.0}, None, False, None), ({"seed": "3"}, None, False, None),
    ({"seed": None}, None, False, None), ({"seed": [0]}, None, False, None),
    ({"sede": 1}, None, False, None), ({"seed": 0, "step": 0.5}, None, False, None),
    ({"subcommand": "gaussian-scan", "settings": {"seed": 0}}, None, False, None),
    ({"subcommand": "simulate", "settings": {"seed": None}}, None, False, None),
    ([], None, False, None), (3, None, False, None), ("seed", None, False, None),
    (None, "{", False, None), (None, '{"seed": NaN}', False, None),
]


@given(st.sampled_from(VALIDATE_SEEDS), st.sampled_from(VALIDATE_CONFIGS))
@settings(max_examples=25, deadline=None)
def test_validate_exits_zero_one_or_two(flag, config):
    # Valid input exits 0 or 1 and writes a validation.json with no NaN;
    # invalid input prints an error: line and exits 2; never a traceback.
    words, flag_seed = flag
    doc, raw, accepted, config_seed = config
    seed = flag_seed if words else (0 if config_seed is None else config_seed)
    valid = flag_seed is not None and accepted and seed >= 0
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as root:
        argv = ["validate", *words, "--out", os.path.join(root, "o")]
        if doc is not None or raw is not None:
            path = os.path.join(root, "config.json")
            with open(path, "w") as fh:
                fh.write(raw if raw is not None else json.dumps(doc))
            argv += ["--config", path]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        event(f"exit {code}")
        stderr = err.getvalue()
        assert "Traceback" not in stderr
        if valid:
            assert code in (0, 1), stderr
            text = open(os.path.join(root, "o", "validation.json")).read()
            assert "NaN" not in text
            manifest = json.load(open(os.path.join(root, "o", "manifest.json")))
            assert manifest["settings"]["seed"] == seed
        else:
            assert code == 2
            assert any("error:" in line for line in stderr.splitlines()), stderr
            assert not os.path.exists(os.path.join(root, "o", "validation.json"))
