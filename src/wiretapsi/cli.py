"""Command-line front end.

Subcommands: discrete-region, gaussian-scan, gaussian-region, simulate,
validate.  Every run writes its outputs plus a manifest.json into --out; the
manifest holds the fully resolved settings, so

    wiretapsi <subcommand> --config <out>/manifest.json --out <dir2>

reproduces the artifacts byte for byte.  Precedence: command-line flags
override --config file entries, which override built-in defaults.

Exit codes: 0 success, 1 validation-suite failure, 2 usage or input error
(including arithmetic that overflows on extreme finite inputs).

Each handler imports the layers it runs and nothing else, so a call compiles
only its own modules: discrete-region loads discrete and probability,
gaussian-scan and gaussian-region load gaussian alone, simulate loads the
simulator with discrete, probability and nodesums, and validate loads every
layer.  Importing this module loads only errors and modelio.

Environment: WIRETAPSI_THREADS caps the BLAS thread pools; the package's
__init__ exports it before numpy loads.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import os
import sys

import numpy as np

from . import __version__, modelio
from .errors import ToolkitError, UsageError

# Layer functions the benchmark's tracer reads and rebinds in this namespace,
# resolved on first access; the handlers call them through their own modules.
_LAYER_FUNCTIONS = {"achievable_points": "discrete", "search_summary": "discrete",
                    "run_experiment": "simulator", "run_suites": "validate"}


def __getattr__(name: str):
    module = _LAYER_FUNCTIONS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__package__}.{module}"), name)


_CHOICES = {"mode": ("v1v2", "v1"), "case": ("1", "2")}
# type of the settings whose default is None: the type of their flag
_NONE_DEFAULT_TYPES = {"seed": int, "model": str, "sim_config": str}


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="wiretapsi",
        description="Wiretap-channel-with-side-information toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=None, help="64-bit RNG seed")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--config", type=str, default=None,
                       help="JSON file with flag defaults (a manifest works)")

    p = sub.add_parser("discrete-region", help="achievable region by policy search")
    common(p)
    p.add_argument("--model", type=str, default=None, help="model JSON file")
    p.add_argument("--u-card", dest="u_card", type=int, default=None)
    p.add_argument("--random", dest="n_random", type=int, default=None,
                   help="random policies to sample")
    p.add_argument("--grid", dest="grid_steps", type=int, default=None,
                   help="deterministic simplex grid resolution")
    p.add_argument("--mode", choices=_CHOICES["mode"], default=None)
    p.add_argument("--curve-points", dest="curve_points", type=int, default=None)

    p = sub.add_parser("gaussian-scan", help="alpha sweep of rates and leakage")
    common(p)
    for flag in ("p", "q1", "q2", "n1", "n2"):
        p.add_argument(f"--{flag}", type=float, default=None)
    for flag in ("rho-xv1", "rho-xv2", "rho-v1v2"):
        p.add_argument(f"--{flag}", dest=flag.replace("-", "_"),
                       type=float, default=None)
    p.add_argument("--alpha-min", dest="alpha_min", type=float, default=None)
    p.add_argument("--alpha-max", dest="alpha_max", type=float, default=None)
    p.add_argument("--step", type=float, default=None)

    p = sub.add_parser("gaussian-region", help="case thresholds and boundary")
    common(p)
    p.add_argument("--case", choices=_CHOICES["case"], default=None)
    for flag in ("p", "q", "n1", "n2"):
        p.add_argument(f"--{flag}", type=float, default=None)
    p.add_argument("--grid", dest="grid_size", type=int, default=None)

    p = sub.add_parser("simulate", help="random-binning Monte Carlo")
    common(p)
    p.add_argument("--sim-config", dest="sim_config", type=str, default=None,
                   help="simulation JSON (model, policy, n, rate, ...)")
    p.add_argument("--dump-codebook", dest="dump_codebook",
                   action="store_true", default=None)

    p = sub.add_parser("validate", help="run the built-in cross-check suites")
    common(p)
    return parser


_DEFAULTS = {
    "discrete-region": {"seed": 0, "model": None, "u_card": 2,
                        "n_random": 2000, "grid_steps": 0, "mode": "v1v2",
                        "curve_points": 33},
    "gaussian-scan": {"seed": 0, "p": 1.0, "q1": 1.0, "q2": 1.0,
                      "n1": 1.0, "n2": 1.0, "rho_xv1": 0.0, "rho_xv2": 0.0,
                      "rho_v1v2": 0.0, "alpha_min": -2.0, "alpha_max": 2.0,
                      "step": 0.05},
    "gaussian-region": {"seed": 0, "case": "1", "p": 1.0, "q": 1.0,
                        "n1": 1.0, "n2": 1.0, "grid_size": 64},
    "simulate": {"seed": None, "sim_config": None, "dump_codebook": False},
    "validate": {"seed": 0},
}


def _check_setting(path: str, key: str, value, default) -> None:
    """A config value must have its default's type: int, float (an int
    will do), str or bool; a bool is not a number.  Where the default is
    None, null is accepted and otherwise the flag's type is required."""
    if default is None:
        if value is None:
            return
        kind = _NONE_DEFAULT_TYPES[key]
    else:
        kind = type(default)
    if kind is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise UsageError(f"{path}: setting {key!r} must be {kind.__name__}, "
                         f"got {type(value).__name__} {value!r}")
    if key in _CHOICES and value not in _CHOICES[key]:
        raise UsageError(f"{path}: setting {key!r} must be one of "
                         f"{', '.join(_CHOICES[key])}, got {value!r}")


def _resolve_settings(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    settings = dict(_DEFAULTS[args.subcommand])
    if args.config:
        doc = modelio.load_json(args.config)
        if isinstance(doc, dict) and "settings" in doc:
            if doc.get("subcommand") not in (None, args.subcommand):
                raise UsageError(
                    f"manifest is for {doc.get('subcommand')!r}, not {args.subcommand!r}")
            doc = doc["settings"]
        if not isinstance(doc, dict):
            raise UsageError(f"{args.config}: config must be a JSON object")
        for key, value in doc.items():
            if key in ("out",):
                continue
            if key not in settings:
                raise UsageError(f"{args.config}: unknown setting {key!r}")
            _check_setting(args.config, key, value, _DEFAULTS[args.subcommand][key])
            settings[key] = value
    for key in settings:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    return settings


def _out_dir(args: argparse.Namespace) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_manifest(out: str, subcommand: str, settings: dict) -> None:
    modelio.write_json(os.path.join(out, "manifest.json"), {
        "subcommand": subcommand,
        "version": __version__,
        "settings": settings,
    })


def _cmd_discrete_region(args: argparse.Namespace) -> int:
    from . import discrete

    settings = _resolve_settings(args)
    if not settings.get("model"):
        raise UsageError("discrete-region needs --model (or a config providing it)")
    settings["model"] = os.path.abspath(settings["model"])
    model = modelio.load_model(settings["model"])
    search = discrete.SearchConfig(u_card=settings["u_card"],
                                   n_random=settings["n_random"],
                                   grid_steps=settings["grid_steps"],
                                   seed=settings["seed"],
                                   mode=settings["mode"],
                                   curve_points=settings["curve_points"])
    region = discrete.achievable_points(model, search)
    summary = dict(region.summary, max_r_u1=region.max_r_u1, points=len(region.r))

    out = _out_dir(args)
    modelio.write_region_csv(os.path.join(out, "region.csv"), region)
    modelio.write_json(os.path.join(out, "summary.json"), summary)
    _write_manifest(out, args.subcommand, settings)
    return 0


def _cmd_gaussian_scan(args: argparse.Namespace) -> int:
    from . import gaussian

    settings = _resolve_settings(args)
    params = gaussian.GaussianWiretapParams(
        settings["p"], settings["q1"], settings["q2"],
        settings["n1"], settings["n2"], settings["rho_xv1"],
        settings["rho_xv2"], settings["rho_v1v2"])
    alphas = gaussian.scan_alphas(settings["alpha_min"], settings["alpha_max"],
                                  settings["step"])
    uy, uv, uz = gaussian.mi_stack(params, alphas, ("y",), ("v1", "v2"), ("z",))
    columns = (np.asarray(alphas), uy, uv, uz,
               gaussian._gap(uz, uv, "leakage", "mi_uz - mi_uv12"),
               gaussian._gap(uy, uv, "rate", "mi_uy - mi_uv12"),
               gaussian._gap(uy, uz, "rate cap", "mi_uy - mi_uz"))

    neg, pos = gaussian.leakage_roots(params)
    try:
        star = gaussian.alpha_star(params)
    except ToolkitError:
        star = None

    out = _out_dir(args)
    modelio.write_csv(os.path.join(out, "sweep.csv"),
                      ("alpha", "mi_uy", "mi_uv12", "mi_uz", "deltaI", "R", "RZ"),
                      columns=columns)
    modelio.write_json(os.path.join(out, "scan_roots.json"), {
        "alpha_star": star, "alpha_root_neg": neg, "alpha_root_pos": pos,
    })
    _write_manifest(out, args.subcommand, settings)
    return 0


def _cmd_gaussian_region(args: argparse.Namespace) -> int:
    from . import gaussian

    settings = _resolve_settings(args)
    builder = gaussian.case1_region if settings["case"] == "1" else gaussian.case2_region
    region = builder(settings["p"], settings["q"], settings["n1"],
                     settings["n2"], grid_size=settings["grid_size"])
    names = ("P1", "P2") if region.case_id == "CaseI" else ("P3", "P4")

    out = _out_dir(args)
    modelio.write_json(os.path.join(out, "thresholds.json"), {
        names[0]: region.thresholds[0],
        names[1]: region.thresholds[1],
        "regime": region.regime,
        "c_m": region.c_m,
    })
    rows = [(float(settings["p"]), region.regime, float(r), float(cap))
            for r, cap in region.boundary]
    modelio.write_csv(os.path.join(out, "boundary.csv"),
                      ("P", "regime", "R", "Rd_cap"), rows)
    _write_manifest(out, args.subcommand, settings)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from . import simulator

    settings = _resolve_settings(args)
    path = settings.get("sim_config")
    if not path:
        raise UsageError("simulate needs --sim-config (or a config providing it)")
    settings["sim_config"] = os.path.abspath(path)
    config = modelio.load_sim_config(settings["sim_config"])
    if settings.get("seed") is not None:
        config = dataclasses.replace(config, seed=settings["seed"])

    report = simulator.run_experiment(config)
    out = _out_dir(args)
    modelio.write_json(os.path.join(out, "report.json"), report.to_dict())
    if settings.get("dump_codebook"):
        modelio.dump_codebook_text(os.path.join(out, "codebook.txt"),
                                   simulator.build_codebook(config), config.rate)
    _write_manifest(out, args.subcommand, settings)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from . import validate

    settings = _resolve_settings(args)
    report = validate.run_suites(seed=settings["seed"])
    out = _out_dir(args)
    modelio.write_json(os.path.join(out, "validation.json"), report.to_dict())
    _write_manifest(out, args.subcommand, settings)
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.detail}")
    print(f"{len(report.discrepancies)} formula discrepancy record(s) on file")
    return 0 if report.passed else 1


_DISPATCH = {
    "discrete-region": _cmd_discrete_region,
    "gaussian-scan": _cmd_gaussian_scan,
    "gaussian-region": _cmd_gaussian_region,
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.subcommand](args)
    except ToolkitError as exc:
        detail = getattr(exc, "expression", None)
        suffix = f" [{detail}]" if detail else ""
        print(f"error: {exc}{suffix}", file=sys.stderr)
        return 2
    except (OverflowError, np.linalg.LinAlgError) as exc:
        # inputs finite but so large that the arithmetic overflows
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
