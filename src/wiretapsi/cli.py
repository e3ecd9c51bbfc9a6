"""Command-line front end.

Subcommands: discrete-region, gaussian-scan, gaussian-region, simulate,
validate.  Every run writes its outputs plus a manifest.json into --out; the
manifest holds the fully resolved settings, so

    wiretapsi <subcommand> --config <out>/manifest.json --out <dir2>

reproduces the artifacts byte for byte.  Precedence: command-line flags
override --config file entries, which override built-in defaults.

Every setting is declared once, in _SETTINGS: its default and its kind (a
type, or the strings it may take).  The parser, the defaults, the check on
config values and each flag's --help line are all read from that table.

Exit codes: 0 success, 1 validation-suite failure, 2 usage or input error,
including an input file that cannot be read as JSON, an --out that cannot
be written, and arithmetic that overflows on extreme finite inputs.

Each handler imports the layers it runs and nothing else, so a call compiles
only its own modules: discrete-region loads discrete, probability and
ziggurat, gaussian-scan and gaussian-region load gaussian alone, simulate
loads the simulator with discrete, probability and nodesums, and validate
loads every layer but ziggurat's tables.  None loads numpy.random.
Importing this module loads only errors and modelio.

Environment: WIRETAPSI_THREADS caps the BLAS thread pools; the package's
__init__ exports it before numpy loads.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import os
import re
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


# subcommand -> setting -> (default, kind).  The kind is the type of the
# setting's flag and config value, or the tuple of strings it may take; a
# setting whose default is None may also be null in a config file.
_SETTINGS = {
    "discrete-region": {"seed": (0, int), "model": (None, str), "u_card": (2, int),
                        "n_random": (2000, int), "grid_steps": (0, int),
                        "mode": ("v1v2", ("v1v2", "v1")), "curve_points": (33, int)},
    "gaussian-scan": {"seed": (0, int), "p": (1.0, float), "q1": (1.0, float),
                      "q2": (1.0, float), "n1": (1.0, float), "n2": (1.0, float),
                      "rho_xv1": (0.0, float), "rho_xv2": (0.0, float),
                      "rho_v1v2": (0.0, float), "alpha_min": (-2.0, float),
                      "alpha_max": (2.0, float), "step": (0.05, float)},
    "gaussian-region": {"seed": (0, int), "case": ("1", ("1", "2")), "p": (1.0, float),
                        "q": (1.0, float), "n1": (1.0, float), "n2": (1.0, float),
                        "grid_size": (64, int)},
    "simulate": {"seed": (None, int), "sim_config": (None, str),
                 "dump_codebook": (False, bool)},
    "validate": {"seed": (0, int)},
}
_DEFAULTS = {subcommand: {key: default for key, (default, _) in table.items()}
             for subcommand, table in _SETTINGS.items()}
# the flags that are not "--" plus the setting's name with "-" for "_"
_FLAGS = {"n_random": "--random", "grid_steps": "--grid", "grid_size": "--grid"}
_ABOUT = {"seed": "64-bit RNG seed", "model": "model JSON file",
          "n_random": "random policies to sample",
          "grid_steps": "deterministic simplex grid resolution",
          "sim_config": "simulation JSON (model, policy, n, rate, ...)"}


class _Parser(argparse.ArgumentParser):
    """argparse, taking every negative number a float flag accepts as the
    flag's value: Python 3.11's own pattern misses exponents (-1e-3) and a
    trailing point (-1.), and sees an option there."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged.
    Every flag defaults to None, so a flag given on the command line is
    one that is not None."""
    parser = _Parser(
        prog="wiretapsi",
        description="Wiretap-channel-with-side-information toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for subcommand, table in _SETTINGS.items():
        p = sub.add_parser(subcommand, help=_DISPATCH[subcommand].__doc__)
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--config", type=str, default=None,
                       help="JSON file with flag defaults (a manifest works)")
        for key, (default, kind) in table.items():
            shown = "none" if default is None else default
            options = ({"action": "store_true"} if kind is bool else
                       {"choices": kind} if isinstance(kind, tuple) else {"type": kind})
            p.add_argument(_FLAGS.get(key, "--" + key.replace("_", "-")), dest=key,
                           default=None,
                           help=f"{_ABOUT.get(key, '')} (default: {shown})".lstrip(),
                           **options)
    return parser


def _check_setting(path: str, key: str, value, default, kind) -> None:
    """A config value must be of its setting's kind, by modelio's rule for
    JSON values; null will do where the default is None."""
    if value is None and default is None:
        return
    choices = kind if isinstance(kind, tuple) else ()
    expected = str if choices else kind
    if not modelio.is_kind(value, expected):
        raise UsageError(f"{path}: setting {key!r} must be {expected.__name__}, "
                         f"got {type(value).__name__} {value!r}")
    if choices and value not in choices:
        raise UsageError(f"{path}: setting {key!r} must be one of "
                         f"{', '.join(choices)}, got {value!r}")


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
            _check_setting(args.config, key, value, *_SETTINGS[args.subcommand][key])
            settings[key] = value
    for key in settings:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    return settings


def _from_settings(cls, settings: dict):
    """The dataclass cls built from the settings named as its fields."""
    return cls(**{field.name: settings[field.name] for field in dataclasses.fields(cls)})


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
    """achievable region by policy search"""
    from . import discrete

    settings = _resolve_settings(args)
    if not settings.get("model"):
        raise UsageError("discrete-region needs --model (or a config providing it)")
    settings["model"] = os.path.abspath(settings["model"])
    model = modelio.load_model(settings["model"])
    region = discrete.achievable_points(model, _from_settings(discrete.SearchConfig, settings))
    summary = dict(region.summary, max_r_u1=region.max_r_u1, points=len(region.r))

    out = _out_dir(args)
    modelio.write_region_csv(os.path.join(out, "region.csv"), region)
    modelio.write_json(os.path.join(out, "summary.json"), summary)
    _write_manifest(out, args.subcommand, settings)
    return 0


def _cmd_gaussian_scan(args: argparse.Namespace) -> int:
    """alpha sweep of rates and leakage"""
    from . import gaussian

    settings = _resolve_settings(args)
    params = _from_settings(gaussian.GaussianWiretapParams, settings)
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
    """case thresholds and boundary"""
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
    """random-binning Monte Carlo"""
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
    """run the built-in cross-check suites"""
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
    except OSError as exc:
        # --out cannot be made or written; the atomic writer removed its temp file
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
