"""Artifact checker: invariants for any seed, references for the default seed.

``problems(call, out_dir)`` reads every artifact a call wrote and returns a
list of human-readable problems; an empty list means the call's output is
correct.  Invariants hold for any seed:

* no NaN anywhere, and every artifact parses;
* discrete-region: secrecy_rate <= secrecy_upper_bound, d in [0, 1],
  policy ids inside the budget, one region row per reported point;
* gaussian-scan: R = mi_uy - mi_uv12, deltaI = mi_uz - mi_uv12 and
  RZ = mi_uy - mi_uz on every sweep row, the expected row count;
* gaussian-region: 0 <= boundary cap <= c_m, the regime the inputs were
  drawn in, ordered thresholds;
* simulate: pe and d in [0, 1], d = 1 exactly on the constant-wiretap
  config, the requested trial count;
* validate: every check passes.

``fingerprint(call, out_dir)`` condenses the artifacts (full JSON documents,
CSV row counts plus per-column sum/min/max) and ``compare`` diffs two
fingerprints: floats at REL_TOL relative (ABS_TOL near zero), and ids,
counts, regimes, strings and validate pass/fail exactly.
"""

from __future__ import annotations

import csv
import json
import math
import os

REL_TOL = 1e-9
ABS_TOL = 1e-12
IDENTITY_TOL = 1e-9   # sweep identities on %.12g-formatted columns
CSV_REL = 1e-11       # CSV cells carry 12 significant digits

ARTIFACTS = {
    "discrete-region": ("region.csv", "summary.json"),
    "gaussian-scan": ("sweep.csv", "scan_roots.json"),
    "gaussian-region": ("boundary.csv", "thresholds.json"),
    "simulate": ("report.json",),
    "validate": ("validation.json",),
}


class ArtifactError(Exception):
    """An artifact is missing, unparsable, or holds a NaN."""


def _reject_nan(token: str):
    if token == "NaN":
        raise ArtifactError("NaN in JSON")
    return float(token)


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_nan)
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"{os.path.basename(path)}: {exc}") from exc


def _cell(token: str):
    try:
        return int(token)
    except ValueError:
        pass
    try:
        value = float(token)
    except ValueError:
        return token
    if math.isnan(value):
        raise ArtifactError("NaN in CSV")
    return value


def _load_csv(path: str) -> tuple[list[str], list[list]]:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ArtifactError(f"{os.path.basename(path)}: {exc}") from exc
    if not rows:
        raise ArtifactError(f"{os.path.basename(path)}: empty")
    header, body = rows[0], [[_cell(t) for t in row] for row in rows[1:]]
    if any(len(row) != len(header) for row in body):
        raise ArtifactError(f"{os.path.basename(path)}: ragged rows")
    return header, body


def load(out_dir: str, name: str):
    """One parsed artifact: a JSON document or (header, rows) of a CSV."""
    path = os.path.join(out_dir, name)
    if name.endswith(".csv"):
        return _load_csv(path)
    return _load_json(path)


def _columns(header: list[str], body: list[list]) -> dict[str, list]:
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def _close(a: float, b: float, tol: float) -> bool:
    return a == b or abs(a - b) <= tol * (1.0 + max(abs(a), abs(b)))


def _discrete(call, docs) -> list[str]:
    (header, body), summary = docs["region.csv"], docs["summary.json"]
    out = []
    budget = call.facts["budget"]
    cols = _columns(header, body)
    if header != ["R", "d", "policy_id"]:
        out.append(f"region.csv header {header}")
        return out
    if any(not 0.0 <= d <= 1.0 for d in cols["d"]):
        out.append("region.csv: d outside [0, 1]")
    if any(not (math.isfinite(r) and r >= 0.0) for r in cols["R"]):
        out.append("region.csv: R negative or infinite")
    if any(not -1 <= pid < budget for pid in cols["policy_id"]):
        out.append("region.csv: policy id outside the budget")
    if summary.get("points") != len(body):
        out.append(f"summary.points {summary.get('points')} != {len(body)} rows")
    if not summary["secrecy_rate"] <= summary["secrecy_upper_bound"] + ABS_TOL:
        out.append("summary: secrecy_rate > secrecy_upper_bound")
    if not _close(summary["max_r_u1"], summary["secrecy_rate"], REL_TOL):
        out.append("summary: max_r_u1 differs from secrecy_rate")
    if any(not -1 <= pid < budget for pid in summary["best_policies"].values()):
        out.append("summary: best policy id outside the budget")
    return out


def _scan(call, docs) -> list[str]:
    (header, body), roots = docs["sweep.csv"], docs["scan_roots.json"]
    out = []
    if len(body) != call.facts["rows"]:
        out.append(f"sweep.csv has {len(body)} rows, expected {call.facts['rows']}")
    cols = _columns(header, body)
    identities = (("R", "mi_uy", "mi_uv12"), ("deltaI", "mi_uz", "mi_uv12"),
                  ("RZ", "mi_uy", "mi_uz"))
    for diff, left, right in identities:
        for d, a, b in zip(cols[diff], cols[left], cols[right]):
            if math.isfinite(a) and math.isfinite(b) and not _close(d, a - b, IDENTITY_TOL):
                out.append(f"sweep.csv: {diff} != {left} - {right} ({d} vs {a - b})")
                break
    if any(v < 0.0 for name in ("mi_uy", "mi_uv12", "mi_uz") for v in cols[name]):
        out.append("sweep.csv: negative mutual information")
    star, neg, pos = roots["alpha_star"], roots["alpha_root_neg"], roots["alpha_root_pos"]
    if star is not None and not ((neg is None or neg < star) and (pos is None or star < pos)):
        out.append("scan_roots.json: roots do not bracket alpha_star")
    return out


def _region(call, docs) -> list[str]:
    (header, body), thresholds = docs["boundary.csv"], docs["thresholds.json"]
    out = []
    cols = _columns(header, body)
    c_m = thresholds["c_m"]
    if thresholds["regime"] != call.facts["regime"]:
        out.append(f"regime {thresholds['regime']} != {call.facts['regime']}")
    if set(cols["regime"]) != {call.facts["regime"]}:
        out.append("boundary.csv: regime column disagrees")
    if len(body) != call.facts["rows"]:
        out.append(f"boundary.csv has {len(body)} rows, expected {call.facts['rows']}")
    top = c_m * (1.0 + CSV_REL)
    if any(not 0.0 <= cap <= top for cap in cols["Rd_cap"]):
        out.append("boundary.csv: cap outside [0, c_m]")
    if any(not 0.0 <= r <= top for r in cols["R"]):
        out.append("boundary.csv: R outside [0, c_m]")
    low, high = (thresholds[k] for k in sorted(k for k in thresholds if k.startswith("P")))
    if not low < high:
        out.append("thresholds.json: thresholds not ordered")
    return out


def _simulate(call, docs) -> list[str]:
    report = docs["report.json"]
    out = []
    pe, d = report["pe"], report["d"]
    lo, hi = report["pe_ci95"]
    if not (0.0 <= pe <= 1.0 and 0.0 <= d <= 1.0):
        out.append(f"report.json: pe={pe} or d={d} outside [0, 1]")
    # the interval's ends carry float rounding: at pe = 0 the lower end
    # comes out near 3e-17, not 0
    if not (0.0 <= lo <= pe + ABS_TOL and pe - ABS_TOL <= hi <= 1.0):
        out.append("report.json: Wilson interval does not hold pe")
    if not report["equivocation_min"] - ABS_TOL <= d <= report["equivocation_max"] + ABS_TOL:
        out.append("report.json: d outside [equivocation_min, equivocation_max]")
    if report["trials"] != call.facts["trials"] or report["n"] != call.facts["n"]:
        out.append("report.json: trials or n differ from the config")
    if call.facts["constant_tap"] and d != 1.0:
        out.append(f"report.json: d={d!r} on the constant-wiretap config, expected 1")
    return out


def _validate(call, docs) -> list[str]:
    report = docs["validation.json"]
    failing = [c["name"] for c in report["checks"] if not c["passed"]]
    if failing or not report["passed"]:
        return [f"validation.json: failing checks {failing}"]
    return []


_CHECKS = {"discrete-region": _discrete, "gaussian-scan": _scan,
           "gaussian-region": _region, "simulate": _simulate,
           "validate": _validate}


def problems(call, out_dir: str) -> list[str]:
    """Every way the artifacts of one call are wrong; empty when correct."""
    try:
        docs = {name: load(out_dir, name) for name in ARTIFACTS[call.kind]}
        manifest = load(out_dir, "manifest.json")
    except ArtifactError as exc:
        return [str(exc)]
    out = []
    if manifest.get("subcommand") != call.kind:
        out.append("manifest.json: wrong subcommand")
    try:
        out += _CHECKS[call.kind](call, docs)
    except (KeyError, TypeError, ValueError) as exc:
        out.append(f"malformed artifact: {exc!r}")
    return out


# --- reference fingerprints ------------------------------------------------

def fingerprint(call, out_dir: str) -> dict:
    """Condensed, location-independent view of a call's artifacts."""
    out = {}
    for name in ARTIFACTS[call.kind]:
        doc = load(out_dir, name)
        if name.endswith(".csv"):
            header, body = doc
            cols = {}
            for col, values in _columns(header, body).items():
                if all(isinstance(v, str) for v in values):
                    cols[col] = sorted(set(values))
                else:
                    cols[col] = [sum(values), min(values), max(values)]
            doc = {"rows": len(body), "columns": cols}
        elif name == "validation.json":
            doc = {"passed": doc["passed"],
                   "checks": {c["name"]: c["passed"] for c in doc["checks"]},
                   "discrepancies": doc["discrepancies"]}
        out[name] = doc
    return out


def compare(got, want, where: str = "") -> list[str]:
    """Differences between two fingerprints (want is the reference)."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys differ"]
        return [p for k in sorted(want) for p in compare(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in compare(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if got == want or abs(got - want) <= max(REL_TOL * abs(want), ABS_TOL):
            return []
        return [f"{where}: {got!r} != {want!r}"]
    if got != want or type(got) is not type(want):
        return [f"{where}: {got!r} != {want!r}"]
    return []
