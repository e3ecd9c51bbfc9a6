"""Built-in cross-check suites.

Three families: the hand-derived Gaussian closed forms against the
covariance determinant oracle (disagreements become discrepancy records,
never silent preferences), threshold arithmetic and ordering, and the
simulator's posterior against a hand-rolled full enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import gaussian, reference
from .discrete import rate_triplet
from .errors import DegenerateGeometryError, UsageError
# build_codebook, encode and eavesdropper_posterior are not called here, but
# bench/spans.py times them under this module's name as well
from .simulator import (SimConfig, _build_codebook, _encode, _posteriors,  # noqa: F401
                        _selection_table, _Tables, build_codebook,
                        eavesdropper_posterior, encode, run_experiment)

MI_AGREEMENT_TOL = 1e-6
ALPHA_AGREEMENT_TOL = 1e-3
POSTERIOR_CODEBOOK_DRAWS = 8
CODEBOOK_SEED_STRIDE = 1009


@dataclass(frozen=True)
class Discrepancy:
    """One point where a hand-derived closed form and the oracle part ways."""

    quantity: str
    params: dict
    alpha: float | None
    closed_form: float
    reference: float

    @property
    def gap(self) -> float:
        return abs(self.closed_form - self.reference)

    def to_dict(self) -> dict:
        return {"quantity": self.quantity, "params": self.params,
                "alpha": self.alpha, "closed_form": self.closed_form,
                "reference": self.reference, "gap": self.gap}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class ValidationReport:
    checks: list[CheckResult] = field(default_factory=list)
    discrepancies: list[Discrepancy] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in self.checks],
            "discrepancies": [d.to_dict() for d in self.discrepancies],
        }


def _param_grid(seed: int, count: int) -> list[gaussian.GaussianWiretapParams]:
    rng = np.random.default_rng([seed, 17])
    out = []
    while len(out) < count:
        p = float(rng.uniform(0.3, 3.0))
        q1, q2 = (float(rng.uniform(0.0, 2.5)) for _ in range(2))
        n1, n2 = (float(rng.uniform(0.2, 2.0)) for _ in range(2))
        rho1 = float(rng.uniform(-0.8, 0.8)) if q1 > 0 else 0.0
        rho2 = float(rng.uniform(-0.8, 0.8)) if q2 > 0 else 0.0
        rho12 = float(rng.uniform(-0.8, 0.8)) if q1 > 0 and q2 > 0 else 0.0
        det = 1.0 - rho1**2 - rho2**2 - rho12**2 + 2.0 * rho1 * rho2 * rho12
        if det > 1e-6:
            out.append(gaussian.GaussianWiretapParams(
                p, q1, q2, n1, n2, rho1, rho2, rho12))
    return out


def _params_dict(params: gaussian.GaussianWiretapParams) -> dict:
    return {"p": params.p, "q1": params.q1, "q2": params.q2,
            "n1": params.n1, "n2": params.n2, "rho_xv1": params.rho_xv1,
            "rho_xv2": params.rho_xv2, "rho_v1v2": params.rho_v1v2}


def _grid_argmax_alpha(params: gaussian.GaussianWiretapParams,
                       center: float, half_width: float = 10.0,
                       step: float = 1e-3) -> float:
    grid = np.arange(center - half_width, center + half_width + step / 2, step)
    values = gaussian.leakage_curve(params, grid)
    values = np.where(np.isfinite(values), values, -np.inf)
    return float(grid[int(np.argmax(values))])


def formula_discrepancy_scan(seed: int = 0, count: int = 40) -> list[Discrepancy]:
    """Diff every hand-derived closed form against its oracle on a seeded grid.

    The maximizer entries are the expected nonempty core of the report: the
    closed-form expression does not locate the leakage peak away from the
    zero-correlation case, and the grid argmax sides with the authoritative
    formula.
    """
    findings: list[Discrepancy] = []
    alphas = [a / 4.0 for a in range(-8, 9)]
    closed_forms = (("mi_uy", gaussian.mi_uy), ("mi_uv12", gaussian.mi_uv12),
                    ("mi_uz", gaussian.mi_uz))
    for params in _param_grid(seed, count):
        oracle = [m.tolist() for m in gaussian.mi_stack(
            params, alphas, ("y",), ("v1", "v2"), ("z",))]
        for k, alpha in enumerate(alphas):
            for (name, closed), refs in zip(closed_forms, oracle):
                try:
                    value = closed(params, alpha)
                except DegenerateGeometryError:
                    continue
                ref = refs[k]
                if math.isfinite(ref) and abs(value - ref) > MI_AGREEMENT_TOL:
                    findings.append(Discrepancy(name, _params_dict(params),
                                                alpha, value, ref))
        try:
            zero_form = gaussian.leakage_at_zero_closed_form(params)
            true_zero = gaussian.leakage(params, 0.0)
            if math.isfinite(true_zero) and abs(zero_form - true_zero) > MI_AGREEMENT_TOL:
                findings.append(Discrepancy("leakage_at_zero", _params_dict(params),
                                            0.0, zero_form, true_zero))
        except DegenerateGeometryError:
            pass
        try:
            star_form = gaussian.alpha_star_closed_form(params)
            true_star = gaussian.alpha_star(params)
            if abs(star_form - true_star) > ALPHA_AGREEMENT_TOL:
                findings.append(Discrepancy("alpha_star", _params_dict(params),
                                            None, star_form, true_star))
        except DegenerateGeometryError:
            pass
    return findings


def _check_gaussian_agreement(report: ValidationReport, seed: int) -> None:
    """Closed forms vs oracle; anything beyond tolerance must be on record."""
    findings = formula_discrepancy_scan(seed=seed)
    report.discrepancies.extend(findings)
    mi_names = {"mi_uy", "mi_uv12", "mi_uz"}
    unlisted = [f for f in findings if f.quantity in mi_names and f.gap > 1e-3]
    # Large mutual-information gaps would mean the oracle itself is wrong;
    # maximizer and zero-point records are the expected, documented content.
    report.checks.append(CheckResult(
        "gaussian_closed_form_vs_oracle",
        not unlisted,
        f"{len(findings)} discrepancy record(s); "
        f"{len([f for f in findings if f.quantity in mi_names])} on mutual informations"))


def _check_alpha_star_argmax(report: ValidationReport, seed: int) -> None:
    rng = np.random.default_rng([seed, 23])
    worst = 0.0
    for _ in range(10):
        p, q = float(rng.uniform(0.5, 3)), float(rng.uniform(0.2, 2))
        n1, n2 = float(rng.uniform(0.2, 2)), float(rng.uniform(0.2, 2))
        params = gaussian.case1_params(p, q, n1, n2)
        star = gaussian.alpha_star(params)
        worst = max(worst, abs(star - _grid_argmax_alpha(params, star)))
    report.checks.append(CheckResult(
        "alpha_star_grid_argmax", worst <= ALPHA_AGREEMENT_TOL,
        f"max |authoritative - grid argmax| = {worst:.2e}"))


def _check_thresholds(report: ValidationReport, seed: int) -> None:
    rng = np.random.default_rng([seed, 29])
    ordered = True
    for _ in range(200):
        q, n1, n2 = (float(v) for v in rng.uniform(0.05, 3.0, size=3))
        p1, p2 = gaussian.case1_thresholds(q, n1, n2)
        ordered &= p1 < p2
        try:
            p3, p4 = gaussian.case2_thresholds(q, n1, n2)
            ordered &= p3 < p4
        except DegenerateGeometryError:
            pass
    p1, p2 = gaussian.case1_thresholds(1.0, 0.25, 1.0)
    p3, p4 = gaussian.case2_thresholds(1.0, 1.0, 1.0)
    anchors = (abs(p1 - 0.368034) < 1e-6 and abs(p2 - 0.724745) < 1e-6
               and abs(p3 - (math.sqrt(5.0) - 1.0) / 2.0) < 1e-9
               and abs(p4 - 2.0) < 1e-9)
    report.checks.append(CheckResult(
        "threshold_ordering_and_anchors", ordered and anchors,
        f"P1={p1:.6f} P2={p2:.6f} P3={p3:.6f} P4={p4:.6f}"))


def brute_force_posterior(codebook, config: SimConfig, z_rows: np.ndarray) -> np.ndarray:
    """Message posteriors (Z, m) of the observations z_rows (Z, n) by full
    enumeration over (v1, v2, x) sequence tuples through the public
    encoder; exponential in n, usable only on tiny instances.

    The codeword choice in encode() is deterministic, so only its sampled x
    output is discarded; the input law is enumerated explicitly instead.
    The tables are built once and each (v1 sequence, message) pick made
    once; every term is then taken for all observations at once.
    """
    model = config.model
    n = config.n
    state = model.state_pmf.table
    taps = model.wiretap_kernel.table[:, :, z_rows.T]     # (x, v2, n, Z)
    tables = _Tables(config)
    weights = np.zeros((len(z_rows), codebook.bin_count))
    for v1_tuple in product(range(model.card_v1), repeat=n):
        v1_seq = np.array(v1_tuple)
        for j in range(1, codebook.bin_count + 1):
            u_seq, _, _ = _encode(tables, codebook, config, j, v1_seq,
                                  np.random.default_rng(0))
            for v2_tuple in product(range(model.card_v2), repeat=n):
                prior = math.prod(state[v1_tuple[i], v2_tuple[i]] for i in range(n))
                if prior == 0.0:
                    continue
                for x_tuple in product(range(model.card_x), repeat=n):
                    term = np.full(len(z_rows), prior)
                    for i in range(n):
                        term *= (tables.x_dist[u_seq[i], v1_tuple[i], x_tuple[i]]
                                 * taps[x_tuple[i], v2_tuple[i], i])
                    weights[:, j - 1] += term
    return weights / weights.sum(axis=1, keepdims=True)


def _check_posterior_brute_force(report: ValidationReport, seed: int) -> None:
    """The simulator's posterior against full enumeration on a tiny instance.

    A codebook whose bins all look alike to the eavesdropper gives a uniform
    posterior, and agreeing on that proves little.  Such a codebook is
    redrawn from a derived seed, up to POSTERIOR_CODEBOOK_DRAWS times; the
    check fails if every draw is uniform.  Each draw builds its tables and
    selection once and scores its four observations in one batch.
    """
    model, policy = reference.trend_instance()
    for redraws in range(POSTERIOR_CODEBOOK_DRAWS):
        config = SimConfig(model=model, policy=policy, n=4, rate=0.3, epsilon_typ=0.25,
                           trials=1, seed=seed + 3 + CODEBOOK_SEED_STRIDE * redraws)
        tables = _Tables(config)
        codebook = _build_codebook(config, tables)
        _, _, codes = _selection_table(tables, codebook, config)
        rng = np.random.default_rng([seed, 31])
        z_rows = np.array([rng.integers(0, model.card_z, size=config.n) for _ in range(4)])
        posts = _posteriors(tables, codes, z_rows)
        spread = float(np.max(np.abs(posts - 1.0 / config.m)))
        if spread > 1e-3:
            break
    worst = float(np.max(np.abs(posts - brute_force_posterior(codebook, config, z_rows))))
    detail = f"max abs posterior gap = {worst:.2e}, nonuniformity = {spread:.3f}"
    if redraws:
        detail += f", codebook seed {config.seed}"
    report.checks.append(CheckResult(
        "posterior_matches_brute_force", worst < 1e-12 and spread > 1e-3, detail))


def _check_simulator_sanity(report: ValidationReport, seed: int) -> None:
    model, policy = reference.constant_wiretap_instance()
    config = SimConfig(model=model, policy=policy, n=6, rate=0.17,
                       epsilon_typ=0.45, trials=20, seed=seed + 7)
    rep = run_experiment(config)
    triplet = rate_triplet(model, policy)
    ok = rep.d == 1.0 and abs(triplet.mi_uz) < 1e-12
    report.checks.append(CheckResult(
        "constant_wiretap_full_equivocation", ok,
        f"d={rep.d} with I(u;z)={triplet.mi_uz:.2e}"))


def _check_regions(report: ValidationReport) -> None:
    ok = True
    details = []
    for builder, label in ((gaussian.case1_region, "CaseI"),
                           (gaussian.case2_region, "CaseII")):
        region = builder(0.5, 1.0, 0.5, 1.0, grid_size=32)
        caps_ok = all(cap <= region.c_m + 1e-9 for _, cap in region.boundary)
        ok &= caps_ok
        details.append(f"{label}:{region.regime}")
    report.checks.append(CheckResult(
        "region_caps_bounded", ok, " ".join(details)))


def run_suites(seed: int = 0) -> ValidationReport:
    if seed < 0:
        raise UsageError("seed must be a nonnegative integer")
    report = ValidationReport()
    _check_gaussian_agreement(report, seed)
    _check_alpha_star_argmax(report, seed)
    _check_thresholds(report, seed)
    _check_posterior_brute_force(report, seed)
    _check_simulator_sanity(report, seed)
    _check_regions(report)
    return report
