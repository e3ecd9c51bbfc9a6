"""Gaussian wiretap channel with correlated additive states.

The transmit symbol x has power p; the main channel adds a state v1 (variance
q1, known at the encoder) and noise of variance n1, the wiretap channel adds
v2 (variance q2, hidden) and noise of variance n2.  The auxiliary variable is
linear, u = x + alpha*v1, so every information quantity is a determinant
ratio of the jointly Gaussian vector (u, v1, v2, y, z).

Two code paths coexist on purpose.  oracle_mi computes MI from covariance
determinants with rank reduction and is authoritative everywhere; the
mi_uy/mi_uv12/mi_uz/alpha_star_closed_form functions carry the hand-derived
closed forms exactly as written so the validation suite can diff the two.
Region and root construction use the oracle path only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateGeometryError, UsageError, ValidationError
from .probability import _clamp_mi

AXES = ("u", "v1", "v2", "y", "z")

LN2 = math.log(2.0)
EIG_REL_TOL = 1e-12
DET_SAFE_REL = 1e-9      # fast determinant path only when dets clear this
ROOT_ALPHA_CAP = 1e3
ROOT_ALPHA_TOL = 1e-12
RATE_BISECT_TOL = 1e-10


@dataclass(frozen=True)
class GaussianWiretapParams:
    p: float
    q1: float
    q2: float
    n1: float
    n2: float
    rho_xv1: float = 0.0
    rho_xv2: float = 0.0
    rho_v1v2: float = 0.0

    def __post_init__(self):
        if not self.p > 0:
            raise ValidationError(f"input power must be positive, got p={self.p}")
        if self.q1 < 0 or self.q2 < 0:
            raise ValidationError(f"state variances must be nonnegative, got q1={self.q1}, q2={self.q2}")
        if not (self.n1 > 0 and self.n2 > 0):
            raise ValidationError(f"noise variances must be positive, got n1={self.n1}, n2={self.n2}")
        for name in ("rho_xv1", "rho_xv2", "rho_v1v2"):
            value = getattr(self, name)
            if not -1.0 <= value <= 1.0:
                raise ValidationError(f"{name}={value} outside [-1, 1]")
        # A zero-variance state has no defined correlation; force zero.
        if self.q1 == 0 and (self.rho_xv1 != 0 or self.rho_v1v2 != 0):
            raise ValidationError("q1=0 requires rho_xv1 = rho_v1v2 = 0")
        if self.q2 == 0 and (self.rho_xv2 != 0 or self.rho_v1v2 != 0):
            raise ValidationError("q2=0 requires rho_xv2 = rho_v1v2 = 0")
        d = self.correlation_determinant
        if d < -1e-12:
            raise ValidationError(
                f"(x, v1, v2) correlation matrix is not PSD: determinant {d}")

    @property
    def correlation_determinant(self) -> float:
        a, b, c = self.rho_xv1, self.rho_xv2, self.rho_v1v2
        return 1.0 - a * a - b * b - c * c + 2.0 * a * b * c

    # Covariance terms shared by every formula below.
    @property
    def c_xv1(self) -> float:
        return self.rho_xv1 * math.sqrt(self.p * self.q1)

    @property
    def c_xv2(self) -> float:
        return self.rho_xv2 * math.sqrt(self.p * self.q2)

    @property
    def c_v12(self) -> float:
        return self.rho_v1v2 * math.sqrt(self.q1 * self.q2)

    @property
    def var_y(self) -> float:
        return self.p + self.q1 + self.n1 + 2.0 * self.c_xv1

    @property
    def var_z(self) -> float:
        return self.p + self.q2 + self.n2 + 2.0 * self.c_xv2

    def var_u(self, alpha: float) -> float:
        return self.p + alpha * alpha * self.q1 + 2.0 * alpha * self.c_xv1


def case1_params(p: float, q: float, n1: float, n2: float) -> GaussianWiretapParams:
    """Both channels see the same state: q1=q2=q, v2 a copy of v1."""
    return GaussianWiretapParams(p, q, q, n1, n2, 0.0, 0.0, 1.0)


def case2_params(p: float, q: float, n1: float, n2: float) -> GaussianWiretapParams:
    """Independent equal-variance states, all correlations zero."""
    return GaussianWiretapParams(p, q, q, n1, n2, 0.0, 0.0, 0.0)


def joint_covariance(params: GaussianWiretapParams, alpha: float) -> np.ndarray:
    """Covariance of (u, v1, v2, y, z), assembled by bilinearity.

    Rows of the mixing matrix express each output in the independent-source
    basis (x, v1, v2, eta1, eta2); the x/v1/v2 block carries the correlations.
    """
    p, q1, q2 = params.p, params.q1, params.q2
    base = np.array([
        [p, params.c_xv1, params.c_xv2, 0.0, 0.0],
        [params.c_xv1, q1, params.c_v12, 0.0, 0.0],
        [params.c_xv2, params.c_v12, q2, 0.0, 0.0],
        [0.0, 0.0, 0.0, params.n1, 0.0],
        [0.0, 0.0, 0.0, 0.0, params.n2],
    ])
    mix = np.array([
        [1.0, alpha, 0.0, 0.0, 0.0],   # u
        [0.0, 1.0, 0.0, 0.0, 0.0],     # v1
        [0.0, 0.0, 1.0, 0.0, 0.0],     # v2
        [1.0, 1.0, 0.0, 1.0, 0.0],     # y
        [1.0, 0.0, 1.0, 0.0, 1.0],     # z
    ])
    cov = mix @ base @ mix.T
    cov = 0.5 * (cov + cov.T)
    floor = -1e-9 * max(1.0, float(np.max(np.diag(cov))))
    if float(np.linalg.eigvalsh(cov).min()) < floor:
        raise ValidationError("assembled covariance is not PSD within tolerance")
    return cov


def _indices(group: Sequence[str]) -> list[int]:
    out = []
    for name in group:
        if name not in AXES:
            raise UsageError(f"unknown axis {name!r}; expected one of {AXES}")
        out.append(AXES.index(name))
    if len(set(out)) != len(out):
        raise UsageError(f"group {tuple(group)} repeats an axis")
    return out


def oracle_mi(cov: np.ndarray, group_a: Sequence[str], group_b: Sequence[str]) -> float:
    """MI in bits from determinant ratios; +inf marks a singular joint.

    Rank-deficient marginals (a constant or a duplicated coordinate) are
    projected onto their positive eigenspace first, so quantities like
    I(u; v1, v2) stay finite when v2 is a deterministic copy of v1.
    """
    ia, ib = _indices(group_a), _indices(group_b)
    if set(ia) & set(ib):
        raise UsageError("groups must be disjoint")
    if not ia or not ib:
        return 0.0
    joint = cov[ia + ib][:, ia + ib]
    sig_a = joint[: len(ia), : len(ia)]
    sig_b = joint[len(ia):, len(ia):]

    scale = max(1.0, float(joint.diagonal().max()))
    det_a, det_b, det_j = (float(np.linalg.det(m)) for m in (sig_a, sig_b, joint))
    safe = DET_SAFE_REL * scale
    if det_a > safe ** len(ia) and det_b > safe ** len(ib) and det_j > safe ** len(ia + ib):
        return _clamp_mi(0.5 * (math.log(det_a) + math.log(det_b) - math.log(det_j)) / LN2)

    def reduce(mat: np.ndarray) -> tuple[np.ndarray, float]:
        w, vec = np.linalg.eigh(mat)
        keep = w > EIG_REL_TOL * max(1.0, float(w.max(initial=0.0)))
        return vec[:, keep], float(np.log(w[keep]).sum())

    basis_a, logdet_a = reduce(sig_a)
    basis_b, logdet_b = reduce(sig_b)
    if basis_a.shape[1] == 0 or basis_b.shape[1] == 0:
        return 0.0
    trans = np.zeros((len(ia) + len(ib), basis_a.shape[1] + basis_b.shape[1]))
    trans[: len(ia), : basis_a.shape[1]] = basis_a
    trans[len(ia):, basis_a.shape[1]:] = basis_b
    reduced = trans.T @ joint @ trans
    w = np.linalg.eigvalsh(0.5 * (reduced + reduced.T))
    if float(w.min()) <= EIG_REL_TOL * max(1.0, float(w.max(initial=0.0))):
        return math.inf
    return _clamp_mi(0.5 * (logdet_a + logdet_b - float(np.log(w).sum())) / LN2)


def _mi(params: GaussianWiretapParams, alpha: float, group_b: Sequence[str]) -> float:
    return oracle_mi(joint_covariance(params, alpha), ("u",), group_b)


# --- hand-derived closed forms, kept exactly as written ------------------
# These are an isolated code path for agreement testing against oracle_mi;
# nothing downstream consumes them.

def _half_log2(numerator: float, denominator: float, expression: str) -> float:
    if denominator <= 0.0 or numerator <= 0.0:
        bad, value = (("denominator", denominator) if denominator <= 0.0
                      else ("numerator", numerator))
        raise DegenerateGeometryError(
            f"closed form has nonpositive {bad} in {expression}",
            expression=expression, value=value)
    return 0.5 * math.log2(numerator / denominator)


def mi_uy(params: GaussianWiretapParams, alpha: float) -> float:
    vu = params.var_u(alpha)
    vy = params.var_y
    cuy = params.p + alpha * params.q1 + (alpha + 1.0) * params.c_xv1
    return _half_log2(vu * vy, vu * vy - cuy * cuy,
                      "var_u*var_y - cov_uy^2")


def mi_uv12(params: GaussianWiretapParams, alpha: float) -> float:
    vu = params.var_u(alpha)
    rho2 = params.rho_v1v2 * params.rho_v1v2
    return _half_log2((1.0 - rho2) * vu,
                      params.p * params.correlation_determinant,
                      "p * correlation_determinant")


def mi_uz(params: GaussianWiretapParams, alpha: float) -> float:
    vu = params.var_u(alpha)
    vz = params.var_z
    cuz = (params.p + params.c_xv2
           + alpha * params.c_xv1 + alpha * params.c_v12)
    return _half_log2(vu * vz, vu * vz - cuz * cuz,
                      "var_u*var_z - cov_uz^2")


def leakage_at_zero_closed_form(params: GaussianWiretapParams) -> float:
    return _half_log2(
        params.var_z * params.correlation_determinant,
        params.q2 * (1.0 - params.rho_xv2 ** 2) + params.n2 + 2.0 * params.c_xv2,
        "q2*(1 - rho_xv2^2) + n2 + 2*c_xv2")


def alpha_star_closed_form(params: GaussianWiretapParams) -> float:
    # Kept exactly as derived, including the sqrt(p*q1) factor multiplying
    # rho_xv2 in the numerator; the validation suite diffs this against the
    # authoritative maximizer.
    c1, c2, c3 = params.c_xv1, params.c_xv2, params.c_v12
    vz = params.p + params.n2 + params.q2 + 2.0 * c2
    numerator = ((c1 + c3) * (params.p + params.rho_xv2 * math.sqrt(params.p * params.q1))
                 - c1 * vz)
    denominator = (c1 + c3) ** 2 - 2.0 * params.q1 * vz
    if abs(denominator) <= 1e-12 * max(1.0, abs((c1 + c3) ** 2), abs(2.0 * params.q1 * vz)):
        raise DegenerateGeometryError(
            "closed-form maximizer denominator vanished",
            expression="(c_xv1 + c_v12)^2 - 2*q1*var_z", value=denominator)
    return -numerator / denominator


# --- oracle-backed quantities ---------------------------------------------

def leakage(params: GaussianWiretapParams, alpha: float) -> float:
    """Leakage I(u;z) - I(u;v1,v2) in bits; the sign decides whether the
    eavesdropper or the state cost limits the full-secrecy corner."""
    uz = _mi(params, alpha, ("z",))
    uv = _mi(params, alpha, ("v1", "v2"))
    if math.isinf(uz) and math.isinf(uv):
        raise DegenerateGeometryError(
            "leakage is indeterminate: both mutual informations diverge",
            expression="mi_uz - mi_uv12")
    return uz - uv


def r_alpha(params: GaussianWiretapParams, alpha: float) -> float:
    """State-penalized main rate I(u;y) - I(u;v1,v2)."""
    return _mi(params, alpha, ("y",)) - _mi(params, alpha, ("v1", "v2"))


def rz_alpha(params: GaussianWiretapParams, alpha: float) -> float:
    """Eavesdropper-penalized rate I(u;y) - I(u;z)."""
    return _mi(params, alpha, ("y",)) - _mi(params, alpha, ("z",))


def alpha_star(params: GaussianWiretapParams) -> float:
    """Authoritative leakage maximizer.

    The leakage denominator var_u*var_z - cov_uz^2 is an upward parabola in
    alpha whose minimum this returns; it drives roots and regions.  The
    hand-derived closed form is alpha_star_closed_form and differs on part
    of the domain, which the validation scan reports.
    """
    vz = params.var_z
    e = params.p + params.c_xv2
    f = params.c_xv1 + params.c_v12
    denominator = params.q1 * vz - f * f
    if abs(denominator) <= 1e-12 * max(1.0, params.q1 * vz, f * f):
        raise DegenerateGeometryError(
            "leakage has no interior maximizer (flat in alpha)",
            expression="q1*var_z - (c_xv1 + c_v12)^2", value=denominator)
    return (e * f - params.c_xv1 * vz) / denominator


def leakage_curve(params: GaussianWiretapParams, alphas: np.ndarray) -> np.ndarray:
    """Vectorized leakage over an alpha grid.

    Same determinant arithmetic as the oracle path, written with explicit
    2x2/3x3 minors so sweeps stay cheap; rank-deficient state blocks are
    resolved structurally (q=0 or |rho_v1v2|=1) instead of eigendecomposed.
    """
    alphas = np.asarray(alphas, dtype=float)
    p, q1, q2 = params.p, params.q1, params.q2
    c1, c2, c3 = params.c_xv1, params.c_xv2, params.c_v12
    vu = p + alphas * alphas * q1 + 2.0 * alphas * c1
    vz = params.var_z
    cuz = (p + c2) + alphas * (c1 + c3)

    with np.errstate(divide="ignore", invalid="ignore"):
        den_uz = vu * vz - cuz * cuz
        mi_z = np.where(den_uz > 0, 0.5 * np.log2(vu * vz / den_uz), np.inf)

        if q1 == 0.0 and q2 == 0.0:
            mi_v = np.zeros_like(alphas)
        elif q2 == 0.0 or abs(params.rho_v1v2) == 1.0 or q1 == 0.0:
            # (v1, v2) spans one dimension; pick the nondegenerate one.
            if q1 > 0:
                qs, cus = q1, c1 + alphas * q1
            else:
                qs, cus = q2, np.full_like(alphas, c2)
            den_uv = vu * qs - cus * cus
            mi_v = np.where(den_uv > 0, 0.5 * np.log2(vu * qs / den_uv), np.inf)
        else:
            det_states = q1 * q2 * (1.0 - params.rho_v1v2 ** 2)
            cuv1 = c1 + alphas * q1
            cuv2 = c2 + alphas * c3
            det3 = (vu * det_states - cuv1 * (cuv1 * q2 - cuv2 * c3)
                    + cuv2 * (cuv1 * c3 - cuv2 * q1))
            mi_v = np.where(det3 > 0, 0.5 * np.log2(vu * det_states / det3), np.inf)

        out = mi_z - mi_v
    out[vu <= EIG_REL_TOL * max(1.0, p)] = 0.0
    return out


@dataclass(frozen=True)
class LeakageProfile:
    alpha_grid: tuple[float, ...]
    delta_i: tuple[float, ...]
    alpha_star: float
    alpha_root_neg: Optional[float]
    alpha_root_pos: Optional[float]


def leakage_roots(params: GaussianWiretapParams) -> tuple[Optional[float], Optional[float]]:
    """Zero crossings of the leakage on each side of its maximizer.

    Brackets expand geometrically up to |alpha| = 1e3; a side with no sign
    change (leakage stays positive, e.g. it saturates above zero) reports
    None.  A flat leakage (q1 = 0) has no roots at all.
    """
    try:
        star = alpha_star(params)
    except DegenerateGeometryError:
        return None, None
    peak = leakage(params, star)
    if not peak > 0.0:
        return None, None

    def find(direction: float) -> Optional[float]:
        step = max(1.0, abs(star))
        inner = star
        while True:
            outer = star + direction * step
            if abs(outer) > ROOT_ALPHA_CAP:
                return None
            value = leakage(params, outer)
            if value < 0.0:
                break
            if value == 0.0:
                return outer
            inner = outer
            step *= 2.0
        lo, hi = inner, outer
        while abs(hi - lo) > ROOT_ALPHA_TOL:
            mid = 0.5 * (lo + hi)
            if leakage(params, mid) >= 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    return find(-1.0), find(+1.0)


def scan_leakage(params: GaussianWiretapParams, alphas: Sequence[float]) -> LeakageProfile:
    grid = np.asarray(list(alphas), dtype=float)
    delta = leakage_curve(params, grid)
    neg, pos = leakage_roots(params)
    try:
        star = alpha_star(params)
    except DegenerateGeometryError:
        star = math.nan
    return LeakageProfile(tuple(grid.tolist()), tuple(float(v) for v in delta),
                          star, neg, pos)


# --- Case I / Case II regions ----------------------------------------------

@dataclass(frozen=True)
class CaseRegion:
    case_id: str                               # "CaseI" or "CaseII"
    thresholds: tuple[float, float]
    regime: str                                # "low", "mid", or "high"
    boundary: tuple[tuple[float, float], ...]  # (R, cap on R*d) samples
    c_m: float


def main_capacity(p: float, n1: float) -> float:
    return 0.5 * math.log2((p + n1) / n1)


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if not value > 0:
            raise UsageError(f"{name} must be positive, got {value}")


def case1_thresholds(q: float, n1: float, n2: float) -> tuple[float, float]:
    _require_positive(q=q, n1=n1, n2=n2)
    p1 = -n1 - q / 2.0 + math.sqrt(q * q + 4.0 * q * n2) / 2.0
    p2 = -q / 2.0 + math.sqrt(q * q + 4.0 * q * (n1 + n2)) / 2.0
    return p1, p2


def case2_thresholds(q: float, n1: float, n2: float) -> tuple[float, float]:
    _require_positive(q=q, n1=n1, n2=n2)
    discriminant = 5.0 * q * q + 4.0 * q * (n2 - n1)
    if discriminant < 0.0:
        raise DegenerateGeometryError(
            "threshold discriminant is negative",
            expression="5*q^2 + 4*q*(n2 - n1)", value=discriminant)
    p3 = ((q - 2.0 * n1) + math.sqrt(discriminant)) / 2.0
    p4 = q / 2.0 + math.sqrt(5.0 * q * q + 4.0 * q * n2) / 2.0
    return p3, p4


def _solve_alpha_for_rate(params: GaussianWiretapParams, alpha_top: float,
                          target: float) -> float:
    """Invert R(alpha) = target on the increasing segment alpha <= alpha_top."""
    lo = alpha_top - 1.0
    step = 1.0
    while r_alpha(params, lo) > target:
        step *= 2.0
        lo = alpha_top - step
        if step > 1e6:
            raise DegenerateGeometryError(
                "rate inversion bracket did not close",
                expression="r_alpha(lo) <= target", value=target)
    hi = alpha_top
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        value = r_alpha(params, mid)
        if abs(value - target) <= RATE_BISECT_TOL:
            return mid
        if value < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _region(case_id: str, params: GaussianWiretapParams, p: float, n1: float,
            thresholds: tuple[float, float], grid_size: int) -> CaseRegion:
    if grid_size < 1:
        raise UsageError("grid_size must be at least 1")
    c_m = main_capacity(p, n1)
    alpha_top = p / (p + n1)
    pa, pb = thresholds

    if p <= pa:
        regime = "low"
    elif p <= pb:
        regime = "mid"
    else:
        regime = "high"

    if regime == "low":
        def cap(rate: float) -> float:
            return c_m
    else:
        if regime == "mid":
            _, root_pos = leakage_roots(params)
            if root_pos is None:
                raise DegenerateGeometryError(
                    "no positive-side leakage root in the mid regime",
                    expression="leakage_roots(params)[1]")
            knee_alpha = root_pos
        else:
            knee_alpha = 1.0
        knee_rate = r_alpha(params, knee_alpha)
        knee_cap = knee_rate if regime == "mid" else rz_alpha(params, knee_alpha)

        def cap(rate: float) -> float:
            if rate <= knee_rate + 1e-12:
                return knee_cap
            alpha = _solve_alpha_for_rate(params, alpha_top, rate)
            return rz_alpha(params, alpha)

    boundary = []
    for k in range(grid_size + 1):
        rate = c_m * k / grid_size
        boundary.append((rate, min(max(cap(rate), 0.0), c_m)))
    return CaseRegion(case_id, thresholds, regime, tuple(boundary), c_m)


def case1_region(p: float, q: float, n1: float, n2: float,
                 grid_size: int = 64) -> CaseRegion:
    _require_positive(p=p, q=q, n1=n1, n2=n2)
    return _region("CaseI", case1_params(p, q, n1, n2), p, n1,
                   case1_thresholds(q, n1, n2), grid_size)


def case2_region(p: float, q: float, n1: float, n2: float,
                 grid_size: int = 64) -> CaseRegion:
    _require_positive(p=p, q=q, n1=n1, n2=n2)
    return _region("CaseII", case2_params(p, q, n1, n2), p, n1,
                   case2_thresholds(q, n1, n2), grid_size)


def admissible_power(p: float, epsilon: float, rho_xv1: float) -> float:
    """Power left over once typicality slack and state correlation are paid."""
    if not p > 0:
        raise UsageError(f"p must be positive, got {p}")
    if epsilon < 0:
        raise UsageError(f"epsilon must be nonnegative, got {epsilon}")
    if not -1.0 < rho_xv1 < 1.0:
        raise UsageError(f"rho_xv1 must lie strictly inside (-1, 1), got {rho_xv1}")
    rho2 = rho_xv1 * rho_xv1
    return p / (1.0 + 4.0 * epsilon * LN2 + rho2 / (1.0 - rho2))
