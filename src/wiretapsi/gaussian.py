"""Gaussian wiretap channel with correlated additive states.

The transmit symbol x has power p; the main channel adds a state v1 (variance
q1, known at the encoder) and noise of variance n1, the wiretap channel adds
v2 (variance q2, hidden) and noise of variance n2.  The auxiliary variable is
linear, u = x + alpha*v1, so every information quantity is a determinant
ratio of the jointly Gaussian vector (u, v1, v2, y, z).

One oracle computes every mutual information.  _cov_stack assembles the
covariances of a whole alpha stack, (N, 5, 5), and _oracle_stack takes MI
from their determinants, with rank reduction where a group is singular; the
(v1, v2) block does not depend on alpha, so it is reduced once per stack.
This stack is authoritative: mi_stack feeds the scan rows, the lockstep
rate inversion of the regions, the batched root walk and the validation
scan, and joint_covariance, oracle_mi, r_alpha, rz_alpha and leakage are
one-alpha views of it.  leakage_curve is a checked fast path for long
alpha grids: the same determinant arithmetic written as explicit 2x2/3x3
minors, tested against leakage.  The mi_uy/mi_uv12/mi_uz/
alpha_star_closed_form functions carry the hand-derived closed forms exactly
as written; they are the validation target the suite diffs against the
oracle, and nothing else consumes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
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
ROOT_LOOKAHEAD = 3       # bisection levels valued per stack in leakage_roots
POINT_CAP = 100_000      # refuse scans and region grids with more alphas or rows
_TINY = np.finfo(float).tiny


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
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValidationError(f"{field.name} must be finite, got {value}")
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


# Rows of the mixing matrix express each output in the independent-source
# basis (x, v1, v2, eta1, eta2); entry [0, 1] is alpha.
_MIX = np.array([
    [1.0, 0.0, 0.0, 0.0, 0.0],     # u = x + alpha*v1
    [0.0, 1.0, 0.0, 0.0, 0.0],     # v1
    [0.0, 0.0, 1.0, 0.0, 0.0],     # v2
    [1.0, 1.0, 0.0, 1.0, 0.0],     # y
    [1.0, 0.0, 1.0, 0.0, 1.0],     # z
])


def _cov_stack(params: GaussianWiretapParams, alphas) -> np.ndarray:
    """Covariances of (u, v1, v2, y, z), one per alpha: an (N, 5, 5) stack
    assembled by bilinearity, mix @ base @ mix.T, where the x/v1/v2 block of
    base carries the correlations.  Every matrix must pass the PSD test.
    An entry that overflows raises OverflowError; the public callers
    silence numpy's warning for it.
    """
    alphas = np.asarray(alphas, dtype=float)
    base = np.array([
        [params.p, params.c_xv1, params.c_xv2, 0.0, 0.0],
        [params.c_xv1, params.q1, params.c_v12, 0.0, 0.0],
        [params.c_xv2, params.c_v12, params.q2, 0.0, 0.0],
        [0.0, 0.0, 0.0, params.n1, 0.0],
        [0.0, 0.0, 0.0, 0.0, params.n2],
    ])
    mix = _MIX[np.newaxis].repeat(alphas.size, axis=0)
    mix[:, 0, 1] = alphas
    cov = mix @ base @ mix.transpose(0, 2, 1)
    if not np.isfinite(cov).all():
        raise OverflowError("covariance overflows")
    cov = 0.5 * (cov + cov.transpose(0, 2, 1))
    floor = -1e-9 * np.maximum(1.0, cov.diagonal(0, 1, 2).max(axis=1))
    if (np.linalg.eigvalsh(cov).min(axis=1) < floor).any():
        raise ValidationError("assembled covariance is not PSD within tolerance")
    return cov


def joint_covariance(params: GaussianWiretapParams, alpha: float) -> np.ndarray:
    """Covariance of (u, v1, v2, y, z) at one alpha: a one-element _cov_stack."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _cov_stack(params, [alpha])[0]


def _indices(group: Sequence[str]) -> list[int]:
    out = []
    for name in group:
        if name not in AXES:
            raise UsageError(f"unknown axis {name!r}; expected one of {AXES}")
        out.append(AXES.index(name))
    if len(set(out)) != len(out):
        raise UsageError(f"group {tuple(group)} repeats an axis")
    return out


def _positive_eigenspace(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, eigenvectors and rank of each matrix in a stack.

    eigh sorts eigenvalues ascending, so the kept (positive) eigenspace of
    rank r is the last r columns.  A block that is the same in every matrix
    of the stack, such as (v1, v2) over an alpha stack, is decomposed once.
    """
    if len(block) > 1 and (block == block[:1]).all():
        w, vec = np.linalg.eigh(block[0])
        w, vec = (np.broadcast_to(m, (len(block),) + m.shape) for m in (w, vec))
    else:
        w, vec = np.linalg.eigh(block)
    floor = EIG_REL_TOL * np.maximum(1.0, w[:, -1])
    return w, vec, (w > floor[:, np.newaxis]).sum(axis=-1)


def _reduced_mi(joint: np.ndarray, size_a: int) -> np.ndarray:
    """MI in bits of each joint in a stack, after projecting both groups
    onto their positive eigenspaces; +inf marks a singular reduced joint."""
    size_b = joint.shape[1] - size_a
    w_a, vec_a, rank_a = _positive_eigenspace(joint[:, :size_a, :size_a])
    w_b, vec_b, rank_b = _positive_eigenspace(joint[:, size_a:, size_a:])
    out = np.zeros(len(joint))
    for ra, rb in set(zip(rank_a.tolist(), rank_b.tolist())):
        if ra == 0 or rb == 0:
            continue    # a constant group shares no information
        sel = np.flatnonzero((rank_a == ra) & (rank_b == rb))
        logdet = (np.log(w_a[sel, size_a - ra:]).sum(axis=-1)
                  + np.log(w_b[sel, size_b - rb:]).sum(axis=-1))
        basis_a = vec_a[sel, :, size_a - ra:]
        trans = np.zeros((len(basis_a), size_a + size_b, ra + rb))
        trans[:, :size_a, :ra] = basis_a
        trans[:, size_a:, ra:] = vec_b[sel, :, size_b - rb:]
        reduced = trans.transpose(0, 2, 1) @ joint[sel] @ trans
        w = np.linalg.eigvalsh(0.5 * (reduced + reduced.transpose(0, 2, 1)))
        singular = (w[:, 0] <= EIG_REL_TOL * np.maximum(1.0, w[:, -1])).tolist()
        # Nonsingular rows have every eigenvalue above EIG_REL_TOL, so the
        # floor changes only singular rows, whose logs are discarded.
        logdet_j = np.log(np.maximum(w, _TINY)).sum(axis=-1).tolist()
        out[sel] = [math.inf if flat else _clamp_mi(0.5 * (ld - lj) / LN2)
                    for flat, ld, lj in zip(singular, logdet.tolist(), logdet_j)]
    return out


def _oracle_stack(cov: np.ndarray, group_a: Sequence[str],
                  group_b: Sequence[str]) -> np.ndarray:
    """I(group_a; group_b) in bits for each covariance of an (N, 5, 5) stack.

    Where the determinants of both groups and of their union clear
    DET_SAFE_REL * scale per dimension, MI is a determinant ratio.
    Elsewhere rank-deficient marginals (a constant or a duplicated
    coordinate) are projected onto their positive eigenspace first, so
    quantities like I(u; v1, v2) stay finite when v2 is a deterministic copy
    of v1; +inf marks a singular joint.  The determinant ratio is taken in
    Python floats, element by element (math.log and np.log differ in the
    last bit on some inputs).  A determinant that overflows raises
    OverflowError; the public callers silence numpy's warning for it.
    """
    ia, ib = _indices(group_a), _indices(group_b)
    if set(ia) & set(ib):
        raise UsageError("groups must be disjoint")
    if not ia or not ib:
        return np.zeros(len(cov))
    ka, kb = len(ia), len(ib)
    joint = cov.take(ia + ib, axis=1).take(ia + ib, axis=2)
    det_a = np.linalg.det(joint[:, :ka, :ka]).tolist()
    det_b = np.linalg.det(joint[:, ka:, ka:]).tolist()
    det_j = np.linalg.det(joint).tolist()
    # -inf (a negative det) takes the eigen-reduction below like any other
    if math.inf in det_a or math.inf in det_b or math.inf in det_j:
        raise OverflowError("covariance determinant overflows")
    values, slow = [], []
    for n, top in enumerate(joint.diagonal(0, 1, 2).max(axis=1).tolist()):
        safe = DET_SAFE_REL * max(1.0, top)
        if det_a[n] > safe ** ka and det_b[n] > safe ** kb and det_j[n] > safe ** (ka + kb):
            values.append(_clamp_mi(0.5 * (math.log(det_a[n]) + math.log(det_b[n])
                                           - math.log(det_j[n])) / LN2))
        else:
            values.append(0.0)
            slow.append(n)
    out = np.array(values)
    if slow:
        out[slow] = _reduced_mi(joint.take(slow, axis=0), ka)
    return out


def oracle_mi(cov: np.ndarray, group_a: Sequence[str], group_b: Sequence[str]) -> float:
    """MI in bits from determinant ratios; +inf marks a singular joint.

    A one-element _oracle_stack: rank-deficient marginals are projected onto
    their positive eigenspace, so I(u; v1, v2) stays finite when v2 is a
    deterministic copy of v1.
    """
    with np.errstate(over="ignore"):
        return float(_oracle_stack(cov[np.newaxis], group_a, group_b)[0])


def mi_stack(params: GaussianWiretapParams, alphas,
             *groups: Sequence[str]) -> list[np.ndarray]:
    """I(u; group) in bits at every alpha, one array per group, all from
    one covariance stack."""
    with np.errstate(over="ignore", invalid="ignore"):
        cov = _cov_stack(params, alphas)
        return [_oracle_stack(cov, ("u",), group) for group in groups]


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

def _mi_at(params: GaussianWiretapParams, alpha: float,
           *groups: Sequence[str]) -> list[float]:
    return [float(values[0]) for values in mi_stack(params, [alpha], *groups)]


def leakage(params: GaussianWiretapParams, alpha: float) -> float:
    """Leakage I(u;z) - I(u;v1,v2) in bits; the sign decides whether the
    eavesdropper or the state cost limits the full-secrecy corner."""
    uz, uv = _mi_at(params, alpha, ("z",), ("v1", "v2"))
    if math.isinf(uz) and math.isinf(uv):
        raise DegenerateGeometryError(
            "leakage is indeterminate: both mutual informations diverge",
            expression="mi_uz - mi_uv12")
    return uz - uv


def r_alpha(params: GaussianWiretapParams, alpha: float) -> float:
    """State-penalized main rate I(u;y) - I(u;v1,v2)."""
    uy, uv = _mi_at(params, alpha, ("y",), ("v1", "v2"))
    return uy - uv


def rz_alpha(params: GaussianWiretapParams, alpha: float) -> float:
    """Eavesdropper-penalized rate I(u;y) - I(u;z)."""
    uy, uz = _mi_at(params, alpha, ("y",), ("z",))
    return uy - uz


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
    star = (e * f - params.c_xv1 * vz) / denominator
    if not math.isfinite(star):
        # only inputs so large that the products overflow get here
        raise DegenerateGeometryError(
            "leakage maximizer overflows", expression="alpha_star", value=star)
    return star


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


def _midpoint_tree(lo: float, hi: float, depth: int) -> list[float]:
    """Every midpoint the next `depth` bisection steps on [lo, hi] can
    visit, in heap order: node i halves its interval, and its children
    2i+1 and 2i+2 take the upper (lo = mid) and lower (hi = mid) branch."""
    nodes: list[float] = []
    level = [(lo, hi)]
    for _ in range(depth):
        below = []
        for a, b in level:
            mid = 0.5 * (a + b)
            nodes.append(mid)
            below += [(mid, b), (a, mid)]
        level = below
    return nodes


def leakage_roots(params: GaussianWiretapParams) -> tuple[Optional[float], Optional[float]]:
    """Zero crossings of the leakage on each side of its maximizer.

    Brackets expand geometrically up to |alpha| = 1e3; a side with no sign
    change (leakage stays positive, e.g. it saturates above zero) reports
    None.  A flat leakage (q1 = 0) has no roots at all.

    The walk is the plain one, a doubling ladder and then bisection to
    ROOT_ALPHA_TOL, but its values come in stacks: the whole ladder at once,
    then ROOT_LOOKAHEAD bisection levels of both sides per stack.  Points
    the walk does not visit are computed and dropped; a point a stack
    cannot value (NaN) is recomputed alone, so only a visited point raises.
    """
    try:
        star = alpha_star(params)
    except DegenerateGeometryError:
        return None, None

    def values(points: list[float]) -> list[float]:
        try:
            uz, uv = mi_stack(params, points, ("z",), ("v1", "v2"))
        except (ValidationError, ArithmeticError, np.linalg.LinAlgError):
            return [math.nan] * len(points)
        with np.errstate(invalid="ignore"):
            return (uz - uv).tolist()

    def visit(value: float, alpha: float) -> float:
        return leakage(params, alpha) if math.isnan(value) else value

    ladders = []
    for direction in (-1.0, 1.0):
        rungs, step = [], max(1.0, abs(star))
        while abs(star + direction * step) <= ROOT_ALPHA_CAP:
            rungs.append(star + direction * step)
            step *= 2.0
        ladders.append(rungs)
    first = values([star] + ladders[0] + ladders[1])
    if not visit(first[0], star) > 0.0:
        return None, None

    roots: list[Optional[float]] = [None, None]
    brackets = {}
    ladder_values = (first[1:1 + len(ladders[0])], first[1 + len(ladders[0]):])
    for side, (rungs, rung_values) in enumerate(zip(ladders, ladder_values)):
        inner = star
        for outer, value in zip(rungs, rung_values):
            value = visit(value, outer)
            if value < 0.0:
                brackets[side] = [inner, outer]
                break
            if value == 0.0:
                roots[side] = outer
                break
            inner = outer

    while True:
        open_sides = [side for side, (lo, hi) in brackets.items()
                      if abs(hi - lo) > ROOT_ALPHA_TOL]
        if not open_sides:
            break
        trees = [_midpoint_tree(*brackets[side], ROOT_LOOKAHEAD) for side in open_sides]
        stacked = values([mid for tree in trees for mid in tree])
        for k, (side, tree) in enumerate(zip(open_sides, trees)):
            bracket = brackets[side]
            tree_values = stacked[k * len(tree):(k + 1) * len(tree)]
            node = 0
            while node < len(tree) and abs(bracket[1] - bracket[0]) > ROOT_ALPHA_TOL:
                mid = tree[node]
                if visit(tree_values[node], mid) >= 0.0:
                    bracket[0], node = mid, 2 * node + 1
                else:
                    bracket[1], node = mid, 2 * node + 2
    for side, (lo, hi) in brackets.items():
        roots[side] = 0.5 * (lo + hi)
    return roots[0], roots[1]


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


def scan_alphas(alpha_min: float, alpha_max: float, step: float) -> list[float]:
    """The alpha grid alpha_min + k*step up to alpha_max, at most POINT_CAP
    points; the cap is checked before the grid is built."""
    for name, value in (("alpha_min", alpha_min), ("alpha_max", alpha_max), ("step", step)):
        if not math.isfinite(value):
            raise UsageError(f"{name} must be finite, got {value}")
    if not step > 0:
        raise UsageError(f"step must be positive, got {step}")
    if alpha_max < alpha_min:
        raise UsageError(f"alpha range is empty: [{alpha_min}, {alpha_max}]")
    span = (alpha_max - alpha_min) / step + 1e-9
    if not span < POINT_CAP:
        raise UsageError(
            f"alpha grid of about {span:.3g} points exceeds the {POINT_CAP} cap; "
            f"raise step or narrow the range")
    return [alpha_min + k * step for k in range(int(math.floor(span)) + 1)]


# --- Case I / Case II regions ----------------------------------------------

@dataclass(frozen=True)
class CaseRegion:
    case_id: str                               # "CaseI" or "CaseII"
    thresholds: tuple[float, float]
    regime: str                                # "low", "mid", or "high"
    boundary: tuple[tuple[float, float], ...]  # (R, cap on R*d) samples
    c_m: float


def main_capacity(p: float, n1: float) -> float:
    snr = (p + n1) / n1
    if snr == math.inf:
        raise OverflowError(f"main capacity: (p + n1) / n1 overflows at p={p}, n1={n1}")
    return 0.5 * math.log2(snr)


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise UsageError(f"{name} must be positive and finite, got {value}")


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


def _solve_alphas_for_rates(params: GaussianWiretapParams, alpha_top: float,
                            targets: Sequence[float]) -> list[float]:
    """Invert R(alpha) = target on the increasing segment alpha <= alpha_top,
    for every target in lockstep.

    Each target keeps its own bracket and stops on its own, so it visits the
    midpoints a bisection for that target alone would visit; one
    covariance stack per step values all of them.  The bracket ladder
    alpha_top - 2^k is shared, so each rung is valued once.
    """
    def rate(alphas) -> np.ndarray:
        uy, uv = mi_stack(params, alphas, ("y",), ("v1", "v2"))
        return uy - uv

    goal = np.asarray(targets, dtype=float)
    step = 1.0
    lo = np.full(goal.size, alpha_top - 1.0)
    ladder = np.arange(goal.size)
    while True:
        ladder = ladder[rate([alpha_top - step])[0] > goal[ladder]]
        if not ladder.size:
            break
        step *= 2.0
        lo[ladder] = alpha_top - step
        if step > 1e6:
            raise DegenerateGeometryError(
                "rate inversion bracket did not close",
                expression="r_alpha(lo) <= target", value=float(goal[ladder[0]]))

    hi = np.full(goal.size, alpha_top)
    solved = np.empty(goal.size)
    active = np.arange(goal.size)
    for _ in range(200):
        if not active.size:
            break
        mid = 0.5 * (lo[active] + hi[active])
        value = rate(mid)
        hit = np.abs(value - goal[active]) <= RATE_BISECT_TOL
        solved[active[hit]] = mid[hit]
        below = value < goal[active]
        lo[active[below & ~hit]] = mid[below & ~hit]
        hi[active[~below & ~hit]] = mid[~below & ~hit]
        active = active[~hit]
    solved[active] = 0.5 * (lo[active] + hi[active])
    return solved.tolist()


def _region(case_id: str, params: GaussianWiretapParams, p: float, n1: float,
            thresholds: tuple[float, float], grid_size: int) -> CaseRegion:
    if not 1 <= grid_size <= POINT_CAP:
        raise UsageError(f"grid_size must lie in [1, {POINT_CAP}], got {grid_size}")
    c_m = main_capacity(p, n1)
    alpha_top = p / (p + n1)
    pa, pb = thresholds

    if p <= pa:
        regime = "low"
    elif p <= pb:
        regime = "mid"
    else:
        regime = "high"

    rates = [c_m * k / grid_size for k in range(grid_size + 1)]
    if regime == "low":
        caps = [c_m] * len(rates)
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
        caps = [knee_cap] * len(rates)
        above = [k for k, rate in enumerate(rates) if not rate <= knee_rate + 1e-12]
        if above:
            alphas = _solve_alphas_for_rates(params, alpha_top, [rates[k] for k in above])
            uy, uz = mi_stack(params, alphas, ("y",), ("z",))
            for k, cap in zip(above, (uy - uz).tolist()):
                caps[k] = cap

    boundary = tuple((rate, min(max(cap, 0.0), c_m)) for rate, cap in zip(rates, caps))
    return CaseRegion(case_id, thresholds, regime, boundary, c_m)


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
    _require_positive(p=p)
    if not 0 <= epsilon < math.inf:
        raise UsageError(f"epsilon must be nonnegative and finite, got {epsilon}")
    if not -1.0 < rho_xv1 < 1.0:
        raise UsageError(f"rho_xv1 must lie strictly inside (-1, 1), got {rho_xv1}")
    rho2 = rho_xv1 * rho_xv1
    return p / (1.0 + 4.0 * epsilon * LN2 + rho2 / (1.0 - rho2))
