"""Gaussian wiretap channel with correlated additive states.

The transmit symbol x has power p; the main channel adds a state v1 (variance
q1, known at the encoder) and noise of variance n1, the wiretap channel adds
v2 (variance q2, hidden) and noise of variance n2.  The auxiliary variable is
linear, u = x + alpha*v1, so every information quantity is a determinant
ratio of the jointly Gaussian vector (u, v1, v2, y, z).

One oracle computes every mutual information.  _cov_stack assembles the
covariances of a whole alpha stack, (N, 5, 5), and _oracle_pairs takes MI
from their determinants, with rank reduction where a group is singular;
det(u) is taken once for all groups, and a block that does not depend on
alpha, such as (v1, v2), has its determinant and eigenspace taken once per
stack.  This stack is authoritative: mi_stack feeds the scan rows, the
region rate inversion, the leakage root walk and the validation scan, and
joint_covariance, oracle_mi, r_alpha, rz_alpha and leakage are one-alpha
views of it.

The leakage roots and the rate inversion are plain bisections, and one
walk, _walk, serves both: each round predicts every open bracket's
crossing by the secant through its end values, values the midpoints that
bisection would visit if the prediction were right in one stack, and keeps
each value only while its point is the plain walk's next midpoint.  Every
root, knee and rate is the plain walk's, bit for bit, in a handful of
stacks.

leakage_curve is a checked fast path for long alpha grids: the same
determinant arithmetic written as explicit 2x2/3x3 minors, tested against
leakage.  The mi_uy/mi_uv12/mi_uz/alpha_star_closed_form functions carry
the hand-derived closed forms exactly as written; they are the validation
target the suite diffs against the oracle, and nothing else consumes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from .clamp import _clamp_mi
from .errors import DegenerateGeometryError, UsageError, ValidationError

AXES = ("u", "v1", "v2", "y", "z")

LN2 = math.log(2.0)
EIG_REL_TOL = 1e-12
DET_SAFE_REL = 1e-9      # fast determinant path only when dets clear this
ROOT_ALPHA_CAP = 1e3
ROOT_ALPHA_TOL = 1e-12
RATE_BISECT_TOL = 1e-10
POINT_CAP = 100_000      # refuse scans and region grids with more alphas or rows
_TINY = np.finfo(float).tiny
_VALUE_NOISE = 1e-14     # a walk's prediction trusts no value difference below this


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
    base carries the correlations.  An entry that overflows raises
    OverflowError; the public callers silence numpy's warning for it.

    Every mix has determinant 1, so by Sylvester's law of inertia each
    matrix is PSD exactly when base is: one eigvalsh of base, against
    -1e-9 * max(1, its largest variance), decides the whole stack.
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
    if np.linalg.eigvalsh(base).min() < -1e-9 * max(1.0, base.diagonal().max()):
        raise ValidationError("assembled covariance is not PSD within tolerance")
    return 0.5 * (cov + cov.transpose(0, 2, 1))


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
        singular = w[:, 0] <= EIG_REL_TOL * np.maximum(1.0, w[:, -1])
        # Nonsingular rows have every eigenvalue above EIG_REL_TOL, so the
        # floor changes only singular rows, whose logs are discarded.
        logdet_j = np.log(np.maximum(w, _TINY)).sum(axis=-1)
        out[sel] = np.where(singular, math.inf, _clamp_mi(0.5 * (logdet - logdet_j) / LN2))
    return out


def _logs(det: np.ndarray) -> np.ndarray:
    """math.log of each positive determinant, NaN elsewhere (math.log, not
    np.log: the two differ in the last bit on some inputs).  A determinant
    that overflows raises OverflowError."""
    dets = det.tolist()
    if math.inf in dets:
        raise OverflowError("covariance determinant overflows")
    try:
        return np.array(list(map(math.log, dets)))
    except ValueError:      # a determinant <= 0
        return np.array([math.log(d) if d > 0.0 else math.nan for d in dets])


def _group_det(cov: np.ndarray, index: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """det of one group's block at every matrix of a stack, and its logs.
    A block that is the same in every matrix, such as (v1, v2) or y over an
    alpha stack, gives a single det, shape (1,), that broadcasts."""
    block = cov.take(index, axis=1).take(index, axis=2)
    if len(block) > 1 and (block == block[:1]).all():
        block = block[:1]
    det = np.linalg.det(block)
    return det, _logs(det)


def _powers(base: np.ndarray, k: int) -> tuple[np.ndarray, bool]:
    """base ** k entry by entry with the C library's pow, as the one-alpha
    algorithm raises its thresholds in Python floats (numpy's power may
    round differently), with inf where the power overflows, and whether
    any did."""
    if k == 1:
        return base, False
    base = base.tolist()
    try:
        return np.array(list(map(math.pow, base, repeat(k)))), False
    except OverflowError:
        pass
    out = []
    for b in base:
        try:
            out.append(math.pow(b, k))
        except OverflowError:
            out.append(math.inf)
    return np.array(out), True


def _oracle_pairs(cov: np.ndarray, group_a: Sequence[str],
                  groups_b: Sequence[Sequence[str]]) -> list[np.ndarray]:
    """I(group_a; group_b) in bits for each covariance of an (N, 5, 5)
    stack, one array per group_b.

    Where the determinants of both groups and of their union clear
    DET_SAFE_REL * scale per dimension, MI is a determinant ratio.
    Elsewhere rank-deficient marginals (a constant or a duplicated
    coordinate) are projected onto their positive eigenspace first, so
    quantities like I(u; v1, v2) stay finite when v2 is a deterministic copy
    of v1; +inf marks a singular joint.  The thresholds are powers taken in
    Python floats and the logs are math.log, row by row, as the one-alpha
    algorithm takes them; the tests and the ratio are numpy's IEEE
    arithmetic in the same order.  group_a's determinant is taken once for
    all groups.  A determinant that overflows raises OverflowError; the
    public callers silence numpy's warning for it, and LAPACK's for the zero
    pivot of a singular block.
    """
    ia = _indices(group_a)
    ibs = [_indices(group_b) for group_b in groups_b]
    if any(set(ia) & set(ib) for ib in ibs):
        raise UsageError("groups must be disjoint")
    if not ia:
        return [np.zeros(len(cov)) for _ in ibs]
    ka = len(ia)
    det_a, log_a = _group_det(cov, ia)
    out = []
    for ib in ibs:
        if not ib:
            out.append(np.zeros(len(cov)))
            continue
        kb = len(ib)
        det_b, log_b = _group_det(cov, ib)
        joint = cov.take(ia + ib, axis=1).take(ia + ib, axis=2)
        det_j = np.linalg.det(joint)
        # -inf (a negative det) takes the eigen-reduction below like any other
        log_j = _logs(det_j)
        safe = DET_SAFE_REL * np.maximum(1.0, joint.diagonal(0, 1, 2).max(axis=1))
        (bound_a, over_a), (bound_b, over_b), (bound_j, over_j) = (
            _powers(safe, k) for k in (ka, kb, ka + kb))
        pass_a, pass_b = det_a > bound_a, det_b > bound_b
        # the one-alpha test raises the bounds in turn, and raises where a
        # bound it reaches overflows
        if (over_a or over_b or over_j) and (
                (bound_a == math.inf) | pass_a & ((bound_b == math.inf)
                                                  | pass_b & (bound_j == math.inf))).any():
            raise OverflowError("determinant threshold overflows")
        fast = pass_a & pass_b & (det_j > bound_j)
        # rows off the fast path are all overwritten below
        values = _clamp_mi(0.5 * (log_a + log_b - log_j) / LN2)
        if not fast.all():
            slow = np.flatnonzero(~fast)
            values[slow] = _reduced_mi(joint.take(slow, axis=0), ka)
        out.append(values)
    return out


def oracle_mi(cov: np.ndarray, group_a: Sequence[str], group_b: Sequence[str]) -> float:
    """MI in bits from determinant ratios; +inf marks a singular joint.

    A one-matrix, one-group _oracle_pairs: rank-deficient marginals are
    projected onto their positive eigenspace, so I(u; v1, v2) stays finite
    when v2 is a deterministic copy of v1.
    """
    with np.errstate(over="ignore", divide="ignore"):
        return float(_oracle_pairs(cov[np.newaxis], group_a, [group_b])[0][0])


def mi_stack(params: GaussianWiretapParams, alphas,
             *groups: Sequence[str]) -> list[np.ndarray]:
    """I(u; group) in bits at every alpha, one array per group, all from
    one covariance stack."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cov = _cov_stack(params, alphas)
        return _oracle_pairs(cov, ("u",), groups)


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


def _gap(first, second, name: str, expression: str):
    """first - second for MI values or stacks; where both diverge the
    difference is indeterminate, and that raises instead of giving NaN."""
    if np.any(np.isinf(first) & np.isinf(second)):
        raise DegenerateGeometryError(
            f"{name} is indeterminate: both mutual informations diverge",
            expression=expression)
    return first - second


def leakage(params: GaussianWiretapParams, alpha: float) -> float:
    """Leakage I(u;z) - I(u;v1,v2) in bits; the sign decides whether the
    eavesdropper or the state cost limits the full-secrecy corner."""
    uz, uv = _mi_at(params, alpha, ("z",), ("v1", "v2"))
    return _gap(uz, uv, "leakage", "mi_uz - mi_uv12")


def r_alpha(params: GaussianWiretapParams, alpha: float) -> float:
    """State-penalized main rate I(u;y) - I(u;v1,v2)."""
    uy, uv = _mi_at(params, alpha, ("y",), ("v1", "v2"))
    return _gap(uy, uv, "rate", "mi_uy - mi_uv12")


def rz_alpha(params: GaussianWiretapParams, alpha: float) -> float:
    """Eavesdropper-penalized rate I(u;y) - I(u;z)."""
    uy, uz = _mi_at(params, alpha, ("y",), ("z",))
    return _gap(uy, uz, "rate cap", "mi_uy - mi_uz")


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


def _gaps(params: GaussianWiretapParams, alphas: list[float],
          first: Sequence[str], second: Sequence[str]) -> list[float]:
    """I(u; first) - I(u; second) at every alpha from one stack, NaN where
    the stack cannot value a point: where both terms diverge, and at every
    point when the stack raises.  A walk revalues a NaN alone, and only if
    it visits the point, so a point it never visits cannot raise."""
    try:
        a, b = mi_stack(params, alphas, first, second)
    except (ValidationError, ArithmeticError, np.linalg.LinAlgError):
        return [math.nan] * len(alphas)
    with np.errstate(invalid="ignore"):
        return (a - b).tolist()


class _Bracket:
    """One bisection walk toward the crossing of goal.  lo is the end whose
    side a midpoint takes when its value lies on lo's side of goal; f_lo
    and f_hi are the values at the ends (f_hi is NaN where the end was
    never valued) and last is the end most recently moved off, as
    (alpha, value), or None."""

    __slots__ = ("lo", "hi", "f_lo", "f_hi", "goal", "last", "levels", "found")

    def __init__(self, lo: float, hi: float, f_lo: float, f_hi: float,
                 goal: float = 0.0, last: Optional[tuple[float, float]] = None):
        self.lo, self.hi, self.f_lo, self.f_hi = lo, hi, f_lo, f_hi
        self.goal, self.last = goal, last
        self.levels = 0
        self.found: Optional[float] = None


def _prediction(bracket: _Bracket, hit_tol: float) -> tuple[float, float]:
    """The secant's crossing of goal, clamped into the bracket, and a radius
    within which the side a midpoint takes is uncertain: the quadratic term
    through the last moved-off end, or 1/32 of the bracket before there is
    one, and never below the value resolution over the slope.  Without a
    usable secant the crossing is the midpoint and the radius infinite."""
    lo, hi, f_lo, f_hi = bracket.lo, bracket.hi, bracket.f_lo, bracket.f_hi
    rise, run = f_hi - f_lo, hi - lo
    slope = rise / run if math.isfinite(rise) and rise != 0.0 and run != 0.0 else 0.0
    if not (slope != 0.0 and math.isfinite(slope)):
        return 0.5 * (lo + hi), math.inf
    crossing = min(max(lo + (bracket.goal - f_lo) / slope, min(lo, hi)), max(lo, hi))
    radius = abs(run) / 32.0
    if bracket.last is not None:
        x3, f3 = bracket.last
        if math.isfinite(f3) and x3 != lo and x3 != hi:
            curvature = ((f3 - f_hi) / (x3 - hi) - slope) / (x3 - lo)
            quadratic = abs(curvature / slope) * abs(crossing - lo) * abs(crossing - hi)
            if math.isfinite(quadratic):
                radius = quadratic
    return crossing, max(radius, max(hit_tol, _VALUE_NOISE) / abs(slope))


def _walk(brackets: list[_Bracket], gaps, visit, *, rising: bool,
          width_tol: float = -math.inf, hit_tol: float = -math.inf,
          max_levels: float = math.inf) -> list[float]:
    """Bisect every bracket the plain way, with its values taken in stacks.

    The plain walk halves [lo, hi] at mid = 0.5*(lo + hi) while
    |hi - lo| > width_tol, fewer than max_levels midpoints are behind it
    and mid is neither end (adjacent floats further apart than width_tol
    would otherwise halve forever).  It stops at mid when
    |f(mid) - goal| <= hit_tol; otherwise mid
    replaces lo when f(mid) lies on lo's side (f < goal if rising, else
    f >= goal) and hi when it does not.  It returns the mid it stopped at,
    or 0.5*(lo + hi).

    Each round predicts the crossing of every open bracket by the secant
    through its two end values, and lays out the midpoints the plain walk
    would visit if that prediction were right: a path, down to the first
    midpoint whose side the prediction cannot tell.  One gaps(points) stack
    values every path of the round.  The walk then takes a path's values
    in order, while each point is its exact next midpoint, so every
    decision, stop and result is the plain walk's.  gaps gives NaN where
    it cannot value a point; visit(value, alpha) passes a visited value on
    and revalues a NaN alone, raising where the plain walk raises.
    """
    def halves(b) -> bool:
        mid = 0.5 * (b.lo + b.hi)
        return (b.found is None and b.levels < max_levels
                and abs(b.hi - b.lo) > width_tol and b.lo != mid != b.hi)

    while True:
        live = [b for b in brackets if halves(b)]
        if not live:
            break
        paths = []
        for b in live:
            crossing, radius = _prediction(b, hit_tol)
            path, lo, hi, room = [], b.lo, b.hi, max_levels - b.levels
            while len(path) < room and abs(hi - lo) > width_tol:
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):
                    break
                path.append(mid)
                if not abs(mid - crossing) > radius:
                    break
                if (mid - crossing) * (lo - crossing) > 0.0:
                    lo = mid
                else:
                    hi = mid
            paths.append(path)
        points = list(dict.fromkeys(mid for path in paths for mid in path))
        values = dict(zip(points, gaps(points)))
        for b, path in zip(live, paths):
            for mid in path:
                if not (halves(b) and mid == 0.5 * (b.lo + b.hi)):
                    break
                value = values[mid] = visit(values[mid], mid)
                b.levels += 1
                if abs(value - b.goal) <= hit_tol:
                    b.found = mid
                elif (value < b.goal) == rising:
                    b.last, b.lo, b.f_lo = (b.lo, b.f_lo), mid, value
                else:
                    b.last, b.hi, b.f_hi = (b.hi, b.f_hi), mid, value
    return [0.5 * (b.lo + b.hi) if b.found is None else b.found for b in brackets]


def leakage_roots(params: GaussianWiretapParams) -> tuple[Optional[float], Optional[float]]:
    """Zero crossings of the leakage on each side of its maximizer.

    Brackets expand geometrically up to |alpha| = 1e3; a side with no sign
    change (leakage stays positive, e.g. it saturates above zero) reports
    None.  A flat leakage (q1 = 0) has no roots at all.

    The walk is the plain one, a doubling ladder and then bisection to
    ROOT_ALPHA_TOL, keeping the end where the leakage is >= 0 as lo.  The
    whole ladder of both sides is valued in one stack, and both sides then
    bisect in _walk, a predicted path per side per stack.  Only a point the
    walk visits is revalued alone when its stack reads NaN, so only a
    visited point raises.
    """
    try:
        star = alpha_star(params)
    except DegenerateGeometryError:
        return None, None

    def gaps(points: list[float]) -> list[float]:
        return _gaps(params, points, ("z",), ("v1", "v2"))

    def visit(value: float, alpha: float) -> float:
        return leakage(params, alpha) if math.isnan(value) else value

    ladders = []
    for direction in (-1.0, 1.0):
        rungs, step = [], max(1.0, abs(star))
        while abs(star + direction * step) <= ROOT_ALPHA_CAP:
            rungs.append(star + direction * step)
            step *= 2.0
        ladders.append(rungs)
    first = gaps([star] + ladders[0] + ladders[1])
    at_star = visit(first[0], star)
    if not at_star > 0.0:
        return None, None

    roots: list[Optional[float]] = [None, None]
    sides, brackets = [], []
    ladder_values = (first[1:1 + len(ladders[0])], first[1 + len(ladders[0]):])
    for side, (rungs, rung_values) in enumerate(zip(ladders, ladder_values)):
        inner, last = (star, at_star), None
        for outer, value in zip(rungs, rung_values):
            value = visit(value, outer)
            if value < 0.0:
                sides.append(side)
                brackets.append(_Bracket(inner[0], outer, inner[1], value, last=last))
                break
            if value == 0.0:
                roots[side] = outer
                break
            inner, last = (outer, value), inner
    for side, root in zip(sides, _walk(brackets, gaps, visit, rising=False,
                                       width_tol=ROOT_ALPHA_TOL)):
        roots[side] = root
    return roots[0], roots[1]


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
    """Invert R(alpha) = target on the increasing segment alpha <= alpha_top.

    Each target takes the plain walk: a ladder lo = alpha_top - 2^k until
    R(lo) <= target, then bisection of [lo, alpha_top] until
    |R(mid) - target| <= RATE_BISECT_TOL or 200 midpoints.  The ladder is
    shared, so each rung is valued once; R(alpha_top) rides in the first
    rung's stack, so _walk's secant has a value at both ends, and _walk
    bisects every target at once.  A rung or midpoint whose stack reads NaN
    is revalued alone through r_alpha; R(alpha_top) is never visited, so it
    never raises.
    """
    def gaps(points: list[float]) -> list[float]:
        return _gaps(params, points, ("y",), ("v1", "v2"))

    def visit(value: float, alpha: float) -> float:
        return r_alpha(params, alpha) if math.isnan(value) else value

    goal = [float(target) for target in targets]
    step = 1.0
    at_top, value = gaps([alpha_top, alpha_top - step])
    rungs = [(alpha_top - step, visit(value, alpha_top - step))]
    lo = [0] * len(goal)
    ladder = [k for k in range(len(goal)) if rungs[-1][1] > goal[k]]
    while ladder:
        step *= 2.0
        for k in ladder:
            lo[k] = len(rungs)
        if step > 1e6:
            raise DegenerateGeometryError(
                "rate inversion bracket did not close",
                expression="r_alpha(lo) <= target", value=goal[ladder[0]])
        alpha = alpha_top - step
        rungs.append((alpha, visit(gaps([alpha])[0], alpha)))
        ladder = [k for k in ladder if rungs[-1][1] > goal[k]]

    brackets = []
    for target, rung in zip(goal, lo):
        (alpha, value), last = rungs[rung], (rungs[rung - 1] if rung else None)
        brackets.append(_Bracket(alpha, alpha_top, value, at_top, target, last=last))
    return _walk(brackets, gaps, visit, rising=True, hit_tol=RATE_BISECT_TOL, max_levels=200)


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
            for k, cap in zip(above, _gap(uy, uz, "rate cap", "mi_uy - mi_uz").tolist()):
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
