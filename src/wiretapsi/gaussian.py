"""Gaussian wiretap channel with correlated additive states.

The transmit symbol x has power p; the main channel adds a state v1 (variance
q1, known at the encoder) and noise of variance n1, the wiretap channel adds
v2 (variance q2, hidden) and noise of variance n2.  The auxiliary variable is
linear, u = x + alpha*v1 (Costa's dirty-paper auxiliary).

One kernel computes every I(u; G).  Each group G the package asks for, (y),
(z) or (v1, v2), does not depend on alpha, so

    I(u; G) = 1/2 log2(var_u(alpha) / var(u | G)(alpha)),

and both variances are quadratics in alpha: var_u from the covariance B of
(x, v1), var(u | G) from its Schur complement K = B - C S+ C^T given G,
where S+ inverts G's covariance on the positive eigenspace of its
correlation matrix.  A _Kernel takes B and every K once per public call, so
a duplicated or constant coordinate of G (rho = +-1, q = 0) drops out once;
an alpha stack is then a few vector operations over all its groups at once.
Every test is relative: a row whose var(u | G) is within rounding of the
terms it cancels is +inf (u is determined by G, or the MI lies beyond what
float64 resolves, about 22 bits where the cancellation is full), and a row
whose var_u vanishes against its own terms is 0.  A leakage, rate or rate
cap with an infinite term raises: the two cannot be told apart.  mi_stack
feeds the scan rows, the region rate inversion, the leakage roots,
leakage_curve and the validation scan, and r_alpha, rz_alpha and leakage
are one-alpha views of it.  oracle_mi is the general path for any two
groups of one covariance, by determinant ratios with rank reduction, and
the second path the kernel is tested against.

Each crossing I(u; first) - I(u; second) = goal is var(u | second) =
4^goal * var(u | first): a root of one quadratic the kernel already
holds, which _roots takes by the stable formula.  The leakage roots are
those roots, in closed form.  The rate inversion is a plain bisection,
_walk, which the roots only steer: each round values, in one stack, the
midpoints bisection would visit down to its own stops if every side were
the root's, and keeps each value only while its point is the plain walk's
next midpoint, so every rate is the plain walk's, bit for bit, in a stack
or two.

The mi_uy/mi_uv12/mi_uz/alpha_star_closed_form functions carry the
hand-derived closed forms exactly as written; they are the validation
target the suite diffs against the kernel, and nothing else consumes them.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .clamp import _clamp_mi
from .errors import DegenerateGeometryError, UsageError, ValidationError

AXES = ("u", "v1", "v2", "y", "z")

LN2 = math.log(2.0)
EIG_REL_TOL = 1e-12
DET_SAFE_REL = 1e-9      # oracle_mi's determinant-ratio path only when dets clear this
CANCEL_REL = 2.0 ** -45    # 64 float64 steps of 2*(E00 + alpha^2*E11): var(u | G) noise
ROOT_ALPHA_CAP = 1e3
RATE_BISECT_TOL = 1e-10
POINT_CAP = 100_000      # refuse scans and region grids with more alphas or rows


def _root_product(a: float, b: float) -> float:
    """sqrt(a*b) for a, b >= 0, taken as sqrt(a)*sqrt(b) where the product
    is not a normal finite float, so it neither underflows to 0 nor
    overflows to inf."""
    product = a * b
    if sys.float_info.min <= product < math.inf:
        return math.sqrt(product)
    return math.sqrt(a) * math.sqrt(b)


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
        a, b, c = self.rho_xv1, self.rho_xv2, self.rho_v1v2
        least = float(np.linalg.eigvalsh(np.array([[1.0, a, b], [a, 1.0, c], [b, c, 1.0]]))[0])
        if least < -1e-12:
            raise ValidationError(
                f"(x, v1, v2) correlation matrix is not PSD: least eigenvalue {least}")

    @property
    def correlation_determinant(self) -> float:
        a, b, c = self.rho_xv1, self.rho_xv2, self.rho_v1v2
        return 1.0 - a * a - b * b - c * c + 2.0 * a * b * c

    # Covariance terms shared by every formula below, each taken once per
    # object: the fields are frozen, and the closed forms read them often.
    @functools.cached_property
    def c_xv1(self) -> float:
        return self.rho_xv1 * _root_product(self.p, self.q1)

    @functools.cached_property
    def c_xv2(self) -> float:
        return self.rho_xv2 * _root_product(self.p, self.q2)

    @functools.cached_property
    def c_v12(self) -> float:
        return self.rho_v1v2 * _root_product(self.q1, self.q2)

    @functools.cached_property
    def var_y(self) -> float:
        return self.p + self.q1 + self.n1 + 2.0 * self.c_xv1

    @functools.cached_property
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


def joint_covariance(params: GaussianWiretapParams, alpha: float) -> np.ndarray:
    """Covariance of (u, v1, v2, y, z) at one alpha, assembled by bilinearity
    as mix @ base @ mix.T, where the x/v1/v2 block of base carries the
    correlations.  An entry that overflows raises OverflowError.  The mix
    has determinant 1, so the matrix is PSD exactly when base is, which
    GaussianWiretapParams checks on its correlation matrix.
    """
    base = np.array([
        [params.p, params.c_xv1, params.c_xv2, 0.0, 0.0],
        [params.c_xv1, params.q1, params.c_v12, 0.0, 0.0],
        [params.c_xv2, params.c_v12, params.q2, 0.0, 0.0],
        [0.0, 0.0, 0.0, params.n1, 0.0],
        [0.0, 0.0, 0.0, 0.0, params.n2],
    ])
    mix = _MIX.copy()
    mix[0, 1] = alpha
    with np.errstate(over="ignore", invalid="ignore"):
        cov = mix @ base @ mix.T
        cov = 0.5 * (cov + cov.T)
    if not np.isfinite(cov).all():
        raise OverflowError("covariance overflows")
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
    """MI in bits between two disjoint groups of one covariance of
    (u, v1, v2, y, z); +inf marks a singular joint.

    Where the determinants of both groups and of their union clear
    DET_SAFE_REL * scale per dimension, MI is a determinant ratio.
    Elsewhere each group is projected onto its positive eigenspace first,
    so I(u; v1, v2) stays finite when v2 is a deterministic copy of v1.  A
    determinant or threshold that overflows raises OverflowError.
    """
    ia, ib = _indices(group_a), _indices(group_b)
    if set(ia) & set(ib):
        raise UsageError("groups must be disjoint")
    if not ia or not ib:
        return 0.0
    joint = cov[np.ix_(ia + ib, ia + ib)]
    blocks = (joint[:len(ia), :len(ia)], joint[len(ia):, len(ia):], joint)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        dets = [float(np.linalg.det(block)) for block in blocks]
    if math.inf in dets:
        raise OverflowError("covariance determinant overflows")
    safe = DET_SAFE_REL * max(1.0, float(joint.diagonal().max()))
    if all(det > safe ** len(block) for det, block in zip(dets, blocks)):
        return _clamp_mi(0.5 * (math.log(dets[0]) + math.log(dets[1])
                                - math.log(dets[2])) / LN2)

    def reduce(block):
        w, vec = np.linalg.eigh(block)
        keep = w > EIG_REL_TOL * max(1.0, float(w.max(initial=0.0)))
        return vec[:, keep], float(np.log(w[keep]).sum())

    (basis_a, logdet_a), (basis_b, logdet_b) = reduce(blocks[0]), reduce(blocks[1])
    ra, rb = basis_a.shape[1], basis_b.shape[1]
    if ra == 0 or rb == 0:
        return 0.0      # a constant group shares no information
    trans = np.zeros((len(joint), ra + rb))
    trans[:len(ia), :ra] = basis_a
    trans[len(ia):, ra:] = basis_b
    reduced = trans.T @ joint @ trans
    w = np.linalg.eigvalsh(0.5 * (reduced + reduced.T))
    if float(w.min()) <= EIG_REL_TOL * max(1.0, float(w.max())):
        return math.inf
    return _clamp_mi(0.5 * (logdet_a + logdet_b - float(np.log(w).sum())) / LN2)


def _quadratic(m: np.ndarray) -> tuple[float, float, float]:
    """Coefficients of [1, alpha] m [1, alpha]^T for a symmetric 2x2 m."""
    return float(m[0, 0]), 2.0 * float(m[0, 1]), float(m[1, 1])


def _explained(cov: np.ndarray, index: list[int]) -> np.ndarray:
    """C S+ C^T: the covariance of (x, v1) that the group at index explains,
    with cov the covariance of (x, v1, v2, y, z).  S+ inverts the group's
    covariance on the positive eigenspace of its correlation matrix, so a
    constant coordinate, or one that duplicates another, drops out."""
    index = [i for i in index if cov[i, i] > 0.0]
    sd = np.sqrt(cov.diagonal()[index])
    proj = cov[:2, index] / sd
    if len(index) < 2:
        return proj @ proj.T
    w, vec = np.linalg.eigh(cov[index][:, index] / sd / sd[:, np.newaxis])
    keep = w > EIG_REL_TOL * w.max()
    proj = proj @ vec[:, keep]
    return (proj / w[keep]) @ proj.T


class _Kernel:
    """The constants of I(u; G) for alpha-free groups G, taken once per
    public call and kept no longer.

    var_u and var(u | G) are quadratics c0 + alpha*c1 + alpha^2*c2: var_u's
    from B, the covariance of (x, v1), and each group's from its Schur
    complement B - E, E = C S+ C^T (_explained).  Rounding leaves var(u | G)
    off by a few float64 steps of the terms it cancels, at most
    2*(E00 + alpha^2*E11) as E is PSD, so each group also carries
    CANCEL_REL*(E00 + alpha^2*E11): a var(u | G) at or below it cannot be
    told from 0.  Building one raises what joint_covariance raises, and
    UsageError for a group that is not a set of axes other than u.
    """

    __slots__ = ("var_u", "conditional")

    def __init__(self, params: GaussianWiretapParams, groups: Sequence[Sequence[str]]):
        cov = joint_covariance(params, 0.0)     # of (x, v1, v2, y, z): u = x at alpha 0
        b = cov[:2, :2]
        self.var_u = _quadratic(b)
        self.conditional = {}
        for group in groups:
            index = _indices(group)
            if 0 in index:
                raise UsageError("groups must be disjoint")
            e = _explained(cov, index)
            self.conditional[tuple(group)] = (*_quadratic(b - e), CANCEL_REL * e[0, 0],
                                              CANCEL_REL * e[1, 1])

    def __call__(self, alphas, groups: Sequence[Sequence[str]]) -> list[np.ndarray]:
        alphas = np.asarray(alphas, dtype=float)
        square = alphas * alphas
        u0, u1, u2 = self.var_u
        var_u = u0 + alphas * u1 + square * u2
        if not np.isfinite(var_u).all():
            raise OverflowError("covariance overflows")
        # each coefficient as a column, one row per group
        k0, k1, k2, e0, e2 = np.reshape([self.conditional[tuple(group)] for group in groups],
                                        (-1, 5)).T[:, :, np.newaxis]
        var_c = k0 + alphas * k1 + square * k2
        # +inf where var(u | G) is rounding noise: u is determined by the
        # group, or the MI is past what float64 resolves; 0 where var_u
        # vanishes against its own terms
        var_c[var_c <= e0 + square * e2] = 0.0
        values = _clamp_mi(0.5 * np.log2(var_u / var_c))
        values[:, var_u <= EIG_REL_TOL * (u0 + square * u2)] = 0.0
        return list(values)


def mi_stack(params: GaussianWiretapParams, alphas,
             *groups: Sequence[str]) -> list[np.ndarray]:
    """I(u; group) in bits at every alpha, one array per group.

    params are the parameters, or the _Kernel a public call built from them
    for these groups.  +inf marks a point where u is determined by the group
    (or the MI exceeds what float64 resolves), 0 one where u is constant.
    A var_u that overflows raises OverflowError.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        kernel = params if isinstance(params, _Kernel) else _Kernel(params, groups)
        return kernel(alphas, groups)


# --- hand-derived closed forms, kept exactly as written ------------------
# These are an isolated code path for agreement testing against the kernel;
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


# --- kernel-backed quantities ---------------------------------------------
# Each takes the parameters, or the _Kernel its caller built from them.

def _mi_at(params: GaussianWiretapParams, alpha: float,
           *groups: Sequence[str]) -> list[float]:
    return [float(values[0]) for values in mi_stack(params, [alpha], *groups)]


def _gap(first, second, name: str, expression: str):
    """first - second for MI values or stacks.  An infinite term is u
    determined by its group or an MI past what float64 resolves, which the
    kernel cannot tell apart, so the difference is indeterminate: that
    raises instead of giving an infinite rate or NaN."""
    if np.any(np.isinf(first) | np.isinf(second)):
        raise DegenerateGeometryError(
            f"{name} is indeterminate: a mutual information diverges or is "
            f"past what float64 resolves", expression=expression)
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

    The minimum is -cov(x, v1 | z) / var(v1 | z).  Multiplied through by
    var_z / q1, its denominator q1*var_z - (c_xv1 + c_v12)^2 is var(z | v1)
    and its numerator is (p + c_xv2)*c_v12 - c_xv1*(q2 + n2 + c_xv2), each
    with the terms that cancel taken out by hand, so no q^2 is lost to
    rounding or overflows.  The leakage is flat where q1 = 0; var(z | v1)
    within rounding of the terms it still subtracts is refused the same way.
    """
    tied = params.rho_xv1 * params.rho_v1v2 * _root_product(params.p, params.q2)
    var_z_v1 = (params.p * (1.0 - params.rho_xv1 ** 2) + params.q2 * (1.0 - params.rho_v1v2 ** 2)
                + params.n2 + 2.0 * (params.c_xv2 - tied))       # tied: c_xv1*c_v12/q1
    if params.q1 == 0.0 or var_z_v1 <= 1e-12 * max(abs(2.0 * params.c_xv2), abs(2.0 * tied)):
        raise DegenerateGeometryError(
            "leakage has no interior maximizer (flat in alpha)",
            expression="q1*var_z - (c_xv1 + c_v12)^2", value=params.q1 * var_z_v1)
    root_q1 = math.sqrt(params.q1)
    star = (params.rho_v1v2 * (math.sqrt(params.q2) / root_q1) * (params.p + params.c_xv2)
            - params.rho_xv1 * (math.sqrt(params.p) / root_q1)
            * (params.q2 + params.n2 + params.c_xv2)) / var_z_v1
    if not math.isfinite(star):
        # only inputs so large that the products overflow get here
        raise DegenerateGeometryError(
            "leakage maximizer overflows", expression="alpha_star", value=star)
    return star


def leakage_curve(params: GaussianWiretapParams, alphas: np.ndarray) -> np.ndarray:
    """Leakage I(u;z) - I(u;v1,v2) over an alpha grid, from one stack; NaN
    where a term is infinite, where leakage would raise."""
    uz, uv = mi_stack(params, alphas, ("z",), ("v1", "v2"))
    with np.errstate(invalid="ignore"):
        gap = uz - uv
    gap[~np.isfinite(gap)] = math.nan
    return gap


def _gaps(kernel: _Kernel, alphas: list[float],
          first: Sequence[str], second: Sequence[str]) -> list[float]:
    """I(u; first) - I(u; second) at every alpha from one stack, NaN where
    the stack cannot value a point: where a term is infinite, and at every
    point when the stack raises (var_u overflows at one of them).  A walk
    revalues a NaN alone, and only if it visits the point, so a point it
    never visits cannot raise."""
    try:
        a, b = mi_stack(kernel, alphas, first, second)
    except ArithmeticError:
        return [math.nan] * len(alphas)
    with np.errstate(invalid="ignore"):
        gap = a - b
    gap[~np.isfinite(gap)] = math.nan
    return gap.tolist()


class _Bracket:
    """One bisection walk toward the crossing of goal.  lo is the end whose
    side a midpoint takes when its value lies on lo's side of goal."""

    __slots__ = ("lo", "hi", "goal", "levels", "found")

    def __init__(self, lo: float, hi: float, goal: float = 0.0):
        self.lo, self.hi, self.goal = lo, hi, goal
        self.levels, self.found = 0, None


def _roots(kernel: _Kernel, first: Sequence[str], second: Sequence[str],
           goals: Sequence[float]) -> np.ndarray:
    """Where I(u; first) - I(u; second) meets each goal in exact arithmetic:
    var(u | second) = 4^goal * var(u | first), two roots of one quadratic,
    as a (2, len(goals)) array.  They are taken by the stable formula
    (Press et al. 5.6) on the coefficients scaled by a power of 2, which is
    exact and keeps the discriminant from overflowing; one below 0 counts
    as 0 (rounding turns a double root, a goal at the curve's peak, into
    none).  A quadratic with no finite root gives inf or NaN."""
    f, s = (np.array(kernel.conditional[tuple(group)][:3])[:, np.newaxis]
            for group in (first, second))
    with np.errstate(all="ignore"):
        c = s - np.exp2(2.0 * np.asarray(goals, dtype=float)) * f
        c0, c1, c2 = np.ldexp(c, -np.frexp(np.abs(c).max(axis=0))[1])
        q = -0.5 * (c1 + np.copysign(np.sqrt(np.maximum(c1 * c1 - 4.0 * c0 * c2, 0.0)), c1))
        return np.array([q / c2, c0 / q])


def _crossings(kernel: _Kernel, first: Sequence[str], second: Sequence[str],
               brackets: list[_Bracket]) -> list[float]:
    """Per bracket, the root (_roots) of its goal nearest [lo, hi], clamped
    into it; a bracket whose quadratic has no finite root takes its
    midpoint.  It never raises and never gives NaN."""
    roots = _roots(kernel, first, second, [b.goal for b in brackets])
    low, high = np.array([(min(b.lo, b.hi), max(b.lo, b.hi))
                          for b in brackets]).reshape(-1, 2).T
    with np.errstate(all="ignore"):
        miss = np.maximum(np.maximum(low - roots, roots - high), 0.0)
    miss[~np.isfinite(roots)] = np.inf
    nearest = roots[np.argmin(miss, axis=0), np.arange(len(brackets))]
    crossing = np.where(np.isfinite(miss.min(axis=0)), np.clip(nearest, low, high),
                        0.5 * (low + high))
    return crossing.tolist()


def _walk(brackets: list[_Bracket], kernel: _Kernel, first: Sequence[str],
          second: Sequence[str], visit, *, hit_tol: float, max_levels: int) -> list[float]:
    """Bisect every bracket the plain way, with its values
    I(u; first) - I(u; second) taken in stacks.

    The plain walk halves [lo, hi] at mid = 0.5*(lo + hi) while fewer than
    max_levels midpoints are behind it and mid is neither end.  It stops at
    mid when |f(mid) - goal| <= hit_tol; otherwise mid replaces lo when
    f(mid) < goal and hi when it does not.  It returns the mid it stopped
    at, or 0.5*(lo + hi).

    Each bracket steers toward its crossing (_crossings), taken once.  Each
    round lays out, per open bracket, the midpoints the plain walk would
    visit if every side were the crossing's, down to the walk's own stops,
    and one _gaps stack values every path of the round.  The walk then
    takes a path's values in order, while each point is its exact next
    midpoint and hit_tol has not stopped it, so the crossing only decides
    which points are valued: every decision, stop and result is the plain
    walk's.  _gaps gives NaN where it cannot value a point; visit(value,
    alpha) passes a visited value on and revalues a NaN alone, raising
    where the plain walk raises.
    """
    def halves(b) -> bool:
        mid = 0.5 * (b.lo + b.hi)
        return b.found is None and b.levels < max_levels and b.lo != mid != b.hi

    crossings = _crossings(kernel, first, second, brackets)
    while True:
        live = [(b, crossing) for b, crossing in zip(brackets, crossings) if halves(b)]
        if not live:
            break
        paths = []
        for b, crossing in live:
            path, lo, hi, room = [], b.lo, b.hi, max_levels - b.levels
            while len(path) < room:
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):
                    break
                path.append(mid)
                lo, hi = (mid, hi) if (mid - crossing) * (lo - crossing) > 0.0 else (lo, mid)
            paths.append(path)
        points = list(dict.fromkeys(mid for path in paths for mid in path))
        values = dict(zip(points, _gaps(kernel, points, first, second)))
        for (b, _), path in zip(live, paths):
            for mid in path:
                if not (halves(b) and mid == 0.5 * (b.lo + b.hi)):
                    break
                value = values[mid] = visit(values[mid], mid)
                b.levels += 1
                if abs(value - b.goal) <= hit_tol:
                    b.found = mid
                elif value < b.goal:
                    b.lo = mid
                else:
                    b.hi = mid
    return [0.5 * (b.lo + b.hi) if b.found is None else b.found for b in brackets]


def leakage_roots(params: GaussianWiretapParams) -> tuple[Optional[float], Optional[float]]:
    """Zero crossings of the leakage on each side of its maximizer.

    The leakage has the sign of var(u | v1, v2) - var(u | z), a quadratic
    whose two roots (_roots) straddle alpha_star when the leakage there is
    positive; otherwise, and for a flat leakage (q1 = 0), there are none.
    A side reports its root only where it lies between alpha_star and that
    side's reach, the farthest rung alpha_star +- max(1, |alpha_star|) * 2^k
    within |alpha| <= ROOT_ALPHA_CAP; a side with no such rung, or a root
    past it, reports None.  One stack values the leakage at alpha_star and
    at the kept roots, and this raises where leakage would at one of them.
    """
    try:
        star = alpha_star(params)
    except DegenerateGeometryError:
        return None, None
    groups = (("z",), ("v1", "v2"))
    kernel = _Kernel(params, groups)
    roots: list[Optional[float]] = []
    for direction, root in zip((-1.0, 1.0), np.sort(_roots(kernel, *groups, [0.0])[:, 0])):
        reach, step = star, max(1.0, abs(star))
        while abs(star + direction * step) <= ROOT_ALPHA_CAP:
            reach, step = star + direction * step, 2.0 * step
        inside = 0.0 < direction * (root - star) <= direction * (reach - star)
        roots.append(float(root) if inside else None)
    uz, uv = mi_stack(kernel, [star] + [root for root in roots if root is not None], *groups)
    if not _gap(uz[0], uv[0], "leakage", "mi_uz - mi_uv12") > 0.0:
        return None, None
    _gap(uz, uv, "leakage", "mi_uz - mi_uv12")
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


def _finite(*thresholds: float) -> tuple[float, ...]:
    if not all(map(math.isfinite, thresholds)):
        raise OverflowError(f"power thresholds overflow: {thresholds}")
    return thresholds


def case1_thresholds(q: float, n1: float, n2: float) -> tuple[float, float]:
    """P1 = -n1 - q/2 + sqrt(q^2 + 4 q n2)/2 and P2 = -q/2 + sqrt(q^2 + 4 q (n1 + n2))/2,
    by -q/2 + sqrt(q^2 + 4 q n)/2 = n 2t/g = n - n (2 sqrt(n)/g)^2 with t = sqrt(q) and
    g = t + hypot(t, 2 sqrt(n)): no cancellation (Press et al. 5.6) and no q^2."""
    _require_positive(q=q, n1=n1, n2=n2)
    t, r, s = math.sqrt(q), math.sqrt(n2), math.sqrt(n1 + n2)
    return _finite((n2 - n1) - n2 * (2.0 * r / (t + math.hypot(t, 2.0 * r))) ** 2,
                   (n1 + n2) * (2.0 * t / (t + math.hypot(t, 2.0 * s))))


def case2_thresholds(q: float, n1: float, n2: float) -> tuple[float, float]:
    """P3 = (q - 2 n1)/2 + sqrt(5 q^2 + 4 q (n2 - n1))/2 and P4 = q/2 + sqrt(5 q^2 + 4 q n2)/2,
    each root taken as sqrt(q) sqrt(1.25 q + ...) so that no q^2 overflows."""
    _require_positive(q=q, n1=n1, n2=n2)
    t, spread = math.sqrt(q), 1.25 * q + (n2 - n1)      # spread: the discriminant over 4q
    if spread < 0.0:
        raise DegenerateGeometryError("threshold discriminant is negative",
                                      expression="5*q^2 + 4*q*(n2 - n1)", value=4.0 * q * spread)
    return _finite(0.5 * q - n1 + t * math.sqrt(spread), 0.5 * q + t * math.sqrt(1.25 * q + n2))


def _solve_alphas_for_rates(kernel: _Kernel, alpha_top: float,
                            targets: Sequence[float]) -> list[float]:
    """Invert R(alpha) = target on the increasing segment alpha <= alpha_top.

    Each target takes the plain walk: a ladder lo = alpha_top - 2^k until
    R(lo) <= target, then bisection of [lo, alpha_top] until
    |R(mid) - target| <= RATE_BISECT_TOL or 200 midpoints.  The ladder is
    shared, so each rung is valued once, and _walk bisects every target at
    once.  A rung or midpoint whose stack reads NaN is revalued alone
    through r_alpha.
    """
    groups = (("y",), ("v1", "v2"))

    def visit(value: float, alpha: float) -> float:
        return r_alpha(kernel, alpha) if math.isnan(value) else value

    goal = [float(target) for target in targets]
    lo, ladder, step = [0.0] * len(goal), list(range(len(goal))), 1.0
    while ladder:
        if step > 1e6:
            raise DegenerateGeometryError(
                "rate inversion bracket did not close",
                expression="r_alpha(lo) <= target", value=goal[ladder[0]])
        alpha = alpha_top - step
        value = visit(_gaps(kernel, [alpha], *groups)[0], alpha)
        for k in ladder:
            lo[k] = alpha
        ladder = [k for k in ladder if value > goal[k]]
        step *= 2.0

    brackets = [_Bracket(alpha, alpha_top, target) for alpha, target in zip(lo, goal)]
    return _walk(brackets, kernel, *groups, visit, hit_tol=RATE_BISECT_TOL, max_levels=200)


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
        kernel = _Kernel(params, (("y",), ("v1", "v2"), ("z",)))
        knee_rate = r_alpha(kernel, knee_alpha)
        knee_cap = knee_rate if regime == "mid" else rz_alpha(kernel, knee_alpha)
        caps = [knee_cap] * len(rates)
        above = [k for k, rate in enumerate(rates) if not rate <= knee_rate + 1e-12]
        if above:
            alphas = _solve_alphas_for_rates(kernel, alpha_top, [rates[k] for k in above])
            uy, uz = mi_stack(kernel, alphas, ("y",), ("z",))
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
