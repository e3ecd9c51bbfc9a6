"""The Gaussian layer walked one alpha at a time.

reference_covariance_scalar and reference_oracle_mi are the determinant
oracle with scalar arithmetic, one covariance per alpha; the tests hold the
kernel's values to it at a stated tolerance.

The walks below (roots, rate inversion, scan, region) are the plain ones,
one alpha per value.  They take each value from the kernel at that one
alpha, so the tests require the stacked walks to reproduce them bit for
bit, errors included: they raise OverflowError where var_u overflows, and
DegenerateGeometryError where a leakage, rate or rate cap is indeterminate
because one of its terms is infinite.
"""

import math

import numpy as np

from wiretapsi import (
    DegenerateGeometryError,
    ToolkitError,
    UsageError,
    ValidationError,
    alpha_star,
    case1_thresholds,
    case2_thresholds,
    main_capacity,
)
from wiretapsi.gaussian import POINT_CAP, _gap, case1_params, case2_params, mi_stack

AXES = ("u", "v1", "v2", "y", "z")


def reference_covariance_scalar(params, alpha):
    base = np.array([
        [params.p, params.c_xv1, params.c_xv2, 0.0, 0.0],
        [params.c_xv1, params.q1, params.c_v12, 0.0, 0.0],
        [params.c_xv2, params.c_v12, params.q2, 0.0, 0.0],
        [0.0, 0.0, 0.0, params.n1, 0.0],
        [0.0, 0.0, 0.0, 0.0, params.n2],
    ])
    mix = np.array([
        [1.0, alpha, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0],
        [1.0, 1.0, 0.0, 1.0, 0.0],
        [1.0, 0.0, 1.0, 0.0, 1.0],
    ])
    with np.errstate(over="ignore", invalid="ignore"):
        cov = mix @ base @ mix.T
    if not np.isfinite(cov).all():
        raise OverflowError("covariance overflows")
    cov = 0.5 * (cov + cov.T)
    floor = -1e-9 * max(1.0, float(np.max(np.diag(cov))))
    if float(np.linalg.eigvalsh(cov).min()) < floor:
        raise ValidationError("assembled covariance is not PSD within tolerance")
    return cov


def reference_oracle_mi(cov, group_a, group_b):
    ia = [AXES.index(n) for n in group_a]
    ib = [AXES.index(n) for n in group_b]
    joint = cov[ia + ib][:, ia + ib]
    sig_a = joint[: len(ia), : len(ia)]
    sig_b = joint[len(ia):, len(ia):]
    scale = max(1.0, float(joint.diagonal().max()))
    with np.errstate(over="ignore"):
        det_a, det_b, det_j = (float(np.linalg.det(m)) for m in (sig_a, sig_b, joint))
    if math.isinf(det_a) or math.isinf(det_b) or math.isinf(det_j):
        raise OverflowError("covariance determinant overflows")
    safe = 1e-9 * scale
    if det_a > safe ** len(ia) and det_b > safe ** len(ib) and det_j > safe ** len(ia + ib):
        value = 0.5 * (math.log(det_a) + math.log(det_b) - math.log(det_j)) / math.log(2.0)
        return 0.0 if -1e-10 <= value < 0.0 else value

    def reduce(mat):
        w, vec = np.linalg.eigh(mat)
        keep = w > 1e-12 * max(1.0, float(w.max(initial=0.0)))
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
    if float(w.min()) <= 1e-12 * max(1.0, float(w.max(initial=0.0))):
        return math.inf
    value = 0.5 * (logdet_a + logdet_b - float(np.log(w).sum())) / math.log(2.0)
    return 0.0 if -1e-10 <= value < 0.0 else value


def reference_mis(params, alpha, *groups):
    """The kernel's values at one alpha: a one-element stack."""
    return [float(values[0]) for values in mi_stack(params, [alpha], *groups)]


def reference_leakage(params, alpha):
    uz, uv = reference_mis(params, alpha, ("z",), ("v1", "v2"))
    if math.isinf(uz) or math.isinf(uv):
        raise DegenerateGeometryError("leakage is indeterminate")
    return uz - uv


def reference_r_alpha(params, alpha):
    uy, uv = reference_mis(params, alpha, ("y",), ("v1", "v2"))
    if math.isinf(uy) or math.isinf(uv):
        raise DegenerateGeometryError("rate is indeterminate")
    return uy - uv


def reference_rz_alpha(params, alpha):
    uy, uz = reference_mis(params, alpha, ("y",), ("z",))
    if math.isinf(uy) or math.isinf(uz):
        raise DegenerateGeometryError("rate cap is indeterminate")
    return uy - uz


def reference_solve_alpha_for_rate(params, alpha_top, target):
    lo = alpha_top - 1.0
    step = 1.0
    while reference_r_alpha(params, lo) > target:
        step *= 2.0
        lo = alpha_top - step
        if step > 1e6:
            raise DegenerateGeometryError("rate inversion bracket did not close")
    hi = alpha_top
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        value = reference_r_alpha(params, mid)
        if abs(value - target) <= 1e-10:
            return mid
        if value < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_leakage_roots(params):
    try:
        star = alpha_star(params)
    except DegenerateGeometryError:
        return None, None
    if not reference_leakage(params, star) > 0.0:
        return None, None

    def find(direction):
        step = max(1.0, abs(star))
        inner = star
        while True:
            outer = star + direction * step
            if abs(outer) > 1e3:
                return None
            value = reference_leakage(params, outer)
            if value < 0.0:
                break
            if value == 0.0:
                return outer
            inner = outer
            step *= 2.0
        lo, hi = inner, outer
        while abs(hi - lo) > 1e-12:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):             # adjacent floats: mid is returned
                break
            if reference_leakage(params, mid) >= 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    return find(-1.0), find(+1.0)


def reference_scan(params, alphas):
    """The gaussian-scan rows and roots, one alpha at a time."""
    rows = []
    for alpha in alphas:
        uy, uv, uz = reference_mis(params, alpha, ("y",), ("v1", "v2"), ("z",))
        rows.append((float(alpha), uy, uv, uz,
                     _gap(uz, uv, "leakage", "mi_uz - mi_uv12"),
                     _gap(uy, uv, "rate", "mi_uy - mi_uv12"),
                     _gap(uy, uz, "rate cap", "mi_uy - mi_uz")))
    neg, pos = reference_leakage_roots(params)
    try:
        star = alpha_star(params)
    except ToolkitError:
        star = None
    return rows, {"alpha_star": star, "alpha_root_neg": neg, "alpha_root_pos": pos}


def reference_region(case, p, q, n1, n2, grid_size):
    """(thresholds, regime, boundary, c_m) of a Case I/II region, with
    every rate target above the knee bisected on its own."""
    for name, value in (("p", p), ("q", q), ("n1", n1), ("n2", n2)):
        if not 0 < value < math.inf:
            raise UsageError(f"{name} must be positive and finite")
    if case == "1":
        params, thresholds = case1_params(p, q, n1, n2), case1_thresholds(q, n1, n2)
    else:
        params, thresholds = case2_params(p, q, n1, n2), case2_thresholds(q, n1, n2)
    if not 1 <= grid_size <= POINT_CAP:
        raise UsageError("grid_size out of range")
    c_m = main_capacity(p, n1)
    alpha_top = p / (p + n1)
    regime = "low" if p <= thresholds[0] else "mid" if p <= thresholds[1] else "high"
    boundary = []
    if regime != "low":
        if regime == "mid":
            knee_alpha = reference_leakage_roots(params)[1]
            if knee_alpha is None:
                raise DegenerateGeometryError("no positive-side leakage root")
        else:
            knee_alpha = 1.0
        knee_rate = reference_r_alpha(params, knee_alpha)
        knee_cap = knee_rate if regime == "mid" else reference_rz_alpha(params, knee_alpha)
    for k in range(grid_size + 1):
        rate = c_m * k / grid_size
        if regime == "low":
            cap = c_m
        elif rate <= knee_rate + 1e-12:
            cap = knee_cap
        else:
            cap = reference_rz_alpha(
                params, reference_solve_alpha_for_rate(params, alpha_top, rate))
        boundary.append((rate, min(max(cap, 0.0), c_m)))
    return thresholds, regime, tuple(boundary), c_m
