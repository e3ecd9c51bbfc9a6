import decimal
import fractions
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiretapsi import (
    DegenerateGeometryError,
    GaussianWiretapParams,
    UsageError,
    ValidationError,
    admissible_power,
    alpha_star,
    alpha_star_closed_form,
    case1_region,
    case1_thresholds,
    case2_region,
    case2_thresholds,
    joint_covariance,
    leakage,
    leakage_roots,
    main_capacity,
    oracle_mi,
    r_alpha,
    rz_alpha,
)
from wiretapsi import gaussian
from wiretapsi.clamp import MI_CLAMP
from wiretapsi.gaussian import (
    EIG_REL_TOL,
    _region,
    case1_params,
    case2_params,
    leakage_at_zero_closed_form,
    leakage_curve,
    mi_stack,
    mi_uv12,
    mi_uy,
    mi_uz,
)
import gaussian_reference
from gaussian_reference import (
    exact_leakage_roots,
    reference_covariance_scalar,
    reference_leakage_roots,
    reference_oracle_mi,
    reference_region,
)

GENERIC = GaussianWiretapParams(1.3, 0.9, 1.1, 0.4, 0.8, 0.2, -0.1, 0.3)


def reference_covariance(p: GaussianWiretapParams, alpha: float) -> np.ndarray:
    """Entry-by-entry covariance of (u, v1, v2, y, z), derived by hand from
    u = x + alpha*v1, y = x + v1 + eta1, z = x + v2 + eta2."""
    c1, c2, c3 = p.c_xv1, p.c_xv2, p.c_v12
    a = alpha
    vu = p.p + a * a * p.q1 + 2.0 * a * c1
    cov = {
        ("u", "u"): vu,
        ("u", "v1"): a * p.q1 + c1,
        ("u", "v2"): a * c3 + c2,
        ("u", "y"): p.p + a * p.q1 + (a + 1.0) * c1,
        ("u", "z"): p.p + c2 + a * (c1 + c3),
        ("v1", "v1"): p.q1,
        ("v1", "v2"): c3,
        ("v1", "y"): p.q1 + c1,
        ("v1", "z"): c1 + c3,
        ("v2", "v2"): p.q2,
        ("v2", "y"): c2 + c3,
        ("v2", "z"): p.q2 + c2,
        ("y", "y"): p.p + p.q1 + p.n1 + 2.0 * c1,
        ("y", "z"): p.p + c1 + c2 + c3,
        ("z", "z"): p.p + p.q2 + p.n2 + 2.0 * c2,
    }
    names = ("u", "v1", "v2", "y", "z")
    out = np.empty((5, 5))
    for i, ni in enumerate(names):
        for j, nj in enumerate(names):
            key = (ni, nj) if (ni, nj) in cov else (nj, ni)
            out[i, j] = cov[key]
    return out


@pytest.mark.parametrize("alpha", [-1.5, -0.3, 0.0, 0.5, 1.0, 2.0])
def test_joint_covariance_matches_hand_formulas(alpha):
    got = joint_covariance(GENERIC, alpha)
    np.testing.assert_allclose(got, reference_covariance(GENERIC, alpha),
                               atol=1e-12)


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.7])
def test_state_block_determinant_identity(alpha):
    # det of the (u, v1, v2) block equals p*q1*q2*D for every alpha
    cov = joint_covariance(GENERIC, alpha)
    det = np.linalg.det(cov[:3, :3])
    expected = (GENERIC.p * GENERIC.q1 * GENERIC.q2
                * GENERIC.correlation_determinant)
    assert det == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("alpha", [-2.0, -0.25, 0.0, 0.4, 1.1])
def test_closed_forms_agree_with_oracle_generic(alpha):
    cov = joint_covariance(GENERIC, alpha)
    assert mi_uy(GENERIC, alpha) == pytest.approx(
        oracle_mi(cov, ("u",), ("y",)), abs=1e-12)
    assert mi_uv12(GENERIC, alpha) == pytest.approx(
        oracle_mi(cov, ("u",), ("v1", "v2")), abs=1e-12)
    assert mi_uz(GENERIC, alpha) == pytest.approx(
        oracle_mi(cov, ("u",), ("z",)), abs=1e-12)


def test_oracle_mi_independent_blocks_and_errors():
    cov = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
    assert oracle_mi(cov, ("u",), ("z",)) == 0.0
    with pytest.raises(UsageError):
        oracle_mi(cov, ("u", "y"), ("y",))


def test_oracle_mi_divergence_on_deterministic_relation():
    # u = v1 exactly: infinite mutual information
    params = GaussianWiretapParams(1.0, 1.0, 1.0, 0.5, 0.5)
    cov = joint_covariance(params, 1.0)
    cov[0, :] = cov[1, :]
    cov[:, 0] = cov[:, 1]
    assert math.isinf(oracle_mi(cov, ("u",), ("v1",)))


def test_params_validation():
    with pytest.raises(ValidationError):
        GaussianWiretapParams(0.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        GaussianWiretapParams(1.0, 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        GaussianWiretapParams(1.0, 0.0, 1.0, 1.0, 1.0, rho_xv1=0.3)
    with pytest.raises(ValidationError):
        GaussianWiretapParams(1.0, 1.0, 1.0, 1.0, 1.0, 0.9, 0.9, -0.9)
    for field in range(8):
        for bad in (math.nan, math.inf, -math.inf):
            values = [1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0]
            values[field] = bad
            with pytest.raises(ValidationError, match="finite"):
                GaussianWiretapParams(*values)


def test_covariance_terms_survive_a_variance_product_out_of_range():
    # q1*q2 = 1e-400 underflows to 0, which would drop rho_v1v2 before any
    # mutual information is taken; p*q1 = 1e400 overflows, and 0 * inf is NaN
    tiny = GaussianWiretapParams(1.0, 1e-200, 1e-200, 1.0, 1.0, 0.5, 0.3, 0.2)
    assert tiny.c_v12 == pytest.approx(0.2e-200, rel=1e-15)
    (uv,) = mi_stack(tiny, [0.0], ("v1", "v2"))
    assert float(uv[0]) == pytest.approx(mi_uv12(tiny, 0.0), abs=1e-12)
    huge = GaussianWiretapParams(1e200, 1e200, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
    assert huge.c_xv1 == 0.0
    assert np.isfinite(joint_covariance(huge, 0.5)).all()


def test_alpha_star_special_cases():
    # fully correlated equal states: maximizer p/(p+n2)
    c1 = case1_params(2.0, 1.0, 0.25, 1.0)
    assert alpha_star(c1) == pytest.approx(2.0 / 3.0, abs=1e-12)
    # independent states: maximizer at zero
    c2 = case2_params(2.0, 1.0, 0.25, 1.0)
    assert alpha_star(c2) == pytest.approx(0.0, abs=1e-12)
    assert alpha_star_closed_form(c2) == pytest.approx(0.0, abs=1e-12)


def test_closed_form_maximizer_differs_on_correlated_case():
    # the hand-derived expression lands at p/(2p+q+2n2), not p/(p+n2)
    c1 = case1_params(2.0, 1.0, 0.25, 1.0)
    closed = alpha_star_closed_form(c1)
    assert closed == pytest.approx(2.0 / 7.0, abs=1e-12)
    assert abs(closed - alpha_star(c1)) > 0.1


def test_alpha_star_is_the_argmax():
    for params in (GENERIC, case1_params(1.5, 0.8, 0.3, 1.2)):
        star = alpha_star(params)
        peak = leakage(params, star)
        for delta in (-0.05, -0.005, 0.005, 0.05):
            assert leakage(params, star + delta) <= peak + 1e-12


def test_alpha_star_degenerate_without_v1_weight():
    stateless = GaussianWiretapParams(1.0, 0.0, 1.0, 0.5, 0.5)
    with pytest.raises(DegenerateGeometryError):
        alpha_star(stateless)
    assert leakage_roots(stateless) == (None, None)


def test_alpha_star_neither_cancels_nor_overflows_on_a_log_uniform_sweep():
    # Case I's maximizer is p / (p + n2) and Case II's is 0 at every q: the
    # q^2 terms of q1*var_z - (c_xv1 + c_v12)^2 must cancel by hand, not in
    # rounding, and no q1*var_z may overflow at q = 1e300.  1.4 ulp is the
    # worst error on this sweep.
    rng = np.random.default_rng(47)
    for q, p, n2 in 10.0 ** rng.uniform([-12, -6, -6], [300, 6, 6], size=(1000, 3)):
        q, p, n2 = float(q), float(p), float(n2)
        exact = fractions.Fraction(p) / (fractions.Fraction(p) + fractions.Fraction(n2))
        star = alpha_star(case1_params(p, q, 1.0, n2))
        assert abs(fractions.Fraction(star) - exact) <= 2 * fractions.Fraction(
            math.ulp(float(exact))), (p, q, n2, star)
        assert alpha_star(case2_params(p, q, 1.0, n2)) == 0.0
    assert alpha_star(case1_params(1.0, 1e12, 1.0, 1.0)) == 0.5


def test_case1_peak_leakage_value():
    # at the maximizer the leakage is (1/2)log2((p+n2)/n2) regardless of q
    for p, q, n2 in ((1.0, 1.0, 1.0), (2.5, 0.7, 1.3)):
        params = case1_params(p, q, 0.4, n2)
        peak = leakage(params, alpha_star(params))
        assert peak == pytest.approx(0.5 * math.log2((p + n2) / n2), abs=1e-9)


def test_case2_leakage_at_zero():
    p, q, n2 = 1.0, 1.0, 1.0
    params = case2_params(p, q, 0.25, n2)
    expected = 0.5 * math.log2((p + q + n2) / (q + n2))
    assert leakage(params, 0.0) == pytest.approx(expected, abs=1e-12)
    assert leakage_at_zero_closed_form(params) == pytest.approx(expected, abs=1e-12)


def test_case1_leakage_at_zero_closed_form_degenerates():
    # the closed form divides by the correlation determinant, which is zero
    # when the two states are copies; the oracle path still evaluates
    params = case1_params(1.0, 1.0, 0.25, 1.0)
    with pytest.raises(DegenerateGeometryError):
        leakage_at_zero_closed_form(params)
    assert math.isfinite(leakage(params, 0.0))


def test_leakage_curve_matches_scalar_path():
    grid = np.linspace(-2.0, 2.0, 41)
    curve = leakage_curve(GENERIC, grid)
    for a, v in zip(grid, curve):
        assert v == pytest.approx(leakage(GENERIC, float(a)), abs=1e-10)


def test_case1_leakage_curve_and_roots_are_consistent():
    # the singular rho_v1v2 = 1 branch: the stacked curve matches the scalar
    # path, and the two roots bracket the leakage minimiser
    params = case1_params(2.0, 1.0, 0.25, 1.0)
    grid = np.arange(-1.0, 2.01, 0.25)
    curve = leakage_curve(params, grid)
    assert len(grid) == len(curve) == 13
    for a, v in zip(grid, curve):
        assert v == pytest.approx(leakage(params, float(a)), abs=1e-10)
    neg, pos = leakage_roots(params)
    assert neg < alpha_star(params) < pos


def test_leakage_roots_bracket_and_vanish():
    params = case1_params(2.0, 1.0, 0.25, 1.0)
    neg, pos = leakage_roots(params)
    star = alpha_star(params)
    assert neg < star < pos
    assert abs(leakage(params, neg)) < 1e-8
    assert abs(leakage(params, pos)) < 1e-8


def test_case2_boundary_power_root_at_one():
    # at p = q/2 + sqrt(5q^2+4q n2)/2 the leakage vanishes exactly at alpha 1
    q, n2 = 1.0, 1.0
    p4 = case2_thresholds(q, 1.0, n2)[1]
    params = case2_params(p4, q, 1.0, n2)
    assert leakage(params, 1.0) == pytest.approx(0.0, abs=1e-12)
    _, pos = leakage_roots(params)
    assert pos == pytest.approx(1.0, abs=1e-9)


def test_threshold_worked_values():
    p1, p2 = case1_thresholds(1.0, 0.25, 1.0)
    assert p1 == pytest.approx(-0.25 - 0.5 + math.sqrt(5.0) / 2.0, abs=1e-12)
    assert p1 == pytest.approx(0.368034, abs=1e-6)
    assert p2 == pytest.approx(0.724745, abs=1e-6)
    p3, p4 = case2_thresholds(1.0, 1.0, 1.0)
    assert p3 == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-12)
    assert p4 == pytest.approx(2.0, abs=1e-12)


def test_case2_thresholds_can_degenerate():
    with pytest.raises(DegenerateGeometryError):
        case2_thresholds(1.0, 3.0, 0.5)   # n1 > n2 + 5q/4


def _exact_thresholds(case, q, n1, n2):
    """The paper's threshold formulas as written, in decimal arithmetic with
    400 digits: at q = 1e300 against n = 1e-6 the cancellation of q/2
    against the root costs about 306 of them, so 50 survive.  None where
    the Case II discriminant is negative."""
    with decimal.localcontext() as context:
        context.prec = 400
        q, n1, n2 = (decimal.Decimal(v) for v in (q, n1, n2))
        if case == "1":
            return (-n1 - q / 2 + (q * q + 4 * q * n2).sqrt() / 2,
                    -q / 2 + (q * q + 4 * q * (n1 + n2)).sqrt() / 2)
        discriminant = 5 * q * q + 4 * q * (n2 - n1)
        if discriminant < 0:
            return None
        return ((q - 2 * n1 + discriminant.sqrt()) / 2,
                q / 2 + (5 * q * q + 4 * q * n2).sqrt() / 2)


def test_thresholds_match_a_decimal_evaluation_on_a_log_uniform_sweep():
    # Each threshold is within 1e-13 * max(|P|, n1, n2) of the exact value,
    # or refused: DegenerateGeometryError only where the exact discriminant
    # is negative, OverflowError only where an exact threshold overflows.
    rng = np.random.default_rng(41)
    refused = 0
    for q, n1, n2 in 10.0 ** rng.uniform([-12, -6, -6], [300, 6, 6], size=(400, 3)):
        for case, thresholds in (("1", case1_thresholds), ("2", case2_thresholds)):
            exact = _exact_thresholds(case, q, n1, n2)
            try:
                got = thresholds(q, n1, n2)
            except DegenerateGeometryError:
                assert exact is None, (case, q, n1, n2)
                refused += 1
                continue
            except OverflowError:
                assert max(abs(value) for value in exact) > sys.float_info.max
                continue
            assert exact is not None, (case, q, n1, n2)
            for value, want in zip(got, exact):
                scale = max(abs(want), decimal.Decimal(n1), decimal.Decimal(n2))
                assert abs(decimal.Decimal(value) - want) <= decimal.Decimal(1e-13) * scale, \
                    (case, q, n1, n2, value, want)
    assert 0 < refused < 400


def test_thresholds_neither_cancel_nor_overflow():
    # -q/2 + sqrt(q^2 + 4 q n)/2 as written cancels to 0 by q = 1e17 and
    # overflows past q ~ 1.3e154
    p1, p2 = case1_thresholds(1e8, 1.0, 1.0)
    assert p1 == pytest.approx(-1e-8, rel=1e-7) and p2 == pytest.approx(2.0, rel=1e-7)
    p1, p2 = case1_thresholds(1e17, 1.0, 1.0)
    assert p1 == pytest.approx(-1e-17, rel=1e-12) and p2 == pytest.approx(2.0, rel=1e-12)
    assert p1 < 1.0 <= p2                   # p = 1 lies in the mid regime
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    assert case1_thresholds(1e300, 1.0, 1.0) == pytest.approx((-1e-300, 2.0), rel=1e-12)
    assert case2_thresholds(1e300, 1.0, 1.0) == pytest.approx((golden * 1e300,) * 2, rel=1e-12)
    # a threshold past float64's range raises instead of writing Infinity
    for thresholds, args in ((case1_thresholds, (1.0, 1e308, 1e308)),
                             (case2_thresholds, (1.5e308, 1.0, 1.0))):
        with pytest.raises(OverflowError):
            thresholds(*args)


def test_costa_rate_recovery():
    # r_alpha at the interference-cancelling coefficient equals main capacity
    for p, q, n1 in ((1.0, 1.0, 1.0), (2.0, 0.5, 0.3), (0.7, 2.2, 1.4)):
        params = case1_params(p, q, n1, 1.0)
        top = p / (p + n1)
        assert r_alpha(params, top) == pytest.approx(main_capacity(p, n1), abs=1e-9)
        params2 = case2_params(p, q, n1, 1.0)
        assert r_alpha(params2, top) == pytest.approx(main_capacity(p, n1), abs=1e-9)


def test_r_alpha_frozen_midpoint():
    params = case1_params(1.0, 1.0, 1.0, 1.0)
    assert r_alpha(params, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert main_capacity(1.0, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_region_regimes_track_thresholds():
    q, n1, n2 = 1.0, 0.25, 1.0
    p1, p2 = case1_thresholds(q, n1, n2)
    assert case1_region(0.9 * p1, q, n1, n2, grid_size=4).regime == "low"
    assert case1_region(0.5 * (p1 + p2), q, n1, n2, grid_size=4).regime == "mid"
    assert case1_region(1.5 * p2, q, n1, n2, grid_size=4).regime == "high"

    p3, p4 = case2_thresholds(1.0, 1.0, 1.0)
    assert case2_region(0.9 * p3, 1.0, 1.0, 1.0, grid_size=4).regime == "low"
    assert case2_region(1.0, 1.0, 1.0, 1.0, grid_size=4).regime == "mid"
    assert case2_region(3.0, 1.0, 1.0, 1.0, grid_size=4).regime == "high"


def test_region_boundary_caps_are_sane():
    for builder in (case1_region, case2_region):
        region = builder(1.0, 1.0, 0.5, 1.0, grid_size=16)
        rates = [r for r, _ in region.boundary]
        caps = [c for _, c in region.boundary]
        assert rates == pytest.approx(
            [region.c_m * k / 16 for k in range(17)], abs=1e-12)
        assert all(0.0 <= c <= region.c_m + 1e-12 for c in caps)


def test_region_high_regime_knee_segment():
    # below the rate at alpha=1 the cap sits flat at rz_alpha(1); past it
    # alpha is re-solved on the increasing branch of r_alpha
    p, q, n1, n2 = 1.0, 1.0, 0.5, 1.0
    region = case1_region(p, q, n1, n2, grid_size=16)
    assert region.regime == "high"
    params = case1_params(p, q, n1, n2)
    knee_rate = r_alpha(params, 1.0)
    knee_cap = rz_alpha(params, 1.0)
    for rate, cap in region.boundary:
        if rate <= knee_rate:
            assert cap == pytest.approx(knee_cap, abs=1e-12)
        else:
            assert cap < knee_cap
    top_cap = min(max(rz_alpha(params, p / (p + n1)), 0.0), region.c_m)
    # rate bisection is tight in R but R is flat at its peak, so the alpha
    # recovered for the top sample is only good to ~1e-5
    assert region.boundary[-1][1] == pytest.approx(top_cap, abs=1e-4)


def test_region_resolves_a_cap_past_twenty_bits():
    # case 1 at alpha = 1: u = x + v1, y = u + eta1 and z = u + eta2, so the
    # knee cap is exact in closed form; I(u; y) is 21.6 bits there, and the
    # kernel's cap carries its var(u | y) cancellation, 2^(2I) times
    # float64's resolution
    p, q, n1, n2 = 1e13, 1.0, 1.0, 1e6
    region = case1_region(p, q, n1, n2, grid_size=4)
    var_u = p + q
    mi_y = 0.5 * math.log2((var_u + n1) / n1)
    exact = mi_y - 0.5 * math.log2((var_u + n2) / n2)
    assert region.regime == "high"
    for _, cap in region.boundary:
        assert abs(cap - exact) <= 1e-15 * 2.0 ** (2.0 * mi_y)


def test_region_cap_continuity_at_low_mid_threshold():
    # approaching the first threshold from above, the knee cap meets c_m
    q = n1 = n2 = 1.0
    p3, _ = case2_thresholds(q, n1, n2)
    region = case2_region(p3 + 1e-7, q, n1, n2, grid_size=2)
    assert region.regime == "mid"
    assert region.boundary[0][1] == pytest.approx(
        main_capacity(p3 + 1e-7, n1), abs=1e-3)


def test_region_low_regime_is_flat_capacity():
    q, n1, n2 = 1.0, 0.25, 1.0
    p1, _ = case1_thresholds(q, n1, n2)
    region = case1_region(0.5 * p1, q, n1, n2, grid_size=8)
    assert all(c == pytest.approx(region.c_m, abs=1e-12)
               for _, c in region.boundary)


def test_admissible_power_frozen_values():
    assert admissible_power(1.0, 0.01, 0.0) == pytest.approx(
        1.0 / (1.0 + 0.04 * math.log(2.0)), abs=1e-12)
    assert admissible_power(1.0, 0.0, 0.5) == pytest.approx(0.75, abs=1e-12)
    with pytest.raises(UsageError):
        admissible_power(1.0, -0.1, 0.0)
    with pytest.raises(UsageError):
        admissible_power(1.0, 0.1, 1.0)
    with pytest.raises(UsageError):
        admissible_power(0.0, 0.1, 0.0)
    for args in ((math.inf, 0.1, 0.0), (math.nan, 0.1, 0.0), (1.0, math.inf, 0.0),
                 (1.0, math.nan, 0.0), (1.0, 0.1, math.nan)):
        with pytest.raises(UsageError):
            admissible_power(*args)
    for value in (math.nan, math.inf):
        with pytest.raises(UsageError, match="finite"):
            case1_region(value, 1.0, 1.0, 1.0)
        with pytest.raises(UsageError, match="finite"):
            case2_region(1.0, 1.0, 1.0, value)


@st.composite
def valid_params(draw):
    p = draw(st.floats(0.3, 3.0))
    q1 = draw(st.floats(0.1, 2.5))
    q2 = draw(st.floats(0.1, 2.5))
    n1 = draw(st.floats(0.2, 2.0))
    n2 = draw(st.floats(0.2, 2.0))
    r1 = draw(st.floats(-0.6, 0.6))
    r2 = draw(st.floats(-0.6, 0.6))
    r12 = draw(st.floats(-0.6, 0.6))
    det = 1.0 - r1 * r1 - r2 * r2 - r12 * r12 + 2.0 * r1 * r2 * r12
    if det <= 1e-3:
        r1 = r2 = r12 = 0.0
    return GaussianWiretapParams(p, q1, q2, n1, n2, r1, r2, r12)


@given(valid_params(), st.floats(-2.0, 2.0))
@settings(max_examples=60, deadline=None)
def test_mutual_informations_nonnegative(params, alpha):
    cov = joint_covariance(params, alpha)
    for group in (("y",), ("z",), ("v1", "v2")):
        assert oracle_mi(cov, ("u",), group) >= 0.0


@given(valid_params(), st.floats(-1.5, 1.5))
@settings(max_examples=40, deadline=None)
def test_rate_decomposition_identity(params, alpha):
    # r_alpha - rz_alpha = leakage, all through the oracle path
    r = r_alpha(params, alpha)
    rz = rz_alpha(params, alpha)
    lk = leakage(params, alpha)
    assert r - rz == pytest.approx(lk, abs=1e-9)


# --- the kernel against the determinant oracle ------------------------------
# gaussian_reference's determinant oracle takes one covariance at a time with
# scalar arithmetic; the one-matrix path must reproduce it bit for bit, and
# the kernel must agree with it within KERNEL_TOL.  The reference walks take
# their values from the kernel at one alpha, so the stacked walks must
# reproduce them bit for bit.

STACK_PARAMS = {
    "regular": GENERIC,
    "rho_plus": GaussianWiretapParams(1.5, 1.0, 1.0, 0.5, 1.0, 0.2, 0.2, 1.0),
    "rho_minus": GaussianWiretapParams(1.5, 1.0, 1.0, 0.5, 1.0, 0.2, -0.2, -1.0),
    "q1_zero": GaussianWiretapParams(1.5, 0.0, 0.8, 0.5, 1.0, 0.0, 0.3, 0.0),
    "q2_zero": GaussianWiretapParams(1.5, 1.0, 0.0, 0.5, 1.0, 0.3, 0.0, 0.0),
    "x_is_v1": GaussianWiretapParams(1.0, 1.0, 1.0, 0.5, 1.0, -1.0, 0.0, 0.0),
    "case1": case1_params(2.0, 1.0, 0.25, 1.0),
    "case2": case2_params(2.0, 1.0, 0.25, 1.0),
}
ORACLE_GROUPS = ((("u",), ("y",)), (("u",), ("v1", "v2")), (("u",), ("z",)),
                 (("u", "y"), ("v1", "z")), (("v1",), ("v2",)))
KERNEL_GROUPS = (("y",), ("v1", "v2"), ("z",))
# alpha = 1 makes u = x + v1 constant on the x_is_v1 parameters
STACK_ALPHAS = np.linspace(-3.0, 3.0, 41).tolist() + [1.0, 0.0, -0.0, 1e3, -1e3]
# Both paths lose a factor var_u / var(u | G) = 2^(2I) of float64's
# resolution to cancellation: the kernel in var(u | G), the oracle in its
# joint determinant.  The worst gap on STACK_PARAMS is 8.9e-11 bits, on
# (v1, v2) at alpha = 1e3, where the two lie 6.6e-11 and 4.1e-11 bits from
# the exact value on either side; for |alpha| <= 3 it is 1.8e-15.
KERNEL_TOL = 1e-9
# The least MI the determinant oracle may report as +inf: a reduced
# eigenvalue at or below EIG_REL_TOL of the largest.
BEYOND_BITS = 0.5 * math.log2(1.0 / EIG_REL_TOL)


def _kind(value):
    """zero (within the clamp), beyond (the oracle's singular floor) or finite."""
    if value <= MI_CLAMP:
        return "zero"
    return "beyond" if value >= BEYOND_BITS else "finite"


@pytest.mark.parametrize("name", sorted(STACK_PARAMS))
def test_one_matrix_oracle_is_bit_identical_to_the_reference(name):
    params = STACK_PARAMS[name]
    for alpha in STACK_ALPHAS:
        cov = joint_covariance(params, alpha)
        assert np.array_equal(cov, reference_covariance_scalar(params, alpha))
        for group_a, group_b in ORACLE_GROUPS:
            assert oracle_mi(cov, group_a, group_b) == reference_oracle_mi(cov, group_a, group_b)


@pytest.mark.parametrize("name", sorted(STACK_PARAMS))
def test_kernel_agrees_with_the_determinant_oracle(name):
    params = STACK_PARAMS[name]
    stack = mi_stack(params, STACK_ALPHAS, *KERNEL_GROUPS)
    for k, alpha in enumerate(STACK_ALPHAS):
        cov = reference_covariance_scalar(params, alpha)
        for group, values in zip(KERNEL_GROUPS, stack):
            got, want = float(values[k]), reference_oracle_mi(cov, ("u",), group)
            assert _kind(got) == _kind(want), (group, alpha, got, want)
            if _kind(want) == "finite":
                assert abs(got - want) <= KERNEL_TOL, (group, alpha, got, want)


def test_kernel_values_do_not_depend_on_the_stack():
    # the walks value points in stacks of any length and the reference walks
    # one alpha at a time, so each value must not depend on its neighbours
    alphas = np.random.default_rng(5).uniform(-3.0, 3.0, 3000).tolist()
    for params in STACK_PARAMS.values():
        stack = mi_stack(params, alphas, *KERNEL_GROUPS)
        kernel = gaussian._Kernel(params, KERNEL_GROUPS)
        for k in range(0, len(alphas), 7):
            one = mi_stack(kernel, [alphas[k]], *KERNEL_GROUPS)
            assert [float(v[0]) for v in one] == [float(v[k]) for v in stack]
        assert [float(v[0]) for v in mi_stack(params, [alphas[0]], *KERNEL_GROUPS)] == [
            float(v[0]) for v in stack]


def test_kernel_is_scale_invariant_on_a_log_uniform_sweep():
    # Every test of the kernel is relative, so a large but well-conditioned
    # variance does not read as rank loss.  Wherever a closed form lies in
    # [MI_CLAMP, 20] bits the kernel is finite and agrees within both paths'
    # cancellation, 2^(2I) times float64's resolution; below MI_CLAMP it
    # gives 0 to within the clamp, not +inf.
    rng = np.random.default_rng(1)
    alphas = [-2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0]
    closed_forms = (mi_uy, mi_uv12, mi_uz)      # in KERNEL_GROUPS order
    resolved = below = 0
    for _ in range(400):
        p, q1, q2, n1, n2 = (float(v) for v in 10.0 ** rng.uniform(-12.0, 12.0, 5))
        rho = (float(v) for v in rng.uniform(-0.95, 0.95, 3))
        try:
            params = GaussianWiretapParams(p, q1, q2, n1, n2, *rho)
            stack = mi_stack(params, alphas, *KERNEL_GROUPS)
        except ValidationError:
            continue
        for closed, values in zip(closed_forms, stack):
            for alpha, got in zip(alphas, values.tolist()):
                try:
                    want = closed(params, alpha)
                except DegenerateGeometryError:
                    continue
                if want < MI_CLAMP:
                    below += 1
                    assert 0.0 <= got <= MI_CLAMP, (params, alpha, want, got)
                elif want <= 20.0:
                    resolved += 1
                    tol = 1e-14 + 1e-15 * 2.0 ** (2.0 * want)
                    assert abs(got - want) <= tol, (params, alpha, want, got)
    assert resolved > 5000 and below > 300


def test_one_matrix_oracle_on_regular_and_deterministic_entries():
    # u = v1 exactly in the first matrix: +inf there, finite elsewhere
    regular = joint_covariance(GaussianWiretapParams(1.0, 1.0, 1.0, 0.5, 0.5), 1.0)
    singular = regular.copy()
    singular[0, :] = singular[1, :]
    singular[:, 0] = singular[:, 1]
    covs = [singular, regular, 2.0 * singular, regular + np.eye(5)]
    for group_a, group_b in ORACLE_GROUPS + ((("u",), ("v1",)),):
        for cov in covs:
            assert oracle_mi(cov, group_a, group_b) == reference_oracle_mi(cov, group_a, group_b)
    assert math.isinf(oracle_mi(covs[0], ("u",), ("v1",)))
    assert math.isfinite(oracle_mi(covs[1], ("u",), ("v1",)))


@pytest.mark.parametrize("case,p,q,n1,n2", [
    ("1", 0.5, 1.0, 1.0, 1.0),      # mid
    ("1", 1.5, 1.0, 1.0, 1.0),      # high
    ("2", 2.0, 1.0, 1.0, 1.0),      # mid
    ("2", 3.0, 1.0, 1.0, 1.0),      # high
])
def test_lockstep_region_matches_per_target_bisection(case, p, q, n1, n2):
    region = (case1_region if case == "1" else case2_region)(p, q, n1, n2, grid_size=64)
    expected = reference_region(case, p, q, n1, n2, 64)
    assert (region.thresholds, region.regime, region.boundary, region.c_m) == expected
    assert region.regime != "low"


# The reference walk bisects each root to a bracket 1e-12 wide.  Its roots
# lie within 4.5e-13 * max(1, |root|) of the closed form's on the inputs of
# the two tests below, and on 2,700 seeded sets with variances log-uniform in
# [1e-3, 1e3]; the closed form is the nearer to a decimal evaluation
# (test_roots_match_a_decimal_evaluation_on_a_seeded_sweep).
WALK_TOL = 1e-12


def assert_roots_match_the_walk(params):
    """leakage_roots reports a root on the sides the walk does, each within
    WALK_TOL * max(1, |root|) of the walk's; returns the roots."""
    got, want = leakage_roots(params), reference_leakage_roots(params)
    assert [root is None for root in got] == [root is None for root in want], (params, got, want)
    for root, walked in zip(got, want):
        if root is not None:
            assert abs(root - walked) <= WALK_TOL * max(1.0, abs(walked)), (params, got, want)
    return got


def test_roots_match_the_sequential_walk():
    rng = np.random.default_rng(11)
    # the walk's far rungs overflow the determinant test on the last set
    cases = list(STACK_PARAMS.values()) + [GaussianWiretapParams(1e-300, 1e107, 1e100, 1.0, 1.0)]
    for _ in range(12):
        p, q, n1, n2 = (float(v) for v in rng.uniform(0.2, 3.0, size=4))
        cases += [case1_params(p, q, n1, n2), case2_params(p, q, n1, n2)]
    with_roots = sum(assert_roots_match_the_walk(params)[1] is not None for params in cases)
    assert with_roots > 10
    assert leakage_roots(cases[len(STACK_PARAMS)]) == (None, None)


def test_roots_value_only_alpha_star_and_the_kept_roots(monkeypatch):
    # The roots are taken in closed form: a leakage that diverges on the
    # rungs the walk would value goes unseen, and one that diverges at
    # alpha_star or at a kept root raises, as leakage does there.
    params = case1_params(2.0, 1.0, 0.25, 1.0)
    star, expected = alpha_star(params), leakage_roots(params)
    real = gaussian.mi_stack
    poisoned = []

    def diverging(params, alphas, *groups):
        out = real(params, alphas, *groups)
        hit = np.isin(np.asarray(alphas, dtype=float), poisoned)
        for values in out:
            values[hit] = math.inf
        return out

    monkeypatch.setattr(gaussian, "mi_stack", diverging)
    poisoned[:] = [star + sign * 2.0 ** k for sign in (-1.0, 1.0) for k in range(10)]
    assert leakage_roots(params) == expected
    for point in (star, *expected):
        poisoned[:] = [point]
        with pytest.raises(DegenerateGeometryError, match="indeterminate"):
            leakage_roots(params)


def _sweep_regions():
    """12 seeded (case, p, q, n1, n2) sets per case, 6 in the mid regime
    and 6 in the high one."""
    rng = np.random.default_rng(29)
    out = []
    for case, thresholds in (("1", case1_thresholds), ("2", case2_thresholds)):
        for regime in ("mid", "high"):
            found = 0
            while found < 6:
                q, n1, n2 = (float(v) for v in rng.uniform(0.2, 3.0, size=3))
                try:
                    low, high = thresholds(q, n1, n2)
                except DegenerateGeometryError:
                    continue
                floor = max(low, 0.0)
                if regime == "mid":
                    p = floor + float(rng.uniform(0.05, 0.95)) * (high - floor)
                else:
                    p = high * float(rng.uniform(1.1, 4.0))
                if p > floor:
                    out.append((case, p, q, n1, n2))
                    found += 1
    return out


@pytest.mark.parametrize("case,p,q,n1,n2", _sweep_regions())
def test_region_walk_matches_per_target_bisection_on_a_seeded_sweep(case, p, q, n1, n2):
    region = (case1_region if case == "1" else case2_region)(p, q, n1, n2, grid_size=128)
    expected = reference_region(case, p, q, n1, n2, 128)
    assert (region.thresholds, region.regime, region.boundary, region.c_m) == expected
    assert region.regime != "low"


SINGULAR_FAMILIES = {
    "rho_plus": lambda p, q1, q2, n1, n2, rho: GaussianWiretapParams(
        p, q1, q2, n1, n2, rho, rho, 1.0),
    "rho_minus": lambda p, q1, q2, n1, n2, rho: GaussianWiretapParams(
        p, q1, q2, n1, n2, rho, -rho, -1.0),
    "q1_zero": lambda p, q1, q2, n1, n2, rho: GaussianWiretapParams(
        p, 0.0, q2, n1, n2, 0.0, rho, 0.0),
    "q2_zero": lambda p, q1, q2, n1, n2, rho: GaussianWiretapParams(
        p, q1, 0.0, n1, n2, rho, 0.0, 0.0),
}


@pytest.mark.parametrize("family", sorted(SINGULAR_FAMILIES))
def test_roots_match_sequential_walk_on_singular_families(family):
    rng = np.random.default_rng(sorted(SINGULAR_FAMILIES).index(family))
    with_roots = 0
    for _ in range(8):
        p, q1, q2, n1, n2 = (float(v) for v in rng.uniform(0.2, 3.0, size=5))
        params = SINGULAR_FAMILIES[family](p, q1, q2, n1, n2, float(rng.uniform(-0.6, 0.6)))
        with_roots += assert_roots_match_the_walk(params)[1] is not None
    # a flat leakage (q1 = 0) has no roots; the other families do
    assert with_roots == 0 if family == "q1_zero" else with_roots > 0


def _reference_visits(monkeypatch, case, args, grid_size):
    """reference_region's result and every alpha it values, in order, those
    of the leakage_roots call that takes its knee among them."""
    visits = []
    real, real_stack = gaussian_reference.reference_mis, gaussian.mi_stack

    def recording(params, alpha, *groups):
        visits.append(alpha)
        return real(params, alpha, *groups)

    def recording_stack(params, alphas, *groups):
        visits.extend(alphas)
        return real_stack(params, alphas, *groups)

    with monkeypatch.context() as patch:
        patch.setattr(gaussian_reference, "reference_mis", recording)
        patch.setattr(gaussian, "mi_stack", recording_stack)
        expected = reference_region(case, *args, grid_size)
    return expected, visits


REGION_WALKS = [("1", (0.5, 1.0, 1.0, 1.0)), ("1", (1.5, 1.0, 1.0, 1.0)),
                ("2", (2.0, 1.0, 1.0, 1.0)), ("2", (3.0, 1.0, 1.0, 1.0))]


@pytest.mark.parametrize("case,args", REGION_WALKS)
def test_region_walk_ignores_points_it_never_visits(monkeypatch, case, args):
    # Every point the per-target walk does not visit, R(alpha_top) and the
    # unused tails of the predicted paths among them, is made to diverge in
    # both mutual informations, or to overflow its whole stack: the region
    # must not notice.
    expected, visits = _reference_visits(monkeypatch, case, args, 64)
    visited = set(visits)
    region_fn = case1_region if case == "1" else case2_region
    real = gaussian.mi_stack
    unvisited_stacks = []

    def diverging(params, alphas, *groups):
        out = real(params, alphas, *groups)
        unvisited = np.array([alpha not in visited for alpha in alphas])
        unvisited_stacks.append(unvisited.any())
        for values in out:
            values[unvisited] = math.inf
        return out

    def overflowing(params, alphas, *groups):
        if any(alpha not in visited for alpha in alphas):
            raise OverflowError("covariance overflows")
        return real(params, alphas, *groups)

    for stack in (diverging, overflowing):
        with monkeypatch.context() as patch:
            patch.setattr(gaussian, "mi_stack", stack)
            region = region_fn(*args, grid_size=64)
        assert (region.thresholds, region.regime, region.boundary, region.c_m) == expected
    assert any(unvisited_stacks)


@pytest.mark.parametrize("case,args", REGION_WALKS)
def test_region_walk_raises_at_a_visited_point_as_the_reference_does(monkeypatch, case, args):
    _, visits = _reference_visits(monkeypatch, case, args, 64)
    region_fn = case1_region if case == "1" else case2_region
    poisoned = visits[len(visits) // 2]
    real, real_reference = gaussian.mi_stack, gaussian_reference.reference_mis

    def diverging(params, alphas, *groups):
        out = real(params, alphas, *groups)
        for values in out:
            values[np.asarray(alphas, dtype=float) == poisoned] = math.inf
        return out

    def diverging_reference(params, alpha, *groups):
        values = real_reference(params, alpha, *groups)
        return [math.inf] * len(values) if alpha == poisoned else values

    def overflowing(params, alphas, *groups):
        if poisoned in list(alphas):
            raise OverflowError("covariance overflows")
        return real(params, alphas, *groups)

    def overflowing_reference(params, alpha, *groups):
        if alpha == poisoned:
            raise OverflowError("covariance overflows")
        return real_reference(params, alpha, *groups)

    for stack, reference, error in ((diverging, diverging_reference, DegenerateGeometryError),
                                    (overflowing, overflowing_reference, OverflowError)):
        with monkeypatch.context() as patch:
            patch.setattr(gaussian, "mi_stack", stack)
            patch.setattr(gaussian_reference, "reference_mis", reference)
            with pytest.raises(error):
                reference_region(case, *args, 64)
            with pytest.raises(error):
                region_fn(*args, grid_size=64)


def test_walks_value_in_a_handful_of_stacks(monkeypatch):
    # A level-by-level walk takes 50 stacks for this mid region.  The roots
    # take one stack, alpha_star's and the kept roots' values, or none where
    # alpha_star is refused; the region adds the knee rate, one rung, one
    # bisection stack steered by the kernel's crossing, and the caps.  The
    # counts are deterministic, so a walk that steers badly, or falls back
    # to one level per stack, fails.
    real = gaussian.mi_stack
    stacks = []

    def counting(params, alphas, *groups):
        stacks.append(len(alphas))
        return real(params, alphas, *groups)

    monkeypatch.setattr(gaussian, "mi_stack", counting)
    for name, params in STACK_PARAMS.items():
        stacks.clear()
        leakage_roots(params)
        assert len(stacks) == (0 if name == "q1_zero" else 1)
    stacks.clear()
    region = case1_region(0.5, 1.0, 1.0, 1.0, grid_size=128)
    assert region.regime == "mid"
    assert len(stacks) == 5 and stacks[0] == 3


def test_rate_paths_end_where_the_quadratics_hit_the_goal(monkeypatch):
    # A rate path is laid out toward its crossing down to the plain walk's
    # own stops (float resolution, the 200-level cap), and the walk's
    # hit_tol test ends it at the crossing.  Every count is deterministic:
    # this mid region takes two _gaps stacks (one rate rung, one rate
    # round), and the rate round values 6,275 points for the walks' 3,914
    # visits, so a walk that takes another round, or lays out past its
    # stops, fails.
    stacks, walks = [], []
    gaps, walk = gaussian._gaps, gaussian._walk

    def counted_gaps(kernel, alphas, *groups):
        stacks.append(len(alphas))
        return gaps(kernel, alphas, *groups)

    def counted_walk(brackets, *args, **kwargs):
        roots = walk(brackets, *args, **kwargs)
        walks.append(sum(b.levels for b in brackets))
        return roots

    monkeypatch.setattr(gaussian, "_gaps", counted_gaps)
    monkeypatch.setattr(gaussian, "_walk", counted_walk)
    case1_region(0.5, 1.0, 1.0, 1.0, grid_size=128)
    assert len(stacks) == 2 and walks == [3914]
    assert stacks[-1] == 6275


@pytest.mark.parametrize("wrong", ["nan", "lo", "hi"])
def test_a_wrong_crossing_only_costs_stacks(monkeypatch, wrong):
    # The crossing only picks which points a round values: steered to NaN
    # or to either end, every rate walk still takes the plain walk's values.
    def steer(kernel, first, second, brackets):
        return [{"nan": math.nan, "lo": b.lo, "hi": b.hi}[wrong] for b in brackets]

    monkeypatch.setattr(gaussian, "_crossings", steer)
    for case, args in REGION_WALKS:
        region = (case1_region if case == "1" else case2_region)(*args, grid_size=64)
        assert (region.thresholds, region.regime, region.boundary,
                region.c_m) == reference_region(case, *args, 64)


def test_crossings_are_the_quadratic_roots_and_never_nan():
    params = STACK_PARAMS["case1"]
    kernel = gaussian._Kernel(params, KERNEL_GROUPS)
    star, roots = alpha_star(params), leakage_roots(params)
    brackets = [gaussian._Bracket(star, -1e3), gaussian._Bracket(star, 1e3)]
    assert gaussian._crossings(kernel, ("z",), ("v1", "v2"), brackets) == pytest.approx(
        list(roots), abs=1e-12)
    # goals the rate never reaches, or where 4^goal overflows or underflows
    brackets = [gaussian._Bracket(-2.0, 0.5, goal) for goal in (50.0, 1e6, -1e6)]
    for crossing in gaussian._crossings(kernel, ("y",), ("v1", "v2"), brackets):
        assert -2.0 <= crossing <= 0.5


def test_indeterminate_rates_raise_instead_of_nan():
    # at p = 1e50 every mutual information at alpha = 1 diverges, so each
    # difference is inf - inf
    params = case2_params(1e50, 1.0, 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rate in (leakage, r_alpha, rz_alpha):
            with pytest.raises(DegenerateGeometryError, match="indeterminate"):
                rate(params, 1.0)


def test_mi_stack_matches_rate_functions():
    params = STACK_PARAMS["rho_minus"]
    alphas = [-1.5, -0.25, 0.0, 0.6, 1.9]
    uy, uv, uz = mi_stack(params, alphas, ("y",), ("v1", "v2"), ("z",))
    for k, alpha in enumerate(alphas):
        assert uy[k] - uv[k] == r_alpha(params, alpha)
        assert uy[k] - uz[k] == rz_alpha(params, alpha)
        assert uz[k] - uv[k] == leakage(params, alpha)


def test_point_caps_refuse_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the cap check")

    monkeypatch.setattr(gaussian, "mi_stack", no_work)
    monkeypatch.setattr(gaussian, "leakage_roots", no_work)
    with pytest.raises(UsageError, match="cap"):
        gaussian.scan_alphas(-2.0, 2.0, 1e-9)
    with pytest.raises(UsageError, match="grid_size"):
        case1_region(0.5, 1.0, 0.25, 1.0, grid_size=gaussian.POINT_CAP + 1)
    with pytest.raises(UsageError, match="grid_size"):
        _region("CaseI", case1_params(0.5, 1.0, 0.25, 1.0), 0.5, 0.25,
                case1_thresholds(1.0, 0.25, 1.0), 10**9)
    assert len(gaussian.scan_alphas(-2.0, 2.0, 4.0 / (gaussian.POINT_CAP - 2))) < gaussian.POINT_CAP


def test_an_overflowing_determinant_raises_without_a_warning():
    # det(u, y) = 1e310 overflows while its threshold (1e-9 * 1e155)^2 does
    # not, so only the explicit check stands between it and an MI of -inf
    stack = np.diag([1e155, 1.0, 1.0, 1e155, 1.0])[None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="determinant"):
            oracle_mi(stack[0], ("u",), ("y",))


def test_an_overflowing_covariance_raises_without_a_warning():
    params = GaussianWiretapParams(1.0, 1.0, 1.0, 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="covariance overflows"):
            gaussian.mi_stack(params, [0.0, 1e300], ("z",))
        with pytest.raises(OverflowError, match="covariance overflows"):
            joint_covariance(params, 1e300)


# alpha_star is about 1.08e5, where adjacent floats lie 1.5e-11 apart: a
# bisection that stopped only on a bracket 1e-12 wide met a midpoint equal to
# one of its ends and halved forever, and the walk, stopped there, misses the
# negative root by 1.6e-11 of its size
ADJACENT_END_PARAMS = dict(
    p=131471215493677.7, q1=32.70193648451678, q2=6.724286444891935e+19,
    n1=3.6144640311851116e+37, n2=1.115792232233379e+22,
    rho_xv1=-0.05374584955939521, rho_xv2=-0.05374584955939521, rho_v1v2=1.0)

# Measured against exact_leakage_roots: the closed-form roots lie within
# 2.2e-14 of the exact ones, relatively, on the 862 roots of the sweep below
# (the walk's within 7.1e-11), and within 4.8e-12 on ADJACENT_END_PARAMS,
# where var_z ~ 1e22 meets a root ~ 1e5 (the walk's within 1.6e-11).
EXACT_ROOT_REL_TOL = 1e-11


def test_roots_match_a_decimal_evaluation_on_a_seeded_sweep():
    # Where the leakage is positive somewhere, every side reports its exact
    # root within EXACT_ROOT_REL_TOL, but for ADJACENT_END_PARAMS' positive
    # one, which lies past its side's reach: alpha_star + alpha_star is
    # already past ROOT_ALPHA_CAP.  The roots do not depend on the variances'
    # scale, so each regular set also runs with all five times 1e200 and
    # 1e-200, where the quadratic's coefficients square past float64's range.
    rng = np.random.default_rng(43)
    cases = [GaussianWiretapParams(**ADJACENT_END_PARAMS)]
    for _ in range(100):
        p, q1, q2, n1, n2 = (float(v) for v in rng.uniform(0.2, 3.0, size=5))
        rho = [float(v) for v in rng.uniform(-0.6, 0.6, size=3)]
        for scale in (1.0, 1e200, 1e-200):
            try:
                cases.append(GaussianWiretapParams(
                    *(scale * v for v in (p, q1, q2, n1, n2)), *rho))
            except ValidationError:
                break
        cases += [case1_params(p, q1, n1, n2), case2_params(p, q1, n1, n2)]
    checked = 0
    tol = decimal.Decimal(EXACT_ROOT_REL_TOL)
    for params in cases:
        exact, got = exact_leakage_roots(params), leakage_roots(params)
        if exact is None:                   # the leakage is nowhere positive
            assert got == (None, None), params
            continue
        if params is cases[0]:
            assert got[1] is None and 2.0 * alpha_star(params) > gaussian.ROOT_ALPHA_CAP
            got, exact = got[:1], exact[:1]
        for root, want in zip(got, exact):
            assert abs(decimal.Decimal(root) - want) <= tol * abs(want), (params, root, want)
            checked += 1
    assert checked > 700


def _bounded(argv):
    """argv in a child with a 60 s limit and 2 GiB of address space, so a
    command that never ends fails the test instead of holding the suite or
    the machine's memory."""
    import os
    import resource
    import subprocess
    import sys

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), os.path.join(root, "tests")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=60, preexec_fn=limit, env=env)


def test_gaussian_scan_returns_where_the_bracket_ends_are_adjacent_floats(tmp_path):
    flags = []
    for key, value in ADJACENT_END_PARAMS.items():
        flags += ["--" + key.replace("_", "-"), repr(value)]
    run = _bounded(["-m", "wiretapsi.cli", "gaussian-scan", *flags,
                    "--out", str(tmp_path / "o")])
    assert run.returncode in (0, 2), run.stderr
    assert "Traceback" not in run.stderr
