import math
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
    scan_leakage,
)
from wiretapsi import gaussian
from wiretapsi.gaussian import (
    _cov_stack,
    _oracle_stack,
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
from gaussian_reference import (
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


def test_scan_leakage_profile_consistency():
    params = case1_params(2.0, 1.0, 0.25, 1.0)
    profile = scan_leakage(params, np.arange(-1.0, 2.01, 0.25))
    assert len(profile.alpha_grid) == len(profile.delta_i) == 13
    for a, v in zip(profile.alpha_grid, profile.delta_i):
        assert v == pytest.approx(leakage(params, a), abs=1e-10)
    assert profile.alpha_root_neg < profile.alpha_star < profile.alpha_root_pos


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


# --- the stacked oracle against the one-alpha algorithms ---------------------
# The references in gaussian_reference walk one alpha at a time with scalar
# arithmetic; the stacks must reproduce them bit for bit.

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


@pytest.mark.parametrize("name", sorted(STACK_PARAMS))
def test_stacked_oracle_is_bit_identical_to_one_alpha_path(name):
    params = STACK_PARAMS[name]
    # alpha = 1 makes u = x + v1 constant on the x_is_v1 parameters
    alphas = np.linspace(-3.0, 3.0, 41).tolist() + [1.0, 0.0, -0.0, 1e3, -1e3]
    stack = _cov_stack(params, alphas)
    for k, alpha in enumerate(alphas):
        expected = reference_covariance_scalar(params, alpha)
        assert np.array_equal(stack[k], expected)
        assert np.array_equal(joint_covariance(params, alpha), expected)
    for group_a, group_b in ORACLE_GROUPS:
        expected = [reference_oracle_mi(c, group_a, group_b) for c in stack]
        assert _oracle_stack(stack, group_a, group_b).tolist() == expected
        assert [oracle_mi(c, group_a, group_b) for c in stack] == expected


def test_stacked_oracle_takes_logs_like_the_one_alpha_path():
    # np.log and math.log differ in the last bit on about 1 input in 1000;
    # a dense stack finds such inputs on the determinant-ratio path
    alphas = np.random.default_rng(5).uniform(-3.0, 3.0, 3000).tolist()
    stack = _cov_stack(GENERIC, alphas)
    for group_a, group_b in ORACLE_GROUPS[:3]:
        expected = [reference_oracle_mi(c, group_a, group_b) for c in stack]
        assert _oracle_stack(stack, group_a, group_b).tolist() == expected


def test_stacked_oracle_mixes_regular_and_deterministic_entries():
    # u = v1 exactly in the first matrix: +inf there, finite elsewhere
    regular = joint_covariance(GaussianWiretapParams(1.0, 1.0, 1.0, 0.5, 0.5), 1.0)
    singular = regular.copy()
    singular[0, :] = singular[1, :]
    singular[:, 0] = singular[:, 1]
    stack = np.stack([singular, regular, 2.0 * singular, regular + np.eye(5)])
    for group_a, group_b in ORACLE_GROUPS + ((("u",), ("v1",)),):
        expected = [reference_oracle_mi(c, group_a, group_b) for c in stack]
        assert _oracle_stack(stack, group_a, group_b).tolist() == expected
    assert math.isinf(_oracle_stack(stack, ("u",), ("v1",))[0])
    assert math.isfinite(_oracle_stack(stack, ("u",), ("v1",))[1])


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


def test_batched_roots_match_sequential_walk():
    rng = np.random.default_rng(11)
    cases = list(STACK_PARAMS.values())
    for _ in range(12):
        p, q, n1, n2 = (float(v) for v in rng.uniform(0.2, 3.0, size=4))
        cases += [case1_params(p, q, n1, n2), case2_params(p, q, n1, n2)]
    with_roots = 0
    for params in cases:
        got = leakage_roots(params)
        assert got == reference_leakage_roots(params)
        with_roots += got[1] is not None
    assert with_roots > 10


def test_roots_survive_overflow_on_rungs_the_walk_never_visits():
    # the determinant test overflows on the far rungs of the ladder, which
    # the walk never reaches (it stops at alpha_star); the stack must not raise
    params = GaussianWiretapParams(1e-300, 1e107, 1e100, 1.0, 1.0)
    assert leakage_roots(params) == reference_leakage_roots(params) == (None, None)


def test_roots_ignore_points_the_walk_never_visits(monkeypatch):
    # Make both mutual informations diverge beyond the first negative rung:
    # the sequential walk never goes there, so the stacks must not raise.
    params = case1_params(2.0, 1.0, 0.25, 1.0)
    expected = leakage_roots(params)
    fence = 2.0 * max(abs(a) for a in expected) + 4.0
    real = gaussian.mi_stack

    def diverging(params, alphas, *groups):
        out = real(params, alphas, *groups)
        far = np.abs(np.asarray(alphas, dtype=float)) > fence
        for values in out:
            values[far] = math.inf
        return out

    monkeypatch.setattr(gaussian, "mi_stack", diverging)
    assert leakage_roots(params) == expected
    with pytest.raises(DegenerateGeometryError):
        leakage(params, fence + 1.0)
    # a visited point that cannot be valued still raises, as the walk did
    fence = 0.0
    with pytest.raises(DegenerateGeometryError):
        leakage_roots(params)


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
