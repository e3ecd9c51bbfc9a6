import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiretapsi import (
    JointPmf,
    Pmf,
    TransitionKernel,
    UsageError,
    ValidationError,
    compose,
    entropy,
    joint_entropy,
    marginalize,
    mutual_information,
)
from wiretapsi.discrete import _dirichlet_draws
from wiretapsi.probability import (_entropy_bits, _entropy_bits_batch, _ordered_sum,
                                   _pcg64_outputs)
from wiretapsi.simulator import _trial_draws

# independently derived: -0.25*log2(0.25) - 0.75*log2(0.75)
H_QUARTER = 0.8112781244591328
# 1 - h2(0.1) for a BSC(0.1) with uniform input
MI_BSC10 = 0.5310044064107188


def bsc_joint(flip: float, p1: float = 0.5) -> JointPmf:
    px = np.array([1.0 - p1, p1])
    table = px[:, None] * np.array([[1.0 - flip, flip], [flip, 1.0 - flip]])
    return JointPmf((("x", 2), ("y", 2)), table)


def test_entropy_frozen_value():
    assert entropy(Pmf("x", [0.25, 0.75])) == pytest.approx(H_QUARTER, abs=1e-12)


def test_entropy_uniform_and_point_mass():
    assert entropy(Pmf("x", [0.5, 0.5])) == pytest.approx(1.0, abs=1e-12)
    assert entropy(Pmf("x", [1.0, 0.0])) == 0.0


def test_bsc_mutual_information_frozen_value():
    joint = bsc_joint(0.1)
    assert mutual_information(joint, ("x",), ("y",)) == pytest.approx(
        MI_BSC10, abs=1e-12)


def test_mutual_information_of_independent_axes_is_zero():
    table = np.outer([0.3, 0.7], [0.6, 0.4])
    joint = JointPmf((("a", 2), ("b", 2)), table)
    assert mutual_information(joint, ("a",), ("b",)) == 0.0


def test_joint_entropy_group_selection():
    joint = bsc_joint(0.1, p1=0.25)
    assert joint_entropy(joint, ("x",)) == pytest.approx(H_QUARTER, abs=1e-12)
    full = joint_entropy(joint)
    assert full == pytest.approx(joint_entropy(joint, ("x", "y")), abs=1e-15)


def test_marginalize_sums_and_preserves_axis_order():
    rng = np.random.default_rng(3)
    table = rng.dirichlet(np.ones(24)).reshape(2, 3, 4)
    joint = JointPmf((("a", 2), ("b", 3), ("c", 4)), table)
    sub = marginalize(joint, ("c", "a"))   # keep order is cosmetic
    assert sub.axis_names == ("a", "c")
    np.testing.assert_allclose(sub.table, table.sum(axis=1), atol=1e-15)


def test_group_errors():
    joint = bsc_joint(0.1)
    with pytest.raises(UsageError):
        mutual_information(joint, ("x",), ("x",))
    with pytest.raises(UsageError):
        mutual_information(joint, (), ("y",))
    with pytest.raises(UsageError):
        joint.axis_index("w")


def test_pmf_validation():
    with pytest.raises(ValidationError):
        Pmf("x", [0.5, 0.6])
    with pytest.raises(ValidationError):
        Pmf("x", [-0.1, 1.1])
    with pytest.raises(ValidationError):
        JointPmf((("a", 2), ("b", 2)), np.full((2, 3), 0.25))


def test_kernel_row_sums_checked():
    bad = np.array([[[0.7, 0.2], [0.5, 0.5]]])  # first row sums to 0.9
    with pytest.raises(ValidationError):
        TransitionKernel((("x", 1), ("v", 2)), (("y", 2),), bad)


def test_nan_entries_rejected():
    # abs(nan - 1) > tol is False, so a mass test written that way lets NaN in
    with pytest.raises(ValidationError, match="non-finite"):
        Pmf("a", [np.nan, np.nan])
    with pytest.raises(ValidationError, match="non-finite"):
        JointPmf((("a", 1), ("b", 2)), [[np.nan, 1.0]])
    rows = np.array([[[0.5, 0.5], [np.nan, np.nan]]])
    with pytest.raises(ValidationError, match="non-finite"):
        TransitionKernel((("x", 1), ("v", 2)), (("y", 2),), rows)


def test_tables_are_read_only():
    p = Pmf("x", [0.5, 0.5])
    with pytest.raises(ValueError):
        p.probs[0] = 1.0


@st.composite
def joint_tables(draw, max_card=3):
    ca = draw(st.integers(2, max_card))
    cb = draw(st.integers(2, max_card))
    seed = draw(st.integers(0, 2**31 - 1))
    table = np.random.default_rng(seed).dirichlet(np.ones(ca * cb))
    return JointPmf((("a", ca), ("b", cb)), table.reshape(ca, cb))


def bits(values) -> np.ndarray:
    """The float64 bit patterns of values, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).view(np.uint64)


def wide_values(rng, shape, zeros: float) -> np.ndarray:
    """Positive entries spread over 30 decades, so that summing in another
    order changes the result, with a share `zeros` of exact zeros."""
    values = rng.random(shape) * 10.0 ** rng.integers(-15, 15, size=shape)
    values[rng.random(shape) < zeros] = 0.0
    return values


# lengths of 1 (numpy drops the axis), below 8 (a left-to-right run), 8 and
# up (numpy's pairwise blocks) and past 128 (its recursive halves)
SUM_LENGTHS = st.sampled_from([1, 1, 2, 3, 7, 8, 9, 16, 17, 130])


@given(st.lists(SUM_LENGTHS, min_size=1, max_size=6), st.data(),
       st.integers(0, 2 ** 31 - 1), st.sampled_from([0.0, 0.3, 1.0]))
@settings(max_examples=400, deadline=None)
def test_ordered_sum_is_numpys_sum_bit_for_bit(shape, data, seed, zeros):
    # every set of summed axes: kept runs between summed ones, summed runs
    # that merge across length-1 axes, no axis or every axis summed
    if np.prod(shape) > 50_000:
        shape = shape[:2]
    axes = data.draw(st.sets(st.integers(0, len(shape) - 1)).map(sorted))
    a = wide_values(np.random.default_rng(seed), shape, zeros)
    got, want = _ordered_sum(a, tuple(axes)), a.sum(axis=tuple(axes))
    assert got.shape == np.shape(want)
    assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("shape,axes", [
    ((2, 9000), (1,)),                    # one summed run past the 8192-entry buffer
    ((3, 2, 9000), (0, 2)),               # and kept between two summed axes
    ((4, 1, 3, 2, 1, 4100), (0, 3, 5)),   # a run of 8200 merged across a length-1 axis
    ((9000, 3), (0,)),                    # 9000 summed rows onto a kept last axis
    ((2, 5000, 1, 2), (1, 2)),
])
def test_ordered_sum_follows_numpy_past_its_buffer(shape, axes):
    a = wide_values(np.random.default_rng(7), shape, 0.1)
    assert np.array_equal(bits(_ordered_sum(a, axes)), bits(a.sum(axis=axes)))


def test_ordered_sum_keeps_numpys_signed_zeros():
    a = np.full((3, 2, 4), -0.0)
    for axes in ((0, 2), (2,), (0,), (1,), (0, 1, 2)):
        assert np.array_equal(bits(_ordered_sum(a, axes)), bits(a.sum(axis=axes)))


@given(st.integers(1, 40), st.integers(1, 200), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=150, deadline=None)
def test_positive_entropy_rows_equal_the_packed_rows(rows, width, seed):
    # an all-positive stack takes the fast path; a zero put anywhere in
    # each row sends the same terms through the packed path, and both equal
    # _entropy_bits of each row
    rng = np.random.default_rng(seed)
    tables = wide_values(rng, (rows, width), 0.0) + 1e-300
    at = rng.integers(0, width + 1)
    packed = np.insert(tables, at, 0.0, axis=1)
    fast = _entropy_bits_batch(tables)
    assert np.array_equal(bits(fast), bits(_entropy_bits_batch(packed)))
    assert np.array_equal(bits(fast), bits([_entropy_bits(row) for row in tables]))


@given(joint_tables())
@settings(max_examples=60, deadline=None)
def test_mutual_information_bounds(joint):
    mi = mutual_information(joint, ("a",), ("b",))
    ha = joint_entropy(joint, ("a",))
    hb = joint_entropy(joint, ("b",))
    assert 0.0 <= mi <= min(ha, hb) + 1e-9


@given(joint_tables())
@settings(max_examples=60, deadline=None)
def test_entropy_chain_identity(joint):
    ha = joint_entropy(joint, ("a",))
    hb = joint_entropy(joint, ("b",))
    hab = joint_entropy(joint)
    mi = mutual_information(joint, ("a",), ("b",))
    assert hab == pytest.approx(ha + hb - mi, abs=1e-9)
    assert hab <= ha + hb + 1e-12


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_data_processing_on_composed_chain(seed):
    rng = np.random.default_rng(seed)
    pa = rng.dirichlet(np.ones(2))
    k_ab = rng.dirichlet(np.ones(2), size=2)
    k_bc = rng.dirichlet(np.ones(2), size=2)
    table = pa[:, None, None] * k_ab[:, :, None] * k_bc[None, :, :]
    joint = JointPmf((("a", 2), ("b", 2), ("c", 2)), table)
    assert (mutual_information(joint, ("a",), ("c",))
            <= mutual_information(joint, ("a",), ("b",)) + 1e-9)


def test_compose_axes_and_state_marginal(trend):
    model, policy = trend
    joint = compose(model.state_pmf, policy.table, model.main_kernel,
                    model.wiretap_kernel)
    assert joint.axis_names == ("u", "x", "v1", "v2", "y", "z")
    states = marginalize(joint, ("v1", "v2"))
    np.testing.assert_allclose(states.table, model.state_pmf.table, atol=1e-12)
    assert joint.table.sum() == pytest.approx(1.0, abs=1e-12)


def test_compose_rejects_mismatched_axes(trend):
    model, policy = trend
    wrong_state = JointPmf((("v1", 2), ("w", 1)), model.state_pmf.table)
    with pytest.raises(UsageError):
        compose(wrong_state, policy.table, model.main_kernel, model.wiretap_kernel)


@pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64, 2 ** 100])
def test_dirichlet_draws_follow_default_rng(seed):
    # _pcg64_outputs tabulates numpy's SeedSequence pool hash and PCG64
    # seeding, ziggurat its exponentials, and _dirichlet_draws stands in
    # for dirichlet(ones); a numpy that changes any of them fails here.  The second index range crosses
    # 2^32, and seeds of 3 and 4 words push the entropy past the 4-word
    # pool; from 8 outcomes on np.sum adds in blocked partial sums, which
    # can differ from dirichlet's running sum.
    for first in (0, 2 ** 32 - 3):
        for outcomes in range(2, 19):
            for n_cells in range(1, 5):
                want = [np.random.default_rng([seed, i]).dirichlet(np.ones(outcomes), n_cells)
                        for i in range(first, first + 6)]
                np.testing.assert_array_equal(
                    _dirichlet_draws(seed, first, 6, n_cells, outcomes), want)


@pytest.mark.parametrize("k", [128, 129, 1000, 70_000])
def test_long_runs_are_pcg64s_raw_outputs(k):
    # past 128 outputs a generator's run is stepped as sub-lanes started by
    # the jump-ahead: 2 of 72 at 129, 487 of 144 at 70,000
    words = _pcg64_outputs((7,), 2 ** 32 - 1, 2, k)
    for row, index in zip(words, (2 ** 32 - 1, 2 ** 32)):
        np.testing.assert_array_equal(
            row, np.random.default_rng([7, index]).bit_generator.random_raw(k))


@pytest.mark.parametrize("seed", [0, 2 ** 32, 2 ** 64, 2 ** 100])
def test_trial_draws_follow_default_rng(seed):
    # The simulator's trial t draws random(n), integers(1, m + 1) and
    # random((3, n)) from default_rng([seed, 1, t]).  _pcg64_outputs
    # reimplements PCG64's step and output function, and _trial_draws
    # numpy's next_double and its buffered 32-bit Lemire draw, which for a
    # power-of-two m takes one output and never rejects.  A numpy that
    # changes any of the three fails here, by name.  The second index range
    # crosses 2^32.
    for first in (0, 2 ** 32 - 3):
        words = _pcg64_outputs((seed, 1), first, 6, 65)
        for t in range(6):
            raw = np.random.default_rng([seed, 1, first + t]).bit_generator.random_raw(65)
            assert np.array_equal(words[t], raw), "PCG64's output function changed"
        for n in (1, 8, 16):
            for m in (2, 4, 2 ** 10, 2 ** 20):
                messages, draws = _trial_draws(seed, m, n, first, 6)
                for t in range(6):
                    rng = np.random.default_rng([seed, 1, first + t])
                    assert np.array_equal(draws[t, 0], rng.random(n)), "next_double changed"
                    assert messages[t] == rng.integers(1, m + 1), (
                        "the buffered 32-bit Lemire draw changed")
                    assert np.array_equal(draws[t, 1:], rng.random((3, n))), (
                        "next_double changed")

