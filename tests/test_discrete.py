import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiretapsi import (
    AuxiliaryPolicy,
    DiscreteWiretapModel,
    JointPmf,
    SearchConfig,
    TransitionKernel,
    UsageError,
    achievable_points,
    main_channel_capacity,
    rate_triplet,
    search_summary,
    secrecy_rate,
    secrecy_upper_bound,
)
from wiretapsi import discrete, probability
from wiretapsi.cli import main
from wiretapsi.discrete import (_policy_chunks, _profiles, _triplet_from_profile, _triplets,
                                iter_policies)
from wiretapsi.modelio import model_to_dict
from wiretapsi.probability import _clamp_mi, _entropy_bits, compose, marginalize
from wiretapsi.reference import (
    blind_wiretap_model,
    bsc,
    degraded_bsc_pair,
    mirrored_wiretap_model,
    stateless_model,
    uniform_input_policy,
)

from conftest import random_binary_model, random_small_model
from discrete_reference import reference_discrete_region, reference_triplet


def h2(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def test_degraded_pair_uniform_policy_rate(degraded_pair):
    model, policy = degraded_pair
    triplet = rate_triplet(model, policy)
    assert triplet.mi_uv == 0.0
    assert triplet.r_u1 == pytest.approx(h2(0.2) - h2(0.05), abs=1e-12)
    assert triplet.r_u2 == pytest.approx(1.0 - h2(0.05), abs=1e-12)
    assert triplet.d_u2 == pytest.approx(triplet.r_u1 / triplet.r_u2, abs=1e-12)


def test_trend_instance_triplet_closed_form(trend):
    # u is uniform, y = u xor Bern(0.03), u = v1 xor Bern(0.25), z blind to u
    model, policy = trend
    triplet = rate_triplet(model, policy)
    assert triplet.mi_uy == pytest.approx(1.0 - h2(0.03), abs=1e-12)
    assert triplet.mi_uv == pytest.approx(1.0 - h2(0.25), abs=1e-12)
    assert triplet.mi_uz == pytest.approx(0.0, abs=1e-12)
    assert triplet.d_u2 == 1.0


def test_mirrored_channel_has_zero_secrecy_rate(small_search):
    main = np.zeros((2, 2, 2))
    for x in range(2):
        for v1 in range(2):
            main[x, v1] = bsc(0.1)[x ^ v1]
    model = mirrored_wiretap_model(main, np.array([0.6, 0.4]))
    policy = uniform_input_policy(model)
    triplet = rate_triplet(model, policy)
    assert triplet.mi_uz == pytest.approx(triplet.mi_uy, abs=1e-12)
    assert secrecy_rate(model, small_search) == 0.0


def test_blind_wiretap_rate_meets_capacity_under_matched_budget(small_search):
    main = np.zeros((2, 2, 2))
    for x in range(2):
        for v1 in range(2):
            main[x, v1] = bsc(0.05)[x ^ v1]
    model = blind_wiretap_model(main, np.array([0.7, 0.3]))
    rate = secrecy_rate(model, small_search)
    cap = main_channel_capacity(model, small_search)
    assert rate == pytest.approx(cap, abs=1e-12)


def test_policy_stream_is_prefix_stable(trend):
    model, _ = trend
    short = SearchConfig(u_card=2, n_random=5, seed=9)
    long = SearchConfig(u_card=2, n_random=12, seed=9)
    first = [p.table.table for p in iter_policies(model, short)]
    head = [p.table.table for p in iter_policies(model, long)][:5]
    for a, b in zip(first, head):
        np.testing.assert_array_equal(a, b)


def test_policy_stream_order():
    # grid block first, cells in (v1, v2) order with the last varying
    # fastest; then draw i from default_rng([seed, i]), one Dirichlet per cell
    model = random_binary_model(np.random.default_rng(3))
    policies = [p.table.table for p in iter_policies(
        model, SearchConfig(u_card=2, grid_steps=1, n_random=3, seed=6))]
    corner = np.eye(4)[::-1]          # one-step grid: (0,0,0,1), ..., (1,0,0,0)
    assert len(policies) == 4 ** 4 + 3
    np.testing.assert_array_equal(policies[0], np.tile(corner[0], (2, 2, 1)).reshape(2, 2, 2, 2))
    second = np.stack([corner[0], corner[0], corner[0], corner[1]]).reshape(2, 2, 2, 2)
    np.testing.assert_array_equal(policies[1], second)
    for i, table in enumerate(policies[4 ** 4:]):
        rng = np.random.default_rng([6, i])
        want = np.stack([rng.dirichlet(np.ones(4)) for _ in range(4)]).reshape(2, 2, 2, 2)
        np.testing.assert_array_equal(table, want)


def test_budget_monotonicity(trend):
    model, _ = trend
    rates = [secrecy_rate(model, SearchConfig(u_card=2, n_random=n, seed=2))
             for n in (5, 15, 40)]
    assert rates[0] <= rates[1] <= rates[2]


def test_grid_enumeration_count():
    model = degraded_bsc_pair()
    # one (v1, v2) cell, 4 outcomes, simplex grid with 2 steps: C(5,3) points
    search = SearchConfig(u_card=2, grid_steps=2, seed=0)
    assert sum(1 for _ in iter_policies(model, search)) == math.comb(5, 3)


def test_grid_includes_deterministic_corner_on_stateless_model():
    model = degraded_bsc_pair(0.05, 0.2)
    search = SearchConfig(u_card=2, grid_steps=8, seed=0)
    best = secrecy_rate(model, search)
    # the u = x uniform corner lies on the grid, so the search is exact here
    assert best == pytest.approx(h2(0.2) - h2(0.05), abs=1e-12)


def test_grid_cap_enforced(trend):
    model, _ = trend
    with pytest.raises(UsageError):
        list(iter_policies(model, SearchConfig(u_card=2, grid_steps=40)))


def test_zero_budget_rejected(trend):
    model, _ = trend
    with pytest.raises(UsageError):
        list(iter_policies(model, SearchConfig(u_card=2)))


def test_u_card_bound_enforced(trend):
    model, _ = trend
    assert model.u_card_bound == 2 * 2 * 1 + 4
    with pytest.raises(UsageError):
        list(iter_policies(model, SearchConfig(u_card=9, n_random=1)))
    table = np.zeros((2, 1, 9, 2))
    table[:, :, 0, 0] = 1.0
    policy = AuxiliaryPolicy(9, TransitionKernel(
        (("v1", 2), ("v2", 1)), (("u", 9), ("x", 2)), table))
    with pytest.raises(UsageError):
        rate_triplet(model, policy)


def test_v1_mode_policies_ignore_v2():
    rng = np.random.default_rng(8)
    model = random_binary_model(rng)
    search = SearchConfig(u_card=2, n_random=4, seed=1, mode="v1")
    for policy in iter_policies(model, search):
        np.testing.assert_array_equal(policy.table.table[:, 0],
                                      policy.table.table[:, 1])


def test_search_summary_matches_single_metrics(trend):
    model, _ = trend
    search = SearchConfig(u_card=2, n_random=30, seed=4)
    summary = search_summary(model, search)
    assert summary["secrecy_rate"] == pytest.approx(
        secrecy_rate(model, search), abs=1e-15)
    assert summary["secrecy_upper_bound"] == pytest.approx(
        secrecy_upper_bound(model, search), abs=1e-15)
    assert summary["main_channel_capacity"] == pytest.approx(
        main_channel_capacity(model, search), abs=1e-15)
    assert summary["secrecy_rate"] <= summary["secrecy_upper_bound"] + 1e-9


def test_achievable_points_structure(trend):
    model, _ = trend
    search = SearchConfig(u_card=2, n_random=20, seed=6, curve_points=9)
    region = achievable_points(model, search)
    assert any(p.r == 0.0 and p.d == 1.0 and p.policy_id == -1
               for p in region.points)
    assert region.contains(0.0, 1.0)
    assert region.contains(region.max_r_u1, 1.0)
    assert not region.contains(region.max_r_u1 + 0.1, 1.0)
    assert not region.contains(-0.01, 0.5)
    for p in region.points:
        assert 0.0 <= p.d <= 1.0
        assert p.r >= 0.0
        if p.policy_id >= 0:
            assert p.policy_id in region.policies


def test_achievable_curve_products(trend):
    # interior samples sit on R*d = r_u1 for their policy
    model, _ = trend
    search = SearchConfig(u_card=2, n_random=10, seed=3, curve_points=7)
    region = achievable_points(model, search)
    by_policy = {}
    for p in region.points:
        if p.policy_id >= 0:
            by_policy.setdefault(p.policy_id, []).append(p)
    for pid, pts in by_policy.items():
        triplet = rate_triplet(model, region.policies[pid])
        r1 = max(triplet.r_u1, 0.0)
        for p in pts:
            if p.d < 1.0:
                assert p.r * p.d == pytest.approx(r1, abs=1e-9)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_sandwich_on_random_models(seed):
    rng = np.random.default_rng(seed)
    model = random_binary_model(rng)
    search = SearchConfig(u_card=2, n_random=12, seed=seed % 1000)
    assert (secrecy_rate(model, search)
            <= secrecy_upper_bound(model, search) + 1e-9)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_rate_triplet_equivocation_identity(seed):
    rng = np.random.default_rng(seed)
    model = random_binary_model(rng)
    policy = next(iter_policies(model, SearchConfig(
        u_card=2, n_random=1, seed=seed % 997)))
    t = rate_triplet(model, policy)
    assert 0.0 <= t.d_u2 <= 1.0
    assert t.r_u1 <= t.r_u2 + 1e-12
    if t.r_u2 > 1e-9 and t.r_u1 > 0.0:
        assert t.d_u2 == pytest.approx(min(1.0, t.r_u1 / t.r_u2), abs=1e-12)


def single_policy_profiles(model, search):
    """(mi_uy, mi_uv, mi_uz, mi_uv1) per policy through rate_triplet and one
    validated joint per policy: the reference for the batched sweep."""
    rows = []
    for policy in iter_policies(model, search):
        t = rate_triplet(model, policy)
        joint = compose(model.state_pmf, policy.table, model.main_kernel,
                        model.wiretap_kernel)
        uv = marginalize(joint, ("u", "v1", "v2")).table
        mi_uv1 = _clamp_mi(_entropy_bits(uv.sum(axis=(1, 2)))
                           + _entropy_bits(uv.sum(axis=(0, 2)))
                           - _entropy_bits(uv.sum(axis=2)))
        rows.append((t.mi_uy, t.mi_uv, t.mi_uz, mi_uv1, t.r_u1))
    return np.array(rows)


def first_best(values):
    # the per-policy loop: strictly greater wins, so ties keep the first id
    best, best_id = 0.0, -1
    for pid, value in enumerate(values):
        if value > best:
            best, best_id = value, pid
    return best, best_id


# (model, mode, random draws, grid steps, exact ties among the best ids)
SWEEP_CASES = [
    ("trend", "v1v2", 40, 0, False),
    ("trend", "v1", 40, 0, False),
    ("trend", "v1v2", 5, 2, True),       # three-way tie on the wiretap bound
    ("degraded", "v1", 3, 2, True),      # two-way tie on the state bound
    ("small", "v1v2", 60, 0, False),
    ("small", "v1", 60, 1, False),
]


@pytest.mark.parametrize("name,mode,n_random,grid,ties", SWEEP_CASES)
def test_batched_sweep_matches_single_policy_loop(trend, name, mode, n_random, grid, ties):
    model = {"trend": trend[0], "degraded": degraded_bsc_pair(0.05, 0.2),
             "small": random_small_model(np.random.default_rng(11))}[name]
    search = SearchConfig(u_card=2, n_random=n_random, grid_steps=grid, seed=5, mode=mode)
    ref = single_policy_profiles(model, search)
    np.testing.assert_array_equal(_profiles(model, search), ref[:, :4])

    state = first_best(ref[:, 0] - ref[:, 3])
    tap = first_best(ref[:, 0] - ref[:, 2])
    restricted = single_policy_profiles(model, dataclasses.replace(search, mode="v1"))
    capacity = first_best(restricted[:, 0] - restricted[:, 3])
    rate = first_best(ref[:, 4])
    summary = search_summary(model, search)
    assert achievable_points(model, search).summary == summary
    assert summary["best_policies"] == {"secrecy_rate": rate[1], "state_bound": state[1],
                                        "wiretap_bound": tap[1],
                                        "main_channel_capacity": capacity[1]}
    assert summary["secrecy_rate"] == secrecy_rate(model, search) == rate[0]
    assert (summary["secrecy_upper_bound"] == secrecy_upper_bound(model, search)
            == min(state[0], tap[0]))
    assert (summary["main_channel_capacity"] == main_channel_capacity(model, search)
            == capacity[0])
    if ties:
        assert max(np.count_nonzero(v == v.max())
                   for v in (ref[:, 0] - ref[:, 3], ref[:, 0] - ref[:, 2])) > 1


@given(st.tuples(*[st.integers(1, 3)] * 6), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=120, deadline=None)
def test_stack_composition_is_composes_einsum_bit_for_bit(cards, seed):
    # any alphabet may have one letter; the stack mixes random policies
    # with a deterministic one, and kernels with a deterministic row
    c_u, c_x, c_y, c_z, c_v1, c_v2 = cards
    rng = np.random.default_rng(seed)
    main_table = rng.dirichlet(np.ones(c_y), size=(c_x, c_v1))
    main_table[0, 0] = np.eye(c_y)[-1]
    model = DiscreteWiretapModel(
        state_pmf=JointPmf((("v1", c_v1), ("v2", c_v2)),
                           rng.dirichlet(np.ones(c_v1 * c_v2)).reshape(c_v1, c_v2)),
        main_kernel=TransitionKernel((("x", c_x), ("v1", c_v1)), (("y", c_y),), main_table),
        wiretap_kernel=TransitionKernel((("x", c_x), ("v2", c_v2)), (("z", c_z),),
                                        rng.dirichlet(np.ones(c_z), size=(c_x, c_v2))))
    tables = rng.dirichlet(np.ones(c_u * c_x), size=(4, c_v1, c_v2))
    tables[0] = np.eye(c_u * c_x)[rng.integers(c_u * c_x, size=(c_v1, c_v2))]
    tables = tables.reshape(4, c_v1, c_v2, c_u, c_x)
    joints = discrete._compose_stack(model, tables)
    assert joints.flags.c_contiguous
    for table, joint in zip(tables, joints):
        want = compose(model.state_pmf, discrete._policy(table).table, model.main_kernel,
                       model.wiretap_kernel).table
        np.testing.assert_array_equal(joint, want)


def test_one_stack_at_the_table_cap_holds_at_most_joint_bytes_an_entry():
    # 19,531 policies of 512 joint entries fill the default table cap in one
    # stack; at |z| = 2, p(u, y)'s partial sums over z are half a joint
    rng = np.random.default_rng(2)
    model = DiscreteWiretapModel(
        state_pmf=JointPmf((("v1", 2), ("v2", 2)), rng.dirichlet(np.ones(4)).reshape(2, 2)),
        main_kernel=TransitionKernel((("x", 4), ("v1", 2)), (("y", 8),),
                                     rng.dirichlet(np.ones(8), size=(4, 2))),
        wiretap_kernel=TransitionKernel((("x", 4), ("v2", 2)), (("z", 2),),
                                        rng.dirichlet(np.ones(2), size=(4, 2))))
    search = SearchConfig(u_card=2, n_random=probability.MAX_TABLE_ENTRIES // 512, seed=0)
    assert discrete._stream_plan(model, search) == (0, search.n_random)
    entries = search.n_random * 512
    tracemalloc.start()
    try:
        _profiles(model, search)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 8 * entries < peak <= discrete.JOINT_BYTES * entries


@pytest.mark.parametrize("cards,u_card", [
    ((2, 1, 2, 1, 1), 2),       # 8 joint entries a policy
    ((2, 1, 1, 1, 1), 1),       # 2, the smallest joint with two inputs
])
def test_a_tiny_joint_stack_holds_no_more_than_it_is_charged(monkeypatch, cards, u_card):
    # a full stack of tiny joints: the per-policy temporaries that do not
    # shrink with the joint are charged beside its table and JOINT_BYTES an
    # entry; _profiles also holds the stream's profile rows, 32 bytes a
    # policy, which POLICY_BYTES charges.  A small table cap keeps the
    # stack at 5,000 to 20,000 policies.
    c_x, c_y, c_z, c_v1, c_v2 = cards
    rng = np.random.default_rng(5)
    model = DiscreteWiretapModel(
        state_pmf=JointPmf((("v1", c_v1), ("v2", c_v2)), np.ones((c_v1, c_v2)) / (c_v1 * c_v2)),
        main_kernel=TransitionKernel((("x", c_x), ("v1", c_v1)), (("y", c_y),),
                                     rng.dirichlet(np.ones(c_y), size=(c_x, c_v1))),
        wiretap_kernel=TransitionKernel((("x", c_x), ("v2", c_v2)), (("z", c_z),),
                                        rng.dirichlet(np.ones(c_z), size=(c_x, c_v2))))
    monkeypatch.setattr(probability, "MAX_TABLE_ENTRIES", 40_000)
    entries = c_v1 * c_v2 * u_card * c_x
    joint = entries * c_y * c_z
    search = SearchConfig(u_card=u_card, n_random=40_000 // joint, seed=0)
    assert discrete._stream_plan(model, search) == (0, search.n_random)
    stack = search.n_random * (8 * entries + joint * discrete.JOINT_BYTES
                               + discrete.STACK_POLICY_BYTES)
    tracemalloc.start()
    try:
        _profiles(model, search)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= stack + 32 * search.n_random


def test_chunked_sweep_gives_identical_artifacts(trend, tmp_path, monkeypatch):
    # 10 random draws after a 100-policy grid; 7 policies per chunk splits
    # the grid, the random block and the boundary between them
    model, _ = trend
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(model)))
    argv = ["discrete-region", "--model", str(path), "--random", "10", "--grid", "2",
            "--mode", "v1", "--curve-points", "5", "--seed", "3"]
    assert main(argv + ["--out", str(tmp_path / "whole")]) == 0
    monkeypatch.setattr(probability, "MAX_TABLE_ENTRIES", 7 * 2 * 2 * 2 * 1 * 2 * 2)
    chunks = [len(c) for c in _policy_chunks(model, SearchConfig(
        u_card=2, n_random=10, grid_steps=2, mode="v1"))]
    assert len(chunks) > 10 and max(chunks) == 7
    assert main(argv + ["--out", str(tmp_path / "chunked")]) == 0
    for name in ("region.csv", "summary.json"):
        assert ((tmp_path / "whole" / name).read_bytes()
                == (tmp_path / "chunked" / name).read_bytes())


@pytest.mark.parametrize("mode,streams", [("v1", {"v1": 30}), ("v1v2", {"v1v2": 30})])
def test_cli_sweeps_each_stream_once(trend, tmp_path, monkeypatch, mode, streams):
    # region.csv and summary.json come from one sweep of the mode's stream;
    # 'v1v2' takes the capacity's 'v1' policies from its own draws
    model, _ = trend
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(model)))
    rows = {}
    chunks = discrete._policy_chunks

    def counted(model, search):
        for tables in chunks(model, search):
            rows[search.mode] = rows.get(search.mode, 0) + len(tables)
            yield tables

    monkeypatch.setattr(discrete, "_policy_chunks", counted)
    assert main(["discrete-region", "--model", str(path), "--random", "30", "--mode", mode,
                 "--out", str(tmp_path / "o")]) == 0
    assert rows == streams


# (|v1|, |v2|, grid steps, policies per stack or None for the whole stream)
V1_REUSE_CASES = [(2, 2, 0, None), (2, 2, 1, None), (2, 2, 1, 7), (3, 2, 0, 5),
                  (1, 3, 2, 4), (2, 3, 0, 1)]


@pytest.mark.parametrize("card_v1,card_v2,grid,per_stack", V1_REUSE_CASES)
def test_v1v2_search_takes_the_v1_rows_from_its_own_draws(monkeypatch, card_v1, card_v2,
                                                          grid, per_stack):
    # the 'v1' rows a 'v1v2' sweep fills from its own random draws equal a
    # separate sweep of the 'v1' stream bit for bit, in whole and in small
    # stacks; only the 'v1' grid block is enumerated again, and the random
    # draws are placed once
    model = random_binary_model(np.random.default_rng(card_v1 * 10 + card_v2),
                                card_v1=card_v1, card_v2=card_v2)
    search = SearchConfig(u_card=2, n_random=23, grid_steps=grid, seed=4)
    if per_stack:
        joint = (search.u_card * model.card_x * card_v1 * card_v2
                 * model.card_y * model.card_z)
        monkeypatch.setattr(probability, "MAX_TABLE_ENTRIES", per_stack * joint)
    v1 = dataclasses.replace(search, mode="v1")
    separate = _profiles(model, v1)
    whole = _profiles(model, search)

    placed = []
    generators = probability._seeded_generators

    def counted(prefix, first, count):
        placed.append(count)
        return generators(prefix, first, count)

    monkeypatch.setattr(probability, "_seeded_generators", counted)
    v1_rows = np.empty((search.n_random, 4))
    np.testing.assert_array_equal(_profiles(model, search, v1_rows), whole)
    assert sum(placed) == search.n_random
    np.testing.assert_array_equal(discrete._v1_stream(model, search, v1_rows), separate)


def test_region_max_r_u1_is_the_best_curve_rate(trend):
    # the largest r_u1 among the region's (r, 1) points is the summary's rate
    model, _ = trend
    region = achievable_points(model, SearchConfig(u_card=2, n_random=40, seed=9))
    best = max(p.r for p in region.points if p.d == 1.0)
    assert region.max_r_u1 == best == region.summary["secrecy_rate"] > 0.0


def region_charge(model, search, policies):
    """The region budget's charge, spelled out: per policy a kept table and
    POLICY_BYTES, POINT_BYTES per point of the bound, one block of rows, and
    one stack's tables with JOINT_BYTES per composed entry and
    STACK_POLICY_BYTES per policy."""
    entries = model.card_v1 * model.card_v2 * search.u_card * model.card_x
    joint = entries * model.card_y * model.card_z
    stack = min(policies, probability.MAX_TABLE_ENTRIES // joint)
    return (policies * (8 * entries + discrete.POLICY_BYTES)
            + (1 + policies * search.curve_points) * discrete.POINT_BYTES
            + max(discrete.BLOCK_ROWS, search.curve_points) * discrete.ROW_BYTES
            + stack * (8 * entries + joint * discrete.JOINT_BYTES + discrete.STACK_POLICY_BYTES))


def test_region_budget_is_checked_before_any_draw(monkeypatch):
    # per policy of the stream: a kept table and the profile rows of both
    # streams, every point its curve can add, a block of rows and one stack
    model = random_binary_model(np.random.default_rng(3))
    search = SearchConfig(u_card=2, n_random=40, grid_steps=1, seed=1, curve_points=5)
    policies = 4 ** 4 + 40
    need = region_charge(model, search, policies)
    monkeypatch.setattr(probability, "BYTE_BUDGET", need)
    achievable_points(model, search)                     # exactly at the budget
    monkeypatch.setattr(probability, "BYTE_BUDGET", need - 1)

    def no_draw(*args):
        raise AssertionError("policies drawn before the budget check")

    monkeypatch.setattr(discrete, "_policy_chunks", no_draw)
    with pytest.raises(UsageError, match="budget"):
        achievable_points(model, search)


def traced_region_peak(monkeypatch, curve_points):
    # mode 'v1' on this model keeps every policy; small stacks keep the
    # sweep's own working set a small part of the traced peak
    model = random_small_model(np.random.default_rng(11))
    search = SearchConfig(u_card=2, n_random=3000, seed=0, mode="v1",
                          curve_points=curve_points)
    monkeypatch.setattr(probability, "MAX_TABLE_ENTRIES", 20_000)
    need = region_charge(model, search, 3000)
    tracemalloc.start()
    try:
        region = achievable_points(model, search)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(region.policies) == 3000
    return need, peak


def test_region_budget_bounds_what_the_search_holds(monkeypatch):
    # at two curve points each, the per-policy charge is the tight one
    need, peak = traced_region_peak(monkeypatch, 2)
    assert need / 2 < peak <= need


def test_region_budget_bounds_a_points_heavy_search(monkeypatch):
    # at 200 curve points each, the columns dominate the charge
    need, peak = traced_region_peak(monkeypatch, 200)
    assert need / 2 < peak <= need


def test_huge_random_budget_exits_two_before_drawing(trend, tmp_path, capsys):
    model, _ = trend
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(model)))
    tracemalloc.start()
    try:
        code = main(["discrete-region", "--model", str(path), "--random", str(10 ** 12),
                     "--out", str(tmp_path / "o")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "budget" in err and "Traceback" not in err
    assert peak < 16 * 2 ** 20
    assert not (tmp_path / "o").exists()


def bits(values):
    return [float(v).hex() for v in values]


def test_triplets_equal_the_scalar_triplet_row_for_row(trend):
    # searched rows, then rows on either side of the rate floor: r_u2 at,
    # below and just above it, |r_u1| at and just above it, r_u1 < 0
    model, _ = trend
    search = SearchConfig(u_card=2, n_random=150, grid_steps=2, seed=2)
    mi = _profiles(model, search)
    f = discrete.RATE_FLOOR
    edges = np.array([
        [0.5, 0.5, 0.1, 0.0], [0.5, 0.5 - f, 0.2, 0.0], [0.5, 0.5 + f, 0.2, 0.0],
        [0.5, 0.5 - 2 * f, 0.5 + f / 2, 0.0], [0.5, 0.5 - 3 * f, 0.5 - f, 0.0],
        [0.3, 0.1, 0.3 + f, 0.0], [0.3, 0.1, 0.3 - f, 0.0], [0.3, 0.1, 0.3 + 2 * f, 0.0],
        [0.2, 0.1, 0.4, 0.0], [0.2, 0.4, 0.1, 0.0], [0.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0], [0.4, 0.4 - 1.5 * f, 0.4 - 1.5 * f, 0.0],
        # differences of exactly the floor
        [f, 0.0, 0.0, 0.0], [0.0, f, 0.0, 0.0], [0.0, 0.0, f, 0.0],
        [2 * f, f, 0.0, 0.0], [3 * f, f, 2 * f, 0.0], [2 * f, 0.0, f, 0.0]])
    rows = np.concatenate([mi, edges])
    columns = _triplets(rows)
    assert any(r_u2 <= f for r_u2 in columns[1]) and any(abs(r) <= f for r in columns[0])
    for i, row in enumerate(rows.tolist()):
        want = reference_triplet(*row[:3])
        assert bits(c[i] for c in columns) == bits(want), row
        view = _triplet_from_profile(*row[:3])
        assert bits((view.r_u1, view.r_u2, view.d_u2)) == bits(want), row
    for i, policy in enumerate(iter_policies(model, search)):
        t = rate_triplet(model, policy)
        assert bits((t.r_u1, t.r_u2, t.d_u2)) == bits(c[i] for c in columns)


def leaking_model():
    # the wiretapper sees x itself, the receiver through a BSC(0.3): every
    # policy that carries information about x leaks more than it delivers
    return stateless_model(bsc(0.3), bsc(0.0))


# (model, discrete-region flags, which policies keep points if known)
REGION_CASES = [
    ("trend", ["--random", "60", "--mode", "v1v2", "--curve-points", "2"], None),
    ("trend", ["--random", "60", "--mode", "v1", "--curve-points", "3"], None),
    ("small", ["--random", "60", "--mode", "v1v2", "--curve-points", "33"], None),
    ("small", ["--random", "40", "--mode", "v1", "--curve-points", "200"], None),
    ("trend", ["--random", "25", "--grid", "2", "--curve-points", "5"], None),
    ("degraded", ["--random", "60", "--curve-points", "33"], "all"),
    ("leaking", ["--random", "60", "--u-card", "3", "--curve-points", "33"], "none"),
]


@pytest.mark.parametrize("name,flags,kept", REGION_CASES)
def test_region_artifacts_equal_the_point_by_point_reference(trend, tmp_path, name, flags, kept):
    model = {"trend": trend[0], "small": random_small_model(np.random.default_rng(11)),
             "degraded": degraded_bsc_pair(0.05, 0.2), "leaking": leaking_model()}[name]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(model)))
    out = tmp_path / "cli"
    assert main(["discrete-region", "--model", str(path), "--seed", "7", *flags,
                 "--out", str(out)]) == 0
    settings = json.loads((out / "manifest.json").read_text())["settings"]
    search = SearchConfig(**{key: settings[key] for key in (
        "u_card", "n_random", "grid_steps", "seed", "mode", "curve_points")})
    points = reference_discrete_region(model, search, tmp_path / "ref")
    region = achievable_points(model, search)
    assert list(zip(region.r.tolist(), region.d.tolist(), region.policy_id.tolist())) == points
    for artifact in ("region.csv", "summary.json"):
        assert (out / artifact).read_bytes() == (tmp_path / "ref" / artifact).read_bytes()
    owners = {pid for _, _, pid in points} - {-1}
    assert list(region.policies) == sorted(owners) and -1 not in region.policies
    if kept == "all":
        assert owners == set(range(len(_profiles(model, search))))
    elif kept == "none":
        assert points == [(0.0, 1.0, -1)]
