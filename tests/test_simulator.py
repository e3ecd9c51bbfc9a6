import dataclasses
import itertools
import json
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiretapsi import (
    DiscreteWiretapModel,
    InfeasibleRateError,
    SimConfig,
    UsageError,
    build_codebook,
    decode,
    eavesdropper_posterior,
    encode,
    rate_triplet,
    run_experiment,
)
from wiretapsi import simulator, validate
from wiretapsi.cli import main
from wiretapsi.discrete import AuxiliaryPolicy
from wiretapsi.modelio import model_to_dict, policy_to_dict, write_json
from wiretapsi.nodesums import _leaves, _NodeSums
from wiretapsi.probability import (JointPmf, TransitionKernel, _entropy_bits_batch,
                                   _pcg64_stream)
from wiretapsi.simulator import (MAX_BLOCK_LENGTH, _build_codebook,
                                 _check_enumeration, _decoder, _posteriors, _row_cut, _selection_table, _Tables)
from wiretapsi.reference import (
    bsc,
    constant_wiretap_instance,
    stateless_model,
    trend_instance,
    uniform_input_policy,
)

from conftest import (
    brute_force_posterior,
    first_typical_replica,
    make_correlated_sim_instance,
)
from simulator_reference import (
    reference_decode,
    reference_log_posterior,
    reference_log_sum_exp,
    reference_posterior,
    reference_ranks,
    reference_run_experiment,
    reference_selection_table,
    state_sequences,
)


def h2(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


@pytest.fixture(scope="module")
def noiseless():
    model = stateless_model(bsc(0.0), bsc(0.25))
    return model, uniform_input_policy(model)


def biased_encoder_instance():
    """Noiseless y = x with a binary uniform v1 the channel ignores; the
    policy sends u = x ~ Bernoulli(0.25).  Only codewords with exactly one
    set symbol are typical at n=4, epsilon 0.25, which makes the encoder's
    pick-or-fallback rule easy to replicate by hand."""
    state = np.array([[0.5], [0.5]])
    main = np.zeros((2, 2, 2))
    for x in range(2):
        for v1 in range(2):
            main[x, v1] = bsc(0.0)[x]
    tap = np.zeros((2, 1, 2))
    tap[:, 0, :] = bsc(0.25)
    model = DiscreteWiretapModel(
        state_pmf=JointPmf((("v1", 2), ("v2", 1)), state),
        main_kernel=TransitionKernel((("x", 2), ("v1", 2)), (("y", 2),), main),
        wiretap_kernel=TransitionKernel((("x", 2), ("v2", 1)), (("z", 2),), tap))
    table = np.zeros((2, 1, 2, 2))
    for u in range(2):
        table[:, :, u, u] = 0.75 if u == 0 else 0.25
    policy = AuxiliaryPolicy(2, TransitionKernel(
        (("v1", 2), ("v2", 1)), (("u", 2), ("x", 2)), table))
    return model, policy


@pytest.fixture(scope="module")
def biased_encoder():
    return biased_encoder_instance()


@pytest.fixture(scope="module")
def posterior_model():
    return make_correlated_sim_instance()


def test_codebook_size_and_occupancy(noiseless):
    model, policy = noiseless
    config = SimConfig(model=model, policy=policy, n=4, rate=0.3,
                       epsilon_typ=0.25, trials=1, seed=0)
    book = build_codebook(config)
    # I(u;y) = 1 bit, so ceil(2^(4 * 0.75)) codewords
    assert book.sequences.shape == (8, 4)
    assert book.bin_count == config.m == 2
    assert np.bincount(book.bin_index)[1:].tolist() == [4, 4]

    config3 = SimConfig(model=model, policy=policy, n=3, rate=0.4,
                        epsilon_typ=0.25, trials=1, seed=0)
    book3 = build_codebook(config3)
    assert book3.sequences.shape[0] == 5
    occupancy = np.bincount(book3.bin_index)[1:]
    assert occupancy.sum() == 5
    assert occupancy.max() - occupancy.min() <= 1


@pytest.mark.parametrize("seed", [0, 1, 17])
@pytest.mark.parametrize("n,rate", [(4, 0.3), (6, 0.35), (8, 0.27)])
def test_codebook_invariants(noiseless, seed, n, rate):
    model, policy = noiseless
    config = SimConfig(model=model, policy=policy, n=n, rate=rate,
                       epsilon_typ=0.25, trials=1, seed=seed)
    book = build_codebook(config)
    occupancy = np.bincount(book.bin_index, minlength=book.bin_count + 1)[1:]
    assert occupancy.max() - occupancy.min() <= 1
    assert book.bin_index.min() >= 1 and book.bin_index.max() <= book.bin_count
    assert book.subbin_index.min() >= 1
    assert book.subbin_index.max() <= book.subbins_per_bin
    assert book.sequences.min() >= 0
    assert book.sequences.max() < policy.u_card
    with pytest.raises(ValueError):
        book.sequences[0, 0] = 1


def test_codebook_deterministic(noiseless):
    model, policy = noiseless
    config = SimConfig(model=model, policy=policy, n=5, rate=0.3,
                       epsilon_typ=0.25, trials=1, seed=123)
    a, b = build_codebook(config), build_codebook(config)
    np.testing.assert_array_equal(a.sequences, b.sequences)
    np.testing.assert_array_equal(a.bin_index, b.bin_index)
    np.testing.assert_array_equal(a.subbin_index, b.subbin_index)


def numpy_codebook(p_u, size, n, m, seed, capacity):
    """The codebook as numpy's own generator draws it: choice, then
    permutation, from default_rng([seed, 0]), the permutation dealing the
    codewords round-robin into the m bins and each bin's ranks into
    subbins of `capacity`."""
    rng = np.random.default_rng([seed, 0])
    sequences = rng.choice(len(p_u), size=(size, n), p=p_u / p_u.sum())
    order = rng.permutation(size)
    bins = np.empty(size, dtype=np.int64)
    bins[order] = np.arange(size) % m + 1
    ranks = np.empty(size, dtype=np.int64)
    ranks[order] = np.arange(size) // m
    return sequences, bins, ranks // capacity + 1


def drawn_codebook(p_u, size, n, m, seed, capacity):
    """_build_codebook on a stand-in config and tables that give `size`
    codewords of n symbols, m bins and subbins of `capacity`: at epsilon
    0.5, I(u;y) = log2(size - 1/2) / n + 1/2 makes ceil(2^(n (I(u;y) -
    epsilon))) = size."""
    config = SimpleNamespace(n=n, epsilon_typ=0.5, m=m, seed=seed)
    triplet = SimpleNamespace(mi_uy=math.log2(size - 0.5) / n + 0.5,
                              mi_uz=math.log2(capacity) / n + 0.5)
    book = _build_codebook(config, SimpleNamespace(p_u=p_u, triplet=triplet))
    want_capacity = max(1, math.ceil(2.0 ** (n * (triplet.mi_uz - 0.5))))
    return book, numpy_codebook(p_u, size, n, m, seed, want_capacity)


def assert_codebook_is_numpys(book, want):
    sequences, bins, subbins = want
    assert book.sequences.dtype == sequences.dtype
    np.testing.assert_array_equal(book.sequences, sequences)
    np.testing.assert_array_equal(book.bin_index, bins)
    np.testing.assert_array_equal(book.subbin_index, subbins)


@settings(max_examples=80, deadline=None)
@given(seed=st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 64 - 1)),
       k=st.integers(1, 10), off=st.sampled_from([-1, 0, 1]), n=st.integers(1, 16),
       p_u=st.lists(st.sampled_from([0.0, 0.0, 1e-3, 0.2, 0.5, 1.0, 7.0]), min_size=1,
                    max_size=5).filter(lambda p: sum(p) > 0),
       bins=st.integers(1, 10), capacity=st.integers(1, 9))
def test_codebook_is_numpys_choice_and_permutation_bit_for_bit(seed, k, off, n, p_u, bins,
                                                               capacity):
    # the codebook's sequences are numpy's choice(|u|, (K, n), p=p) and its
    # bins and subbins come from numpy's permutation(K), both on
    # default_rng([seed, 0]); the kernel draws them without numpy.random,
    # through next_double uniforms, then numpy's Fisher-Yates on buffered
    # 32-bit halves, low half first, under a mask of i's bit length
    size = max(2, 2 ** k + off)
    m = 2 ** min(bins, size.bit_length() - 1)
    assert_codebook_is_numpys(*drawn_codebook(np.array(p_u), size, n, m, seed, capacity))


def test_a_codebook_of_65536_is_numpys_bit_for_bit():
    # 2^20 sequence words in 32 blocks of the kernel, then a shuffle of
    # 65,536 places through every mask width
    p_u = np.array([0.3, 0.0, 0.2, 0.4, 0.1])
    assert_codebook_is_numpys(*drawn_codebook(p_u, 2 ** 16, 16, 2 ** 9, 2 ** 64 - 1, 3))


@pytest.mark.parametrize("seed,index", [(0, 0), (7, 1), (2 ** 40 + 3, 0), (2 ** 64 - 1, 5)])
def test_one_stream_kernel_is_pcg64s_raw_outputs(seed, index):
    # outputs start .. start + count - 1 of default_rng([seed, index]):
    # counts on both sides of a round of 8, of 4,096 (512 lanes of one
    # round) and of 32,768, starts that put lane boundaries anywhere, and
    # starts past 2^64
    for start in (0, 1, 5, 4095, 2 ** 33 + 7, 2 ** 70 + 11):
        for count in (1, 7, 8, 9, 4095, 4096, 4097, 12345, 32768, 32769):
            bits = np.random.default_rng([seed, index]).bit_generator
            want = bits.advance(start).random_raw(count)
            np.testing.assert_array_equal(_pcg64_stream((seed,), index, start, count), want)


def test_encode_matches_selection_replica(biased_encoder):
    model, policy = biased_encoder
    # p(u, v1) from first principles: states independent of the input draw
    p_uv1 = np.einsum("ab,abux->ua", model.state_pmf.table,
                      policy.table.table)
    rng_states = np.random.default_rng(99)
    saw_fallback = saw_hit = False
    for seed in (0, 2, 3, 9):
        config = SimConfig(model=model, policy=policy, n=4, rate=0.3,
                           epsilon_typ=0.25, trials=1, seed=seed)
        book = build_codebook(config)
        for message in range(1, book.bin_count + 1):
            for _ in range(3):
                v1_seq = rng_states.integers(0, 2, size=4)
                expect_k, expect_fb = first_typical_replica(
                    book, config, p_uv1, v1_seq, message)
                u_seq, x_seq, fell_back = encode(
                    book, config, message, v1_seq,
                    np.random.default_rng(0))
                np.testing.assert_array_equal(u_seq, book.sequences[expect_k])
                assert fell_back == expect_fb
                assert x_seq.shape == (4,)
                saw_fallback |= fell_back
                saw_hit |= not fell_back
    assert saw_fallback and saw_hit


def test_encode_fallback_uses_first_codeword_of_bin_one(biased_encoder):
    model, policy = biased_encoder
    config = SimConfig(model=model, policy=policy, n=4, rate=0.3,
                       epsilon_typ=0.25, trials=1, seed=0)
    book = build_codebook(config)
    # seed 0: both members of bin 2 carry two set symbols, hence atypical
    u_seq, _, fell_back = encode(book, config, 2, np.zeros(4, dtype=int),
                                 np.random.default_rng(1))
    assert fell_back
    first_of_bin1 = int(np.flatnonzero(book.bin_index == 1)[0])
    np.testing.assert_array_equal(u_seq, book.sequences[first_of_bin1])


def test_encode_deterministic_x_when_policy_is_deterministic(biased_encoder):
    # u = x in this policy, so the sampled input must equal the codeword
    model, policy = biased_encoder
    config = SimConfig(model=model, policy=policy, n=4, rate=0.3,
                       epsilon_typ=0.25, trials=1, seed=2)
    book = build_codebook(config)
    u_seq, x_seq, _ = encode(book, config, 1, np.zeros(4, dtype=int),
                             np.random.default_rng(7))
    np.testing.assert_array_equal(u_seq, x_seq)


def test_encode_input_validation(noiseless):
    model, policy = noiseless
    config = SimConfig(model=model, policy=policy, n=4, rate=0.3,
                       epsilon_typ=0.25, trials=1, seed=0)
    book = build_codebook(config)
    rng = np.random.default_rng(0)
    with pytest.raises(UsageError, match="outside"):
        encode(book, config, 0, np.zeros(4, dtype=int), rng)
    with pytest.raises(UsageError, match="length 4"):
        encode(book, config, 1, np.zeros(3, dtype=int), rng)


def test_decode_exact_match_oracle(noiseless):
    # noiseless u = y channel: a codeword is typical with y iff equal, so
    # decoding reduces to exact lookup with ambiguity on duplicates
    model, policy = noiseless
    config = SimConfig(model=model, policy=policy, n=4, rate=0.3,
                       epsilon_typ=0.25, trials=1, seed=0)
    book = build_codebook(config)
    outcomes = set()
    for y in itertools.product(range(2), repeat=4):
        y_seq = np.array(y)
        matches = np.flatnonzero((book.sequences == y_seq).all(axis=1))
        got = decode(book, config, y_seq)
        if matches.size == 1:
            assert got == int(book.bin_index[matches[0]])
            outcomes.add("unique")
        else:
            assert got is None
            outcomes.add("none" if matches.size == 0 else "ambiguous")
    assert "unique" in outcomes and "none" in outcomes


def test_decode_length_check(noiseless):
    model, policy = noiseless
    config = SimConfig(model=model, policy=policy, n=4, rate=0.3,
                       epsilon_typ=0.25, trials=1, seed=0)
    book = build_codebook(config)
    with pytest.raises(UsageError, match="length 4"):
        decode(book, config, np.zeros(5, dtype=int))


def test_posterior_matches_brute_force(posterior_model):
    model, policy = posterior_model
    config = SimConfig(model=model, policy=policy, n=3, rate=0.4,
                       epsilon_typ=0.05, trials=1, seed=9)
    book = build_codebook(config)
    assert book.bin_count == 2
    for z in itertools.product(range(2), repeat=3):
        z_seq = np.array(z)
        expected = brute_force_posterior(book, config, z_seq)
        got = eavesdropper_posterior(book, config, z_seq).probs
        np.testing.assert_allclose(got, expected, atol=1e-12)


def test_posterior_is_a_distribution_and_deterministic(posterior_model):
    model, policy = posterior_model
    config = SimConfig(model=model, policy=policy, n=3, rate=0.4,
                       epsilon_typ=0.05, trials=1, seed=4)
    book = build_codebook(config)
    z_seq = np.array([1, 0, 1])
    a = eavesdropper_posterior(book, config, z_seq).probs
    b = eavesdropper_posterior(book, config, z_seq).probs
    np.testing.assert_array_equal(a, b)
    assert a.sum() == pytest.approx(1.0, abs=1e-12)
    assert (a >= 0).all()


def test_posterior_rejects_impossible_observation(noiseless):
    # tap is a clean copy here, so any z that is not a selectable codeword
    # has probability zero
    model = stateless_model(bsc(0.05), bsc(0.0))
    policy = uniform_input_policy(model)
    config = SimConfig(model=model, policy=policy, n=3, rate=0.4,
                       epsilon_typ=0.25, trials=1, seed=0)
    book = build_codebook(config)
    selectable = {tuple(book.sequences[k])
                  for k in range(book.sequences.shape[0])}
    missing = next(z for z in itertools.product(range(2), repeat=3)
                   if z not in selectable)
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # no log(0) or inf - inf warning on the way
        with pytest.raises(UsageError, match="zero probability"):
            eavesdropper_posterior(book, config, np.array(missing))


def _log_sum_exp(rows):
    """simulator._log_sums with each row of rows (R, n) one message row,
    taken whole; it overwrites the rows."""
    return simulator._log_sums(lambda a, b, lo, hi: rows[:, None, lo:hi], 1,
                               rows.shape[1], rows.shape[1])[:, 0]


def test_log_sum_exp_rows():
    rows = np.log(np.random.default_rng(4).dirichlet(np.ones(6), size=5)) - 700.0
    rows[1, 2:] = -np.inf
    rows[2, :] = rows[2, 0]                  # every entry at the row maximum
    rows[3, :] = -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _log_sum_exp(rows.copy())          # it overwrites its rows
    live = [0, 1, 2, 4]
    # direct sum after a shift by 700, which keeps exp(row) representable
    want = np.log(np.exp(rows[live] + 700.0).sum(axis=1)) - 700.0
    np.testing.assert_allclose(got[live], want, rtol=0, atol=1e-12)
    assert got[3] == -np.inf


def _lse_rows(draw):
    """Rows of a few shared values, so peaks tie, shifted towards exp's
    underflow, with -inf entries and whole -inf rows."""
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 9)))
    pool = draw(st.lists(st.one_of(st.floats(-60.0, 60.0), st.just(-np.inf)),
                         min_size=1, max_size=4))
    rows = np.array(draw(st.lists(st.sampled_from(pool), min_size=shape[0] * shape[1],
                                  max_size=shape[0] * shape[1]))).reshape(shape)
    shift = draw(st.sampled_from([0.0, -700.0, -745.0, -745.5, -800.0]))
    return rows + shift


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_fused_log_sum_exp_matches_the_reference(data):
    # the fused form takes rows - peak once and zeroes the peaks after exp;
    # the reference masks them to -inf first: the same terms, the same sums
    rows = _lse_rows(data.draw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _log_sum_exp(rows.copy())          # it overwrites its rows
    assert got.tobytes() == reference_log_sum_exp(rows).tobytes()


def test_run_experiment_deterministic():
    model, policy = trend_instance()
    config = SimConfig(model=model, policy=policy, n=6, rate=0.17,
                       epsilon_typ=0.45, trials=25, seed=13)
    a = run_experiment(config).to_dict()
    b = run_experiment(config).to_dict()
    assert a == b


def test_run_experiment_report_shape():
    model, policy = trend_instance()
    config = SimConfig(model=model, policy=policy, n=6, rate=0.17,
                       epsilon_typ=0.45, trials=30, seed=3)
    report = run_experiment(config)
    assert report.trials == 30 and report.n == 6 and report.m == config.m
    lo, hi = report.pe_ci95
    assert 0.0 <= lo <= report.pe <= hi <= 1.0
    assert report.equivocation_min <= report.d <= report.equivocation_max
    assert 0.0 <= report.fallback_rate <= 1.0
    trip = rate_triplet(model, policy)
    assert report.theoretical.r_u1 == pytest.approx(trip.r_u1, abs=1e-15)
    doc = report.to_dict()
    assert doc["seed"] == 3
    assert doc["theoretical"]["d_u2"] == pytest.approx(trip.d_u2, abs=1e-15)


def test_constant_wiretap_gives_full_equivocation():
    model, policy = constant_wiretap_instance()
    config = SimConfig(model=model, policy=policy, n=5, rate=0.25,
                       epsilon_typ=0.45, trials=12, seed=1)
    report = run_experiment(config)
    assert report.d == 1.0
    assert report.equivocation_min == 1.0 == report.equivocation_max


def test_config_validation(noiseless):
    model, policy = noiseless
    good = dict(model=model, policy=policy, n=4, rate=0.3, epsilon_typ=0.25,
                trials=1, seed=0)

    for bad in (dict(n=0), dict(n=17), dict(trials=0), dict(epsilon_typ=0.0),
                dict(rate=0.0), dict(seed=-1), dict(rate=0.2, n=3),
                dict(rate=5.25), dict(rate=1e300), dict(rate=math.inf)):
        with pytest.raises(UsageError):
            SimConfig(**{**good, **bad})


def test_state_alphabet_cap():
    state = np.full((2, 4), 1.0 / 8.0)
    main = np.zeros((2, 2, 2))
    for x in range(2):
        for v1 in range(2):
            main[x, v1] = bsc(0.1)[x]
    tap = np.zeros((2, 4, 2))
    for x in range(2):
        for v2 in range(4):
            tap[x, v2] = bsc(0.25)[x]
    model = DiscreteWiretapModel(
        state_pmf=JointPmf((("v1", 2), ("v2", 4)), state),
        main_kernel=TransitionKernel((("x", 2), ("v1", 2)), (("y", 2),), main),
        wiretap_kernel=TransitionKernel((("x", 2), ("v2", 4)), (("z", 2),), tap))
    policy = uniform_input_policy(model)
    with pytest.raises(UsageError, match="desk-scale cap"):
        SimConfig(model=model, policy=policy, n=4, rate=0.3,
                  epsilon_typ=0.25, trials=1, seed=0)


def test_infeasible_rates(noiseless):
    model, policy = noiseless
    with pytest.raises(InfeasibleRateError, match="cannot be filled"):
        build_codebook(SimConfig(model=model, policy=policy, n=4, rate=2.0,
                                 epsilon_typ=0.25, trials=1, seed=0))
    with pytest.raises(InfeasibleRateError, match="not positive"):
        build_codebook(SimConfig(model=model, policy=policy, n=4, rate=0.3,
                                 epsilon_typ=1.5, trials=1, seed=0))


def test_message_count_is_a_power_of_two_from_two_up(noiseless):
    # the trial draws take the message from one PCG64 output, which holds
    # only for m a power of two in [2, 2^20]: at m = 1 numpy's integers
    # draws nothing at all, and SimConfig refuses that rate
    model, policy = noiseless
    for n in range(1, MAX_BLOCK_LENGTH + 1):
        for rate in (0.05, 0.1, 0.3, 0.5, 1.0, 1.25):
            try:
                config = SimConfig(model=model, policy=policy, n=n, rate=rate,
                                   epsilon_typ=0.25, trials=1, seed=0)
            except UsageError as exc:
                assert n * rate < 1 or n * rate >= 21, (n, rate, exc)
                continue
            assert 2 <= config.m <= 2 ** 20 and config.m & (config.m - 1) == 0
    with pytest.raises(UsageError, match="need at least 2"):
        SimConfig(model=model, policy=policy, n=4, rate=0.2, epsilon_typ=0.25,
                  trials=1, seed=0)


def test_state_enumeration_cap(posterior_model):
    model, policy = posterior_model
    config = SimConfig(model=model, policy=policy, n=11, rate=0.1,
                       epsilon_typ=0.05, trials=1, seed=0)
    with pytest.raises(UsageError, match="state enumeration"):
        run_experiment(config)
    book_config = SimConfig(model=model, policy=policy, n=3, rate=0.4,
                            epsilon_typ=0.05, trials=1, seed=0)
    book = build_codebook(book_config)
    with pytest.raises(UsageError, match="state enumeration"):
        eavesdropper_posterior(book, config, np.zeros(11, dtype=int))


def _report_bytes(report, path):
    write_json(str(path), report.to_dict())
    return path.read_bytes()


def four_state_instance():
    """|v1| = 4 and |v2| = 1: y is x flipped by v1's low bit through a
    BSC(0.05), z is x through a BSC(0.2), u = x XOR (v1 & 1), biased by
    v1's high bit."""
    main, tap = np.zeros((2, 4, 2)), np.zeros((2, 1, 2))
    table = np.zeros((4, 1, 2, 2))
    for x in range(2):
        tap[x, 0] = bsc(0.2)[x]
        for v1 in range(4):
            main[x, v1] = bsc(0.05)[x ^ (v1 & 1)]
            table[v1, 0, x, x ^ (v1 & 1)] = 0.5 + (0.2 if x else -0.2) * (v1 >> 1)
    model = DiscreteWiretapModel(
        state_pmf=JointPmf((("v1", 4), ("v2", 1)), np.array([[0.4], [0.3], [0.2], [0.1]])),
        main_kernel=TransitionKernel((("x", 2), ("v1", 4)), (("y", 2),), main),
        wiretap_kernel=TransitionKernel((("x", 2), ("v2", 1)), (("z", 2),), tap))
    policy = AuxiliaryPolicy(2, TransitionKernel(
        (("v1", 4), ("v2", 1)), (("u", 2), ("x", 2)), table))
    return model, policy


def three_state_instance():
    """|v1| = 3 and |v2| = 1, so S = 3^n is no power of two: y is x flipped
    when v1 = 1 through a BSC(0.05), z is x through a BSC(0.2), u = x XOR
    [v1 = 1], biased when v1 = 2."""
    main, tap = np.zeros((2, 3, 2)), np.zeros((2, 1, 2))
    table = np.zeros((3, 1, 2, 2))
    for x in range(2):
        tap[x, 0] = bsc(0.2)[x]
        for v1 in range(3):
            main[x, v1] = bsc(0.05)[x ^ (v1 == 1)]
            table[v1, 0, x, x ^ (v1 == 1)] = 0.5 + (0.2 if x else -0.2) * (v1 == 2)
    model = DiscreteWiretapModel(
        state_pmf=JointPmf((("v1", 3), ("v2", 1)), np.array([[0.5], [0.3], [0.2]])),
        main_kernel=TransitionKernel((("x", 2), ("v1", 3)), (("y", 2),), main),
        wiretap_kernel=TransitionKernel((("x", 2), ("v2", 1)), (("z", 2),), tap))
    policy = AuxiliaryPolicy(2, TransitionKernel(
        (("v1", 3), ("v2", 1)), (("u", 2), ("x", 2)), table))
    return model, policy


def _fixture(name):
    if name == "trend":
        return trend_instance()
    if name == "constant":
        return constant_wiretap_instance()
    if name == "correlated":
        return make_correlated_sim_instance()
    if name == "four":
        return four_state_instance()
    if name == "three":
        return three_state_instance()
    model = stateless_model(bsc(0.05), bsc(0.2))
    return model, uniform_input_policy(model)


STREAMED_CONFIGS = [
    ("trend", 8, 0.25, 0.45, 120, 0),
    ("trend", 10, 0.25, 0.45, 60, 1),
    ("trend", 12, 0.17, 0.45, 20, 2),
    ("trend", 10, 0.3, 0.45, 40, 3),        # 8 bins, a third of the trials fall back
    ("trend", 9, 0.23, 0.02, 30, 4),        # every bin falls back
    ("constant", 10, 0.25, 0.45, 50, 5),
    ("bsc", 12, 0.25, 0.1, 80, 6),
    ("correlated", 4, 0.3, 0.25, 40, 7),
]


@pytest.mark.parametrize("name,n,rate,eps,trials,seed", STREAMED_CONFIGS)
def test_streamed_report_is_byte_identical_to_the_per_trial_reference(
        tmp_path, name, n, rate, eps, trials, seed):
    model, policy = _fixture(name)
    config = SimConfig(model=model, policy=policy, n=n, rate=rate,
                       epsilon_typ=eps, trials=trials, seed=seed)
    got = _report_bytes(run_experiment(config), tmp_path / "got.json")
    want = _report_bytes(reference_run_experiment(config), tmp_path / "want.json")
    assert got == want


def _tables_and_book(name, n, rate, eps, seed):
    model, policy = _fixture(name)
    config = SimConfig(model=model, policy=policy, n=n, rate=rate,
                       epsilon_typ=eps, trials=1, seed=seed)
    tables = _Tables(config)
    return config, tables, _build_codebook(config, tables)


def _reference_selection(tables, book, config):
    """Every v1 sequence and reference_selection_table over them, 4,096
    sequences at a time."""
    v1_all = state_sequences(config.model.card_v1, config.n)
    parts = [reference_selection_table(tables, book, config, v1_all[lo:lo + 4096])
             for lo in range(0, len(v1_all), 4096)]
    return (v1_all, np.concatenate([p[0] for p in parts], axis=1),
            np.concatenate([p[1] for p in parts], axis=1))


def _assert_picks(tables, book, config, got, selection, v1_all):
    # the groups split the coordinates into consecutive runs, and the
    # tables' rows are the picked codewords in codebook order; a pair's
    # row holds the reference's pick, and a (message, rank) no pair takes
    # has none.  A pair's code in a group's table, its row times the
    # group's width plus the group's digits of the v1 sequence, is derived
    # a piece at a time (test_add_digits_follows_the_lexicographic_digits)
    groups = tables.groups
    assert [first for first, _ in groups] == [0] + [last for _, last in groups[:-1]]
    assert groups[-1][1] == config.n and all(first < last for first, last in groups)
    picked = np.unique(selection)
    np.testing.assert_array_equal(got.sequences, book.sequences[picked])
    m = book.bin_count
    taken = np.zeros(got.members.shape, dtype=bool)
    taken[np.arange(m)[:, None], got.ranks] = True
    assert got.rows.dtype == np.intp and (got.rows[~taken] == -1).all()
    np.testing.assert_array_equal(got.rows[np.arange(m)[:, None], got.ranks],
                                  np.searchsorted(picked, selection))


def _assert_selection(tables, book, config, got, selection, found, v1_all):
    # each pair's rank is the encoder's own scan's, the largest bin's size
    # standing for none, in uint8 while that size fits; the pair's member
    # is the reference's pick, bin 1's first codeword exactly where no
    # member is typical, and the posterior's rows are the picks'
    depth = int(np.bincount(book.bin_index)[1:].max())
    assert got.ranks.dtype == (np.uint8 if depth <= 255 else np.uint16)
    want = np.concatenate([reference_ranks(tables, book, config, v1_all[lo:lo + 4096])
                           for lo in range(0, len(v1_all), 4096)], axis=1)
    np.testing.assert_array_equal(got.ranks, want)
    assert got.members.shape == (book.bin_count, depth + 1)
    np.testing.assert_array_equal(
        got.members[np.arange(book.bin_count)[:, None], got.ranks], selection)
    np.testing.assert_array_equal(got.ranks != depth, found)
    _assert_picks(tables, book, config, got, selection, v1_all)


@pytest.mark.parametrize("chunk_bytes", [1, 300, 5000])
@pytest.mark.parametrize("name,n,rate,eps,seed", [
    ("trend", 10, 0.3, 0.45, 3),            # hits and fallbacks, bins of 2 and 1
    ("trend", 12, 0.17, 0.45, 2),           # bins of 5 to 6 members
    ("trend", 9, 0.23, 0.02, 4),            # nothing typical anywhere
    ("correlated", 4, 0.3, 0.25, 7),
])
def test_selection_in_small_chunks_matches_the_whole_gather(
        monkeypatch, chunk_bytes, name, n, rate, eps, seed):
    # a tiny gather budget forces many state chunks and rank windows, and
    # node tables of one or two coordinates
    config, tables, book = _tables_and_book(name, n, rate, eps, seed)
    v1_all = state_sequences(config.model.card_v1, config.n)
    want_selection, want_found = reference_selection_table(tables, book, config, v1_all)
    monkeypatch.setattr(simulator, "GATHER_BYTES", chunk_bytes)
    selection = _selection_table(tables, book, config)
    _assert_selection(tables, book, config, selection, want_selection, want_found, v1_all)


TREES = [
    ("trend", 8, 0.25, 0.45, 0),            # a balanced tree, two tables
    ("trend", 16, 0.17, 0.45, 0),           # a balanced tree, 65,536 sequences
    ("trend", 9, 0.23, 0.2, 2),             # a chain tree; three pairs fall back
    ("trend", 14, 0.17, 0.45, 1),           # a chain tree, five tables
    ("trend", 5, 0.25, 0.3, 3),             # shorter than numpy's eight accumulators
    ("four", 6, 0.34, 0.2, 3),              # |v1| = 4
    ("three", 9, 0.23, 0.2, 1),             # |v1| = 3: 19,683 sequences, a chain tree
]


# 2^15 bytes cuts the sequences into blocks of 64 scored whole, many of
# them; one byte scores one state's pairs a step by gathers, which is kept
# to the binary trees of at most 512 sequences
@pytest.mark.parametrize("name,n,rate,eps,seed,chunk_bytes", [
    tree + (chunk,) for tree in TREES for chunk in (None, 2 ** 15, 1)
    if chunk != 1 or (tree[0] == "trend" and tree[1] <= 9)])
def test_selection_and_posterior_follow_the_reference_on_every_tree(
        monkeypatch, name, n, rate, eps, seed, chunk_bytes):
    config, tables, book = _tables_and_book(name, n, rate, eps, seed)
    v1_all, want_selection, want_found = _reference_selection(tables, book, config)
    if chunk_bytes is not None:
        monkeypatch.setattr(simulator, "GATHER_BYTES", chunk_bytes)
    selection = _selection_table(tables, book, config)
    _assert_selection(tables, book, config, selection, want_selection, want_found, v1_all)
    z_rows = np.random.default_rng(seed).integers(0, config.model.card_z, size=(3, n))
    got = simulator._posteriors(tables, selection, z_rows)
    for z_seq, row in zip(z_rows, got):
        want = reference_posterior(tables, config, v1_all, book.sequences[want_selection], z_seq)
        np.testing.assert_array_equal(row, want.probs)


@pytest.mark.parametrize("name,n,rate,eps,seed", TREES)
def test_posterior_stays_within_1e_14_of_the_log_domain_reference(name, n, rate, eps, seed):
    # the probability-domain posterior rounds otherwise than the log-domain
    # one it replaced, a few units in the last place of a pair's n-term log
    # sum; each probability stays within 1e-14 of it, relative, and each
    # equivocation within 1e-14 bits
    config, tables, book = _tables_and_book(name, n, rate, eps, seed)
    v1_all, want_selection, _ = _reference_selection(tables, book, config)
    selection = _selection_table(tables, book, config)
    z_rows = np.random.default_rng(seed).integers(0, config.model.card_z, size=(20, n))
    got = _posteriors(tables, selection, z_rows)
    want = np.array([reference_log_posterior(tables, config, v1_all,
                                             book.sequences[want_selection], z_seq).probs
                     for z_seq in z_rows])
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
    np.testing.assert_allclose(_entropy_bits_batch(got), _entropy_bits_batch(want),
                               rtol=0, atol=1e-14)


def faint_tap_instance():
    """biased_encoder_instance's model with a wiretap that copies x but for a 1e-150
    chance of the other bit, and a third z symbol it never emits.  A
    pair's weight is 1e-150 to the power of the coordinates where z differs
    from its codeword, so a z two symbols from every pick falls below
    2^-900 and three or more underflow to zero in the probability domain."""
    model, policy = biased_encoder_instance()
    tap = np.zeros((2, 1, 3))
    tap[:, 0, :2] = [[1.0, 1e-150], [1e-150, 1.0]]
    model = dataclasses.replace(model, wiretap_kernel=TransitionKernel(
        (("x", 2), ("v2", 1)), (("z", 3),), tap))
    return model, policy


# 2^12 bytes rescores one message row of 256 pairs a step, over more groups
@pytest.mark.parametrize("chunk_bytes", [None, 2 ** 12])
def test_underflowing_rows_are_rescored_by_log_sums(monkeypatch, chunk_bytes):
    model, policy = faint_tap_instance()
    config = SimConfig(model=model, policy=policy, n=8, rate=0.25,
                       epsilon_typ=0.25, trials=1, seed=0)
    tables = _Tables(config)
    book = _build_codebook(config, tables)
    v1_all, want_selection, _ = _reference_selection(tables, book, config)
    if chunk_bytes is not None:
        monkeypatch.setattr(simulator, "GATHER_BYTES", chunk_bytes)
    selection = _selection_table(tables, book, config)
    u_selected = book.sequences[want_selection]
    z_rows = state_sequences(2, 8)
    distance = (z_rows[:, None, :] != selection.sequences[None]).sum(axis=2).min(axis=1)
    assert {0, 1, 2, 3} <= set(distance.tolist())
    rescored = []

    def counted(tables, selection, z_rows):
        rescored.extend(map(tuple, z_rows))
        return rescore(tables, selection, z_rows)

    rescore = simulator._rescored
    monkeypatch.setattr(simulator, "_rescored", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # no underflow, 0/0 or log(0) warning
        got = _posteriors(tables, selection, z_rows)
    assert rescored == [tuple(z) for z in z_rows[distance >= 2]]
    for z_seq, row, far in zip(z_rows, got, distance >= 2):
        np.testing.assert_array_equal(
            row, reference_posterior(tables, config, v1_all, u_selected, z_seq).probs)
        if far:
            want = reference_log_posterior(tables, config, v1_all, u_selected, z_seq).probs
            np.testing.assert_allclose(row, want, rtol=1e-12, atol=0)
    impossible = z_rows[:2].copy()
    impossible[1, 3] = 2                        # the symbol the tap never emits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UsageError, match="zero probability"):
            _posteriors(tables, selection, impossible)


# GATHER_BYTES and the posterior batches and pieces it gives for five z
# rows: the z rows of each table build, the shape of the first piece as
# (z rows, messages, pairs), and the pieces in all.  A piece holds 32 bytes
# a pair and 17 more per z row.  |v1| = 3 at n = 9: 4 messages of 19,683
# pairs, each its own block, whose tables over its 6 to 8 picks fit all
# five z rows; by default a piece takes 4,481 pairs at most, so a row goes
# in eight of numpy's pairwise runs of about 2,460, and at 2^12 bytes, one
# z row at a time over five groups, in 128 runs of 152 to 156.
# At n = 10, 8 messages of 1,024 pairs: by default one block of all eight,
# one batch of five z rows and pieces of four whole message rows; at 2^15
# bytes a block per message, one batch of five z rows and runs of 256
# pairs; at 2^10 bytes one z row at a time over five groups.
@pytest.mark.parametrize("name,n,rate,eps,seed,chunk_bytes,groups,batches,piece,pieces", [
    ("three", 9, 0.23, 0.2, 1, 2 ** 19, 2, [5] * 4, (5, 1, 2456), 32),
    ("three", 9, 0.23, 0.2, 1, 2 ** 12, 5, [1] * 20, (1, 1, 152), 4 * 5 * 128),
    ("trend", 10, 0.3, 0.45, 3, 2 ** 19, 2, [5], (5, 4, 1024), 2),
    ("trend", 10, 0.3, 0.45, 3, 2 ** 15, 2, [5] * 8, (5, 1, 256), 8 * 4),
    ("trend", 10, 0.3, 0.45, 3, 2 ** 10, 5, [1] * 40, (1, 1, 256), 8 * 5 * 4),
])
def test_posterior_steps_follow_the_reference_bit_for_bit(
        monkeypatch, name, n, rate, eps, seed, chunk_bytes, groups, batches, piece, pieces):
    # each message row is summed alone, whole or in numpy's pairwise runs,
    # so neither the blocks, the batches nor the pieces move a bit
    config, tables, book = _tables_and_book(name, n, rate, eps, seed)
    v1_all, want_selection, _ = _reference_selection(tables, book, config)
    monkeypatch.setattr(simulator, "GATHER_BYTES", chunk_bytes)
    selection = _selection_table(tables, book, config)
    built, shapes = [], []

    def build(tables, sequences, z_rows):
        built.append(len(z_rows))
        return tap_tables(tables, sequences, z_rows)

    def piece_values(*args):
        values = make_values(*args)

        def traced(*at):
            out = values(*at)
            shapes.append(out.shape)
            return out
        return traced

    tap_tables, make_values = simulator._tap_tables, simulator._piece_values
    monkeypatch.setattr(simulator, "_tap_tables", build)
    monkeypatch.setattr(simulator, "_piece_values", piece_values)
    z_rows = np.random.default_rng(seed).integers(0, config.model.card_z, size=(5, n))
    got = simulator._posteriors(tables, selection, z_rows)
    assert len(tables.groups) == groups and built == batches
    assert shapes[0] == piece and len(shapes) == pieces
    for z_seq, row in zip(z_rows, got):
        want = reference_posterior(tables, config, v1_all, book.sequences[want_selection], z_seq)
        np.testing.assert_array_equal(row, want.probs)


@pytest.mark.parametrize("n,rate,eps,trials", [
    (16, 0.17, 0.45, 6),                    # the benchmark's trend_n16: 4 messages
    (16, 0.25, 0.2, 2),                     # 16 messages, 1,048,576 pairs
])
def test_run_holds_no_more_than_it_is_charged(n, rate, eps, trials):
    # the budget charges the whole-run arrays and the larger of the
    # selection's and the posterior's working sets, where a message row of
    # 65,536 pairs goes in pieces; the run's traced peak stays within that
    # charge, and the charge within four gather budgets of the peak
    model, policy = trend_instance()
    config = SimConfig(model=model, policy=policy, n=n, rate=rate,
                       epsilon_typ=eps, trials=trials, seed=0)
    need = _check_enumeration(_Tables(config))
    tracemalloc.start()
    try:
        run_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= need < peak + 4 * simulator.GATHER_BYTES


def _charged_configs(seed, count):
    """`count` in-budget configs drawn from `seed`: the trend, three-state
    and bsc fixtures, n from 3 to 16, 2 to 64 messages, each at
    GATHER_BYTES' default or at 2^12, with at most 2^13 pairs at the
    smaller budget, whose steps are tiny, and 2^18 at the default."""
    rng = np.random.default_rng(seed)
    configs = []
    while len(configs) < count:
        name = ["trend", "three", "bsc"][rng.integers(3)]
        model, policy = _fixture(name)
        n = int(rng.integers(3, (12 if name == "three" else 16) + 1))
        bits = int(rng.integers(1, 7))
        chunk_bytes = [2 ** 19, 2 ** 12][rng.integers(2)]
        if 2 ** bits * model.card_v1 ** n > (2 ** 13 if chunk_bytes < 2 ** 19 else 2 ** 18):
            continue
        config = SimConfig(model=model, policy=policy, n=n, rate=(bits + 0.5) / n,
                           epsilon_typ=float(rng.choice([0.05, 0.1, 0.2, 0.3, 0.45])),
                           trials=int(rng.integers(1, 21)), seed=int(rng.integers(100)))
        tables = _Tables(config)
        size = simulator._codebook_size(config, tables.triplet.mi_uy)
        if tables.triplet.mi_uy <= config.epsilon_typ or not config.m <= size <= 2 ** 12:
            continue
        configs.append((config, chunk_bytes))
    return configs


def _traced_run(monkeypatch, config, chunk_bytes):
    """(peak, charge) of one run at GATHER_BYTES = chunk_bytes."""
    monkeypatch.setattr(simulator, "GATHER_BYTES", chunk_bytes)
    need = _check_enumeration(_Tables(config))
    tracemalloc.start()
    try:
        run_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, need


def test_runs_hold_no_more_than_they_are_charged(monkeypatch):
    # a seeded sweep of small and mid-size runs at both gather budgets: at
    # 2^12 bytes the steps are tiny and what does not shrink with them,
    # numpy's buffers and the selection's per-cell arrays, shows
    for config, chunk_bytes in _charged_configs(24, 24):
        peak, need = _traced_run(monkeypatch, config, chunk_bytes)
        assert peak <= need, (config.n, config.m, config.model.card_v1, chunk_bytes)


def test_the_longest_pending_list_is_charged(monkeypatch):
    # 64 messages over 1,024 state sequences at 2^12 bytes: cells of two
    # sequences, all thin at once, so every one of the 65,536 pairs joins
    # the gathered list at rank 0, longer than any list of the sweep's
    # configs (a quarter of 2^18 pairs at most by default, 2^13 at 2^12)
    model, policy = trend_instance()
    config = SimConfig(model=model, policy=policy, n=10, rate=0.65,
                       epsilon_typ=0.05, trials=3, seed=0)
    lists = []
    pending = simulator._pending_pairs

    def traced(*args):
        lists.append(len(pending(*args)))
        return pending(*args)

    monkeypatch.setattr(simulator, "_pending_pairs", traced)
    peak, need = _traced_run(monkeypatch, config, 2 ** 12)
    assert config.m == 64 and lists[0] == 64 * 2 ** 10
    assert peak <= need


def test_selection_work_follows_the_pending_pairs(monkeypatch):
    # bins of 48 members; one (message, v1 sequence) pair has no typical
    # member and scans its whole bin.  The cells the selection tests stay
    # within a small multiple of the (pair, rank) scores of the encoder's
    # own scan plus one 64-sequence block per rank; scoring every cell at
    # every rank would test 48 x 2,048.
    config, tables, book = _tables_and_book("trend", 10, 0.1, 0.15, 0)
    v1_all, want_selection, want_found = _reference_selection(tables, book, config)
    assert np.count_nonzero(~want_found) == 1
    members = [np.flatnonzero(book.bin_index == j + 1) for j in range(book.bin_count)]
    depth = max(len(m) for m in members)
    assert depth == 48
    scan = sum(int(np.searchsorted(members[j], want_selection[j, s])) + 1
               if want_found[j, s] else len(members[j])
               for j in range(book.bin_count) for s in range(len(v1_all)))
    tested = []

    def counted(sums, bounds):
        tested.append(sums.size)
        return within(sums, bounds)

    within = simulator._within                  # every score's typicality test
    monkeypatch.setattr(simulator, "_within", counted)
    monkeypatch.setattr(simulator, "GATHER_BYTES", 2 ** 12)       # blocks of 64
    selection = _selection_table(tables, book, config)
    _assert_selection(tables, book, config, selection, want_selection, want_found, v1_all)
    assert sum(tested) <= 3 * scan + depth * 64 < depth * book.bin_count * len(v1_all)


@pytest.mark.parametrize("n,rate,eps", [
    (16, 0.17, 0.45),                       # the benchmark's trend_n16: steps of up to 5 ranks
    (12, 0.25, 0.1),                        # steps of one rank and a few hundred pairs
])
def test_a_gathered_selection_step_holds_no_more_than_it_is_charged(monkeypatch, n, rate, eps):
    # each gathered step of the selection rises above what the selection
    # held before it by no more than its charge, _gather_score_bytes a
    # score and _GATHER_PAIR_BYTES a pair, beside a few array headers and
    # ints; and the charge keeps to GATHER_BYTES, or to the m pairs of one
    # state that a step takes at least
    config, tables, book = _tables_and_book("trend", n, rate, eps, 0)
    step = simulator._gathered_step
    steps = []

    def traced(sums, flat, members, ranks, pair, rank, window, bounds):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        got = step(sums, flat, members, ranks, pair, rank, window, bounds)
        per_pair = window * simulator._gather_score_bytes(sums) + simulator._GATHER_PAIR_BYTES
        steps.append((tracemalloc.get_traced_memory()[1] - before, len(pair), per_pair))
        return got

    monkeypatch.setattr(simulator, "_gathered_step", traced)
    tracemalloc.start()
    try:
        _selection_table(tables, book, config)
    finally:
        tracemalloc.stop()
    assert steps
    for rise, pairs, per_pair in steps:
        assert pairs * per_pair <= max(simulator.GATHER_BYTES, config.m * per_pair)
        assert rise <= pairs * per_pair + 8192


@pytest.mark.parametrize("chunk_bytes", [1, 3000, 2 ** 19])
@pytest.mark.parametrize("name,n,rate,eps,seed", [
    ("trend", 12, 0.17, 0.45, 2),
    ("trend", 16, 0.125, 0.45, 0),
    ("bsc", 16, 0.25, 0.2, 1),
])
def test_decoder_matches_the_reference_row_by_row(monkeypatch, chunk_bytes, name, n, rate, eps, seed):
    # y rows drawn through p(y | u) from random codewords, so some decode
    # and some do not; the decoder is cut for one trial and for a million
    # (different subtrees on the trend fixtures) and runs in chunks of one
    # row up to all of them
    config, tables, book = _tables_and_book(name, n, rate, eps, seed)
    rng = np.random.default_rng(seed)
    u = book.sequences[rng.integers(0, len(book.sequences), size=300)]
    cond = tables.p_uy / tables.p_uy.sum(axis=1, keepdims=True)
    y_rows = (cond[u].cumsum(axis=-1) < rng.random(u.shape)[..., None]).sum(axis=-1)
    want = [reference_decode(tables, book, config, y) or 0 for y in y_rows]
    assert 0 < np.count_nonzero(want) < len(want)
    monkeypatch.setattr(simulator, "GATHER_BYTES", chunk_bytes)
    for trials in (1, 10 ** 6):
        config = dataclasses.replace(config, trials=trials)
        size = len(book.sequences)
        assert len(_row_cut(n, config.model.card_y, size, size * trials).nodes) > 1
        np.testing.assert_array_equal(_decoder(tables, book, config)(y_rows), want)


@pytest.mark.parametrize("chunk_bytes", [200, 7000])
def test_small_chunk_reports_match_the_reference(monkeypatch, tmp_path, chunk_bytes):
    # 200 bytes runs one trial per block, 7000 six, the last block four
    model, policy = trend_instance()
    config = SimConfig(model=model, policy=policy, n=10, rate=0.3,
                       epsilon_typ=0.45, trials=40, seed=3)
    want = _report_bytes(reference_run_experiment(config), tmp_path / "want.json")
    monkeypatch.setattr(simulator, "GATHER_BYTES", chunk_bytes)
    assert _report_bytes(run_experiment(config), tmp_path / "got.json") == want


def test_trial_memory_does_not_grow_with_the_trial_count(monkeypatch):
    # trials run in blocks, so ten times the trials adds only the one
    # equivocation each trial keeps for the mean
    model, policy = trend_instance()
    monkeypatch.setattr(simulator, "GATHER_BYTES", 2 ** 14)
    peaks = []
    for trials in (100, 1000):
        config = SimConfig(model=model, policy=policy, n=8, rate=0.25,
                           epsilon_typ=0.45, trials=trials, seed=0)
        tracemalloc.start()
        try:
            run_experiment(config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 900 * 8 + 2 ** 16


def test_selection_is_the_encoder(biased_encoder):
    # every (message, v1 sequence) entry is what the public per-bin scan picks
    model, policy = biased_encoder
    for seed in (0, 2, 3, 9):
        config = SimConfig(model=model, policy=policy, n=4, rate=0.3,
                           epsilon_typ=0.25, trials=1, seed=seed)
        tables = _Tables(config)
        book = _build_codebook(config, tables)
        v1_all = state_sequences(2, 4)
        selection = _selection_table(tables, book, config)
        none = selection.members.shape[1] - 1
        for j in range(book.bin_count):
            for s, v1_seq in enumerate(v1_all):
                u_seq, _, fell_back = encode(book, config, j + 1, v1_seq,
                                             np.random.default_rng(0))
                rank = selection.ranks[j, s]
                np.testing.assert_array_equal(
                    u_seq, book.sequences[selection.members[j, rank]])
                assert fell_back == (rank == none)


def test_posterior_from_codes_equals_the_reference_bit_for_bit(posterior_model):
    model, policy = posterior_model
    config = SimConfig(model=model, policy=policy, n=3, rate=0.4,
                       epsilon_typ=0.05, trials=1, seed=9)
    tables = _Tables(config)
    book = _build_codebook(config, tables)
    v1_all = state_sequences(2, 3)
    want_selection, _ = reference_selection_table(tables, book, config, v1_all)
    selection = _selection_table(tables, book, config)
    for z in itertools.product(range(2), repeat=3):
        z_seq = np.array(z)
        want = reference_posterior(tables, config, v1_all, book.sequences[want_selection], z_seq)
        np.testing.assert_array_equal(_posteriors(tables, selection, z_seq[None])[0], want.probs)
        np.testing.assert_array_equal(
            eavesdropper_posterior(book, config, z_seq).probs, want.probs)


def test_byte_budget_is_checked_before_the_codebook(monkeypatch):
    model, policy = trend_instance()
    config = SimConfig(model=model, policy=policy, n=8, rate=0.25,
                       epsilon_typ=0.45, trials=3, seed=0)
    # a uint8 rank for each (message, v1 sequence), the 4 bins' members,
    # two deep, and the fallback, with each member's row and the picked
    # codewords of 8 symbols, one equivocation per trial, the 8 codewords
    # with their bins and subbins, the decoder's eight 2-entry tables per
    # codeword, and the posterior's working set, which outgrows the
    # selection's: a gather budget for a batch of tables (5,120 bytes a z
    # row for 8 codewords over two groups of 16 entries),
    # one for a piece's buffers and one for the rest of the trial block;
    # and numpy's buffers, 8,192 entries of three operands.  At n=8 with
    # 1,024 pairs and 8 codewords the groups are the two halves
    tables = _Tables(config)
    assert tables.groups == ((0, 4), (4, 8))
    assert simulator._codebook_size(config, tables.triplet.mi_uy) == 8
    assert simulator._tap_table_bytes(tables, 8) == 8 * 8 * (2 * 8 + 2 * 2 * 16)
    assert _row_cut(8, 2, 8, 8 * config.trials).entries == 8 * 2
    need = (config.m * 2 ** 8 + 8 * config.m * (2 + 1) * (8 + 2) + 8 * config.trials
            + 8 * 8 * (8 + 2 + 8 * 2) + 3 * simulator.GATHER_BYTES + 3 * 8 * 8192)
    assert _check_enumeration(tables) == need
    # trend_n16: 52 codewords, bins 13 deep; the posterior's working set is
    # the same three gather budgets, and the selection's, the pending-pair
    # lists of at most 1,023 pairs in each of 64 cells of 4,096 beside a
    # gather budget, is smaller
    n16 = dataclasses.replace(config, n=16, rate=0.17, trials=6)
    tables16 = _Tables(n16)
    assert tables16.groups == ((0, 8), (8, 16))
    assert simulator._codebook_size(n16, tables16.triplet.mi_uy) == 52
    assert simulator._loose_bytes(4, 2, 2 ** 16) == 64 * (8 * 1023 + 2 * 2 + 10)
    decoder = _row_cut(16, 2, 52, 52 * 6).entries
    assert _check_enumeration(tables16) == (
        4 * 2 ** 16 + 8 * 4 * (13 + 1) * (16 + 2) + 8 * 6
        + 8 * 52 * (16 + 2 + decoder) + 3 * simulator.GATHER_BYTES + 3 * 8 * 8192)
    monkeypatch.setattr(simulator, "BYTE_BUDGET", need)
    run_experiment(config)                               # exactly at the budget
    monkeypatch.setattr(simulator, "BYTE_BUDGET", need - 1)

    def no_codebook(*args):
        raise AssertionError("codebook built before the budget check")

    monkeypatch.setattr(simulator, "_build_codebook", no_codebook)
    with pytest.raises(UsageError, match="budget"):
        run_experiment(config)
    with pytest.raises(UsageError, match="budget"):
        eavesdropper_posterior(None, config, np.zeros(8, dtype=int))


def test_over_budget_simulation_exits_two_before_allocating(tmp_path, capsys):
    # n=16 at rate 0.75 gives 4096 messages over 65,536 state sequences:
    # 256 MiB of uint8 ranks and 2.75 GiB of pending-pair lists and
    # per-cell arrays, cells of four sequences
    model, policy = trend_instance()
    (tmp_path / "model.json").write_text(json.dumps(model_to_dict(model)))
    (tmp_path / "policy.json").write_text(json.dumps(policy_to_dict(policy)))
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps({
        "model_file": "model.json", "policy_file": "policy.json",
        "n": 16, "rate": 0.75, "epsilon_typ": 0.01, "trials": 1, "seed": 0}))
    tracemalloc.start()
    try:
        code = main(["simulate", "--sim-config", str(sim), "--out", str(tmp_path / "o")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "budget" in err
    assert peak < 16 * 2 ** 20


def test_a_thousand_messages_at_n16_fit_the_budget():
    # 1,024 messages over 65,536 state sequences, 4,359 codewords in eight
    # posterior groups: 64 MiB of uint8 ranks, and pending-pair lists of at
    # most 15 pairs in each cell of 16, 480 MiB, with 12 bytes a cell for
    # its count, flag and masks, 48 MiB, beside a few MiB of tables and
    # steps, well inside the budget; the charge alone decides, nothing is
    # run
    model, policy = trend_instance()
    config = SimConfig(model=model, policy=policy, n=16, rate=0.625,
                       epsilon_typ=0.05, trials=1, seed=0)
    tables = _Tables(config)
    assert config.m == 1024 and len(tables.groups) == 8
    assert simulator._codebook_size(config, tables.triplet.mi_uy) == 4359
    assert simulator._loose_bytes(1024, 2, 2 ** 16) == 2 ** 22 * (8 * 15 + 2 * 1 + 10)
    need = _check_enumeration(tables)
    held = 2 ** 26 + 480 * 2 ** 20 + 48 * 2 ** 20
    assert held < need < held + 4 * 2 ** 20
    assert need <= simulator.BYTE_BUDGET


@given(length=st.one_of(st.integers(1, 70_000), st.sampled_from([3 ** k for k in range(1, 11)]),
                        st.integers(8_188, 8_196), st.integers(16_380, 16_388)),
       chunk=st.one_of(st.integers(1, 70_000), st.sampled_from([128, 256, 4096, 8192])),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_pairwise_runs_sum_a_row_as_numpy_does(length, chunk, seed):
    # The posterior sums a message row in runs of a piece each, and
    # combines the runs' sums as numpy's pairwise .sum of the whole row
    # would; terms of both signs and wide magnitudes make any other order
    # show, and a numpy that sums otherwise fails here.
    rng = np.random.default_rng(seed)
    row = rng.random(length) * np.exp2(rng.integers(-60, 60, length))
    row *= rng.choice([-1.0, 1.0], size=length)
    got = simulator._pairwise(lambda lo, hi: row[lo:hi].sum(), 0, length, chunk)
    assert np.float64(got).tobytes() == row.sum().tobytes()


@given(card=st.integers(1, 4), data=st.data())
@settings(max_examples=300, deadline=None)
def test_add_digits_follows_the_lexicographic_digits(card, data):
    # the digits over a group of coordinates of a run of sequences, or of
    # whole message rows, as a piece derives them, for every range the
    # broadcast adds take and the arithmetic they fall back to
    n = data.draw(st.integers(1, 9 if card < 4 else 7))
    count = card ** n
    first = data.draw(st.integers(0, n - 1))
    last = data.draw(st.integers(first + 1, n))
    if data.draw(st.booleans()):
        lo, hi = 0, count * data.draw(st.integers(1, 3))            # whole rows
    else:
        lo = data.draw(st.integers(0, count - 1))
        hi = data.draw(st.integers(lo + 1, count))
    place, width = card ** (n - last), card ** (last - first)
    code = np.arange(hi - lo) * 5
    want = code + np.arange(lo, hi) % count // place % width
    simulator._add_digits(code, lo, place, width, np.arange(hi - lo))
    np.testing.assert_array_equal(code, want)


@pytest.mark.parametrize("n", range(1, MAX_BLOCK_LENGTH + 1))
@pytest.mark.parametrize("card", [2, 4, 8])
def test_node_sums_follow_numpy_row_sums(n, card):
    # The kernel is exact only while numpy sums a row in _sum_tree's order;
    # a numpy that changes the order fails here, for every cut of the tree
    # and for node tables of one and of two independent rows.
    rng = np.random.default_rng([n, card])
    values = np.log(rng.dirichlet(np.ones(card), size=(2, n)))
    values *= rng.choice([1e-3, 1.0, 1e3], size=values.shape)
    values[rng.random(values.shape) < 0.05] = -np.inf
    values[:, 0, 0] = -np.inf
    symbols = rng.integers(0, card, size=(500, n))
    symbols[0, 0] = 0
    rows = np.ascontiguousarray(values[:, np.arange(n), symbols])   # (2, 500, n)
    want_sum, want_mean = rows.sum(axis=-1), rows.mean(axis=-1)
    assert np.isinf(want_sum).any() and np.isfinite(want_sum).any()
    for span in (1, 2, 16 // (card.bit_length() - 1)):      # tables of at most 2^16 entries
        sums = _NodeSums(n, card, span)
        codes = sums.sequence_codes(symbols)
        pair = sums.total(sums.tables(lambda i: values[:, i]), lambda t: codes[t])
        np.testing.assert_array_equal(pair, want_sum)
        np.testing.assert_array_equal(pair / n, want_mean)
        for row in range(2):
            one = sums.total(sums.tables(lambda i: values[row:row + 1, i]), lambda t: codes[t])
            np.testing.assert_array_equal(one, want_sum[row])


def test_unbounded_trials_exit_two_before_allocating(tmp_path, capsys):
    # 2^60 trials would keep 8 EiB of equivocations; the budget refuses
    # them before the codebook
    model, policy = trend_instance()
    (tmp_path / "model.json").write_text(json.dumps(model_to_dict(model)))
    (tmp_path / "policy.json").write_text(json.dumps(policy_to_dict(policy)))
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps({
        "model_file": "model.json", "policy_file": "policy.json",
        "n": 16, "rate": 0.17, "epsilon_typ": 0.45, "trials": 2 ** 60, "seed": 0}))
    tracemalloc.start()
    try:
        code = main(["simulate", "--sim-config", str(sim), "--out", str(tmp_path / "o")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "budget" in err and "Traceback" not in err
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("seed", [0, 2 ** 32, 2 ** 100])
def test_validate_stream_follows_default_rng(seed):
    # validate's seeded draws: uniform is low + (high - low) * next_double,
    # integers numpy's buffered 32-bit Lemire draw with its rejections
    # (2^31 + 1 rejects about half of its draws), and the buffered high
    # half outlives a uniform between them; 300 draws span output blocks
    for high in (1, 2, 3, 7, 2 ** 31 + 1, 2 ** 32 - 1):
        stream, rng = validate._Stream((seed,), 31), np.random.default_rng([seed, 31])
        for size in (1, 3, 300, 5):
            assert stream.integers(high, size) == rng.integers(0, high, size=size).tolist()
            assert stream.uniform(0.5, 3) == rng.uniform(0.5, 3)
            assert stream.uniform(0.05, 3.0, size=size) == rng.uniform(0.05, 3.0, size=size).tolist()


def test_brute_force_posterior_builds_its_tables_once(monkeypatch):
    # one table build and one encoder pick per (v1 sequence, message) serve
    # every observation, and each row is the one-observation enumeration's
    model, policy = trend_instance()
    config = SimConfig(model=model, policy=policy, n=3, rate=0.4,
                       epsilon_typ=0.45, trials=1, seed=5)
    book = build_codebook(config)
    z_rows = np.array([[0, 1, 0], [1, 1, 0]])
    want = [validate.brute_force_posterior(book, config, z[None]) for z in z_rows]
    built, picks = [], []

    class Counted(_Tables):
        def __init__(self, config):
            built.append(config)
            super().__init__(config)

    def counted(*args):
        picks.append(args[3])
        return pick(*args)

    pick = validate._pick
    monkeypatch.setattr(validate, "_Tables", Counted)
    monkeypatch.setattr(validate, "_pick", counted)
    got = validate.brute_force_posterior(book, config, z_rows)
    assert len(built) == 1 and len(picks) == 2 ** 3 * book.bin_count
    np.testing.assert_array_equal(got, np.concatenate(want))


_MAGNITUDES = st.sampled_from([1e-300, 1e-12, 1e-3, 1.0, 7.0, 1e3, 1e15, 1e300])


@given(n=st.integers(1, MAX_BLOCK_LENGTH),
       entropy=st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.tuples(
           st.floats(0.5, 1.0), _MAGNITUDES).map(lambda p: p[0] * p[1])),
       epsilon=st.tuples(st.floats(0.5, 1.0), _MAGNITUDES).map(lambda p: p[0] * p[1]),
       inner=st.floats(0.0, 1.0))
@settings(max_examples=400, deadline=None)
def test_typical_sums_are_exactly_the_sums_typical_means_come_from(n, entropy, epsilon, inner):
    # a raw sum t lies within the bounds exactly when its mean passes
    # |fl(t / n) + H| <= epsilon, at both ends, at their neighbours in the
    # float order, at the infinities and at a point in between
    lo, hi = simulator._typical_sums(n, entropy, epsilon)
    points = [lo, hi, -np.inf, np.inf, 0.0, -n * entropy]
    for end in (lo, hi):
        points += [np.nextafter(end, -np.inf), np.nextafter(end, np.inf)]
    if lo <= hi:
        points.append(lo + inner * (hi - lo))
    else:
        assert (lo, hi) == (np.inf, -np.inf)
    sums = np.array(points)
    with np.errstate(over="ignore"):        # t / n + H may overflow to inf
        want = np.abs(sums / n + entropy) <= epsilon
    np.testing.assert_array_equal(simulator._within(sums, (lo, hi)), want)
    if lo <= hi:
        assert want[0] and want[1]


def wide_bin_instance():
    """A noiseless main channel, y = x = u with u uniform, so I(u; y) is one
    bit and n = 10 at epsilon 0.05 draws 725 codewords: two bins of 362 and
    363.  u agrees with a uniform v1 with probability 0.9, so a codeword is
    typical with a v1 sequence exactly at Hamming distance one, about one
    codeword in a hundred: many pairs stop past rank 255 and some find none."""
    state = np.array([[0.5], [0.5]])
    main = np.zeros((2, 2, 2))
    for x in range(2):
        main[x, :, x] = 1.0
    tap = np.zeros((2, 1, 2))
    tap[:, 0, :] = bsc(0.2)
    model = DiscreteWiretapModel(
        state_pmf=JointPmf((("v1", 2), ("v2", 1)), state),
        main_kernel=TransitionKernel((("x", 2), ("v1", 2)), (("y", 2),), main),
        wiretap_kernel=TransitionKernel((("x", 2), ("v2", 1)), (("z", 2),), tap))
    table = np.zeros((2, 1, 2, 2))
    for v1 in range(2):
        for u in range(2):
            table[v1, 0, u, u] = 0.9 if u == v1 else 0.1
    policy = AuxiliaryPolicy(2, TransitionKernel(
        (("v1", 2), ("v2", 1)), (("u", 2), ("x", 2)), table))
    return model, policy


def test_bins_past_255_members_take_wider_ranks(tmp_path):
    model, policy = wide_bin_instance()
    config = SimConfig(model=model, policy=policy, n=10, rate=0.15,
                       epsilon_typ=0.05, trials=40, seed=0)
    tables = _Tables(config)
    book = _build_codebook(config, tables)
    assert (len(book.sequences), book.bin_count) == (725, 2)
    v1_all = state_sequences(2, 10)
    parts = [reference_selection_table(tables, book, config, v1_all[lo:lo + 256])
             for lo in range(0, len(v1_all), 256)]
    want_selection = np.concatenate([p[0] for p in parts], axis=1)
    want_found = np.concatenate([p[1] for p in parts], axis=1)
    selection = _selection_table(tables, book, config)
    assert selection.ranks.dtype == np.uint16
    _assert_selection(tables, book, config, selection, want_selection, want_found, v1_all)
    found_ranks = selection.ranks[want_found]
    assert found_ranks.max() > 255 and not want_found.all()
    got = _report_bytes(run_experiment(config), tmp_path / "got.json")
    assert got == _report_bytes(reference_run_experiment(config), tmp_path / "want.json")


@pytest.mark.parametrize("bad", [-1, "card", 0.5])
def test_public_functions_refuse_symbols_off_the_alphabet(posterior_model, bad):
    # a -1 once wrapped to the last symbol, and a symbol past the alphabet
    # or a float one ended in an IndexError; each now refuses, as decode
    # always refused a y out of range
    model, policy = posterior_model
    config = SimConfig(model=model, policy=policy, n=3, rate=0.4,
                       epsilon_typ=0.05, trials=1, seed=9)
    book = build_codebook(config)
    rng = np.random.default_rng(0)
    calls = {"v1": (model.card_v1, lambda seq: encode(book, config, 1, seq, rng)),
             "y": (model.card_y, lambda seq: decode(book, config, seq)),
             "z": (model.card_z, lambda seq: eavesdropper_posterior(book, config, seq))}
    for name, (card, call) in calls.items():
        call(np.zeros(3, dtype=int))                    # in the alphabet
        seq = np.array([card if bad == "card" else bad, 0, 0])
        with pytest.raises(UsageError, match=f"{name} symbols must be integers in"):
            call(seq)


@pytest.mark.parametrize("chunk_bytes", [2 ** 19, 2 ** 12])
def test_a_posterior_step_holds_its_products_and_one_gather_buffer(monkeypatch, chunk_bytes):
    # one message row of trend_n16, 65,536 pairs, from its own block's
    # tables: its pieces' buffers, the codes derived into them included,
    # stay within 8 bytes a pair of the row and half of GATHER_BYTES, and
    # its total is the plain whole-row gathers', bit for bit
    config, tables, book = _tables_and_book("trend", 16, 0.17, 0.45, 0)
    selection = _selection_table(tables, book, config)
    assert simulator._message_blocks(config.m, 2 ** 16)[0] == (0, 1)
    picks, local = simulator._block_picks(selection, 0, 1)
    factors = simulator._tap_tables(tables, selection.sequences[picks], np.array([[0, 1] * 8]))
    for table in factors:
        np.exp(table, out=table)
    monkeypatch.setattr(simulator, "GATHER_BYTES", chunk_bytes)
    chunk = simulator._piece_pairs(1)
    tracemalloc.start()
    try:
        values = simulator._piece_values(tables, selection.ranks[:1], local, factors, chunk,
                                         np.multiply)
        got = simulator._over_rows(lambda *piece: values(*piece).sum(axis=2), 1, 2 ** 16, chunk)
        del values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 16 + chunk_bytes // 2 + 4096
    rows = local[0, selection.ranks[0]]
    place = np.arange(2 ** 16)
    want = (factors[0][:, rows * 2 ** 8 + place // 2 ** 8]
            * factors[1][:, rows * 2 ** 8 + place % 2 ** 8]).sum(axis=1)
    np.testing.assert_array_equal(got[:, 0], want)
