import itertools
import math
import warnings

import numpy as np
import pytest

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
from wiretapsi.discrete import AuxiliaryPolicy
from wiretapsi.probability import JointPmf, TransitionKernel
from wiretapsi.simulator import _log_sum_exp
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


def h2(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


@pytest.fixture(scope="module")
def noiseless():
    model = stateless_model(bsc(0.0), bsc(0.25))
    return model, uniform_input_policy(model)


@pytest.fixture(scope="module")
def biased_encoder():
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


def test_log_sum_exp_rows():
    rows = np.log(np.random.default_rng(4).dirichlet(np.ones(6), size=5)) - 700.0
    rows[1, 2:] = -np.inf
    rows[2, :] = rows[2, 0]                  # every entry at the row maximum
    rows[3, :] = -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _log_sum_exp(rows)
    live = [0, 1, 2, 4]
    # direct sum after a shift by 700, which keeps exp(row) representable
    want = np.log(np.exp(rows[live] + 700.0).sum(axis=1)) - 700.0
    np.testing.assert_allclose(got[live], want, rtol=0, atol=1e-12)
    assert got[3] == -np.inf


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
                dict(rate=0.0), dict(seed=-1), dict(rate=0.2, n=3)):
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
