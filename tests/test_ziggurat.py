"""numpy's ziggurat exponentials over the PCG64 kernel: the tables'
provenance, every layer's edges, and the kernel against numpy."""

import math
import tracemalloc
from decimal import Decimal, getcontext

import numpy as np
import pytest

from wiretapsi import ziggurat

PCG_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645
MASK128 = (1 << 128) - 1


def placed(first: int, second: int | None = None) -> np.random.Generator:
    """A Generator whose next PCG64 output is `first` and, if given, whose
    one after is `second` up to its lowest bit, which the increment's
    parity takes.  A state below 2^64 outputs itself: XSL-RR rotates by 0."""
    inc = 1
    if second is not None:
        inc = (second - PCG_MULT * first) & MASK128 | 1
    state = (first - inc) * pow(PCG_MULT, -1, 1 << 128) & MASK128
    rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    return rng


def output(ri: int, layer: int) -> int:
    """The output whose draw lands in `layer` with mantissa ri."""
    return (ri << 8 | layer) << 3


def outputs_taken(rng: np.random.Generator) -> int:
    """PCG64 outputs one standard_exponential draw of rng takes."""
    start = rng.bit_generator.state["state"]
    rng.standard_exponential()
    end = rng.bit_generator.state["state"]["state"]
    state = start["state"]
    for taken in range(1, 64):
        state = (state * PCG_MULT + start["inc"]) & MASK128
        if state == end:
            return taken
    raise AssertionError("the draw took more than 63 outputs")


def kernel_matches_numpy(rng: np.random.Generator, k: int = 3) -> None:
    """_fill on rng's next 32 outputs gives rng's next k draws bit for bit."""
    words = np.random.Generator(np.random.PCG64(0))
    words.bit_generator.state = rng.bit_generator.state
    out = np.empty((1, k))
    assert not len(ziggurat._fill(words.bit_generator.random_raw(32)[None], out))
    np.testing.assert_array_equal(out[0], rng.standard_exponential(k))


def test_tables_follow_the_decimal_recurrence():
    # x_255 = r, x_(i-1) = -ln(e^-x_i + v / x_i), x_0 = v e^r at 60 digits,
    # v = r e^-r + e^-r the area of a layer; each entry rounds once
    getcontext().prec = 60
    r = Decimal("7.697117470131049714044")
    v = r * (-r).exp() + (-r).exp()
    x = [Decimal(0)] * 256
    x[255] = r
    for i in range(255, 1, -1):
        x[i - 1] = -((-x[i]).exp() + v / x[i]).ln()
    x[0] = v * r.exp()
    assert ziggurat._WE == tuple(float(xi / Decimal(2) ** 53) for xi in x)
    assert ziggurat._FE == (1.0,) + tuple(float((-xi).exp()) for xi in x[1:])
    assert ziggurat._R == float(r)


def test_ke_is_where_numpys_fast_path_ends():
    # the largest fast mantissa of each layer takes one output and draws
    # ri * we; the next takes the slow path and a second output
    for layer, ke in enumerate(ziggurat._KE):
        if ke:
            rng = placed(output(ke - 1, layer))
            assert rng.standard_exponential() == (ke - 1) * ziggurat._WE[layer]
            assert rng.bit_generator.state["state"]["state"] == output(ke - 1, layer)
        assert outputs_taken(placed(output(ke, layer))) > 1, layer


def flip(layer: int, x: float) -> int:
    """The least 53-bit uniform at which a slow draw of x in layer is
    rejected: the test is monotone in u."""
    fe = ziggurat._FE
    lo, hi = 0, 2 ** 53
    while lo < hi:
        mid = (lo + hi) // 2
        if (fe[layer - 1] - fe[layer]) * (mid * 2.0 ** -53) + fe[layer] < math.exp(-x):
            lo = mid + 1
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("layers", [range(1, 86), range(86, 171), range(171, 256)])
def test_each_layer_accepts_and_rejects_at_its_flip_point(layers):
    # a slow draw halfway up its layer's slow mantissas, with the uniform
    # just under and at the flip; on odd layers the uniform's output is
    # itself slow (layer 1 has no fast path), so it must be read as a
    # uniform and not as a draw
    for layer in layers:
        ri = (ziggurat._KE[layer] + 2 ** 53) // 2
        x = ri * ziggurat._WE[layer]
        u = flip(layer, x)
        assert 0 < u < 2 ** 53, layer
        for uniform, kept in ((u - 1, True), (u, False)):
            second = uniform << 11 | (layer & 1) << 3
            rng = placed(output(ri, layer), second)
            assert (rng.bit_generator.random_raw(2) >> np.uint64(11)).tolist() == [
                output(ri, layer) >> 11, uniform]
            assert (outputs_taken(placed(output(ri, layer), second)) == 2) == kept, layer
            kernel_matches_numpy(placed(output(ri, layer), second))


@pytest.mark.parametrize("uniform", [0, 1, 2 ** 52, 7264191481562982, 2 ** 53 - 1])
def test_the_base_layer_draws_the_tail(uniform):
    # layer 0's slow draws are r - log1p(-u), u = 0 and u = 1 - 2^-53
    # included; at u = 7264191481562982 * 2^-53, r - log(1 - u) is one ulp
    # off
    ri = ziggurat._KE[0]
    rng = placed(output(ri, 0), uniform << 11)
    assert rng.standard_exponential() == ziggurat._R - math.log1p(-uniform * 2.0 ** -53)
    kernel_matches_numpy(placed(output(ri, 0), uniform << 11))


def test_a_rejection_chain_follows_numpy():
    # default_rng([0, 26])'s first draw is rejected twice and takes 5 outputs
    rng = np.random.default_rng([0, 26])
    assert outputs_taken(rng) == 5
    out = np.empty((1, 16))
    ziggurat.standard_exponentials((0,), 26, out)
    np.testing.assert_array_equal(out[0], np.random.default_rng([0, 26]).standard_exponential(16))


def counted_extensions(monkeypatch) -> list:
    """Give every lane one spare output; the returned list collects the
    (index, start) of each run a lane then takes from its own stream."""
    monkeypatch.setattr(ziggurat, "_width", lambda k: k + 1)
    extended = []
    stream = ziggurat._pcg64_stream

    def counted(prefix, index, start, count):
        extended.append((index, start))
        return stream(prefix, index, start, count)

    monkeypatch.setattr(ziggurat, "_pcg64_stream", counted)
    return extended


@pytest.mark.parametrize("k", [8, 16])
def test_a_lane_that_runs_past_its_spare_outputs_continues_its_stream(monkeypatch, k):
    # with one spare output, a lane with a slow draw runs past its outputs
    # and takes as many again from its own stream
    extended = counted_extensions(monkeypatch)
    out = np.empty((300, k))
    ziggurat.standard_exponentials((3,), 2 ** 32 - 150, out)
    assert len(extended) > 5
    want = [np.random.default_rng([3, i]).standard_exponential(k)
            for i in range(2 ** 32 - 150, 2 ** 32 + 150)]
    np.testing.assert_array_equal(out, want)


def test_a_lane_doubles_its_outputs_until_its_draws_settle(monkeypatch):
    # the rejection chain's draw takes 5 outputs: 2, then 4, then 8
    extended = counted_extensions(monkeypatch)
    out = np.empty((1, 1))
    ziggurat.standard_exponentials((0,), 26, out)
    assert extended == [(26, 2), (26, 4)]
    assert out[0, 0] == np.random.default_rng([0, 26]).standard_exponential()


def test_the_kernel_follows_numpy_across_seed_batches():
    # one seeding path with the simulator's kernel: across the 2^32
    # crossing and past a batch of 4096 indices
    for first, count in ((2 ** 32 - 3, 8), (0, 4100)):
        out = np.empty((count, 3))
        ziggurat.standard_exponentials((5,), first, out)
        want = [np.random.default_rng([5, i]).standard_exponential(3)
                for i in range(first, first + count)]
        np.testing.assert_array_equal(out, want)


@pytest.mark.parametrize("count,k", [(1, 1), (10, 16), (5000, 1), (5000, 8), (2000, 16),
                                     (300, 200), (3, 20000)])
def test_the_kernel_holds_no_more_than_it_is_charged(count, k):
    out = np.empty((count, k))
    tracemalloc.start()
    try:
        ziggurat.standard_exponentials((0,), 0, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= ziggurat.held_bytes(count, k)
    assert ziggurat.held_bytes(count, k) <= max(ziggurat.BLOCK_BYTES, ziggurat._lane_bytes(k)) + (
        ziggurat._BLOCK_EXTRA)

