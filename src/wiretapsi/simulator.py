"""Random-binning encoder/decoder simulation at desk scale.

A codebook of i.i.d. u-sequences is split into message bins (and subbins,
kept for diagnostics); the encoder picks a codeword in the message's bin that
is weakly typical with the observed main-channel state sequence, the decoder
looks for the unique codeword typical with its channel output, and the
eavesdropper's uncertainty is measured by an exact Bayes posterior over
messages that marginalizes the hidden state and the channel input
analytically.

Hard caps keep everything exactly enumerable: block length <= 16, state
alphabet product <= 4, codebook <= 2^20 codewords, and the posterior's state
enumeration |V1|^N * |V2|^N <= 2^20.  On top of the caps, one byte budget,
probability.BYTE_BUDGET, which the region search shares, bounds what a run
holds.  Held whole, for m messages and S = |V1|^N state sequences: each
(message, v1 sequence) pair's rank in its bin, (m, S) in the narrowest
unsigned dtype that also holds "none" (uint8 up to 255 members a bin), and
one int32 (m, S) code array per posterior group, 9 bytes a pair at two
groups; the bins' member table, the codebook, the decoder's tables and one
equivocation per trial.  Beside them, one posterior step: its products, 8
bytes a pair, and its gather buffer, which together fit GATHER_BYTES,
unless a single message row outgrows it, when the step is that row and a
buffer of half of GATHER_BYTES; and GATHER_BYTES each for a batch's tables
(more only where one z row's tables take more) and for the rest of the
trial block.  The codebook is drawn before any of that is held: beside
it, a block of GATHER_BYTES of its stream, or the permutation, its inverse
and their index, 8 bytes a codeword each, and the charge takes the larger
phase.  It is checked before anything is allocated; a run over it is
refused with a UsageError.  Every other step, trials included, works in
about GATHER_BYTES, so none outgrows the posterior's; a selection step
gathers one state's m pairs at least, and the charge covers that too.

Every typicality score is an exact sum of n per-coordinate
log-probabilities, taken through the node tables of nodesums, bit for bit
numpy's .sum.  Those tables have one row per codeword over the v1 or the y
symbols of the node's coordinates, and every cut is _row_cut's, so a
(codeword, v1 sequence) pair's code in a flattened table is its row plus
the row count times the sequence's state part.  A raw sum is typical when
it lies in one interval, found once per run (_typical_sums): the sums t
with |fl(fl(t / n) + H)| <= epsilon, exactly the ones _typical's mean
calls typical, so a score costs two comparisons.  The kernel serves two
callers:

* _selection_table replays the encoder for every (message, v1 sequence)
  pair a rank at a time: the bins' r-th members against blocks of v1
  sequences taken in the tree's digit order, each pair stopping at its
  bin's first typical member.  That table of ranks is the encoder: each
  trial sends its pair's member.  It also holds each pair's codes into
  the posterior's tables.
* _decoder builds codeword-row tables of log p(u, y) over the y symbols
  once per run and scores every codeword against the distinct y of a
  trial block through the y rows' codes.

The eavesdropper's posterior works in the probability domain instead
(_posteriors).  The coordinates are split into a few groups of consecutive
ones (_groups: two on every benchmark config); for a batch of the block's
distinct z, each group gets a table of exp(L_g), L_g the group's log
weights log w(z_i | u_i, v1_i), each less its z symbol's largest, summed
left to right, one row per picked codeword over the group's v1 symbols.
A (message, v1 sequence) pair then costs one gather per group and the
products between them, and each message's S products one contiguous sum.
A z row whose largest message total falls below 2^-900 is rescored by
log sums, so an extreme wiretap cannot underflow the posterior.

A trial draws its states, message and uniforms as its own generator
default_rng([seed, 1, t]) would, but no generator is built: the lane-wise
PCG64 kernel of probability gives each trial of a block its 4n + 1 outputs.
The message takes one of them because m is a power of two: numpy's 32-bit
Lemire draw then never rejects (see _trial_draws).  The codebook draws as
default_rng([seed, 0])'s choice and then permutation would, from the
kernel's one-stream entry (_build_codebook).  No subcommand loads
numpy.random: the region search and validate draw from the same kernel.

The public encode keeps its own per-bin scan; it is the second path that
validate's brute-force posterior and the tests compare the kernel against.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .discrete import (AuxiliaryPolicy, DiscreteWiretapModel, RateTriplet,
                       _check_policy, _joint_triplet)
from .errors import InfeasibleRateError, UsageError
from .nodesums import _NodeSums, _shared_cut
from .probability import (BYTE_BUDGET, Pmf, _check_stack, _entropy_bits,
                          _entropy_bits_batch, _pcg64_outputs, _pcg64_stream,
                          _pcg64_words, compose)

MAX_BLOCK_LENGTH = 16
MAX_STATE_PRODUCT = 4
MAX_CODEBOOK = 2 ** 20
MAX_STATE_ENUM_BITS = 20.0
GATHER_BYTES = 2 ** 19    # working set of one selection, decode, posterior or trial step
# stream outputs a block of the codebook draws: the kernel holds 8 bytes an
# output and 256 KiB of lanes, the uniforms with their symbols 16 bytes an
# output, GATHER_BYTES either way
_CODEBOOK_WORDS = GATHER_BYTES // 16
# a posterior message row per (message, v1 sequence) pair: its product; the
# factors are gathered into a buffer of their own
_ROW_PAIR_BYTES = 8
# a z row whose largest message total falls below this is rescored by log sums
_RESCORE_BELOW = 2.0 ** -900
WILSON_Z = 1.959963984540054


@dataclass(frozen=True)
class SimConfig:
    model: DiscreteWiretapModel
    policy: AuxiliaryPolicy
    n: int
    rate: float
    epsilon_typ: float
    trials: int
    seed: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_BLOCK_LENGTH:
            raise UsageError(f"block length must be in [1, {MAX_BLOCK_LENGTH}], got {self.n}")
        product = self.model.card_v1 * self.model.card_v2
        if product > MAX_STATE_PRODUCT:
            raise UsageError(
                f"|v1|*|v2| = {product} exceeds the desk-scale cap {MAX_STATE_PRODUCT}")
        if not self.epsilon_typ > 0:
            raise UsageError(f"epsilon_typ must be positive, got {self.epsilon_typ}")
        if self.trials < 1:
            raise UsageError(f"trials must be positive, got {self.trials}")
        if not self.rate > 0:
            raise UsageError(f"rate must be positive, got {self.rate}")
        if self.n * self.rate >= math.log2(MAX_CODEBOOK) + 1:
            # 2^floor(n*rate) bins cannot be filled from the capped codebook;
            # refused before the message count is formed, which a huge rate
            # would make an integer of astronomically many digits
            raise UsageError(f"rate {self.rate} at n={self.n} gives more than "
                             f"{MAX_CODEBOOK} messages, the codebook cap")
        if self.m < 2:
            raise UsageError(
                f"rate {self.rate} at n={self.n} gives {self.m} message(s); need at least 2")
        if self.seed < 0:
            raise UsageError("seed must be a nonnegative integer")
        _check_policy(self.model, self.policy)

    @property
    def m(self) -> int:
        """Message count 2^floor(n*rate)."""
        return 2 ** int(math.floor(self.n * self.rate))


@dataclass(frozen=True)
class Codebook:
    sequences: np.ndarray      # (K, N) symbols of u
    bin_index: np.ndarray      # (K,) in [1, bin_count]
    subbin_index: np.ndarray   # (K,) in [1, subbins_per_bin]
    bin_count: int
    subbins_per_bin: int
    seed: int


class _Tables:
    """Distilled arrays shared by encoder, decoder, and posterior."""

    def __init__(self, config: SimConfig):
        model, policy = config.model, config.policy
        self.config = config
        joint = compose(model.state_pmf, policy.table,
                        model.main_kernel, model.wiretap_kernel)
        # shared by the codebook and the report; the joint is not kept
        self.triplet: RateTriplet = _joint_triplet(joint)
        t = joint.table  # axes (u, x, v1, v2, y, z)
        self.p_u = t.sum(axis=(1, 2, 3, 4, 5))
        self.p_uv1 = t.sum(axis=(1, 3, 4, 5))
        self.p_uy = t.sum(axis=(1, 2, 3, 5))
        self.h_uv1 = _entropy_bits(self.p_uv1)
        self.h_uy = _entropy_bits(self.p_uy)

        # Encoder input law p(x | u, v1); cells with no mass fall back to
        # p(x | u) so the fallback codeword can still be transmitted.
        p_uxv1 = t.sum(axis=(3, 4, 5)).transpose(0, 2, 1)   # (u, v1, x)
        p_ux = t.sum(axis=(2, 3, 4, 5))                     # (u, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = p_uxv1 / self.p_uv1[:, :, None]
            cond_u = p_ux / self.p_u[:, None]
        cond_u = np.where(self.p_u[:, None] > 0, cond_u, 1.0 / model.card_x)
        self.x_dist = np.where(self.p_uv1[:, :, None] > 0, cond,
                               cond_u[:, None, :])

        # Per-coordinate posterior weight: w(z | u, v1) with the hidden state
        # and the input marginalized, carrying the state prior p(v1, v2).
        weight = np.einsum("ab,uax,xbz->zua", model.state_pmf.table,
                           self.x_dist, model.wiretap_kernel.table)
        with np.errstate(divide="ignore"):
            self.log_weight = np.log(weight)
            self.log_p_uv1 = np.log2(self.p_uv1)
            self.log_p_uy = np.log2(self.p_uy)
        # the posterior's factors: each z symbol's log weights less their
        # largest, which every message shares; a symbol no pair emits keeps
        # its -inf weights
        peak = self.log_weight.max(axis=(1, 2), keepdims=True)
        self.tap_log_weight = self.log_weight - np.where(np.isfinite(peak), peak, 0.0)

    @functools.cached_property
    def row_sums(self) -> _NodeSums:
        """The codeword-row cut the selection table scores with."""
        return _row_cut(self.config.n, self.config.model.card_v1,
                        *_pick_rows(self.config, self.triplet.mi_uy))

    @functools.cached_property
    def groups(self) -> tuple[tuple[int, int], ...]:
        """The posterior's coordinate groups, see _groups."""
        return _groups(self.config.n, self.config.model.card_v1,
                       *_pick_rows(self.config, self.triplet.mi_uy))


def _entry_cap(rows: int, scores: int) -> int:
    """Entries a codeword-row table with `rows` rows may hold when it
    serves `scores` scores: at most half as many as there are scores, so
    building it costs less than a gather per score, and at most
    GATHER_BYTES / 16, half a step's budget at 8 bytes each.  Callers let
    a table over a lone coordinate pass it."""
    return max(min(scores // 2, GATHER_BYTES // 16), rows)


def _row_cut(n: int, card: int, rows: int, scores: int) -> _NodeSums:
    """The cut for tables with `rows` rows over `card` symbols that serve
    `scores` row sums: the widest whose tables keep to _entry_cap.  Each
    (n, card, span) is cut once and the cut shared."""
    cap, span = _entry_cap(rows, scores), 1
    while span < n and rows * card ** (span + 1) <= cap:
        span += 1
    return _shared_cut(n, card, span)


def _groups(n: int, card: int, rows: int, scores: int) -> tuple[tuple[int, int], ...]:
    """The posterior's groups of consecutive coordinates, as (first, last)
    ranges, for tables with `rows` rows over `card` symbols that serve
    `scores` pairs: two (one at n = 1), split as evenly as the coordinates
    allow, and as many more as it takes for every table to keep to
    _entry_cap."""
    cap, count = _entry_cap(rows, scores), min(n, 2)
    while count < n and rows * card ** -(-n // count) > cap:
        count += 1
    bounds = [n * g // count for g in range(count + 1)]
    return tuple(zip(bounds[:-1], bounds[1:]))


def _pick_rows(config: SimConfig, mi_uy: float) -> tuple[int, int]:
    """(rows, pairs): the row count of tables with one row per picked
    codeword, bounded by the config's codebook, or by one row per (message,
    v1 sequence) pair if there are fewer pairs, and the pair count."""
    pairs = config.m * config.model.card_v1 ** config.n
    return min(_codebook_size(config, mi_uy), pairs), pairs


def _codebook_size(config: SimConfig, mi_uy: float) -> int:
    """ceil(2^(n (I(u;y) - epsilon))), the codewords _build_codebook draws."""
    return math.ceil(2.0 ** (config.n * (mi_uy - config.epsilon_typ)))


def _typical(mean_log_p: np.ndarray, entropy: float, epsilon: float) -> np.ndarray:
    """Weak typicality from the mean log2-probability of each sequence
    pair: its empirical entropy lies within epsilon of the true entropy.

    The test runs in place, |mean + entropy|, which rounds to |-mean - entropy|
    exactly; every caller passes an array it discards.
    """
    mean_log_p += entropy
    np.abs(mean_log_p, out=mean_log_p)
    return mean_log_p <= epsilon


def _float_place(x: float) -> int:
    """x's place among the float64s in their order, 0.0 and -0.0 both 0."""
    bits = struct.unpack("<Q", struct.pack("<d", x))[0]
    return -(bits & ~(1 << 63)) if bits >> 63 else bits


def _place_float(place: int) -> float:
    """The float64 at a place of _float_place's order."""
    return struct.unpack("<d", struct.pack("<Q", -place | 1 << 63 if place < 0 else place))[0]


@functools.lru_cache(maxsize=64)
def _typical_sums(n: int, entropy: float, epsilon: float) -> tuple[float, float]:
    """(lo, hi) such that a sum t of n log2-probabilities is typical as
    _typical rounds its mean, |fl(fl(t / n) + entropy)| <= epsilon,
    exactly when lo <= t <= hi; (inf, -inf) when no t is.

    t -> fl(fl(t / n) + entropy) never falls as t rises, since each
    rounding is monotone, so the typical sums are one run of the float64s
    in their order, infinities included; each end is a bisection over that
    order, in the same float64 arithmetic numpy's arrays take."""
    def first(holds) -> int:
        # the first place from -inf up whose sum holds, or one past +inf
        lo, hi = _float_place(-math.inf), _float_place(math.inf) + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if holds(_place_float(mid) / n + entropy):
                hi = mid
            else:
                lo = mid + 1
        return lo

    low = first(lambda mean: mean >= -epsilon)
    high = first(lambda mean: mean > epsilon) - 1
    if low > high:
        return math.inf, -math.inf
    return _place_float(low), _place_float(high)


def _within(sums: np.ndarray, bounds: tuple[float, float]) -> np.ndarray:
    """The typicality mask of raw row sums against _typical_sums' bounds."""
    hit = sums >= bounds[0]
    hit &= sums <= bounds[1]
    return hit


def _symbols(seq, config: SimConfig, card: int, name: str) -> np.ndarray:
    """seq as an array of n integer symbols in [0, card), or a UsageError."""
    seq = np.asarray(seq)
    if seq.shape != (config.n,):
        raise UsageError(f"{name} sequence must have length {config.n}")
    if seq.dtype.kind not in "iu" or not ((seq >= 0) & (seq < card)).all():
        raise UsageError(f"{name} symbols must be integers in [0, {card})")
    return seq


def _sample(probs: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Inverse-CDF symbol per row of probs (..., card) from uniform draws (...)."""
    return (probs.cumsum(axis=-1) < draws[..., None]).sum(axis=-1)


def build_codebook(config: SimConfig) -> Codebook:
    tables = _Tables(config)
    return _build_codebook(config, tables)


def _build_codebook(config: SimConfig, tables: _Tables) -> Codebook:
    """The codebook, bit for bit numpy's default_rng([seed, 0]) drawing
    choice(|u|, (K, n), p=p_u / sum) and then permutation(K), from the
    stream _pcg64_stream gives.  Outputs 0 .. Kn - 1 are choice's uniforms,
    next_double's (out >> 11) * 2^-53, inverted through its cdf
    _CODEBOOK_WORDS at a time; _permutation takes the outputs after them.
    The permutation deals the codewords round-robin into the m bins: a
    codeword's place in it, mod m, is its bin less one, and its place // m
    its rank in the bin.
    """
    exponent = config.n * (tables.triplet.mi_uy - config.epsilon_typ)
    if exponent <= 0:
        raise InfeasibleRateError(
            f"codebook exponent n*(I(u;y) - epsilon) = {exponent:.6g} is not positive")
    size = _codebook_size(config, tables.triplet.mi_uy)
    if size > MAX_CODEBOOK:
        raise UsageError(f"codebook of {size} codewords exceeds the {MAX_CODEBOOK} cap")
    m = config.m
    if m > size:
        raise InfeasibleRateError(
            f"{m} bins cannot be filled from {size} codewords; lower the rate")

    p = tables.p_u / tables.p_u.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    sequences = np.empty((size, config.n), dtype=np.int64)
    rows = max(1, _CODEBOOK_WORDS // config.n)
    for lo in range(0, size, rows):
        part = sequences[lo:lo + rows]
        words = _pcg64_stream((config.seed,), 0, lo * config.n, part.size)
        words >>= 11
        uniforms = words * 2.0 ** -53
        del words
        part[...] = cdf.searchsorted(uniforms, side="right").reshape(part.shape)
        del uniforms                                    # before the next block's
    order = _permutation(config.seed, sequences.size, size)
    # each codeword's place in the permutation, then its bin and its subbin
    place = np.empty(size, dtype=np.int64)
    place[order] = np.arange(size)
    del order
    bin_index = place % m
    bin_index += 1
    # Subbin capacity targets 2^{n*(I(u;z) - epsilon)} codewords per subbin,
    # floored at 1 so tiny instances still carry the two-level structure;
    # a codeword's rank in its bin is its place // m.
    capacity = max(1, math.ceil(2.0 ** (config.n * (tables.triplet.mi_uz - config.epsilon_typ))))
    max_occupancy = math.ceil(size / m)
    subbins_per_bin = max(1, math.ceil(max_occupancy / capacity))
    place //= m * capacity
    place += 1
    subbin_index = place

    for arr in (sequences, bin_index, subbin_index):
        arr.setflags(write=False)
    return Codebook(sequences, bin_index, subbin_index, m,
                    int(subbins_per_bin), config.seed)


def _permutation(seed: int, first: int, size: int) -> np.ndarray:
    """numpy's Generator.permutation(size) from the stream of
    default_rng([seed, 0]) past its first `first` outputs, bit for bit.

    numpy shuffles arange(size) by Fisher-Yates: for i from size - 1 down
    to 1 it swaps places i and j, j numpy's random_interval(i), the first
    32-bit draw that, masked to i's bit length, is at most i.  The draws
    are numpy's buffered next_uint32's: each output gives its low half,
    then its high half.  The outputs come at most _CODEBOOK_WORDS at a
    time, and at most i + 1 while i places are left, where the shuffle
    takes about 0.7 i on average.
    """
    order = np.arange(size)
    view = memoryview(order)
    i = size - 1
    mask = (1 << i.bit_length()) - 1
    while i:
        words = _pcg64_stream((seed,), 0, first, min(_CODEBOOK_WORDS, i + 1))
        first += len(words)
        halves = np.empty((len(words), 2), dtype=np.uint32)
        np.bitwise_and(words, 0xFFFF_FFFF, out=halves[:, 0], casting="unsafe")
        np.right_shift(words, 32, out=halves[:, 1], casting="unsafe")
        del words
        for j in memoryview(halves.reshape(-1)):
            j &= mask
            if j <= i:
                view[i], view[j] = view[j], view[i]
                i -= 1
                if i == mask >> 1:                  # i's bit length drops
                    if not i:
                        break
                    mask >>= 1
    return order


def _fallback_codeword(codebook: Codebook) -> int:
    return int(np.flatnonzero(codebook.bin_index == 1)[0])


def encode(codebook: Codebook, config: SimConfig, message: int,
           v1_seq: np.ndarray, rng: np.random.Generator
           ) -> tuple[np.ndarray, np.ndarray, bool]:
    """Pick the first codeword in the message's bin typical with v1_seq and
    sample the channel input; falls back to bin 1's first codeword when the
    bin holds no typical candidate."""
    return _encode(_Tables(config), codebook, config, message, v1_seq, rng)


def _encode(tables: _Tables, codebook: Codebook, config: SimConfig,
            message: int, v1_seq: np.ndarray, rng: np.random.Generator
            ) -> tuple[np.ndarray, np.ndarray, bool]:
    if not 1 <= message <= codebook.bin_count:
        raise UsageError(f"message {message} outside [1, {codebook.bin_count}]")
    v1_seq = _symbols(v1_seq, config, config.model.card_v1, "v1")
    chosen, fallback = _pick(tables, codebook, config, message, v1_seq)
    u_seq = codebook.sequences[chosen]
    x_seq = _sample(tables.x_dist[u_seq, v1_seq], rng.random(config.n))
    return u_seq, x_seq, fallback


def _pick(tables: _Tables, codebook: Codebook, config: SimConfig, message: int,
          v1_seq: np.ndarray) -> tuple[int, bool]:
    """The codeword encode sends for a message and a checked v1 sequence:
    the first in the message's bin typical with it, else bin 1's first
    codeword; and whether it fell back."""
    members = np.flatnonzero(codebook.bin_index == message)
    typical = _typical(tables.log_p_uv1[codebook.sequences[members], v1_seq].mean(axis=-1),
                       tables.h_uv1, config.epsilon_typ)
    hits = np.flatnonzero(typical)
    if hits.size:
        return int(members[hits[0]]), False
    return _fallback_codeword(codebook), True


def decode(codebook: Codebook, config: SimConfig,
           y_seq: np.ndarray) -> Optional[int]:
    """Bin of the unique codeword typical with y_seq, or None."""
    y_seq = _symbols(y_seq, config, config.model.card_y, "y")
    tables = _Tables(config)
    return int(_decoder(tables, codebook, config)(y_seq[None])[0]) or None


def _decoder(tables: _Tables, codebook: Codebook, config: SimConfig):
    """decodes(y_rows): the bin of the unique codeword typical with each y
    row (Y, n), 0 where no codeword or several are.

    Codeword-row node tables of log p(u, y), one row per codeword over the
    y symbols of the node's coordinates, cut for a run's K * trials scores,
    are built once.  A call scores every codeword against a chunk of its
    rows at a time through the rows' codes alone, GATHER_BYTES at a time:
    per score the sums' buffers and three masks, this chunk's typicality
    and its temporary and the last chunk's typicality.  A sum is typical
    within _typical_sums' bounds, as _typical would call its mean.
    """
    size, n = codebook.sequences.shape
    sums = _row_cut(n, tables.p_uy.shape[1], size, size * config.trials)
    node = sums.tables(lambda i: tables.log_p_uy[codebook.sequences[:, i]])   # (K, widths[t])
    step = max(1, GATHER_BYTES // ((8 * sums.buffers + 3) * size))
    bounds = _typical_sums(n, float(tables.h_uy), config.epsilon_typ)

    def decodes(y_rows: np.ndarray) -> np.ndarray:
        codes = sums.sequence_codes(y_rows)                                     # (G, Y)
        decoded = np.zeros(len(y_rows), dtype=np.int64)
        for lo in range(0, len(y_rows), step):
            total = sums.total(node, lambda t: codes[t, lo:lo + step])         # (K, rows)
            typical = _within(total, bounds)
            del total                                   # before the next chunk's
            unique = np.count_nonzero(typical, axis=0) == 1
            decoded[lo:lo + step][unique] = codebook.bin_index[typical.argmax(axis=0)[unique]]
        return decoded

    return decodes


def _gather_score_bytes(sums: _NodeSums) -> int:
    """Bytes of one gathered (pair, rank) score of the selection: the sums'
    buffers, its pick, and its typicality mask and the mask's temporary."""
    return 8 * (sums.buffers + 1) + 2


# bytes of each pair of a gathered selection step beside its scores: its
# message and its place, then a node's digit of the place and its temporary
_GATHER_PAIR_BYTES = 32


def _check_enumeration(tables: _Tables) -> int:
    """Refuse, before any large allocation, a run whose state enumeration
    breaks the 2^20 cap or whose arrays, as the module docstring lists
    them, break BYTE_BUDGET; return the bytes charged."""
    config = tables.config
    product = config.model.card_v1 * config.model.card_v2
    if config.n * math.log2(product) > MAX_STATE_ENUM_BITS + 1e-9:
        raise UsageError(
            f"state enumeration needs n*log2(|v1||v2|) <= {MAX_STATE_ENUM_BITS}, "
            f"got {config.n * math.log2(product):.3f}")
    # a rank and one int32 code per group for each (message, v1 sequence)
    # pair, (m, S); the (m, depth + 1) member table; one float equivocation
    # per trial; and one posterior step: its products, 8 bytes a pair, and
    # its gather buffer within GATHER_BYTES, or one message row that
    # outgrows it and a buffer of half of it (_step_shape, _combined),
    # beside GATHER_BYTES each for a batch's tables (or one z row's where
    # they are larger) and for the rest of the trial block.  A selection
    # step gathers one state's m pairs at least.  The selection's own
    # whole arrays, the ranks in the digit order and each sequence's place
    # in it, are freed before the codes are written.
    states = config.model.card_v1 ** config.n
    cells = config.m * states
    rows, _ = _pick_rows(config, tables.triplet.mi_uy)
    size = _codebook_size(config, tables.triplet.mi_uy)
    depth = -(-size // config.m)
    step = max(_ROW_PAIR_BYTES * states + GATHER_BYTES // 2, GATHER_BYTES,
               (_gather_score_bytes(tables.row_sums) + _GATHER_PAIR_BYTES) * config.m)
    batch = _tap_table_bytes(tables, rows)
    need = (cells * (np.min_scalar_type(depth).itemsize + 4 * len(tables.groups))
            + 8 * config.m * (depth + 1) + 8 * config.trials
            + step + max(GATHER_BYTES, batch) + GATHER_BYTES)
    # the codebook's K sequences with their bins and subbins, and the
    # decoder's tables, one row per codeword; a codebook past its cap is
    # refused when it is drawn.  The codebook is drawn before anything
    # else is held: beside its arrays, a block of GATHER_BYTES and the
    # permutation, or the permutation, its inverse and their index, 8
    # bytes a codeword each (_build_codebook)
    if size <= MAX_CODEBOOK:
        decoder = _row_cut(config.n, tables.p_uy.shape[1], size, size * config.trials)
        need = 8 * size * (config.n + 2) + max(need + 8 * size * decoder.entries,
                                               GATHER_BYTES + 8 * size, 24 * size)
    if need > BYTE_BUDGET:
        raise UsageError(
            f"{config.m} messages x {states} state sequences at n={config.n} "
            f"and {config.trials} trials need {need / 2 ** 20:.0f} MiB, over the "
            f"{BYTE_BUDGET // 2 ** 20} MiB budget; lower the rate, the block length "
            f"or the trials")
    return need


@dataclass(frozen=True)
class _Selection:
    """The encoder replayed for every (message, v1 sequence) pair, the v1
    sequences in lexicographic order.

    members (m, depth + 1): bin j + 1's r-th codeword at [j, r], a bin one
    short repeating its last, and the fallback codeword, bin 1's first, in
    the last column.  ranks (m, S): each pair's rank in its bin, depth
    where no member is typical, in the narrowest unsigned dtype that holds
    depth; the pair sends members[message - 1, rank].  sequences: the
    picked codewords in codebook order, the rows of the posterior's
    tables.  codes (G, m, S), int32: each pair's code in each group's table
    (_Tables.groups), its pick's row times the group's width plus the
    sequence's digits over the group's coordinates, lexicographic."""
    members: np.ndarray
    ranks: np.ndarray
    sequences: np.ndarray
    codes: np.ndarray


def _bin_members(codebook: Codebook) -> np.ndarray:
    """_Selection's member table.  A bin one short repeats its last member,
    which cannot hit again: a pair reaching the repeat has found that
    member atypical already."""
    m = codebook.bin_count
    sizes = np.bincount(codebook.bin_index, minlength=m + 1)[1:]
    order = np.argsort(codebook.bin_index, kind="stable")
    ends = np.cumsum(sizes)
    members = order[np.minimum(ends[:, None] - sizes[:, None] + np.arange(sizes.max() + 1),
                               ends[:, None] - 1)]
    members[:, -1] = _fallback_codeword(codebook)
    return members


def _member_places(ranks: np.ndarray, members: np.ndarray, lo: int, step: int
                   ) -> np.ndarray:
    """The places in the flattened member table of the pairs lo .. lo +
    step - 1 of the flattened ranks (m, S): message times the table's
    width plus rank."""
    count, size = ranks.shape[1], ranks.size
    return (ranks.reshape(-1)[lo:lo + step]
            + np.arange(lo, min(lo + step, size)) // count * members.shape[1])


def _selection_table(tables: _Tables, codebook: Codebook, config: SimConfig
                     ) -> _Selection:
    """The encoder's choice for every (message, v1 sequence), the posterior's
    input.

    _first_typical finds the ranks in the tree's digit order; they are then
    put in lexicographic order and the codes written GATHER_BYTES of pairs
    at a time, which makes no whole-run temporary.
    """
    sequences = codebook.sequences
    card = tables.p_uv1.shape[1]
    sums = tables.row_sums
    members = _bin_members(codebook)
    m = codebook.bin_count
    node = sums.tables(lambda i: tables.log_p_uv1[sequences[:, i]])      # (K, widths[t])
    ranks = _first_typical(tables, config, node, members)
    del node
    ranks = np.take(ranks, sums.digit_order(card), axis=1)
    count = ranks.shape[1]
    # a step of pairs' places in members, their table rows and one group's
    # multiple of them, 8 bytes each, fit GATHER_BYTES; m pairs at least,
    # as a selection step takes, so a tiny budget does not write a pair at
    # a time
    step = max(m, GATHER_BYTES // 24)
    steps = range(0, ranks.size, step)
    used = np.zeros(members.size, dtype=bool)           # the members some pair takes
    for lo in steps:
        used[_member_places(ranks, members, lo, step)] = True
    picked = np.zeros(len(sequences), dtype=bool)
    picked[members.reshape(-1)[used]] = True
    member_rows = (np.cumsum(picked) - 1)[members]      # a picked member's table row
    groups = tables.groups
    codes = np.empty((len(groups), m, count), dtype=np.int32)
    for code, (first, last) in zip(codes, groups):
        # each sequence's digits over the group, in the first message's
        # row, then copied to the others
        code[0].reshape(card ** first, card ** (last - first), -1)[...] = (
            np.arange(card ** (last - first))[:, None])
        code[1:] = code[0]
    for lo in steps:
        picks = np.take(member_rows, _member_places(ranks, members, lo, step))
        for code, (first, last) in zip(codes.reshape(len(groups), -1), groups):
            code[lo:lo + step] += picks * card ** (last - first)
    return _Selection(members, ranks, sequences[picked], codes)


def _first_typical(tables: _Tables, config: SimConfig, node: list[np.ndarray],
                   members: np.ndarray) -> np.ndarray:
    """Each (message, v1 sequence) pair's rank in its bin, (m, S) in the
    tree's digit order, depth where none is typical: the encoder replayed
    for every pair from `node`, the codeword-row tables of log p(u, v1),
    and _Selection's `members`.

    Rank r scores every bin's r-th member against the pairs still pending,
    those at depth, so a pair stops at its bin's first typical member, as
    encode does.  The v1 sequences are taken in the tree's digit order, in
    blocks of `width` that fit GATHER_BYTES for all m messages.  A
    (message, block) cell with at least a quarter of its pairs pending, and
    at least 16, is scored whole: one outer sum of the members' table rows,
    contiguous adds.  A thinner cell's pending pairs join a list scored by
    gathers (_gathered_step); once no cell is scored whole, the list takes
    as many ranks at a time as fit, each pair its first hit.  Scores are
    numpy's row sums of log p(u, v1), typical within _typical_sums'
    bounds, so the ranks are encode's.  Its own function, so the loops'
    last arrays are freed on return.
    """
    n, card, sums = config.n, tables.p_uv1.shape[1], tables.row_sums
    m, depth = members.shape[0], members.shape[1] - 1
    flat = [table.reshape(1, -1) for table in node]
    count = card ** n
    bounds = _typical_sums(n, float(tables.h_uv1), config.epsilon_typ)

    ranks = np.full((m, count), depth, dtype=np.min_scalar_type(depth))
    score = _gather_score_bytes(sums)
    # a whole cell's pair holds its sum, the outer sum's last factor, a copy
    # of its rank and three masks
    width = 1
    while width < count and m * width * card * (2 * 8 + 4) <= GATHER_BYTES:
        width *= card
    left = np.full((m, count // width), width)               # pending pairs per cell
    whole = np.ones(left.shape, dtype=bool)
    loose = np.empty(0, dtype=np.intp)                       # message * S + place
    rank = 0
    while rank < depth:
        thin = whole & (4 * left < max(width, 64))
        if thin.any():
            whole &= ~thin
            ids = np.flatnonzero(thin)                   # message * blocks + block
            at = np.flatnonzero(ranks.reshape(-1, width)[ids] == depth)
            loose = np.concatenate([loose, ids[at // width] * width + at % width])
        if not (loose.size or whole.any()):
            break
        for block in np.flatnonzero(whole.any(axis=0)):
            rows = np.flatnonzero(whole[:, block])
            rows = slice(None) if len(rows) == m else rows
            cells = rows, slice(block * width, (block + 1) * width)
            total = sums.block([table[members[rows, rank]] for table in node],
                               block * width, width)
            hit = _within(total, bounds)
            del total                                   # before the next block's
            # a view of the cells when every message is scored, else a copy;
            # at rank 0 every pair is pending
            cell = ranks[cells]
            if rank:
                hit &= cell == depth
            left[rows, block] -= np.count_nonzero(hit, axis=1)
            # a hit takes its pair from depth down to rank
            cell -= np.multiply(hit, depth - rank, dtype=ranks.dtype)
            if not isinstance(rows, slice):
                ranks[cells] = cell
        window = 1 if whole.any() else min(
            depth - rank, max(1, (GATHER_BYTES // loose.size - _GATHER_PAIR_BYTES) // score))
        # one state's pairs at least
        step = max(m, GATHER_BYTES // (score * window + _GATHER_PAIR_BYTES))
        keep = np.ones(loose.size, dtype=bool)
        for lo in range(0, loose.size, step):
            keep[lo + _gathered_step(sums, flat, members, ranks, loose[lo:lo + step],
                                     rank, window, bounds)] = False
        loose = loose[keep]
        rank += window
    return ranks


def _gathered_step(sums: _NodeSums, flat: list[np.ndarray], members: np.ndarray,
                   ranks: np.ndarray, pair: np.ndarray, rank: int, window: int,
                   bounds: tuple[float, float]) -> np.ndarray:
    """One gathered step of _first_typical: score the pairs `pair`, each
    message * S + its place in the digit order, against their bins'
    members at ranks rank .. rank + window - 1, write each hit pair's first
    hit into `ranks` and return the hit pairs' indices into `pair`.

    It holds _gather_score_bytes a score and _GATHER_PAIR_BYTES a pair.
    The picks are one slice of the member table, not a broadcast index,
    and each node's codes are built in place, so the buffer numpy's
    broadcast add of the digits takes (8 bytes a score, 64 KiB at most)
    fits where a second array would be.
    """
    count = ranks.shape[1]
    message, place = np.divmod(pair, count)
    picks = members[message, rank:rank + window]        # (pairs, window)
    del message

    def codes(t):
        code = picks * sums.widths[t]
        code += (place // sums.places[t] % sums.widths[t])[:, None]
        return code

    total = sums.total(flat, codes)
    del place, picks
    hit = _within(total, bounds)
    del total
    got = np.flatnonzero(hit.any(axis=1))
    ranks.reshape(-1)[pair[got]] = rank + hit[got].argmax(axis=1)
    return got


def eavesdropper_posterior(codebook: Codebook, config: SimConfig,
                           z_seq: np.ndarray) -> Pmf:
    """Exact message posterior given the wiretap observation.

    Sums over every v1 sequence with the encoder's selection rule replayed;
    v2 and the input x are marginalized per coordinate.  The wiretapper is
    assumed to know codebook, bins, and fallback rule.
    """
    tables = _Tables(config)
    _check_enumeration(tables)
    z_seq = _symbols(z_seq, config, config.model.card_z, "z")
    selection = _selection_table(tables, codebook, config)
    return Pmf("message", _posteriors(tables, selection, z_seq[None])[0])


def _log_sum_exp(rows: np.ndarray) -> np.ndarray:
    """log(sum(exp(row))) per row of finite or -inf entries; -inf for a
    row with no finite entry.

    Each row is shifted by its maximum; the entries at the maximum are
    counted and the rest enter through log1p, which keeps precision when
    one entry dominates.  The rows themselves hold the shift, its
    exponential and, with the peaks zeroed, the terms of the sum: they are
    overwritten, and every caller passes an array it discards.
    """
    peak = rows.max(axis=1, keepdims=True)
    live = np.isfinite(peak[:, 0])
    if not live.all():
        out = np.full(len(rows), -np.inf)
        if live.any():
            out[live] = _log_sum_exp(rows[live])
        return out
    rows -= peak
    at_peak = rows == 0.0               # exactly the entries equal to the peak
    np.exp(rows, out=rows)
    np.copyto(rows, 0.0, where=at_peak)
    total = rows.sum(axis=1, keepdims=True)
    count = at_peak.sum(axis=1, keepdims=True)
    return (np.log1p(total / count) + np.log(count) + peak)[:, 0]


def _tap_table_bytes(tables: _Tables, rows: int) -> int:
    """Bytes a z row's posterior tables take while they are built, for
    `rows` picked codewords: the row's log weights, gathered per coordinate,
    and each group's table of log sums, twice over as its last coordinate
    is added."""
    card = tables.tap_log_weight.shape[2]
    entries = sum(card ** (last - first) for first, last in tables.groups)
    return 8 * rows * (card * tables.config.n + 2 * entries)


def _tap_tables(tables: _Tables, sequences: np.ndarray, z_rows: np.ndarray
                ) -> list[np.ndarray]:
    """Per group, the (Z, R * width) tables of L_g for the z rows (Z, n) and
    the R picked codewords `sequences`: the sum of the normalized log
    weights log w(z_i | u_i, v1_i) over the group's coordinates, left to
    right, for every row and every v1 symbol sequence of the group; row r's
    entry for digits d sits at r * width + d, the group's lexicographic
    digits."""
    n, card = z_rows.shape[1], tables.tap_log_weight.shape[2]
    # the rows' weights for each z symbol, (card_z, n, R, card), then each
    # z row's, (Z, n, R, card), copied R * card at a time
    values = tables.tap_log_weight[:, sequences.T][z_rows, np.arange(n)]
    out = []
    for first, last in tables.groups:
        table = values[:, first]
        for i in range(first + 1, last):
            # coordinate i's symbol is the new last digit; one add per
            # symbol keeps numpy's inner loop over the table's digits
            wider = np.empty(table.shape + (card,))
            for s in range(card):
                np.add(table, values[:, i, :, s, None], out=wider[..., s])
            table = wider.reshape(*table.shape[:2], -1)
        out.append(np.ascontiguousarray(table).reshape(len(z_rows), -1))
    return out


def _step_shape(m: int, states: int) -> tuple[int, int]:
    """(z rows, message rows) of a posterior step over m message rows of
    `states` pairs each.  A pair holds its product, _ROW_PAIR_BYTES, and
    while gathered, 8 bytes a z row of factor and 8 of code copied to intp
    (_combined): as many z rows with all their message rows as fit
    GATHER_BYTES so, else one z row and as many of its message rows as
    fit, one at least."""
    rows = (GATHER_BYTES // (_ROW_PAIR_BYTES * m * states) - 1) // 2
    if rows >= 1:
        return rows, m
    return 1, min(m, max(1, GATHER_BYTES // (3 * _ROW_PAIR_BYTES * states)))


def _combined(tables: list[np.ndarray], codes: np.ndarray, combine) -> np.ndarray:
    """(Z, P): each of P pairs' entries in the groups' tables (Z, entries)
    at its codes (G, P), combined left to right, combine(combine(t_0, t_1),
    t_2) and so on.

    The result is the only whole array.  The first group's entries are
    gathered into it and each later group's into one reused buffer, a block
    at a time: the buffer and the block's codes, copied to intp as np.take
    does with int32 codes, fit the room the result leaves in GATHER_BYTES,
    half of it at least.  A block is whole z rows while one row's pairs fit
    so, else one z row's pairs in chunks (256 at least).  A block is
    contiguous, so combining in place makes no temporary."""
    rows, pairs = len(tables[0]), codes.shape[1]
    room = max(GATHER_BYTES // 8 - rows * pairs, GATHER_BYTES // 16)   # 8-byte entries
    if 2 * pairs <= room:
        block, chunk = min(rows, room // pairs - 1), pairs
    else:
        block, chunk = 1, min(pairs, max(room // 2, 2 ** 8))
    out = np.empty((rows, pairs))
    buffer = np.empty(block * chunk)
    for at in range(0, rows, block):
        for lo in range(0, pairs, chunk):
            part = out[at:at + block, lo:lo + chunk]
            gathered = buffer[:part.size].reshape(part.shape)
            for t, table in enumerate(tables):
                np.take(table[at:at + block], codes[t, lo:lo + chunk], axis=1,
                        out=gathered if t else part, mode="clip")
                if t:
                    combine(part, gathered, out=part)
    return out


def _pair_totals(factors: list[np.ndarray], codes: np.ndarray) -> np.ndarray:
    """(Z, M) message totals from the groups' tables of exp(L_g), (Z,
    entries), and the codes (G, M, S) of M message rows: each pair's
    entries multiplied left to right (_combined), and each message's S
    products summed as one contiguous row in lexicographic v1 order."""
    rows, (count, messages, states) = len(factors[0]), codes.shape
    product = _combined(factors, codes.reshape(count, -1), np.multiply)
    return product.reshape(rows, messages, states).sum(axis=2)


def _rescored(tables: _Tables, selection: _Selection, z_rows: np.ndarray) -> np.ndarray:
    """exp(log P(z, message) less its largest) for each z row (Z, n), by
    log sums: each pair's gathered group sums L_g added left to right
    (_combined), and each message row reduced by _log_sum_exp.  It takes a
    z row at a time and its message rows as a posterior step would
    (_step_shape), and raises a UsageError for a z row no message can
    give."""
    count, m, states = selection.codes.shape
    messages = _step_shape(m, states)[1]
    log_posts = np.empty((len(z_rows), m))
    for z, row in enumerate(z_rows):
        sums = _tap_tables(tables, selection.sequences, row[None])
        for first in range(0, m, messages):
            step = selection.codes[:, first:first + messages].reshape(count, -1)
            loglik = _combined(sums, step, np.add)[0]
            log_posts[z, first:first + messages] = _log_sum_exp(loglik.reshape(-1, states))
    if not np.isfinite(log_posts).any(axis=1).all():
        raise UsageError("observed z sequence has zero probability under the model")
    return np.exp(log_posts - log_posts.max(axis=1, keepdims=True))


def _posteriors(tables: _Tables, selection: _Selection, z_rows: np.ndarray) -> np.ndarray:
    """Message posteriors (Z, m) of the z rows (Z, n), from the codes and
    picked codewords of _selection_table, in the probability domain.

    A batch of z rows gets, per group of _Tables.groups, its table of
    exp(L_g) (_tap_tables), one per z row.  Each log weight was reduced by
    its z symbol's largest, so every entry lies in [0, 1] and the factor
    dropped is one every message shares.  A step takes a block of (z row,
    message) rows, each one message's S (message, v1 sequence) pairs: a
    pair costs one gather per group and the products between them, and each
    row one contiguous .sum of its S products (_pair_totals); rows never
    mix, so the shape of a batch or a step does not change a bit of the
    result.  Each z row is divided by its largest message total, then by
    its sum.

    A z row whose largest total falls below 2^-900, which takes normalized
    weights spread over more than about 2^(900/n), may have lost terms to
    underflow; it is rescored by log sums (_rescored).  An observation no
    message can give ends there with a UsageError.

    A batch takes as many z rows as their tables, _tap_table_bytes a z row,
    fit in GATHER_BYTES, one at least.  A step holds _ROW_PAIR_BYTES, 8
    bytes, a pair (its product) beside _combined's gather buffer, sized by
    _step_shape so that both fit GATHER_BYTES.  Only a message row whose
    products, factors and codes outgrow GATHER_BYTES goes past it: the
    step is that row and a buffer of half of GATHER_BYTES, which
    _check_enumeration charges beside a batch's tables.
    """
    count, m, states = selection.codes.shape
    batch = max(1, GATHER_BYTES // _tap_table_bytes(tables, len(selection.sequences)))
    rows, messages = _step_shape(m, states)
    totals = np.empty((len(z_rows), m))
    for lo in range(0, len(z_rows), batch):
        factors = _tap_tables(tables, selection.sequences, z_rows[lo:lo + batch])
        for table in factors:
            np.exp(table, out=table)
        for at in range(0, len(factors[0]), rows):
            part = [table[at:at + rows] for table in factors]
            out = totals[lo + at:lo + at + len(part[0])]
            for first in range(0, m, messages):
                out[:, first:first + messages] = _pair_totals(
                    part, selection.codes[:, first:first + messages])
        del factors, part, out                          # before the next batch's
    peak = totals.max(axis=1, keepdims=True)
    low = np.flatnonzero(peak[:, 0] < _RESCORE_BELOW)
    if low.size:
        totals[low] = _rescored(tables, selection, z_rows[low])
        peak[low] = 1.0
    totals /= peak
    totals /= totals.sum(axis=1, keepdims=True)
    _check_stack(totals, (1,), "pmf 'message'")
    return totals


@dataclass(frozen=True)
class SimulationReport:
    pe: float
    pe_ci95: tuple[float, float]
    d: float
    trials: int
    n: int
    m: int
    rate: float
    theoretical: RateTriplet
    fallback_rate: float
    equivocation_min: float
    equivocation_max: float
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def _wilson(errors: int, trials: int) -> tuple[float, float]:
    z2 = WILSON_Z * WILSON_Z
    phat = errors / trials
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = WILSON_Z * math.sqrt(phat * (1 - phat) / trials
                                + z2 / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def run_experiment(config: SimConfig) -> SimulationReport:
    """Monte Carlo over state/message/noise draws; deterministic per seed.

    Trial t draws from the stream of default_rng([seed, 1, t]); the
    codebook is drawn as default_rng([seed, 0]) would draw it
    (_build_codebook).  Within a trial the draw order
    is: state pair sequence (random(n)), message (integers(1, m + 1)),
    then encoder input, main and wiretap channel uniforms (random((3, n))).
    Those are 4n + 1 PCG64 outputs, because m is a power of two and numpy's
    32-bit Lemire draw then takes exactly one; _trial_draws takes them for a
    whole block from the lane-wise kernel probability._pcg64_outputs, bit
    for bit.  The selection table is the encoder: trial t sends the bin
    member its rank lists for the trial's (message, v1 sequence).  Trials run in blocks
    of about GATHER_BYTES; only their equivocations are kept whole, for the
    mean.
    """
    tables = _Tables(config)
    _check_enumeration(tables)
    codebook = _build_codebook(config, tables)
    selection = _selection_table(tables, codebook, config)
    decodes = _decoder(tables, codebook, config)

    model = config.model
    n, trials = config.n, config.trials
    log_m = math.log2(config.m)
    # per trial: the kernel's words, or n-long rows of four uniforms, v1, v2,
    # u, x, y and z and the (n, card) probabilities and sums that _sample
    # builds
    card = max(model.card_x, model.card_y, model.card_z)
    block = max(1, GATHER_BYTES // (8 * max(_pcg64_words(4 * n + 1), n * (10 + 2 * card))))
    errors = fallbacks = 0
    equivocations = np.empty(trials)
    for lo in range(0, trials, block):
        messages, fell_back, y, z = _trial_block(
            tables, codebook, config, selection, lo, min(block, trials - lo))
        fallbacks += int(np.count_nonzero(fell_back))
        # decode and posterior are functions of the observation alone, so
        # each distinct y and z row of a block is evaluated once, all in one
        # batch; a failed decode reads as message 0, which is never sent
        y_rows, y_of = _distinct(y, model.card_y)
        errors += int(np.count_nonzero(decodes(y_rows)[y_of.reshape(-1)] != messages))
        del y, y_rows, y_of                             # before the posteriors' batches
        z_rows, z_of = _distinct(z, model.card_z)
        entropies = _entropy_bits_batch(_posteriors(tables, selection, z_rows))
        equivocations[lo:lo + len(messages)] = entropies[z_of.reshape(-1)] / log_m

    return SimulationReport(
        pe=errors / trials,
        pe_ci95=_wilson(errors, trials),
        d=float(equivocations.mean()),
        trials=trials,
        n=n,
        m=config.m,
        rate=config.rate,
        theoretical=tables.triplet,
        fallback_rate=fallbacks / trials,
        equivocation_min=float(equivocations.min()),
        equivocation_max=float(equivocations.max()),
        seed=config.seed,
    )


def _distinct(rows: np.ndarray, card: int) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(rows, axis=0, return_inverse=True) of (R, n) symbol rows,
    through one integer per row while card^n fits in an int64."""
    if rows.shape[1] * math.log2(max(card, 2)) >= 63:
        return np.unique(rows, axis=0, return_inverse=True)
    _, first, of = np.unique(rows @ card ** np.arange(rows.shape[1] - 1, -1, -1),
                             return_index=True, return_inverse=True)
    return rows[first], of


def _trial_draws(seed: int, m: int, n: int, first: int, count: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The draws of trials first .. first + count - 1: their messages and
    (count, 4, n) uniforms, states then x, y, z in turn.

    Trial t's generator default_rng([seed, 1, t]) draws random(n),
    integers(1, m + 1) and random((3, n)): 4n + 1 PCG64 outputs, which
    _pcg64_outputs gives for the whole block.  A uniform is numpy's
    next_double, (out >> 11) * 2^-53.  The message is numpy's buffered
    32-bit Lemire draw on the output's low half,
    ((out & (2^32 - 1)) * m >> 32) + 1: SimConfig makes m a power of two in
    [2, 2^20], so the rejection threshold 2^32 mod m is 0, the draw never
    takes another output, and the buffered high half is never read.
    """
    words = _pcg64_outputs((seed, 1), first, count, 4 * n + 1)
    messages = ((words[:, n] & 0xFFFF_FFFF) * m >> 32).astype(np.int64) + 1
    draws = np.delete(words, n, axis=1)
    del words
    draws >>= 11
    return messages, (draws * 2.0 ** -53).reshape(count, 4, n)


def _trial_block(tables: _Tables, codebook: Codebook, config: SimConfig,
                 selection: _Selection, first: int, count: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Trials first .. first + count - 1: their messages, fallback flags and
    (count, n) channel outputs y and z."""
    model = config.model
    n = config.n
    state_flat = model.state_pmf.table.reshape(-1)
    state_cdf = (state_flat / state_flat.sum()).cumsum()
    state_cdf /= state_cdf[-1]
    messages, draws = _trial_draws(config.seed, config.m, n, first, count)
    # rng.choice(size, n, p=...) draws n uniforms and inverts this cdf; the
    # block inverts every trial's at once
    v1, v2 = np.divmod(state_cdf.searchsorted(draws[:, 0], side="right"), model.card_v2)
    rank = selection.ranks[messages - 1, v1 @ model.card_v1 ** np.arange(n - 1, -1, -1)]
    u = codebook.sequences[selection.members[messages - 1, rank]]
    x = _sample(tables.x_dist[u, v1], draws[:, 1])
    y = _sample(model.main_kernel.table[x, v1], draws[:, 2])
    z = _sample(model.wiretap_kernel.table[x, v2], draws[:, 3])
    return messages, rank == selection.members.shape[1] - 1, y, z
