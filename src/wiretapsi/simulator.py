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
unsigned dtype that also holds "none" (uint8 up to 255 members a bin), one
byte a pair; the bins' member table with each member's posterior row and
the picked codewords, the codebook and one equivocation per trial.  The
codebook is drawn before any of that is held: beside it, a block of
GATHER_BYTES of its stream, or the permutation, its inverse and their
index, 8 bytes a codeword each.  Then come two phases.  The selection
holds its node tables, its lists of pending pairs scored by gathers, 8
bytes a pair but never more pairs than leave a cell thin (_loose_bytes),
and one step, or at its end a copy of the ranks in lexicographic order.
The posterior holds the decoder's tables and GATHER_BYTES each for a
batch's tables (more only where one z row's tables take more), a piece's
buffers and the rest of the trial block.  The charge takes the largest
phase and adds numpy's own ufunc buffers, which any step may hold; it is
checked before anything is allocated, and a run over it is refused with
a UsageError.  Every other step, trials included, works in about
GATHER_BYTES, so none outgrows its phase's; a selection step gathers one
state's m pairs at least, and the charge covers that too.

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
  trial sends its pair's member, and the posterior derives each pair's
  codes into its tables from it.
* _decoder builds codeword-row tables of log p(u, y) over the y symbols
  once per run and scores every codeword against the distinct y of a
  trial block through the y rows' codes.

The eavesdropper's posterior works in the probability domain instead
(_posteriors).  The coordinates are split into a few groups of consecutive
ones (_groups: two on every benchmark config); for a batch of the block's
distinct z and a block of messages, each group gets a table of exp(L_g),
L_g the group's log weights log w(z_i | u_i, v1_i), each less its z
symbol's largest, summed left to right, one row per codeword the block's
messages pick over the group's v1 symbols.  The batch goes a piece of
pairs at a time: each piece's codes, its pick's row times the group's
width plus the sequence's digits, are derived from the ranks once and
serve every z row, and a (message, v1 sequence) pair costs one gather per
group and the products between them.  Each message's S products are
summed in numpy's own pairwise runs (_pairwise), bit for bit the
contiguous sum of the whole row.  A z row whose largest message total
falls below 2^-900 is rescored by log sums, so an extreme wiretap cannot
underflow the posterior.

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
    states = config.model.card_v1 ** config.n
    cells = config.m * states
    size = _codebook_size(config, tables.triplet.mi_uy)
    depth = -(-size // config.m)
    rank = np.min_scalar_type(depth).itemsize
    # held whole: a rank for each (message, v1 sequence) pair, (m, S); the
    # (m, depth + 1) member table, each member's row and the picked
    # codewords; and one float equivocation per trial
    held = cells * rank + 8 * config.m * (depth + 1) * (config.n + 2) + 8 * config.trials
    # the selection: its per-cell arrays and pending-pair lists
    # (_loose_bytes) beside one step, GATHER_BYTES or one state's m pairs
    # gathered; at its end, the ranks' copy in lexicographic order and each
    # sequence's place in the digit order, with the outer sums that build it
    sums = tables.row_sums
    step = max(GATHER_BYTES, (_gather_score_bytes(sums) + _GATHER_PAIR_BYTES) * config.m)
    selection = max(_loose_bytes(config.m, config.model.card_v1, states) + step,
                    cells * rank + 16 * states)
    # the posterior: a batch's tables, GATHER_BYTES or one z row's over
    # every picked codeword; one piece's buffers; and the rest of the trial
    # block, GATHER_BYTES
    rows, _ = _pick_rows(config, tables.triplet.mi_uy)
    posterior = (max(GATHER_BYTES, _tap_table_bytes(tables, rows))
                 + max(GATHER_BYTES, _PIECE_MIN * (_PIECE_PAIR_BYTES + _PIECE_ROW_BYTES))
                 + GATHER_BYTES)
    need = held + max(selection, posterior)
    # the codebook's K sequences with their bins and subbins; the
    # selection's node tables and, later, the decoder's, one row per
    # codeword; a codebook past its cap is refused when it is drawn.  The
    # codebook is drawn before anything else is held: beside its arrays, a
    # block of GATHER_BYTES and the permutation, or the permutation, its
    # inverse and their index, 8 bytes a codeword each (_build_codebook)
    if size <= MAX_CODEBOOK:
        decoder = _row_cut(config.n, tables.p_uy.shape[1], size, size * config.trials)
        need = 8 * size * (config.n + 2) + max(
            held + max(selection + 8 * size * sums.entries,
                       posterior + 8 * size * decoder.entries),
            GATHER_BYTES + 8 * size, 24 * size)
    # and beside any step, numpy's own buffers: a buffered ufunc call holds
    # up to np.getbufsize() entries of each of its three operands, 8 bytes
    # each
    need += 3 * 8 * np.getbufsize()
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
    tables.  rows (m, depth + 1): the row in sequences of members[j, r]
    where message j picks rank r, -1 where it does not.  That is all the
    posterior needs: a pair's code in a group's table is its pick's row
    times the group's width plus the sequence's digits over the group's
    coordinates, derived a piece at a time (_piece_values)."""
    members: np.ndarray
    ranks: np.ndarray
    sequences: np.ndarray
    rows: np.ndarray


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
    put in lexicographic order, and the (message, rank)s some pair takes
    are marked GATHER_BYTES of pairs at a time, which makes no whole-run
    temporary.
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
    # a step of pairs' places in members and their temporaries, 8 bytes
    # each, fit GATHER_BYTES; m pairs at least, as a selection step takes,
    # so a tiny budget does not mark a pair at a time
    step = max(m, GATHER_BYTES // 24)
    used = np.zeros(members.size, dtype=bool)           # the members some pair takes
    for lo in range(0, ranks.size, step):
        used[_member_places(ranks, members, lo, step)] = True
    picked = np.zeros(len(sequences), dtype=bool)
    picked[members.reshape(-1)[used]] = True
    rows = np.where(used.reshape(members.shape), (np.cumsum(picked) - 1)[members], -1)
    return _Selection(members, ranks, sequences[picked], rows)


def _cell_width(m: int, card: int, count: int) -> int:
    """Sequences in a cell of _first_typical: the largest power of card, up
    to count, whose m cells' whole scoring fits GATHER_BYTES.  A whole
    cell's pair holds its sum, the outer sum's last factor, a copy of its
    rank and three masks."""
    width = 1
    while width < count and m * width * card * (2 * 8 + 4) <= GATHER_BYTES:
        width *= card
    return width


def _loose_bytes(m: int, card: int, count: int) -> int:
    """The most bytes _first_typical holds beside its ranks: the lists of
    pending pairs, 8 bytes a pair, where a cell joins once with at most as
    many pending pairs as leave it thin (_thin_most), and per cell its
    count of pending pairs, its flag, two masks and, while it turns thin,
    its index and a copy of its count."""
    width = _cell_width(m, card, count)
    cells = m * (count // width)
    return cells * (8 * _thin_most(width) + 2 * np.min_scalar_type(width).itemsize + 10)


def _thin_most(width: int) -> int:
    """The most pending pairs a thin cell of `width` sequences has: fewer
    than a quarter of its pairs or of 64."""
    return min(width, -(-max(width, 64) // 4) - 1)


def _pending_pairs(ranks: np.ndarray, thin: np.ndarray, left: np.ndarray, depth: int
                   ) -> np.ndarray:
    """The pending pairs, rank depth, of _first_typical's cells where
    `thin` holds, message * S + place, in order: an array of exactly their
    count, which `left` holds, filled a step of cells at a time (per pair
    its copy of its rank and its mask, and per pending pair its place,
    quotient and remainder).  A step takes a quarter of GATHER_BYTES: the
    lists are at their longest here, and a full budget on top of them
    would set the selection's peak."""
    width = ranks.size // left.size
    cells = np.flatnonzero(thin)
    pairs = np.empty(int(left.reshape(-1)[cells].sum(dtype=np.intp)), dtype=np.intp)
    flat = ranks.reshape(-1, width)
    step, at = max(1, GATHER_BYTES // 4 // (2 * width + 24 * _thin_most(width))), 0
    for lo in range(0, len(cells), step):
        part = cells[lo:lo + step]
        block, place = np.divmod(np.flatnonzero(flat[part] == depth), width)
        out = pairs[at:at + len(block)]
        np.take(part, block, out=out)
        out *= width
        out += place
        at += len(block)
    return pairs


def _first_typical(tables: _Tables, config: SimConfig, node: list[np.ndarray],
                   members: np.ndarray) -> np.ndarray:
    """Each (message, v1 sequence) pair's rank in its bin, (m, S) in the
    tree's digit order, depth where none is typical: the encoder replayed
    for every pair from `node`, the codeword-row tables of log p(u, v1),
    and _Selection's `members`.

    Rank r scores every bin's r-th member against the pairs still pending,
    those at depth, so a pair stops at its bin's first typical member, as
    encode does.  The v1 sequences are taken in the tree's digit order, in
    blocks of `width` that fit GATHER_BYTES for all m messages
    (_cell_width).  A (message, block) cell with at least a quarter of its
    pairs pending, and at least 16, is scored whole: one outer sum of the
    members' table rows, contiguous adds.  A thinner cell's pending pairs
    join the lists scored by gathers (_gathered_step), one array per rank
    at which cells turned thin, each filled at its exact length and
    compacted in place as its pairs hit, so the lists never hold more than
    _loose_bytes; once no cell is scored whole, they take as many ranks at
    a time as fit, each pair its first hit.  Scores are
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
    width = _cell_width(m, card, count)
    # pending pairs per cell
    left = np.full((m, count // width), width, dtype=np.min_scalar_type(width))
    whole = np.ones(left.shape, dtype=bool)
    # the pending pairs of the cells scored by gathers, message * S + place,
    # one array per rank at which cells joined them
    loose: list[np.ndarray] = []
    rank = 0
    while rank < depth:
        thin = left <= _thin_most(width)
        thin &= whole
        if thin.any():
            whole &= ~thin
            loose.append(_pending_pairs(ranks, thin, left, depth))
        del thin
        pending = sum(part.size for part in loose)
        if not (pending or whole.any()):
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
            left[rows, block] -= hit.sum(axis=1, dtype=left.dtype)
            # a hit takes its pair from depth down to rank
            cell -= np.multiply(hit, depth - rank, dtype=ranks.dtype)
            if not isinstance(rows, slice):
                ranks[cells] = cell
        window = 1 if whole.any() else min(
            depth - rank, max(1, (GATHER_BYTES // pending - _GATHER_PAIR_BYTES) // score))
        # one state's pairs at least
        step = max(m, GATHER_BYTES // (score * window + _GATHER_PAIR_BYTES))
        for i, part in enumerate(loose):
            kept = 0
            for lo in range(0, part.size, step):
                pair = part[lo:lo + step]
                keep = np.ones(pair.size, dtype=bool)
                keep[_gathered_step(sums, flat, members, ranks, pair, rank, window,
                                    bounds)] = False
                # the pairs still pending move down within the array, which
                # then never grows
                pair = pair[keep]
                part[kept:kept + pair.size] = pair
                kept += pair.size
            loose[i] = part[:kept]
        loose = [part for part in loose if part.size]
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


# a posterior piece holds per (message, v1 sequence) pair its place in
# the (message, rank) table, its code, an arange and a digit temporary, 8
# bytes each, and per z row its value and a gathered entry, 8 bytes each,
# and when rescored its mask of peak entries
_PIECE_PAIR_BYTES = 32
_PIECE_ROW_BYTES = 17
_PIECE_MIN = 2 ** 8           # pairs a piece may take at least, whatever GATHER_BYTES
_PAIRWISE_BLOCK = 128         # terms numpy sums without splitting them


def _pairwise(leaf, lo: int, count: int, chunk: int, combine=np.add):
    """numpy's pairwise sum of the `count` terms from lo, bit for bit, with
    leaf(lo, hi) summing the terms lo .. hi - 1 by numpy, at most
    max(chunk, _PAIRWISE_BLOCK) at a time, and combine adding two sums.

    numpy sums a contiguous row of up to _PAIRWISE_BLOCK terms in one
    unrolled loop and splits a longer one at half its length, rounded down
    to a multiple of 8, summing each half the same way; every run this
    recursion hands leaf is one of those halves, so leaf's sum is numpy's
    for it, and the halves' sums are added as numpy adds them.  A numpy
    that sums otherwise fails the guard in tests/test_simulator.py.  Any
    combine that ignores order serves too (np.maximum)."""
    if count <= max(chunk, _PAIRWISE_BLOCK):
        return leaf(lo, lo + count)
    half = count // 2 - count // 2 % 8
    return combine(_pairwise(leaf, lo, half, chunk, combine),
                   _pairwise(leaf, lo + half, count - half, chunk, combine))


def _over_rows(leaf, messages: int, states: int, chunk: int, combine=np.add) -> np.ndarray:
    """(Z, messages): each message row of `states` pairs reduced, from
    leaf(a, b, lo, hi), the (Z, b - a) reductions of the pairs lo .. hi - 1
    of message rows a .. b - 1.  Rows that fit `chunk` go whole, as many
    at once as fit; a longer row goes in _pairwise's runs, its sums
    combined as numpy would add them."""
    if states <= chunk:
        step = chunk // states
        return np.concatenate([leaf(a, min(a + step, messages), 0, states)
                               for a in range(0, messages, step)], axis=1)
    return np.stack([_pairwise(lambda lo, hi: leaf(a, a + 1, lo, hi)[:, 0], 0, states,
                               chunk, combine) for a in range(messages)], axis=1)


def _log_sums(values, messages: int, states: int, chunk: int) -> np.ndarray:
    """(Z, messages): log(sum(exp(v))) over each message row of `states`
    finite or -inf values, -inf for a row with no finite value; values(a,
    b, lo, hi) gives the (Z, b - a, hi - lo) values of pairs lo .. hi - 1
    of rows a .. b - 1, _over_rows' pieces, an array this overwrites.

    Each row is shifted by its maximum, found in a first pass; the entries
    at the maximum are counted and the rest enter through log1p, which
    keeps precision when one entry dominates.  The shifted terms are summed
    by _pairwise, as numpy sums a whole row."""
    peak = _over_rows(lambda *piece: values(*piece).max(axis=2), messages, states, chunk,
                      np.maximum)
    live = np.isfinite(peak)
    shift = np.where(live, peak, 0.0)
    count = np.zeros(peak.shape)

    def terms(a, b, lo, hi):
        part = values(a, b, lo, hi)
        part -= shift[:, a:b, None]
        at_peak = part == 0.0               # exactly the entries equal to the peak
        np.exp(part, out=part)
        np.copyto(part, 0.0, where=at_peak)
        count[:, a:b] += at_peak.sum(axis=2)
        return part.sum(axis=2)

    total = _over_rows(terms, messages, states, chunk)
    out = np.full(peak.shape, -np.inf)
    out[live] = np.log1p(total[live] / count[live]) + np.log(count[live]) + peak[live]
    return out


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


def _add_digits(code: np.ndarray, lo: int, place: int, width: int, base: np.ndarray) -> None:
    """code[i] += (lo + i) // place % width: the digits over a group of the
    sequences lo .. lo + len(code) - 1, or of whole message rows (lo = 0),
    place the group's place value and width its symbol count, base an
    arange at least as long as code.  A broadcast add where the run lines
    up with the digits, as on every run of a binary or quaternary v1."""
    count, period = len(code), place * width
    if lo // place == (lo + count - 1) // place:             # one digit throughout
        code += lo // place % width
    elif lo % period == 0 and count % period == 0:           # whole periods
        view = code.reshape(-1, width, place)
        view += base[:width, None]
    elif lo % place == 0 and count % place == 0 and lo // place % width + count // place <= width:
        view = code.reshape(-1, place)                      # one run of rising digits
        view += (base[:count // place] + lo // place % width)[:, None]
    else:
        digits = np.arange(lo, lo + count)
        digits //= place
        digits %= width
        code += digits


def _message_blocks(m: int, states: int) -> list[tuple[int, int]]:
    """Runs a .. b - 1 of messages whose posterior tables are built
    together: as many as have GATHER_BYTES // 64 pairs, one at least.  A
    long message row gets tables over its own picks alone, fewer rows, so
    that a batch takes more z rows and a piece's codes serve all of them."""
    step = max(1, min(m, GATHER_BYTES // 64 // states))
    return [(a, min(a + step, m)) for a in range(0, m, step)]


def _batch_rows(tables: _Tables, rows: int, pairs: int) -> int:
    """z rows a posterior batch takes over tables of `rows` picked
    codewords, for a message block of `pairs` pairs: as many as whose
    tables fit GATHER_BYTES, and whose share of a piece of _PIECE_MIN
    pairs, or of the whole block if fewer, fits it too; one at least."""
    piece = min(_PIECE_MIN, pairs)
    return max(1, min(GATHER_BYTES // _tap_table_bytes(tables, rows),
                      (GATHER_BYTES // piece - _PIECE_PAIR_BYTES) // _PIECE_ROW_BYTES))


def _piece_pairs(z_rows: int) -> int:
    """Pairs a posterior piece over `z_rows` z rows takes: as many as fit
    GATHER_BYTES, _PIECE_MIN at least."""
    return max(_PIECE_MIN, GATHER_BYTES // (_PIECE_PAIR_BYTES + _PIECE_ROW_BYTES * z_rows))


def _block_picks(selection: _Selection, first: int, last: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(picks, local) of messages first .. last - 1: the rows of
    selection.sequences they pick, in codebook order, the rows of their
    posterior tables, and each (message, rank)'s place among them,
    (last - first, depth + 1), -1 where the message does not pick it."""
    rows = selection.rows[first:last]
    taken = rows >= 0
    picks, place = np.unique(rows[taken], return_inverse=True)
    local = np.full(rows.shape, -1)
    local[taken] = place
    return picks, local


def _piece_values(tables: _Tables, ranks: np.ndarray, local: np.ndarray,
                  group_tables: list[np.ndarray], chunk: int, combine):
    """values(a, b, lo, hi): the (Z, b - a, hi - lo) entries of pairs lo ..
    hi - 1 of message rows a .. b - 1 of `ranks` in the groups' tables (Z,
    R * width) over a message block's picks, combined left to right,
    combine(combine(t_0, t_1), t_2) and so on, for at most `chunk` pairs;
    `local` is _block_picks' place of each (message, rank).

    Each piece's codes are derived from the ranks into one reused intp
    buffer, a group at a time: the pick's row in the tables times the
    group's width, looked up by (message, rank) in a small table built
    once from `local`, plus the sequences' digits over the group
    (_add_digits); each is gathered for every z row at once.  The values
    are one reused buffer, which the next call overwrites."""
    n, card = tables.config.n, tables.p_uv1.shape[1]
    messages, depth = local.shape
    digits = [(card ** (n - hi), card ** (hi - lo)) for lo, hi in tables.groups]
    row_codes = [local.reshape(-1) * width for _, width in digits]
    rows = len(group_tables[0])
    chunk = min(chunk, ranks.size)                      # a piece's most pairs
    base = np.arange(chunk)
    places, code = np.empty(chunk, dtype=np.intp), np.empty(chunk, dtype=np.intp)
    out = np.empty(rows * chunk)
    gathered = np.empty(rows * chunk) if len(digits) > 1 else None
    offsets = np.arange(messages)[:, None] * depth      # each message's place in `local`

    def values(a, b, lo, hi):
        size = (b - a) * (hi - lo)
        place, codes = places[:size], code[:size]
        np.add(ranks[a:b, lo:hi], offsets[a:b], out=place.reshape(b - a, hi - lo))
        part = out[:rows * size].reshape(rows, size)
        for t, (table, row_code, (step, width)) in enumerate(
                zip(group_tables, row_codes, digits)):
            np.take(row_code, place, out=codes, mode="clip")
            _add_digits(codes, lo, step, width, base)
            into = gathered[:rows * size].reshape(rows, size) if t else part
            np.take(table, codes, axis=1, out=into, mode="clip")
            if t:
                combine(part, into, out=part)
        return part.reshape(rows, b - a, hi - lo)

    return values


def _rescored(tables: _Tables, selection: _Selection, z_rows: np.ndarray) -> np.ndarray:
    """exp(log P(z, message) less its largest) for each z row (Z, n), by
    log sums: each pair's group sums L_g added left to right
    (_piece_values), and each message row reduced by _log_sums.  It takes
    a z row at a time, in the message blocks and pieces a posterior batch
    of one z row would, and raises a UsageError for a z row no message can
    give."""
    m, states = selection.ranks.shape
    chunk = _piece_pairs(1)
    log_posts = np.empty((len(z_rows), m))
    for first, last in _message_blocks(m, states):
        picks, local = _block_picks(selection, first, last)
        for z, row in enumerate(z_rows):
            sums = _tap_tables(tables, selection.sequences[picks], row[None])
            values = _piece_values(tables, selection.ranks[first:last], local, sums, chunk,
                                   np.add)
            log_posts[z:z + 1, first:last] = _log_sums(values, last - first, states, chunk)
            del sums, values                            # before the next row's
    if not np.isfinite(log_posts).any(axis=1).all():
        raise UsageError("observed z sequence has zero probability under the model")
    return np.exp(log_posts - log_posts.max(axis=1, keepdims=True))


def _posteriors(tables: _Tables, selection: _Selection, z_rows: np.ndarray) -> np.ndarray:
    """Message posteriors (Z, m) of the z rows (Z, n), from the ranks and
    picks of _selection_table, in the probability domain.

    The messages go in blocks (_message_blocks), and a block's z rows in
    batches (_batch_rows); a batch gets, per group of _Tables.groups, its
    table of exp(L_g) over the block's picks (_tap_tables).  Each log
    weight was reduced by its z symbol's largest, so every entry lies in
    [0, 1] and the factor dropped is one every message shares.  The batch
    then goes a piece at a time: whole message rows while they fit
    _piece_pairs, else runs of one row.  A pair costs one gather per group
    and the products between them (_piece_values), whose codes are derived
    once for every z row of the batch; each (z row, message) row's S
    products are summed as numpy sums the whole row, by _pairwise over the
    runs.  Rows never mix, so no shape of a block, batch or piece changes
    a bit of the result.  Each z row is divided by its largest message
    total, then by its sum.

    A z row whose largest total falls below 2^-900, which takes normalized
    weights spread over more than about 2^(900/n), may have lost terms to
    underflow; it is rescored by log sums (_rescored).  An observation no
    message can give ends there with a UsageError.

    A batch holds its tables, _tap_table_bytes a z row, within
    GATHER_BYTES, one z row's at least, and a piece its buffers,
    _PIECE_PAIR_BYTES a pair and _PIECE_ROW_BYTES more per z row, within
    GATHER_BYTES too; _check_enumeration charges both.
    """
    m, states = selection.ranks.shape
    totals = np.empty((len(z_rows), m))
    for first, last in _message_blocks(m, states):
        picks, local = _block_picks(selection, first, last)
        sequences = selection.sequences[picks]
        batch = _batch_rows(tables, len(picks), (last - first) * states)
        for lo in range(0, len(z_rows), batch):
            factors = _tap_tables(tables, sequences, z_rows[lo:lo + batch])
            for table in factors:
                np.exp(table, out=table)
            chunk = _piece_pairs(len(factors[0]))
            values = _piece_values(tables, selection.ranks[first:last], local, factors, chunk,
                                   np.multiply)
            totals[lo:lo + batch, first:last] = _over_rows(
                lambda *piece: values(*piece).sum(axis=2), last - first, states, chunk)
            del factors, values                         # before the next batch's
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
