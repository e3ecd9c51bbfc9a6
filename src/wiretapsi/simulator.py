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
holds.  Held whole: the int32 (m, S) selection and bool found tables, one
intp (m, S) code array per codeword-row table (m messages, S = |V1|^N
state sequences), the codebook, the decoder's tables and one equivocation
per trial.  Beside them, one posterior step: its message rows of S pairs,
GATHER_BYTES of them or one row past that, and GATHER_BYTES each for its
tables and its gathers.  It is checked before anything is allocated; a run
over it is refused with a UsageError.  Every other step, trials included,
works in about GATHER_BYTES, so none outgrows the posterior's; a selection
step gathers one state's m pairs at least, and the charge covers that too.

Every sequence score is an exact sum of n per-coordinate log-probabilities,
taken through the node tables of nodesums, bit for bit numpy's .sum.  Every
table has one row per codeword over the v1 or the y symbols of the node's
coordinates, and every cut is _row_cut's, so a (codeword, v1 sequence)
pair's code in a flattened table is its row plus the row count times the
sequence's state part.  The kernel serves three callers:

* _selection_table replays the encoder for every (message, v1 sequence)
  pair a rank at a time: the bins' r-th members against blocks of v1
  sequences taken in the tree's digit order, each pair stopping at its
  bin's first typical member.  That table is the encoder: each trial
  sends the listed codeword.  It also returns each pick's codes.
* _decoder builds codeword-row tables of log p(u, y) over the y symbols
  once per run and scores every codeword against the distinct y of a
  trial block through the y rows' codes.
* _posteriors builds codeword-row tables of log w(z_i | u_i, v1_i) for a
  batch of the block's distinct z and sums every (message, v1 sequence)
  pair through the codes, a block of message rows at a time.

A trial draws its states, message and uniforms as its own generator
default_rng([seed, 1, t]) would, but no generator is built: the lane-wise
PCG64 kernel of probability gives each trial of a block its 4n + 1 outputs.
The message takes one of them because m is a power of two: numpy's 32-bit
Lemire draw then never rejects (see _trial_draws).

The public encode keeps its own per-bin scan; it is the second path that
validate's brute-force posterior and the tests compare the kernel against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .discrete import (AuxiliaryPolicy, DiscreteWiretapModel, RateTriplet,
                       _check_policy, _joint_triplet)
from .errors import InfeasibleRateError, UsageError
from .nodesums import _NodeSums, _shared_cut
from .probability import (BYTE_BUDGET, Pmf, _check_stack, _entropy_bits,
                          _entropy_bits_batch, _pcg64_outputs, _pcg64_words,
                          compose)

MAX_BLOCK_LENGTH = 16
MAX_STATE_PRODUCT = 4
MAX_CODEBOOK = 2 ** 20
MAX_STATE_ENUM_BITS = 20.0
GATHER_BYTES = 2 ** 19    # working set of one selection, decode, posterior or trial step
# a posterior message row per (message, v1 sequence) pair: its log-likelihood,
# which _log_sum_exp shifts in place, and the peak mask
_ROW_PAIR_BYTES = 8 + 1
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

    @functools.cached_property
    def row_sums(self) -> _NodeSums:
        """The codeword-row cut the selection table scores with and whose
        codes the posterior gathers through."""
        return _row_sums(self.config, self.triplet.mi_uy)


def _row_cut(n: int, card: int, rows: int, scores: int) -> _NodeSums:
    """The cut for tables with `rows` rows over `card` symbols that serve
    `scores` row sums.  A table holds at most half as many entries as there
    are scores, so building it costs less than a gather per score, and at
    most GATHER_BYTES / 16, half a step's budget at 8 bytes each (a lone
    coordinate always qualifies).  Each (n, card, span) is cut once and the
    cut shared."""
    cap, span = max(min(scores // 2, GATHER_BYTES // 16), rows), 1
    while span < n and rows * card ** (span + 1) <= cap:
        span += 1
    return _shared_cut(n, card, span)


def _row_sums(config: SimConfig, mi_uy: float) -> _NodeSums:
    """The cut over v1 symbols for tables with one row per picked codeword,
    for every (message, v1 sequence) pair: over the config's codebook, or
    over one row per pair if there are fewer pairs."""
    n, card = config.n, config.model.card_v1
    pairs = config.m * card ** n
    return _row_cut(n, card, min(_codebook_size(config, mi_uy), pairs), pairs)


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


def _sample(probs: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Inverse-CDF symbol per row of probs (..., card) from uniform draws (...)."""
    return (probs.cumsum(axis=-1) < draws[..., None]).sum(axis=-1)


def build_codebook(config: SimConfig) -> Codebook:
    tables = _Tables(config)
    return _build_codebook(config, tables)


def _build_codebook(config: SimConfig, tables: _Tables) -> Codebook:
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

    rng = np.random.default_rng([config.seed, 0])
    p = tables.p_u / tables.p_u.sum()
    sequences = rng.choice(len(p), size=(size, config.n), p=p)

    order = rng.permutation(size)
    bin_index = np.empty(size, dtype=np.int64)
    bin_index[order] = np.arange(size) % m + 1
    within_rank = np.empty(size, dtype=np.int64)
    within_rank[order] = np.arange(size) // m

    # Subbin capacity targets 2^{n*(I(u;z) - epsilon)} codewords per subbin,
    # floored at 1 so tiny instances still carry the two-level structure.
    capacity = max(1, math.ceil(2.0 ** (config.n * (tables.triplet.mi_uz - config.epsilon_typ))))
    max_occupancy = math.ceil(size / m)
    subbins_per_bin = max(1, math.ceil(max_occupancy / capacity))
    subbin_index = within_rank // capacity + 1

    for arr in (sequences, bin_index, subbin_index):
        arr.setflags(write=False)
    return Codebook(sequences, bin_index, subbin_index, m,
                    int(subbins_per_bin), config.seed)


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
    v1_seq = np.asarray(v1_seq)
    if v1_seq.shape != (config.n,):
        raise UsageError(f"v1 sequence must have length {config.n}")

    members = np.flatnonzero(codebook.bin_index == message)
    typical = _typical(tables.log_p_uv1[codebook.sequences[members], v1_seq].mean(axis=-1),
                       tables.h_uv1, config.epsilon_typ)
    hits = np.flatnonzero(typical)
    if hits.size:
        chosen, fallback = int(members[hits[0]]), False
    else:
        chosen, fallback = _fallback_codeword(codebook), True

    u_seq = codebook.sequences[chosen]
    x_seq = _sample(tables.x_dist[u_seq, v1_seq], rng.random(config.n))
    return u_seq, x_seq, fallback


def decode(codebook: Codebook, config: SimConfig,
           y_seq: np.ndarray) -> Optional[int]:
    """Bin of the unique codeword typical with y_seq, or None."""
    tables = _Tables(config)
    y_seq = np.asarray(y_seq)
    if y_seq.shape != (config.n,):
        raise UsageError(f"y sequence must have length {config.n}")
    card_y = tables.p_uy.shape[1]
    if not ((y_seq >= 0) & (y_seq < card_y)).all():
        raise UsageError(f"y symbols must lie in [0, {card_y})")
    return int(_decoder(tables, codebook, config)(y_seq[None])[0]) or None


def _decoder(tables: _Tables, codebook: Codebook, config: SimConfig):
    """decodes(y_rows): the bin of the unique codeword typical with each y
    row (Y, n), 0 where no codeword or several are.

    Codeword-row node tables of log p(u, y), one row per codeword over the
    y symbols of the node's coordinates, cut for a run's K * trials scores,
    are built once.  A call scores every codeword against a chunk of its
    rows at a time through the rows' codes alone, GATHER_BYTES at a time:
    per score the sums' buffers (or _typical's three floats) and two
    typicality masks, this chunk's and the last's.
    """
    size, n = codebook.sequences.shape
    sums = _row_cut(n, tables.p_uy.shape[1], size, size * config.trials)
    node = sums.tables(lambda i: tables.log_p_uy[codebook.sequences[:, i]])   # (K, widths[t])
    step = max(1, GATHER_BYTES // ((8 * max(sums.buffers, 3) + 2) * size))

    def decodes(y_rows: np.ndarray) -> np.ndarray:
        codes = sums.sequence_codes(y_rows)                                     # (G, Y)
        decoded = np.zeros(len(y_rows), dtype=np.int64)
        for lo in range(0, len(y_rows), step):
            total = sums.total(node, lambda t: codes[t, lo:lo + step])         # (K, rows)
            total /= n
            typical = _typical(total, tables.h_uy, config.epsilon_typ)
            del total                                   # before the next chunk's
            unique = np.count_nonzero(typical, axis=0) == 1
            decoded[lo:lo + step][unique] = codebook.bin_index[typical.argmax(axis=0)[unique]]
        return decoded

    return decodes


def _gather_score_bytes(sums: _NodeSums) -> int:
    """Bytes of one gathered (pair, rank) score of the selection: the sums'
    buffers (or _typical's three floats), its pick and a mask."""
    return 8 * (max(sums.buffers, 3) + 1) + 2


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
    # int32 selection and bool found, (m, S); one intp code per codeword-row
    # table, (G, m, S); one float equivocation per trial; and one posterior
    # step: its message rows of S pairs, GATHER_BYTES of them or one row
    # past that, beside GATHER_BYTES each for its tables and its gathers.
    # A selection step gathers one state's m pairs at least.  The
    # selection's own whole arrays, at most 9 bytes a pair (the picks in
    # both orders and found), are freed before the codes.
    states = config.model.card_v1 ** config.n
    cells = config.m * states
    step = max(_ROW_PAIR_BYTES * states, GATHER_BYTES,
               _gather_score_bytes(tables.row_sums) * config.m)
    need = (cells * (4 + 1 + 8 * len(tables.row_sums.nodes)) + 8 * config.trials
            + step + 2 * GATHER_BYTES)
    # the codebook's K sequences with their bins and subbins, and the
    # decoder's tables, one row per codeword; a codebook past its cap is
    # refused when it is drawn
    size = _codebook_size(config, tables.triplet.mi_uy)
    if size <= MAX_CODEBOOK:
        decoder = _row_cut(config.n, tables.p_uy.shape[1], size, size * config.trials)
        need += 8 * size * (config.n + 2 + decoder.entries)
    if need > BYTE_BUDGET:
        raise UsageError(
            f"{config.m} messages x {states} state sequences at n={config.n} "
            f"and {config.trials} trials need {need / 2 ** 20:.0f} MiB, over the "
            f"{BYTE_BUDGET // 2 ** 20} MiB budget; lower the rate, the block length "
            f"or the trials")
    return need


@dataclass(frozen=True)
class _Codes:
    """Each (message, v1 sequence) pair's pick as codes into the
    codeword-row tables of _Tables.row_sums, (G, m, S): the pick's row plus
    the row count times the sequence's state part.  The rows are the
    picked codewords, `sequences`, in codebook order."""
    sequences: np.ndarray
    codes: np.ndarray


def _selection_table(tables: _Tables, codebook: Codebook, config: SimConfig
                     ) -> tuple[np.ndarray, np.ndarray, _Codes]:
    """The encoder's choice for every (message, v1 sequence).

    Returns the (m, S) int32 codeword indices, the (m, S) mask of bins
    holding a typical member (the rest fall back to bin 1's first codeword)
    and the picks' _Codes, the posterior's input.  _first_typical finds the
    picks in the tree's digit order; they are then put in lexicographic
    order and their codes written GATHER_BYTES of picks at a time, which
    makes no whole-run temporary.
    """
    sequences = codebook.sequences
    card, m = tables.p_uv1.shape[1], codebook.bin_count
    count = card ** config.n
    sums = tables.row_sums
    node = sums.tables(lambda i: tables.log_p_uv1[sequences[:, i]])      # (K, widths[t])
    places = np.cumprod((1,) + sums.widths[:-1])
    pick, pending = _first_typical(tables, codebook, config, node, places)
    tree_of = places @ sums.state_codes(card)   # each sequence's place in the digit order
    found = np.take(pending, tree_of, axis=1)
    np.logical_not(found, out=found)
    del pending
    selection = np.take(pick, tree_of, axis=1)
    del pick                                            # before the codes
    # a step of picks, copied to intp for indexing as np.take copies them,
    # and their table rows fit GATHER_BYTES
    picks, step = selection.reshape(-1), max(1, GATHER_BYTES // 16)
    picked = np.zeros(len(sequences), dtype=bool)
    for lo in range(0, picks.size, step):
        picked[picks[lo:lo + step].astype(np.intp)] = True
    row = np.cumsum(picked) - 1                         # a picked codeword's table row
    codes = np.empty((len(node), m, count), dtype=np.intp)
    for code, place, width in zip(codes, places, sums.widths):
        # each sequence's state part, its place's digit of this node, in
        # the first message's row, then copied to the others
        np.floor_divide(tree_of, place, out=code[0])
        code[0] %= width
        code[0] *= row[-1] + 1                          # row[-1] + 1 rows in all
        code[1:] = code[0]
    del tree_of
    for lo in range(0, picks.size, step):
        rows = np.take(row, picks[lo:lo + step], mode="clip")
        for code in codes.reshape(len(node), -1):
            code[lo:lo + step] += rows
    return selection, found, _Codes(sequences[picked], codes)


def _first_typical(tables: _Tables, codebook: Codebook, config: SimConfig,
                   node: list[np.ndarray], places: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The int32 picks (m, S) and the mask of pairs still pending, with no
    typical member in their bin, in the tree's digit order: the encoder
    replayed for every (message, v1 sequence) pair from `node`, the
    codeword-row tables of log p(u, v1), whose node t holds digit
    place // places[t] % widths[t].

    Rank r scores every bin's r-th member against the pairs still pending,
    so a pair stops at its bin's first typical member, as encode does.  The
    v1 sequences are taken in the tree's digit order, in blocks of `width`
    that fit GATHER_BYTES for all m messages.  A (message, block) cell with
    at least a quarter of its pairs pending, and at least 16, is scored
    whole: one outer sum of the members' table rows, contiguous adds.  A
    thinner cell's pending pairs join a list scored by gathers; once no
    cell is scored whole, the list takes as many ranks at a time as fit.
    Scores are numpy's row sums of log p(u, v1), so the picks are encode's.
    Its own function, so the loops' last arrays are freed on return.
    """
    n, m = config.n, codebook.bin_count
    card = tables.p_uv1.shape[1]
    sums = tables.row_sums
    flat = [table.reshape(1, -1) for table in node]
    count = card ** n

    # members[j, r]: the r-th codeword of bin j + 1.  Bins one short repeat
    # their last member, which cannot hit again: a pair reaching the repeat
    # has found that member atypical already.
    sizes = np.bincount(codebook.bin_index, minlength=m + 1)[1:]
    order = np.argsort(codebook.bin_index, kind="stable")
    ends = np.cumsum(sizes)
    members = order[np.minimum(ends[:, None] - sizes[:, None] + np.arange(sizes.max()),
                               ends[:, None] - 1)]
    depth = members.shape[1]

    fallback = _fallback_codeword(codebook)
    pick = np.full((m, count), fallback, dtype=np.int32)     # in the digit order
    pending = np.ones((m, count), dtype=bool)
    score = _gather_score_bytes(sums)
    # a whole cell's pair holds its sum, the outer sum's last factor, a copy
    # of its pick and two masks
    width = 1
    while width < count and m * width * card * (3 * 8 + 2) <= GATHER_BYTES:
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
            at = np.flatnonzero(pending.reshape(-1, width)[ids])
            loose = np.concatenate([loose, ids[at // width] * width + at % width])
        if not (loose.size or whole.any()):
            break
        for block in np.flatnonzero(whole.any(axis=0)):
            rows = np.flatnonzero(whole[:, block])
            rows = slice(None) if len(rows) == m else rows
            cells = rows, slice(block * width, (block + 1) * width)
            total = sums.block([table[members[rows, rank]] for table in node],
                               block * width, width)
            total /= n
            hit = _typical(total, tables.h_uv1, config.epsilon_typ)
            del total                                   # before the next block's
            # views of the cells when every message is scored, else copies
            cell_pick, cell_pending = pick[cells], pending[cells]
            hit &= cell_pending
            left[rows, block] -= np.count_nonzero(hit, axis=1)
            np.copyto(cell_pick, members[rows, rank, None], where=hit)
            np.copyto(cell_pending, False, where=hit)
            if not isinstance(rows, slice):
                pick[cells], pending[cells] = cell_pick, cell_pending
        ranks = 1 if whole.any() else min(depth - rank,
                                          max(1, GATHER_BYTES // (score * loose.size)))
        step = max(m, GATHER_BYTES // (score * ranks))      # one state's pairs at least
        keep = np.ones(loose.size, dtype=bool)
        for lo in range(0, loose.size, step):
            pair = loose[lo:lo + step]
            message, place = np.divmod(pair, count)
            picks = members[message[:, None], np.arange(rank, rank + ranks)]
            total = sums.total(flat, lambda t: picks * sums.widths[t]
                               + (place // places[t] % sums.widths[t])[:, None])
            total /= n
            hit = _typical(total, tables.h_uv1, config.epsilon_typ)
            del total                                   # before the next step's
            got = np.flatnonzero(hit.any(axis=1))
            pick.reshape(-1)[pair[got]] = picks[got, hit[got].argmax(axis=1)]
            pending.reshape(-1)[pair[got]] = False
            keep[lo + got] = False
        loose = loose[keep]
        rank += ranks
    return pick, pending


def eavesdropper_posterior(codebook: Codebook, config: SimConfig,
                           z_seq: np.ndarray) -> Pmf:
    """Exact message posterior given the wiretap observation.

    Sums over every v1 sequence with the encoder's selection rule replayed;
    v2 and the input x are marginalized per coordinate.  The wiretapper is
    assumed to know codebook, bins, and fallback rule.
    """
    tables = _Tables(config)
    _check_enumeration(tables)
    z_seq = np.asarray(z_seq)
    if z_seq.shape != (config.n,):
        raise UsageError(f"z sequence must have length {config.n}")
    _, _, codes = _selection_table(tables, codebook, config)
    return Pmf("message", _posteriors(tables, codes, z_seq[None])[0])


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


def _posteriors(tables: _Tables, codes: _Codes, z_rows: np.ndarray) -> np.ndarray:
    """Message posteriors (Z, m) of the z rows (Z, n), from the _Codes of
    _selection_table.

    A batch of z rows gets codeword-row tables of log w(z_i | u_i, v1_i),
    one set per row.  A step then takes a block of (z row, message) rows,
    each the log-likelihoods of one message's S (message, v1 sequence)
    pairs, gathered through the codes a chunk of pairs at a time, and
    reduces each row by _log_sum_exp; rows never mix, so the step's shape
    does not change a bit of the result.  Per z row a batch holds the log
    weights its tables are built from and its tables twice over while they
    are built, per message row _ROW_PAIR_BYTES a pair and five floats.
    While a z row with all its message rows fits GATHER_BYTES, a batch
    takes as many such rows as fit, in one step.  Otherwise it takes as
    many z rows as fit with one message row each, and a step as many of
    their message rows as fit GATHER_BYTES on their own, at least one.  The
    gather buffers of a chunk, for every z row of the batch, take
    GATHER_BYTES at most.  _check_enumeration charges a step's rows, one
    row past GATHER_BYTES at most, beside GATHER_BYTES each for its tables
    and its gathers.
    """
    sums = tables.row_sums
    count, m, states = codes.codes.shape
    sequences = codes.sequences
    card = tables.log_weight.shape[2]
    columns = sequences.T[:, None, None, :], np.arange(card)[:, None]
    per_z = 8 * len(sequences) * (card * z_rows.shape[1] + 2 * sums.entries)
    per_row = _ROW_PAIR_BYTES * states + 8 * 5
    if per_z + m * per_row <= GATHER_BYTES:
        batch, messages = GATHER_BYTES // (per_z + m * per_row), m
    else:
        batch = max(1, GATHER_BYTES // (per_z + per_row))
        messages = min(m, max(1, GATHER_BYTES // (batch * per_row)))
    chunk = max(1, GATHER_BYTES // (8 * sums.buffers * batch))
    log_posts = np.empty((len(z_rows), m))
    for lo in range(0, len(z_rows), batch):
        rows = z_rows[lo:lo + batch]
        values = tables.log_weight[(rows.T[:, :, None, None],) + columns]   # (n, Z, card, K)
        node = [table.reshape(len(rows), -1) for table in sums.tables(lambda i: values[i])]
        del values
        for first in range(0, m, messages):
            step = codes.codes[:, first:first + messages].reshape(count, -1)
            loglik = np.empty((len(rows), step.shape[1]))
            for p in range(0, step.shape[1], chunk):
                loglik[:, p:p + chunk] = sums.total(node, lambda t: step[t, p:p + chunk])
            log_posts[lo:lo + len(rows), first:first + messages] = _log_sum_exp(
                loglik.reshape(-1, states)).reshape(len(rows), -1)
            del loglik                                  # before the next step's
    if not np.isfinite(log_posts).any(axis=1).all():
        raise UsageError("observed z sequence has zero probability under the model")
    shifted = np.exp(log_posts - log_posts.max(axis=1, keepdims=True))
    probs = shifted / shifted.sum(axis=1, keepdims=True)
    _check_stack(probs, (1,), "pmf 'message'")
    return probs


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
    codebook uses default_rng([seed, 0]).  Within a trial the draw order
    is: state pair sequence (random(n)), message (integers(1, m + 1)),
    then encoder input, main and wiretap channel uniforms (random((3, n))).
    Those are 4n + 1 PCG64 outputs, because m is a power of two and numpy's
    32-bit Lemire draw then takes exactly one; _trial_draws takes them for a
    whole block from the lane-wise kernel probability._pcg64_outputs, bit
    for bit.  The selection table is the encoder: trial t sends the codeword
    it lists for the trial's (message, v1 sequence).  Trials run in blocks
    of about GATHER_BYTES; only their equivocations are kept whole, for the
    mean.
    """
    tables = _Tables(config)
    _check_enumeration(tables)
    codebook = _build_codebook(config, tables)
    selection, found, codes = _selection_table(tables, codebook, config)
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
            tables, codebook, config, selection, found, lo, min(block, trials - lo))
        fallbacks += int(np.count_nonzero(fell_back))
        # decode and posterior are functions of the observation alone, so
        # each distinct y and z row of a block is evaluated once, all in one
        # batch; a failed decode reads as message 0, which is never sent
        y_rows, y_of = _distinct(y, model.card_y)
        errors += int(np.count_nonzero(decodes(y_rows)[y_of.reshape(-1)] != messages))
        del y, y_rows, y_of                             # before the posteriors' batches
        z_rows, z_of = _distinct(z, model.card_z)
        entropies = _entropy_bits_batch(_posteriors(tables, codes, z_rows))
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
                 selection: np.ndarray, found: np.ndarray, first: int, count: int
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
    sent = (messages - 1, v1 @ model.card_v1 ** np.arange(n - 1, -1, -1))
    u = codebook.sequences[selection[sent]]
    x = _sample(tables.x_dist[u, v1], draws[:, 1])
    y = _sample(model.main_kernel.table[x, v1], draws[:, 2])
    z = _sample(model.wiretap_kernel.table[x, v2], draws[:, 3])
    return messages, ~found[sent], y, z
