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
BYTE_BUDGET, bounds what a run holds whole: the (m, S) selection and found
tables and the (m, S, n) posterior codes (m messages, S = |V1|^N state
sequences).  It is checked before anything is allocated; a run over it is
refused with a UsageError.  Everything else is streamed in steps that gather
at most about GATHER_BYTES, trials included; beyond the budget, a run keeps
one float per trial, the equivocations whose mean it reports.

_selection_table replays the encoder for every (message, v1 sequence) pair,
a chunk of v1 sequences at a time, each pair stopping at its bin's first
typical member.  That table is the encoder: each trial draws its states,
message and uniforms from its own generator and sends the listed codeword.
Decode and posterior then run once per distinct observation of a block.
The posterior of an observation z gathers log w(z_i | u_i, v1_i) through
the precomputed codes and sums it per pair.  The public encode keeps its own
per-bin scan; it is the second path that validate's brute-force posterior
and the tests compare the table against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .discrete import (AuxiliaryPolicy, DiscreteWiretapModel, RateTriplet,
                       _check_policy_bound, _policy_card_check, rate_triplet)
from .errors import InfeasibleRateError, UsageError
from .probability import Pmf, _entropy_bits, compose

MAX_BLOCK_LENGTH = 16
MAX_STATE_PRODUCT = 4
MAX_CODEBOOK = 2 ** 20
MAX_STATE_ENUM_BITS = 20.0
BYTE_BUDGET = 2 ** 30     # selection, found and codes, held whole for a run
GATHER_BYTES = 2 ** 22    # log-probabilities gathered per selection or posterior step
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
        if self.m < 2:
            raise UsageError(
                f"rate {self.rate} at n={self.n} gives {self.m} message(s); need at least 2")
        if self.seed < 0:
            raise UsageError("seed must be a nonnegative integer")
        _check_policy_bound(self.model, self.policy)
        _policy_card_check(self.model, self.policy)

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
        joint = compose(model.state_pmf, policy.table,
                        model.main_kernel, model.wiretap_kernel)
        t = joint.table  # axes (u, x, v1, v2, y, z)
        self.p_u = t.sum(axis=(1, 2, 3, 4, 5))
        self.p_uv1 = t.sum(axis=(1, 3, 4, 5))
        self.p_uy = t.sum(axis=(1, 2, 3, 5))
        p_uz = t.sum(axis=(1, 2, 3, 4))
        self.h_uv1 = _entropy_bits(self.p_uv1)
        self.h_uy = _entropy_bits(self.p_uy)
        h_u = _entropy_bits(self.p_u)
        self.mi_uy = h_u + _entropy_bits(t.sum(axis=(0, 1, 2, 3, 5))) - self.h_uy
        self.mi_uz = h_u + _entropy_bits(p_uz.sum(axis=0)) - _entropy_bits(p_uz)

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


def _typical(log_p: np.ndarray, entropy: float, epsilon: float) -> np.ndarray:
    """Weak typicality of each row of log_p (..., N), the log2-probabilities
    of a sequence pair: the row's empirical entropy, minus its mean, lies
    within epsilon of the true entropy."""
    return np.abs(-log_p.mean(axis=-1) - entropy) <= epsilon


def _sample(probs: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Inverse-CDF symbol per row of probs (..., card) from uniform draws (...)."""
    return (probs.cumsum(axis=-1) < draws[..., None]).sum(axis=-1)


def build_codebook(config: SimConfig) -> Codebook:
    tables = _Tables(config)
    return _build_codebook(config, tables)


def _build_codebook(config: SimConfig, tables: _Tables) -> Codebook:
    exponent = config.n * (tables.mi_uy - config.epsilon_typ)
    if exponent <= 0:
        raise InfeasibleRateError(
            f"codebook exponent n*(I(u;y) - epsilon) = {exponent:.6g} is not positive")
    size = math.ceil(2.0 ** exponent)
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
    capacity = max(1, math.ceil(2.0 ** (config.n * (tables.mi_uz - config.epsilon_typ))))
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
    typical = _typical(tables.log_p_uv1[codebook.sequences[members], v1_seq],
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
    return _decode(_Tables(config), codebook, config, y_seq)


def _decode(tables: _Tables, codebook: Codebook, config: SimConfig,
            y_seq: np.ndarray) -> Optional[int]:
    y_seq = np.asarray(y_seq)
    if y_seq.shape != (config.n,):
        raise UsageError(f"y sequence must have length {config.n}")
    typical = _typical(tables.log_p_uy[codebook.sequences, y_seq],
                       tables.h_uy, config.epsilon_typ)
    hits = np.flatnonzero(typical)
    if hits.size != 1:
        return None
    return int(codebook.bin_index[hits[0]])


def _state_sequences(card: int, n: int) -> np.ndarray:
    """All card^n sequences, lexicographic, as an (S, n) array."""
    count = card ** n
    powers = card ** np.arange(n - 1, -1, -1)
    return (np.arange(count)[:, None] // powers[None, :]) % card


def _check_enumeration(config: SimConfig) -> None:
    """Refuse, before any allocation, a run whose state enumeration breaks
    the 2^20 cap or whose whole-run tables break BYTE_BUDGET."""
    product = config.model.card_v1 * config.model.card_v2
    if config.n * math.log2(product) > MAX_STATE_ENUM_BITS + 1e-9:
        raise UsageError(
            f"state enumeration needs n*log2(|v1||v2|) <= {MAX_STATE_ENUM_BITS}, "
            f"got {config.n * math.log2(product):.3f}")
    # int64 selection and bool found, (m, S); intp codes, (m, S, n)
    cells = config.m * config.model.card_v1 ** config.n
    need = cells * (8 + 1 + 8 * config.n)
    if need > BYTE_BUDGET:
        raise UsageError(
            f"{config.m} messages x {cells // config.m} state sequences at n={config.n} "
            f"need {need / 2 ** 20:.0f} MiB, over the {BYTE_BUDGET // 2 ** 20} MiB "
            f"budget; lower the rate or the block length")


def _selection_table(tables: _Tables, codebook: Codebook, config: SimConfig,
                     v1_all: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The encoder's choice for every (message, v1 sequence).

    Returns the (m, S) codeword indices, the (m, S) mask of bins holding a
    typical member (the rest fall back to bin 1's first codeword) and the
    (m, S, n) posterior codes (i*|u| + u_i)*|v1| + v1_i of each pick.

    The v1 sequences are streamed in chunks.  Within a chunk every bin is
    scanned in index order, a window of ranks at a time, and a (bin,
    sequence) pair leaves the scan at its first typical member, so a scan
    costs what encode's stopping rule needs rather than the whole bin.
    A window gathers log p(u, v1) for the pending pairs alone, about
    GATHER_BYTES at a time, and scores rows with encode's _typical, so the
    picks are encode's.
    """
    sequences = codebook.sequences
    size, n = sequences.shape
    card_u, card_v1 = tables.p_uv1.shape
    count = v1_all.shape[0]
    m = codebook.bin_count
    width = n * card_u
    row_bytes = n * 8

    # members[j, r]: the r-th codeword of bin j + 1.  Bins one short repeat
    # their last member, which cannot hit again: a pair reaching the repeat
    # has found that member atypical already.
    sizes = np.bincount(codebook.bin_index, minlength=m + 1)[1:]
    order = np.argsort(codebook.bin_index, kind="stable")
    ends = np.cumsum(sizes)
    members = order[np.minimum(ends[:, None] - sizes[:, None] + np.arange(sizes.max()),
                               ends[:, None] - 1)]
    columns = np.arange(n) * card_u + sequences     # (K, n): where u_i sits in a row
    per_state = tables.log_p_uv1.T                   # (v1, u)

    selection = np.full((m, count), _fallback_codeword(codebook), dtype=np.int64)
    found = np.zeros((m, count), dtype=bool)
    chunk = max(1, GATHER_BYTES // (m * row_bytes))
    for lo in range(0, count, chunk):
        table = per_state[v1_all[lo:lo + chunk]].reshape(-1, width)   # (chunk, n|u|)
        bins, states = np.divmod(np.arange(m * len(table)), len(table))
        rank = 0
        while bins.size:
            window = members[:, rank:rank + max(1, GATHER_BYTES // (bins.size * row_bytes))]
            flat = columns[window[bins]]                     # (pending, w, n)
            flat += (states * width)[:, None, None]
            typical = _typical(np.take(table, flat), tables.h_uv1, config.epsilon_typ)
            hit = typical.any(axis=1)
            picked = (bins[hit], lo + states[hit])
            selection[picked] = window[bins[hit], typical[hit].argmax(axis=1)]
            found[picked] = True
            rank += window.shape[1]
            keep = ~hit & (rank < sizes[bins])
            bins, states = bins[keep], states[keep]

    codes = (columns * card_v1)[selection]
    codes += v1_all
    return selection, found, codes


def eavesdropper_posterior(codebook: Codebook, config: SimConfig,
                           z_seq: np.ndarray) -> Pmf:
    """Exact message posterior given the wiretap observation.

    Sums over every v1 sequence with the encoder's selection rule replayed;
    v2 and the input x are marginalized per coordinate.  The wiretapper is
    assumed to know codebook, bins, and fallback rule.
    """
    _check_enumeration(config)
    z_seq = np.asarray(z_seq)
    if z_seq.shape != (config.n,):
        raise UsageError(f"z sequence must have length {config.n}")
    tables = _Tables(config)
    v1_all = _state_sequences(config.model.card_v1, config.n)
    _, _, codes = _selection_table(tables, codebook, config, v1_all)
    return _posterior(tables, codes, z_seq)


def _log_sum_exp(rows: np.ndarray) -> np.ndarray:
    """log(sum(exp(row))) per row; -inf for a row with no finite entry.

    Each row is shifted by its maximum; the entries at the maximum are
    counted and the rest enter through log1p, which keeps precision when
    one entry dominates.
    """
    out = np.full(len(rows), -np.inf)
    live = np.isfinite(rows).any(axis=1)
    rows = rows[live]
    peak = rows.max(axis=1, keepdims=True)
    at_peak = rows == peak
    rest = np.exp(np.where(at_peak, -np.inf, rows) - peak).sum(axis=1, keepdims=True)
    count = at_peak.sum(axis=1, keepdims=True)
    out[live] = (np.log1p(rest / count) + np.log(count) + peak)[:, 0]
    return out


def _posterior(tables: _Tables, codes: np.ndarray, z_seq: np.ndarray) -> Pmf:
    """Message posterior from the (m, S, n) codes of _selection_table: the
    log-likelihood of each (message, v1 sequence) sums log w(z_i | u_i, v1_i)
    over the coordinates, gathered GATHER_BYTES at a time."""
    weights = tables.log_weight[z_seq].ravel()
    rows = codes.reshape(-1, codes.shape[2])
    step = max(1, GATHER_BYTES // (8 * codes.shape[2]))
    gathered = np.empty((min(step, len(rows)), codes.shape[2]))
    loglik = np.empty(len(rows))
    for lo in range(0, len(rows), step):
        block = rows[lo:lo + step]
        part = gathered[:len(block)]
        # every code is a valid index, so "clip" never clips; it lets take
        # write straight into the buffer
        np.take(weights, block, out=part, mode="clip")
        part.sum(axis=1, out=loglik[lo:lo + len(block)])
    log_posts = _log_sum_exp(loglik.reshape(codes.shape[:2]))
    if not np.isfinite(log_posts).any():
        raise UsageError("observed z sequence has zero probability under the model")
    shifted = np.exp(log_posts - log_posts.max())
    return Pmf("message", shifted / shifted.sum())


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
        return {
            "pe": self.pe,
            "pe_ci95": list(self.pe_ci95),
            "d": self.d,
            "trials": self.trials,
            "n": self.n,
            "m": self.m,
            "rate": self.rate,
            "theoretical": {
                "r_u1": self.theoretical.r_u1,
                "r_u2": self.theoretical.r_u2,
                "d_u2": self.theoretical.d_u2,
                "mi_uy": self.theoretical.mi_uy,
                "mi_uv": self.theoretical.mi_uv,
                "mi_uz": self.theoretical.mi_uz,
            },
            "fallback_rate": self.fallback_rate,
            "equivocation_min": self.equivocation_min,
            "equivocation_max": self.equivocation_max,
            "seed": self.seed,
        }


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

    Trial t uses its own generator seeded by (seed, 1, t); the codebook uses
    (seed, 0).  Within a trial the draw order is: state pair sequence,
    message, encoder input sampling, then channel outputs.  The selection
    table is the encoder: trial t sends the codeword it lists for the
    trial's (message, v1 sequence).  Trials run in blocks of about
    GATHER_BYTES; only their equivocations are kept whole, for the mean.
    """
    _check_enumeration(config)
    tables = _Tables(config)
    codebook = _build_codebook(config, tables)
    v1_all = _state_sequences(config.model.card_v1, config.n)
    selection, found, codes = _selection_table(tables, codebook, config, v1_all)

    model = config.model
    n, trials = config.n, config.trials
    log_m = math.log2(config.m)
    # per trial: n-long rows of states, uniforms, v1, v2, u, x, y and z, and
    # the (n, card) probabilities and sums that _sample builds
    card = max(model.card_x, model.card_y, model.card_z)
    block = max(1, GATHER_BYTES // (8 * n * (10 + 2 * card)))
    errors = fallbacks = 0
    equivocations = np.empty(trials)
    for lo in range(0, trials, block):
        messages, fell_back, y, z = _trial_block(
            tables, codebook, config, selection, found, lo, min(block, trials - lo))
        fallbacks += int(np.count_nonzero(fell_back))
        # decode and posterior are functions of the observation alone, so
        # each distinct y and z row of a block is evaluated once; a failed
        # decode (None) reads as message 0, which is never sent
        y_rows, y_of = np.unique(y, axis=0, return_inverse=True)
        decoded = np.array([_decode(tables, codebook, config, row) or 0 for row in y_rows])
        errors += int(np.count_nonzero(decoded[y_of.reshape(-1)] != messages))
        z_rows, z_of = np.unique(z, axis=0, return_inverse=True)
        entropies = np.array([_entropy_bits(_posterior(tables, codes, row).probs)
                              for row in z_rows])
        equivocations[lo:lo + len(messages)] = entropies[z_of.reshape(-1)] / log_m

    return SimulationReport(
        pe=errors / trials,
        pe_ci95=_wilson(errors, trials),
        d=float(equivocations.mean()),
        trials=trials,
        n=n,
        m=config.m,
        rate=config.rate,
        theoretical=rate_triplet(config.model, config.policy),
        fallback_rate=fallbacks / trials,
        equivocation_min=float(equivocations.min()),
        equivocation_max=float(equivocations.max()),
        seed=config.seed,
    )


def _trial_block(tables: _Tables, codebook: Codebook, config: SimConfig,
                 selection: np.ndarray, found: np.ndarray, first: int, count: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Trials first .. first + count - 1: their messages, fallback flags and
    (count, n) channel outputs y and z."""
    model = config.model
    n = config.n
    state_flat = model.state_pmf.table.reshape(-1)
    state_flat = state_flat / state_flat.sum()
    pairs = np.empty((count, n), dtype=np.int64)
    messages = np.empty(count, dtype=np.int64)
    draws = np.empty((count, 3, n))                   # x, y, z in turn
    for k in range(count):
        rng = np.random.default_rng([config.seed, 1, first + k])
        pairs[k] = rng.choice(state_flat.size, size=n, p=state_flat)
        messages[k] = rng.integers(1, config.m + 1)
        draws[k] = rng.random((3, n))

    v1, v2 = np.divmod(pairs, model.card_v2)
    sent = (messages - 1, v1 @ model.card_v1 ** np.arange(n - 1, -1, -1))
    u = codebook.sequences[selection[sent]]
    x = _sample(tables.x_dist[u, v1], draws[:, 0])
    y = _sample(model.main_kernel.table[x, v1], draws[:, 1])
    z = _sample(model.wiretap_kernel.table[x, v2], draws[:, 2])
    return messages, ~found[sent], y, z
