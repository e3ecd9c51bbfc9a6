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
enumeration |V1|^N * |V2|^N <= 2^20.
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


def _typicality(log_table: np.ndarray, entropy: float, epsilon: float,
                rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Mask of sequences whose empirical log-score sits within epsilon of
    the target entropy; rows (K, N) symbols, cols (N,) partner symbols."""
    scores = -log_table[rows, cols[None, :]].mean(axis=1)
    return np.abs(scores - entropy) <= epsilon


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
    typical = _typicality(tables.log_p_uv1, tables.h_uv1, config.epsilon_typ,
                          codebook.sequences[members], v1_seq)
    hits = np.flatnonzero(typical)
    if hits.size:
        chosen, fallback = int(members[hits[0]]), False
    else:
        chosen, fallback = _fallback_codeword(codebook), True

    u_seq = codebook.sequences[chosen]
    probs = tables.x_dist[u_seq, v1_seq]           # (n, card_x)
    draws = rng.random((config.n, 1))
    x_seq = (probs.cumsum(axis=1) < draws).sum(axis=1)
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
    typical = _typicality(tables.log_p_uy, tables.h_uy, config.epsilon_typ,
                          codebook.sequences, y_seq)
    hits = np.flatnonzero(typical)
    if hits.size != 1:
        return None
    return int(codebook.bin_index[hits[0]])


def _state_sequences(card: int, n: int) -> np.ndarray:
    """All card^n sequences, lexicographic, as an (S, n) array."""
    count = card ** n
    powers = card ** np.arange(n - 1, -1, -1)
    return (np.arange(count)[:, None] // powers[None, :]) % card


def _selection_table(tables: _Tables, codebook: Codebook, config: SimConfig,
                     v1_all: np.ndarray) -> np.ndarray:
    """Codeword index the encoder would pick for every (message, v1-sequence).

    This replays the encoder's deterministic selection rule, fallback
    included, so the posterior conditions on exactly the transmitted law.
    """
    size = codebook.sequences.shape[0]
    count = v1_all.shape[0]
    fallback = _fallback_codeword(codebook)
    selection = np.full((codebook.bin_count, count), fallback, dtype=np.int64)

    # scores (K, S): one pass, then per-bin first-typical lookup
    log_p = tables.log_p_uv1[codebook.sequences[:, None, :], v1_all[None, :, :]]
    typical = np.abs(-log_p.mean(axis=2) - tables.h_uv1) <= config.epsilon_typ
    for j in range(1, codebook.bin_count + 1):
        members = np.flatnonzero(codebook.bin_index == j)
        mask = typical[members]                       # (bin size, S)
        found = mask.any(axis=0)
        first = mask.argmax(axis=0)
        selection[j - 1, found] = members[first[found]]
    return selection


def eavesdropper_posterior(codebook: Codebook, config: SimConfig,
                           z_seq: np.ndarray) -> Pmf:
    """Exact message posterior given the wiretap observation.

    Sums over every v1 sequence with the encoder's selection rule replayed;
    v2 and the input x are marginalized per coordinate.  The wiretapper is
    assumed to know codebook, bins, and fallback rule.
    """
    tables = _Tables(config)
    _check_enum_cap(config)
    v1_all = _state_sequences(config.model.card_v1, config.n)
    selection = _selection_table(tables, codebook, config, v1_all)
    u_selected = codebook.sequences[selection]
    return _posterior(tables, config, v1_all, u_selected, np.asarray(z_seq))


def _check_enum_cap(config: SimConfig) -> None:
    product = config.model.card_v1 * config.model.card_v2
    if config.n * math.log2(product) > MAX_STATE_ENUM_BITS + 1e-9:
        raise UsageError(
            f"state enumeration needs n*log2(|v1||v2|) <= {MAX_STATE_ENUM_BITS}, "
            f"got {config.n * math.log2(product):.3f}")


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


def _posterior(tables: _Tables, config: SimConfig, v1_all: np.ndarray,
               u_selected: np.ndarray, z_seq: np.ndarray) -> Pmf:
    if z_seq.shape != (config.n,):
        raise UsageError(f"z sequence must have length {config.n}")
    coords = np.arange(config.n)
    per_coord = tables.log_weight[z_seq]              # (n, card_u, card_v1)
    loglik = per_coord[coords[None, None, :], u_selected,
                       v1_all[None, :, :]].sum(axis=2)
    log_posts = _log_sum_exp(loglik)
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
    message, encoder input sampling, then channel outputs.
    """
    tables = _Tables(config)
    _check_enum_cap(config)
    codebook = _build_codebook(config, tables)
    v1_all = _state_sequences(config.model.card_v1, config.n)
    selection = _selection_table(tables, codebook, config, v1_all)
    u_selected = codebook.sequences[selection]

    model = config.model
    state_flat = model.state_pmf.table.reshape(-1)
    state_flat = state_flat / state_flat.sum()
    cv2 = model.card_v2
    main = model.main_kernel.table     # (x, v1, y)
    tap = model.wiretap_kernel.table   # (x, v2, z)
    log_m = math.log2(config.m)

    errors = 0
    fallbacks = 0
    equivocations = np.empty(config.trials)
    for trial in range(config.trials):
        rng = np.random.default_rng([config.seed, 1, trial])
        pair = rng.choice(state_flat.size, size=config.n, p=state_flat)
        v1_seq, v2_seq = pair // cv2, pair % cv2
        message = int(rng.integers(1, config.m + 1))
        u_seq, x_seq, fell_back = _encode(tables, codebook, config, message,
                                          v1_seq, rng)
        fallbacks += fell_back

        y_probs = main[x_seq, v1_seq]
        y_seq = (y_probs.cumsum(axis=1) < rng.random((config.n, 1))).sum(axis=1)
        z_probs = tap[x_seq, v2_seq]
        z_seq = (z_probs.cumsum(axis=1) < rng.random((config.n, 1))).sum(axis=1)

        decoded = _decode(tables, codebook, config, y_seq)
        errors += decoded != message
        posterior = _posterior(tables, config, v1_all, u_selected, z_seq)
        equivocations[trial] = _entropy_bits(posterior.probs) / log_m

    return SimulationReport(
        pe=errors / config.trials,
        pe_ci95=_wilson(errors, config.trials),
        d=float(equivocations.mean()),
        trials=config.trials,
        n=config.n,
        m=config.m,
        rate=config.rate,
        theoretical=rate_triplet(config.model, config.policy),
        fallback_rate=fallbacks / config.trials,
        equivocation_min=float(equivocations.min()),
        equivocation_max=float(equivocations.max()),
        seed=config.seed,
    )
