"""The binning simulator one trial at a time, as it stood before streaming.

``reference_run_experiment`` encodes each trial with the per-bin scan of
``_encode``, gathers the whole K x S x n typicality tensor at once in
``reference_selection_table``, takes each pair's rank in its bin by
``_encode``'s own scan in ``reference_ranks``, decodes each y from a K x n
gather in ``reference_decode``, and takes each posterior from an (m, S, n)
array of selected codewords in ``reference_posterior``, a pair at a time in
array form: the probability-domain definition the simulator's posterior
follows.
``reference_log_posterior`` is the log-domain posterior that came before
it, each pair's n log weights summed by numpy and each message reduced by
``reference_log_sum_exp``.  Each trial draws from its own ``default_rng``.
The tests require the streamed simulator to reproduce these reports byte
for byte and these tables element for element.
"""

import math

import numpy as np

from wiretapsi import UsageError
from wiretapsi.discrete import rate_triplet
from wiretapsi.probability import Pmf, _entropy_bits
from wiretapsi.simulator import (SimulationReport, _build_codebook,
                                 _check_enumeration, _encode,
                                 _fallback_codeword, _Tables, _typical,
                                 _wilson)


def state_sequences(card, n):
    """All card^n sequences, lexicographic, as an (S, n) array."""
    count = card ** n
    powers = card ** np.arange(n - 1, -1, -1)
    return (np.arange(count)[:, None] // powers[None, :]) % card


def reference_selection_table(tables, codebook, config, v1_all):
    """Codeword index the encoder picks for every (message, v1-sequence),
    with the (m, S) mask of bins that hold a typical member."""
    fallback = _fallback_codeword(codebook)
    selection = np.full((codebook.bin_count, v1_all.shape[0]), fallback, dtype=np.int64)
    found_all = np.zeros(selection.shape, dtype=bool)
    log_p = tables.log_p_uv1[codebook.sequences[:, None, :], v1_all[None, :, :]]
    typical = np.abs(-log_p.mean(axis=2) - tables.h_uv1) <= config.epsilon_typ
    for j in range(1, codebook.bin_count + 1):
        members = np.flatnonzero(codebook.bin_index == j)
        mask = typical[members]
        found = mask.any(axis=0)
        first = mask.argmax(axis=0)
        selection[j - 1, found] = members[first[found]]
        found_all[j - 1] = found
    return selection, found_all


def reference_ranks(tables, codebook, config, v1_all):
    """Each (message, v1-sequence) pair's rank in its bin, the position of
    its first typical member, by _encode's per-bin scan: the mean of the
    member's log2 p(u, v1) through _typical, each bin's members in codebook
    order.  The largest bin's size stands for a bin with no typical member."""
    depth = int(np.bincount(codebook.bin_index)[1:].max())
    ranks = np.full((codebook.bin_count, len(v1_all)), depth, dtype=np.int64)
    for j in range(1, codebook.bin_count + 1):
        members = codebook.sequences[codebook.bin_index == j]
        log_p = tables.log_p_uv1[members[:, None, :], v1_all[None, :, :]]
        typical = _typical(log_p.mean(axis=-1), tables.h_uv1, config.epsilon_typ)
        found = typical.any(axis=0)
        ranks[j - 1, found] = typical.argmax(axis=0)[found]
    return ranks


def reference_decode(tables, codebook, config, y_seq):
    """Bin of the unique codeword typical with y_seq, or None."""
    log_p = tables.log_p_uy[codebook.sequences, y_seq]
    hits = np.flatnonzero(np.abs(-log_p.mean(axis=1) - tables.h_uy) <= config.epsilon_typ)
    if hits.size != 1:
        return None
    return int(codebook.bin_index[hits[0]])


def reference_log_sum_exp(rows):
    """log(sum(exp(row))) per row of finite or -inf entries, -inf for a row
    with no finite entry: the peaks masked to -inf, the rest shifted by the
    peak and exponentiated, summed through log1p over the peak count."""
    out = np.full(len(rows), -np.inf)
    peak = rows.max(axis=1, keepdims=True)
    live = np.isfinite(peak[:, 0])
    if not live.all():
        rows, peak = rows[live], peak[live]
    at_peak = rows == peak
    rest = np.where(at_peak, -np.inf, rows)
    rest -= peak
    np.exp(rest, out=rest)
    total = rest.sum(axis=1, keepdims=True)
    count = at_peak.sum(axis=1, keepdims=True)
    out[live] = (np.log1p(total / count) + np.log(count) + peak)[:, 0]
    return out


def reference_log_posterior(tables, config, v1_all, u_selected, z_seq):
    """Each pair's log-likelihood as numpy's sum of its n log weights, each
    message's by reference_log_sum_exp, shifted by the largest and
    normalized."""
    if z_seq.shape != (config.n,):
        raise UsageError(f"z sequence must have length {config.n}")
    coords = np.arange(config.n)
    per_coord = tables.log_weight[z_seq]
    loglik = per_coord[coords[None, None, :], u_selected,
                       v1_all[None, :, :]].sum(axis=2)
    log_posts = reference_log_sum_exp(loglik)
    if not np.isfinite(log_posts).any():
        raise UsageError("observed z sequence has zero probability under the model")
    shifted = np.exp(log_posts - log_posts.max())
    return Pmf("message", shifted / shifted.sum())


def reference_posterior(tables, config, v1_all, u_selected, z_seq):
    """The posterior in the probability domain.  Per group of coordinates
    (tables.groups), each pair's normalized log weights (tables.tap_log_weight)
    are summed left to right; each pair's product of the groups'
    exponentials, left to right; each message's S products summed as one
    contiguous row in lexicographic v1 order; the totals divided by their
    largest, then by their sum.  A z sequence whose largest total is below
    2^-900 is scored from the same group sums in the log domain instead."""
    if z_seq.shape != (config.n,):
        raise UsageError(f"z sequence must have length {config.n}")
    # (n, m, S): coordinate i's factor for every (message, v1 sequence) pair
    terms = tables.tap_log_weight[z_seq[:, None, None], np.moveaxis(u_selected, 2, 0),
                                  v1_all.T[:, None, :]]
    sums = []
    for first, last in tables.groups:
        total = terms[first]
        for i in range(first + 1, last):
            total = total + terms[i]
        sums.append(total)
    product = np.exp(sums[0])
    for total in sums[1:]:
        product = product * np.exp(total)
    totals = np.array([row.sum() for row in product])
    if totals.max() >= 2.0 ** -900:
        scaled = totals / totals.max()
        return Pmf("message", scaled / scaled.sum())
    loglik = sums[0]
    for total in sums[1:]:
        loglik = loglik + total
    log_posts = reference_log_sum_exp(loglik)
    if not np.isfinite(log_posts).any():
        raise UsageError("observed z sequence has zero probability under the model")
    shifted = np.exp(log_posts - log_posts.max())
    return Pmf("message", shifted / shifted.sum())


def reference_run_experiment(config):
    tables = _Tables(config)
    _check_enumeration(tables)
    codebook = _build_codebook(config, tables)
    v1_all = state_sequences(config.model.card_v1, config.n)
    selection, _ = reference_selection_table(tables, codebook, config, v1_all)
    u_selected = codebook.sequences[selection]

    model = config.model
    state_flat = model.state_pmf.table.reshape(-1)
    state_flat = state_flat / state_flat.sum()
    cv2 = model.card_v2
    main = model.main_kernel.table
    tap = model.wiretap_kernel.table
    log_m = math.log2(config.m)

    errors = 0
    fallbacks = 0
    equivocations = np.empty(config.trials)
    for trial in range(config.trials):
        rng = np.random.default_rng([config.seed, 1, trial])
        pair = rng.choice(state_flat.size, size=config.n, p=state_flat)
        v1_seq, v2_seq = pair // cv2, pair % cv2
        message = int(rng.integers(1, config.m + 1))
        _, x_seq, fell_back = _encode(tables, codebook, config, message, v1_seq, rng)
        fallbacks += fell_back

        y_probs = main[x_seq, v1_seq]
        y_seq = (y_probs.cumsum(axis=1) < rng.random((config.n, 1))).sum(axis=1)
        z_probs = tap[x_seq, v2_seq]
        z_seq = (z_probs.cumsum(axis=1) < rng.random((config.n, 1))).sum(axis=1)

        decoded = reference_decode(tables, codebook, config, y_seq)
        errors += decoded != message
        posterior = reference_posterior(tables, config, v1_all, u_selected, z_seq)
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
