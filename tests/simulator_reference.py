"""The binning simulator one trial at a time, as it stood before streaming.

``reference_run_experiment`` encodes each trial with the per-bin scan of
``_encode``, gathers the whole K x S x n typicality tensor at once in
``reference_selection_table``, and takes each posterior from an (m, S, n)
array of selected codewords.  The tests require the streamed simulator to
reproduce these reports byte for byte and these tables element for element.
"""

import math

import numpy as np

from wiretapsi import UsageError
from wiretapsi.discrete import rate_triplet
from wiretapsi.probability import Pmf, _entropy_bits
from wiretapsi.simulator import (SimulationReport, _build_codebook,
                                 _check_enumeration, _decode, _encode,
                                 _fallback_codeword, _log_sum_exp,
                                 _state_sequences, _Tables, _wilson)


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


def reference_posterior(tables, config, v1_all, u_selected, z_seq):
    if z_seq.shape != (config.n,):
        raise UsageError(f"z sequence must have length {config.n}")
    coords = np.arange(config.n)
    per_coord = tables.log_weight[z_seq]
    loglik = per_coord[coords[None, None, :], u_selected,
                       v1_all[None, :, :]].sum(axis=2)
    log_posts = _log_sum_exp(loglik)
    if not np.isfinite(log_posts).any():
        raise UsageError("observed z sequence has zero probability under the model")
    shifted = np.exp(log_posts - log_posts.max())
    return Pmf("message", shifted / shifted.sum())


def reference_run_experiment(config):
    tables = _Tables(config)
    _check_enumeration(config)
    codebook = _build_codebook(config, tables)
    v1_all = _state_sequences(config.model.card_v1, config.n)
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

        decoded = _decode(tables, codebook, config, y_seq)
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
