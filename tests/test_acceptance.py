"""End-to-end acceptance gate.

Each test prints a single [PASS]/[FAIL] line with measured numbers and wall
time, then asserts.  Budgets are generous; the point is that the whole gate
stays desk-scale.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from wiretapsi import (
    SearchConfig,
    SimConfig,
    alpha_star,
    build_codebook,
    case1_thresholds,
    case2_thresholds,
    eavesdropper_posterior,
    leakage,
    leakage_roots,
    main_channel_capacity,
    r_alpha,
    run_experiment,
    search_summary,
    secrecy_rate,
)
from wiretapsi.cli import main as cli_main
from wiretapsi.gaussian import (
    GaussianWiretapParams,
    case1_params,
    leakage_curve,
    mi_stack,
    mi_uv12,
    mi_uy,
    mi_uz,
)
from wiretapsi.modelio import model_to_dict, policy_to_dict
from wiretapsi.reference import (
    blind_wiretap_model,
    constant_wiretap_instance,
    degraded_bsc_pair,
    mirrored_wiretap_model,
    trend_instance,
    uniform_input_policy,
)
from wiretapsi.validate import run_suites

from conftest import (
    brute_force_posterior,
    make_correlated_sim_instance,
    random_small_model,
)


def verdict(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, detail


def h2(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def test_criterion_1_closed_forms_match_oracle_on_grid(capsys):
    start = time.perf_counter()
    grid = itertools.product(
        (0.5, 1.0, 2.0, 3.0),          # p
        (0.4, 1.2, 2.0),               # q1
        (0.7, 1.5),                    # q2
        (0.5, 1.1),                    # n1
        (0.8, 1.6),                    # n2
        (-0.35, 0.0, 0.3),             # rho_xv1
        (-0.25, 0.0, 0.2),             # rho_xv2
        (-0.5, 0.0, 0.55),             # rho_v1v2
    )
    alphas = np.arange(-2.0, 2.01, 0.25)
    worst = 0.0
    points = 0
    for p, q1, q2, n1, n2, r1, r2, r12 in grid:
        det = 1.0 - r1 * r1 - r2 * r2 - r12 * r12 + 2.0 * r1 * r2 * r12
        if det <= 1e-6:
            continue
        params = GaussianWiretapParams(p, q1, q2, n1, n2, r1, r2, r12)
        points += 1
        oracle = mi_stack(params, alphas, ("y",), ("v1", "v2"), ("z",))
        for alpha, uy, uv, uz in zip(alphas, *oracle):
            gaps = (
                abs(mi_uy(params, alpha) - uy),
                abs(mi_uv12(params, alpha) - uv),
                abs(mi_uz(params, alpha) - uz),
            )
            worst = max(worst, *gaps)
    report = run_suites(seed=0)
    elapsed = time.perf_counter() - start
    ok = (points >= 2000 and worst < 1e-9 and elapsed < 10.0
          and len(report.discrepancies) > 0)
    verdict(capsys, 1,
            ok, f"{points} parameter points x {len(alphas)} alphas, "
                f"max closed-form/oracle gap {worst:.2e}, "
                f"{len(report.discrepancies)} discrepancy records emitted "
                f"({elapsed:.1f}s)")


def test_criterion_2_interference_cancellation_rate(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        p = float(rng.uniform(0.3, 3.0))
        q = float(rng.uniform(0.1, 2.5))
        n1 = float(rng.uniform(0.2, 2.0))
        params = case1_params(p, q, n1, 1.0)
        got = r_alpha(params, p / (p + n1))
        worst = max(worst, abs(got - 0.5 * math.log2((p + n1) / n1)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 1.0
    verdict(capsys, 2,
            ok, f"100 random triples, max rate gap at the cancelling "
                f"coefficient {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_3_leakage_geometry(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_root = worst_argmax = 0.0
    min_at_zero = math.inf
    for _ in range(100):
        p = float(rng.uniform(0.3, 3.0))
        q = float(rng.uniform(0.1, 2.5))
        n1 = float(rng.uniform(0.2, 2.0))
        n2 = float(rng.uniform(0.2, 2.0))
        params = case1_params(p, q, n1, n2)
        min_at_zero = min(min_at_zero, leakage(params, 0.0))
        star = alpha_star(params)
        neg, pos = leakage_roots(params)
        assert neg < star < pos
        worst_root = max(worst_root, abs(leakage(params, neg)),
                         abs(leakage(params, pos)))
        # offset by half a step so the maximizer is never a grid point
        window = np.arange(star - 0.2505, star + 0.25, 1e-3)
        curve = leakage_curve(params, window)
        worst_argmax = max(worst_argmax, abs(window[int(np.argmax(curve))] - star))
    elapsed = time.perf_counter() - start
    ok = (min_at_zero > 0.0 and worst_root < 1e-8 and worst_argmax <= 1e-3
          and elapsed < 30.0)
    verdict(capsys, 3,
            ok, f"100 correlated-state parameter sets: min leakage at zero "
                f"{min_at_zero:.3f}, max |leakage(root)| {worst_root:.1e}, "
                f"max grid-argmax gap {worst_argmax:.1e} ({elapsed:.1f}s)")


def test_criterion_4_power_thresholds(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    checked = skipped = 0
    ordered = True
    for _ in range(1000):
        q = float(rng.uniform(0.05, 3.0))
        n1 = float(rng.uniform(0.05, 3.0))
        n2 = float(rng.uniform(0.05, 3.0))
        p1, p2 = case1_thresholds(q, n1, n2)
        ordered &= p1 < p2
        if 5.0 * q * q + 4.0 * q * (n2 - n1) >= 0.0:
            p3, p4 = case2_thresholds(q, n1, n2)
            ordered &= p3 < p4
            checked += 1
        else:
            skipped += 1
    p1, p2 = case1_thresholds(1.0, 0.25, 1.0)
    p3, p4 = case2_thresholds(1.0, 1.0, 1.0)
    anchors = (abs(p1 - 0.368034) < 1e-6 and abs(p2 - 0.724745) < 1e-6
               and abs(p3 - 0.618034) < 1e-6 and abs(p4 - 2.0) < 1e-6)
    elapsed = time.perf_counter() - start
    ok = ordered and anchors and checked > 0 and elapsed < 1.0
    verdict(capsys, 4,
            ok, f"ordering held on 1000 draws ({skipped} had no real "
                f"independent-state thresholds); anchors 0.368034/0.724745 "
                f"and 0.618034/2.0 reproduced ({elapsed:.2f}s)")


def test_criterion_5_discrete_sandwich_and_reductions(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    sandwich_ok = True
    for i in range(50):
        model = random_small_model(rng)
        summary = search_summary(model, SearchConfig(u_card=2, n_random=40,
                                                     seed=i))
        sandwich_ok &= (summary["secrecy_rate"]
                        <= summary["secrecy_upper_bound"] + 1e-9)

    mirrored_ok = True
    for i in range(8):
        cv1 = int(rng.integers(1, 3))
        main = rng.dirichlet(np.ones(2), size=(2, cv1))
        model = mirrored_wiretap_model(main, rng.dirichlet(np.ones(cv1)))
        mirrored_ok &= secrecy_rate(model, SearchConfig(
            u_card=2, n_random=40, seed=100 + i)) == 0.0

    blind_gap = 0.0
    for i in range(8):
        cv1 = int(rng.integers(1, 3))
        main = rng.dirichlet(np.ones(2), size=(2, cv1))
        model = blind_wiretap_model(main, rng.dirichlet(np.ones(cv1)))
        search = SearchConfig(u_card=2, n_random=40, seed=200 + i)
        blind_gap = max(blind_gap, abs(secrecy_rate(model, search)
                                       - main_channel_capacity(model, search)))
    elapsed = time.perf_counter() - start
    ok = sandwich_ok and mirrored_ok and blind_gap <= 0.02 and elapsed < 120.0
    verdict(capsys, 5,
            ok, f"sandwich held on 50 random models; copycat-output models "
                f"all gave rate 0; max useless-tap gap to capacity "
                f"{blind_gap:.2e} ({elapsed:.1f}s)")


def test_criterion_6_degraded_bsc_oracle(capsys):
    start = time.perf_counter()
    model = degraded_bsc_pair(0.05, 0.2)
    expected = h2(0.2) - h2(0.05)
    got = secrecy_rate(model, SearchConfig(u_card=2, grid_steps=8))
    gap = abs(got - expected)
    elapsed = time.perf_counter() - start
    ok = gap <= 0.02 and elapsed < 60.0
    verdict(capsys, 6,
            ok, f"degraded BSC pair: searched rate {got:.6f} vs entropy "
                f"oracle {expected:.6f}, gap {gap:.2e} ({elapsed:.1f}s)")


def test_criterion_7_posterior_matches_enumeration(capsys):
    start = time.perf_counter()
    fixtures = []
    model = degraded_bsc_pair(0.05, 0.2)
    fixtures.append(("degraded", SimConfig(
        model=model, policy=uniform_input_policy(model), n=4, rate=0.3,
        epsilon_typ=0.25, trials=1, seed=11)))
    model, policy = trend_instance()
    fixtures.append(("trend", SimConfig(
        model=model, policy=policy, n=3, rate=0.4, epsilon_typ=0.45,
        trials=1, seed=5)))
    model, policy = constant_wiretap_instance()
    fixtures.append(("constant-tap", SimConfig(
        model=model, policy=policy, n=3, rate=0.4, epsilon_typ=0.45,
        trials=1, seed=5)))
    model, policy = make_correlated_sim_instance()
    fixtures.append(("correlated", SimConfig(
        model=model, policy=policy, n=3, rate=0.4, epsilon_typ=0.05,
        trials=1, seed=9)))

    worst = 0.0
    compared = 0
    for _, config in fixtures:
        book = build_codebook(config)
        for z in itertools.product(range(config.model.card_z),
                                   repeat=config.n):
            z_seq = np.array(z)
            expected = brute_force_posterior(book, config, z_seq)
            got = eavesdropper_posterior(book, config, z_seq).probs
            worst = max(worst, float(np.abs(got - expected).max()))
            compared += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 60.0
    verdict(capsys, 7,
            ok, f"{len(fixtures)} fixtures, {compared} observations, max "
                f"posterior gap vs full enumeration {worst:.1e} "
                f"({elapsed:.1f}s)")


def test_criterion_8_block_length_trends(capsys):
    start = time.perf_counter()
    model, policy = trend_instance()
    reports = {}
    for n in (6, 12):
        config = SimConfig(model=model, policy=policy, n=n, rate=0.17,
                           epsilon_typ=0.45, trials=2000, seed=20260815)
        reports[n] = run_experiment(config)
    blind_model, blind_policy = constant_wiretap_instance()
    constant = run_experiment(SimConfig(
        model=blind_model, policy=blind_policy, n=12, rate=0.17,
        epsilon_typ=0.45, trials=300, seed=20260815))
    elapsed = time.perf_counter() - start
    pe6, pe12 = reports[6].pe, reports[12].pe
    d6, d12 = reports[6].d, reports[12].d
    ok = (pe12 <= pe6 and d12 >= d6 - 0.05 and constant.d == 1.0
          and elapsed < 300.0)
    verdict(capsys, 8,
            ok, f"Pe {pe6:.3f} -> {pe12:.3f}, equivocation {d6:.3f} -> "
                f"{d12:.3f} as the block doubles; coin-flip tap gives "
                f"d = {constant.d} exactly ({elapsed:.1f}s)")


def test_criterion_9_cli_replay_determinism(capsys, tmp_path):
    start = time.perf_counter()
    model = degraded_bsc_pair(0.05, 0.2)
    (tmp_path / "model.json").write_text(json.dumps(model_to_dict(model)))
    (tmp_path / "policy.json").write_text(
        json.dumps(policy_to_dict(uniform_input_policy(model))))
    (tmp_path / "sim.json").write_text(json.dumps({
        "model_file": "model.json", "policy_file": "policy.json",
        "n": 4, "rate": 0.3, "epsilon_typ": 0.25, "trials": 20, "seed": 7}))

    runs = {
        "discrete-region": ["discrete-region", "--model",
                            str(tmp_path / "model.json"), "--random", "50"],
        "gaussian-scan": ["gaussian-scan", "--p", "2.0", "--step", "0.25"],
        "gaussian-region": ["gaussian-region", "--case", "1", "--p", "0.6",
                            "--n1", "0.25", "--grid", "16"],
        "simulate": ["simulate", "--sim-config", str(tmp_path / "sim.json"),
                     "--dump-codebook"],
        "validate": ["validate"],
    }
    identical = True
    artifacts = 0
    for name, argv in runs.items():
        first = tmp_path / name / "a"
        second = tmp_path / name / "b"
        assert cli_main(argv + ["--out", str(first)]) == 0
        assert cli_main([argv[0], "--config", str(first / "manifest.json"),
                         "--out", str(second)]) == 0
        names = sorted(f.name for f in first.iterdir())
        identical &= names == sorted(f.name for f in second.iterdir())
        for artifact in names:
            artifacts += 1
            identical &= ((first / artifact).read_bytes()
                          == (second / artifact).read_bytes())
    elapsed = time.perf_counter() - start
    ok = identical and artifacts >= 12 and elapsed < 60.0
    verdict(capsys, 9,
            ok, f"all 5 subcommands replayed from their manifests, "
                f"{artifacts} artifacts byte-identical ({elapsed:.1f}s)")
