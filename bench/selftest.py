#!/usr/bin/env python3
"""Self-test of the benchmark itself; run from the repository root:

    python3 bench/selftest.py

Shows that two generations from one seed are byte-identical, that the
checker turns a corrupted artifact and a nonzero exit into failed
operations, and that BENCHMARK.json names exactly the metrics and workloads
the code reports.  Prints one PASS/FAIL line per check; exits 1 on a failure.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import sys

import run  # sets up sys.path for the sibling modules

import check  # noqa: E402
import inputs  # noqa: E402


def _tree(root: str) -> list[str]:
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, files in os.walk(root) for f in files)


def generation_is_deterministic(base: str) -> str | None:
    for workload in inputs.WORKLOADS:
        a, b = (os.path.join(base, workload, side) for side in "ab")
        inputs.generate(workload, 7, a)
        inputs.generate(workload, 7, b)
        names = _tree(a)
        if names != _tree(b) or not names:
            return f"{workload}: file lists differ"
        _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        if mismatch or errors:
            return f"{workload}: {mismatch + errors} differ"
    return None


def _corrupt(path: str, old: str, new: str) -> None:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if old not in text:
        raise AssertionError(f"{old!r} not in {path}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new))


def corrupted_artifacts_fail(runner: run.Runner) -> str | None:
    calls = {c.name: c for c in runner.calls}
    low = calls["region_case1_low"]
    runner.warm(low)
    if runner.failed:
        return f"clean call failed: {runner.problems}"
    out = os.path.join(runner.work, "out", "warm", low.name)
    with open(os.path.join(out, "thresholds.json"), encoding="utf-8") as fh:
        c_m = format(json.load(fh)["c_m"], ".12g")
    cases = [("boundary.csv", f",{c_m}\n", ",nan\n"),          # NaN in a CSV
             ("boundary.csv", f",{c_m}\n", f",{2 * float(c_m)!r}\n"),  # cap above c_m
             ("thresholds.json", '"low"', '"mid"')]             # wrong regime
    for name, old, new in cases:
        runner.warm(low)
        _corrupt(os.path.join(out, name), old, new)
        before = runner.failed
        runner.judge(low, "warm", os.path.join("out", "warm", low.name), 0, "")
        if runner.failed != before + 1:
            return f"{name}: {old.strip()!r} -> {new.strip()!r} passed the checker"
    return None


def bad_exits_fail(runner: run.Runner) -> str | None:
    call = next(c for c in runner.calls if c.kind == "gaussian-region")
    missing = inputs.Call("missing", ["discrete-region", "--model", "absent.json"],
                          "discrete-region", 1, {"budget": 1})
    bad_flag = inputs.Call("bad_flag", call.argv + ["--grid", "0"], call.kind, 1, call.facts)
    for probe, how in ((missing, runner.cold), (bad_flag, runner.warm)):
        before = runner.failed
        how(probe)
        if runner.failed != before + 1:
            return f"{probe.name}: nonzero exit was not counted as failed"
    return None


def benchmark_json_matches(root: str) -> str | None:
    import spans

    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    want = {
        "workloads": sorted(inputs.WORKLOADS),
        "end_to_end": sorted(run.END_TO_END.items()),
        "per_layer": sorted((n, u, b) for n, u, b in spans.PER_LAYER),
    }
    got = {
        "workloads": sorted(w["name"] for w in doc["workloads"]),
        "end_to_end": sorted((m["name"], m["unit"]) for m in doc["end_to_end"]),
        "per_layer": sorted((m["name"], m["unit"], m["better"]) for m in doc["per_layer"]),
    }
    bad = [key for key in want if want[key] != got[key]]
    return f"BENCHMARK.json {bad} disagree with the code" if bad else None


def main() -> int:
    root = os.getcwd()
    run._pin_threads()
    cli = run._import_cli(root)
    base = os.path.join(root, ".bench_work", "selftest")
    shutil.rmtree(base, ignore_errors=True)
    work = os.path.join(base, "gaussian_curves")
    runner = run.Runner(cli, work, inputs.generate("gaussian_curves", 0, work), None)
    tests = (
        ("same seed, byte-identical inputs",
         lambda: generation_is_deterministic(os.path.join(base, "gen"))),
        ("corrupted artifacts count as failed", lambda: corrupted_artifacts_fail(runner)),
        ("nonzero exits count as failed", lambda: bad_exits_fail(runner)),
        ("BENCHMARK.json matches the code", lambda: benchmark_json_matches(root)),
    )
    failures = 0
    for name, test in tests:
        problem = test()
        failures += problem is not None
        print(f"[{'FAIL' if problem else 'PASS'}] {name}" + (f": {problem}" if problem else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
