#!/usr/bin/env python3
"""wiretapsi benchmark: seeded CLI workloads, cold and warm, checked.

    python3 bench/run.py --workload discrete_search --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0       # the three workloads in turn

Run from the repository root; the package is imported from ./src.  Each
run generates its inputs from --seed under .bench_work/<workload>/, then
repeats rounds of the workload's call batch until --seconds are used:

* --trace 0: each call once in a fresh interpreter (cold, what a shell user
  waits) and once in this process through wiretapsi.cli.main (warm).
  Reports the end-to-end metrics.
* --trace 1: the batch warm without spans, then again with spans around the
  public functions of every module, plus direct calls of the simulator's
  public functions.  Reports the per-layer metrics.

Every artifact of every call is checked (bench/check.py); on the default
seed it is also compared to bench/reference_seed0.json.  A human-readable
report precedes the last stdout line, which is one JSON object with keys
correct, attempted, failed and metrics.  Machine facts and raw samples go to
.bench_work/<workload>/result.json, spans of the last traced round to
.bench_work/<workload>/trace.csv.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import inputs  # noqa: E402

DEFAULT_SEED = 0
SETUP_SAMPLES = 8
REFERENCE = os.path.join(HERE, "reference_seed0.json")
CHILD_MAIN = "import sys; from wiretapsi.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import wiretapsi.cli; "
                "print(time.perf_counter() - t)")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# end-to-end metric -> unit; items_per_s counts the workload's unit of work
END_TO_END = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
ITEM_NAMES = {"discrete_search": "policies_per_s", "gaussian_curves": "curve_points_per_s",
              "binning_sim": "trials_per_s"}


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def _pin_threads() -> str:
    """WIRETAPSI_THREADS (default 1, at most nproc) for this process and
    every child, set before numpy loads."""
    nproc = os.cpu_count() or 1
    wanted = os.environ.get("WIRETAPSI_THREADS") or "1"
    if not wanted.isdigit() or int(wanted) < 1:
        raise BenchError(f"WIRETAPSI_THREADS must be a positive integer, got {wanted!r}")
    threads = str(min(int(wanted), nproc))
    os.environ["WIRETAPSI_THREADS"] = threads
    for var in THREAD_VARS:
        os.environ[var] = threads
    return threads


def _import_cli(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "wiretapsi", "cli.py")):
        raise BenchError(f"no wiretapsi sources under {src}; run from the repository root")
    if src not in sys.path:
        sys.path.insert(0, src)
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
    from wiretapsi import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise BenchError(f"imported {cli.__file__}, not the package under {src}")
    return cli


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def _commit(root: str) -> str:
    try:
        top = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    # a checkout nested in some other repository is not that repository
    if top.returncode or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return "unknown"
    return lines[1]


def machine_facts(root: str, seed: int, threads: str) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": _version("numpy"), "scipy": _version("scipy"),
            "WIRETAPSI_THREADS": threads, "commit": _commit(root), "seed": seed}


# --- running calls --------------------------------------------------------

def run_child(args: list[str], cwd: str, log: str) -> tuple[float, int, int, str, str]:
    """Run python3 with args; (seconds, max RSS kB, exit code, stdout, stderr)."""
    with open(log + ".out", "w+b") as out, open(log + ".err", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + args, cwd=cwd, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (seconds, usage.ru_maxrss, proc.returncode,
                out.read().decode(errors="replace"), err.read().decode(errors="replace"))


def measure_setup(work: str) -> tuple[list[float], list[float]]:
    """Fresh-interpreter import of wiretapsi.cli: parent wall and in-child
    import seconds, after one discarded run that fills the bytecode cache."""
    walls, imports = [], []
    for i in range(SETUP_SAMPLES + 1):
        wall, _, code, out, err = run_child(["-c", IMPORT_PROBE], work,
                                            os.path.join(work, "setup"))
        if code != 0:
            raise BenchError(f"import wiretapsi.cli failed:\n{err}")
        if i:
            walls.append(wall)
            imports.append(float(out.split()[-1]))
    return walls, imports


class Runner:
    """Runs calls cold or warm, checks their artifacts, keeps the tally."""

    def __init__(self, cli, work: str, calls: list, reference: dict | None):
        self.cli = cli
        self.work = work
        self.calls = calls
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_kb = 0

    def _out(self, mode: str, call) -> str:
        out = os.path.join("out", mode, call.name)
        shutil.rmtree(os.path.join(self.work, out), ignore_errors=True)
        return out

    def judge(self, call, mode: str, out: str, code, stderr: str) -> None:
        found = []
        if code != 0:
            found.append(f"exit code {code}")
        if "Traceback" in stderr:
            found.append("traceback on stderr")
        if not found:
            out_dir = os.path.join(self.work, out)
            found = check.problems(call, out_dir)
            if not found and self.reference is not None:
                want = self.reference.get(call.name)
                found = (["no reference recorded"] if want is None else
                         check.compare(check.fingerprint(call, out_dir), want, call.name)[:3])
        self.attempted += 1
        if found:
            self.failed += 1
            self.problems.append(f"{mode} {call.name}: {'; '.join(found)}")

    def cold(self, call) -> float:
        out = self._out("cold", call)
        seconds, rss, code, _, err = run_child(
            ["-c", CHILD_MAIN] + call.argv + ["--out", out], self.work,
            os.path.join(self.work, "child"))
        self.peak_rss_kb = max(self.peak_rss_kb, rss)
        self.judge(call, "cold", out, code, err)
        return seconds

    def warm(self, call, mode: str = "warm") -> float:
        out = self._out(mode, call)
        stderr = io.StringIO()
        gc.collect()
        here = os.getcwd()
        os.chdir(self.work)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                start = time.perf_counter()
                try:
                    code = self.cli.main(call.argv + ["--out", out])
                except SystemExit as exc:
                    code = exc.code
                except Exception:  # the call failed; count it, keep measuring
                    code = None
                    traceback.print_exc()
                seconds = time.perf_counter() - start
        finally:
            os.chdir(here)
        self.judge(call, mode, out, code, stderr.getvalue())
        return seconds


def repeat(seconds: float, one_round) -> list:
    """Run rounds until the next one would end past the deadline (at least one)."""
    deadline = time.perf_counter() + seconds
    results = []
    while True:
        start = time.perf_counter()
        results.append(one_round())
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return results


# --- the two kinds of run -------------------------------------------------

def untraced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """wall_s sums each call's median cold time over the rounds; items_per_s
    divides the work by the summed median warm times of the calls doing it.

    The machine's speed drifts over seconds, so each call runs cold and then
    warm, which spreads both kinds of sample over the whole run instead of
    giving each kind one stretch of it; per-call medians then shed a slow
    stretch without trusting any single round."""
    calls = runner.calls

    def one_round():
        cold, warm = {}, {}
        for c in calls:
            cold[c.name] = runner.cold(c)
            warm[c.name] = runner.warm(c)
        return cold, warm

    rounds = repeat(seconds, one_round)

    def median_sum(side: int, chosen) -> float:
        return sum(statistics.median(r[side][c.name] for r in rounds) for c in chosen)

    work_calls = [c for c in calls if c.work]
    items = sum(c.work for c in work_calls)
    metrics = {
        "wall_s": median_sum(0, calls),
        "items_per_s": items / median_sum(1, work_calls),
        "peak_rss_mb": runner.peak_rss_kb / 1024.0,
    }
    raw = {"rounds": len(rounds), "items": items,
           "cold_s": {c.name: [r[0][c.name] for r in rounds] for c in calls},
           "warm_s": {c.name: [r[1][c.name] for r in rounds] for c in calls}}
    return metrics, raw


def _sim_extras(runner: Runner, tracer, sims: list) -> tuple[list, list]:
    """Direct public-function calls per sim config, outside the CLI: a
    codebook, run_experiment at half the trials, and encode, decode and
    eavesdropper_posterior on configs whose state enumeration is small."""
    import dataclasses

    import numpy as np
    from wiretapsi import simulator

    pairs, sizes = [], []
    for i, (index, config) in enumerate(sims):
        tracer.call_id = -(i + 1)
        book = simulator.build_codebook(config)
        states = config.model.card_v1 ** config.n
        sizes.append(book.sequences.shape[0] * states * config.n * 8)
        half = max(1, config.trials // 2)
        simulator.run_experiment(dataclasses.replace(config, trials=half))
        pairs.append((index, config.trials, tracer.call_id, half))
        if states <= 1024:
            rng = np.random.default_rng([config.seed, 99])
            for _ in range(3):
                v1 = rng.integers(0, config.model.card_v1, size=config.n)
                simulator.encode(book, config, 1, v1, rng)
                simulator.decode(book, config, rng.integers(0, config.model.card_y, size=config.n))
                simulator.eavesdropper_posterior(
                    book, config, rng.integers(0, config.model.card_z, size=config.n))
    return pairs, sizes


def _artifact_metrics(runner: Runner, mode: str, kept: int) -> dict:
    """Outcome ratios and counts read back from the traced round's artifacts."""
    trials = fallbacks = errors = budget = discrepancies = 0
    for call in runner.calls:
        out = os.path.join(runner.work, "out", mode, call.name)
        if call.kind == "simulate":
            report = check.load(out, "report.json")
            trials += report["trials"]
            fallbacks += report["fallback_rate"] * report["trials"]
            errors += report["pe"] * report["trials"]
        elif call.kind == "discrete-region":
            budget += call.work
        elif call.kind == "validate":
            discrepancies += len(check.load(out, "validation.json")["discrepancies"])
    return {"discrete.kept_ratio": kept / budget if budget else 0.0,
            "simulator.fallback_rate": fallbacks / trials if trials else 0.0,
            "simulator.decode_ok_ratio": 1.0 - errors / trials if trials else 0.0,
            "validate.discrepancies": discrepancies}


def traced(runner: Runner, seconds: float, import_s: float, trace_path: str) -> tuple[dict, dict]:
    import spans
    from wiretapsi import modelio

    sims = [(i, modelio.load_sim_config(os.path.join(runner.work, c.argv[-1])))
            for i, c in enumerate(runner.calls) if c.kind == "simulate"]
    last = {}

    def one_round():
        plain = sum(runner.warm(c) for c in runner.calls)
        tracer = spans.Tracer()
        with tracer.installed():
            timed = 0.0
            for i, call in enumerate(runner.calls):
                tracer.call_id = i
                timed += runner.warm(call, "traced")
            pairs, sizes = _sim_extras(runner, tracer, sims)
        metrics = spans.span_metrics(tracer)
        fixed, per_trial = spans.experiment_fit(tracer, pairs)
        metrics.update(_artifact_metrics(runner, "traced", tracer.counts.get("discrete.kept", 0)))
        metrics.update({
            "cli.import_s": import_s,
            "simulator.fixed_s": fixed,
            "simulator.trial_ms": per_trial,
            "simulator.selection_bytes": max(sizes, default=0),
            "trace_overhead_frac": timed / plain - 1.0,
        })
        last["tracer"] = tracer
        return metrics

    rounds = repeat(seconds, one_round)
    last["tracer"].write(trace_path)
    metrics = {name: statistics.median(r[name] for r in rounds)
               for name, _, _ in spans.PER_LAYER}
    return metrics, {"rounds": len(rounds)}


# --- output ---------------------------------------------------------------

def _report(workload: str, facts: dict, result: dict, raw: dict, units: dict,
            runner: Runner) -> None:
    print(f"workload {workload}: {inputs.WORKLOADS[workload]}")
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"rounds {raw['rounds']}, {len(runner.calls)} calls per batch; "
          f"setup over {raw['setup_samples']} fresh imports "
          f"(median {raw['setup_s'][0]:.4f} s, max {raw['setup_s'][1]:.4f} s)")
    for name, value in result["metrics"].items():
        alias = f"  ({ITEM_NAMES[workload]})" if name == "items_per_s" else ""
        print(f"  {name:40s} {value['value']:<16.6g} {value['unit']}{alias}")
    frac = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"  {'ops_failed_frac':40s} {frac:<16.6g} ratio  "
          f"({runner.failed} of {runner.attempted} calls)")
    for line in runner.problems[:20]:
        print(f"  FAILED {line}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    root = os.getcwd()
    threads = _pin_threads()
    cli = _import_cli(root)
    work = os.path.join(root, ".bench_work", workload)
    shutil.rmtree(work, ignore_errors=True)
    calls = inputs.generate(workload, seed, work)
    reference = None
    if seed == DEFAULT_SEED:
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)[workload]
    facts = machine_facts(root, seed, threads)

    walls, imports = measure_setup(work)
    runner = Runner(cli, work, calls, reference)
    if trace:
        import spans
        metrics, raw = traced(runner, seconds, statistics.median(imports),
                              os.path.join(work, "trace.csv"))
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
    else:
        metrics, raw = untraced(runner, seconds)
        metrics = {"setup_s": statistics.median(walls), **metrics}
        units = END_TO_END
    raw.update(setup_samples=len(walls), setup_s=[statistics.median(walls), max(walls)],
               setup_walls=walls, setup_imports=imports)
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    _report(workload, facts, result, raw, units, runner)
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "facts": facts, "result": result, "raw": raw,
                   "problems": runner.problems}, fh, indent=1)
    return result


def record_reference() -> None:
    """Write the default seed's fingerprints; run on the commit that defines
    the reference, never to make a changed program pass."""
    root = os.getcwd()
    _pin_threads()
    cli = _import_cli(root)
    doc = {}
    for workload in sorted(inputs.WORKLOADS):
        work = os.path.join(root, ".bench_work", workload)
        shutil.rmtree(work, ignore_errors=True)
        runner = Runner(cli, work, inputs.generate(workload, DEFAULT_SEED, work), None)
        doc[workload] = {}
        for call in runner.calls:
            runner.warm(call)
            doc[workload][call.name] = check.fingerprint(
                call, os.path.join(work, "out", "warm", call.name))
        if runner.failed:
            raise BenchError(f"{workload}: {runner.problems}")
    with open(REFERENCE, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(inputs.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"rewrite {os.path.basename(REFERENCE)} from this commit")
    args = parser.parse_args(argv)
    if args.record_reference:
        try:
            record_reference()
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    names = sorted(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
