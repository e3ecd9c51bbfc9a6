"""Spans around the public functions of each wiretapsi module, from outside.

``Tracer.installed()`` swaps each traced function for a wrapper in its own
module and in every module that imported it by name (``cli`` holds
``achievable_points`` and ``run_experiment``, ``discrete`` holds
``compose``, ...), and restores the originals on exit.  A span records its
name, start, end, parent span and the CLI call it belongs to.  Spans stay in
memory until ``write`` dumps them at the end of the run.

Self time of a span is its duration minus the time its direct children
cover.  A layer's time is the summed duration of its outermost spans, so a
layer function calling another function of the same layer (write_region_csv
calls write_csv) is not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

import numpy as np

# name -> modules whose namespace holds the function (its own module first)
TARGETS = {
    "cli.main": ("cli",),
    "modelio.load_json": ("modelio",),
    "modelio.load_model": ("modelio",),
    "modelio.load_sim_config": ("modelio",),
    "modelio.write_region_csv": ("modelio",),
    "modelio.write_csv": ("modelio",),
    "modelio.write_json": ("modelio",),
    "modelio.atomic_write_text": ("modelio",),
    "probability.compose": ("probability", "discrete", "simulator"),
    "probability.mutual_information": ("probability", "discrete"),
    "probability.marginalize": ("probability", "discrete"),
    "discrete.iter_policies": ("discrete",),
    "discrete.achievable_points": ("discrete", "cli"),
    "discrete.search_summary": ("discrete", "cli"),
    "gaussian.joint_covariance": ("gaussian",),
    "gaussian.oracle_mi": ("gaussian",),
    "gaussian.leakage_roots": ("gaussian",),
    "gaussian.case1_region": ("gaussian",),
    "gaussian.case2_region": ("gaussian",),
    "gaussian.r_alpha": ("gaussian",),
    "gaussian.leakage_curve": ("gaussian",),
    "simulator.run_experiment": ("simulator", "cli", "validate"),
    "simulator.build_codebook": ("simulator", "validate"),
    "simulator.encode": ("simulator", "validate"),
    "simulator.decode": ("simulator",),
    "simulator.eavesdropper_posterior": ("simulator", "validate"),
    "validate.run_suites": ("validate", "cli"),
    "validate.formula_discrepancy_scan": ("validate",),
    "validate.brute_force_posterior": ("validate",),
}
GENERATORS = {"discrete.iter_policies"}

# The benchmark's own reading of "regular" oracle input: every determinant
# clears 1e-9 * scale per dimension, the test the oracle's fast path uses.
_AXES = ("u", "v1", "v2", "y", "z")
_DET_SAFE_REL = 1e-9


def _oracle_regular(cov, group_a, group_b) -> bool:
    ia = [_AXES.index(n) for n in group_a]
    ib = [_AXES.index(n) for n in group_b]
    joint = cov[np.ix_(ia + ib, ia + ib)]
    safe = _DET_SAFE_REL * max(1.0, float(np.max(np.diag(joint))))
    return all(float(np.linalg.det(cov[np.ix_(g, g)])) > safe ** len(g)
               for g in (ia, ib, ia + ib))


class Tracer:
    """In-memory span recorder; one instance per traced round."""

    def __init__(self):
        # (span id, parent id, call id, name, start ns, end ns)
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: dict[str, int] = {}
        self.call_id = -1
        self._stack = [-1]
        self._next = 0
        # oracle_mi calls awaiting their regular/singular label, classified
        # after the round so the test's cost stays out of every span
        self._oracle_args: list[tuple[int, object, tuple, tuple]] = []

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _open(self) -> tuple[int, int, int]:
        span, self._next = self._next, self._next + 1
        parent = self._stack[-1]
        self._stack.append(span)
        return span, parent, time.perf_counter_ns()

    def _close(self, name: str, span: int, parent: int, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((span, parent, self.call_id, name, start, end))

    def _wrap(self, name: str, fn):
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, parent, start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, span, parent, start)
            if after is not None:
                after(self, args, result)
            return result
        return wrapper

    def _wrap_generator(self, name: str, fn):
        # Each step of the generator is its own span, so the span covers
        # exactly the time spent producing items, not the consumer's work.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                span, parent, start = self._open()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(name, span, parent, start)
                self.count(name + ".yielded")
                yield item
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for name, homes in TARGETS.items():
                layer, attr = name.split(".")
                original = getattr(importlib.import_module(f"wiretapsi.{layer}"), attr)
                wrap = self._wrap_generator if name in GENERATORS else self._wrap
                wrapped = wrap(name, original)
                for home in homes:
                    module = importlib.import_module(f"wiretapsi.{home}")
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, wrapped)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # --- analysis ------------------------------------------------------

    def label_oracle_calls(self) -> None:
        """Rename each oracle_mi span to .regular or .singular by its input."""
        for index, cov, group_a, group_b in self._oracle_args:
            kind = "regular" if _oracle_regular(cov, group_a, group_b) else "singular"
            span = self.spans[index]
            self.spans[index] = span[:3] + (f"gaussian.oracle_mi.{kind}",) + span[4:]
        self._oracle_args.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds.  No traced
        function calls itself, so inclusive time counts nothing twice."""
        child_ns: dict[int, int] = {}
        for _, parent, _, _, start, end in self.spans:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        out: dict[str, dict[str, float]] = {}
        for span, _, _, name, start, end in self.spans:
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += (end - start) * 1e-9
            row["self_s"] += (end - start - child_ns.get(span, 0)) * 1e-9
        return out

    def layer_seconds(self, names: set[str]) -> float:
        """Summed duration of spans in `names` with no ancestor in `names`."""
        by_id = {s[0]: s for s in self.spans}
        total = 0
        for _, parent, _, name, start, end in self.spans:
            if name not in names:
                continue
            ancestor = parent
            while ancestor in by_id and by_id[ancestor][3] not in names:
                ancestor = by_id[ancestor][1]
            if ancestor not in by_id:
                total += end - start
        return total * 1e-9

    def spans_of(self, name: str) -> list[tuple[int, float]]:
        """(call id, seconds) of every span with this name."""
        return [(s[2], (s[5] - s[4]) * 1e-9) for s in self.spans if s[3] == name]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("span,parent,call,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")


def _after_write(tracer: Tracer, args, result) -> None:
    # artifacts are ASCII, so characters are bytes
    tracer.count("modelio.bytes_written", len(args[1]))


def _after_oracle(tracer: Tracer, args, result) -> None:
    tracer._oracle_args.append((len(tracer.spans) - 1, args[0],
                                tuple(args[1]), tuple(args[2])))


def _after_achievable(tracer: Tracer, args, result) -> None:
    tracer.count("discrete.kept", len(result.policies))


def _after_curve(tracer: Tracer, args, result) -> None:
    tracer.count("gaussian.leakage_curve.alphas", int(np.size(args[1])))


def _after_codebook(tracer: Tracer, args, result) -> None:
    tracer.count("simulator.codebook_size", int(result.sequences.shape[0]))


_AFTER = {
    "modelio.atomic_write_text": _after_write,
    "gaussian.oracle_mi": _after_oracle,
    "discrete.achievable_points": _after_achievable,
    "gaussian.leakage_curve": _after_curve,
    "simulator.build_codebook": _after_codebook,
}


# --- per-layer metrics ------------------------------------------------------

# (name, unit, better); the same list appears in BENCHMARK.json
PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    ("cli.main_self_s", "s", "lower"),
    ("modelio.load_s", "s", "lower"),
    ("modelio.write_s", "s", "lower"),
    ("modelio.bytes_written", "bytes", "lower"),
    ("probability.compose_calls", "count", "lower"),
    ("probability.compose_s", "s", "lower"),
    ("probability.mutual_information_calls", "count", "lower"),
    ("probability.mutual_information_s", "s", "lower"),
    ("probability.marginalize_calls", "count", "lower"),
    ("probability.marginalize_s", "s", "lower"),
    ("discrete.iter_policies_s", "s", "lower"),
    ("discrete.policies_streamed", "count", "lower"),
    ("discrete.achievable_points_s", "s", "lower"),
    ("discrete.search_summary_s", "s", "lower"),
    ("discrete.policy_eval_us", "us", "lower"),
    ("discrete.kept_ratio", "ratio", "higher"),
    ("gaussian.joint_covariance_calls", "count", "lower"),
    ("gaussian.joint_covariance_us", "us", "lower"),
    ("gaussian.oracle_mi_calls", "count", "lower"),
    ("gaussian.oracle_mi_us.regular", "us", "lower"),
    ("gaussian.oracle_mi_us.singular", "us", "lower"),
    ("gaussian.leakage_roots_s", "s", "lower"),
    ("gaussian.region_s", "s", "lower"),
    ("gaussian.r_alpha_calls", "count", "lower"),
    ("gaussian.leakage_curve_ns_per_alpha", "ns", "lower"),
    ("simulator.build_codebook_s", "s", "lower"),
    ("simulator.codebook_size", "count", "lower"),
    ("simulator.fixed_s", "s", "lower"),
    ("simulator.trial_ms", "ms", "lower"),
    ("simulator.selection_bytes", "bytes", "lower"),
    ("simulator.eavesdropper_posterior_ms", "ms", "lower"),
    ("simulator.encode_us", "us", "lower"),
    ("simulator.decode_us", "us", "lower"),
    ("simulator.fallback_rate", "ratio", "lower"),
    ("simulator.decode_ok_ratio", "ratio", "higher"),
    ("validate.run_suites_s", "s", "lower"),
    ("validate.formula_discrepancy_scan_s", "s", "lower"),
    ("validate.brute_force_posterior_s", "s", "lower"),
    ("validate.discrepancies", "count", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
)


def span_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics that come from spans and counters alone."""
    tracer.label_oracle_calls()
    totals = tracer.totals()

    def secs(*names: str) -> float:
        return sum(totals[n]["s"] for n in names if n in totals)

    def calls(*names: str) -> int:
        return sum(totals[n]["calls"] for n in names if n in totals)

    def mean(scale: float, *names: str) -> float:
        count = calls(*names)
        return secs(*names) / count * scale if count else 0.0

    counts = tracer.counts
    streamed = counts.get("discrete.iter_policies.yielded", 0)
    sweep = secs("discrete.achievable_points", "discrete.search_summary")
    alphas = counts.get("gaussian.leakage_curve.alphas", 0)
    return {
        "cli.main_self_s": totals.get("cli.main", {}).get("self_s", 0.0),
        "modelio.load_s": tracer.layer_seconds(
            {"modelio.load_json", "modelio.load_model", "modelio.load_sim_config"}),
        "modelio.write_s": tracer.layer_seconds(
            {"modelio.write_region_csv", "modelio.write_csv", "modelio.write_json",
             "modelio.atomic_write_text"}),
        "modelio.bytes_written": counts.get("modelio.bytes_written", 0),
        "probability.compose_calls": calls("probability.compose"),
        "probability.compose_s": secs("probability.compose"),
        "probability.mutual_information_calls": calls("probability.mutual_information"),
        "probability.mutual_information_s": secs("probability.mutual_information"),
        "probability.marginalize_calls": calls("probability.marginalize"),
        "probability.marginalize_s": secs("probability.marginalize"),
        "discrete.iter_policies_s": secs("discrete.iter_policies"),
        "discrete.policies_streamed": streamed,
        "discrete.achievable_points_s": secs("discrete.achievable_points"),
        "discrete.search_summary_s": secs("discrete.search_summary"),
        # sweep time outside policy generation, per streamed policy
        "discrete.policy_eval_us": ((sweep - secs("discrete.iter_policies")) / streamed * 1e6
                                    if streamed else 0.0),
        "gaussian.joint_covariance_calls": calls("gaussian.joint_covariance"),
        "gaussian.joint_covariance_us": mean(1e6, "gaussian.joint_covariance"),
        "gaussian.oracle_mi_calls": calls("gaussian.oracle_mi.regular",
                                          "gaussian.oracle_mi.singular"),
        "gaussian.oracle_mi_us.regular": mean(1e6, "gaussian.oracle_mi.regular"),
        "gaussian.oracle_mi_us.singular": mean(1e6, "gaussian.oracle_mi.singular"),
        "gaussian.leakage_roots_s": secs("gaussian.leakage_roots"),
        "gaussian.region_s": secs("gaussian.case1_region", "gaussian.case2_region"),
        "gaussian.r_alpha_calls": calls("gaussian.r_alpha"),
        "gaussian.leakage_curve_ns_per_alpha": (secs("gaussian.leakage_curve") / alphas * 1e9
                                                if alphas else 0.0),
        "simulator.build_codebook_s": secs("simulator.build_codebook"),
        "simulator.codebook_size": counts.get("simulator.codebook_size", 0),
        "simulator.eavesdropper_posterior_ms": mean(1e3, "simulator.eavesdropper_posterior"),
        "simulator.encode_us": mean(1e6, "simulator.encode"),
        "simulator.decode_us": mean(1e6, "simulator.decode"),
        "validate.run_suites_s": secs("validate.run_suites"),
        "validate.formula_discrepancy_scan_s": secs("validate.formula_discrepancy_scan"),
        "validate.brute_force_posterior_s": secs("validate.brute_force_posterior"),
    }


def experiment_fit(tracer: Tracer, pairs: list[tuple[int, int, int, int]]) -> tuple[float, float]:
    """Intercept (s) and slope (ms per trial) of run_experiment.

    pairs holds (full call id, full trials, half call id, half trials) per
    config; the intercepts add up over configs and the slope is pooled.
    """
    seconds: dict[int, float] = {}
    for call_id, secs in tracer.spans_of("simulator.run_experiment"):
        seconds[call_id] = seconds.get(call_id, 0.0) + secs
    fixed = extra_s = extra_trials = 0.0
    for full_id, full_trials, half_id, half_trials in pairs:
        if full_id not in seconds or half_id not in seconds:
            continue
        slope = (seconds[full_id] - seconds[half_id]) / (full_trials - half_trials)
        fixed += seconds[full_id] - slope * full_trials
        extra_s += seconds[full_id] - seconds[half_id]
        extra_trials += full_trials - half_trials
    return fixed, (extra_s / extra_trials * 1e3 if extra_trials else 0.0)
