"""Checks on the benchmark's tooling that run with the tier-1 suite."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_traced_names_resolve_in_every_listed_module():
    # The tracer swaps each traced function in its own module and in every
    # module listed for it; a name that a refactor unbinds from one of them
    # would otherwise only fail under bench/run.py --trace 1.
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for name, homes in spans.TARGETS.items():
        layer, attr = name.split(".")
        original = getattr(importlib.import_module(f"wiretapsi.{layer}"), attr, None)
        assert callable(original), name
        for home in homes:
            module = importlib.import_module(f"wiretapsi.{home}")
            assert getattr(module, attr, None) is original, f"{name} in wiretapsi.{home}"
