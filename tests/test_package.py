"""The package's public namespace."""

import importlib
import importlib.util
from pathlib import Path

import gradedpi

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_exported_name_resolves():
    assert len(set(gradedpi.__all__)) == len(gradedpi.__all__)
    missing = [n for n in gradedpi.__all__ if not hasattr(gradedpi, n)]
    assert missing == []


def test_every_benchmark_traced_name_resolves():
    # the benchmark wraps these (module, attribute path) names in place, so
    # deleting or renaming one breaks it; perfbench/tracing.py imports only
    # the standard library
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = []
    for modname, path, *_ in tracing.TRACED:
        obj = importlib.import_module(f"gradedpi.{modname}")
        for part in path.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{modname}.{path}")
    assert missing == []
