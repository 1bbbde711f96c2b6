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


def test_traced_structure_layers_are_called(monkeypatch):
    # wrap the names in every loaded gradedpi module, as the benchmark's
    # tracer does, so that routing the tables past them fails here rather
    # than reading 0 in the per-layer figures
    import sys

    from gradedpi import structure
    from gradedpi.algebras import catalog, catalog_names

    calls = {"bicharacter_table": 0, "classify": 0}
    for name in calls:
        original = getattr(structure, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for modname, module in list(sys.modules.items()):
            if (modname.split(".")[0] == "gradedpi"
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, wrapper)
    entries = [(n, ()) for n in catalog_names() if n != "pauli(n,k)"]
    for name, params in entries + [("pauli", (3, 1))]:
        structure.classify(catalog(name, *params))
    assert calls["classify"] == len(entries) + 1
    assert calls["bicharacter_table"] > 0
