"""Per-layer tracing by wrapping the package's functions in place.

`Tracer.install` replaces each traced function or method, in every loaded
`gradedpi` module that refers to it, by a wrapper that times the call.  Layer
boundaries (classify, identity_space, cache_get, ...) are recorded as spans
(name, start, end, parent span, query id); scalar-level hot functions are
aggregated per query (calls, inclusive and self seconds) so that millions of
calls do not become millions of records.  Self time is a call's duration
minus the time spent in traced calls made from inside it.

Only the traced run installs the wrappers; the timed run calls the package
untouched.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict

# (module, attribute path, metric name, hot)
TRACED = (
    ("scalars", "RowReducer.__init__", "scalars.RowReducer.init", True),
    ("scalars", "RowReducer.add", "scalars.RowReducer.add", True),
    ("scalars", "CycloScalar.__mul__", "scalars.CycloScalar.mul", True),
    ("scalars", "CycloScalar.reduced", "scalars.CycloScalar.reduced", True),
    ("scalars", "CycloScalar.inverse", "scalars.CycloScalar.inverse", True),
    ("groups", "subgroup_as_group", "groups.subgroup_as_group", False),
    ("groups", "quotient_hom", "groups.quotient_hom", False),
    ("algebras", "AlgebraElement.__mul__", "algebras.AlgebraElement.mul", True),
    ("algebras", "catalog", "algebras.catalog", False),
    ("algebras", "check_graded_division", "algebras.check_graded_division",
     False),
    ("algebras", "matrix_over_division", "algebras.matrix_over_division",
     False),
    ("identities", "same_identities_up_to", "identities.same_identities_up_to",
     False),
    ("identities", "identity_space", "identities.identity_space", False),
    ("identities", "is_identity", "identities.is_identity", False),
    ("structure", "classify", "structure.classify", False),
    ("structure", "bicharacter_table", "structure.bicharacter_table", False),
    ("structure", "find_complex_unit", "structure.find_complex_unit", False),
    ("structure", "bicharacter_via_hall", "structure.bicharacter_via_hall",
     False),
    ("structure", "equiv_division", "structure.equiv_division", False),
    ("structure", "normalize_triple", "structure.normalize_triple", False),
    ("structure", "equiv_matrix_over_division",
     "structure.equiv_matrix_over_division", False),
    ("structure", "complex_commutation_factor",
     "structure.complex_commutation_factor", True),
    ("cache", "space_key", "cache.space_key", False),
    ("cache", "cache_get", "cache.cache_get", False),
    ("cache", "cache_put", "cache.cache_put", False),
    ("cache", "cached_identity_space", "cache.cached_identity_space", False),
    ("specfile", "parse_algebra", "specfile.parse_algebra", False),
    ("specfile", "serialize_algebra", "specfile.serialize_algebra", False),
    ("cli", "main", "cli.main", False),
    ("cli", "_prewarm_spaces", "cli.prewarm_spaces", False),
)

# reported per-layer metrics: (metric name, traced name, quantity)
# quantity: calls | s (inclusive seconds) | self_s | a counter name
PER_LAYER = (
    ("scalars.RowReducer.add.calls", "scalars.RowReducer.add", "calls"),
    ("scalars.RowReducer.add.self_s", "scalars.RowReducer.add", "self_s"),
    ("scalars.CycloScalar.mul.calls", "scalars.CycloScalar.mul", "calls"),
    ("scalars.CycloScalar.mul.self_s", "scalars.CycloScalar.mul", "self_s"),
    ("scalars.CycloScalar.reduced.calls", "scalars.CycloScalar.reduced",
     "calls"),
    ("scalars.CycloScalar.reduced.self_s", "scalars.CycloScalar.reduced",
     "self_s"),
    ("scalars.CycloScalar.inverse.calls", "scalars.CycloScalar.inverse",
     "calls"),
    ("scalars.CycloScalar.inverse.self_s", "scalars.CycloScalar.inverse",
     "self_s"),
    ("groups.subgroup_as_group.calls", "groups.subgroup_as_group", "calls"),
    ("groups.subgroup_as_group.s", "groups.subgroup_as_group", "s"),
    ("groups.quotient_hom.calls", "groups.quotient_hom", "calls"),
    ("groups.quotient_hom.s", "groups.quotient_hom", "s"),
    ("algebras.AlgebraElement.mul.calls", "algebras.AlgebraElement.mul",
     "calls"),
    ("algebras.AlgebraElement.mul.self_s", "algebras.AlgebraElement.mul",
     "self_s"),
    ("algebras.catalog.calls", "algebras.catalog", "calls"),
    ("algebras.catalog.s", "algebras.catalog", "s"),
    ("algebras.check_graded_division.calls", "algebras.check_graded_division",
     "calls"),
    ("algebras.check_graded_division.s", "algebras.check_graded_division",
     "s"),
    ("algebras.matrix_over_division.calls", "algebras.matrix_over_division",
     "calls"),
    ("algebras.matrix_over_division.s", "algebras.matrix_over_division", "s"),
    ("identities.same_identities_up_to.calls",
     "identities.same_identities_up_to", "calls"),
    ("identities.same_identities_up_to.s", "identities.same_identities_up_to",
     "s"),
    ("identities.identity_space.calls", "identities.identity_space", "calls"),
    ("identities.identity_space.self_s", "identities.identity_space",
     "self_s"),
    ("identities.identity_space.computed", "identities.identity_space",
     "computed"),
    ("identities.is_identity.calls", "identities.is_identity", "calls"),
    ("identities.is_identity.s", "identities.is_identity", "s"),
) + tuple(
    (f"structure.{fn}.{q}", f"structure.{fn}", q)
    for fn in ("classify", "bicharacter_table", "find_complex_unit",
               "bicharacter_via_hall", "equiv_division", "normalize_triple",
               "equiv_matrix_over_division")
    for q in ("calls", "s")
) + (
    ("structure.complex_commutation_factor.calls",
     "structure.complex_commutation_factor", "calls"),
    ("structure.complex_commutation_factor.self_s",
     "structure.complex_commutation_factor", "self_s"),
    ("cache.space_key.calls", "cache.space_key", "calls"),
    ("cache.space_key.s", "cache.space_key", "s"),
    ("cache.cache_get.calls", "cache.cache_get", "calls"),
    ("cache.cache_get.hits", "cache.cache_get", "hits"),
    ("cache.cache_get.s", "cache.cache_get", "s"),
    ("cache.cache_put.calls", "cache.cache_put", "calls"),
    ("cache.cache_put.s", "cache.cache_put", "s"),
    ("cache.bytes_written", "cache.cache_put", "bytes"),
    ("cache.cached_identity_space.calls", "cache.cached_identity_space",
     "calls"),
    ("cache.cached_identity_space.self_s", "cache.cached_identity_space",
     "self_s"),
    ("cache.prewarm.spaces_prewarmed", "cache.cached_identity_space",
     "prewarmed"),
    ("cache.prewarm.spaces_consulted", "identities.identity_space",
     "consulted"),
    ("specfile.parse_algebra.calls", "specfile.parse_algebra", "calls"),
    ("specfile.parse_algebra.s", "specfile.parse_algebra", "s"),
    ("specfile.serialize_algebra.calls", "specfile.serialize_algebra",
     "calls"),
    ("specfile.serialize_algebra.s", "specfile.serialize_algebra", "s"),
    ("cli.main.calls", "cli.main", "calls"),
    ("cli.main.self_s", "cli.main", "self_s"),
)

RATIO = "cache.prewarm_used_ratio"

# traced names whose calls feed the counters of `Tracer._count`
_COUNTED = frozenset({"identities.identity_space", "cli.prewarm_spaces",
                      "cache.cached_identity_space", "cache.cache_get",
                      "cache.cache_put"})


def metric_unit(name: str) -> str:
    if name == RATIO:
        return "ratio"
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def metric_better(name: str) -> str:
    return "higher" if name in (RATIO, "cache.cache_get.hits") else "lower"


def _resolve(obj, path):
    *owners, attr = path.split(".")
    for part in owners:
        obj = getattr(obj, part)
    return obj, attr


class Tracer:
    """Span and counter recorder; `query` tags everything recorded."""

    def __init__(self):
        self.enabled = False
        self.query = "setup"
        self._stack: list = []       # [child seconds, span id]
        self._active: dict = defaultdict(int)
        self._next_id = 0
        self.spans: list = []
        # (query, traced name) -> {calls, s, self_s, counters...}
        self.totals: dict = defaultdict(lambda: defaultdict(float))
        self._prewarmed_query = None

    # -- installation --

    def install(self):
        for modname, *_ in TRACED:
            importlib.import_module(f"gradedpi.{modname}")
        mods = {k: v for k, v in sys.modules.items()
                if k == "gradedpi" or k.startswith("gradedpi.")}
        for modname, path, name, hot in TRACED:
            owner, attr = _resolve(mods[f"gradedpi.{modname}"], path)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hot)
            if isinstance(owner, type):
                for key, val in list(vars(owner).items()):
                    if val is original:
                        setattr(owner, key, wrapper)
                continue
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
        self.enabled = True

    def _wrap(self, name, fn, hot):
        tracer = self
        stack = self._stack
        active = self._active
        clock = time.perf_counter
        counted = name in _COUNTED

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else None
            span_id = parent
            if not hot:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            active[name] += 1
            before = tracer._snapshot(name) if counted else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                rec = tracer.totals[(tracer.query, name)]
                rec["calls"] += 1
                rec["s"] += dur
                rec["self_s"] += dur - frame[0]
                if not hot:
                    tracer.spans.append((span_id, name, start, end, parent,
                                         tracer.query))
            if counted:
                tracer._count(name, rec, before, args, kwargs, result)
            return result

        return wrapper

    # -- counters measured at the layer boundaries --

    def _snapshot(self, name):
        if name == "identities.identity_space":
            return self.totals[(self.query, "scalars.RowReducer.init")]["calls"]
        return None

    def _count(self, name, rec, before, args, kwargs, result):
        active = self._active
        if name == "identities.identity_space":
            made = self.totals[(self.query, "scalars.RowReducer.init")]["calls"]
            if made > before:
                rec["computed"] += 1
            if (active["identities.same_identities_up_to"]
                    and self._prewarmed_query == self.query):
                rec["consulted"] += 1
        elif name == "cli.prewarm_spaces":
            self._prewarmed_query = self.query
        elif name == "cache.cached_identity_space":
            if active["cli.prewarm_spaces"]:
                rec["prewarmed"] += 1
        elif name == "cache.cache_get":
            if result is not None:
                rec["hits"] += 1
        elif name == "cache.cache_put":
            from gradedpi import cache
            directory = (args[2] if len(args) > 2 else
                         kwargs.get("directory")) or cache.default_cache_dir()
            path = os.path.join(directory, args[0] + ".json")
            rec["bytes"] += os.path.getsize(path)

    # -- reporting --

    def per_layer(self, setup_builds: int, rounds: int) -> dict:
        """One set-up plus one round: set-up totals per build, round totals
        averaged over the rounds run."""
        summed: dict = defaultdict(lambda: defaultdict(float))
        for (query, name), rec in self.totals.items():
            div = setup_builds if query == "setup" else rounds
            for key, val in rec.items():
                summed[name][key] += val / div
        out = {}
        for metric, name, quantity in PER_LAYER:
            out[metric] = summed[name][quantity]
        prewarmed = out["cache.prewarm.spaces_prewarmed"]
        consulted = out["cache.prewarm.spaces_consulted"]
        out[RATIO] = consulted / prewarmed if prewarmed else 0.0
        return out

    def write(self, path: str):
        """Spans and per-query aggregates, one JSON object per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, query in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "query": query}) + "\n")
            for (query, name), rec in sorted(self.totals.items(),
                                             key=lambda kv: str(kv[0])):
                fh.write(json.dumps({"query": query, "name": name,
                                     **rec}) + "\n")
