"""Persistent cache for identity spaces, keyed by content hashes.

A cache entry stores the image of the multilinear evaluation map (the
canonical row space whose annihilator is the identity space) for one
(algebra, degree tuple) pair, in reduced row echelon form with rational
entries; a read converts it back to the space's primitive integer rows.
Keys hash the payload format, the algebra's canonical serialization and the
degree tuple, so equal inputs share entries across processes and entries of
another format are plain misses.  Writes go through a temporary file and an
atomic rename; corrupt or unreadable entries count as misses and are
reported on stderr.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction

from .algebras import GradedAlgebra
from .identities import IdentitySpace, identity_space
from .scalars import integer_row
from .specfile import canonical_serialization

ENV_CACHE_DIR = "GRADEDPI_CACHE_DIR"
PAYLOAD_FORMAT = 2


def default_cache_dir() -> str:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "gradedpi")


@dataclass(frozen=True)
class CacheEntry:
    key: str
    value: dict


def _algebra_digest(a: GradedAlgebra) -> str:
    # serialising is slow (every constant is reduced), so once per algebra
    if a._serial_digest is None:
        a._serial_digest = hashlib.sha256(
            canonical_serialization(a).encode("utf-8")).hexdigest()
    return a._serial_digest


def space_key(a: GradedAlgebra, degrees) -> str:
    text = f"format {PAYLOAD_FORMAT}\nalgebra {_algebra_digest(a)}\ndegrees " + \
        " ".join(str(tuple(g.exps)) for g in degrees)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def serialize_space(space: IdentitySpace) -> dict:
    return {
        "format": PAYLOAD_FORMAT,
        "degrees": [list(g.exps) for g in space.degrees],
        "ncols": space.ncols,
        "image": [[str(q) for q in row] for row in space.image],
    }


def _check_canonical(rows, ncols: int):
    """Raise ValueError unless rows are a reduced row echelon form."""
    pivots = []
    for row in rows:
        if len(row) != ncols:
            raise ValueError("ragged image row")
        lead = next((j for j, v in enumerate(row) if v), None)
        if lead is None or row[lead] != 1:
            raise ValueError("image row without a leading 1")
        if pivots and lead <= pivots[-1]:
            raise ValueError("image pivots are not strictly increasing")
        pivots.append(lead)
    if any(sum(1 for row in rows if row[c]) != 1 for c in pivots):
        raise ValueError("image pivot column is not zero in another row")


def space_from_payload(payload: dict, degrees) -> IdentitySpace:
    """The identity space stored in payload for the requested degree tuple.

    Raises ValueError (or KeyError, TypeError) when the payload has another
    format, another degree tuple, or an image that is not in canonical form.
    """
    if payload["format"] != PAYLOAD_FORMAT:
        raise ValueError(f"payload format {payload['format']!r} is not "
                         f"{PAYLOAD_FORMAT}")
    degrees = tuple(degrees)
    if [list(g.exps) for g in degrees] != payload["degrees"]:
        raise ValueError("payload degrees differ from the requested tuple")
    ncols = int(payload["ncols"])
    if ncols != math.factorial(len(degrees)):
        raise ValueError("column count does not match the degree tuple")
    rows = [tuple(Fraction(s) for s in row) for row in payload["image"]]
    _check_canonical(rows, ncols)
    # each row has a leading 1, so clearing denominators leaves it primitive
    return IdentitySpace(degrees, [tuple(integer_row(row)) for row in rows])


def _entry_path(directory: str, key: str) -> str:
    return os.path.join(directory, key + ".json")


def cache_get(key: str, directory: str | None = None) -> CacheEntry | None:
    directory = directory or default_cache_dir()
    path = _entry_path(directory, key)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("entry is not a JSON object")
        if data.get("key") != key or "value" not in data:
            raise ValueError("key mismatch")
        return CacheEntry(key, data["value"])
    except FileNotFoundError:
        return None
    except (OSError, ValueError, KeyError) as err:
        print(f"gradedpi: ignoring corrupt cache entry {key[:12]}...: {err}",
              file=sys.stderr)
        return None


def cache_put(key: str, value: dict, directory: str | None = None) -> CacheEntry:
    directory = directory or default_cache_dir()
    os.makedirs(directory, exist_ok=True)
    payload = json.dumps({"key": key, "value": value}, sort_keys=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, _entry_path(directory, key))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return CacheEntry(key, value)


def cached_identity_space(a: GradedAlgebra, degrees,
                          directory: str | None = None) -> IdentitySpace:
    """identity_space with a persistent layer under the in-memory one."""
    degrees = tuple(degrees)
    hit = a._mul_cache.get(degrees)
    if hit is not None:
        return hit
    key = space_key(a, degrees)
    entry = cache_get(key, directory)
    if entry is not None:
        try:
            space = space_from_payload(entry.value, degrees)
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as err:
            print(f"gradedpi: ignoring corrupt cache entry {key[:12]}...: {err}",
                  file=sys.stderr)
        else:
            a._mul_cache[degrees] = space
            return space
    space = identity_space(a, degrees)
    cache_put(key, serialize_space(space), directory)
    return space
