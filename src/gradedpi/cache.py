"""Persistent cache for identity spaces, keyed by content hashes.

A cache entry stores the image of the multilinear evaluation map (the
canonical row space whose annihilator is the identity space) for one
(algebra, degree tuple) pair, as the space's primitive integer rows in
pivot order, with a sha256 checksum over the format, the degree tuple, the
column count and the rows (payload format 3).  A read takes only JSON ints,
checks that the rows are in that canonical form and that the checksum
matches, and hands them to the space unchanged.  Keys hash the payload
format, the algebra's canonical serialization and the degree tuple, so equal
inputs share entries across processes and entries of older formats are
plain misses, never read.  Writes go through a temporary file and an atomic
rename; corrupt or unreadable entries, a payload whose checksum does not
match included, count as misses, are reported on stderr and are recomputed
and overwritten.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import tempfile

from .algebras import GradedAlgebra
from .identities import IdentitySpace, identity_space
from .specfile import serialize_algebra

ENV_CACHE_DIR = "GRADEDPI_CACHE_DIR"
PAYLOAD_FORMAT = 3


def default_cache_dir() -> str:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "gradedpi")


def _algebra_digest(a: GradedAlgebra) -> str:
    # serialising reduces every distinct constant, so once per algebra
    if a._serial_digest is None:
        a._serial_digest = hashlib.sha256(
            serialize_algebra(a).encode("utf-8")).hexdigest()
    return a._serial_digest


def space_key(a: GradedAlgebra, degrees) -> str:
    text = f"format {PAYLOAD_FORMAT}\nalgebra {_algebra_digest(a)}\ndegrees " + \
        " ".join(str(tuple(g.exps)) for g in degrees)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _checksum(degrees, ncols: int, rows) -> str:
    text = json.dumps([PAYLOAD_FORMAT, degrees, ncols, rows],
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def serialize_space(space: IdentitySpace) -> dict:
    degrees = [list(g.exps) for g in space.degrees]
    rows = [list(row) for row in space.rows]
    return {
        "format": PAYLOAD_FORMAT,
        "degrees": degrees,
        "ncols": space.ncols,
        "rows": rows,
        "sha256": _checksum(degrees, space.ncols, rows),
    }


def _canonical_rows(rows, ncols: int) -> list[tuple[int, ...]]:
    """rows as int tuples; ValueError unless they are IdentitySpace rows:
    primitive int rows with positive pivots in strictly increasing columns,
    each pivot column zero in the other rows."""
    out, pivots = [], []
    for row in rows:
        if len(row) != ncols:
            raise ValueError("ragged image row")
        if set(map(type, row)) != {int}:
            raise ValueError("image entry is not an int")
        lead = next((j for j, v in enumerate(row) if v), None)
        if lead is None:
            raise ValueError("zero image row")
        if row[lead] < 0:
            raise ValueError("image pivot is not positive")
        if math.gcd(*row) != 1:
            raise ValueError("image row is not primitive")
        if pivots and lead <= pivots[-1]:
            raise ValueError("image pivots are not strictly increasing")
        pivots.append(lead)
        out.append(tuple(row))
    if any(sum(1 for row in out if row[c]) != 1 for c in pivots):
        raise ValueError("image pivot column is not zero in another row")
    return out


def space_from_payload(payload: dict, degrees) -> IdentitySpace:
    """The identity space stored in payload for the requested degree tuple.

    Raises ValueError (or KeyError, TypeError) when the payload has another
    format, another degree tuple, rows that are not in canonical form, or a
    checksum that does not match.
    """
    if payload["format"] != PAYLOAD_FORMAT:
        raise ValueError(f"payload format {payload['format']!r} is not "
                         f"{PAYLOAD_FORMAT}")
    degrees = tuple(degrees)
    exps = [list(g.exps) for g in degrees]
    if exps != payload["degrees"]:
        raise ValueError("payload degrees differ from the requested tuple")
    ncols = payload["ncols"]
    if ncols != math.factorial(len(degrees)):
        raise ValueError("column count does not match the degree tuple")
    rows = _canonical_rows(payload["rows"], ncols)
    if payload["sha256"] != _checksum(exps, ncols, payload["rows"]):
        raise ValueError("payload checksum mismatch")
    return IdentitySpace(degrees, rows)


def _entry_path(directory: str, key: str) -> str:
    return os.path.join(directory, key + ".json")


def cache_get(key: str, directory: str | None = None) -> dict | None:
    """The payload stored under key, or None for a missing or corrupt entry."""
    directory = directory or default_cache_dir()
    path = _entry_path(directory, key)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("entry is not a JSON object")
        if data.get("key") != key:
            raise ValueError("key mismatch")
        if not isinstance(data.get("value"), dict):
            raise ValueError("entry value is not a JSON object")
        return data["value"]
    except FileNotFoundError:
        return None
    except (OSError, ValueError, KeyError) as err:
        print(f"gradedpi: ignoring corrupt cache entry {key[:12]}...: {err}",
              file=sys.stderr)
        return None


def cache_put(key: str, value: dict, directory: str | None = None) -> None:
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


def cached_identity_space(a: GradedAlgebra, degrees,
                          directory: str | None = None) -> IdentitySpace:
    """identity_space with a persistent layer under the in-memory one."""
    degrees = tuple(degrees)
    hit = a._mul_cache.get(degrees)
    if hit is not None:
        return hit
    key = space_key(a, degrees)
    payload = cache_get(key, directory)
    if payload is not None:
        try:
            space = space_from_payload(payload, degrees)
        except (ValueError, KeyError, TypeError) as err:
            print(f"gradedpi: ignoring corrupt cache entry {key[:12]}...: {err}",
                  file=sys.stderr)
        else:
            a._mul_cache[degrees] = space
            return space
    space = identity_space(a, degrees)
    cache_put(key, serialize_space(space), directory)
    return space
