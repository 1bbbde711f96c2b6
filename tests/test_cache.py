"""Persistent identity-space cache: keys, round trips, corruption handling."""

import hashlib
import json
import multiprocessing
import os

import pytest

from gradedpi import cache
from gradedpi.algebras import catalog, catalog_names
from gradedpi.cache import (ENV_CACHE_DIR, CacheEntry, cache_get, cache_put,
                            cached_identity_space, default_cache_dir,
                            serialize_space, space_from_payload, space_key)
from gradedpi.identities import IdentitySpace, identity_space
from gradedpi.specfile import canonical_serialization


def degrees_of(a, *exps):
    return tuple(a.group.element(x) for x in exps)


def test_key_is_stable_and_content_addressed():
    a = catalog("H4")
    degs = degrees_of(a, (0, 0), (1, 0))
    k1 = space_key(a, degs)
    k2 = space_key(catalog("H4"), degs)
    assert k1 == k2 and len(k1) == 64
    # different tuple, different key
    assert k1 != space_key(a, degrees_of(a, (0, 0), (0, 1)))
    # different algebra with the same group, different key
    assert k1 != space_key(catalog("M2_4"), degs)


# sha256 of canonical_serialization, which every cache key hashes; pinned so
# that a change of the scalar representation cannot move keys or CLI text
SERIALIZATION_DIGESTS = {
    "C2": "dd7367d267acc7168aa873eea5f80269bebce3aacab1c5c9493cafe038a04fe4",
    "H2": "40e4776214302d0ed70dec79c1cb24a29c7711b6236679d2ab95309417c04a5e",
    "H4": "25fe0c6ae81f1b3b71ad707cb0ddd7cb2dc8709a8fc11bdd1b0c6cd316b1062c",
    "M2C_Z4": "cfbfcbe5b3707c482414b720a86a826f3358a63755e92c76974a1ad5ef8bc8d1",
    "M2_2": "af92d141f1a5fe0d3b72380abae8145084d32fd027f997884221b82974da5b82",
    "M2_4": "6e6395e5ffbbd63cd00d8970c24e0ba04988933afbf35b1899b09a4abe430084",
    "M2_8": "93422910a247b5dea88c34e4d2815bb412ac4701560c8a69bb96d30d2a87c89f",
    "M4_4": "133b52550e8313238dfd9d18743b64035c579e09ce4840f273aacafbb9153b91",
    "quat_trivial": "e38902112b8ddb3f50d79c6b1ea28077a713fac113885e828d5273d41f6cc93b",
    "pauli(3,1)": "3b48c2f069568df426307e756e45365fe1c7e527ce4e023db0e7672105c435ae",
    "pauli(4,3)": "fbadc3e9c91178935934247ed4f95d3243d1b64e3c214f6dfb2a3b7da0d022c8",
    "pauli(5,1)": "2fbb3f10645d0ffbf23b0a42f7a5da5b7c78381a24b24d93a2bb340176b4929e",
}


def test_every_catalog_entry_has_a_pinned_serialization():
    fixed = [n for n in catalog_names() if "(" not in n]
    assert set(fixed) <= set(SERIALIZATION_DIGESTS)


@pytest.mark.parametrize("name", sorted(SERIALIZATION_DIGESTS))
def test_canonical_serialization_is_pinned(name):
    if name.startswith("pauli("):
        a = catalog("pauli", *name[len("pauli("):-1].split(","))
    else:
        a = catalog(name)
    text = canonical_serialization(a)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        SERIALIZATION_DIGESTS[name]


def test_key_serialises_each_algebra_once(monkeypatch):
    calls = []
    real = cache.canonical_serialization
    monkeypatch.setattr(cache, "canonical_serialization",
                        lambda a: calls.append(a) or real(a))
    a = catalog("H4")
    degs = degrees_of(a, (0, 0), (1, 0))
    keys = {space_key(a, degs) for _ in range(3)}
    space_key(a, degrees_of(a, (1, 0)))
    assert len(keys) == 1 and calls == [a]
    space_key(catalog("H4"), degs)  # another object serialises again
    assert len(calls) == 2


def test_serialize_space_round_trip_is_exact(tmp_path):
    a = catalog("M2C_Z4")
    degs = degrees_of(a, (1,), (1,), (2,))
    space = identity_space(a, degs)
    payload = serialize_space(space)
    back = space_from_payload(payload, degs)
    assert back == space
    assert back.image == space.image
    assert back.kernel == space.kernel
    # byte-identical reserialization
    assert json.dumps(serialize_space(back), sort_keys=True) == \
        json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("params,exps", [
    (("pauli", 3, 1), ((1, 0), (0, 1), (2, 2))),
    (("M2C_Z4",), ((1,), (1,), (2,))),
    (("M4_4",), ((0, 0), (1, 0), (1, 1))),
], ids=["pauli(3,1)", "M2C_Z4", "M4_4"])
def test_payload_round_trip_restores_integer_rows(params, exps):
    # a Pauli, a complex and a Type III grading
    a = catalog(*params)
    degs = degrees_of(a, *exps)
    space = identity_space(a, degs)
    back = space_from_payload(serialize_space(space), degs)
    assert back.rows == space.rows
    assert all(type(v) is int for row in back.rows for v in row)


def test_payload_round_trip_clears_denominators():
    # catalog images have entries in {-1, 0, 1}; this one has fractions
    a = catalog("H4")
    degs = degrees_of(a, (0, 0), (1, 0), (0, 1))
    space = IdentitySpace(degs, [(2, 1, 0, 0, -3, 0), (0, 0, 3, 0, 1, 0)])
    payload = serialize_space(space)
    assert payload["image"][0][:2] == ["1", "1/2"]
    assert space_from_payload(payload, degs).rows == space.rows


def test_cache_put_get_round_trip(tmp_path):
    d = str(tmp_path)
    a = catalog("H4")
    degs = degrees_of(a, (1, 0), (0, 1))
    space = identity_space(a, degs)
    key = space_key(a, degs)
    cache_put(key, serialize_space(space), directory=d)
    entry = cache_get(key, directory=d)
    assert isinstance(entry, CacheEntry)
    assert entry.key == key
    assert space_from_payload(entry.value, degs) == space


def test_cache_get_missing_is_none(tmp_path):
    assert cache_get("0" * 64, directory=str(tmp_path)) is None


def test_corrupt_entries_are_logged_misses(tmp_path, capsys):
    d = str(tmp_path)
    key = "a" * 64
    os.makedirs(d, exist_ok=True)
    # unparsable JSON, then JSON values that are not an object
    for text in ("{nope", "[1, 2]", "3", '"x"', "null"):
        with open(os.path.join(d, key + ".json"), "w") as fh:
            fh.write(text)
        assert cache_get(key, directory=d) is None, text
        err = capsys.readouterr().err
        assert "corrupt cache entry" in err, text


def test_key_mismatch_inside_entry_is_corruption(tmp_path, capsys):
    d = str(tmp_path)
    a = catalog("H4")
    degs = degrees_of(a, (0, 0),)
    key = space_key(a, degs)
    cache_put(key, serialize_space(identity_space(a, degs)), directory=d)
    other = "b" * 64
    os.rename(os.path.join(d, key + ".json"), os.path.join(d, other + ".json"))
    assert cache_get(other, directory=d) is None
    assert "corrupt cache entry" in capsys.readouterr().err


def test_atomic_writes_leave_no_temp_files(tmp_path):
    d = str(tmp_path)
    a = catalog("H4")
    degs = degrees_of(a, (0, 0), (0, 0))
    cache_put(space_key(a, degs),
              serialize_space(identity_space(a, degs)), directory=d)
    names = os.listdir(d)
    assert len(names) == 1 and names[0].endswith(".json")


def _put_repeatedly(key, value, directory, times):
    for _ in range(times):
        cache_put(key, value, directory=directory)


def test_concurrent_writers_never_expose_a_partial_entry(tmp_path, capsys):
    d = str(tmp_path)
    a = catalog("M4_4")
    degs = degrees_of(a, (0, 0), (0, 0), (0, 0))
    key = space_key(a, degs)
    value = serialize_space(identity_space(a, degs))
    ctx = multiprocessing.get_context("spawn")
    writers = [ctx.Process(target=_put_repeatedly, args=(key, value, d, 300))
               for _ in range(2)]
    for w in writers:
        w.start()
    reads = []
    while any(w.is_alive() for w in writers) or not reads:
        entry = cache_get(key, directory=d)
        assert entry is None or entry == CacheEntry(key, value)
        reads.append(entry)
    for w in writers:
        w.join()
        assert w.exitcode == 0
    assert cache_get(key, directory=d) == CacheEntry(key, value)
    assert space_from_payload(cache_get(key, directory=d).value, degs) == \
        identity_space(a, degs)
    assert "corrupt" not in capsys.readouterr().err
    assert os.listdir(d) == [key + ".json"]


def test_cached_identity_space_hits_disk_then_memory(tmp_path):
    d = str(tmp_path)
    a = catalog("M2_4")
    degs = degrees_of(a, (1, 0), (0, 1))
    s1 = cached_identity_space(a, degs, directory=d)
    assert os.listdir(d)  # wrote through
    b = catalog("M2_4")  # fresh instance, cold memory cache
    s2 = cached_identity_space(b, degs, directory=d)
    assert s1 == s2
    # third call hits the in-memory cache of b
    assert cached_identity_space(b, degs, directory=d) is s2


def assert_entry_is_replaced(d, degs, payload, capsys):
    """A payload planted for H4 at degs is reported as corrupt, recomputed
    and overwritten."""
    a = catalog("H4")
    key = space_key(a, degs)
    cache_put(key, payload, directory=d)
    s = cached_identity_space(a, degs, directory=d)
    assert "corrupt" in capsys.readouterr().err
    assert s == identity_space(catalog("H4"), degs)  # computed afresh
    entry = cache_get(key, directory=d)
    assert space_from_payload(entry.value, degs) == s


def h4_degrees(*exps):
    return degrees_of(catalog("H4"), *exps)


def test_bad_payload_shape_is_corruption(tmp_path, capsys):
    assert_entry_is_replaced(
        str(tmp_path), h4_degrees((0, 0), (0, 0)),
        {"format": 2, "degrees": [[0, 0], [0, 0]], "ncols": 99,
         "image": [["1"]]}, capsys)


def test_payload_of_another_format_is_corruption(tmp_path, capsys):
    degs = h4_degrees((1, 0), (0, 1))
    payload = serialize_space(identity_space(catalog("H4"), degs))
    payload["format"] = 1
    assert_entry_is_replaced(str(tmp_path), degs, payload, capsys)


def test_payload_for_another_degree_tuple_is_corruption(tmp_path, capsys):
    degs = h4_degrees((1, 0), (0, 1))
    other = h4_degrees((1, 0), (1, 0))  # same length, other identities
    payload = serialize_space(identity_space(catalog("H4"), other))
    assert payload["image"] != \
        serialize_space(identity_space(catalog("H4"), degs))["image"]
    assert_entry_is_replaced(str(tmp_path), degs, payload, capsys)


@pytest.mark.parametrize("image", [
    [["2", "-2"]],              # leading entry not 1
    [["0", "0"]],               # zero row, no leading entry
    [["0", "1"], ["1", "0"]],   # pivot columns not increasing
    [["1", "1"], ["0", "1"]],   # pivot column nonzero in another row
    [["1", "-1", "0"]],         # ragged row
], ids=["lead", "zero-row", "order", "pivot-column", "ragged"])
def test_non_canonical_image_is_corruption(tmp_path, capsys, image):
    payload = {"format": 2, "degrees": [[1, 0], [0, 1]], "ncols": 2,
               "image": image}
    assert_entry_is_replaced(str(tmp_path), h4_degrees((1, 0), (0, 1)),
                             payload, capsys)


def test_env_var_controls_default_dir(monkeypatch, tmp_path):
    monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "envcache"))
    assert default_cache_dir() == str(tmp_path / "envcache")
    monkeypatch.delenv(ENV_CACHE_DIR)
    assert "gradedpi" in default_cache_dir()
