"""In-process memos (one cover-or-replace policy, one clear) and the
persistent cache: hits, the file format and its digit-text codec,
corruption and malformed payloads, version invalidation."""

import json
import logging
import os
import stat

import numpy as np
import pytest

from ffzeta import __version__, anderson, cache, zeta
from ffzeta.scalar import BiPoly, Poly, RatFunc, field


@pytest.fixture
def store(tmp_path):
    c = cache.JsonCache(tmp_path)
    cache.set_active(c)
    yield c
    cache.set_active(None)


def test_power_sum_roundtrip(store):
    fld = field(3)
    cache.clear_memos()
    first = zeta.power_sum_exact(fld, 2, 3)
    assert store.get("power_sum", (3, 2, 3)) is not None
    cache.clear_memos()
    second = zeta.power_sum_exact(fld, 2, 3)  # from disk now
    assert first == second


def test_at_poly_roundtrip(store, monkeypatch):
    fld = field(3)
    cache.clear_memos()
    first = anderson.at_polynomial(fld, 5)
    assert store.get("at_poly", (3, 5)) is not None
    cache.clear_memos()

    def no_recursion(*args):
        raise AssertionError("H_5 recomputed instead of read from disk")

    monkeypatch.setattr(anderson, "_at_tower", no_recursion)
    second = anderson.at_polynomial(fld, 5)  # from disk now
    assert first == second


def test_tower_extends_past_a_disk_hit(store):
    fld = field(3)
    cache.set_active(None)
    cache.clear_memos()
    cold = anderson.at_polynomial(fld, 61)
    cache.set_active(store)
    cache.clear_memos()
    h60 = anderson.at_polynomial(fld, 60)
    assert store.get("at_poly", (3, 60)) == cache.bipoly_to_json(h60)
    cache.clear_memos()
    assert anderson.at_polynomial(fld, 60) == h60  # from disk now, with no tower in memory
    assert anderson.at_polynomial(fld, 61) == cold


def test_corrupted_file_ignored(store, tmp_path):
    path = store._path("power_sum", (3, 1, 1))
    with open(path, "w") as fh:
        fh.write("{not json")
    assert store.get("power_sum", (3, 1, 1)) is None  # warns and recomputes


@pytest.mark.parametrize("content", [b"[1, 2]", b"7", b'"text"', b"\xff\xfe{}"])
def test_file_that_is_not_an_entry_is_ignored(store, caplog, content):
    # valid JSON that is not an object, and bytes that are not UTF-8
    path = store._path("power_sum", (3, 1, 1))
    with open(path, "wb") as fh:
        fh.write(content)
    with caplog.at_level(logging.WARNING, logger="ffzeta.cache"):
        assert store.get("power_sum", (3, 1, 1)) is None
    assert "ignoring corrupted cache file" in caplog.text


@pytest.mark.parametrize("kind, key", [("at_poly", (2, 17)), ("at_poly", (3, 40)),
                                       ("at_poly", (9, 12)), ("power_sum", (3, 2, 3))])
def test_put_writes_what_json_dump_writes(store, tmp_path, kind, key):
    cache.clear_memos()
    if kind == "at_poly":
        payload = cache.bipoly_to_json(anderson.at_polynomial(field(key[0]), key[1]))
    else:
        payload = cache.ratfunc_to_json(zeta.power_sum_exact(field(key[0]), *key[1:]))
    store.put(kind, key, payload)
    entry = {"kind": kind, "key": list(key), "version": cache.VERSION, "payload": payload}
    with open(tmp_path / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(entry, fh, sort_keys=True)
    with open(store._path(kind, key), "rb") as got, open(tmp_path / "expected.json", "rb") as want:
        assert got.read() == want.read()


def test_ragged_and_empty_rows_load(store, monkeypatch):
    fld = field(3)
    cache.clear_memos()
    h = anderson.at_polynomial(fld, 5)
    # the rows as a hand edit would leave them: trailing zeros dropped
    ragged = ["".join(map(str, row)).rstrip("0") for row in h.coeffs]
    assert len({len(row) for row in ragged}) > 1
    store.put("at_poly", (3, 5), {"rows": ragged})
    cache.clear_memos()
    monkeypatch.setattr(anderson, "_at_tower", lambda *args: pytest.fail("H_5 recomputed"))
    assert anderson.at_polynomial(fld, 5) == h
    assert cache.bipoly_from_json(fld, {"rows": []}).is_zero
    assert cache.bipoly_from_json(fld, {"rows": [""]}).is_zero
    assert cache.bipoly_from_json(fld, {"rows": ["12", "00"]}) == BiPoly(fld, [[1, 2]])


_CODEC_QS = [2, 3, 4, 9, 11, 25, 101, 65521, 65536]


def _grids(fld):
    """H_n grids, the zero grid, 1x1 grids, and a random grid whose rows
    start with zeros."""
    q = fld.q
    rng = np.random.default_rng(q)
    grid = rng.integers(0, q, size=(6, 9))
    grid[:, :3] = 0
    grid[:, 3] = q - 1
    grid[-1, -1] = 1
    return ([anderson.at_polynomial(fld, n) for n in (0, 1, q - 1 if q < 40 else 3, min(q + 3, 40))]
            + [BiPoly.zero(fld), BiPoly(fld, [[1]]), BiPoly(fld, [[q - 1]]), BiPoly(fld, grid)])


def _fractions(fld):
    """Power sums where enumerating q^d polynomials is cheap, and fractions
    with entries up to q - 1 and leading zeros."""
    q = fld.q
    sums = [zeta.power_sum_exact(fld, d, n) for d, n in ((0, 1), (1, 2), (2, 3)) if q ** d <= 200]
    return sums + [RatFunc(Poly(fld, [0, 0, q - 1, 1]), Poly(fld, [0, q - 1, 0, 1])),
                   RatFunc(Poly.zero(fld), Poly.one(fld))]


@pytest.mark.parametrize("q", _CODEC_QS)
def test_codec_round_trips_bit_for_bit(q):
    fld = field(q)
    w = len(str(q - 1))
    for b in _grids(fld):
        payload = json.loads(json.dumps(cache.bipoly_to_json(b)))
        assert all(len(row) == b.coeffs.shape[1] * w for row in payload["rows"])
        back = cache.bipoly_from_json(fld, payload)
        assert back.coeffs.dtype == b.coeffs.dtype and np.array_equal(back.coeffs, b.coeffs)
    for r in _fractions(fld):
        payload = json.loads(json.dumps(cache.ratfunc_to_json(r)))
        back = cache.ratfunc_from_json(fld, payload)
        assert np.array_equal(back.num.coeffs, r.num.coeffs)
        assert np.array_equal(back.den.coeffs, r.den.coeffs)


@pytest.mark.parametrize("q, grid, rows", [
    (3, [[0, 2, 1], [1, 0, 0]], ["021", "100"]),
    (10, [[0, 9], [3, 0]], ["09", "30"]),
    (11, [[0, 10], [3, 0]], ["0010", "0300"]),
    (101, [[100, 7]], ["100007"]),
    (65521, [[0, 65520], [12, 3]], ["0000065520", "0001200003"]),
    (65536, [[65535, 1]], ["6553500001"]),
])
def test_codec_text_is_fixed_width_decimal(q, grid, rows):
    # q = 10 names no field, but is where one character per entry ends
    assert cache._to_text(q, np.array(grid, dtype=np.int64)) == rows
    assert cache._from_text(q, rows).tolist() == grid


@pytest.mark.parametrize("q, rows", [
    (3, ["1a"]), (3, ["-1"]), (3, ["1 "]), (3, ["\u0661"]), (3, ["3"]), (3, ["12", [1, 2]]),
    (11, ["11"]), (11, ["0099"]), (11, ["012"]), (11, ["0"]), (101, ["1000"]), (101, ["10"]),
    (65521, ["65521"]), (65536, ["99999"]), (65536, ["0000-1"]), (3, "12"), (3, None),
])
def test_codec_rejects_malformed_text(q, rows):
    with pytest.raises(ValueError):
        cache._from_text(q, rows)


_BAD_AT_POLY = [{"rows": [[7, 1], [2]]}, {"rows": [[7, 1], [2, 0]]}, {"rows": [[-1]]},
                {"rows": "oops"}, {"rows": [1, 2]}, {"rows": [[[1]]]}, {"rows": [[1.0]]},
                {"rows": [[True]]}, {"rows": [["1"]]}, {"rows": [[None]]}, {"rows": [[2 ** 70]]},
                {"rows": [[1], 3]}, {"rows": {"0": [1]}}, {}, [[1]], 5]
_BAD_POWER_SUM = [{"num": [5], "den": [1]}, {"num": [1], "den": [0]}, {"num": [1], "den": []},
                  {"num": [1], "den": [-2]}, {"num": [[1]], "den": [1]}, {"num": "x", "den": [1]},
                  {"num": [1], "den": [1.0]}, {"den": [1]}, "1/1"]

# text-form payloads at q = 3: a non-digit character, an entry >= q, a
# mixed string/list row list, a zero or empty denominator
_BAD_TEXT_AT_POLY = [{"rows": ["1a"]}, {"rows": ["-1"]}, {"rows": ["12", "3"]},
                     {"rows": ["12", [1, 2]]}, {"rows": [[1, 2], "12"]}, {"rows": "12"}]
_BAD_TEXT_POWER_SUM = [{"num": "1", "den": "0"}, {"num": "1", "den": "000"},
                       {"num": "1", "den": ""}, {"num": "-1", "den": "1"},
                       {"num": "1", "den": "13"}, {"num": "1", "den": ["1"]}]

# kind: (key at q, the value at that key, its encoder)
_KINDS = {"at_poly": (lambda q: (q, 5), lambda fld: anderson.at_polynomial(fld, 5),
                      cache.bipoly_to_json),
          "power_sum": (lambda q: (q, 1, 2), lambda fld: zeta.power_sum_exact(fld, 1, 2),
                        cache.ratfunc_to_json)}


def _check_miss(store, caplog, kind, q, payload):
    """A stored ``payload`` is logged as corrupted, recomputed and overwritten."""
    fld = field(q)
    key, value, encode = _KINDS[kind]
    key = key(q)
    cache.set_active(None)
    cache.clear_memos()
    want = value(fld)
    cache.set_active(store)
    cache.clear_memos()
    store.put(kind, key, payload)
    with caplog.at_level(logging.WARNING, logger="ffzeta.cache"):
        got = value(fld)
    assert got == want
    assert "ignoring corrupted cache file" in caplog.text and store._path(kind, key) in caplog.text
    assert store.get(kind, key) == encode(want)  # the entry was overwritten


@pytest.mark.parametrize("kind, payload", [("at_poly", b) for b in _BAD_AT_POLY]
                         + [("power_sum", b) for b in _BAD_POWER_SUM])
def test_malformed_payload_is_a_miss(store, caplog, kind, payload):
    _check_miss(store, caplog, kind, 3, payload)


@pytest.mark.parametrize("kind, q, payload",
                         [("at_poly", 3, b) for b in _BAD_TEXT_AT_POLY]
                         + [("power_sum", 3, b) for b in _BAD_TEXT_POWER_SUM]
                         # a row length that is not a multiple of w = 2, an entry >= 11
                         + [("at_poly", 11, {"rows": ["012"]}), ("at_poly", 11, {"rows": ["0011"]}),
                            ("power_sum", 11, {"num": "01", "den": "1"})])
def test_malformed_text_payload_is_a_miss(store, caplog, kind, q, payload):
    _check_miss(store, caplog, kind, q, payload)


def test_list_format_entry_is_a_silent_miss(store, caplog):
    # an entry as the list encoder wrote it, under the package version alone
    fld = field(3)
    cache.clear_memos()
    h = anderson.at_polynomial(fld, 5)
    path = store._path("at_poly", (3, 5))
    entry = {"kind": "at_poly", "key": [3, 5], "version": __version__,
             "payload": {"rows": h.coeffs.tolist()}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entry, fh, sort_keys=True)
    cache.clear_memos()
    with caplog.at_level(logging.WARNING, logger="ffzeta.cache"):
        assert store.get("at_poly", (3, 5)) is None
        assert anderson.at_polynomial(fld, 5) == h
    assert caplog.text == ""
    assert store.get("at_poly", (3, 5)) == cache.bipoly_to_json(h)  # the entry was overwritten


def test_version_mismatch_invalidates(store):
    store.put("power_sum", (3, 1, 1), {"num": "1", "den": "1"})
    path = store._path("power_sum", (3, 1, 1))
    with open(path) as fh:
        entry = json.load(fh)
    entry["version"] = "0.0.0-other"
    with open(path, "w") as fh:
        json.dump(entry, fh)
    assert store.get("power_sum", (3, 1, 1)) is None


def test_atomic_writes_leave_no_temp_files(store, tmp_path):
    store.put("power_sum", (2, 1, 1), {"num": "1", "den": "1"})
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    assert not leftovers


def test_entries_get_the_mode_of_a_plain_open(store):
    old = os.umask(0o022)
    try:
        store.put("power_sum", (2, 1, 2), {"num": "1", "den": "1"})
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(store._path("power_sum", (2, 1, 2))).st_mode) == 0o644


# -- the in-process memo policy --------------------------------------------------

@pytest.fixture
def spy(monkeypatch):
    """Records each power-sum memo computation and each run of the H_n tower
    recursion."""
    calls = []
    power_sum, tower = zeta._power_sum_from_identity, anderson._at_tower

    def power_sum_spy(*args):
        calls.append("power_sum")
        return power_sum(*args)

    def tower_spy(*args):
        calls.append("tower")
        return tower(*args)

    monkeypatch.setattr(zeta, "_power_sum_from_identity", power_sum_spy)
    monkeypatch.setattr(anderson, "_at_tower", tower_spy)
    cache.clear_memos()
    return calls


def entry(name, key):
    """The current entry of memo ``name``; fails the test if there is none."""
    return cache.remember(name, key, None, lambda stale: pytest.fail(f"no {name} entry at {key}"))


def test_clear_memos_recomputes(spy):
    fld = field(3)
    z = zeta.mzv(fld, (2, 1), 60)
    h = anderson.at_polynomial(fld, 7)
    # the quotient by L_i^s has no memo: every call recomputes it
    li = zeta.cmpl(fld, (2,), [1], 80)
    assert "power_sum" in spy and "tower" in spy
    spy.clear()
    assert zeta.mzv(fld, (2, 1), 60) == z
    assert anderson.at_polynomial(fld, 7) is h
    assert zeta.cmpl(fld, (2,), [1], 80) == li
    assert spy == []
    cache.clear_memos()
    assert zeta.mzv(fld, (2, 1), 60) == z
    h2 = anderson.at_polynomial(fld, 7)
    assert "power_sum" in spy and "tower" in spy
    assert h2 == h and h2 is not h
    assert zeta.cmpl(fld, (2,), [1], 80) == li


def test_covered_request_computes_nothing(spy):
    fld = field(3)
    zeta.power_sum_series(fld, 2, 1, 150)
    zeta.power_sum_series(fld, 3, 1, 150)
    anderson.at_polynomial(fld, 20)
    spy.clear()
    for prec in (150, 60, 10):
        zeta.power_sum_series(fld, 2, 1, prec)
        zeta.power_sum_series(fld, 3, 1, prec)
    for n in (20, 11, 3):
        anderson.at_polynomial(fld, n)
    assert spy == []


def test_uncovered_request_replaces_the_entry_whole(spy):
    fld = field(3)
    anderson.at_polynomial(fld, 5)
    zeta.power_sum_series(fld, 2, 1, 60)
    old_tower = entry("at_tower", 3)
    old_sum = entry("power_sum_series", (3, 2, 1))
    assert len(old_tower) == 6 and old_sum.prec == 60
    anderson.at_polynomial(fld, 12)
    zeta.power_sum_series(fld, 2, 1, 150)
    new_tower = entry("at_tower", 3)
    new_sum = entry("power_sum_series", (3, 2, 1))
    assert new_tower is not old_tower and len(new_tower) == 13
    assert new_sum is not old_sum and new_sum.prec == 150
    # the old entries are untouched, and the tower was extended, not rebuilt
    assert len(old_tower) == 6 and old_sum.prec == 60
    assert all(a is b for a, b in zip(new_tower, old_tower))


def test_clear_keeps_fields():
    fld = field(3)
    before = zeta.mzv(fld, (2, 1), 40)
    cache.clear_memos()
    assert field(3) is fld
    after = zeta.mzv(field(3), (2, 1), 40)
    assert (before + after) == before.scale(2)
