"""In-process memos (one cover-or-replace policy, one clear) and the
persistent cache: hits, corruption handling, version invalidation."""

import json
import os

import pytest

from ffzeta import anderson, cache, zeta
from ffzeta.scalar import field


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


def test_corrupted_file_ignored(store, tmp_path):
    path = store._path("power_sum", (3, 1, 1))
    with open(path, "w") as fh:
        fh.write("{not json")
    assert store.get("power_sum", (3, 1, 1)) is None  # warns and recomputes


def test_version_mismatch_invalidates(store):
    store.put("power_sum", (3, 1, 1), {"num": [1], "den": [1]})
    path = store._path("power_sum", (3, 1, 1))
    with open(path) as fh:
        entry = json.load(fh)
    entry["version"] = "0.0.0-other"
    with open(path, "w") as fh:
        json.dump(entry, fh)
    assert store.get("power_sum", (3, 1, 1)) is None


def test_atomic_writes_leave_no_temp_files(store, tmp_path):
    store.put("power_sum", (2, 1, 1), {"num": [1], "den": [1]})
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    assert not leftovers


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
    linv = zeta._l_power_inverse(fld, 3, 2, 80)
    assert "power_sum" in spy and "tower" in spy
    spy.clear()
    assert zeta.mzv(fld, (2, 1), 60) == z
    assert anderson.at_polynomial(fld, 7) is h
    assert zeta._l_power_inverse(fld, 3, 2, 80) is linv
    assert spy == []
    cache.clear_memos()
    assert zeta.mzv(fld, (2, 1), 60) == z
    h2 = anderson.at_polynomial(fld, 7)
    linv2 = zeta._l_power_inverse(fld, 3, 2, 80)
    assert "power_sum" in spy and "tower" in spy
    assert h2 == h and h2 is not h
    assert linv2 == linv and linv2 is not linv


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
