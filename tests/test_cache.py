"""Persistent cache: hits, corruption handling, version invalidation."""

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
    zeta._PS_EXACT_MEMO.clear()
    first = zeta.power_sum_exact(fld, 2, 3)
    assert store.get("power_sum", (3, 2, 3)) is not None
    zeta._PS_EXACT_MEMO.clear()
    second = zeta.power_sum_exact(fld, 2, 3)  # from disk now
    assert first == second


def test_at_poly_roundtrip(store, monkeypatch):
    fld = field(3)
    monkeypatch.setattr(anderson, "_AT_MEMO", {})
    monkeypatch.setattr(anderson, "_AT_TOWER", {})
    first = anderson.at_polynomial(fld, 5)
    assert store.get("at_poly", (3, 5)) is not None
    anderson._AT_MEMO.clear()
    anderson._AT_TOWER.clear()

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
