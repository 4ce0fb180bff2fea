"""The in-process memos and the persistent JSON cache for expensive
intermediates (power sums and Anderson-Thakur polynomials).

Every in-process memo follows one policy, ``remember``: an entry serves
every request it covers, and a request it does not cover recomputes the
entry and replaces it whole.  Entries are never mutated, so a reader on
another thread sees the old entry or the new one.  ``recall`` puts the
persistent cache between a memo and the computation, and ``clear_memos``
empties every memo.  The one memo outside this module is the table of
shared instances behind ``scalar.field``, which ``clear_memos`` leaves alone:
``Poly``, ``Laurent`` and their kin compare fields with ``is``, so values
made before and after a cleared field could no longer be combined.

Persistent entries are keyed by kind and integer key tuple, carry the
artifact version (a mismatch invalidates), and are written with atomic
renames so concurrent readers never see a torn file.  Payloads stay JSON
because they are small at desk scale and a human-inspectable cache makes
debugging exact arithmetic much easier.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile

from . import __version__, scalar

log = logging.getLogger("ffzeta.cache")

_ACTIVE = None
_MEMOS: dict = {}


def set_active(cache):
    """Install the process-wide cache consulted by the evaluators."""
    global _ACTIVE
    _ACTIVE = cache


def remember(name: str, key, covers, compute):
    """The entry of memo ``name`` at ``key`` when ``covers(entry)`` holds (or
    ``covers`` is None); otherwise ``compute(stale)``, given the uncovered
    entry or None, becomes the entry and is returned."""
    memo = _MEMOS.setdefault(name, {})
    entry = memo.get(key)
    if entry is not None and (covers is None or covers(entry)):
        return entry
    entry = compute(entry)
    memo[key] = entry
    return entry


def recall(kind: str, key, compute, encode, decode):
    """The memo, then the active persistent cache, then ``compute()``; a
    computed value is stored in both, encoded by ``encode`` for the disk."""
    def load(_):
        store = _ACTIVE
        if store is not None:
            payload = store.get(kind, key)
            if payload is not None:
                return decode(payload)
        value = compute()
        if store is not None:
            store.put(kind, key, encode(value))
        return value

    return remember(kind, key, None, load)


def clear_memos() -> None:
    """Empty every memo of ``remember``; ``scalar.field`` keeps its fields."""
    _MEMOS.clear()


def ratfunc_to_json(r: scalar.RatFunc) -> dict:
    return {"num": [int(c) for c in r.num.coeffs], "den": [int(c) for c in r.den.coeffs]}


def ratfunc_from_json(fld: scalar.Field, data: dict) -> scalar.RatFunc:
    return scalar.RatFunc(scalar.Poly(fld, data["num"]), scalar.Poly(fld, data["den"]))


def bipoly_to_json(b: scalar.BiPoly) -> dict:
    return {"rows": [[int(c) for c in row] for row in b.coeffs]}


def bipoly_from_json(fld: scalar.Field, data: dict) -> scalar.BiPoly:
    rows = data["rows"]
    if not rows:
        return scalar.BiPoly.zero(fld)
    width = max(len(r) for r in rows)
    grid = [list(r) + [0] * (width - len(r)) for r in rows]
    return scalar.BiPoly(fld, grid)


class JsonCache:
    """Content-addressed JSON files under a directory."""

    def __init__(self, directory):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)

    def _path(self, kind: str, key) -> str:
        tag = "_".join(str(int(k)) for k in key)
        return os.path.join(self.directory, f"{kind}__{tag}.json")

    def get(self, kind: str, key):
        path = self._path(kind, key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError) as exc:
            log.warning("ignoring corrupted cache file %s (%s); recomputing", path, exc)
            return None
        if entry.get("version") != __version__ or entry.get("kind") != kind:
            return None
        return entry.get("payload")

    def put(self, kind: str, key, payload) -> None:
        path = self._path(kind, key)
        entry = {
            "kind": kind,
            "key": [int(k) for k in key],
            "version": __version__,
            "payload": payload,
        }
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
