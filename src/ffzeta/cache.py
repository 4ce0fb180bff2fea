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
renames so concurrent readers never see a torn file.  Payloads stay JSON,
because a human-inspectable cache makes debugging exact arithmetic much
easier; the largest H_n an evaluator asks for (q = 2, n = 149) is about
0.8 MB of it.  An entry is encoded by one ``json.dumps`` and written by
one ``write``: ``json.dump`` to a file never uses the C encoder and
streams through the pure-Python one, which costs more than building the
H_n.  Arrays go out through ``tolist`` and come back through one
``np.asarray``.  A payload that is valid JSON but not a valid value (an
entry outside 0..q-1 or not an int, a grid that is not 2-D, a zero
denominator) counts as a miss, like a corrupted file: it is logged,
recomputed and overwritten.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile

import numpy as np

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
                try:
                    return decode(payload)
                except (KeyError, TypeError, ValueError) as exc:  # a payload of the wrong shape
                    log.warning("ignoring corrupted cache file %s (%s); recomputing",
                                store._path(kind, key), exc)
        value = compute()
        if store is not None:
            store.put(kind, key, encode(value))
        return value

    return remember(kind, key, None, load)


def clear_memos() -> None:
    """Empty every memo of ``remember``; ``scalar.field`` keeps its fields."""
    _MEMOS.clear()


def _elements(fld: scalar.Field, values, ndim: int) -> np.ndarray:
    """``values`` as an int64 array of F_q elements with ``ndim`` axes;
    ValueError for anything else (floats, bools, strings, entries outside
    0..q-1, another shape)."""
    arr = np.asarray(values)
    if arr.ndim != ndim:
        raise ValueError(f"not a {ndim}-D array")
    if arr.size and (arr.dtype.kind not in "iu" or arr.min() < 0 or arr.max() >= fld.q):
        raise ValueError(f"entries are not ints in 0..{fld.q - 1}")
    return arr.astype(np.int64, copy=False)


def ratfunc_to_json(r: scalar.RatFunc) -> dict:
    return {"num": r.num.coeffs.tolist(), "den": r.den.coeffs.tolist()}


def ratfunc_from_json(fld: scalar.Field, data: dict) -> scalar.RatFunc:
    num, den = _elements(fld, data["num"], 1), _elements(fld, data["den"], 1)
    if not den.any():
        raise ValueError("zero denominator")
    return scalar.RatFunc(scalar.Poly(fld, num), scalar.Poly(fld, den))


def bipoly_to_json(b: scalar.BiPoly) -> dict:
    return {"rows": b.coeffs.tolist()}


def bipoly_from_json(fld: scalar.Field, data: dict) -> scalar.BiPoly:
    rows = data["rows"]
    try:
        grid = np.asarray(rows)
    except ValueError:  # ragged rows, as in a hand-edited file
        width = max(len(r) for r in rows)
        grid = [list(r) + [0] * (width - len(r)) for r in rows]
    if np.shape(grid) == (0,):
        return scalar.BiPoly.zero(fld)
    return scalar.BiPoly(fld, _elements(fld, grid, 2))


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
            if not isinstance(entry, dict):
                raise ValueError("not a JSON object")
        except FileNotFoundError:
            return None
        except (ValueError, OSError) as exc:  # bad JSON or UTF-8 is a ValueError too
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
                fh.write(json.dumps(entry, sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
