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
entry version ``VERSION`` (the package version and the payload format; a
mismatch is a silent miss), and are written with atomic renames so
concurrent readers never see a torn file.  A file gets the mode a plain
``open`` gives (0666 less the umask), so a shared cache directory stays
readable to its other users.  Payloads stay JSON, because a
human-inspectable cache makes debugging exact arithmetic much easier.  An
array of F_q elements is fixed-width decimal text: every entry is
zero-padded to w = len(str(q - 1)) characters, so for q <= 10 a row of an
H_n grid reads like the grid row.  A grid is a list of row strings, a
polynomial one string, and the decoder takes w from the field, so no width
is stored.  The largest H_n an evaluator asks for (q = 2, n = 149) is
about 256 KB.  The encoder writes the digits plus 48 as bytes, one numpy
pass per digit place, and cuts the rows from one string; the decoder reads
every row through one ``np.frombuffer``.  An entry is encoded by one
``json.dumps`` and written by one ``write``: ``json.dump`` to a file never
uses the C encoder.  A payload that is valid JSON but not a valid value (a
row that is not a string, a character that is not an ASCII digit, a row
length that is not a multiple of w, an entry not below q, a zero
denominator) counts as a miss, like a corrupted file: it is logged,
recomputed and overwritten.  Rows shorter than the longest, as a hand
edit may leave them, are padded with zeros.
"""

from __future__ import annotations

import json
import logging
import os

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


VERSION = f"{__version__}+digit-text"


def _width(q: int) -> int:
    """Characters per entry in the digit text of F_q elements."""
    return len(str(q - 1))


def _to_text(q: int, grid: np.ndarray) -> list:
    """The rows of a 2-D grid of F_q elements as digit text."""
    w = _width(q)
    chars = np.empty(grid.shape + (w,), dtype=np.uint8)
    rest = grid
    for k in range(w - 1, 0, -1):
        rest, digit = np.divmod(rest, 10)
        chars[:, :, k] = digit + 48
    chars[:, :, 0] = rest + 48
    text, size = chars.tobytes().decode("ascii"), grid.shape[1] * w
    return [text[i * size:(i + 1) * size] for i in range(grid.shape[0])]


def _from_text(q: int, rows) -> np.ndarray:
    """Rows of digit text as a 2-D int64 grid of F_q elements, short rows
    padded with zeros; ValueError for anything else."""
    if not isinstance(rows, list) or not all(isinstance(row, str) for row in rows):
        raise ValueError("not a list of digit strings")
    w = _width(q)
    lengths = [len(row) for row in rows]
    if any(n % w for n in lengths):
        raise ValueError(f"a row length is not a multiple of {w}")
    cols = max(lengths, default=0)
    text = "".join(row.ljust(cols, "0") for row in rows).encode("ascii")
    digits = np.frombuffer(text, dtype=np.uint8).reshape(len(rows), cols // w, w) - 48
    if digits.size and digits.max() > 9:  # a character below '0' wraps past 9
        raise ValueError("a character is not a digit")
    grid = digits[:, :, 0].astype(np.int64)
    for k in range(1, w):
        grid = grid * 10 + digits[:, :, k]
    if grid.size and grid.max() >= q:
        raise ValueError(f"an entry is not below {q}")
    return grid


def ratfunc_to_json(r: scalar.RatFunc) -> dict:
    q = r.field.q
    return {"num": _to_text(q, r.num.coeffs[None])[0], "den": _to_text(q, r.den.coeffs[None])[0]}


def ratfunc_from_json(fld: scalar.Field, data: dict) -> scalar.RatFunc:
    num, den = _from_text(fld.q, [data["num"]])[0], _from_text(fld.q, [data["den"]])[0]
    if not den.any():
        raise ValueError("zero denominator")
    return scalar.RatFunc(scalar.Poly(fld, num), scalar.Poly(fld, den))


def bipoly_to_json(b: scalar.BiPoly) -> dict:
    return {"rows": _to_text(b.field.q, b.coeffs)}


def bipoly_from_json(fld: scalar.Field, data: dict) -> scalar.BiPoly:
    return scalar.BiPoly(fld, _from_text(fld.q, data["rows"]))


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
        if entry.get("version") != VERSION or entry.get("kind") != kind:
            return None
        return entry.get("payload")

    def put(self, kind: str, key, payload) -> None:
        path = self._path(kind, key)
        entry = {
            "kind": kind,
            "key": [int(k) for k in key],
            "version": VERSION,
            "payload": payload,
        }
        # a unique name, created like a plain open: mode 0666 less the umask
        tmp = f"{path}.{os.getpid()}.{os.urandom(8).hex()}.tmp"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(entry, sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
