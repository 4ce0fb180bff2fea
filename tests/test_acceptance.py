"""The acceptance gate: every criterion must pass within its time limit.

Each criterion prints its own pass line (-v shows one line per criterion);
the timing asserts use the limits pinned in ffzeta.acceptance.CRITERIA.
"""

import time

import pytest

from ffzeta import acceptance
from ffzeta.scalar import Poly, field


@pytest.mark.parametrize(
    "name,fn,limit", acceptance.CRITERIA, ids=[c[0] for c in acceptance.CRITERIA]
)
def test_criterion(name, fn, limit):
    start = time.monotonic()
    detail = fn()
    elapsed = time.monotonic() - start
    print(f"PASS {name} ({elapsed:.1f}s): {detail}")
    assert elapsed < limit, f"{name} took {elapsed:.1f}s, limit {limit:.0f}s"


def test_run_suite_quick_mode(capsys):
    rc = acceptance.run_suite(quick=True)
    out = capsys.readouterr().out
    assert rc == 0
    assert "SKIP 8-relation-hunter" in out
    assert out.count("PASS") == len(acceptance.CRITERIA) - 1


def test_proportional():
    fld = field(5)

    def polys(*lists):
        return tuple(Poly(fld, c) for c in lists)

    a = polys([1, 2], [], [3])
    assert acceptance._proportional(fld, a, a)
    assert acceptance._proportional(fld, a, polys([2, 4], [], [1]))  # ratio 3
    assert acceptance._proportional(fld, polys([], [1]), polys([], [4]))
    assert not acceptance._proportional(fld, a, polys([2, 4], [], [2]))  # two ratios
    assert not acceptance._proportional(fld, a, polys([1, 2], [1], [3]))  # zero pattern
    assert not acceptance._proportional(fld, a, polys([1], [], [3]))  # degree
    assert not acceptance._proportional(fld, polys([], [1]), polys([1], [1]))
    assert not acceptance._proportional(fld, polys([], []), polys([], []))
