"""The bit-identity grid (tests/golden_grid.py) against its recorded
digests in tests/golden.json."""

import json

import pytest

from golden_grid import GOLDEN, QS, digests


@pytest.mark.parametrize("q", QS)
def test_outputs_match_the_recorded_grid(q):
    recorded = json.loads(GOLDEN.read_text())
    now = digests(q)
    changed = sorted(key for key, value in now.items() if recorded.get(key) != value)
    assert not changed, f"outputs differ from tests/golden.json: {changed}"
