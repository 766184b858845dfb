"""What tools/suite_ab.py reports: quartiles, the median ratio and wins."""

import importlib.util
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def suite_ab():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(_TOOLS))  # it imports bench_pairs, its neighbour
        path = _TOOLS / "suite_ab.py"
        spec = importlib.util.spec_from_file_location("suite_ab", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def test_summary_gives_quartiles_ratio_and_wins(suite_ab):
    got = suite_ab.summary([1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 3.5, 1.0])
    assert got["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert got["change"] == {"median": 1.5, "q1": 0.875, "q3": 2.375}
    assert got["ratio"] == 0.6
    # pairs 1 and 4 are faster, pair 2 is a tie and counts for neither side
    assert got["wins"] == 2 and got["pairs"] == 4
