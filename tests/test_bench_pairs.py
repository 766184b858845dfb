"""What tools/bench_pairs.py reports: quartiles, runs and win counts."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _runs(values):
    return [{"metrics": {"m": {"value": v}}} for v in values]


def test_wins_follow_the_better_direction_and_ties_count_for_neither():
    parent, change = _runs([1, 2, 3, 4]), _runs([0, 2, 4, 3])
    for better, wins in (("lower", 2), ("higher", 1)):
        spec = [{"name": "m", "unit": "s", "better": better}]
        got = bench_pairs.compare(parent, change, spec)["m"]
        assert got["change_wins"] == wins and got["pairs"] == 4
        assert got["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25}
        assert got["runs"] == {"parent": [1, 2, 3, 4], "change": [0, 2, 4, 3]}
