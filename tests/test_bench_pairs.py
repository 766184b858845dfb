"""What tools/bench_pairs.py reports: quartiles, runs, win counts, verdicts."""

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
        spec = [{"name": "m", "unit": "s", "better": better, "bound": 0.2}]
        got = bench_pairs.compare(parent, change, spec)["m"]
        assert got["change_wins"] == wins and got["pairs"] == 4
        assert got["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25}
        assert got["runs"] == {"parent": [1, 2, 3, 4], "change": [0, 2, 4, 3]}


def _verdict(parent, change, better="lower", bound=0.2):
    spec = [{"name": "m", "unit": "s", "better": better, "bound": bound}]
    return bench_pairs.compare(_runs(parent), _runs(change), spec)["m"]["verdict"]


def test_verdict_worse_when_the_median_moves_past_the_bound():
    # parent median 10, change median 12.5: 25 % worse against a 20 % bound
    assert _verdict([9, 10, 10, 11], [12, 12.5, 12.5, 13]) == "worse"
    assert _verdict([9, 10, 10, 11], [7, 7.5, 7.5, 8], better="higher") == "worse"


def test_verdict_unresolved_when_the_parent_spreads_past_the_bound():
    # parent quartiles 7.75 and 12.25 around a median of 10: a spread of 45 %
    parent = [4, 9, 11, 16]
    assert _verdict(parent, [9, 10, 10, 11]) == "unresolved"
    # unless every change run beats every parent run
    assert _verdict(parent, [1, 2, 2, 3]) == "within_bound"


def test_verdict_within_bound():
    parent, change = [9, 10, 10, 11], [10, 11, 11, 12]
    assert _verdict(parent, change) == "within_bound"
    assert _verdict(parent, change, better="higher") == "within_bound"
