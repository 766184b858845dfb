"""Enumeration: order generation, multiplication search, canonical forms, search."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import (
    axioms_hold,
    canonical_form_by_all_relabelings,
    count_bounded_lattices,
    count_iso_classes,
    naive_multiplications,
)
from comaxlat import enumeration
from comaxlat.cli import main
from comaxlat.core import LatticeSpec, validate_lattice
from comaxlat.enumeration import (
    SearchQuery,
    SizeCapExceeded,
    UnknownPredicate,
    canonical_form,
    enumerate_bounded_lattices,
    enumerate_multiplications,
    enumerated_universe,
    search,
)
from comaxlat.presets import PRESET_NAMES, preset, preset_spec

# Regression values.  The per-order structure counts were frozen after the
# pruned search and the naive fill (bruteforce.naive_multiplications) agreed
# on every order up to size 6; the naive side is re-run below for sizes <= 5
# on every test run, and for size 6 under --size6.
BOUNDED_LATTICE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15}
MULT_COUNTS = {
    1: [0],
    2: [1],
    3: [2],
    4: [1, 6],
    5: [0, 0, 1, 3, 22],
    6: [0, 0, 0, 0, 0, 0, 0, 2, 0, 3, 1, 4, 13, 12, 94],
}
TOTALS = {1: 0, 2: 1, 3: 2, 4: 7, 5: 26, 6: 129}
# Per-order counts at size 7, frozen from the search without associativity
# pruning; checked under --size7.
SIZE7_MULT_COUNTS = [0] * 34 + [
    2, 0, 1, 11, 1, 1, 2, 9, 2, 4, 3, 12, 27, 55, 5, 24, 60, 53, 451
]


def test_bounded_lattice_counts_frozen():
    for n, expect in BOUNDED_LATTICE_COUNTS.items():
        assert len(enumerate_bounded_lattices(n)) == expect


def test_bounded_lattice_counts_match_poset_filter_oracle():
    for n in range(1, 7):
        assert count_bounded_lattices(n) == BOUNDED_LATTICE_COUNTS[n]


def test_multiplication_counts_frozen():
    for n, per_order in MULT_COUNTS.items():
        orders = enumerate_bounded_lattices(n)
        got = [len(enumerate_multiplications(o)) for o in orders]
        assert got == per_order, f"size {n}"
        assert sum(got) == TOTALS[n]


def test_pruned_search_agrees_with_naive_fill(deep_size):
    for n in range(2, deep_size + 1):
        for order in enumerate_bounded_lattices(n):
            fast = len(enumerate_multiplications(order))
            naive = count_iso_classes(order, naive_multiplications(order))
            assert fast == naive, f"{order.name}"


def test_two_and_three_chains():
    two = enumerate_bounded_lattices(2)[0]
    assert len(enumerate_multiplications(two)) == 1
    three = enumerate_bounded_lattices(3)[0]
    ms = enumerate_multiplications(three)
    assert len(ms) == 2
    # the middle element squares to itself or to the bottom
    squares = sorted(L.mul2(1, 1) for L in ms)
    assert squares == [0, 1]


def test_single_element_order_has_no_structures():
    one = enumerate_bounded_lattices(1)[0]
    assert enumerate_multiplications(one) == []


def test_emitted_lattices_satisfy_all_axioms(universe5):
    for L in universe5:
        assert axioms_hold(L)
        again = validate_lattice(L.to_spec())
        assert canonical_form(again) == canonical_form(L)


def test_no_duplicate_canonical_forms(universe6):
    forms = [canonical_form(L) for L in universe6]
    assert len(forms) == len(set(forms))


def test_presets_appear_in_the_size6_universe(universe6):
    forms = {canonical_form(L) for L in universe6}
    for name in PRESET_NAMES:
        assert canonical_form(preset(name)) in forms, name


def test_size_cap():
    with pytest.raises(SizeCapExceeded):
        enumerate_bounded_lattices(7)
    with pytest.raises(SizeCapExceeded):
        enumerate_bounded_lattices(8, size_cap=7)
    with pytest.raises(ValueError):
        enumerate_bounded_lattices(0)
    with pytest.raises(SizeCapExceeded):
        enumerated_universe(7)
    with pytest.raises(SizeCapExceeded):
        search(SearchQuery(size_max=7, predicate="not_cpr"))


def test_size7_orders_behind_flag(deep_size):
    if deep_size < 6:
        pytest.skip("needs --size6")
    assert len(enumerate_bounded_lattices(7, size_cap=7)) == 53


def test_size7_counts_frozen(universe7):
    orders = enumerate_bounded_lattices(7, size_cap=7)
    assert len(orders) == 53
    per_order = Counter(L.name.rsplit("_", 1)[0] for L in universe7 if L.n == 7)
    assert [per_order[o.name] for o in orders] == SIZE7_MULT_COUNTS
    assert sum(SIZE7_MULT_COUNTS) == 723


def _catalog_matches_fresh_canonical_forms(universe, size, tmp_path):
    argv = ["enumerate", "--size", str(size), "--out", str(tmp_path)]
    assert main(argv + (["--allow-size-7"] if size > 6 else [])) == 0
    canon = {}
    for line in (tmp_path / "index.txt").read_text().splitlines():
        name, _, field = line.split()[:3]
        canon[name] = bytes.fromhex(field.removeprefix("canon="))
    assert sorted(canon) == sorted(L.name for L in universe)
    rng = random.Random(size)
    for L in universe:
        spec = L.to_spec()
        shuffled = list(spec.elements)
        rng.shuffle(shuffled)
        relabeled = validate_lattice(
            LatticeSpec(
                spec.name, tuple(shuffled), spec.order_pairs, spec.mul_entries
            )
        )
        assert canonical_form(relabeled) == canon[L.name], L.name
        assert canonical_form_by_all_relabelings(L) == canon[L.name], L.name


def test_catalog_canon_matches_fresh_canonical_form(universe6, tmp_path, capsys):
    _catalog_matches_fresh_canonical_forms(universe6, 6, tmp_path)


def test_size7_catalog_canon_matches_fresh_canonical_form(
    universe7, tmp_path, capsys
):
    _catalog_matches_fresh_canonical_forms(universe7, 7, tmp_path)


def test_universe_is_deterministic_and_cached(universe5):
    again = enumerated_universe(5)
    assert [L.name for L in again] == [L.name for L in universe5]
    assert [canonical_form(L) for L in again] == [
        canonical_form(L) for L in universe5
    ]


def test_workers_do_not_change_results(universe5):
    par = enumerated_universe(5, workers=2)
    assert [canonical_form(L) for L in par] == [
        canonical_form(L) for L in universe5
    ]


def test_worker_pool_is_no_larger_than_the_order_count(monkeypatch, universe5):
    # a stand-in pool that records its size and maps inline: no process starts
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(enumeration, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(enumeration, "_UNIVERSE_CACHE", {})
    par = enumerated_universe(5, workers=5000)
    assert sizes == [BOUNDED_LATTICE_COUNTS[4], BOUNDED_LATTICE_COUNTS[5]]
    assert [canonical_form(L) for L in par] == [canonical_form(L) for L in universe5]


# -- search ------------------------------------------------------------------


def test_search_separations(universe6):
    hits = search(SearchQuery(size_max=6, predicate="cpp_not_cq"))
    forms = {canonical_form(L) for L, _ in hits}
    assert canonical_form(preset("L1")) in forms

    hits = search(SearchQuery(size_max=6, predicate="cq_dim_ge_2"))
    forms = {canonical_form(L) for L, _ in hits}
    assert canonical_form(preset("E16")) in forms

    assert search(SearchQuery(size_max=6, predicate="cq_not_cpr")) == []
    assert search(SearchQuery(size_max=6, predicate="cpp_not_cpr")) == []
    assert search(SearchQuery(size_max=6, predicate="treed_not_cpr")) == []


def test_search_dedekind_is_exactly_the_two_chain():
    hits = search(SearchQuery(size_max=6, predicate="dedekind"))
    assert [L.n for L, _ in hits] == [2]


def test_search_quotient_hypothesis_reported_absent_at_small_sizes(capsys):
    hits = search(SearchQuery(size_max=6, predicate="thm15_hypothesis_nontrivial"))
    print(f"nontrivial quotient-hypothesis examples at size <= 6: {len(hits)}")
    # if one ever shows up, its three equivalent conditions must agree
    from comaxlat.theorems import check_entry

    for L, _rep in hits:
        entry = check_entry(L, "thm_cq_generators")
        assert entry.conclusion_holds is not False


def test_search_custom_conjunctions():
    hits = search(SearchQuery(size_max=5, predicate="cpr&!cq&!cpp"))
    assert hits
    for _, rep in hits:
        assert rep.is_cpr_lattice and not rep.is_cq_lattice
        assert not rep.is_cpp_lattice
    hits = search(SearchQuery(size_max=5, predicate="domain&dim=1"))
    for _, rep in hits:
        assert rep.is_domain and rep.dimension == 1


def test_search_limit_and_unknown_predicate():
    hits = search(SearchQuery(size_max=5, predicate="cq_not_cpp", limit=3))
    assert len(hits) == 3
    with pytest.raises(UnknownPredicate):
        search(SearchQuery(size_max=4, predicate="frobnicated"))
    with pytest.raises(UnknownPredicate):
        search(SearchQuery(size_max=4, predicate="cpr&bogus"))


# -- canonical forms -----------------------------------------------------------


@given(
    name=st.sampled_from(PRESET_NAMES),
    seed=st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None)
def test_canonical_form_invariant_under_relabeling(name, seed):
    spec = preset_spec(name)
    order = list(spec.elements)
    seed.shuffle(order)
    relabeled = validate_lattice(
        LatticeSpec(spec.name, tuple(order), spec.order_pairs, spec.mul_entries)
    )
    assert canonical_form(relabeled) == canonical_form(preset(name))


def test_canonical_form_separates_the_presets():
    forms = {name: canonical_form(preset(name)) for name in PRESET_NAMES}
    for a, b in itertools.combinations(PRESET_NAMES, 2):
        assert forms[a] != forms[b]
