"""Enumeration: order generation, multiplication search, canonical forms, search."""

import hashlib
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
    naive_space,
)
from comaxlat import enumeration
from comaxlat.cli import main
from comaxlat.core import (
    LatticeSpec,
    ValidationError,
    multiplication_violations,
    validate_lattice,
)
from comaxlat.enumeration import (
    OrderTable,
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
# Size 8 is checked under --size8 only, with the cap raised inside the test.
# 222 orders (OEIS A006966); the per-order counts were frozen from the
# search that propagated distributivity over two lower covers per element.
SIZE8_ORDER_COUNT = 222
SIZE8_MULT_COUNTS = (
    [0] * 78 + [1] + [0] * 67 + [6] + [0] * 12
    + [
        2, 0, 9, 0, 0, 0, 1, 2, 7, 50, 1, 1, 1, 2, 12, 1, 1, 1, 1, 2, 2, 3,
        26, 2, 3, 23, 46, 2, 2, 4, 2, 3, 6, 25, 2, 4, 4, 12, 16, 41, 3, 12,
        28, 16, 71, 156, 44, 257, 5, 8, 13, 37, 12, 35, 21, 66, 163, 325,
        24, 135, 298, 268, 2386,
    ]
)
# sha256 of repr([_mult_tables(order) for order in the orders of size n]):
# the raw search output, per order and before dedup, frozen from that same
# search.  Pruning may only cut branches that hold no table, so a changed
# digest means a lost table or a reordering.
RAW_SEARCH_DIGESTS = {
    1: "cf1cbb66a638b4860a516671fb74850e6ccf787fe6c4c8d29e9c04efe880bd05",
    2: "1fc5c2a1a680332d91900028c838ba4bf18ed1ecee04bb9657263a4eb880ecde",
    3: "f461602b9c86feced42a2401d78f1f9386b3a203abab22ac6ffc65bf439b1c29",
    4: "4670c9821f896c5fc397045954b188995849ebfa7767b68c3cd960a0ea574494",
    5: "fcdc3a9006e0f498546294241efc5130a245f92937506cf7bc8e84a8d2f2f79e",
    6: "14d3aacf1b0aa68f0e851abee63145b155a2be11e66fb2b5f416e37e84dc93c3",
    7: "282c87e2087bdc82c1fd7639f56930ae2f730133073cc398c999305a4bed5c8b",
    8: "5fe4c2e16fafa2260fac0c6adade460b9662e9ac3bfbf9e68c1b93c3bebbc0d3",
}

# The largest naive space (see bruteforce.naive_space) filled at size 7.
NAIVE_SPACE_MAX = 200_000


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


def _raw_search_digest(orders) -> str:
    tables = [enumeration._mult_tables(order) for order in orders]
    return hashlib.sha256(repr(tables).encode()).hexdigest()


def test_pruned_search_agrees_with_naive_fill(deep_size):
    for n in range(2, deep_size + 1):
        for order in enumerate_bounded_lattices(n):
            naive_tables = naive_multiplications(order)
            assert set(enumeration._mult_tables(order)) == set(naive_tables)
            fast = len(enumerate_multiplications(order))
            naive = count_iso_classes(order, naive_tables)
            assert fast == naive, f"{order.name}"


def test_raw_search_output_frozen():
    for n in range(1, 7):
        got = _raw_search_digest(enumerate_bounded_lattices(n))
        assert got == RAW_SEARCH_DIGESTS[n], f"size {n}"


def test_search_completes_only_solutions():
    # every table the search completes passes the full axiom check, not
    # only the orbit representatives that from_tables checks
    for n in range(1, 7):
        labels = tuple(map(str, range(n)))
        for order in enumerate_bounded_lattices(n):
            for tab in enumeration._mult_tables(order):
                assert not multiplication_violations(
                    labels, order.join, tab, order.bottom, order.top
                ), (order.name, tab)


def test_wrong_search_table_is_refused(monkeypatch):
    # from_tables is the one full axiom check: a table the search got
    # wrong raises instead of vanishing
    chain = enumerate_bounded_lattices(4)[1]  # 0 < 2 < 1 < 3
    # 1*1 = 2 and 1*2 = 2, so (1*1)*2 = 2*2 = 0 but 1*(1*2) = 2
    wrong = ((0, 0, 0, 0), (0, 2, 2, 1), (0, 2, 0, 2), (0, 1, 2, 3))
    monkeypatch.setattr(enumeration, "_mult_tables", lambda order: [wrong])
    with pytest.raises(ValidationError) as exc:
        enumerate_multiplications(chain)
    assert exc.value.codes() == {"NotAssociative"}


def test_size7_search_agrees_with_naive_fill(request):
    # the independent oracle at size 7, on every order whose naive space
    # (the product of the free cells' domain sizes) is small enough
    if not request.config.getoption("--size7"):
        pytest.skip("needs --size7")
    orders = tables = 0
    for order in enumerate_bounded_lattices(7, size_cap=7):
        if naive_space(order) > NAIVE_SPACE_MAX:
            continue
        naive_tables = naive_multiplications(order)
        assert set(enumeration._mult_tables(order)) == set(naive_tables), order.name
        orders += 1
        tables += len(naive_tables)
    assert (orders, tables) == (35, 21)


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
    assert enumerate_bounded_lattices(1) == [
        OrderTable("U1_0", 1, (1,), ((0,),), ((0,),), 0, 0)
    ]
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


def test_size7_raw_search_output_frozen(universe7):
    orders = enumerate_bounded_lattices(7, size_cap=7)
    assert _raw_search_digest(orders) == RAW_SEARCH_DIGESTS[7]


def test_size8_counts_frozen(request, monkeypatch):
    if not request.config.getoption("--size8"):
        pytest.skip("needs --size8")
    monkeypatch.setattr(enumeration, "HARD_SIZE_CAP", 8)
    orders = enumerate_bounded_lattices(8, size_cap=8)
    assert len(orders) == SIZE8_ORDER_COUNT
    assert _raw_search_digest(orders) == RAW_SEARCH_DIGESTS[8]
    assert [len(enumeration._mult_reps(o)) for o in orders] == SIZE8_MULT_COUNTS
    assert sum(SIZE8_MULT_COUNTS) == 4712


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
            mapped.append(len(items))
            return map(fn, items)

    mapped = []
    monkeypatch.setattr(enumeration, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(enumeration, "_UNIVERSE_CACHE", {})
    par = enumerated_universe(5, workers=5000)
    # one pool for every size, as large as the orders it maps (sizes 1-5)
    assert mapped == [sum(BOUNDED_LATTICE_COUNTS[n] for n in range(1, 6))]
    assert sizes == mapped
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


def test_quotient_condition_predicates_are_unknown(capsys):
    # No finite domain with n >= 3 satisfies the quotient condition of
    # thm_cq_generators (an atom t has t*t = t, so (t*t : t) = 1 is not
    # below rad t), so no search predicate tests it.
    for name in ("thm15_hypothesis_nontrivial", "thm15"):
        with pytest.raises(UnknownPredicate):
            search(SearchQuery(size_max=4, predicate=name))
        assert main(["enumerate", "--size", "3", "--predicate", name]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: unknown predicate {name!r} (atom {name!r})\n"
        )
        assert captured.out == ""


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
