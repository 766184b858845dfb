"""Enumeration: order generation, multiplication search, canonical forms, search."""

import hashlib
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import (
    adjoin_bottom,
    axioms_hold,
    boolean_lattice,
    bounded_lattice_orders_naive,
    canonical_form_by_all_relabelings,
    canonical_order_naive,
    chain_lattice,
    count_bounded_lattices,
    count_iso_classes,
    naive_multiplications,
    naive_space,
    order_automorphisms_naive,
    product_lattice,
)
from comaxlat import enumeration
from comaxlat.cli import main
from comaxlat.core import (
    LatticeSpec,
    ValidationError,
    _order_facts,
    multiplication_violations,
    validate_lattice,
)
from comaxlat.enumeration import (
    OrderTable,
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
# Decomposable lattices per size, one per product A x B with |A|, |B| >= 2.
DECOMPOSABLE_COUNTS = {2: 0, 3: 0, 4: 1, 5: 0, 6: 2, 7: 0}
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

# Labelings the order stage places, one _canonical_order call each: only
# those whose down-set sizes never decrease.  Size 8 is checked under --size8.
PLACED_LABELINGS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 6, 6: 25, 7: 141}
SIZE8_PLACED_LABELINGS = 1007
# Size 9, checked under --size8: 1,078 orders (OEIS A006966).
SIZE9_ORDER_COUNT = 1078
SIZE9_PLACED_LABELINGS = 8892

# The largest naive space (see bruteforce.naive_space) filled at size 7.
NAIVE_SPACE_MAX = 200_000


def test_bounded_lattice_counts_frozen():
    for n, expect in BOUNDED_LATTICE_COUNTS.items():
        assert len(enumerate_bounded_lattices(n)) == expect


def test_bounded_lattice_counts_match_poset_filter_oracle():
    for n in range(1, 7):
        assert count_bounded_lattices(n) == BOUNDED_LATTICE_COUNTS[n]


def _placed_labelings(monkeypatch, n: int) -> int:
    calls = []
    original = enumeration._canonical_order

    def counted(up):
        calls.append(up)
        return original(up)

    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "_canonical_order", counted)
        enumerate_bounded_lattices(n)
    return len(calls)


def test_order_stage_places_only_size_sorted_labelings(monkeypatch):
    got = {n: _placed_labelings(monkeypatch, n) for n in PLACED_LABELINGS}
    assert got == PLACED_LABELINGS


def test_order_stage_agrees_with_every_linear_extension():
    for n in range(1, 8):
        got = [o.up for o in enumerate_bounded_lattices(n)]
        assert got == bounded_lattice_orders_naive(n), f"size {n}"


def _check_kernel_against_twin(orders) -> None:
    # each order as given and under two seeded relabelings of its middle
    rng = random.Random(len(orders))
    for order in orders:
        n = order.n
        ups = [order.up]
        for _ in range(2):
            mid = list(range(1, n - 1))
            rng.shuffle(mid)
            perm = (0, *mid, n - 1) if n > 1 else (0,)
            ups.append(enumeration._permute_up(order.up, perm, n))
        for up in ups:
            assert enumeration._canonical_order(up) == canonical_order_naive(up), (
                order.name,
                up,
            )


def test_canonical_order_matches_the_naive_twin():
    _check_kernel_against_twin(
        [o for n in range(1, 8) for o in enumerate_bounded_lattices(n)]
    )
    # the 10-chain, M_6 (six atoms under one top) and the 8-element Boolean
    # order: one, 720 and 6 relabelings reach the minimum
    m6 = ((1 << 8) - 1, *(1 << i | 1 << 7 for i in range(1, 7)), 1 << 7)
    shapes = {chain_lattice(10)._up: 1, m6: 720, boolean_lattice(3)._up: 6}
    for up, reach in shapes.items():
        got = enumeration._canonical_order(up)
        assert got == canonical_order_naive(up)
        assert len(got[1]) == reach


def test_size8_canonical_order_matches_the_naive_twin(request, monkeypatch):
    if not request.config.getoption("--size8"):
        pytest.skip("needs --size8")
    monkeypatch.setattr(enumeration, "HARD_SIZE_CAP", 8)
    _check_kernel_against_twin(enumerate_bounded_lattices(8))


def _check_kernel_with_the_bounds_anywhere(ups) -> None:
    # sigma moves the bottom and the top too; the relabelings that reach the
    # canonical up-masks of sigma.up are exactly pi o sigma^-1, for pi those
    # of the order as given
    rng = random.Random(len(ups))
    for up in ups:
        n = len(up)
        assert up[0] == (1 << n) - 1 and up[-1] == 1 << n - 1  # bounds 0, n-1
        canon, reach = enumeration._canonical_order(up)
        for _ in range(2):
            sigma = list(range(n))
            while n > 1 and (sigma[0] == 0 or sigma[-1] == n - 1):
                rng.shuffle(sigma)
            inverse = sorted(range(n), key=sigma.__getitem__)
            moved = enumeration._permute_up(up, tuple(sigma), n)
            expected = tuple(sorted(tuple(pi[y] for y in inverse) for pi in reach))
            assert enumeration._canonical_order(moved) == (canon, expected), (
                up,
                sigma,
            )


def test_canonical_order_takes_the_bounds_anywhere():
    m6 = ((1 << 8) - 1, *(1 << i | 1 << 7 for i in range(1, 7)), 1 << 7)
    _check_kernel_with_the_bounds_anywhere(
        [o.up for n in range(1, 8) for o in enumerate_bounded_lattices(n)]
        + [m6, chain_lattice(10)._up, boolean_lattice(3)._up]
    )


def test_size8_canonical_order_takes_the_bounds_anywhere(request, monkeypatch):
    if not request.config.getoption("--size8"):
        pytest.skip("needs --size8")
    monkeypatch.setattr(enumeration, "HARD_SIZE_CAP", 8)
    _check_kernel_with_the_bounds_anywhere(
        [o.up for o in enumerate_bounded_lattices(8)]
    )


def _check_order_automorphisms(orders) -> None:
    for order in orders:
        autos = enumeration.order_automorphisms(order)
        assert autos[0] == tuple(range(order.n)), order.name
        for p in autos:
            assert enumeration._permute_up(order.up, p, order.n) == order.up
        assert sorted(autos) == order_automorphisms_naive(order), order.name


def test_order_automorphisms_match_direct_search():
    _check_order_automorphisms(
        o for n in range(1, 7) for o in enumerate_bounded_lattices(n)
    )


def test_size7_order_automorphisms_match_direct_search(request):
    if not request.config.getoption("--size7"):
        pytest.skip("needs --size7")
    _check_order_automorphisms(enumerate_bounded_lattices(7))


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
                    labels, _order_facts(order.up), tab, order.bottom, order.top
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
    for order in enumerate_bounded_lattices(7):
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
    with pytest.raises(SizeCapExceeded, match="size 8 exceeds the cap 7"):
        enumerate_bounded_lattices(8)
    with pytest.raises(ValueError):
        enumerate_bounded_lattices(0)
    with pytest.raises(SizeCapExceeded):
        enumerated_universe(7)
    with pytest.raises(SizeCapExceeded, match="size 7 exceeds the cap 6"):
        search(7, "not_cpr")
    with pytest.raises(SizeCapExceeded, match="size 8 exceeds the cap 7"):
        search(8, "not_cpr", size_cap=8)
    # the predicate is compiled before the size is checked
    with pytest.raises(UnknownPredicate):
        search(8, "bogus", size_cap=7)


def test_canonical_form_refuses_more_than_10_elements(monkeypatch):
    # 11 elements would mean up to 9! relabelings; the kernel is never reached
    def refuse(up):
        raise AssertionError("the order kernel was called")

    monkeypatch.setattr(enumeration, "_canonical_order", refuse)
    with pytest.raises(SizeCapExceeded, match="at most 10 elements, got 11"):
        canonical_form(chain_lattice(11))


def test_size7_orders_behind_flag(deep_size):
    if deep_size < 6:
        pytest.skip("needs --size6")
    assert len(enumerate_bounded_lattices(7)) == 53


def test_size7_counts_frozen(universe7):
    orders = enumerate_bounded_lattices(7)
    assert len(orders) == 53
    per_order = Counter(L.name.rsplit("_", 1)[0] for L in universe7 if L.n == 7)
    assert [per_order[o.name] for o in orders] == SIZE7_MULT_COUNTS
    assert sum(SIZE7_MULT_COUNTS) == 723


def test_size7_raw_search_output_frozen(universe7):
    orders = enumerate_bounded_lattices(7)
    assert _raw_search_digest(orders) == RAW_SEARCH_DIGESTS[7]


def test_size8_counts_frozen(request, monkeypatch):
    if not request.config.getoption("--size8"):
        pytest.skip("needs --size8")
    monkeypatch.setattr(enumeration, "HARD_SIZE_CAP", 8)
    orders = enumerate_bounded_lattices(8)
    assert len(orders) == SIZE8_ORDER_COUNT
    assert _raw_search_digest(orders) == RAW_SEARCH_DIGESTS[8]
    assert [len(enumeration._mult_reps(o)) for o in orders] == SIZE8_MULT_COUNTS
    assert sum(SIZE8_MULT_COUNTS) == 4712


def test_size8_order_stage_agrees_with_every_linear_extension(request, monkeypatch):
    if not request.config.getoption("--size8"):
        pytest.skip("needs --size8")
    monkeypatch.setattr(enumeration, "HARD_SIZE_CAP", 8)
    assert _placed_labelings(monkeypatch, 8) == SIZE8_PLACED_LABELINGS
    got = [o.up for o in enumerate_bounded_lattices(8)]
    assert got == bounded_lattice_orders_naive(8)


def test_size9_order_stage_frozen(request, monkeypatch):
    if not request.config.getoption("--size8"):
        pytest.skip("needs --size8")
    monkeypatch.setattr(enumeration, "HARD_SIZE_CAP", 9)
    assert _placed_labelings(monkeypatch, 9) == SIZE9_PLACED_LABELINGS
    assert len(enumerate_bounded_lattices(9)) == SIZE9_ORDER_COUNT


def _check_domains_adjoin_a_bottom(universe, sizes) -> None:
    # a domain is a lattice with a new absorbing bottom below it, and
    # canonical_form here meets lattices the order stage did not label
    for n in sizes:
        domains = {
            canonical_form(D)
            for D in universe
            if D.n == n and D.lattice_profile().is_domain
        }
        adjoined = {canonical_form(adjoin_bottom(L)) for L in universe if L.n == n - 1}
        assert domains == adjoined, f"size {n}"
        assert len(adjoined) == TOTALS[n - 1]


def test_domains_are_lattices_with_a_bottom_adjoined(universe6):
    _check_domains_adjoin_a_bottom(universe6, range(3, 7))


def test_size7_domains_are_lattices_with_a_bottom_adjoined(universe7):
    _check_domains_adjoin_a_bottom(universe7, [7])


def _decomposable(L) -> bool:
    # idempotents e and f, neither a bound, with e v f = 1 and e*f = 0
    idem = [
        e for e in L.elements() if e not in (L.bottom, L.top) and L.mul2(e, e) == e
    ]
    return any(
        L.join2(e, f) == L.top and L.mul2(e, f) == L.bottom
        for e, f in itertools.combinations(idem, 2)
    )


def _check_decomposables_are_products(universe, sizes) -> None:
    # such e and f split L as (down e) x (down f), by x -> (x /\ e, x /\ f),
    # so the decomposable lattices are exactly the products
    by_size = {}
    for L in universe:
        by_size.setdefault(L.n, []).append(L)
    for n in sizes:
        decomposable = {
            canonical_form(L) for L in by_size.get(n, ()) if _decomposable(L)
        }
        products = {
            canonical_form(product_lattice(A, B))
            for p in range(2, n)
            if n % p == 0 and n // p >= 2
            for A in by_size.get(p, ())
            for B in by_size.get(n // p, ())
        }
        assert decomposable == products, f"size {n}"
        assert len(products) == DECOMPOSABLE_COUNTS[n], f"size {n}"


def test_decomposable_lattices_are_direct_products(universe6):
    _check_decomposables_are_products(universe6, range(2, 7))


def test_size7_decomposable_lattices_are_direct_products(universe7):
    _check_decomposables_are_products(universe7, [7])


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


def _own_tables(L) -> bytes:
    # an enumerated lattice's order is canonical and its table is the least
    # encoding over the order's automorphisms (see _mult_reps)
    return bytes([L.n]) + enumeration._encode_leq(L._up, L.n) + bytes(
        itertools.chain.from_iterable(L._mul)
    )


@pytest.mark.parametrize("universe", ["universe6", "universe7"])
def test_own_tables_are_the_canonical_form(request, universe):
    for L in request.getfixturevalue(universe):
        assert _own_tables(L) == canonical_form(L), L.name


@pytest.mark.parametrize(
    "universe, digest",
    [
        ("universe6", "81c2b3a210a071a3f3160c513de845f1ece8ed92fc9ec71a8360fc8841c4bae2"),
        ("universe7", "4b0d952b73c25ca2b965f5a8554ef8bf1d29f6a18db2e31a2807b2b008728e1e"),
    ],
)
def test_canonical_forms_frozen(request, universe, digest):
    # sha256 of the concatenated canonical forms, in universe order
    forms = b"".join(canonical_form(L) for L in request.getfixturevalue(universe))
    assert hashlib.sha256(forms).hexdigest() == digest


def test_size8_own_tables_are_the_canonical_form(request, monkeypatch):
    if not request.config.getoption("--size8"):
        pytest.skip("needs --size8")
    monkeypatch.setattr(enumeration, "HARD_SIZE_CAP", 8)
    lattices = [
        L
        for order in enumerate_bounded_lattices(8)
        for L in enumerate_multiplications(order)
    ]
    assert len(lattices) == 4712
    for L in lattices:
        assert _own_tables(L) == canonical_form(L), L.name
    rng = random.Random(8)
    for L in rng.sample(lattices, 40):
        spec = L.to_spec()
        shuffled = list(spec.elements)
        rng.shuffle(shuffled)
        relabeled = validate_lattice(
            LatticeSpec(spec.name, tuple(shuffled), spec.order_pairs, spec.mul_entries)
        )
        key = _own_tables(L)
        assert canonical_form(relabeled) == key, L.name
        assert canonical_form_by_all_relabelings(relabeled) == key, L.name


def test_universe_is_deterministic_and_cached(universe5):
    again = enumerated_universe(5)
    assert [L.name for L in again] == [L.name for L in universe5]
    assert [canonical_form(L) for L in again] == [
        canonical_form(L) for L in universe5
    ]


def test_universe_builds_from_an_empty_cache(monkeypatch, universe5):
    # sizes 1-3 fresh, then 4-5 on top of them; both match the shared build
    monkeypatch.setattr(enumeration, "_UNIVERSE_CACHE", {})
    enumerated_universe(3)
    again = enumerated_universe(5)
    assert [L.name for L in again] == [L.name for L in universe5]
    assert [canonical_form(L) for L in again] == [
        canonical_form(L) for L in universe5
    ]


# -- search ------------------------------------------------------------------


def test_search_separations(universe6):
    hits = search(6, "cpp_not_cq")
    forms = {canonical_form(L) for L, _ in hits}
    assert canonical_form(preset("L1")) in forms

    hits = search(6, "cq_dim_ge_2")
    forms = {canonical_form(L) for L, _ in hits}
    assert canonical_form(preset("E16")) in forms

    assert search(6, "cq_not_cpr") == []
    assert search(6, "cpp_not_cpr") == []
    assert search(6, "treed_not_cpr") == []


def test_search_dedekind_is_exactly_the_two_chain():
    hits = search(6, "dedekind")
    assert [L.n for L, _ in hits] == [2]


def test_quotient_condition_predicates_are_unknown(capsys):
    # No finite domain with n >= 3 satisfies the quotient condition of
    # thm_cq_generators (an atom t has t*t = t, so (t*t : t) = 1 is not
    # below rad t), so no search predicate tests it.
    for name in ("thm15_hypothesis_nontrivial", "thm15"):
        with pytest.raises(UnknownPredicate):
            search(4, name)
        assert main(["enumerate", "--size", "3", "--predicate", name]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: unknown predicate {name!r} (atom {name!r})\n"
        )
        assert captured.out == ""


def test_search_custom_conjunctions():
    hits = search(5, "cpr&!cq&!cpp")
    assert hits
    for _, rep in hits:
        assert rep.is_cpr_lattice and not rep.is_cq_lattice
        assert not rep.is_cpp_lattice
    hits = search(5, "domain&dim=1")
    for _, rep in hits:
        assert rep.is_domain and rep.dimension == 1


def test_search_unknown_predicate():
    with pytest.raises(UnknownPredicate):
        search(4, "frobnicated")
    with pytest.raises(UnknownPredicate):
        search(4, "cpr&bogus")


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
