"""Core model: validation, order/monoid operations, element predicates."""

import hashlib
import importlib
import itertools
import pkgutil
import random
import string
from collections import Counter
from dataclasses import astuple

import pytest

import comaxlat
from bruteforce import (
    boolean_lattice,
    chain_lattice,
    first_axiom_failures_naive,
    generates_naive,
    is_prime_naive,
    join_principal_naive,
    larger_lattices,
    meet_principal_naive,
    product_lattice,
    quotient_table_naive,
    weak_join_principal_naive,
    weak_meet_principal_naive,
)
from comaxlat.core import (
    MAX_ELEMENTS,
    FiniteMultLattice,
    InvalidSpec,
    LatticeSpec,
    SizeCapExceeded,
    ValidationError,
    Violation,
    _order_facts,
    default_labels,
    mul_key,
    multiplication_violations,
    validate_lattice,
)
from comaxlat.enumeration import enumerate_bounded_lattices
from comaxlat.latfile import load_lattice, serialize_spec
from comaxlat.presets import preset, preset_spec
from comaxlat.theorems import check_entry


def _labels(L, xs):
    return [L.label(x) for x in xs]


# -- validation ---------------------------------------------------------------


def test_l1_validates_with_expected_primes():
    L = preset("L1")
    assert _labels(L, L.spectrum()) == ["0", "c", "d"]


def test_two_element_spec_needs_no_products():
    spec = LatticeSpec(
        name="two",
        elements=("0", "1"),
        order_pairs=(("0", "1"),),
        mul_entries={},
    )
    L = validate_lattice(spec)
    assert L.n == 2
    assert L.mul2(L.bottom, L.bottom) == L.bottom
    assert L.mul2(L.top, L.top) == L.top


def test_mutated_l1_fails_associativity_or_distributivity():
    base = preset_spec("L1")
    entries = dict(base.mul_entries)
    entries[mul_key("b", "b")] = "a"
    bad = LatticeSpec(
        name="L1x",
        elements=base.elements,
        order_pairs=base.order_pairs,
        mul_entries=entries,
    )
    with pytest.raises(ValidationError) as exc:
        validate_lattice(bad)
    codes = exc.value.codes()
    assert codes & {"NotAssociative", "NotDistributive"}
    assert all(len(v.witness) == 3 for v in exc.value.violations)


def _few_join_irreducibles(universe5):
    """Four products of 8 to 20 elements with few join-irreducibles: a
    product has those of its factors only, and the square and the
    diamonds of the universe have two and three."""
    by_shape = {}
    for L in universe5:
        by_shape.setdefault((L.n, len(L.join_irreducibles())), []).append(L)
    square, diamonds = by_shape[4, 2][0], by_shape[5, 3]
    return [
        product_lattice(square, chain_lattice(2)),
        product_lattice(diamonds[0], chain_lattice(3)),
        product_lattice(diamonds[1], square),
        product_lattice(by_shape[4, 3][0], square),
    ]


def test_axiom_witnesses_match_naive_scan(universe5):
    # perturbed product cells: the first associativity and distributivity
    # witnesses, in index order, must match a plain scan.  The same change
    # made to both symmetric cells keeps the product commutative, so the
    # row checks on join-irreducibles decide first; past the universe a
    # cell of two proper elements that are not join-irreducible changes
    # too, where the lattice has such elements.
    rng = random.Random(7)
    failing = Counter()
    beyond = [*larger_lattices(), *_few_join_irreducibles(universe5)]
    assert all(8 <= L.n for L in beyond)
    for L in [*universe5, *beyond]:
        cells = [(rng.randrange(L.n), rng.randrange(L.n)) for _ in range(4)]
        reducible = [
            x for x in L.elements()
            if x not in L.join_irreducibles() and x not in (L.bottom, L.top)
        ]
        if L.n > 5 and reducible:
            cells.append((rng.choice(reducible), rng.choice(reducible)))
        for x, y in cells:
            new = rng.choice([v for v in L.elements() if v != L._mul[x][y]])
            for changed, kind in (([(x, y)], ""), ([(x, y), (y, x)], " (symmetric)")):
                mul = [list(row) for row in L._mul]
                for i, j in changed:
                    mul[i][j] = new
                found = {
                    v.code: v.witness
                    for v in multiplication_violations(
                        L.labels, L._order, mul, L.bottom, L.top
                    )
                }
                for code, first in zip(
                    ("NotAssociative", "NotDistributive"),
                    first_axiom_failures_naive(mul, L._join, L.n),
                ):
                    expect = None if first is None else tuple(L.labels[i] for i in first)
                    assert found.get(code) == expect, (L.name, code)
                    where = " beyond" if L.n > 5 else ""
                    failing[code + kind + where] += first is not None
    assert all(
        failing[code + kind + where] > 0
        for code in ("NotAssociative", "NotDistributive")
        for kind in ("", " (symmetric)")
        for where in ("", " beyond")
    ), failing


def _distributive_nonassociative(n):
    """Every table on an order of n elements, with its order, that is
    commutative with the top as identity and the bottom as zero, lies
    below the meet and distributes over joins, but is not associative."""
    cells = list(itertools.combinations_with_replacement(range(1, n - 1), 2))
    triples = list(itertools.product(range(n), repeat=3))
    for order in enumerate_bounded_lattices(n):
        join, meet, B, T = order.join, order.meet, order.bottom, order.top
        below = [[v for v in range(n) if order.leq(v, meet[x][y])] for x, y in cells]
        for values in itertools.product(*below):
            mul = [[B] * n for _ in range(n)]
            for x in range(n):
                mul[x][T] = mul[T][x] = x
            for (x, y), v in zip(cells, values):
                mul[x][y] = mul[y][x] = v
            distributes = all(
                mul[x][join[a][b]] == join[mul[x][a]][mul[x][b]] for x, a, b in triples
            )
            if distributes and any(
                mul[mul[x][y]][z] != mul[x][mul[y][z]] for x, y, z in triples
            ):
                yield order, mul


def test_nonassociative_witness_under_every_relabeling():
    # distributive tables that fail associativity only: the row check on
    # pairs of join-irreducibles decides, and relabeling the proper
    # elements moves the pairs it must catch to every place in index order
    seen = 0
    for order, mul in itertools.chain(
        _distributive_nonassociative(4), _distributive_nonassociative(5)
    ):
        n = order.n
        labels = default_labels(n, 0, n - 1)
        for inner in itertools.permutations(range(1, n - 1)):
            p = (0, *inner, n - 1)  # p[i] is the new index of element i
            up = [0] * n
            table = [[0] * n for _ in range(n)]
            for i in range(n):
                up[p[i]] = sum(1 << p[j] for j in range(n) if order.leq(i, j))
                for j in range(n):
                    table[p[i]][p[j]] = p[mul[i][j]]
            facts = _order_facts(tuple(up))
            assoc, dist = first_axiom_failures_naive(table, facts.join, n)
            assert assoc is not None and dist is None
            expect = [Violation("NotAssociative", tuple(labels[i] for i in assoc))]
            assert multiplication_violations(labels, facts, table, 0, n - 1) == expect
            seen += 1
    assert seen > 100


def test_bottom_equals_top_rejected():
    spec = LatticeSpec(
        name="point",
        elements=("0",),
        order_pairs=(),
        mul_entries={},
        bottom="0",
        top="0",
    )
    with pytest.raises(ValidationError) as exc:
        validate_lattice(spec)
    assert exc.value.codes() == {"BottomEqualsTop"}


def test_missing_product_reported_per_pair():
    base = preset_spec("L1")
    entries = dict(base.mul_entries)
    del entries[mul_key("b", "c")]
    del entries[mul_key("c", "d")]
    bad = LatticeSpec("L1x", base.elements, base.order_pairs, entries)
    with pytest.raises(ValidationError) as exc:
        validate_lattice(bad)
    assert [str(v) for v in exc.value.violations] == [
        "MissingProduct b c",
        "MissingProduct c d",
    ]


def test_order_cycle_rejected():
    full = {mul_key("x", "x"): "x", mul_key("x", "y"): "x", mul_key("y", "y"): "y"}
    # the order checks come before the product checks: a cycle with missing
    # products reports only the cycle
    for entries in (full, {}):
        spec = LatticeSpec(
            name="cyc",
            elements=("0", "x", "y", "1"),
            order_pairs=(("0", "x"), ("x", "y"), ("y", "x"), ("y", "1")),
            mul_entries=entries,
        )
        with pytest.raises(ValidationError) as exc:
            validate_lattice(spec)
        assert exc.value.codes() == {"NotAPartialOrder"}


def test_missing_bound_rejected():
    # crown: x and y have two incomparable minimal upper bounds, no join
    spec = LatticeSpec(
        name="crown",
        elements=("0", "x", "y", "z", "w", "1"),
        order_pairs=(("0", "x"), ("0", "y"), ("x", "z"), ("x", "w"),
                     ("y", "z"), ("y", "w"), ("z", "1"), ("w", "1")),
        mul_entries={},
    )
    with pytest.raises(ValidationError) as exc:
        validate_lattice(spec)
    assert exc.value.codes() == {"NotALattice"}


def test_order_defects_report_their_own_labels():
    # Orders are memoized by their up-masks, without labels: two specs on
    # the same masks must still name their own elements.
    def crown(a, b, c, d):
        return LatticeSpec(
            name="crown",
            elements=("0", a, b, c, d, "1"),
            order_pairs=(("0", a), ("0", b), (a, c), (a, d),
                         (b, c), (b, d), (c, "1"), (d, "1")),
            mul_entries={},
        )

    def offtop(x):
        return LatticeSpec("offtop", ("0", x, "1"), (("0", x), ("0", "1")), {})

    for spec, want in (
        (crown("x", "y", "z", "w"), "NotALattice x y"),
        (crown("p", "q", "r", "s"), "NotALattice p q"),
        (offtop("x"), "NotALattice x 1"),
        (offtop("u"), "NotALattice u 1"),
    ):
        with pytest.raises(ValidationError) as exc:
            validate_lattice(spec)
        assert [str(v) for v in exc.value.violations] == [want]


def _raw_up(n, pairs):
    """Up-set masks of the relation ``pairs`` as given, not closed."""
    up = [0] * n
    for i, j in pairs:
        up[i] |= 1 << j
    return tuple(up)


_CHAIN4 = ((0, 1), (1, 2), (2, 3))  # the covers of 0 < a < b < 1


def test_order_record_reports_the_same_defect_twice():
    # The first call derives the order's record, the second reads it from
    # the memo: both raise the same violations, with the same witnesses.
    crown = ((0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5))
    cases = [
        (_raw_up(4, ((0, 1), (1, 2), (2, 1), (2, 3))), 0, 3, ["NotAPartialOrder a b"]),
        (_raw_up(6, crown), 0, 5, ["NotALattice a b"]),
        (_raw_up(4, _CHAIN4), 1, 3, ["NotALattice a 0"]),
        (_raw_up(4, _CHAIN4), 0, 2, ["NotALattice 1 b"]),
        (_raw_up(4, _CHAIN4), 1, 2, ["NotALattice a 0", "NotALattice 1 b"]),
    ]
    for up, bottom, top, want in cases:
        n = len(up)
        labels = ("0", *"abcd"[: n - 2], "1")
        mul = [[0] * n for _ in range(n)]  # never read: the order fails first
        _order_facts.cache_clear()
        got = []
        for _ in range(2):
            with pytest.raises(ValidationError) as exc:
                FiniteMultLattice.from_tables(up, mul, bottom, top, labels)
            got.append([astuple(v) for v in exc.value.violations])
        info = _order_facts.cache_info()
        assert (info.misses, info.hits) == (1, 1), want
        assert got[0] == got[1]
        assert [" ".join((code, *witness)) for code, witness, _ in got[0]] == want


def test_one_order_record_serves_every_designated_bound():
    # One record per raw up-masks, whatever bounds a call designates: each
    # call checks its own bottom and top and names its own witnesses.
    up = _raw_up(4, _CHAIN4)
    labels = ("0", "a", "b", "1")
    valid = ((0, 0, 0, 0), (0, 1, 1, 1), (0, 1, 2, 2), (0, 1, 2, 3))
    _order_facts.cache_clear()
    for bottom, top, want in (
        (0, 3, []),
        (1, 3, ["NotALattice a 0"]),
        (0, 2, ["NotALattice 1 b"]),
        (2, 1, ["NotALattice b 0", "NotALattice b a"]),
        (0, 3, []),
    ):
        try:
            FiniteMultLattice.from_tables(up, valid, bottom, top, labels)
            got = []
        except ValidationError as exc:
            got = [str(v) for v in exc.violations]
        assert got == want, (bottom, top)
    assert _order_facts.cache_info().misses == 1


def test_a_new_file_derives_its_order_once(tmp_path):
    # A file lists covering pairs, so its raw masks are not closed: the
    # record is looked up by the raw masks and handed to the constructor.
    path = tmp_path / "L1.json"
    path.write_text(serialize_spec(preset_spec("L1")), encoding="utf-8")
    _order_facts.cache_clear()
    L = load_lattice(path)
    assert _order_facts.cache_info().misses == 1
    _order_facts(L._up)  # the closed masks are another key
    assert _order_facts.cache_info().misses == 2


def test_product_checks_run_on_a_memoized_order():
    # the chain 0 < a < b < 1 with b*b = a*b = a and a*a = 0 is monotone
    # (so distributive) but (b*b)*a = 0 while b*(b*a) = a
    def chain(name, aa, ab, bb):
        return LatticeSpec(
            name=name,
            elements=("0", "a", "b", "1"),
            order_pairs=(("0", "a"), ("a", "b"), ("b", "1")),
            mul_entries={("a", "a"): aa, ("a", "b"): ab, ("b", "b"): bb},
        )

    L = validate_lattice(chain("meet", "a", "a", "b"))
    M = validate_lattice(chain("square", "0", "0", "a"))
    assert M._join is L._join  # one memoized order
    with pytest.raises(ValidationError) as exc:
        validate_lattice(chain("bad", "0", "a", "a"))
    assert [str(v) for v in exc.value.violations] == ["NotAssociative a b b"]


def test_designated_bottom_must_be_least():
    spec = LatticeSpec(
        name="offbot",
        elements=("0", "x", "1"),
        order_pairs=(("x", "0"), ("0", "1")),
        mul_entries={},
    )
    with pytest.raises(ValidationError) as exc:
        validate_lattice(spec)
    assert exc.value.codes() == {"NotALattice"}


def test_bad_specs_raise_invalid_spec():
    with pytest.raises(InvalidSpec):
        validate_lattice(
            LatticeSpec("dup", ("0", "0", "1"), (("0", "1"),), {})
        )
    with pytest.raises(InvalidSpec):
        validate_lattice(
            LatticeSpec("unknown", ("0", "1"), (("0", "q"),), {})
        )
    with pytest.raises(InvalidSpec):
        validate_lattice(
            LatticeSpec("nobot", ("x", "1"), (("x", "1"),), {}, bottom="0")
        )


def test_explicit_bound_products_are_checked():
    spec = LatticeSpec(
        name="badbot",
        elements=("0", "m", "1"),
        order_pairs=(("0", "m"), ("m", "1")),
        mul_entries={mul_key("m", "m"): "m", mul_key("0", "m"): "m"},
    )
    with pytest.raises(ValidationError) as exc:
        validate_lattice(spec)
    assert "BottomNotAbsorbing" in exc.value.codes()


_CHAIN3_UP = (0b111, 0b110, 0b100)  # the chain 0 < a < 1
_CHAIN3_MUL = ((0, 0, 0), (0, 1, 1), (0, 1, 2))


def _chain3_with_none(i, j):
    mul = [list(row) for row in _CHAIN3_MUL]
    mul[i][j] = None
    return mul


@pytest.mark.parametrize(
    "cell, want",
    [((1, 0), "MissingProduct 0 a"), ((2, 0), "MissingProduct 0 1"),
     ((2, 1), "MissingProduct 1 a"), ((0, 2), "MissingProduct 0 1"),
     ((1, 2), "MissingProduct 1 a")],
)
def test_from_tables_reports_every_none_cell(cell, want):
    # from_tables checks its tables as given: a None cell in either triangle
    # names its pair, bound cells included; nothing is filled in for it
    with pytest.raises(ValidationError) as exc:
        FiniteMultLattice.from_tables(_CHAIN3_UP, _chain3_with_none(*cell), 0, 2)
    assert [str(v) for v in exc.value.violations] == [want]


def test_spec_may_omit_bound_products():
    # the lowering writes x*1 = x and x*0 = 0 for every x the spec omits
    spec = LatticeSpec(
        name="chain3",
        elements=("0", "a", "1"),
        order_pairs=(("0", "a"), ("a", "1")),
        mul_entries={mul_key("a", "a"): "a"},
    )
    L = validate_lattice(spec)
    assert L._mul == _CHAIN3_MUL


@pytest.mark.parametrize(
    "up, bottom, top, labels, message",
    [
        (_CHAIN3_UP, -1, 2, None, "designated bottom -1 is outside range(3)"),
        (_CHAIN3_UP, 3, 2, None, "designated bottom 3 is outside range(3)"),
        (_CHAIN3_UP, 0, -1, None, "designated top -1 is outside range(3)"),
        (_CHAIN3_UP, 0, 3, None, "designated top 3 is outside range(3)"),
        ((), 0, 0, None, "designated bottom 0 is outside range(0)"),
        ((0b111 | 1 << 6, 0b110, 0b100), 0, 2, None,
         "up[0] = 71 is not a mask of range(3)"),
        ((0b111, 0b110, 0b1000), 0, 2, None, "up[2] = 8 is not a mask of range(3)"),
        ((0b111, -2, 0b100), 0, 2, None, "up[1] = -2 is not a mask of range(3)"),
        (_CHAIN3_UP, 0, 2, ("0", "1"), "2 labels given for 3 elements"),
        (_CHAIN3_UP, 0, 2, ("0", "a", "b", "1"), "4 labels given for 3 elements"),
    ],
)
def test_from_tables_refuses_out_of_range_input(up, bottom, top, labels, message):
    # refused before any other check, with the value named
    with pytest.raises(InvalidSpec) as exc:
        FiniteMultLattice.from_tables(up, _CHAIN3_MUL, bottom, top, labels)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "mul, message",
    [
        ([[0, 0, 0], [0, 1, 1]], "mul has 2 rows for 3 elements"),
        ([[0, 0, 0], [0, 1, 1], [0, 1, 2], [0, 1, 2]], "mul has 4 rows for 3 elements"),
        ([[0, 0, 0], [0, 1, 1], [0, 1, 2, 5]], "mul[2] has 4 entries for 3 elements"),
        ([[0, 0, 0], [0, 1], [0, 1, 2]], "mul[1] has 2 entries for 3 elements"),
        ([[0, 0, 0], [0, 1, 1], [0, 1, 3]], "mul[2][2] = 3 is not an element of range(3)"),
        ([[0, 0, -1], [0, 1, 1], [-1, 1, 2]],
         "mul[0][2] = -1 is not an element of range(3)"),
        ([[0, 0, 0], [0, 1, 256], [0, 256, 2]],
         "mul[1][2] = 256 is not an element of range(3)"),
        ([[0, 0, 0], [0, 1.0, 1], [0, 1, 2]],
         "mul[1][1] = 1.0 is not an element of range(3)"),
        ([[0, 0, 0], [0, 1, "1"], [0, 1, 2]],
         "mul[1][2] = '1' is not an element of range(3)"),
    ],
)
def test_from_tables_refuses_bad_product_cells(mul, message):
    with pytest.raises(InvalidSpec) as exc:
        FiniteMultLattice.from_tables(_CHAIN3_UP, mul, 0, 2)
    assert str(exc.value) == message


def test_out_of_range_product_cells_are_refused(universe5):
    # one symmetric cell set to -1, n, n + 1, 255 or 256 used to raise
    # IndexError or ValueError, or to pass to the axiom check; the gate
    # names the cell
    cases = 0
    for L in universe5:
        for x, y in itertools.combinations_with_replacement(L.elements(), 2):
            for v in (-1, L.n, L.n + 1, 255, 256):
                mul = [list(row) for row in L._mul]
                mul[x][y] = mul[y][x] = v
                with pytest.raises(InvalidSpec) as exc:
                    FiniteMultLattice.from_tables(L._up, mul, L.bottom, L.top)
                want = f"mul[{x}][{y}] = {v} is not an element of range({L.n})"
                assert str(exc.value) == want
                cases += 1
    assert cases == 2375


# -- order and monoid operations ----------------------------------------------


def test_join_meet_golden_values():
    L1 = preset("L1")
    b, c = L1.index("b"), L1.index("c")
    assert L1.label(L1.join([b, c])) == "d"
    assert L1.label(L1.meet([b, c])) == "a"
    assert L1.join([]) == L1.bottom
    assert L1.meet([]) == L1.top
    E = preset("E16")
    assert E.label(E.meet([E.index("c"), E.index("d")])) == "b"


def test_mul_golden_values():
    L1 = preset("L1")
    c = L1.index("c")
    assert L1.label(L1.mul([c, c])) == "a"
    for x in L1.elements():
        assert L1.mul([L1.top, x]) == x
    L4 = preset("L4")
    assert L4.label(L4.mul([L4.index("b"), L4.index("c")])) == "a"
    assert L1.mul([]) == L1.top  # empty product is the identity


def test_mul_is_order_independent():
    L = preset("L3")
    xs = [L.index("b"), L.index("c"), L.index("d")]
    assert L.mul(xs) == L.mul(list(reversed(xs)))


def test_quotient_golden_values():
    L1 = preset("L1")
    a, b, c = (L1.index(x) for x in "abc")
    assert L1.label(L1.quotient(a, c)) == "d"
    for y in L1.elements():
        assert L1.quotient(y, L1.top) == y
    # frozen from a direct scan of {x : x*b <= a} (b*c = a puts c in the set)
    assert L1.label(L1.quotient(a, b)) == "c"


def test_radical_golden_values():
    L1, L4 = preset("L1"), preset("L4")
    assert L1.label(L1.radical(L1.index("a"))) == "c"
    assert L4.label(L4.radical(L4.index("a"))) == "b"
    for L in (L1, L4):
        for p in L.spectrum():
            assert L.radical(p) == p


def test_spectrum_and_min_primes():
    L3, L2 = preset("L3"), preset("L2")
    assert _labels(L3, L3.spectrum()) == ["0", "b", "c", "d"]
    assert _labels(L3, L3.min_primes(L3.index("a"))) == ["b", "c"]
    assert _labels(L2, L2.min_primes(L2.index("a"))) == ["d"]
    assert L2.min_primes(L2.top) == ()
    for L in (L2, L3):
        assert set(L.max_elements()) <= set(L.spectrum())


def test_dimension():
    assert preset("E16").dimension() == 2
    assert preset("L1").dimension() == 2
    two = validate_lattice(
        LatticeSpec("two", ("0", "1"), (("0", "1"),), {})
    )
    assert two.dimension() == 0


def test_element_profiles():
    L1, L2, L4 = preset("L1"), preset("L2"), preset("L4")
    pa = L1.element_profile(L1.index("a"))
    assert not pa.is_primary
    assert pa.is_prime_power
    assert pa.prime_power_witness == (L1.index("c"), 2)
    assert L2.element_profile(L2.index("b")).is_primary
    qa = L4.element_profile(L4.index("a"))
    assert not qa.is_prime_power and not qa.is_primary
    for L in (L1, L2, L4):
        for x in L.elements():
            assert L.element_profile(x).is_compact


def test_profile_flag_relations():
    for name in ("L1", "L2", "L3", "L4", "E16"):
        L = preset(name)
        for x in L.elements():
            p = L.element_profile(x)
            assert p.is_principal == (p.is_meet_principal and p.is_join_principal)
            if p.is_prime:
                assert p.is_primary and p.is_radical
            if p.is_maximal:
                assert p.is_prime
            if p.is_meet_principal:
                assert p.is_weak_meet_principal
            if p.is_join_principal:
                assert p.is_weak_join_principal


def test_lattice_profiles():
    assert not preset("L3").lattice_profile().is_treed
    assert preset("E16").lattice_profile().is_domain
    two = validate_lattice(LatticeSpec("two", ("0", "1"), (("0", "1"),), {}))
    assert two.lattice_profile().generated_by_principal


def test_bounds_are_always_principal():
    for name in ("L1", "L2", "L3", "L4", "E16"):
        L = preset(name)
        assert L.bottom in L.principal_elements()
        assert L.top in L.principal_elements()


def test_labels_and_spec_round_trip():
    L = preset("E16")
    assert L.index("c") == 3
    assert L.label(3) == "c"
    with pytest.raises(KeyError):
        L.index("zz")
    again = validate_lattice(L.to_spec())
    assert again.labels == L.labels
    assert all(
        again.mul2(x, y) == L.mul2(x, y)
        for x in L.elements()
        for y in L.elements()
    )


def test_power_chain():
    L1 = preset("L1")
    d = L1.index("d")
    chain = L1.power_chain(d)
    assert chain[0] == d
    assert _labels(L1, chain) == ["d", "b"]
    assert L1.power(d, 1) == d
    assert L1.label(L1.power(d, 2)) == "b"
    assert L1.power(d, 9) == chain[-1]


@pytest.mark.parametrize("k", [0, -1, -5])
def test_power_refuses_exponents_below_1(k):
    L1 = preset("L1")
    with pytest.raises(ValueError, match=f"exponent must be at least 1, got {k}"):
        L1.power(L1.index("d"), k)


def test_element_cap():
    # every index fits in a byte: the largest lattice builds, one more
    # element is refused before the order is closed
    assert MAX_ELEMENTS == 256
    assert boolean_lattice(8).n == MAX_ELEMENTS
    up = tuple(1 << MAX_ELEMENTS for _ in range(MAX_ELEMENTS + 1))
    with pytest.raises(SizeCapExceeded, match="size 257 exceeds the element cap 256"):
        FiniteMultLattice.from_tables(up, [], 0, MAX_ELEMENTS)


def test_lattice_keeps_fewer_than_30_attributes():
    # From 30 instance attributes on, CPython 3.11 stops sharing dict keys
    # between instances and every attribute lookup on a lattice slows down.
    assert len(vars(preset("L1"))) < 30


def test_lattice_reads_its_own_order_record():
    # A lattice keeps its order record, so an order that has left the memo
    # is not derived again by the methods that read its covers or its
    # join-irreducibles.
    lattices = [boolean_lattice(3), chain_lattice(6)]
    _order_facts.cache_clear()
    for L in lattices:
        before = _order_facts.cache_info().misses
        L.lower_covers(L.top)
        L.join_irreducibles()
        L.generates(L.elements())
        L.to_spec()
        assert _order_facts.cache_info().misses == before, L.name


def test_from_tables_rejects_product_above_meet_and_non_monotone():
    # The facts "product below the meet" and "monotone" follow from the
    # axioms, so the axiom scan of from_tables is what rejects these tables.
    up = (0b1111, 0b1110, 0b1100, 0b1000)  # the chain 0 < a < b < 1
    labels = ("0", "a", "b", "1")
    valid = ((0, 0, 0, 0), (0, 1, 1, 1), (0, 1, 2, 2), (0, 1, 2, 3))
    assert FiniteMultLattice.from_tables(up, valid, 0, 3, labels).n == 4
    # a*b = b lies above the meet a: a*(b v 1) = a but a*b v a*1 = b
    above_meet = ((0, 0, 0, 0), (0, 1, 2, 1), (0, 2, 2, 2), (0, 1, 2, 3))
    # a*a = a*b = a but b*b = 0: every product lies below the meet, yet
    # a <= b while a*b is not below b*b
    non_monotone = ((0, 0, 0, 0), (0, 1, 1, 1), (0, 1, 0, 2), (0, 1, 2, 3))
    for mul, expect in (
        (above_meet, ["NotDistributive a b 1"]),
        (non_monotone, ["NotAssociative a b b", "NotDistributive b a b"]),
    ):
        with pytest.raises(ValidationError) as exc:
            FiniteMultLattice.from_tables(up, mul, 0, 3, labels)
        assert [str(v) for v in exc.value.violations] == expect


def _with_larger_lattices(lattices, presets):
    """``lattices`` and the presets, plus shapes and products larger than
    anything the tier-1 universe holds."""
    return [*lattices, *presets, *larger_lattices()]


@pytest.mark.parametrize("universe", ["universe_deep", "universe7"])
def test_residual_and_principality_tables_match_naive_twins(
    request, universe, all_presets
):
    lattices = _with_larger_lattices(request.getfixturevalue(universe), all_presets)
    for L in lattices:
        assert L._quot == quotient_table_naive(L), L.name
        naive = [
            (
                meet_principal_naive(L, x),
                weak_meet_principal_naive(L, x),
                join_principal_naive(L, x),
                weak_join_principal_naive(L, x),
            )
            for x in L.elements()
        ]
        got = [
            (p.is_meet_principal, p.is_weak_meet_principal,
             p.is_join_principal, p.is_weak_join_principal)
            for p in map(L.element_profile, L.elements())
        ]
        assert got == naive, L.name
        mp = tuple(x for x, flags in enumerate(naive) if flags[0])
        jp = tuple(x for x, flags in enumerate(naive) if flags[2])
        assert L.principal_elements() == tuple(x for x in mp if x in jp), L.name
        assert L.join_principal_elements() == jp, L.name
        assert L.lattice_profile().generated_by_principal == generates_naive(
            L, [x for x in mp if x in jp]
        ), L.name


def test_generation_matches_naive_twin(universe_deep, all_presets):
    # A set generates exactly when it holds every join-irreducible; the
    # twin joins the generators below each element instead.
    rng = random.Random(18)
    for L in _with_larger_lattices(universe_deep, all_presets):
        jp = [x for x in L.elements() if join_principal_naive(L, x)]
        principal = [x for x in jp if meet_principal_naive(L, x)]
        subsets = [
            (),
            L.elements(),
            L.join_irreducibles(),
            L.principal_elements(),
            L.join_principal_elements(),
        ]
        for _ in range(20):
            density = rng.random()
            subsets.append([x for x in L.elements() if rng.random() < density])
        for S in subsets:
            assert L.generates(S) == generates_naive(L, S), (L.name, S)
        # the generator hypotheses of two checkers, read literally
        domain = is_prime_naive(L, L.bottom)
        primes = [p for p in L.elements() if is_prime_naive(L, p)]
        assert check_entry(L, "cor_cq_dimension").hypotheses_hold == (
            domain and L.n > 2 and generates_naive(L, jp)
        ), L.name
        assert check_entry(L, "lemma_prime_principal").hypotheses_hold == (
            domain
            and generates_naive(L, principal)
            and all(p in principal for p in primes)
        ), L.name


def _profile_digest(lattices) -> str:
    """sha256 over one ``repr`` per lattice, in the given order, of
    ``(name, element profiles, lattice profile, principal elements,
    join-principal elements)``, the profiles as tuples."""
    h = hashlib.sha256()
    for L in lattices:
        row = (
            L.name,
            [astuple(L.element_profile(x)) for x in L.elements()],
            astuple(L.lattice_profile()),
            L.principal_elements(),
            L.join_principal_elements(),
        )
        h.update(repr(row).encode())
    return h.hexdigest()


# Element and lattice profiles and the principal sets, pinned by
# _profile_digest: a changed digest means some predicate flag differs.
PROFILE_DIGESTS = {
    "universe5+presets": "3d4f481337d60a27c770432cdf603b1b5f9e32afd1ccd4200623545e8c8c043a",
    "universe7+presets": "3f54ad714769573e6c27783166c33b2a37541819ba3a4ed38397c0a2f6256f44",
}


def test_profiles_frozen(universe5, all_presets):
    lattices = [*universe5, *all_presets, boolean_lattice(4), chain_lattice(8)]
    assert _profile_digest(lattices) == PROFILE_DIGESTS["universe5+presets"]


def test_size7_profiles_frozen(universe7, all_presets):
    assert len(universe7) == 888
    shapes = [boolean_lattice(4), boolean_lattice(5), chain_lattice(8)]
    lattices = [*universe7, *all_presets, *shapes]
    assert _profile_digest(lattices) == PROFILE_DIGESTS["universe7+presets"]


def _derived_digest(lattices) -> str:
    """sha256 over one ``repr`` per lattice, in the given order, of its
    name and the tables ``_build_caches`` derives: quotients, power
    chains, primes, maximal elements, radicals, minimal primes, primary
    elements, prime-power witnesses, dimension and lattice profile."""
    h = hashlib.sha256()
    for L in lattices:
        row = (
            L._quot, L._powers, L._primes, L._maximal_mask, L._radical,
            L._min_primes, L._primary_mask, L._prime_power, L._dimension,
            L._profile,
        )
        h.update(repr((L.name, row)).encode())
    return h.hexdigest()


# The derived tables, pinned by _derived_digest; unlike PROFILE_DIGESTS
# it covers the minimal primes, the power chains and the dimension.
DERIVED_DIGESTS = {
    "universe5+presets": "9be1c0290b146659e2ee12c95e40d17cf5876f41fdd6f7d934cb5ab4918a00d9",
    "universe7+presets": "39a9bf3484901cb4ca4286bdaec3a83a9f1121a472ccbe101dc41276ce29229c",
    "larger": "899514184f959ffa031797f12f25652eebe59a66b85490ad5278996104381e58",
}


def test_derived_data_frozen(universe5, all_presets):
    lattices = [*universe5, *all_presets, boolean_lattice(4), chain_lattice(8)]
    assert _derived_digest(lattices) == DERIVED_DIGESTS["universe5+presets"]


def test_larger_derived_data_frozen():
    assert _derived_digest(larger_lattices()) == DERIVED_DIGESTS["larger"]


def test_size7_derived_data_frozen(universe7, all_presets):
    assert len(universe7) == 888
    lattices = [*universe7, *all_presets]
    assert _derived_digest(lattices) == DERIVED_DIGESTS["universe7+presets"]


def test_default_labels_continue_past_z():
    assert default_labels(28, 0, 27) == ("0", *string.ascii_lowercase, "1")
    labels = default_labels(60, 0, 59)
    assert labels[27:30] == ("aa", "ab", "ac")
    assert len(set(labels)) == 60
    L = boolean_lattice(5)  # 32 elements: from_tables with default labels
    assert L.labels[-6:] == ("z", "aa", "ab", "ac", "ad", "1")
    assert validate_lattice(L.to_spec()).labels == L.labels


def test_export_lists_resolve():
    # a stale name in __all__ breaks the star import of its module
    modules = ["comaxlat"] + [
        f"comaxlat.{info.name}" for info in pkgutil.iter_modules(comaxlat.__path__)
    ]
    assert "comaxlat.enumeration" in modules
    for name in modules:
        module = importlib.import_module(name)
        missing = [x for x in module.__all__ if not hasattr(module, x)]
        assert not missing, (name, missing)
        exec(f"from {name} import *", {})
