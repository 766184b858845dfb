"""Theorem suite: per-entry golden cases and whole-suite soundness."""

import copy
import dataclasses
import functools
import hashlib
import itertools
import random
from collections import Counter

import pytest

import bruteforce
from bruteforce import (
    boolean_lattice,
    comaximal_subsets_naive,
    factor_kinds_naive,
    larger_lattices,
    oracle_factorizations_naive,
    product_lattice,
)
from comaxlat import enumeration, factorize, theorems
from comaxlat.core import LatticeSpec, _mask, validate_lattice
from comaxlat.enumeration import enumerated_universe
from comaxlat.factorize import (
    FactorKind,
    NoFactorization,
    _factor_kinds,
    _oracle_counts,
    classify_lattice,
    factor,
    oracle_factorizations,
)
from comaxlat.presets import PRESET_NAMES, preset
from comaxlat.theorems import (
    THEOREM_IDS,
    TheoremEntry,
    UnknownTheoremId,
    check_entry,
    run_theorem_suite,
)


@pytest.fixture(scope="module")
def two_chain():
    return validate_lattice(LatticeSpec("two", ("0", "1"), (("0", "1"),), {}))


def test_suite_passes_on_all_presets(all_presets):
    for L in all_presets:
        report = run_theorem_suite(L)
        assert report.overall_pass, report


def test_entries_come_in_fixed_order(all_presets):
    for L in all_presets:
        report = run_theorem_suite(L)
        assert tuple(e.theorem_id for e in report.entries) == THEOREM_IDS


def test_na_entries_have_no_conclusion(all_presets):
    for L in all_presets:
        for e in run_theorem_suite(L).entries:
            if not e.hypotheses_hold:
                assert e.conclusion_holds is None


def test_l3_consistent_cpr_criterion():
    L3 = preset("L3")
    e = check_entry(L3, "thm_cpr_criterion")
    assert e.hypotheses_hold and e.conclusion_holds
    # the criterion agrees with the example: a fails, minimal primes not comaximal
    with pytest.raises(NoFactorization):
        factor(L3, L3.index("a"), FactorKind.CPR)


def test_e16_one_dimensionality_lemma_not_applicable():
    E = preset("E16")
    e = check_entry(E, "lemma_cq_sufficient")
    assert not e.hypotheses_hold and e.conclusion_holds is None
    # yet primary factorizations exist: sufficiency is not necessity
    report = run_theorem_suite(E)
    assert report.overall_pass


def test_two_chain_trivially_passes(two_chain):
    report = run_theorem_suite(two_chain)
    assert report.overall_pass
    # the two-element lattice is the one place the Dedekind entries apply
    assert report.entry("thm_dedekind").hypotheses_hold
    assert report.entry("thm_dedekind").conclusion_holds
    assert report.entry("dedekind_dim1").hypotheses_hold
    assert report.entry("dedekind_dim1").conclusion_holds
    assert report.entry("lemma_prime_principal").conclusion_holds


def test_check_entry_golden_cases():
    e = check_entry(preset("L1"), "thm_cq_characterization")
    assert e.hypotheses_hold and e.conclusion_holds
    e = check_entry(preset("L4"), "thm_cpr_criterion")
    assert e.hypotheses_hold and e.conclusion_holds
    e = check_entry(preset("L2"), "cor_closure")
    assert e.hypotheses_hold and e.conclusion_holds  # L2 is treed


def test_cor_closure_not_applicable_when_not_treed():
    e = check_entry(preset("L3"), "cor_closure")
    assert not e.hypotheses_hold


def test_unknown_theorem_id():
    with pytest.raises(UnknownTheoremId):
        check_entry(preset("L1"), "thm_nonexistent")


def test_report_entry_accessor():
    report = run_theorem_suite(preset("L1"))
    assert report.entry("lemma_comaximal").theorem_id == "lemma_comaximal"
    with pytest.raises(UnknownTheoremId):
        report.entry("nope")


def test_generator_parameter_variants():
    L = preset("E16")
    for G in ("all", "principal", tuple(L.elements()), (L.bottom, L.top)):
        report = run_theorem_suite(L, G)
        assert report.overall_pass
    with pytest.raises(ValueError):
        run_theorem_suite(L, "everything")
    with pytest.raises(ValueError):
        run_theorem_suite(L, (99,))


def test_nongenerating_set_marks_generator_entries_na():
    L = preset("E16")
    report = run_theorem_suite(L, (L.bottom, L.top))
    for tid in ("thm_treed_from_generators", "cor_compact_equivalences",
                "thm_cpr_sufficiency"):
        assert not report.entry(tid).hypotheses_hold


def test_l2_to_l3_multiplication_flip():
    # same order skeleton, different product: per-element outcomes flip
    L2, L3 = preset("L2"), preset("L3")
    for lab in "abcd":
        assert factor(L2, L2.index(lab), FactorKind.CPR).target == L2.index(lab)
    ok3 = {}
    for lab in "abcd":
        try:
            factor(L3, L3.index(lab), FactorKind.CPR)
            ok3[lab] = True
        except NoFactorization as exc:
            ok3[lab] = False
            assert [L3.label(w) for w in exc.witness] == ["b", "c"]
    assert ok3 == {"a": False, "b": True, "c": True, "d": True}


def test_suite_is_deterministic(all_presets):
    for L in all_presets:
        assert run_theorem_suite(L) == run_theorem_suite(L)


# -- deduplicated kernels against their naive twins ---------------------------

# Each checker's naive twin; every twin takes the generating set, as a
# tuple of elements.
TWINS = {tid: getattr(bruteforce, tid + "_naive") for tid in THEOREM_IDS}


# Which of the tables that the perturbation tests change each kernel reads
# on a valid lattice, directly or through its checker context; pinned by
# test_kernels_read_the_lattice_tables.  Those tests compare a copy only
# with the twins of the kernels that read a changed table, by this map or
# as seen on the copy.  With the map, a kernel that stopped reading a
# table, say the order's join table read in place of the lattice's own,
# is still compared on it.
KERNEL_READS = {
    "lemma_comaximal": {"_quot", "_join", "_meet", "_mul", "_powers"},
    "lemma_formulas": {"_quot", "_join", "_meet", "_powers"},
    "thm_unique_lift": {"_quot", "_join", "_mul", "_powers"},
    "thm_cpr_criterion": {"_quot", "_join", "_mul", "_powers"},
    "thm_cq_characterization": {"_quot", "_join", "_mul", "_powers"},
    "factor_kinds": {"_quot", "_join", "_mul", "_powers"},
    "walk and oracle counts": {"_join", "_mul"},
}
# The checkers that read those tables, and those that take the generating
# set but read no table directly; thm_cpr_sufficiency is compared on
# generator sets of its own (_assert_sufficiency_matches_naive).
TABLE_IDS = tuple(tid for tid in THEOREM_IDS if tid in KERNEL_READS)
GENERATOR_IDS = tuple(
    tid for tid in THEOREM_IDS if tid not in (*TABLE_IDS, "thm_cpr_sufficiency")
)


def _assert_twins_match(L, tids, G="all", gens=None, perturbed=None) -> set[str]:
    """Compare the entries ``tids`` for the generator set ``G``, whose
    elements are ``gens`` (all of them by default), with their twins;
    return the failing ones.  ``perturbed`` names the tables changed in
    L, a perturbed copy: then only the entries that read one of them are
    compared (see _compared)."""
    gens = tuple(L.elements()) if gens is None else gens
    failing = set()
    for tid in tids:
        e, read = _compared(L, perturbed, tid, lambda W: check_entry(W, tid, G))
        if not read:
            continue
        hyp, concl, witness = TWINS[tid](L, gens)
        labels = None if witness is None else tuple(L.label(w) for w in witness)
        assert (e.hypotheses_hold, e.conclusion_holds, e.witness) == (
            hyp,
            concl,
            labels,
        ), (L.name, tid, G)
        if concl is False:
            failing.add(tid)
    return failing


def _assert_sufficiency_matches_naive(L) -> int:
    """Compare thm_cpr_sufficiency with its subset-scanning twin for the
    generator sets all, principal, the join-irreducibles, and those plus
    the top; return how many of them leave it not-applicable.  The top
    lies below no prime, so only the last set shows whether the checker
    requires the generator to lie below the element.
    """
    ji = L.join_irreducibles()
    ji_top = (*ji, L.top)
    na = 0
    for G, gens in (
        ("all", None),
        ("principal", L.principal_elements()),
        (ji, ji),
        (ji_top, ji_top),
    ):
        _assert_twins_match(L, ("thm_cpr_sufficiency",), G, gens)
        na += not check_entry(L, "thm_cpr_sufficiency", G).hypotheses_hold
    return na


def _watched(L, tables, kernel):
    """``kernel(L)``, and whether it read one of the attributes ``tables``
    of L, directly or through the lattice's methods."""
    W = copy.copy(L)
    W.__class__ = _reading_class(type(L), tables)
    W.reads = False
    return kernel(W), W.reads


def _compared(L, perturbed, name, kernel):
    """``kernel(L)``, and whether to compare it with its twin: always on a
    lattice as built (``perturbed`` None), and on a copy whose tables
    ``perturbed`` were changed when the kernel ``name`` reads one of
    them, by KERNEL_READS or in this call."""
    if perturbed is None:
        return kernel(L), True
    got, read = _watched(L, perturbed, kernel)
    return got, read or not KERNEL_READS[name].isdisjoint(perturbed)


@functools.cache
def _reading_class(cls, tables):
    """A subclass of ``cls`` whose instances set ``reads`` when one of the
    attributes ``tables`` is read."""

    def watched(name):
        def get(self):
            self.reads = True
            return self.__dict__[name]

        return property(get)

    return type("Reading", (cls,), {t: watched(t) for t in tables})


def _walk_and_counts(L):
    """The checkers' walk of the proper elements and their oracle count
    of each kind, filtered from that walk."""
    ctx = theorems._Ctx(L, tuple(L.elements()))
    return ctx.walk, {kind: _oracle_counts(L, kind, ctx.walk) for kind in FactorKind}


def _assert_kernels_match_naive(L, perturbed=None) -> set[str]:
    """Compare each kernel with its naive twin; return the failing entries.

    ``perturbed`` names the tables changed in L, a perturbed copy: then
    only the kernels that read one of them are compared.  Each of the
    others reads only the tables of the lattice L was copied from, and
    is compared on that lattice."""
    failing = _assert_twins_match(L, TABLE_IDS, perturbed=perturbed)
    kinds, read = _compared(L, perturbed, "factor_kinds", _factor_kinds)
    if read:
        assert kinds == factor_kinds_naive(L), L.name
    (walk, counts), read = _compared(
        L, perturbed, "walk and oracle counts", _walk_and_counts
    )
    if not read:
        return failing
    sets = [parts for parts, _, _ in walk]
    assert sets == comaximal_subsets_naive(L), L.name
    assert walk == [(parts, L.mul(parts), _mask(parts)) for parts in sets], L.name
    # the oracle, walking its candidates alone, must list in order what the
    # naive scan finds, and the checkers' counts, filtered from their
    # context's one walk, must count it
    for kind in FactorKind:
        for a in L.proper_elements():
            want = oracle_factorizations_naive(L, a, kind)
            assert oracle_factorizations(L, a, kind) == want, (L.name, a, kind)
            assert counts[kind][a] == len(want), (L.name, a, kind)
    return failing


def test_kernels_match_naive_twins(universe_deep, all_presets):
    # the Boolean lattice has many comaximal sets of each size, so the
    # order of the clique walk is compared as well as its contents
    # B3 is here because the perturbed copies below are made from it
    na = 0
    for L in [*universe_deep, *all_presets, boolean_lattice(3), boolean_lattice(4)]:
        assert not _assert_kernels_match_naive(L)
        na += _assert_sufficiency_matches_naive(L)
    assert na > 0


@pytest.mark.parametrize("universe", ["universe_deep", "universe7"])
def test_generator_checkers_match_naive_twins(request, universe, all_presets):
    # the nine checkers of GENERATOR_IDS against twins written from their
    # statements, for the generator sets all, principal and the
    # join-irreducibles; no entry fails on a lattice, and every entry whose
    # hypotheses can hold on a finite lattice is applicable somewhere
    lattices = [*request.getfixturevalue(universe), *all_presets, *larger_lattices()]
    applicable = set()
    for L in lattices:
        ji = L.join_irreducibles()
        for G, gens in (("all", None), ("principal", L.principal_elements()), (ji, ji)):
            assert not _assert_twins_match(L, GENERATOR_IDS, G, gens), (L.name, G)
            applicable.update(
                tid for tid in GENERATOR_IDS if check_entry(L, tid, G).hypotheses_hold
            )
    assert applicable == set(GENERATOR_IDS) - set(NEVER_APPLICABLE), applicable


def _with_cells(L, cells):
    """A copy of L with each ``(table, x, y, value)`` cell set; a cell
    just past the end of its row extends the row."""
    C = copy.copy(L)
    for table, x, y, v in cells:
        rows = [list(r) for r in getattr(C, table)]
        rows[x][y : y + 1] = [v]
        setattr(C, table, tuple(map(tuple, rows)))
    return C


def _perturbed(L, rng, tables, row=None, col=None):
    """A copy of L with one cell, in the given row and column or random
    ones, set to one new value in each of the named tables."""
    x = rng.randrange(L.n) if row is None else row
    y = rng.randrange(L.n) if col is None else col
    old = getattr(L, tables[0])[x][y]
    v = rng.choice([u for u in L.elements() if u != old])
    return _with_cells(L, [(table, x, y, v) for table in tables])


# A top-row product cell, changed with the same cell of the meet table
TOP_ROW = ("_mul", "_meet")


def test_kernels_match_naive_twins_on_corrupted_tables(universe5):
    # One perturbed cell of the quotient, join, meet or product table makes
    # the kernels fail; the failures and their witnesses must match too.
    # Products fold from the top, so the top row of the product table is
    # perturbed on its own as well, together with the same cell of the
    # meet table: part (i) of lemma_comaximal compares the two, and would
    # otherwise report every such cell before the products are reached.
    # cor_closure reads the product, meet and join tables, but its twin
    # also derives the primes and the factorizations from the product
    # table, which the checker takes from the lattice as it was built; so
    # it is compared on the perturbed quotient, join and meet tables only.
    # Each copy is compared with the twins of the kernels that read a
    # perturbed table (see _assert_kernels_match_naive).
    rng = random.Random(20211)
    extra = random.Random(20212)
    failing = Counter()
    for L in universe5:
        if L.n != 5:
            continue
        for table in ("_quot", "_join", "_mul"):
            for _ in range(3):
                C = _perturbed(L, rng, (table,))
                failing.update(_assert_kernels_match_naive(C, (table,)))
                if table != "_mul":
                    failing.update(_assert_twins_match(C, ("cor_closure",)))
        for _ in range(3):
            C = _perturbed(L, extra, ("_meet",))
            failing.update(_assert_kernels_match_naive(C, ("_meet",)))
            failing.update(_assert_twins_match(C, ("cor_closure",)))
            C = _perturbed(L, extra, TOP_ROW, row=L.top)
            failing.update(
                f"{tid} (top row)" for tid in _assert_kernels_match_naive(C, TOP_ROW)
            )
    for tid in (*TABLE_IDS, "cor_closure"):
        assert failing[tid] > 0, (tid, failing)
    assert failing["lemma_comaximal (top row)"] > 0, failing


def test_kernels_match_naive_twins_on_one_comaximal_cell():
    # The kernels read each comaximality and product cell as the twins do:
    # (p, q) with p before q.  Perturbing one cell of a comaximal pair
    # alone, (p, q) or (q, p), leaves the other intact, so a kernel that
    # reads the other one disagrees with its twin.  The size-5 universe
    # has two comaximal pairs; the 8-element Boolean lattice has six.
    rng = random.Random(20214)
    failing = Counter()
    L = boolean_lattice(3)
    for p, q in itertools.permutations(L.proper_elements(), 2):
        if L.comaximal(p, q):
            for table in ("_join", "_mul"):
                C = _perturbed(L, rng, (table,), row=p, col=q)
                failing.update(_assert_kernels_match_naive(C, (table,)))
    for tid in set(TABLE_IDS) - {"lemma_formulas"}:
        assert failing[tid] > 0, (tid, failing)


def _guard_breaking_cells(L, rng):
    """``(guard, kernel, cells)`` for each identity that lemma_formulas or
    thm_unique_lift checks before its fast path, with the cells of a copy
    of L that break it: a power c^k not below c^(k-1); a quotient (0 : x)
    not below (0 : y), y a lower cover of x, in three cases; a meet cell
    off the order's table.  The one-part identity, which the factor table
    shares, gets one case per conjunct: a top-row product cell, so that
    the top is no identity; the top's powers extended to (1, x), x
    proper; a join cell 0 v x other than x; a quotient (b : 1) other than
    b.  Were the quotient identity not checked, a broken quotient cell
    would change the verdict or witness of lemma_formulas most often in
    the row of the bottom: for 31 of its 292 such cells in the size-5
    universe and B3, against 2 of 306 in the other rows."""
    up, covers, n = L._order.up, L._order.covers, L.n
    powers = [
        (c, k, v)
        for c, chain in enumerate(L._powers)
        for k in range(1, len(chain))
        for v in L.elements()
        if not up[v] >> chain[k - 1] & 1
    ]
    row = L._quot[L.bottom]
    quots = [
        (L.bottom, x, v)
        for x in L.elements()
        for y in covers[x]
        for v in L.elements()
        if not up[v] >> row[y] & 1
    ]
    x, y = rng.randrange(n), rng.randrange(n)
    meet = rng.choice([v for v in L.elements() if v != L._meet[x][y]])
    col = rng.randrange(n)
    top = rng.choice([v for v in L.elements() if v != col])
    cases = [
        ("meet", "lemma_formulas", [("_meet", x, y, meet)]),
        ("top row", "thm_unique_lift", [("_mul", L.top, col, top)]),
    ]
    if powers:
        cases.append(("powers", "lemma_formulas", [("_powers", *rng.choice(powers))]))
    for cell in rng.sample(quots, min(3, len(quots))):
        cases.append(("quotient", "lemma_formulas", [("_quot", *cell)]))
    x, y = rng.choice(L.proper_elements()), rng.randrange(n)
    join = rng.choice([v for v in L.elements() if v != y])
    b = rng.randrange(n)
    quot = rng.choice([v for v in L.elements() if v != b])
    cases += [
        ("top powers", "thm_unique_lift", [("_powers", L.top, 1, x)]),
        ("bottom join row", "thm_unique_lift", [("_join", L.bottom, y, join)]),
        ("quotient by the top", "thm_unique_lift", [("_quot", b, L.top, quot)]),
    ]
    return cases


# The guard cases of _guard_breaking_cells over the size-5 universe and B3.
GUARD_CASES = 318


def test_kernels_match_naive_twins_on_broken_identities(universe5):
    # Four kernels skip work that an identity of the tables decides, and
    # check the identity first: lemma_formulas reads each sequence's last
    # term when the join and meet tables are the order's, the power chains
    # decrease and the quotient rows are antitone; thm_unique_lift skips
    # the one-part scans, and lemma_comaximal decides k = 3 by k = 2, when
    # the top row of the product table is the identity; thm_unique_lift
    # and the factor table skip the one-part lifts when every one-part
    # lift is fixed.  One cell breaking an identity must send the kernel
    # back to its full scan.  The join cells x v x and 0 v x are off the
    # order's table too.  A top-row product cell changes its meet cell
    # with it, as in the corrupted tables above, except in the guard cases
    # for thm_unique_lift.  Each guard case is compared with the twin of
    # the kernel it guards, and those of thm_unique_lift with the factor
    # table's twin as well.
    rng = random.Random(20215)
    failing = Counter()
    cases = 0
    B3 = boolean_lattice(3)
    for L in [*universe5, B3]:
        for x in L.elements():
            for tables, C in (
                (("_join",), _perturbed(L, rng, ("_join",), row=x, col=x)),
                (("_join",), _perturbed(L, rng, ("_join",), row=L.bottom, col=x)),
                (TOP_ROW, _perturbed(L, rng, TOP_ROW, row=L.top, col=x)),
            ):
                failing.update(_assert_kernels_match_naive(C, tables))
        for guard, tid, cells in _guard_breaking_cells(L, rng):
            C = _with_cells(L, cells)
            failing.update((guard, t) for t in _assert_twins_match(C, (tid,)))
            if tid == "thm_unique_lift":
                # the factor table decides its one-part lifts by the same
                # identity, which the suite's context checks once for both;
                # a factor that is not the element changes a primary or
                # prime-power bit
                kinds = _factor_kinds(C)
                ctx = theorems._Ctx(C, tuple(C.elements()))
                assert kinds == factor_kinds_naive(C) == ctx.kinds, (L.name, guard)
                failing[guard, "factor_kinds"] += kinds != _factor_kinds(L)
            cases += 1
    assert cases == GUARD_CASES, cases
    assert failing["lemma_formulas"] > 0, failing
    assert failing["lemma_comaximal"] > 0, failing
    for guard in ("meet", "powers", "quotient"):
        assert failing[guard, "lemma_formulas"] > 0, (guard, failing)
    for guard in ("top row", "top powers", "bottom join row", "quotient by the top"):
        assert failing[guard, "thm_unique_lift"] > 0, (guard, failing)
    for guard in ("top powers", "bottom join row", "quotient by the top"):
        assert failing[guard, "factor_kinds"] > 0, (guard, failing)
    # With every other row intact, k = 2 decides k = 3 even on a broken
    # top row, so these cases break row x too: with 1*x = 1, k = 2 never
    # reads row x, while k = 3 reaches it as c1*c2 with c1 != x, and
    # x*x = 0 is comaximal to nothing proper.  In B3, x = {2} fails with
    # a = {0, 1} and (c1, c2, c3) = ({0, 2}, {2}, {2}).
    triples = 0
    top, bottom = B3.top, B3.bottom
    for x in B3.proper_elements():
        C = _with_cells(B3, [
            ("_mul", top, x, top), ("_meet", top, x, top), ("_mul", x, x, bottom),
        ])
        _assert_kernels_match_naive(C, TOP_ROW)
        triples += len(check_entry(C, "lemma_comaximal").witness or ()) == 4
    assert triples > 0


def test_valid_lattices_take_the_fast_paths(monkeypatch, universe_deep, all_presets):
    # On a valid lattice every identity above holds, so lemma_formulas
    # never scans, thm_unique_lift never scans or lifts a one-part
    # decomposition, and the factor table lifts only the elements with
    # two or more minimal primes: an element with one is its own lift.
    def no_scan(*args):
        raise AssertionError("lemma_formulas scanned a valid lattice")

    scan = theorems._lift_matches
    radical_lift = theorems._radical_lift
    cpr_lift = factorize._cpr_lift

    def lift_matches(L, b, rads, same_radical):
        assert len(rads) > 1, "thm_unique_lift scanned a one-part decomposition"
        return scan(L, b, rads, same_radical)

    def counted_radical_lift(L, parts):
        assert len(parts) > 1, "thm_unique_lift lifted a one-part decomposition"
        return radical_lift(L, parts)

    def counted_cpr_lift(L, a):
        assert len(L._min_primes[a]) > 1, ("the factor table lifted", L.name, a)
        return cpr_lift(L, a)

    monkeypatch.setattr(theorems, "_lemma_formulas_scan", no_scan)
    monkeypatch.setattr(theorems, "_lift_matches", lift_matches)
    monkeypatch.setattr(theorems, "_radical_lift", counted_radical_lift)
    monkeypatch.setattr(factorize, "_cpr_lift", counted_cpr_lift)
    for L in [*universe_deep, *all_presets, *larger_lattices(), *relabeled_products()]:
        assert run_theorem_suite(L).overall_pass, L.name


# -- one derivation per lattice ----------------------------------------------


def test_suite_walks_once_per_lattice(monkeypatch, universe_deep, all_presets):
    # The comaximal sets of the proper elements are walked once per lattice
    # and shared by thm_unique_lift and both oracle counts.  The
    # comaximality masks are built once per lattice too, and the walk
    # reads the masks that lemma_comaximal and thm_cpr_criterion read.
    # Both bindings of the walk and of the builder are counted, as the
    # oracle tables once walked through the binding in factorize.
    walk, walks = factorize._comaximal_walk, []
    build, builds = factorize._comaximal_masks, []

    def counted_walk(L, candidates, cm):
        walks.append((L, cm))
        return walk(L, candidates, cm)

    def counted_build(L):
        builds.append((L, build(L)))
        return builds[-1][1]

    for module in (theorems, factorize):
        monkeypatch.setattr(module, "_comaximal_walk", counted_walk)
        monkeypatch.setattr(module, "_comaximal_masks", counted_build)
    for L in [*universe_deep, *all_presets, *larger_lattices(), *relabeled_products()]:
        walks.clear()
        builds.clear()
        run_theorem_suite(L)
        assert [M for M, _ in walks] == [L], (L.name, len(walks))
        assert [M for M, _ in builds] == [L], (L.name, len(builds))
        assert walks[0][1] is builds[0][1], L.name


def test_checker_outcomes_are_bools_or_none(universe5, all_presets):
    # The suite hands out one shared entry per checker and outcome without
    # a witness, looked up by (theorem_id, hypotheses_hold,
    # conclusion_holds).  A 0 or a 1 would find the entry of False or
    # True, so every checker must return exactly a bool, and None for a
    # conclusion it does not evaluate.  Perturbed copies reach the failing
    # outcomes.
    rng = random.Random(20216)
    lattices = [*universe5, *all_presets, *larger_lattices(), *relabeled_products()]
    for L in universe5:
        if L.n == 5:
            lattices += [_perturbed(L, rng, (t,)) for t in ("_quot", "_join", "_mul")]
    outcomes = set()
    for L in lattices:
        for G in ("all", "principal", L.join_irreducibles()):
            ctx = theorems._Ctx(L, theorems._resolve_generators(L, G))
            for tid, checker in theorems._CHECKERS.items():
                hyp, concl, _ = checker(ctx)
                assert type(hyp) is bool, (L.name, tid, G, hyp)
                assert type(concl) is bool if hyp else concl is None, (L.name, tid, G)
                outcomes.add((hyp, concl))
    assert outcomes == {(False, None), (True, True), (True, False)}


def test_shared_entries_equal_fresh_ones(all_presets):
    outcomes = ((False, None), (True, True), (True, False))
    entries = theorems._ENTRIES
    assert list(entries) == [(t, *o) for t in THEOREM_IDS for o in outcomes]
    for (tid, hyp, concl), entry in entries.items():
        fresh = TheoremEntry(tid, hyp, concl)
        assert entry == fresh and hash(entry) == hash(fresh)
        assert dataclasses.astuple(entry) == dataclasses.astuple(fresh)
        assert dataclasses.astuple(entry) == (tid, hyp, concl, None)
        assert dataclasses.replace(entry) == fresh
        witnessed = dataclasses.replace(entry, witness=("a",))
        assert witnessed == dataclasses.replace(fresh, witness=("a",))
        assert witnessed != entry and entry.witness is None
    # an outcome without a witness is the shared entry itself
    for L in all_presets:
        for e in run_theorem_suite(L).entries:
            if e.witness is None:
                key = e.theorem_id, e.hypotheses_hold, e.conclusion_holds
                assert e is entries[key], (L.name, key)


def test_kernels_read_the_lattice_tables(all_presets):
    kernels = {tid: lambda W, tid=tid: check_entry(W, tid) for tid in TABLE_IDS}
    kernels["factor_kinds"] = _factor_kinds
    kernels["walk and oracle counts"] = _walk_and_counts
    tables = set().union(*KERNEL_READS.values())
    for L in all_presets:
        for name, kernel in kernels.items():
            got = {t for t in tables if _watched(L, (t,), kernel)[1]}
            assert got == KERNEL_READS[name], (L.name, name, got)


def test_unique_lift_fails_on_a_wrong_quotient_by_the_top(universe5):
    # The lift of b through a single part is (b : 1), so a wrong cell
    # (b : 1) != b must fail thm_unique_lift, with b as the witness.
    rng = random.Random(20213)
    cases = 0
    for L in universe5:
        if L.n < 3:
            continue
        for b in L.proper_elements():
            C = _perturbed(L, rng, ("_quot",), row=b, col=L.top)
            e = check_entry(C, "thm_unique_lift")
            assert e.conclusion_holds is False, (L.name, b)
            assert e.witness[0] == L.label(b), (L.name, b, e.witness)
            cases += 1
    assert cases == 129


def test_kernels_match_naive_twins_at_size_7(universe7):
    size7 = [L for L in universe7 if L.n == 7]
    assert len(size7) == 723
    for L in random.Random(7).sample(size7, 60):
        assert not _assert_kernels_match_naive(L)
        _assert_sufficiency_matches_naive(L)


def test_direct_products_follow_their_components():
    # A x B is never a domain (and so never Dedekind); its primes are those
    # of A paired with the top of B and vice versa, so the other flags are
    # the AND of the components' and the dimension is the larger one.
    rng = random.Random(2021)
    components = [*enumerated_universe(4), *(preset(p) for p in PRESET_NAMES)]
    for _ in range(20):
        A, B = rng.choice(components), rng.choice(components)
        spec = product_lattice(A, B).to_spec()
        elements = list(spec.elements)
        rng.shuffle(elements)
        P = validate_lattice(dataclasses.replace(spec, elements=tuple(elements)))
        assert run_theorem_suite(P).overall_pass, P.name
        got, a, b = classify_lattice(P), classify_lattice(A), classify_lattice(B)
        for flag in ("is_cpr_lattice", "is_cq_lattice", "is_cpp_lattice", "is_treed"):
            assert getattr(got, flag) == (getattr(a, flag) and getattr(b, flag)), (
                P.name, flag
            )
        assert got.dimension == max(a.dimension, b.dimension), P.name
        assert not got.is_domain and not got.is_dedekind, P.name


# The facts that make five checkers not-applicable on finite lattices
# (see their docstrings): a domain's atoms are idempotent, and in a
# domain with more than two elements only the bounds are join-principal.


def _domains(lattices, min_size=2):
    domains = [L for L in lattices if L.lattice_profile().is_domain and L.n >= min_size]
    assert domains
    return domains


def test_domain_atoms_are_idempotent(universe_deep, all_presets):
    for L in _domains([*universe_deep, *all_presets]):
        for t in L.elements():
            if L.lower_covers(t) == (L.bottom,):
                assert L.mul2(t, t) == t, (L.name, t)


def test_domains_have_no_proper_nonzero_join_principal_element(
    universe_deep, all_presets
):
    for L in _domains([*universe_deep, *all_presets], min_size=3):
        assert set(L.join_principal_elements()) <= {L.bottom, L.top}, L.name


# Checkers whose docstrings prove the hypotheses hold on no finite lattice,
# or on the 2-chain only; a lattice that triggers one means a wrong proof or
# a wrong checker.
NEVER_APPLICABLE = ("cor_cq_dimension", "thm_cq_generators")
TWO_CHAIN_ONLY = ("lemma_prime_principal", "thm_dedekind", "dedekind_dim1")


def test_vacuous_hypotheses_hold_on_the_two_chain_only(universe_deep, all_presets):
    applicable = set()
    for L in [*universe_deep, *all_presets, *larger_lattices()]:
        for G in ("all", "principal", L.join_irreducibles()):
            for tid in NEVER_APPLICABLE + TWO_CHAIN_ONLY:
                if check_entry(L, tid, G).hypotheses_hold:
                    assert tid in TWO_CHAIN_ONLY and L.n == 2, (L.name, tid, G)
                    applicable.add(tid)
    # the 2-chain is in the universe and meets all three
    assert applicable == set(TWO_CHAIN_ONLY)


# Per-checker (pass, fail, not-applicable) tally over the 723 size-7
# lattices, frozen from the exhaustive kernels before they were
# deduplicated; a checker that silently turns not-applicable shows here.
SIZE7_TALLY = {
    "lemma_comaximal": (723, 0, 0),
    "lemma_formulas": (723, 0, 0),
    "thm_unique_lift": (723, 0, 0),
    "thm_cpr_criterion": (723, 0, 0),
    "cor_closure": (694, 0, 29),
    "thm_treed_from_generators": (694, 0, 29),
    "cor_compact_equivalences": (723, 0, 0),
    "thm_cpr_sufficiency": (694, 0, 29),
    "thm_cq_characterization": (723, 0, 0),
    "cor_cq_dimension": (0, 0, 723),
    "lemma_cq_sufficient": (34, 0, 689),
    "thm_cq_generators": (0, 0, 723),
    "lemma_prime_principal": (0, 0, 723),
    "thm_dedekind": (0, 0, 723),
    "dedekind_dim1": (0, 0, 723),
}


def test_size7_theorem_suite_tally(universe7):
    reports = [run_theorem_suite(L) for L in universe7 if L.n == 7]
    for report in reports:
        assert report.overall_pass, report
    assert _tally(reports) == SIZE7_TALLY


# The same tally over the 4,712 size-8 lattices, checked under --size8.
SIZE8_TALLY = {
    "lemma_comaximal": (4712, 0, 0),
    "lemma_formulas": (4712, 0, 0),
    "thm_unique_lift": (4712, 0, 0),
    "thm_cpr_criterion": (4712, 0, 0),
    "cor_closure": (4539, 0, 173),
    "thm_treed_from_generators": (4539, 0, 173),
    "cor_compact_equivalences": (4712, 0, 0),
    "thm_cpr_sufficiency": (4539, 0, 173),
    "thm_cq_characterization": (4712, 0, 0),
    "cor_cq_dimension": (0, 0, 4712),
    "lemma_cq_sufficient": (191, 0, 4521),
    "thm_cq_generators": (0, 0, 4712),
    "lemma_prime_principal": (0, 0, 4712),
    "thm_dedekind": (0, 0, 4712),
    "dedekind_dim1": (0, 0, 4712),
}


def _checker_output_digest(lattices, selectors=("all", "principal", None)) -> str:
    """sha256 of ``repr`` of one row per lattice, in the given order.

    A row is ``(name, suites, report)``: ``suites`` holds, for each
    generator selector in ``selectors`` in that order (by default
    ``"all"``, ``"principal"`` and ``L.join_irreducibles()``, written
    ``None``), the tuple of every checker's ``(theorem_id,
    hypotheses_hold, conclusion_holds, witness)`` in suite order, and
    ``report`` is ``classify_lattice(L)``.
    """
    rows = []
    for L in lattices:
        suites = tuple(
            tuple(
                (e.theorem_id, e.hypotheses_hold, e.conclusion_holds, e.witness)
                for e in run_theorem_suite(L, G).entries
            )
            for G in (L.join_irreducibles() if G is None else G for G in selectors)
        )
        rows.append((L.name, suites, classify_lattice(L)))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _tally(reports) -> dict[str, tuple[int, int, int]]:
    """Per checker, how many reports pass, fail and are not applicable."""
    tally = Counter()
    for report in reports:
        for e in report.entries:
            verdict = (
                "na" if e.conclusion_holds is None
                else "pass" if e.conclusion_holds else "fail"
            )
            tally[e.theorem_id, verdict] += 1
    return {
        tid: tuple(tally[tid, v] for v in ("pass", "fail", "na"))
        for tid in THEOREM_IDS
    }


def relabeled_products():
    """Four products A x B of 8 to 20 elements from the size-4 universe and
    the presets, each with its elements shuffled, so that the bounds and
    the order of the elements are not the product's own."""
    rng = random.Random(35)
    components = [*enumerated_universe(4), *(preset(p) for p in PRESET_NAMES)]
    out = []
    while len(out) < 4:
        A, B = rng.choice(components), rng.choice(components)
        if not 8 <= A.n * B.n <= 20:
            continue
        spec = product_lattice(A, B).to_spec()
        elements = list(spec.elements)
        rng.shuffle(elements)
        out.append(validate_lattice(dataclasses.replace(spec, elements=tuple(elements))))
    return out


# Checker outputs and classification reports, pinned by
# _checker_output_digest: a changed digest means some entry, witness or
# report differs.
CHECKER_OUTPUT_DIGESTS = {
    "universe5+presets": "e42a62f1506ff8662427e84bd10215ef7d51a5859f0d2b548afc38bd0db5a8f8",
    "universe7": "171844e6d3aa99bb303d69557e057d7bea67e10ab9634e3d5a1def0864a77873",
    # larger_lattices() and relabeled_products()
    "larger": "b523267e42a9e5d37ff6fcbd440c221fa72faba8e5d1a7fa6ecaf32018ce7a55",
    # the 4,712 size-8 lattices, generators "all" only
    "size8": "c32ce8290d6365942dbb6c6b528bc03e94d68e9eb2fd6e57e6aa822a28096dc3",
}


def test_checker_outputs_frozen(universe5, all_presets):
    got = _checker_output_digest([*universe5, *all_presets])
    assert got == CHECKER_OUTPUT_DIGESTS["universe5+presets"]


def test_size7_checker_outputs_frozen(universe7):
    assert len(universe7) == 888
    got = _checker_output_digest(universe7)
    assert got == CHECKER_OUTPUT_DIGESTS["universe7"]


def test_larger_checker_outputs_frozen():
    got = _checker_output_digest([*larger_lattices(), *relabeled_products()])
    assert got == CHECKER_OUTPUT_DIGESTS["larger"]


def test_size8_theorem_suite_frozen(request, monkeypatch):
    if not request.config.getoption("--size8"):
        pytest.skip("needs --size8")
    monkeypatch.setattr(enumeration, "HARD_SIZE_CAP", 8)
    lattices = [
        L
        for order in enumeration.enumerate_bounded_lattices(8)
        for L in enumeration.enumerate_multiplications(order)
    ]
    assert len(lattices) == 4712
    assert _tally(run_theorem_suite(L) for L in lattices) == SIZE8_TALLY
    got = _checker_output_digest(lattices, selectors=("all",))
    assert got == CHECKER_OUTPUT_DIGESTS["size8"]
