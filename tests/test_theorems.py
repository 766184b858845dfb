"""Theorem suite: per-entry golden cases and whole-suite soundness."""

import copy
import dataclasses
import hashlib
import random
from collections import Counter

import pytest

from bruteforce import (
    boolean_lattice,
    comaximal_subsets_naive,
    lemma_comaximal_naive,
    lemma_formulas_naive,
    oracle_factorizations_naive,
    product_lattice,
    thm_cpr_sufficiency_naive,
)
from comaxlat.core import LatticeSpec, validate_lattice
from comaxlat.enumeration import enumerated_universe
from comaxlat.factorize import (
    FactorKind,
    NoFactorization,
    _comaximal_walk,
    _oracle_table,
    classify_lattice,
    comaximal_sets,
    factor,
    oracle_factorizations,
)
from comaxlat.presets import PRESET_NAMES, preset
from comaxlat.theorems import (
    THEOREM_IDS,
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

_NAIVE_ENTRIES = {
    "lemma_comaximal": lemma_comaximal_naive,
    "lemma_formulas": lemma_formulas_naive,
}


def _assert_sufficiency_matches_naive(L) -> int:
    """Compare thm_cpr_sufficiency with its subset-scanning twin for the
    generator sets all, principal, the join-irreducibles, and those plus
    the top; return how many of them leave it not-applicable.  The top
    lies below no prime, so only the last set shows whether the checker
    requires the generator to lie below the element.
    """
    na = 0
    ji = L.join_irreducibles()
    ji_top = (*ji, L.top)
    for G, gens in (
        ("all", tuple(L.elements())),
        ("principal", L.principal_elements()),
        (ji, ji),
        (ji_top, ji_top),
    ):
        want = thm_cpr_sufficiency_naive(L, gens)
        e = check_entry(L, "thm_cpr_sufficiency", G)
        assert (e.hypotheses_hold, e.conclusion_holds, e.witness) == want, (L.name, G)
        na += not want[0]
    return na


def _assert_kernels_match_naive(L) -> set[str]:
    """Compare each kernel with its naive twin; return the failing entries."""
    failing = set()
    for tid, naive in _NAIVE_ENTRIES.items():
        hyp, concl, witness = naive(L)
        labels = None if witness is None else tuple(L.label(w) for w in witness)
        e = check_entry(L, tid)
        assert (e.hypotheses_hold, e.conclusion_holds, e.witness) == (
            hyp,
            concl,
            labels,
        ), (L.name, tid)
        if concl is False:
            failing.add(tid)
    sets = comaximal_subsets_naive(L)
    assert list(comaximal_sets(L, L.proper_elements())) == sets
    walk = list(_comaximal_walk(L, L.proper_elements()))
    assert walk == [(parts, L.mul(parts)) for parts in sets], L.name
    # the checkers' one-walk table must list, in order, what the oracle
    # and its naive twin find element by element
    for kind in FactorKind:
        table = _oracle_table(L, kind)
        assert list(table) == list(L.proper_elements()), (L.name, kind)
        for a in L.proper_elements():
            want = oracle_factorizations_naive(L, a, kind)
            assert oracle_factorizations(L, a, kind) == want, (L.name, a, kind)
            assert table[a] == want, (L.name, a, kind)
    return failing


def test_kernels_match_naive_twins(universe_deep, all_presets):
    # the Boolean lattice has many comaximal sets of each size, so the
    # order of the clique walk is compared as well as its contents
    na = 0
    for L in [*universe_deep, *all_presets, boolean_lattice(4)]:
        assert not _assert_kernels_match_naive(L)
        na += _assert_sufficiency_matches_naive(L)
    assert na > 0


def _perturbed(L, rng, tables, row=None):
    """A copy of L with one cell, in the given row or a random one, set to
    one new value in each of the named tables."""
    x = rng.randrange(L.n) if row is None else row
    y = rng.randrange(L.n)
    old = getattr(L, tables[0])[x][y]
    v = rng.choice([u for u in L.elements() if u != old])
    C = copy.copy(L)
    for table in tables:
        rows = [list(r) for r in getattr(L, table)]
        rows[x][y] = v
        setattr(C, table, tuple(map(tuple, rows)))
    return C


def test_kernels_match_naive_twins_on_corrupted_tables(universe5):
    # One perturbed cell of the quotient, join, meet or product table makes
    # the kernels fail; the failures and their witnesses must match too.
    # Products fold from the top, so the top row of the product table is
    # perturbed on its own as well, together with the same cell of the
    # meet table: part (i) of lemma_comaximal compares the two, and would
    # otherwise report every such cell before the products are reached.
    rng = random.Random(20211)
    extra = random.Random(20212)
    failing = Counter()
    for L in universe5:
        if L.n != 5:
            continue
        for table in ("_quot", "_join", "_mul"):
            for _ in range(3):
                failing.update(_assert_kernels_match_naive(_perturbed(L, rng, (table,))))
        for _ in range(3):
            C = _perturbed(L, extra, ("_meet",))
            failing.update(_assert_kernels_match_naive(C))
            C = _perturbed(L, extra, ("_mul", "_meet"), row=L.top)
            failing.update(f"{tid} (top row)" for tid in _assert_kernels_match_naive(C))
    assert failing["lemma_comaximal"] > 0 and failing["lemma_formulas"] > 0, failing
    assert failing["lemma_comaximal (top row)"] > 0, failing


def test_kernels_match_naive_twins_at_size_7(universe7):
    size7 = [L for L in universe7 if L.n == 7]
    assert len(size7) == 723
    for L in random.Random(7).sample(size7, 60):
        assert not _assert_kernels_match_naive(L)


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
    tally = Counter()
    for L in universe7:
        if L.n != 7:
            continue
        report = run_theorem_suite(L)
        assert report.overall_pass, report
        for e in report.entries:
            verdict = (
                "na" if e.conclusion_holds is None
                else "pass" if e.conclusion_holds else "fail"
            )
            tally[e.theorem_id, verdict] += 1
    assert {
        tid: tuple(tally[tid, v] for v in ("pass", "fail", "na"))
        for tid in THEOREM_IDS
    } == SIZE7_TALLY


def _checker_output_digest(lattices) -> str:
    """sha256 of ``repr`` of one row per lattice, in the given order.

    A row is ``(name, suites, report)``: ``suites`` holds, for the
    generator selectors ``"all"``, ``"principal"`` and
    ``L.join_irreducibles()`` in that order, the tuple of every
    checker's ``(theorem_id, hypotheses_hold, conclusion_holds,
    witness)`` in suite order, and ``report`` is ``classify_lattice(L)``.
    """
    rows = []
    for L in lattices:
        suites = tuple(
            tuple(
                (e.theorem_id, e.hypotheses_hold, e.conclusion_holds, e.witness)
                for e in run_theorem_suite(L, G).entries
            )
            for G in ("all", "principal", L.join_irreducibles())
        )
        rows.append((L.name, suites, classify_lattice(L)))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# Checker outputs and classification reports, pinned by
# _checker_output_digest: a changed digest means some entry, witness or
# report differs.
CHECKER_OUTPUT_DIGESTS = {
    "universe5+presets": "e42a62f1506ff8662427e84bd10215ef7d51a5859f0d2b548afc38bd0db5a8f8",
    "universe7": "171844e6d3aa99bb303d69557e057d7bea67e10ab9634e3d5a1def0864a77873",
}


def test_checker_outputs_frozen(universe5, all_presets):
    got = _checker_output_digest([*universe5, *all_presets])
    assert got == CHECKER_OUTPUT_DIGESTS["universe5+presets"]


def test_size7_checker_outputs_frozen(universe7):
    assert len(universe7) == 888
    got = _checker_output_digest(universe7)
    assert got == CHECKER_OUTPUT_DIGESTS["universe7"]
