"""Identity and invariant suites, exhaustive over the small universe.

Everything quantified is checked over all tuples for every enumerated
lattice up to size 5 (size 6 with --size6) plus the built-ins; the
radical identity is checked against an independently computed
definitional form.  The facts that follow from the axioms also run on
five larger lattices, and on every lattice up to size 7 with --size7.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import (
    boolean_lattice,
    chain_lattice,
    dimension_naive,
    is_primary_naive,
    is_prime_naive,
    larger_lattices,
    min_primes_naive,
    radical_by_nilpotents,
)
from comaxlat.core import LatticeSpec, validate_lattice
from comaxlat.enumeration import canonical_form
from comaxlat.factorize import classify_lattice
from comaxlat.presets import PRESET_NAMES, preset, preset_spec


@pytest.fixture(scope="module")
def lattices(universe_deep, all_presets):
    return list(universe_deep) + list(all_presets)


@pytest.fixture(scope="module")
def shapes(lattices):
    """The lattices above plus a larger Boolean lattice, a longer chain and
    three direct products, for the facts that follow from the axioms."""
    return lattices + larger_lattices()


# The facts below follow from the axioms that from_tables checks, so no
# code path re-proves them; these tests are where they stay checked.


def _product_below_meet(L):
    for x, y in itertools.product(L.elements(), repeat=2):
        assert L.leq(L.mul2(x, y), L.meet2(x, y)), (L.name, x, y)


def _product_monotone(L):
    for x, y, z in itertools.product(L.elements(), repeat=3):
        if L.leq(y, z):
            assert L.leq(L.mul2(x, y), L.mul2(x, z)), (L.name, x, y, z)


def _power_chain_strictly_decreases(L):
    for x in L.elements():
        chain = L.power_chain(x)
        for fst, snd in zip(chain, chain[1:]):
            assert L.leq(snd, fst) and snd != fst, (L.name, x)
        last = chain[-1]
        assert L.mul2(last, x) == last, (L.name, x)


def _proper_elements_below_a_maximal_one(L):
    for x in L.proper_elements():
        assert any(L.leq(x, m) for m in L.max_elements()), (L.name, x)


def test_product_below_meet(shapes):
    for L in shapes:
        _product_below_meet(L)


def test_product_monotone(shapes):
    for L in shapes:
        _product_monotone(L)


def test_radical_agreement(lattices):
    for L in lattices:
        for a in L.elements():
            assert L.radical(a) == radical_by_nilpotents(L, a)


def test_quotient_adjunction(lattices):
    for L in lattices:
        for y, x in itertools.product(L.elements(), repeat=2):
            q = L.quotient(y, x)
            assert L.leq(L.mul2(q, x), y)
            for a in L.elements():
                if L.leq(L.mul2(a, x), y):
                    assert L.leq(a, q)


def test_comaximality_facts(lattices):
    for L in lattices:
        top = L.top
        for a, b in itertools.product(L.elements(), repeat=2):
            c1 = L.join2(a, b) == top
            if c1:
                assert L.meet2(a, b) == L.mul2(a, b)
                assert L.quotient(a, b) == a
            c2 = L.join2(L.radical(a), L.radical(b)) == top
            powers = [
                L.join2(ai, bj) == top
                for ai in L.power_chain(a)
                for bj in L.power_chain(b)
            ]
            assert c1 == c2 == all(powers) == any(powers)


def test_comaximal_with_each_factor_implies_with_product(lattices):
    for L in lattices:
        for a in L.elements():
            for c1, c2 in itertools.product(L.elements(), repeat=2):
                if L.comaximal(a, c1) and L.comaximal(a, c2):
                    assert L.comaximal(a, L.mul2(c1, c2))


def test_radical_quotient_formula(lattices):
    # (radical(b) : c) equals the radical of the join of the (b : c^k)
    for L in lattices:
        for b, c in itertools.product(L.elements(), repeat=2):
            rhs = L.radical(L.join(L.quotient(b, ck) for ck in L.power_chain(c)))
            assert L.quotient(L.radical(b), c) == rhs


def test_prime_implies_primary_implies_prime_radical(lattices):
    for L in lattices:
        for x in L.elements():
            p = L.element_profile(x)
            if p.is_prime:
                assert p.is_primary
            if p.is_primary:
                assert L.is_prime(L.radical(x))


@pytest.mark.parametrize("universe", ["universe_deep", "universe7"])
def test_spectrum_matches_naive_twins(request, universe, all_presets):
    lattices = list(request.getfixturevalue(universe)) + list(all_presets)
    for L in lattices + [boolean_lattice(4), chain_lattice(8)]:
        for x in L.elements():
            assert L.is_prime(x) == is_prime_naive(L, x), (L.name, x)
            assert L.is_primary(x) == is_primary_naive(L, x), (L.name, x)
            assert L.min_primes(x) == min_primes_naive(L, x), (L.name, x)
        assert L.dimension() == dimension_naive(L), L.name


def test_products_of_principal_elements_are_principal(lattices):
    for L in lattices:
        principal = set(L.principal_elements())
        for x, y in itertools.combinations_with_replacement(sorted(principal), 2):
            assert L.mul2(x, y) in principal


def test_principal_product_factors_in_domain(lattices):
    for L in lattices:
        if not L.lattice_profile().is_domain:
            continue
        principal = set(L.principal_elements())
        for x, y in itertools.product(L.elements(), repeat=2):
            xy = L.mul2(x, y)
            if xy in principal and xy != L.bottom:
                assert x in principal and y in principal


def test_nonzero_principal_elements_cancel_in_domain(lattices):
    for L in lattices:
        if not L.lattice_profile().is_domain:
            continue
        for x in L.principal_elements():
            if x == L.bottom:
                continue
            for a, b in itertools.product(L.elements(), repeat=2):
                if L.mul2(x, a) == L.mul2(x, b):
                    assert a == b


def test_power_chains_strictly_decrease(shapes):
    for L in shapes:
        _power_chain_strictly_decreases(L)


def test_every_proper_element_below_a_maximal_one(shapes):
    for L in shapes:
        _proper_elements_below_a_maximal_one(L)


def test_derived_facts_at_size_7(universe7):
    assert len(universe7) == 888
    for L in universe7:
        _product_below_meet(L)
        _product_monotone(L)
        _power_chain_strictly_decreases(L)
        _proper_elements_below_a_maximal_one(L)
        assert L.spectrum(), L.name


# -- property-based: relabeling invariance -------------------------------------


@st.composite
def preset_and_order(draw):
    name = draw(st.sampled_from(PRESET_NAMES))
    spec = preset_spec(name)
    order = draw(st.permutations(list(spec.elements)))
    return name, tuple(order)


@given(preset_and_order())
@settings(max_examples=60, deadline=None)
def test_canonical_form_invariant_under_element_reordering(case):
    name, order = case
    spec = preset_spec(name)
    shuffled = LatticeSpec(
        name=spec.name,
        elements=order,
        order_pairs=spec.order_pairs,
        mul_entries=spec.mul_entries,
        bottom=spec.bottom,
        top=spec.top,
    )
    assert canonical_form(validate_lattice(shuffled)) == canonical_form(
        preset(name)
    )


@given(preset_and_order())
@settings(max_examples=30, deadline=None)
def test_classification_invariant_under_element_reordering(case):
    name, order = case
    spec = preset_spec(name)
    shuffled = validate_lattice(
        LatticeSpec(spec.name, order, spec.order_pairs, spec.mul_entries)
    )
    a, b = classify_lattice(shuffled), classify_lattice(preset(name))
    assert (
        a.is_cpr_lattice,
        a.is_cq_lattice,
        a.is_cpp_lattice,
        a.is_domain,
        a.is_treed,
        a.dimension,
        a.is_dedekind,
    ) == (
        b.is_cpr_lattice,
        b.is_cq_lattice,
        b.is_cpp_lattice,
        b.is_domain,
        b.is_treed,
        b.dimension,
        b.is_dedekind,
    )
