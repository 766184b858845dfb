"""Comaximal factorization: lift construction, factor, oracle, classification."""

import hashlib
import itertools

import pytest

from bruteforce import boolean_lattice
from comaxlat import factorize
from comaxlat.factorize import (
    FactorKind,
    NoFactorization,
    PreconditionViolated,
    TopElement,
    classify_lattice,
    factor,
    oracle_factorizations,
    refine_by_radical,
)
from comaxlat.presets import PRESET_NAMES, preset


def _labels(L, xs):
    return [L.label(x) for x in xs]


# -- refine_by_radical ---------------------------------------------------------


def test_refine_identity_on_radical_element():
    E = preset("E16")
    b, c, d = (E.index(x) for x in "bcd")
    assert refine_by_radical(E, b, [c, d]) == [c, d]


def test_refine_single_part_returns_element(universe_deep):
    L1 = preset("L1")
    a, c = L1.index("a"), L1.index("c")
    assert refine_by_radical(L1, a, [c]) == [a]
    L2 = preset("L2")
    for x in L2.proper_elements():
        r = L2.radical(x)
        assert refine_by_radical(L2, x, [r]) == [x]
    for L in universe_deep:
        for p in L.proper_elements():
            for b in L.elements():
                if L.radical(b) == L.radical(p):
                    assert refine_by_radical(L, b, [p]) == [b], (L.name, p, b)


def test_refine_preconditions():
    L3 = preset("L3")
    a, b, c = (L3.index(x) for x in "abc")
    with pytest.raises(PreconditionViolated):
        refine_by_radical(L3, a, [])
    with pytest.raises(PreconditionViolated):
        refine_by_radical(L3, a, [b, L3.top])
    with pytest.raises(PreconditionViolated):
        refine_by_radical(L3, a, [b, c])  # b v c = d, not comaximal
    E = preset("E16")
    with pytest.raises(PreconditionViolated):
        # radical mismatch: radical(c) is c, not the radical of c*d
        refine_by_radical(E, E.index("c"), [E.index("c"), E.index("d")])


def test_min_primes_multiply_to_the_radical(universe_deep, all_presets):
    # factor lifts the minimal primes without the radical check: a prime
    # above their product lies above one of them, so the radicals agree
    cases = 0
    for L in [*universe_deep, *all_presets]:
        for a in L.proper_elements():
            mins = L.min_primes(a)
            if all(L.comaximal(p, q) for p, q in itertools.combinations(mins, 2)):
                assert L.radical(a) == L.radical(L.mul(mins)), (L.name, a)
                cases += 1
    assert cases > 0


def test_refine_output_is_comaximal_with_matching_radicals():
    E = preset("E16")
    for parts in ([E.index("c"), E.index("d")],):
        target = E.mul(parts)
        out = refine_by_radical(E, target, parts)
        assert E.mul(out) == target
        for x, y in itertools.combinations(out, 2):
            assert E.comaximal(x, y)
        assert [E.radical(x) for x in out] == [E.radical(p) for p in parts]


# -- factor ---------------------------------------------------------------------


def test_factor_cpr_failure_with_witness():
    L3 = preset("L3")
    with pytest.raises(NoFactorization) as exc:
        factor(L3, L3.index("a"), FactorKind.CPR)
    e = exc.value
    assert e.reason == "min_not_comaximal"
    assert _labels(L3, e.witness) == ["b", "c"]
    assert str(e) == "Min(a)={b,c} not comaximal (b v c = d)"


def test_factor_cpp_prime_squares():
    L1 = preset("L1")
    a, b, c, d = (L1.index(x) for x in "abcd")
    fa = factor(L1, a, FactorKind.CPP)
    assert fa.factors == (a,)
    assert L1.prime_power_witness(a) == (c, 2)
    fb = factor(L1, b, FactorKind.CPP)
    assert fb.factors == (b,)
    assert L1.prime_power_witness(b) == (d, 2)


def test_factor_cq_on_e16():
    E = preset("E16")
    f = factor(E, E.index("b"), FactorKind.CQ)
    assert _labels(E, f.factors) == ["c", "d"]
    assert f.kind is FactorKind.CQ
    assert E.mul(f.factors) == E.index("b")


def test_factor_cq_failure_names_the_bad_factor():
    L1 = preset("L1")
    with pytest.raises(NoFactorization) as exc:
        factor(L1, L1.index("a"), FactorKind.CQ)
    assert exc.value.reason == "factor_not_primary"
    assert _labels(L1, exc.value.witness) == ["a"]
    assert str(exc.value) == "factor a not primary"


def test_factor_cpp_failure_names_the_bad_factor():
    L2 = preset("L2")
    with pytest.raises(NoFactorization) as exc:
        factor(L2, L2.index("b"), FactorKind.CPP)
    assert exc.value.reason == "factor_not_prime_power"
    assert str(exc.value) == "factor b not a prime power"


def test_factor_top_element_raises():
    L1 = preset("L1")
    for kind in FactorKind:
        with pytest.raises(TopElement):
            factor(L1, L1.top, kind)
        with pytest.raises(TopElement):
            oracle_factorizations(L1, L1.top, kind)


def test_indices_outside_the_lattice_raise_key_error():
    # -1 and -n would index from the end, n and n + 5 past it
    L1 = preset("L1")
    a, c = L1.index("a"), L1.index("c")
    for x in (-1, -L1.n, L1.n, L1.n + 5):
        for kind in FactorKind:
            with pytest.raises(KeyError):
                factor(L1, x, kind)
            with pytest.raises(KeyError):
                oracle_factorizations(L1, x, kind)
        for b, parts in ((x, [c]), (a, [x]), (a, [c, x])):
            with pytest.raises(KeyError):
                refine_by_radical(L1, b, parts)


def test_factor_bottom_is_allowed():
    L4 = preset("L4")
    f = factor(L4, L4.bottom, FactorKind.CPP)
    assert f.factors == (L4.bottom,)
    assert L4.prime_power_witness(L4.bottom) == (L4.index("b"), 2)


# -- oracle ----------------------------------------------------------------------


def test_oracle_golden_values():
    L3, E = preset("L3"), preset("E16")
    assert oracle_factorizations(L3, L3.index("a"), FactorKind.CPR) == []
    found = oracle_factorizations(E, E.index("b"), FactorKind.CQ)
    assert len(found) == 1
    assert _labels(E, found[0].factors) == ["c", "d"]


def test_oracle_walks_only_its_candidates(monkeypatch, all_presets):
    # The oracle walks the comaximal sets of its kind's candidates alone,
    # not those of every proper element.
    walk, members = factorize._comaximal_walk, []

    def recorded(*args):
        for entry in walk(*args):
            members.append(entry[2])
            yield entry

    monkeypatch.setattr(factorize, "_comaximal_walk", recorded)
    for L in [*all_presets, boolean_lattice(5)]:
        for kind in FactorKind:
            allowed = factorize._oracle_candidates(L, kind)
            for a in L.proper_elements():
                members.clear()
                oracle_factorizations(L, a, kind)
                stray = [m for m in members if m & ~allowed]
                assert not stray, (L.name, L.label(a), kind, stray[0])


def test_oracle_primes_factor_as_themselves():
    for name in ("L1", "L2", "L3", "L4", "E16"):
        L = preset(name)
        for p in L.spectrum():
            found = oracle_factorizations(L, p, FactorKind.CPR)
            assert len(found) == 1
            assert found[0].factors == (p,)


def test_factor_agrees_with_oracle_on_presets():
    for name in ("L1", "L2", "L3", "L4", "E16"):
        L = preset(name)
        for a in L.proper_elements():
            for kind in FactorKind:
                found = oracle_factorizations(L, a, kind)
                assert len(found) <= 1
                try:
                    f = factor(L, a, kind)
                    assert len(found) == 1
                    assert set(found[0].factors) == set(f.factors)
                except NoFactorization:
                    assert found == []


# -- classification ---------------------------------------------------------------


def test_classification_golden():
    r1 = classify_lattice(preset("L1"))
    assert (r1.is_cpp_lattice, r1.is_cq_lattice, r1.is_cpr_lattice) == (
        True,
        False,
        True,
    )
    assert r1.cq_witness == "a"
    r2 = classify_lattice(preset("L2"))
    assert (r2.is_cq_lattice, r2.is_cpp_lattice) == (True, False)
    assert r2.cpp_witness == "b"
    r3 = classify_lattice(preset("L3"))
    assert not r3.is_cpr_lattice
    assert r3.cpr_witness == "a"
    r4 = classify_lattice(preset("L4"))
    assert (r4.is_cpr_lattice, r4.is_cq_lattice, r4.is_cpp_lattice) == (
        True,
        False,
        False,
    )
    r5 = classify_lattice(preset("E16"))
    assert r5.is_domain and r5.dimension == 2
    assert r5.is_cq_lattice and r5.is_cpp_lattice and not r5.is_dedekind
    assert r5.dedekind_witness == "not generated by principal elements"


def test_implication_chain_per_element(universe5):
    # a primary or prime-power factorization is in particular prime-radical
    for L in universe5:
        for a in L.proper_elements():
            for strong in (FactorKind.CQ, FactorKind.CPP):
                for f in oracle_factorizations(L, a, strong):
                    weak = oracle_factorizations(L, a, FactorKind.CPR)
                    assert [set(g.factors) for g in weak] == [set(f.factors)]


def test_radical_elements_lift_to_radical_factors(universe5):
    for L in universe5:
        for a in L.proper_elements():
            if L.radical(a) != a:
                continue
            try:
                f = factor(L, a, FactorKind.CPR)
            except NoFactorization:
                continue
            for x in f.factors:
                assert L.radical(x) == x


def test_min_primes_closure_on_treed_lattices(universe5):
    for L in universe5:
        if not L.lattice_profile().is_treed:
            continue
        for x, y in itertools.combinations_with_replacement(
            L.proper_elements(), 2
        ):
            allowed = set(L.min_primes(x)) | set(L.min_primes(y))
            for combo in (L.mul2(x, y), L.meet2(x, y), L.join2(x, y)):
                assert set(L.min_primes(combo)) <= allowed


def test_cpr_lattice_iff_treed(universe5):
    for L in universe5:
        assert classify_lattice(L).is_cpr_lattice == L.lattice_profile().is_treed


def test_factorization_factors_are_proper_and_sorted(universe5):
    for L in universe5:
        for a in L.proper_elements():
            try:
                f = factor(L, a, FactorKind.CPR)
            except NoFactorization:
                continue
            assert f.factors == tuple(sorted(f.factors))
            assert L.top not in f.factors
            assert L.mul(f.factors) == a
            for p, q in itertools.combinations(f.factors, 2):
                assert L.comaximal(p, q)


# -- frozen outcomes -------------------------------------------------------------


def _factor_outcome_digest(lattices) -> tuple[int, str]:
    """The row count and sha256 of ``repr`` of every :func:`factor` outcome.

    One row per lattice, proper element and kind, in that nesting:
    ``(name, a, kind.value, factors)``, or with ``(reason, witness,
    message)`` of the :class:`NoFactorization` in place of the factors.
    """
    rows = []
    for L in lattices:
        for a in L.proper_elements():
            for kind in FactorKind:
                try:
                    out = factor(L, a, kind).factors
                except NoFactorization as exc:
                    out = (exc.reason, exc.witness, str(exc))
                rows.append((L.name, a, kind.value, out))
    return len(rows), hashlib.sha256(repr(rows).encode()).hexdigest()


# Every factor outcome, pinned by _factor_outcome_digest: a changed digest
# means some factorization, failure reason, witness or message differs.
FACTOR_OUTCOME_DIGESTS = {
    "universe5+presets": (
        465,
        "bb416f2a752566f06d72df9b0a9ac17359480d6ca83d387283cc7f06466bb995",
    ),
    "universe7": (
        15339,
        "b7ba9922956c6f2d75667109f0e30a0d876a418d4a5debefba03b58515c037f5",
    ),
}


def test_factor_outcomes_frozen(universe5):
    lattices = [*universe5, *(preset(name) for name in PRESET_NAMES)]
    got = _factor_outcome_digest(lattices)
    assert got == FACTOR_OUTCOME_DIGESTS["universe5+presets"]


def test_size7_factor_outcomes_frozen(universe7):
    assert len(universe7) == 888
    assert _factor_outcome_digest(universe7) == FACTOR_OUTCOME_DIGESTS["universe7"]
