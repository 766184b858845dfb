"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line (visible with
``pytest -s`` or on failure).  The exhaustive oracle/theorem criteria
run over every enumerated lattice up to size 5 by default and up to
size 6 with ``pytest --size6``; everything else runs in full either
way.
"""

import itertools
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from bruteforce import (
    count_bounded_lattices,
    count_iso_classes,
    naive_multiplications,
    radical_by_nilpotents,
)
from comaxlat.enumeration import (
    canonical_form,
    enumerate_bounded_lattices,
    enumerate_multiplications,
    search,
)
from comaxlat.factorize import (
    FactorKind,
    NoFactorization,
    classify_lattice,
    factor,
    oracle_factorizations,
)
from comaxlat.presets import preset
from comaxlat.theorems import run_theorem_suite
from test_enumeration import BOUNDED_LATTICE_COUNTS, MULT_COUNTS


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_example_lattices_exact():
    with criterion(1, "example lattices, exact"):
        t0 = time.monotonic()
        r = {name: classify_lattice(preset(name)) for name in
             ("L1", "L2", "L3", "L4", "E16")}
        assert r["L1"].is_cpp_lattice and not r["L1"].is_cq_lattice
        assert r["L1"].is_cpr_lattice
        assert r["L2"].is_cq_lattice and not r["L2"].is_cpp_lattice
        assert not r["L3"].is_cpr_lattice
        assert r["L4"].is_cpr_lattice
        assert not r["L4"].is_cq_lattice and not r["L4"].is_cpp_lattice
        assert r["E16"].is_domain and r["E16"].dimension == 2
        assert r["E16"].is_cq_lattice and r["E16"].is_cpp_lattice
        assert not r["E16"].is_dedekind
        assert time.monotonic() - t0 < 1.0


def test_criterion_2_example_factorizations_exact():
    with criterion(2, "example factorizations, exact"):
        t0 = time.monotonic()
        L1 = preset("L1")
        fa = factor(L1, L1.index("a"), FactorKind.CPP)
        assert fa.factors == (L1.index("a"),)
        assert L1.prime_power_witness(L1.index("a")) == (L1.index("c"), 2)
        fb = factor(L1, L1.index("b"), FactorKind.CPP)
        assert fb.factors == (L1.index("b"),)
        assert L1.prime_power_witness(L1.index("b")) == (L1.index("d"), 2)
        E = preset("E16")
        f = factor(E, E.index("b"), FactorKind.CQ)
        assert [E.label(x) for x in f.factors] == ["c", "d"]
        L3 = preset("L3")
        with pytest.raises(NoFactorization) as exc:
            factor(L3, L3.index("a"), FactorKind.CPR)
        assert [L3.label(w) for w in exc.value.witness] == ["b", "c"]
        assert time.monotonic() - t0 < 1.0


def _assert_oracle_matches_factor(lattices) -> None:
    for L in lattices:
        for a in L.proper_elements():
            for kind in FactorKind:
                found = oracle_factorizations(L, a, kind)
                assert len(found) <= 1, (L.name, L.label(a), kind)
                try:
                    f = factor(L, a, kind)
                    constructed = set(f.factors)
                except NoFactorization:
                    constructed = None
                if constructed is None:
                    assert found == [], (L.name, L.label(a), kind)
                else:
                    assert len(found) == 1
                    assert set(found[0].factors) == constructed


def test_criterion_3_oracle_equivalence_and_uniqueness(universe_deep, deep_size):
    with criterion(3, f"oracle equivalence + uniqueness (size <= {deep_size})"):
        t0 = time.monotonic()
        _assert_oracle_matches_factor(universe_deep)
        assert time.monotonic() - t0 < 300.0


def test_criterion_3_at_size_7(universe7):
    with criterion(3, "oracle equivalence + uniqueness (size 7)"):
        size7 = [L for L in universe7 if L.n == 7]
        assert len(size7) == 723
        _assert_oracle_matches_factor(size7)


def test_criterion_4_theorem_suite_universality(universe_deep, deep_size):
    with criterion(4, f"theorem suite universality (size <= {deep_size})"):
        lattices = list(universe_deep) + [
            preset(n) for n in ("L1", "L2", "L3", "L4", "E16")
        ]
        for L in lattices:
            report = run_theorem_suite(L)
            bad = [
                e.theorem_id
                for e in report.entries
                if e.hypotheses_hold and e.conclusion_holds is False
            ]
            assert not bad, (L.name, bad)


def test_criterion_5_identity_suites(universe_deep, deep_size):
    with criterion(5, f"identity suites (size <= {deep_size})"):
        for L in universe_deep:
            top = L.top
            for a, b in itertools.product(L.elements(), repeat=2):
                c1 = L.join2(a, b) == top
                if c1:
                    assert L.meet2(a, b) == L.mul2(a, b)
                    assert L.quotient(a, b) == a
                powers = [
                    L.join2(ai, bj) == top
                    for ai in L.power_chain(a)
                    for bj in L.power_chain(b)
                ]
                c2 = L.join2(L.radical(a), L.radical(b)) == top
                assert c1 == c2 == all(powers) == any(powers)
                rhs = L.radical(
                    L.join(L.quotient(a, bk) for bk in L.power_chain(b))
                )
                assert L.quotient(L.radical(a), b) == rhs
            for a, c1_, c2_ in itertools.product(L.elements(), repeat=3):
                if L.comaximal(a, c1_) and L.comaximal(a, c2_):
                    assert L.comaximal(a, L.mul2(c1_, c2_))
            for a in L.elements():
                assert L.radical(a) == radical_by_nilpotents(L, a)


def test_criterion_6_separation_witnesses(universe6):
    with criterion(6, "separation witnesses at size 6"):
        nonempty = ("cpp_not_cq", "cq_not_cpp", "not_cpr", "cpr&!cq&!cpp")
        for predicate in nonempty:
            hits = search(6, predicate)
            assert hits, predicate
        for predicate in ("cq_not_cpr", "cpp_not_cpr"):
            assert search(6, predicate) == []


def test_criterion_7_enumeration_regression(deep_size):
    with criterion(7, "enumeration regression"):
        for n in range(1, 7):
            assert len(enumerate_bounded_lattices(n)) == BOUNDED_LATTICE_COUNTS[n]
            assert count_bounded_lattices(n) == BOUNDED_LATTICE_COUNTS[n]
        for n in range(1, 7):
            orders = enumerate_bounded_lattices(n)
            assert [len(enumerate_multiplications(o)) for o in orders] == (
                MULT_COUNTS[n]
            )
        # naive fill re-agreement (the values were frozen only after both
        # implementations matched on every order up to size 6)
        for n in range(2, deep_size + 1):
            for i, order in enumerate(enumerate_bounded_lattices(n)):
                naive = count_iso_classes(order, naive_multiplications(order))
                assert naive == MULT_COUNTS[n][i]


def test_criterion_8_catalog_determinism(tmp_path):
    with criterion(8, "catalog determinism across runs"):
        outs = []
        for run in (1, 2):
            out = tmp_path / f"cat_{run}"
            r = subprocess.run(
                [sys.executable, "-m", "comaxlat.cli", "enumerate",
                 "--size", "5", "--out", str(out)],
                capture_output=True,
                text=True,
            )
            assert r.returncode == 0, r.stderr
            outs.append({
                p.name: p.read_bytes() for p in sorted(out.iterdir())
            })
        assert outs[0] == outs[1]
        assert "index.txt" in outs[0]


def test_builtins_found_in_the_universe(universe6):
    # ties the separation searches back to the concrete example lattices
    forms = {canonical_form(L) for L in universe6}
    for name in ("L1", "L2", "L3", "L4", "E16"):
        assert canonical_form(preset(name)) in forms
