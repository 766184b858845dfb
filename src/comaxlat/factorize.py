"""Comaximal factorization.

An element ``a != 1`` factors comaximally as ``a = a1 * ... * an`` with
the factors pairwise comaximal and proper.  Three strengths of factor
condition are supported: every factor has prime radical (CPR), every
factor is primary (CQ), every factor is a prime power (CPP).  When a
factorization of a given strength exists it is unique, which makes the
constructive route (lift the minimal primes through the radical) and
the brute-force route (scan all comaximal subsets) comparable; the
test-suite keeps the two in agreement.

All functions are pure; ``classify_lattice`` may be evaluated on many
lattices concurrently and its output depends only on the input lattice.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .core import Elt, FiniteMultLattice, LatticeError, _mask

__all__ = [
    "FactorKind",
    "Factorization",
    "ClassificationReport",
    "TopElement",
    "PreconditionViolated",
    "NoFactorization",
    "refine_by_radical",
    "factor",
    "comaximal_sets",
    "oracle_factorizations",
    "classify_lattice",
]


class FactorKind(enum.Enum):
    """Which condition the factors of a comaximal factorization satisfy."""

    CPR = "cpr"  # prime radical
    CQ = "cq"    # primary
    CPP = "cpp"  # prime power


class TopElement(LatticeError):
    """The top element has no comaximal factorization by definition."""


class PreconditionViolated(LatticeError):
    """The given parts do not satisfy the lift preconditions."""


class NoFactorization(LatticeError):
    """No factorization of the requested kind exists.

    ``reason`` is one of ``min_not_comaximal``, ``factor_not_primary``,
    ``factor_not_prime_power``; ``witness`` holds the offending element
    indices (a non-comaximal pair of minimal primes, or the factor that
    fails the stronger condition).
    """

    def __init__(
        self,
        kind: FactorKind,
        target: Elt,
        reason: str,
        witness: tuple[Elt, ...],
        message: str,
    ):
        self.kind = kind
        self.target = target
        self.reason = reason
        self.witness = witness
        super().__init__(message)


@dataclass(frozen=True)
class Factorization:
    """A comaximal factorization: pairwise comaximal proper factors.

    ``factors`` is sorted by element index; pairwise comaximality forces
    the factors to be distinct, so a set suffices.
    """

    kind: FactorKind
    target: Elt
    factors: tuple[Elt, ...]


@dataclass(frozen=True)
class ClassificationReport:
    """Whole-lattice classification flags with witnesses for the failures.

    ``is_cq_lattice or is_cpp_lattice`` implies ``is_cpr_lattice``; the
    witnesses name an element admitting no factorization of the failed
    kind, or the failed hypothesis of the Dedekind predicate.
    """

    name: str
    n: int
    is_domain: bool
    is_treed: bool
    dimension: int
    is_cpr_lattice: bool
    is_cq_lattice: bool
    is_cpp_lattice: bool
    is_dedekind: bool
    cpr_witness: Optional[str] = None
    cq_witness: Optional[str] = None
    cpp_witness: Optional[str] = None
    dedekind_witness: Optional[str] = None

    def __post_init__(self) -> None:
        assert not self.is_cq_lattice or self.is_cpr_lattice
        assert not self.is_cpp_lattice or self.is_cpr_lattice


def refine_by_radical(
    L: FiniteMultLattice, b: Elt, parts: list[Elt] | tuple[Elt, ...]
) -> list[Elt]:
    """Lift a comaximal decomposition of the radical to the element.

    Given pairwise comaximal proper ``parts`` a1..an whose product has
    the same radical as ``b``, returns the unique pairwise comaximal
    b1..bn with ``b = b1 * ... * bn`` and the radical of each ``bi``
    equal to the radical of ``ai``.  Construction: with ``ci`` the
    product of the other parts, ``bi`` is the join of the quotients
    ``(b : ci**k)`` over ``k`` up to the power-chain bound of ``ci``;
    the single-part case returns ``[b]`` directly.
    """
    parts = list(parts)
    if not parts:
        raise PreconditionViolated("need at least one part")
    for p in parts:
        if p == L.top:
            raise PreconditionViolated("parts must be proper elements")
    for p, q in itertools.combinations(parts, 2):
        if not L.comaximal(p, q):
            raise PreconditionViolated(
                f"parts {L.label(p)} and {L.label(q)} are not comaximal"
            )
    if L.radical(b) != L.radical(L.mul(parts)):
        raise PreconditionViolated(
            f"{L.label(b)} does not have the radical of the product of the parts"
        )
    if len(parts) == 1:
        return [b]
    out = []
    for i in range(len(parts)):
        c = L.mul(parts[:i] + parts[i + 1:])
        out.append(L.join(L.quotient(b, ck) for ck in L.power_chain(c)))
    return out


def _kind_failure(
    L: FiniteMultLattice, f: Elt, kind: FactorKind
) -> Optional[str]:
    """Why ``f`` cannot be a factor of the given kind, or None if it can."""
    if kind is FactorKind.CQ and not L.is_primary(f):
        return "factor_not_primary"
    if kind is FactorKind.CPP and L.prime_power_witness(f) is None:
        return "factor_not_prime_power"
    return None


def factor(L: FiniteMultLattice, a: Elt, kind: FactorKind) -> Factorization:
    """The unique comaximal factorization of ``a`` of the given kind.

    For the prime-radical kind this succeeds exactly when the minimal
    primes above ``a`` are pairwise comaximal, and the factors are the
    lift of those primes.  A primary or prime-power factorization is in
    particular a prime-radical one, hence equal to the unique
    prime-radical factorization; so the stronger kinds succeed exactly
    when every lifted factor satisfies the stronger condition.

    Raises :class:`TopElement` for ``a = 1`` and
    :class:`NoFactorization` (with a witness) when no factorization of
    the requested kind exists.
    """
    if a == L.top:
        raise TopElement(f"{L.label(a)} admits no factorization")
    mins = L.min_primes(a)
    for p, q in itertools.combinations(mins, 2):
        if not L.comaximal(p, q):
            min_set = ",".join(L.label(x) for x in mins)
            raise NoFactorization(
                kind,
                a,
                "min_not_comaximal",
                (p, q),
                f"Min({L.label(a)})={{{min_set}}} not comaximal "
                f"({L.label(p)} v {L.label(q)} = {L.label(L.join2(p, q))})",
            )
    factors = refine_by_radical(L, a, list(mins))
    for f in factors:
        reason = _kind_failure(L, f, kind)
        if reason is not None:
            what = "primary" if reason == "factor_not_primary" else "a prime power"
            raise NoFactorization(
                kind, a, reason, (f,), f"factor {L.label(f)} not {what}"
            )
    return Factorization(kind=kind, target=a, factors=tuple(sorted(factors)))


def comaximal_sets(
    L: FiniteMultLattice, candidates: Sequence[Elt]
) -> Iterator[tuple[Elt, ...]]:
    """Every nonempty pairwise comaximal set drawn from ``candidates``.

    The sets are the cliques of the comaximality graph on the
    candidates, walked level by level: a set is only ever extended by a
    later candidate that is comaximal to every member already chosen,
    so the cost is bounded by the number of such sets, not by the
    ``2**len(candidates)`` subsets.  Sets come by size, then in
    lexicographic order of candidate positions, exactly as filtering
    ``itertools.combinations`` by pairwise comaximality would list
    them; each pair ``(p, q)`` is tested as ``L.comaximal(p, q)`` with
    ``p`` before ``q`` in ``candidates``.
    """
    for subset, _ in _comaximal_walk(L, candidates):
        yield subset


def _comaximal_walk(
    L: FiniteMultLattice, candidates: Sequence[Elt]
) -> Iterator[tuple[tuple[Elt, ...], Elt]]:
    """:func:`comaximal_sets`, each set with its product.

    The product is ``L.mul`` of the set, folded from the top as the set
    is extended.
    """
    m = len(candidates)
    # later[i]: positions j > i whose candidate is comaximal to the i-th
    later = [
        _mask(
            j for j in range(i + 1, m) if L.comaximal(candidates[i], candidates[j])
        )
        for i in range(m)
    ]
    # each level holds (positions, positions that may extend the set, product)
    level = [((i,), later[i], L.mul2(L.top, c)) for i, c in enumerate(candidates)]
    while level:
        nxt = []
        for positions, ext, prod in level:
            yield tuple(candidates[i] for i in positions), prod
            while ext:
                j = (ext & -ext).bit_length() - 1
                nxt.append(
                    (positions + (j,), ext & later[j], L.mul2(prod, candidates[j]))
                )
                ext &= ext - 1
        level = nxt


def _oracle_candidates(L: FiniteMultLattice, kind: FactorKind) -> list[Elt]:
    """The proper elements satisfying the kind's factor condition."""

    def condition(f: Elt) -> bool:
        if kind is FactorKind.CPR:
            return L.is_prime(L.radical(f))
        if kind is FactorKind.CQ:
            return L.is_primary(f)
        return L.prime_power_witness(f) is not None

    return [f for f in L.proper_elements() if condition(f)]


def oracle_factorizations(
    L: FiniteMultLattice, a: Elt, kind: FactorKind
) -> list[Factorization]:
    """Brute-force scan for every factorization of ``a`` of the given kind.

    Scans every pairwise comaximal set of proper elements satisfying
    the kind's factor condition (:func:`comaximal_sets`) and keeps
    those that multiply to ``a`` (pairwise comaximal elements are
    necessarily distinct, so sets suffice).  Results come in
    deterministic order: by size, then by the sorted factor tuple.
    Independent of :func:`factor`.  Like :func:`factor`, it does not
    check that ``a`` is an element: an index out of range raises
    ``KeyError``.
    """
    if a == L.top:
        raise TopElement(f"{L.label(a)} admits no factorization")
    return _oracle_table(L, kind)[a]


def _oracle_table(
    L: FiniteMultLattice, kind: FactorKind
) -> dict[Elt, list[Factorization]]:
    """:func:`oracle_factorizations` of every proper element, from one walk.

    Each set of the walk is filed under its product, so every list
    keeps the walk's order.
    """
    table: dict[Elt, list[Factorization]] = {a: [] for a in L.proper_elements()}
    for subset, prod in _comaximal_walk(L, _oracle_candidates(L, kind)):
        if prod in table:  # the top has no factorization by definition
            table[prod].append(Factorization(kind=kind, target=prod, factors=subset))
    return table


def _factor_kinds(L: FiniteMultLattice) -> dict[FactorKind, int]:
    """For each kind, the bitmask of proper elements factoring with it.

    One prime-radical lift per element: a primary or prime-power
    factorization is also the prime-radical one (see :func:`factor`), so
    the stronger kinds are decided on the lifted factors.
    """
    kinds = tuple(FactorKind)
    masks = [0] * len(kinds)
    for a in L.proper_elements():
        try:
            factors = factor(L, a, FactorKind.CPR).factors
        except NoFactorization:
            continue
        for i, kind in enumerate(kinds):
            if not any(_kind_failure(L, f, kind) for f in factors):
                masks[i] |= 1 << a
    return dict(zip(kinds, masks))


def classify_lattice(L: FiniteMultLattice) -> ClassificationReport:
    """Classify a lattice by which factorization kinds all elements admit.

    The Dedekind flag bundles its standing hypotheses: the lattice must
    be a domain generated by principal elements in which every element
    is a finite product of primes (the multiplicative closure of the
    spectrum plus the top element is everything).  The failed
    hypothesis is reported as the witness.
    """
    return _classify(L, _factor_kinds(L))


def _classify(
    L: FiniteMultLattice, kinds: dict[FactorKind, int]
) -> ClassificationReport:
    """:func:`classify_lattice` from the table of :func:`_factor_kinds`."""
    proper = (1 << L.n) - 1 & ~(1 << L.top)
    witnesses: dict[FactorKind, Optional[str]] = {}
    for kind, mask in kinds.items():
        lacking = proper & ~mask
        # the witness is the least element lacking the kind
        least = (lacking & -lacking).bit_length() - 1
        witnesses[kind] = L.label(least) if lacking else None
    profile = L.lattice_profile()
    dedekind = True
    dedekind_witness = None
    if not profile.is_domain:
        dedekind, dedekind_witness = False, "not a lattice domain"
    elif not profile.generated_by_principal:
        dedekind, dedekind_witness = False, "not generated by principal elements"
    else:
        closure = set(L.spectrum()) | {L.top}
        while True:
            new = {L.mul2(x, y) for x in closure for y in closure} - closure
            if not new:
                break
            closure |= new
        stray = sorted(set(L.elements()) - closure)
        if stray:
            dedekind = False
            dedekind_witness = (
                f"{L.label(stray[0])} is not a finite product of primes"
            )

    return ClassificationReport(
        name=L.name,
        n=L.n,
        is_domain=profile.is_domain,
        is_treed=profile.is_treed,
        dimension=L.dimension(),
        is_cpr_lattice=witnesses[FactorKind.CPR] is None,
        is_cq_lattice=witnesses[FactorKind.CQ] is None,
        is_cpp_lattice=witnesses[FactorKind.CPP] is None,
        is_dedekind=dedekind,
        cpr_witness=witnesses[FactorKind.CPR],
        cq_witness=witnesses[FactorKind.CQ],
        cpp_witness=witnesses[FactorKind.CPP],
        dedekind_witness=dedekind_witness,
    )
