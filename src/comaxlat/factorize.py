"""Comaximal factorization.

An element ``a != 1`` factors comaximally as ``a = a1 * ... * an`` with
the factors pairwise comaximal and proper.  Three strengths of factor
condition are supported: every factor has prime radical (CPR), every
factor is primary (CQ), every factor is a prime power (CPP).  When a
factorization of a given strength exists it is unique, which makes the
constructive route (lift the minimal primes through the radical) and
the brute-force route (scan all comaximal subsets) comparable; the
test-suite keeps the two in agreement.  :func:`factor` and the factor
table behind :func:`classify_lattice` share one lift, which reads the
lattice's product, quotient and join tables directly.

All functions are pure; ``classify_lattice`` may be evaluated on many
lattices concurrently and its output depends only on the input lattice.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

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


def _check_indices(L: FiniteMultLattice, *xs: Elt) -> None:
    """Raise ``KeyError`` for an index in ``xs`` outside ``range(L.n)``."""
    for x in xs:
        if not 0 <= x < L.n:
            raise KeyError(f"no element with index {x}")


def refine_by_radical(
    L: FiniteMultLattice, b: Elt, parts: list[Elt] | tuple[Elt, ...]
) -> list[Elt]:
    """Lift a comaximal decomposition of the radical to the element.

    Given pairwise comaximal proper ``parts`` a1..an whose product has
    the same radical as ``b``, returns the unique pairwise comaximal
    b1..bn with ``b = b1 * ... * bn`` and the radical of each ``bi``
    equal to the radical of ``ai``.  Construction: with ``ci`` the
    product of the other parts, ``bi`` is the join of the quotients
    ``(b : ci**k)`` over ``k`` up to the power-chain bound of ``ci``.
    An index outside the lattice raises ``KeyError``.
    """
    parts = list(parts)
    _check_indices(L, b, *parts)
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
    return _radical_lift(L, parts)(b)


def _radical_lift(
    L: FiniteMultLattice, parts: Sequence[Elt]
) -> Callable[[Elt], list[Elt]]:
    """:func:`refine_by_radical` through ``parts``, as a function of ``b``.

    Checks nothing: the caller guarantees the preconditions.  Each
    part's cofactor power chain is computed once, for every ``b``.  The
    cofactors fold from the top as ``L.mul`` does and the joins from
    the bottom as ``L.join`` does, on the lattice's own tables.
    """
    mul, quot, join, bottom = L._mul, L._quot, L._join, L.bottom
    chains = []
    for i in range(len(parts)):
        c = L.top
        for j, p in enumerate(parts):
            if j != i:
                c = mul[c][p]
        chains.append(L._powers[c])

    def lift(b: Elt) -> list[Elt]:
        qb = quot[b]
        out = []
        for chain in chains:
            r = bottom
            for ck in chain:
                r = join[r][qb[ck]]
            out.append(r)
        return out

    return lift


def _cpr_lift(
    L: FiniteMultLattice, a: Elt
) -> tuple[Optional[list[Elt]], Optional[tuple[Elt, Elt]]]:
    """``(factors, None)`` with a's prime-radical factors, unsorted, or
    ``(None, (p, q))`` with the first pair of its minimal primes, in
    index order, that is not comaximal.

    Minimal primes are proper, and a prime above their product lies
    above one of them, so the product has a's radical and the lift
    applies.  Shared by :func:`factor` and :func:`_factor_kinds`.
    """
    mins = L._min_primes[a]
    for p, q in itertools.combinations(mins, 2):
        if L._join[p][q] != L.top:
            return None, (p, q)
    return _radical_lift(L, mins)(a), None


def factor(L: FiniteMultLattice, a: Elt, kind: FactorKind) -> Factorization:
    """The unique comaximal factorization of ``a`` of the given kind.

    For the prime-radical kind this succeeds exactly when the minimal
    primes above ``a`` are pairwise comaximal, and the factors are the
    lift of those primes.  A primary or prime-power factorization is in
    particular a prime-radical one, hence equal to the unique
    prime-radical factorization; so the stronger kinds succeed exactly
    when every lifted factor satisfies the stronger condition.

    Raises :class:`TopElement` for ``a = 1``, :class:`NoFactorization`
    (with a witness) when no factorization of the requested kind exists,
    and ``KeyError`` for an index outside the lattice.
    """
    _check_indices(L, a)
    if a == L.top:
        raise TopElement(f"{L.label(a)} admits no factorization")
    factors, pair = _cpr_lift(L, a)
    if factors is None:
        p, q = pair
        min_set = ",".join(L.label(x) for x in L.min_primes(a))
        raise NoFactorization(
            kind,
            a,
            "min_not_comaximal",
            pair,
            f"Min({L.label(a)})={{{min_set}}} not comaximal "
            f"({L.label(p)} v {L.label(q)} = {L.label(L.join2(p, q))})",
        )
    for f in factors:
        if kind is FactorKind.CQ and not L.is_primary(f):
            reason, what = "factor_not_primary", "primary"
        elif kind is FactorKind.CPP and L.prime_power_witness(f) is None:
            reason, what = "factor_not_prime_power", "a prime power"
        else:
            continue
        raise NoFactorization(kind, a, reason, (f,), f"factor {L.label(f)} not {what}")
    return Factorization(kind=kind, target=a, factors=tuple(sorted(factors)))


def _comaximal_masks(L: FiniteMultLattice) -> list[int]:
    """``cm[a]``: the mask of the elements comaximal to ``a``, read as
    ``join[a][c] == top``: each join row, translated to ``"1"`` at the
    top and ``"0"`` elsewhere, read backwards is the mask in binary."""
    bits = (b"0" * L.top + b"1").ljust(256, b"0")
    return [int(bytes(row).translate(bits)[::-1], 2) for row in L._join]


def _comaximal_walk(
    L: FiniteMultLattice, candidates: int, cm: Sequence[int]
) -> Iterator[tuple[tuple[Elt, ...], Elt, int]]:
    """Every nonempty pairwise comaximal set of the elements in the mask
    ``candidates``, with its product and its mask.

    The sets are the cliques of the comaximality graph ``cm``
    (:func:`_comaximal_masks`) on the candidates, walked level by level:
    a set is only ever extended by a later candidate comaximal to every
    member already chosen, so the cost is bounded by the number of such
    sets, not by the ``2**n`` subsets.  Sets come by size, then in index
    order, exactly as filtering ``itertools.combinations`` of the
    candidates by pairwise comaximality would list them; each pair
    ``p < q`` is tested as ``join[p][q] == top``, bit ``q`` of
    ``cm[p]``.  The product is ``L.mul`` of the set, folded from the top
    as the set is extended; the mask has the bit of each member set.
    """
    mul = L._mul
    # each level holds the (set, product, mask) entries it extends, and
    # exts the later candidates comaximal to every member of each; the
    # walk starts from the empty set and yields each entry as it is made
    level, exts = [((), L.top, 0)], [candidates]
    while level:
        nxt, nxt_exts = [], []
        for (subset, prod, members), ext in zip(level, exts):
            row = mul[prod]
            while ext:
                low = ext & -ext
                c = low.bit_length() - 1
                ext ^= low
                entry = subset + (c,), row[c], members | low
                yield entry
                nxt.append(entry)
                nxt_exts.append(ext & cm[c])
        level, exts = nxt, nxt_exts


def _oracle_candidates(L: FiniteMultLattice, kind: FactorKind) -> int:
    """The mask of the proper elements with prime radical that satisfy
    the kind's factor condition (the top's radical is the top, no prime)."""
    primes = L._prime_mask
    mask = _mask(f for f, r in enumerate(L._radical) if primes >> r & 1)
    if kind is FactorKind.CQ:
        return mask & L._primary_mask
    if kind is FactorKind.CPP:
        return mask & _mask(f for f, w in enumerate(L._prime_power) if w)
    return mask


def oracle_factorizations(
    L: FiniteMultLattice, a: Elt, kind: FactorKind
) -> list[Factorization]:
    """Brute-force scan for every factorization of ``a`` of the given kind.

    Walks every pairwise comaximal set of proper elements satisfying
    the kind's factor condition (:func:`_comaximal_walk`) and keeps
    those that multiply to ``a`` (pairwise comaximal elements are
    necessarily distinct, so sets suffice).  Results come in
    deterministic order: by size, then by the sorted factor tuple.
    Independent of :func:`factor`.  Like :func:`factor`, it raises
    ``KeyError`` for an index outside the lattice.
    """
    _check_indices(L, a)
    if a == L.top:
        raise TopElement(f"{L.label(a)} admits no factorization")
    walk = _comaximal_walk(L, _oracle_candidates(L, kind), _comaximal_masks(L))
    return [
        Factorization(kind=kind, target=a, factors=subset)
        for subset, prod, _ in walk
        if prod == a
    ]


def _oracle_counts(
    L: FiniteMultLattice,
    kind: FactorKind,
    walk: Iterable[tuple[tuple[Elt, ...], Elt, int]],
) -> list[int]:
    """``counts[a]``: how many :func:`oracle_factorizations` a proper
    ``a`` has, counting under its product each set of ``walk``, the
    :func:`_comaximal_walk` of the proper elements, whose members all
    meet the kind's factor condition.  The top's count is not read."""
    counts = [0] * L.n
    off = ~_oracle_candidates(L, kind)
    for _, prod, members in walk:
        if not members & off:
            counts[prod] += 1
    return counts


def _one_part_lifts_fixed(L: FiniteMultLattice) -> bool:
    """Whether the top row of the product table is the identity, the top's
    power chain is the top alone, the bottom row of the join table is the
    identity and ``(b : 1) = b`` for every ``b``, as in every valid lattice.

    Then the lift of any ``b`` through any single part is ``[b]``
    (:func:`_radical_lift`): the part's cofactor is the empty product,
    the top, whose one power gives ``0 v (b : 1) = b``.  The lift does
    not read the top row; ``thm_unique_lift`` needs it, for a one-part
    decomposition ``(p,)`` to have product ``p``.  O(n).
    """
    top, els = L.top, tuple(L.elements())
    return (
        L._mul[top] == els
        and L._powers[top] == (top,)
        and L._join[L.bottom] == els
        and all(row[top] == b for b, row in enumerate(L._quot))
    )


def _factor_kinds(
    L: FiniteMultLattice, fixed: Optional[bool] = None
) -> dict[FactorKind, int]:
    """For each kind, the bitmask of proper elements factoring with it.

    One prime-radical lift per element (:func:`_cpr_lift`): a primary or
    prime-power factorization is also the prime-radical one (see
    :func:`factor`), so the stronger kinds are decided on the lifted
    factors, as :func:`factor` decides them.  Where the one-part lifts
    are fixed (:func:`_one_part_lifts_fixed`, checked here), an element
    with one minimal prime is its own lift, and is decided by its own
    primary and prime-power bits, with no lift.  ``fixed`` passes that
    check's verdict when the caller has it already.
    """
    cpr = cq = cpp = 0
    if fixed is None:
        fixed = _one_part_lifts_fixed(L)
    primary, powers, mins = L._primary_mask, L._prime_power, L._min_primes
    for a in L.proper_elements():
        if fixed and len(mins[a]) == 1:
            bit = 1 << a
            cpr |= bit
            cq |= primary & bit
            if powers[a]:  # a pair, or None
                cpp |= bit
            continue
        factors, _ = _cpr_lift(L, a)
        if factors is None:
            continue
        bit = 1 << a
        cpr |= bit
        if all(map(L.is_primary, factors)):
            cq |= bit
        if all(map(L.prime_power_witness, factors)):  # a pair, or None
            cpp |= bit
    return {FactorKind.CPR: cpr, FactorKind.CQ: cq, FactorKind.CPP: cpp}


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
