"""Executable checkers for the structure theory of comaximal factorization.

Each entry evaluates one statement on a concrete finite lattice: the
hypotheses are tested literally, and only when they hold is the
conclusion evaluated (entries with failed hypotheses report
not-applicable, never failure).  On a validated lattice every entry
must pass; a failing entry indicates an implementation bug, not new
mathematics, and the offending tuple is reported as a witness.

Several statements are parameterized by a generating set ``G``; the
suite accepts ``"all"`` (the whole lattice), ``"principal"`` (the
principal elements) or an explicit element tuple.  Biconditional
conclusions are evaluated with independent code paths on the two sides
(e.g. constructive factorization on one side, brute-force subset scans
on the other).

Entries of one suite run share one per-lattice context, whose
derivations are built on first use; the report lists them in the fixed
order of ``THEOREM_IDS``.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Optional, Sequence, Union

from .core import Elt, FiniteMultLattice, LatticeError, _mask, _members
from .factorize import (
    FactorKind,
    _classify,
    _comaximal_masks,
    _comaximal_walk,
    _factor_kinds,
    _one_part_lifts_fixed,
    _oracle_counts,
    _radical_lift,
    classify_lattice,  # unused here; perfbench/tracing.py wraps it by name
    factor,  # unused here; perfbench/tracing.py wraps it by name
)

__all__ = [
    "THEOREM_IDS",
    "Generators",
    "TheoremEntry",
    "TheoremReport",
    "UnknownTheoremId",
    "run_theorem_suite",
    "check_entry",
]

Generators = Union[str, Sequence[Elt]]


class UnknownTheoremId(LatticeError):
    """The requested theorem id is not in THEOREM_IDS."""


@dataclass(frozen=True)
class TheoremEntry:
    """Outcome of one checker.

    ``conclusion_holds`` is None exactly when the hypotheses fail
    (not-applicable).  ``witness`` carries element labels: the tuple
    that breaks a failing conclusion, or the item that breaks a failing
    hypothesis.
    """

    theorem_id: str
    hypotheses_hold: bool
    conclusion_holds: Optional[bool]
    witness: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if not self.hypotheses_hold:
            assert self.conclusion_holds is None


@dataclass(frozen=True)
class TheoremReport:
    """All entries for one lattice; passes when no conclusion failed."""

    lattice_name: str
    entries: tuple[TheoremEntry, ...]

    @property
    def overall_pass(self) -> bool:
        return all(e.conclusion_holds is not False for e in self.entries)

    def entry(self, theorem_id: str) -> TheoremEntry:
        for e in self.entries:
            if e.theorem_id == theorem_id:
                return e
        raise UnknownTheoremId(theorem_id)


class _Ctx:
    """Shared per-lattice computations for the checkers, each derived once."""

    def __init__(self, L: FiniteMultLattice, gens: tuple[Elt, ...]):
        self.L = L
        self.gens = gens

    @cached_property
    def walk(self) -> list[tuple[tuple[Elt, ...], Elt, int]]:
        """The pairwise comaximal sets of the proper elements, each with its
        product and its mask (:func:`_comaximal_walk` on ``cm``)."""
        L = self.L
        return list(_comaximal_walk(L, (1 << L.n) - 1 ^ 1 << L.top, self.cm))

    @cached_property
    def cm(self) -> list[int]:
        """``cm[a]``: the elements comaximal to ``a`` (:func:`_comaximal_masks`)."""
        return _comaximal_masks(self.L)

    @cached_property
    def mins(self) -> list[int]:
        """``mins[a]``: the mask of the minimal primes above ``a``."""
        return [_mask(m) for m in self.L._min_primes]

    @cached_property
    def one_part_fixed(self) -> bool:
        """Whether every one-part lift is fixed (:func:`_one_part_lifts_fixed`)."""
        return _one_part_lifts_fixed(self.L)

    @cached_property
    def kinds(self) -> dict[FactorKind, int]:
        """For each kind, the bitmask of proper elements factoring with it."""
        return _factor_kinds(self.L, self.one_part_fixed)

    @cached_property
    def classification(self):
        return _classify(self.L, self.kinds)

    @cached_property
    def profile(self):
        return self.L.lattice_profile()

    @cached_property
    def gen_products_admit(self) -> frozenset[FactorKind]:
        """The kinds every product of two proper generators admits."""
        top, mul = self.L.top, self.L._mul
        proper = [g for g in self.gens if g != top]
        products = 0
        for g in proper:
            row = mul[g]
            for h in proper:
                products |= 1 << row[h]
        return frozenset(k for k, mask in self.kinds.items() if not products & ~mask)


def _resolve_generators(L: FiniteMultLattice, G: Generators) -> tuple[Elt, ...]:
    if isinstance(G, str):
        key = G.lower()
        if key == "all":
            return tuple(L.elements())
        if key == "principal":
            return L.principal_elements()
        raise ValueError(f"unknown generator selector {G!r}")
    gens = tuple(sorted(set(G)))
    for g in gens:
        if not 0 <= g < L.n:
            raise ValueError(f"generator index {g} out of range")
    return gens


# -- individual checkers ------------------------------------------------------
# Each returns (hypotheses_hold, conclusion_holds_or_None, witness_indices).

_Result = tuple[bool, Optional[bool], Optional[tuple[Elt, ...]]]


def _lemma_comaximal(ctx: _Ctx) -> _Result:
    """Comaximality facts.

    (i) comaximal elements satisfy a/\\b = ab and (a:b) = a; (ii) being
    comaximal is invariant under radicals and under powers (some pair of
    powers works iff all do); (iii) an element comaximal to each of
    c1..ck is comaximal to their product (k = 2, 3 exhaustively; larger
    k follows by induction from k = 2).  When the top row of the product
    table is the identity, checked here, k = 3 is decided by k = 2: the
    products of two members of ``cm[a]`` stay in it, and so do products
    of three.

    Everything reads the masks ``cm[a]`` of the elements comaximal to
    ``a`` (``_Ctx.cm``): the powers of ``b`` are comaximal to all powers
    of ``a`` iff they lie in the AND of the ``cm`` of those powers, and
    one pair is iff they meet the OR.  Part (iii) ranges the ci over ``cm[a]`` only,
    since every other tuple fails the hypothesis, and folds the product
    from the top as ``L.mul`` does.  Visiting the ci in index order
    reports the same first failing tuple as the full product over the
    lattice.  k = 2 is two nested loops over ``cm[a]``, testing
    (1*c1)*c2; k = 3, which only other tables reach, is three, in at
    most the sum of ``|cm[a]|**3`` steps, with no memo.  The quotient,
    join, meet and product tables, the power chains and the radicals are
    the lattice's own.
    """
    L, cm = ctx.L, ctx.cm
    els = L.elements()
    quot, meet, mul = L._quot, L._meet, L._mul
    top, chains, rad = L.top, L._powers, L._radical
    chain = [_mask(powers) for powers in chains]
    every = [reduce(operator.and_, map(cm.__getitem__, p)) for p in chains]
    some = [reduce(operator.or_, map(cm.__getitem__, p)) for p in chains]
    for a in els:
        row, rad_row, off_all, any_mask = cm[a], cm[rad[a]], ~every[a], some[a]
        for b in els:
            c1 = row >> b & 1
            if c1 and (meet[a][b] != mul[a][b] or quot[a][b] != a):
                return True, False, (a, b)
            powers = chain[b]
            if not (
                c1
                == rad_row >> rad[b] & 1
                == (not powers & off_all)
                == (powers & any_mask != 0)
            ):
                return True, False, (a, b)

    comax = [_members(row) for row in cm]
    mt = mul[top]
    for a in els:
        row, cs = cm[a], comax[a]
        for c1 in cs:
            m1 = mul[mt[c1]]
            for c2 in cs:
                if not row >> m1[c2] & 1:
                    return True, False, (a, c1, c2)
    # With the top row the identity, k = 2 passing says cm[a] is closed
    # under products, so no product of three of its members leaves it.
    if mt == tuple(els):
        return True, True, None
    for a in els:
        row, cs = cm[a], comax[a]
        for c1 in cs:
            m1 = mul[mt[c1]]
            for c2 in cs:
                m2 = mul[m1[c2]]
                for c3 in cs:
                    if not row >> m2[c3] & 1:
                        return True, False, (a, c1, c2, c3)
    return True, True, None


def _lemma_formulas(ctx: _Ctx) -> _Result:
    """Two join formulas.

    (i) meets of increasing sequences commute with the joins, on the
    increasing sequences (b : c^k); (ii) (radical(b) : c) equals the
    radical of the join of the (b : c^k).

    Three identities of the tables decide the formulas, and are checked
    here (:func:`_quotient_sequences_increase`): the join and meet
    tables are those of the order, every power chain decreases, and
    every quotient row is antitone along the lower covers, so along the
    order.  Then every (b : c^k) increases in k, and so does the
    sequence of meets of two of them padded with their last terms.  A
    join of an increasing sequence, folded from the bottom, is its last
    term, so part (i) holds for every pair, and part (ii) compares
    (radical(b) : c) with the radical of (b : c^m), c^m the last power
    of c, for each (b, c) in index order, as the scan does.  Where an
    identity fails, :func:`_lemma_formulas_scan` decides both parts.
    The bounds are the lattice's own.
    """
    L = ctx.L
    if not _quotient_sequences_increase(L):
        return _lemma_formulas_scan(L)
    quot, rad, chains = L._quot, L._radical, L._powers
    for b in L.elements():
        qb, rb = quot[b], quot[rad[b]]
        for c, chain in enumerate(chains):
            if rb[c] != rad[qb[chain[-1]]]:
                return True, False, (b, c)
    return True, True, None


def _quotient_sequences_increase(L: FiniteMultLattice) -> bool:
    """Whether the join and meet tables are the order's, every power chain
    decreases, and every quotient row is antitone along the lower covers."""
    order = L._order
    if L._join != order.join or L._meet != order.meet:
        return False
    up = order.up
    for chain in L._powers:
        for power, nxt in zip(chain, chain[1:]):
            if not up[nxt] >> power & 1:
                return False
    covers = order.covers
    for row in L._quot:
        for x, below in enumerate(covers):
            above = up[row[x]]
            for y in below:
                if not above >> row[y] & 1:
                    return False
    return True


def _lemma_formulas_scan(L: FiniteMultLattice) -> _Result:
    """Both join formulas on any tables.

    Part (i) quantifies over all (b1, c1, b2, c2), but its comparison
    depends only on the two sequences (b1 : c1^k) and (b2 : c2^k), and
    far fewer sequences are distinct than there are pairs (b, c).  The
    comparison is made once per ordered pair of distinct sequences,
    each standing for its first pair (b, c) in index order; visiting
    the sequences in that order reports the same first failing tuple
    as the loop over all 4-tuples.  Each pair is padded to its longer
    length with the last terms (a join need not be idempotent in a
    table that breaks the axioms) and folded with ``L.join``.  The
    quotient, join and meet tables are the lattice's own.
    """
    quot, meet, rad, chains = L._quot, L._meet, L._radical, L._powers
    # firsts[seq]: the first pair (b, c) whose sequence is seq
    firsts: dict[tuple[Elt, ...], tuple[Elt, Elt]] = {}
    for b in L.elements():
        qb, rb = quot[b], quot[rad[b]]
        for c, chain in enumerate(chains):
            seq = tuple(map(qb.__getitem__, chain))
            firsts.setdefault(seq, (b, c))
            if rb[c] != rad[L.join(seq)]:
                return True, False, (b, c)
    for seq1, first1 in firsts.items():
        for seq2, first2 in firsts.items():
            kk = max(len(seq1), len(seq2))
            s1 = seq1 + seq1[-1:] * (kk - len(seq1))
            s2 = seq2 + seq2[-1:] * (kk - len(seq2))
            joined = L.join(meet[x][y] for x, y in zip(s1, s2))
            if meet[L.join(s1)][L.join(s2)] != joined:
                return True, False, (*first1, *first2)
    return True, True, None


def _thm_unique_lift(ctx: _Ctx) -> _Result:
    """Lifting a comaximal decomposition through the radical.

    For pairwise comaximal proper parts with product a, every b with
    the same radical as a is uniquely a product of pairwise comaximal
    parts matching the parts' radicals; uniqueness is confirmed by a
    brute-force scan (:func:`_lift_matches`).  When the product is a
    radical element, the parts are radical too.  The decompositions are
    pairwise comaximal sets of proper elements, walked as cliques of
    the comaximality graph once per lattice (``_Ctx.walk``), so their
    number bounds the cost.  Each decomposition meets the lift's
    preconditions, so its lift is built once, unchecked, for all its b,
    and its matches must be the lifted tuple alone: a lifted tuple that
    breaks the product, the radicals or comaximality is never a match.
    The matches depend on b and the parts' radicals only, so each such
    pair is scanned once per call.  When the top row of the product
    table is the identity, checked here, a one-part decomposition (p,)
    has product p, and the scan would find (b,) alone, so the lift of b
    must be b and nothing is scanned.  Where the one-part lifts are
    fixed as well (``_Ctx.one_part_fixed``, which includes that top-row
    identity), the lift of b is b, and nothing is lifted either.
    """
    L = ctx.L
    rad, mul, top = L._radical, L._mul, L.top
    # same_radical[r]: the mask of the elements with radical r
    same_radical: dict[Elt, int] = {}
    for d in L.elements():
        same_radical[rad[d]] = same_radical.get(rad[d], 0) | 1 << d
    members = {r: _members(mask) for r, mask in same_radical.items()}
    fixed = ctx.one_part_fixed
    identity = fixed or mul[top] == tuple(L.elements())
    # unlifted: the mask of the b whose one-part lift is not b (a part's
    # cofactor is the empty product, so one lift serves every part)
    unlifted = 0 if fixed else None
    matches: dict[tuple[Elt, tuple[Elt, ...]], list[tuple[Elt, ...]]] = {}
    for parts, a, _ in ctx.walk:
        ra = rad[a]
        rads = tuple(map(rad.__getitem__, parts))
        if a == ra and parts != rads:
            return True, False, parts
        if identity and len(parts) == 1:
            if unlifted is None:
                lift = _radical_lift(L, parts)
                unlifted = _mask(b for b in L.elements() if lift(b) != [b])
            wrong = same_radical[ra] & unlifted
            if wrong:
                return True, False, ((wrong & -wrong).bit_length() - 1, *parts)
            continue
        lift = _radical_lift(L, parts)
        for b in members[ra]:
            key = b, rads
            if key not in matches:
                matches[key] = _lift_matches(L, b, rads, same_radical)
            if matches[key] != [tuple(lift(b))]:
                return True, False, (b, *parts)
    return True, True, None


def _lift_matches(
    L: FiniteMultLattice, b: Elt, rads: tuple[Elt, ...], same_radical: dict[Elt, int]
) -> list[tuple[Elt, ...]]:
    """The pairwise comaximal tuples with product b whose i-th entry has
    radical ``rads[i]``, in the order of ``itertools.product``.

    The candidates lie above b, as every factor of b does, and come from
    the masks ``same_radical`` of the elements with each radical.
    Products fold from the top as ``L.mul`` does, and each pair is
    tested as ``join[x][y]`` with x before y in the tuple.
    """
    up, mul, join, top = L._up, L._mul, L._join, L.top
    found = []
    candidates = [_members(same_radical[r] & up[b]) for r in rads]
    for tup in itertools.product(*candidates):
        prod = top
        for x in tup:
            prod = mul[prod][x]
        if prod == b and all(
            join[x][y] == top for x, y in itertools.combinations(tup, 2)
        ):
            found.append(tup)
    return found


def _thm_cpr_criterion(ctx: _Ctx) -> _Result:
    """Prime-radical factorization criterion.

    (i) an element has a prime-radical factorization iff its minimal
    primes are pairwise comaximal, and the factorization is unique;
    (ii) all elements factor iff the lattice is treed.  The left-hand
    sides use the brute-force scan, the right-hand sides the spectrum:
    Min(a) is pairwise comaximal when each of its primes p has every
    later one in ``cm[p]``, that is ``join[p][q] == top`` for p before q.
    """
    L = ctx.L
    counts = _oracle_counts(L, FactorKind.CPR, ctx.walk)
    cpr = ctx.kinds[FactorKind.CPR]
    cm, mins = ctx.cm, ctx.mins
    for a in L.proper_elements():
        found = counts[a]
        later = mins[a]
        comax = True
        for p in L.min_primes(a):
            later ^= 1 << p
            if later & ~cm[p]:
                comax = False
                break
        if found > 1 or (found == 1) != comax:
            return True, False, (a,)
        if bool(cpr >> a & 1) != comax:
            return True, False, (a,)
    if ctx.classification.is_cpr_lattice != ctx.profile.is_treed:
        return True, False, None
    return True, True, None


def _cor_closure(ctx: _Ctx) -> _Result:
    """In a treed lattice the factorable elements are closed under
    products, binary meets and binary joins; the minimal primes of the
    combination stay inside the union of the minimal primes.  The pairs
    come from the CPR mask in index order; minimal primes compare as masks."""
    L = ctx.L
    if not ctx.profile.is_treed:
        return False, None, None
    cpr, mins = ctx.kinds[FactorKind.CPR], ctx.mins
    mul, meet, join = L._mul, L._meet, L._join
    for x, y in itertools.combinations_with_replacement(_members(cpr), 2):
        allowed = mins[x] | mins[y]
        for combo in (mul[x][y], meet[x][y], join[x][y]):
            if mins[combo] & ~allowed:
                return True, False, (x, y, combo)
            if combo != L.top and not cpr >> combo & 1:
                return True, False, (x, y, combo)
    return True, True, None


def _thm_treed_from_generators(ctx: _Ctx) -> _Result:
    """If all pairwise products of generators factor with prime radicals,
    the lattice is treed."""
    if not (ctx.L.generates(ctx.gens) and FactorKind.CPR in ctx.gen_products_admit):
        return False, None, None
    return True, ctx.profile.is_treed, None


def _cor_compact_equivalences(ctx: _Ctx) -> _Result:
    """Four equivalent ways to say every (compact) element factors.

    In a finite lattice every element is compact and all minimal-prime
    sets are finite, so the four conditions are computed literally and
    compared pairwise.
    """
    L = ctx.L
    if not L.generates(ctx.gens):
        return False, None, None
    c1 = ctx.classification.is_cpr_lattice
    c2 = FactorKind.CPR in ctx.gen_products_admit
    c3 = ctx.profile.is_treed and all(
        len(L.min_primes(k)) < L.n + 1 for k in L.elements()
    )
    c4 = ctx.profile.is_treed and all(
        len(L.min_primes(g)) < L.n + 1 for g in ctx.gens
    )
    if c1 == c2 == c3 == c4:
        return True, True, None
    return True, False, None


def _thm_cpr_sufficiency(ctx: _Ctx) -> _Result:
    """A selector-style sufficiency test for being a CPR lattice.

    Hypotheses: (1) every non-minimal prime lies below finitely many
    maximal elements (automatic here, still evaluated); (2) whenever a
    is outside finitely many primes some generator below a is outside
    them too; (3) pairwise products of generators factor.  (2) is
    decided on the primes not above a, as a generator outside all of
    them is outside every subset of them.  Both (1) and (2) read the
    up-set masks: the maximal elements above p, and the primes that
    neither a nor a generator g lies below.  A generator a is its own
    witness, as ``up[a]`` contains a and meets no prime outside
    ``up[a]``, so the generators are scanned for the other a only.  That
    relies on ``up`` being reflexive, as ``from_tables`` builds it."""
    L = ctx.L
    if not L.generates(ctx.gens):
        return False, None, None
    up, primes, maximal = L._up, L._prime_mask, L._maximal_mask
    minimal = set(L.min_primes(L.bottom))
    hyp1 = all(
        (up[p] & maximal).bit_count() < L.n + 1
        for p in L.spectrum()
        if p not in minimal
    )
    gmask = _mask(ctx.gens)
    hyp2 = all(
        not ps
        or gmask >> a & 1
        or any(up[g] >> a & 1 and not up[g] & ps for g in ctx.gens)
        for a, ps in enumerate(primes & ~u for u in up)
    )
    hyp3 = FactorKind.CPR in ctx.gen_products_admit
    if not (hyp1 and hyp2 and hyp3):
        return False, None, None
    return True, ctx.classification.is_cpr_lattice, None


def _thm_cq_characterization(ctx: _Ctx) -> _Result:
    """Primary factorizations exist for everything iff prime-radical
    factorizations do and every element with prime radical is primary.
    The left side is a brute-force scan, the right side constructive:
    no proper element with prime radical outside the primary mask."""
    L = ctx.L
    counts = _oracle_counts(L, FactorKind.CQ, ctx.walk)
    lhs = all(counts[a] == 1 for a in L.proper_elements())
    # built from the prime mask and the radicals, not taken from the
    # oracle's candidates, so that the two sides stay independent
    primes, rad = L._prime_mask, L._radical
    prime_radical = _mask(a for a in L.proper_elements() if primes >> rad[a] & 1)
    rhs = ctx.classification.is_cpr_lattice and not prime_radical & ~L._primary_mask
    return True, lhs == rhs, None


def _cor_cq_dimension(ctx: _Ctx) -> _Result:
    """For a nondegenerate domain generated by join-principal elements,
    primary factorizations exist for everything iff the dimension is one.
    The hypothesis is decided on the join-irreducibles alone.
    Never applicable when finite: in a domain a nonzero join-principal j
    has (a*j : j) = a for all a, so a = j^(m-1) with m least such that
    j^m = j^(m+1) gives j = 1, and the bounds generate only the 2-chain."""
    L = ctx.L
    hyp = (
        ctx.profile.is_domain
        and L.n > 2
        and all(L._join_principal(j) for j in L.join_irreducibles())
    )
    if not hyp:
        return False, None, None
    return True, ctx.classification.is_cq_lattice == (L.dimension() == 1), None


def _lemma_cq_sufficient(ctx: _Ctx) -> _Result:
    """A one-dimensional domain has primary factorizations for everything."""
    if not (ctx.profile.is_domain and ctx.L.dimension() == 1):
        return False, None, None
    return True, ctx.classification.is_cq_lattice, None


def _quotient_hypothesis_holds(L: FiniteMultLattice, gens: tuple[Elt, ...]) -> bool:
    """(a*b : a) below the radical of b, for all nonzero a, b among ``gens``."""
    return all(
        L.leq(L.quotient(L.mul2(a, b), a), L.radical(b))
        for a in gens
        for b in gens
        if a != L.bottom and b != L.bottom
    )


def _thm_cq_generators(ctx: _Ctx) -> _Result:
    """For a nondegenerate domain whose generators satisfy the quotient
    condition (ab : a) <= radical(b), three statements agree: products of
    generators admit primary factorizations, the dimension is one, and
    everything admits a primary factorization.  Never applicable when
    finite: an atom t of a domain has t*t = t (t*t <= t and t*t != 0),
    lies in every generating set, and (t*t : t) = 1 is not below rad(t)."""
    L = ctx.L
    hyp = (
        ctx.profile.is_domain
        and L.n > 2
        and L.generates(ctx.gens)
        and _quotient_hypothesis_holds(L, ctx.gens)
    )
    if not hyp:
        return False, None, None
    c1 = FactorKind.CQ in ctx.gen_products_admit
    c2 = L.dimension() == 1
    c3 = ctx.classification.is_cq_lattice
    return True, c1 == c2 == c3, None


def _lemma_prime_principal(ctx: _Ctx) -> _Result:
    """A domain generated by principal elements whose primes are all
    principal has every element a finite product of primes.  Applicable
    on the 2-chain only, as principal elements are join-principal (see
    :func:`_cor_cq_dimension`)."""
    L = ctx.L
    hyp = (
        ctx.profile.is_domain
        and ctx.profile.generated_by_principal
        and all(map(L._principal, L.spectrum()))
    )
    if not hyp:
        return False, None, None
    return True, ctx.classification.is_dedekind, None


def _thm_dedekind(ctx: _Ctx) -> _Result:
    """For a domain generated by principal elements: every element is a
    finite product of primes iff every nonzero proper principal element
    has a prime-power factorization.  The two sides use independent
    code paths (spectrum closure vs constructive factorization).
    Applicable on the 2-chain only (see :func:`_lemma_prime_principal`)."""
    L = ctx.L
    if not (ctx.profile.is_domain and ctx.profile.generated_by_principal):
        return False, None, None
    lhs = ctx.classification.is_dedekind
    bounds = 1 << L.bottom | 1 << L.top
    rhs = not _mask(L.principal_elements()) & ~bounds & ~ctx.kinds[FactorKind.CPP]
    return True, lhs == rhs, None


def _dedekind_dim1(ctx: _Ctx) -> _Result:
    """Everything a product of primes (with the standing hypotheses)
    forces dimension at most one.  A classical fact checked empirically
    rather than assumed.  Applicable on the 2-chain only, as the Dedekind
    flag bundles the hypotheses of :func:`_lemma_prime_principal`."""
    if not ctx.classification.is_dedekind:
        return False, None, None
    return True, ctx.L.dimension() <= 1, None


_CHECKERS = {
    "lemma_comaximal": _lemma_comaximal,
    "lemma_formulas": _lemma_formulas,
    "thm_unique_lift": _thm_unique_lift,
    "thm_cpr_criterion": _thm_cpr_criterion,
    "cor_closure": _cor_closure,
    "thm_treed_from_generators": _thm_treed_from_generators,
    "cor_compact_equivalences": _cor_compact_equivalences,
    "thm_cpr_sufficiency": _thm_cpr_sufficiency,
    "thm_cq_characterization": _thm_cq_characterization,
    "cor_cq_dimension": _cor_cq_dimension,
    "lemma_cq_sufficient": _lemma_cq_sufficient,
    "thm_cq_generators": _thm_cq_generators,
    "lemma_prime_principal": _lemma_prime_principal,
    "thm_dedekind": _thm_dedekind,
    "dedekind_dim1": _dedekind_dim1,
}
THEOREM_IDS = tuple(_CHECKERS)

# The entry of each checker and outcome without a witness.  Entries are
# frozen, so the suite hands these out instead of building equal ones.
# The checkers return exact bools: a 0 would find the entry of False.
_ENTRIES = {
    (tid, hyp, concl): TheoremEntry(tid, hyp, concl)
    for tid in THEOREM_IDS
    for hyp, concl in ((False, None), (True, True), (True, False))
}


def _run_one(ctx: _Ctx, theorem_id: str) -> TheoremEntry:
    hyp, concl, witness = _CHECKERS[theorem_id](ctx)
    if witness is None:
        return _ENTRIES[theorem_id, hyp, concl]
    return TheoremEntry(
        theorem_id=theorem_id,
        hypotheses_hold=hyp,
        conclusion_holds=concl,
        witness=tuple(ctx.L.label(w) for w in witness),
    )


def run_theorem_suite(L: FiniteMultLattice, G: Generators = "all") -> TheoremReport:
    """Evaluate every checker on the lattice with generating set ``G``."""
    ctx = _Ctx(L, _resolve_generators(L, G))
    return TheoremReport(
        lattice_name=L.name,
        entries=tuple(_run_one(ctx, tid) for tid in THEOREM_IDS),
    )


def check_entry(
    L: FiniteMultLattice, theorem_id: str, G: Generators = "all"
) -> TheoremEntry:
    """Evaluate a single checker; raises :class:`UnknownTheoremId`."""
    if theorem_id not in _CHECKERS:
        raise UnknownTheoremId(theorem_id)
    return _run_one(_Ctx(L, _resolve_generators(L, G)), theorem_id)
