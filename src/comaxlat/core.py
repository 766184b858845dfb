"""Finite multiplicative lattice model.

A multiplicative lattice is a complete lattice carrying a commutative
monoid product that distributes over joins and has the top element as
identity.  This module implements the finite case: validation of the
axioms from tabular input, the order and monoid operations, residual
quotients, radicals, the prime spectrum, and the element-level
predicates (prime, primary, prime power, the four principality
notions).

Every element of a finite lattice is compact, so the compactness
conditions that only matter for infinite lattices hold automatically
here; ``ElementProfile.is_compact`` is the constant ``True``.

A validated :class:`FiniteMultLattice` is immutable and safe to share
across concurrent workers; all operations are pure table lookups.
"""

from __future__ import annotations

import functools
import itertools
import string
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

Elt = int  # index of an element within its parent lattice

__all__ = [
    "Elt",
    "LatticeError",
    "InvalidSpec",
    "Violation",
    "ValidationError",
    "LatticeSpec",
    "ElementProfile",
    "LatticeProfile",
    "FiniteMultLattice",
    "validate_lattice",
    "mul_key",
]


class LatticeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpec(LatticeError):
    """The input description is malformed (bad labels, duplicates, ...)."""


@dataclass(frozen=True)
class Violation:
    """One axiom or structure failure found during validation.

    ``code`` is a stable machine-readable identifier (``NotAPartialOrder``,
    ``NotALattice``, ``MissingProduct``, ``NotCommutative``,
    ``NotAssociative``, ``NotDistributive``, ``BottomNotAbsorbing``,
    ``TopNotIdentity``, ``BottomEqualsTop``).  ``witness`` holds the
    labels of a witnessing tuple.
    """

    code: str
    witness: tuple[str, ...] = ()
    detail: str = ""

    def __str__(self) -> str:
        return " ".join((self.code,) + self.witness)


class ValidationError(LatticeError):
    """Raised when a lattice description violates the axioms."""

    def __init__(self, violations: Iterable[Violation]):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}


def mul_key(x: str, y: str) -> tuple[str, str]:
    """Normalized (unordered) key for a product entry."""
    return (x, y) if x <= y else (y, x)


@dataclass(frozen=True)
class LatticeSpec:
    """Tabular description of a finite multiplicative lattice.

    ``order_pairs`` lists pairs ``(x, y)`` meaning ``x <= y``; the
    reflexive-transitive closure is taken, so covering pairs suffice
    but any relation is accepted.  ``mul_entries`` maps unordered label
    pairs (normalized with :func:`mul_key`) to product labels; entries
    involving the bottom or top may be omitted (they are forced by the
    axioms), every other pair is mandatory.
    """

    name: str
    elements: tuple[str, ...]
    order_pairs: tuple[tuple[str, str], ...]
    mul_entries: Mapping[tuple[str, str], str]
    bottom: str = "0"
    top: str = "1"


@dataclass(frozen=True)
class ElementProfile:
    """All element-level predicate flags for one lattice element.

    ``is_compact`` is constant ``True`` in a finite lattice.  When
    ``is_prime_power`` holds, ``prime_power_witness`` is the pair
    ``(p, k)`` with ``p`` prime and ``p**k`` equal to the element,
    minimal first in ``p`` then in ``k``.
    """

    is_proper: bool
    is_prime: bool
    is_maximal: bool
    is_primary: bool
    is_radical: bool
    is_prime_power: bool
    prime_power_witness: Optional[tuple[Elt, int]]
    is_compact: bool
    is_meet_principal: bool
    is_weak_meet_principal: bool
    is_join_principal: bool
    is_weak_join_principal: bool
    is_principal: bool

    def __post_init__(self) -> None:
        assert self.is_principal == (self.is_meet_principal and self.is_join_principal)
        if self.is_prime:
            assert self.is_primary and self.is_radical
        if self.is_maximal:
            assert self.is_prime


@dataclass(frozen=True)
class LatticeProfile:
    """Whole-lattice flags derived from the spectrum and the principal elements."""

    is_domain: bool
    is_treed: bool
    generated_by_principal: bool


def _mask(xs: Iterable[int]) -> int:
    """Bitmask with bit ``x`` set for every ``x`` in ``xs``."""
    m = 0
    for x in xs:
        m |= 1 << x
    return m


def _members(mask: int) -> tuple[int, ...]:
    """The elements whose bits are set in ``mask``, in index order."""
    return tuple(x for x in range(mask.bit_length()) if mask >> x & 1)


def down_masks(up: tuple[int, ...]) -> tuple[int, ...]:
    """Down-set masks of an order given by its up-set masks."""
    n = len(up)
    return tuple(sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n))


def _closure(up: list[int], n: int) -> None:
    """Reflexive-transitive closure of up-set masks, in place."""
    for i in range(n):
        up[i] |= 1 << i
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if up[i] & bit:
                up[i] |= up[k]


def _extremum(mask: int, cone: tuple[int, ...]) -> Optional[int]:
    """The element ``u`` of ``mask`` with ``mask`` inside ``cone[u]``, or None.

    With up-set masks as cones this is the least element of ``mask``;
    with down-set masks, the greatest.
    """
    rest = mask
    while rest:
        u = (rest & -rest).bit_length() - 1
        if mask & ~cone[u] == 0:
            return u
        rest &= rest - 1
    return None


def order_tables(
    up: tuple[int, ...], n: int
) -> tuple[Optional[tuple], Optional[tuple], Optional[tuple[int, int]]]:
    """Compute join and meet tables for a partial order given by up-set masks.

    Returns ``(join, meet, None)`` on success, or ``(None, None, (i, j))``
    with a witness pair (as indices) when some bound is missing.
    """
    down = down_masks(up)
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            ub = up[i] & up[j]
            lb = down[i] & down[j]
            lu = _extremum(ub, up)
            gl = _extremum(lb, down)
            if lu is None or gl is None:
                return None, None, (i, j)
            join[i][j] = join[j][i] = lu
            meet[i][j] = meet[j][i] = gl
    return tuple(map(tuple, join)), tuple(map(tuple, meet)), None


class _Order(NamedTuple):
    """Index-level facts of a closed order with a least and a greatest element.

    ``join`` and ``meet`` are ``None`` when some pair lacks a bound, and
    ``missing`` is then the first such pair, as :func:`order_tables`
    reports it.  ``covers[x]`` lists the lower covers of ``x`` in index
    order.  ``descending`` is a reverse linear extension: every element
    comes before all elements strictly below it.
    """

    join: Optional[tuple[tuple[int, ...], ...]]
    meet: Optional[tuple[tuple[int, ...], ...]]
    missing: Optional[tuple[int, int]]
    down: tuple[int, ...]
    covers: tuple[tuple[int, ...], ...]
    descending: tuple[int, ...]


@functools.lru_cache(maxsize=1024)
def _order_facts(up: tuple[int, ...]) -> _Order:
    """The :class:`_Order` of closed up-set masks, computed once per order.

    Lattices built on one order share its tables.  Only index-level data
    is kept here: labels and violations are produced by each caller.  The
    bound keeps every order up to size 8 (300 of them) without letting
    large user lattices pile up.
    """
    n = len(up)
    join, meet, missing = order_tables(up, n)
    down = down_masks(up)
    covers = []
    for x in range(n):
        below = down[x] & ~(1 << x)
        covers.append(
            tuple(i for i in _members(below) if up[i] & below & ~(1 << i) == 0)
        )
    descending = tuple(sorted(range(n), key=lambda i: bin(up[i]).count("1")))
    return _Order(join, meet, missing, down, tuple(covers), descending)


def _first_nonassociative(
    mul: Sequence[Sequence[int]], xs: Sequence[int]
) -> Optional[tuple[int, int, int]]:
    """The first ``(x, y, z)`` over ``xs`` in index order with ``(x*y)*z != x*(y*z)``."""
    for x in xs:
        mx = mul[x]
        for y in xs:
            my, left = mul[y], mul[mx[y]]
            for z in xs:
                if left[z] != mx[my[z]]:
                    return x, y, z
    return None


def _first_nondistributive(
    mul: Sequence[Sequence[int]],
    join: tuple[tuple[int, ...], ...],
    xs: Sequence[int],
    ab: Sequence[int],
) -> Optional[tuple[int, int, int]]:
    """The first ``(x, a, b)``, ``x`` in ``xs``, ``a <= b`` in ``ab`` and in
    index, with ``x*(a v b) != x*a v x*b``."""
    for x in xs:
        mx = mul[x]
        for i, a in enumerate(ab):
            ja, jxa = join[a], join[mx[a]]
            for b in ab[i:]:
                if mx[ja[b]] != jxa[mx[b]]:
                    return x, a, b
    return None


def multiplication_violations(
    labels: tuple[str, ...],
    join: tuple[tuple[int, ...], ...],
    mul: list[list[int]],
    bottom: int,
    top: int,
) -> list[Violation]:
    """Scan a full multiplication table against the monoid axioms.

    Reports at most one violation per axiom, with the first witness in
    index order.  The order axioms (closure, bounds, joins/meets) must
    already hold.
    """
    n = len(labels)
    out: list[Violation] = []
    for x, y in itertools.combinations(range(n), 2):
        if mul[x][y] != mul[y][x]:
            out.append(Violation("NotCommutative", (labels[x], labels[y])))
            break
    for x in range(n):
        if mul[x][top] != x:
            out.append(Violation("TopNotIdentity", (labels[x],)))
            break
    for x in range(n):
        if mul[x][bottom] != bottom:
            out.append(Violation("BottomNotAbsorbing", (labels[x],)))
            break
    # Once the product is commutative with the top as identity and the
    # bottom as zero, both laws hold whenever a bound takes part, except
    # distributivity with the top inside the join: x*(1 v b) = x*1 v x*b
    # says x*b <= x.  Skipping the rest leaves the first witness unchanged.
    everything = range(n)
    inner = everything if out else [x for x in everything if x not in (bottom, top)]
    nonzero = everything if out else [x for x in everything if x != bottom]
    assoc = _first_nonassociative(mul, inner)
    if assoc is not None:
        out.append(Violation("NotAssociative", tuple(labels[i] for i in assoc)))
    dist = _first_nondistributive(mul, join, inner, nonzero)
    if dist is not None:
        out.append(Violation("NotDistributive", tuple(labels[i] for i in dist)))
    return out


class FiniteMultLattice:
    """A validated finite multiplicative lattice.

    Elements are the indices ``0 .. n-1`` into ``labels``; all derived
    data (join/meet/product/quotient tables, the spectrum, radicals,
    power chains, element predicates) is precomputed at construction.
    Set-valued results are returned as tuples sorted by element index.

    Construct through :meth:`from_tables`, which checks every axiom
    first; :func:`validate_lattice` lowers a :class:`LatticeSpec` to
    tables and calls it.
    """

    def __init__(
        self,
        name: str,
        labels: tuple[str, ...],
        up: tuple[int, ...],
        join: tuple[tuple[int, ...], ...],
        meet: tuple[tuple[int, ...], ...],
        mul: tuple[tuple[int, ...], ...],
        bottom: int,
        top: int,
    ):
        # Internal constructor: inputs must already be validated.
        self.name = name
        self.labels = labels
        self.n = len(labels)
        self.bottom = bottom
        self.top = top
        self._up = up
        self._down = _order_facts(up).down
        self._join = join
        self._meet = meet
        self._mul = mul
        self._index = {lab: i for i, lab in enumerate(labels)}
        self._build_caches()

    # -- construction -------------------------------------------------

    @classmethod
    def from_tables(
        cls,
        up: tuple[int, ...],
        mul: Sequence[Sequence[Optional[int]]],
        bottom: int,
        top: int,
        labels: Optional[tuple[str, ...]] = None,
        name: str = "",
    ) -> "FiniteMultLattice":
        """Build and fully validate a lattice from raw order/product tables.

        ``up[i]`` masks elements above ``i``; the reflexive-transitive
        closure is taken.  ``mul`` is the symmetric product table.  A
        ``None`` cell with the bottom or top is filled in as the axioms
        force; any other ``None`` cell is reported as ``MissingProduct``,
        after the order checks.
        """
        n = len(up)
        if labels is None:
            labels = default_labels(n, bottom, top)
        if bottom == top:
            raise ValidationError([Violation("BottomEqualsTop", (labels[bottom],))])
        closed = list(up)
        _closure(closed, n)
        up = tuple(closed)
        viols = _order_violations(up, n, bottom, top, labels)
        if viols:
            raise ValidationError(viols)
        order = _order_facts(up)
        if order.missing is not None:
            i, j = order.missing
            raise ValidationError(
                [Violation("NotALattice", (labels[i], labels[j]), "missing bound")]
            )
        table = [list(row) for row in mul]
        for x in range(n):  # x*1 = x and x*0 = 0 are forced
            for y, v in ((top, x), (bottom, bottom)):
                if table[x][y] is None:
                    table[x][y] = table[y][x] = v
        missing = [
            Violation("MissingProduct", mul_key(labels[i], labels[j]))
            for i, j in itertools.combinations_with_replacement(range(n), 2)
            if table[i][j] is None
        ]
        if missing:
            raise ValidationError(missing)
        viols = multiplication_violations(labels, order.join, table, bottom, top)
        if viols:
            raise ValidationError(viols)
        mul = tuple(map(tuple, table))
        return cls(name, labels, up, order.join, order.meet, mul, bottom, top)

    def _build_caches(self) -> None:
        # A lattice has 24 instance attributes.  Keep fewer than 30: from 30
        # on, CPython 3.11 stops sharing instance-dict keys between lattices,
        # and every attribute lookup in the methods below gets about 1.5x
        # slower.
        n = self.n
        mul = self._mul
        meet = self._meet
        up = self._up
        down = self._down
        top = self.top
        bottom = self.bottom
        order = _order_facts(up)

        # Derived facts from the axioms, kept as hard assertions.  Checking
        # monotonicity on the lower covers y of each z suffices: every
        # y <= z is joined to z by a chain of covers.
        for x in range(n):
            row, meet_row = mul[x], meet[x]
            for y in range(n):
                assert down[meet_row[y]] >> row[y] & 1, "product must lie below the meet"
        for z, covers in enumerate(order.covers):
            for y in covers:
                for row in mul:
                    assert down[row[z]] >> row[y] & 1, "product must be monotone"

        # quotient table: quot[y][x] = largest a with a*x <= y.  The a with
        # a*x <= y form a down-set closed under joins (the product is
        # monotone and distributes over joins), so its greatest element is
        # the first of them in a reverse linear extension.
        descending = order.descending
        quot = []
        for dy in down:
            row = []
            for mx in mul:
                for a in descending:
                    if dy >> mx[a] & 1:
                        row.append(a)
                        break
            quot.append(tuple(row))
        self._quot = tuple(quot)

        # power chains: x, x^2, ... are decreasing in a finite lattice,
        # so the chain stabilizes; keep the distinct prefix.
        chains = []
        for x in range(n):
            chain = [x]
            while True:
                nxt = mul[chain[-1]][x]
                if nxt == chain[-1]:
                    break
                assert self.leq(nxt, chain[-1]), "powers must decrease"
                chain.append(nxt)
            chains.append(tuple(chain))
        self._powers = tuple(chains)

        # (e : x) lies above e, as e*x <= e, and "a*x <= e forces a <= e"
        # says (e : x) <= e.  So p is prime iff the quotient fixes p off
        # down[p], and q is primary iff it fixes q off down[rad q].
        def fixed_off(e: int, d: int) -> bool:
            return all(v == e for x, v in enumerate(quot[e]) if not d >> x & 1)

        self._primes = tuple(p for p in range(n) if p != top and fixed_off(p, down[p]))
        self._prime_mask = primes = _mask(self._primes)
        self._maximal_mask = _mask(
            i for i in range(n) if i != top and up[i] & ~(1 << i) == 1 << top
        )
        # Every proper element lies below some maximal element.
        for x in range(n):
            if x != top:
                assert up[x] & self._maximal_mask
        assert self._primes, "the spectrum of a finite lattice is nonempty"

        self._radical = tuple(self.meet(_members(primes & up[a])) for a in range(n))
        self._min_primes = tuple(
            tuple(p for p in _members(above) if above & down[p] == 1 << p)
            for above in (primes & up[a] for a in range(n))
        )
        self._primary_mask = _mask(
            q for q in range(n) if q != top and fixed_off(q, down[self._radical[q]])
        )

        pp: list[Optional[tuple[int, int]]] = [None] * n
        for p in self._primes:
            for k, v in enumerate(self._powers[p], start=1):
                if pp[v] is None:
                    pp[v] = (p, k)
        self._prime_power = tuple(pp)

        self._mp_mask = _mask(m for m in range(n) if self._mp_scan(m))
        self._jp_mask = _mask(j for j in range(n) if self._jp_scan(j))

        # dimension: longest strict chain (edge count) in the prime poset
        height: dict[int, int] = {}
        for p in sorted(self._primes, key=lambda q: bin(down[q]).count("1")):
            height[p] = max(
                (height[q] + 1 for q in _members(primes & down[p] & ~(1 << p))),
                default=0,
            )
        self._dimension = max(height.values())

        self._profile = LatticeProfile(
            is_domain=bool(primes >> bottom & 1),
            is_treed=all(
                self.comaximal(p, q)
                for p, q in itertools.combinations(self._primes, 2)
                if not self.leq(p, q) and not self.leq(q, p)
            ),
            generated_by_principal=self.generates(
                _members(self._mp_mask & self._jp_mask)
            ),
        )

    # -- predicate scans ----------------------------------------------

    def _mp_scan(self, m: int) -> bool:
        # a /\ b*m == ((a:m) /\ b) * m for all a, b
        meet, quot = self._meet, self._quot
        colm = self._mul[m]
        for a, meet_a in enumerate(meet):
            meet_q = meet[quot[a][m]]
            for b, bm in enumerate(colm):
                if meet_a[bm] != colm[meet_q[b]]:
                    return False
        return True

    def _wmp_scan(self, m: int) -> bool:
        meet, mul, quot = self._meet, self._mul, self._quot
        return all(meet[m][a] == mul[quot[a][m]][m] for a in range(self.n))

    def _jp_scan(self, j: int) -> bool:
        # ((a*j \/ b) : j) == a \/ (b:j) for all a, b
        join = self._join
        colj = self._mul[j]
        qj = [row[j] for row in self._quot]  # qj[y] = (y : j)
        for a, join_a in enumerate(join):
            join_aj = join[colj[a]]
            for b, bj in enumerate(qj):
                if qj[join_aj[b]] != join_a[bj]:
                    return False
        return True

    def _wjp_scan(self, j: int) -> bool:
        join, mul, quot = self._join, self._mul, self._quot
        z = quot[self.bottom][j]
        return all(quot[mul[a][j]][j] == join[a][z] for a in range(self.n))

    # -- basic order and monoid operations -----------------------------

    def leq(self, x: Elt, y: Elt) -> bool:
        return bool(self._up[x] >> y & 1)

    def join2(self, x: Elt, y: Elt) -> Elt:
        return self._join[x][y]

    def meet2(self, x: Elt, y: Elt) -> Elt:
        return self._meet[x][y]

    def mul2(self, x: Elt, y: Elt) -> Elt:
        return self._mul[x][y]

    def join(self, xs: Iterable[Elt]) -> Elt:
        """Least upper bound; the empty join is the bottom element."""
        r = self.bottom
        for x in xs:
            r = self._join[r][x]
        return r

    def meet(self, xs: Iterable[Elt]) -> Elt:
        """Greatest lower bound; the empty meet is the top element."""
        r = self.top
        for x in xs:
            r = self._meet[r][x]
        return r

    def mul(self, xs: Iterable[Elt]) -> Elt:
        """Product of a sequence of elements.

        The fold is order-independent (the product is commutative and
        associative); the empty product is the top element, which is
        the monoid identity.
        """
        r = self.top
        for x in xs:
            r = self._mul[r][x]
        return r

    def quotient(self, y: Elt, x: Elt) -> Elt:
        """The residual (y : x), i.e. the largest a with a*x <= y."""
        return self._quot[y][x]

    def radical(self, a: Elt) -> Elt:
        """The meet of all primes above ``a``.

        Coincides with the join of all x some power of which lies below
        ``a``; the agreement of the two forms is exercised by the test
        suite with an independent computation.
        """
        return self._radical[a]

    def comaximal(self, x: Elt, y: Elt) -> bool:
        return self._join[x][y] == self.top

    def power_chain(self, x: Elt) -> tuple[Elt, ...]:
        """Distinct powers ``x, x^2, ...`` (a strictly decreasing chain).

        The chain stabilizes after at most ``n`` steps; any statement
        quantified over all exponents only needs exponents up to
        ``len(power_chain(x))``.
        """
        return self._powers[x]

    def power(self, x: Elt, k: int) -> Elt:
        """``x`` raised to the ``k``-th power, ``k >= 1``."""
        chain = self._powers[x]
        return chain[k - 1] if k <= len(chain) else chain[-1]

    # -- spectrum -------------------------------------------------------

    def spectrum(self) -> tuple[Elt, ...]:
        """All prime elements, sorted by index."""
        return self._primes

    def max_elements(self) -> tuple[Elt, ...]:
        """All maximal proper elements, sorted by index."""
        return _members(self._maximal_mask)

    def min_primes(self, a: Elt) -> tuple[Elt, ...]:
        """Minimal primes above ``a``; empty for the top element."""
        return self._min_primes[a]

    def dimension(self) -> int:
        """Longest strict chain (edge count) in the prime poset."""
        return self._dimension

    def is_prime(self, x: Elt) -> bool:
        return bool(self._prime_mask >> x & 1)

    def is_primary(self, x: Elt) -> bool:
        return bool(self._primary_mask >> x & 1)

    def is_radical_element(self, x: Elt) -> bool:
        return self._radical[x] == x

    def prime_power_witness(self, x: Elt) -> Optional[tuple[Elt, int]]:
        return self._prime_power[x]

    def principal_elements(self) -> tuple[Elt, ...]:
        return _members(self._mp_mask & self._jp_mask)

    def join_principal_elements(self) -> tuple[Elt, ...]:
        return _members(self._jp_mask)

    def join_irreducibles(self) -> tuple[Elt, ...]:
        """Elements with exactly one lower cover.

        Every element is the join of the join-irreducibles below it,
        and every generating set contains all of them, so they form the
        smallest generating set of the lattice.
        """
        covers = _order_facts(self._up).covers
        return tuple(x for x in range(self.n) if len(covers[x]) == 1)

    def generates(self, gens: Iterable[Elt]) -> bool:
        """Whether every element is the join of the members of ``gens`` below it."""
        g = _mask(gens)
        return all(self.join(_members(g & self._down[x])) == x for x in range(self.n))

    def lower_covers(self, x: Elt) -> tuple[Elt, ...]:
        return _order_facts(self._up).covers[x]

    # -- profiles -------------------------------------------------------

    def element_profile(self, x: Elt) -> ElementProfile:
        witness = self._prime_power[x]
        mp = bool(self._mp_mask >> x & 1)
        jp = bool(self._jp_mask >> x & 1)
        return ElementProfile(
            is_proper=x != self.top,
            is_prime=bool(self._prime_mask >> x & 1),
            is_maximal=bool(self._maximal_mask >> x & 1),
            is_primary=bool(self._primary_mask >> x & 1),
            is_radical=self._radical[x] == x,
            is_prime_power=witness is not None,
            prime_power_witness=witness,
            is_compact=True,
            is_meet_principal=mp,
            is_weak_meet_principal=self._wmp_scan(x),
            is_join_principal=jp,
            is_weak_join_principal=self._wjp_scan(x),
            is_principal=mp and jp,
        )

    def lattice_profile(self) -> LatticeProfile:
        return self._profile

    # -- labels and serialization ----------------------------------------

    def label(self, x: Elt) -> str:
        return self.labels[x]

    def label_set(self, xs: Iterable[Elt]) -> tuple[str, ...]:
        return tuple(self.labels[x] for x in sorted(xs))

    def index(self, label: str) -> Elt:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"no element labelled {label!r}") from None

    def elements(self) -> range:
        return range(self.n)

    def proper_elements(self) -> tuple[Elt, ...]:
        return tuple(x for x in range(self.n) if x != self.top)

    def to_spec(self) -> LatticeSpec:
        """Serialize back to a spec: covering pairs plus the non-forced products."""
        order = _order_facts(self._up)
        covers = sorted((i, j) for j, below in enumerate(order.covers) for i in below)
        pairs = [(self.labels[i], self.labels[j]) for i, j in covers]
        entries: dict[tuple[str, str], str] = {}
        for i in range(self.n):
            for j in range(i, self.n):
                if i in (self.bottom, self.top) or j in (self.bottom, self.top):
                    continue
                entries[mul_key(self.labels[i], self.labels[j])] = self.labels[
                    self._mul[i][j]
                ]
        return LatticeSpec(
            name=self.name,
            elements=self.labels,
            order_pairs=tuple(pairs),
            mul_entries=entries,
            bottom=self.labels[self.bottom],
            top=self.labels[self.top],
        )

    def __repr__(self) -> str:
        return f"<FiniteMultLattice {self.name or '?'} n={self.n}>"


def default_labels(n: int, bottom: int, top: int) -> tuple[str, ...]:
    """Standard labels: '0' for bottom, '1' for top, letters in between.

    Past ``z`` the letters continue as ``aa, ab, ..., zz, aaa, ...``.
    """
    letters = (
        "".join(word)
        for size in itertools.count(1)
        for word in itertools.product(string.ascii_lowercase, repeat=size)
    )
    out = []
    for i in range(n):
        if i == bottom:
            out.append("0")
        elif i == top:
            out.append("1")
        else:
            out.append(next(letters))
    return tuple(out)


def _order_violations(
    up: tuple[int, ...], n: int, bottom: int, top: int, labels: tuple[str, ...]
) -> list[Violation]:
    full = (1 << n) - 1
    for i in range(n):
        for j in range(i + 1, n):
            if up[i] >> j & 1 and up[j] >> i & 1:
                return [
                    Violation(
                        "NotAPartialOrder",
                        (labels[i], labels[j]),
                        "order cycle",
                    )
                ]
    out = []
    if up[bottom] != full:
        bad = next(j for j in range(n) if not up[bottom] >> j & 1)
        out.append(
            Violation(
                "NotALattice",
                (labels[bottom], labels[bad]),
                "designated bottom is not the least element",
            )
        )
    if any(not up[i] >> top & 1 for i in range(n)):
        bad = next(i for i in range(n) if not up[i] >> top & 1)
        out.append(
            Violation(
                "NotALattice",
                (labels[bad], labels[top]),
                "designated top is not the greatest element",
            )
        )
    return out


def validate_lattice(spec: LatticeSpec) -> FiniteMultLattice:
    """Check every axiom on a :class:`LatticeSpec` and build the lattice.

    Raises :class:`InvalidSpec` for malformed input (unknown or repeated
    labels) and :class:`ValidationError` carrying one
    :class:`Violation` per failed check otherwise.  Products with the
    bottom or top element may be omitted from the spec and are inferred
    from the axioms; all other products are mandatory and reported as
    ``MissingProduct`` when absent.
    """
    labels = tuple(spec.elements)
    n = len(labels)
    index: dict[str, int] = {}
    for i, lab in enumerate(labels):
        if lab in index:
            raise InvalidSpec(f"repeated element label {lab!r}")
        index[lab] = i
    for lab in (spec.bottom, spec.top):
        if lab not in index:
            raise InvalidSpec(f"designated bound {lab!r} is not an element")
    for x, y in spec.order_pairs:
        if x not in index or y not in index:
            raise InvalidSpec(f"order pair ({x!r}, {y!r}) uses unknown labels")
    for (x, y), v in spec.mul_entries.items():
        if x not in index or y not in index or v not in index:
            raise InvalidSpec(f"product entry {x!r}*{y!r}={v!r} uses unknown labels")
        if mul_key(x, y) != (x, y):
            raise InvalidSpec(f"product key ({x!r}, {y!r}) is not normalized")

    up = [0] * n
    for x, y in spec.order_pairs:
        up[index[x]] |= 1 << index[y]
    mul: list[list[Optional[int]]] = [[None] * n for _ in range(n)]
    for (x, y), v in spec.mul_entries.items():
        mul[index[x]][index[y]] = mul[index[y]][index[x]] = index[v]
    bottom, top = index[spec.bottom], index[spec.top]
    return FiniteMultLattice.from_tables(
        tuple(up), mul, bottom, top, labels=labels, name=spec.name
    )
