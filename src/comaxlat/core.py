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
between threads; all operations are pure table lookups.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

Elt = int  # index of an element within its parent lattice

# The largest lattice the package builds.  Every element index then fits
# in a byte, so the construction kernels compare whole table rows with
# ``bytes.translate``; the cost of building a lattice is cubic in n.
MAX_ELEMENTS = 256

__all__ = [
    "Elt",
    "LatticeError",
    "InvalidSpec",
    "MAX_ELEMENTS",
    "SizeCapExceeded",
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


class SizeCapExceeded(LatticeError):
    """Requested size is above the configured cap."""


def _check_elements(n: int) -> None:
    """Refuse a lattice of more than :data:`MAX_ELEMENTS` elements."""
    if n > MAX_ELEMENTS:
        raise SizeCapExceeded(f"size {n} exceeds the element cap {MAX_ELEMENTS}")


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
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _maps(table: Iterable[Sequence[int]]) -> tuple[bytes, ...]:
    """The rows of ``table`` as ``bytes.translate`` tables.

    Each row becomes bytes padded with zeros to the 256 entries a table
    needs, so ``row.translate(maps[x])`` maps every entry ``v`` of a byte
    row to ``table[x][v]``.  A row of n bytes translates several times
    faster than a padded one, so the kernels keep rows unpadded and pad,
    with the same ``ljust``, only the rows they use as tables.  Nothing
    keeps padded rows: at 256 bytes a row they would add kilobytes to
    every small lattice and order.
    """
    return tuple([bytes(row).ljust(256, b"\0") for row in table])


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


class _Order(NamedTuple):
    """Index-level facts of an order given by up-set masks.

    ``up`` holds the masks closed under reflexivity and transitivity.
    ``cycle`` is the first pair ``(i, j)``, ``i < j``, in row-major index
    order with ``i <= j <= i``, or ``None``; with a cycle, ``join``,
    ``meet`` and ``missing`` are ``None`` and the other fields describe
    the relation, not an order.  Otherwise ``join`` and ``meet`` are
    ``None`` when some pair lacks a bound, and ``missing`` is then the
    first such pair ``(i, j)``, ``i <= j``, in row-major index order.
    ``covers[x]`` lists the lower covers of ``x`` in index order; ``jirr``
    masks the join-irreducibles, the elements with exactly one.
    ``descending`` is a reverse linear extension: every element comes
    before all elements strictly below it.  ``join_rows`` and
    ``meet_rows`` hold the rows of ``join`` and ``meet`` as bytes, or
    ``None`` with them.
    """

    up: tuple[int, ...]
    cycle: Optional[tuple[int, int]]
    join: Optional[tuple[tuple[int, ...], ...]]
    meet: Optional[tuple[tuple[int, ...], ...]]
    missing: Optional[tuple[int, int]]
    down: tuple[int, ...]
    covers: tuple[tuple[int, ...], ...]
    jirr: int
    descending: tuple[int, ...]
    join_rows: Optional[tuple[bytes, ...]]
    meet_rows: Optional[tuple[bytes, ...]]


@functools.lru_cache(maxsize=1024)
def _order_facts(up: tuple[int, ...]) -> _Order:
    """The :class:`_Order` of up-set masks as given, computed once per order.

    The masks are closed here, and the record keeps the closed masks and
    the first order cycle, so building another lattice on the same masks
    repeats only the caller's checks on its designated bounds.  Lattices
    built on one order share its tables.  Only index-level data is kept
    here: labels and violations are produced by each caller.  The bound
    keeps every order up to size 8 (300 of them) without letting large
    user lattices pile up.
    """
    n = len(up)
    closed = list(up)
    _closure(closed, n)
    up = tuple(closed)
    cycle = None
    # in a closed relation, i <= j <= i exactly when up[i] == up[j]: the
    # scan for the first cycle runs only when two up-sets coincide
    if len(set(up)) < n:
        cycle = next(
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if up[i] >> j & 1 and up[j] >> i & 1
        )
    down = tuple(sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n))
    covers = tuple(
        tuple(i for i in _members(below) if up[i] & below & ~(1 << i) == 0)
        for below in (down[x] & ~(1 << x) for x in range(n))
    )
    jirr = _mask(x for x in range(n) if len(covers[x]) == 1)
    descending = tuple(sorted(range(n), key=lambda i: bin(up[i]).count("1")))
    if cycle is not None:
        return _Order(
            up, cycle, None, None, None, down, covers, jirr, descending, None, None
        )
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            lu = _extremum(up[i] & up[j], up)
            gl = _extremum(down[i] & down[j], down)
            if lu is None or gl is None:
                return _Order(
                    up, None, None, None, (i, j), down, covers, jirr, descending,
                    None, None,
                )
            join[i][j] = join[j][i] = lu
            meet[i][j] = meet[j][i] = gl
    join_t, meet_t = tuple(map(tuple, join)), tuple(map(tuple, meet))
    join_rows, meet_rows = tuple(map(bytes, join)), tuple(map(bytes, meet))
    return _Order(
        up, None, join_t, meet_t, None, down, covers, jirr, descending,
        join_rows, meet_rows,
    )


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
    order: _Order,
    mul: Sequence[Sequence[int]],
    bottom: int,
    top: int,
) -> list[Violation]:
    """Check a full multiplication table against the monoid axioms.

    ``order`` is the :class:`_Order` of a lattice (closure, bounds,
    joins and meets already hold).  Reports at most one violation per
    axiom, with the first witness in index order.

    Once the product is commutative, with the top as identity and the
    bottom as zero, both laws are decided a whole row at a time:

    - distributivity by ``x*(a v j) == x*a v x*j`` over all ``a``, for
      ``x`` not a bound and ``j`` join-irreducible.  Every ``b != 0`` is
      the join of the join-irreducibles below it and ``x*0 = 0``, so by
      induction on the joinands ``x*(a v b) == x*a v x*b`` for every
      ``b``; with ``x`` a bound the law is the identity or zero law.
    - then associativity by ``(x*y)*z == x*(y*z)`` over all ``z``, for
      join-irreducibles ``x`` and ``y`` other than the top.  A product
      that distributes over joins in both arguments is associative when
      it is so on join-irreducibles, and the top is the identity.

    Where a row check fails, or an earlier axiom already did, the
    index-order scans run for that law as they always did, so every
    reported witness is the first in index order.
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
    distributes = associates = False
    if not out:
        rows = tuple(map(bytes, mul))
        maps = _maps(rows)
        join_rows = order.join_rows
        join_maps = _maps(join_rows)
        jirr = _members(order.jirr)
        distributes = all(
            join_rows[j].translate(maps[x]) == rows[x].translate(join_maps[mul[x][j]])
            for x in inner
            for j in jirr
        )
        gens = [x for x in jirr if x != top]
        associates = distributes and all(
            rows[mul[x][y]] == rows[y].translate(maps[x]) for x in gens for y in gens
        )
    if not associates:
        assoc = _first_nonassociative(mul, inner)
        if assoc is not None:
            out.append(Violation("NotAssociative", tuple(labels[i] for i in assoc)))
    if not distributes:
        dist = _first_nondistributive(mul, order.join, inner, nonzero)
        if dist is not None:
            out.append(Violation("NotDistributive", tuple(labels[i] for i in dist)))
    return out


class FiniteMultLattice:
    """A validated finite multiplicative lattice.

    Elements are the indices ``0 .. n-1`` into ``labels``; all derived
    data (join/meet/product/quotient tables, the spectrum, radicals,
    power chains, element predicates) is precomputed at construction,
    except principality, which is checked when asked; the lattice profile
    checks the join-irreducibles for it, up to the first not principal.
    Set-valued results are returned as tuples sorted by element index.

    Element arguments must lie in ``range(n)``.  The accessors are
    unchecked table lookups (a negative index reads a row from the end);
    ``factor``, ``oracle_factorizations`` and ``refine_by_radical`` are
    the checked entry points, and raise ``KeyError`` outside it.

    Construct through :meth:`from_tables`, which checks every axiom
    first; :func:`validate_lattice` lowers a :class:`LatticeSpec` to
    tables and calls it.
    """

    def __init__(
        self,
        name: str,
        labels: tuple[str, ...],
        order: _Order,
        mul: tuple[tuple[int, ...], ...],
        bottom: int,
        top: int,
    ):
        # Internal constructor: inputs must already be validated.  The
        # order's tables are kept as aliases of its record, for the kernels'
        # hot loops.
        self.name = name
        self.labels = labels
        self.n = len(labels)
        self.bottom = bottom
        self.top = top
        self._order = order
        self._up = order.up
        self._down = order.down
        self._join = order.join
        self._meet = order.meet
        self._mul = mul
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
        closure is taken.  Everything that depends on ``up`` alone, the
        closure and the order checks included, comes from the order's
        record (:func:`_order_facts`), derived once per distinct ``up``.
        ``mul`` is the full symmetric product table.  The tables are
        checked as given and never rewritten: a ``None`` cell, in either
        triangle and with the bounds too, is reported as
        ``MissingProduct`` for its pair, after the order checks.  Only
        :func:`validate_lattice` fills the products the axioms force.
        Raises :class:`SizeCapExceeded` above :data:`MAX_ELEMENTS`
        elements, then :class:`InvalidSpec` for a ``bottom`` or ``top``
        outside ``range(n)``, an up-mask with a bit outside it or
        negative, or ``labels`` of another length than ``up``.  After
        the order checks it raises :class:`InvalidSpec` for a ``mul``
        without n rows of n entries, and after the ``None`` cells for
        the first cell that is not an int in ``range(n)``, before the
        axioms are checked.
        """
        n = len(up)
        _check_elements(n)
        for what, x in (("bottom", bottom), ("top", top)):
            if x not in range(n):
                raise InvalidSpec(f"designated {what} {x!r} is outside range({n})")
        full = (1 << n) - 1
        for i, mask in enumerate(up):
            if mask & ~full:  # so is every negative mask
                raise InvalidSpec(f"up[{i}] = {mask!r} is not a mask of range({n})")
        if labels is None:
            labels = default_labels(n, bottom, top)
        elif len(labels) != n:
            raise InvalidSpec(f"{len(labels)} labels given for {n} elements")
        if bottom == top:
            raise ValidationError([Violation("BottomEqualsTop", (labels[bottom],))])
        order = _order_facts(tuple(up))
        viols = _order_violations(order, bottom, top, labels)
        if viols:
            raise ValidationError(viols)
        if len(mul) != n:
            raise InvalidSpec(f"mul has {len(mul)} rows for {n} elements")
        for i, row in enumerate(mul):
            if len(row) != n:
                raise InvalidSpec(f"mul[{i}] has {len(row)} entries for {n} elements")
        if any(None in row for row in mul):
            raise ValidationError(
                Violation("MissingProduct", mul_key(labels[i], labels[j]))
                for i, j in itertools.combinations_with_replacement(range(n), 2)
                if mul[i][j] is None or mul[j][i] is None
            )
        # the one copy; a row that is already a tuple is kept as it is
        mul = tuple(map(tuple, mul))
        try:
            in_range = max(bytes(itertools.chain.from_iterable(mul))) < n
        except (TypeError, ValueError):  # a value that is no int in range(256)
            in_range = False
        if not in_range:
            i, j, v = next(
                (i, j, v)
                for i, row in enumerate(mul)
                for j, v in enumerate(row)
                if not isinstance(v, int) or not 0 <= v < n
            )
            raise InvalidSpec(f"mul[{i}][{j}] = {v!r} is not an element of range({n})")
        viols = multiplication_violations(labels, order, mul, bottom, top)
        if viols:
            raise ValidationError(viols)
        return cls(name, labels, order, mul, bottom, top)

    def _build_caches(self) -> None:
        # A lattice has 23 instance attributes.  Keep fewer than 30: from 30
        # on, CPython 3.11 stops sharing instance-dict keys between lattices,
        # and every attribute lookup in the methods below gets about 1.5x
        # slower.
        n = self.n
        mul = self._mul
        up = self._up
        down = self._down
        top = self.top
        bottom = self.bottom
        self._proper = tuple(x for x in range(n) if x != top)

        # quotient table: quot[y][x] = largest a with a*x <= y.  The a with
        # a*x <= y form a down-set closed under joins (the product is
        # monotone and distributes over joins), so its greatest element is
        # the first of them in a reverse linear extension.  So one walk of
        # it per x fills column x: a goes to every y above a*x not yet
        # filled.  fixed[y] masks the x with (y : x) = y.
        descending = self._order.descending
        full = (1 << n) - 1
        cols = []
        fixed = [0] * n
        for x, mx in enumerate(mul):
            col = bytearray(n)
            empty = full
            for a in descending:
                new = up[mx[a]] & empty
                if new:
                    empty ^= new
                    if new >> a & 1:
                        fixed[a] |= 1 << x
                    while new:
                        low = new & -new
                        col[low.bit_length() - 1] = a
                        new ^= low
                    if not empty:
                        break
            cols.append(col)
        self._quot = tuple(zip(*cols))

        # power chains: x, x^2, ... are decreasing in a finite lattice,
        # so the chain stabilizes; keep the distinct prefix.
        chains = []
        for x in range(n):
            chain = [x]
            while True:
                nxt = mul[chain[-1]][x]
                if nxt == chain[-1]:
                    break
                chain.append(nxt)
            chains.append(tuple(chain))
        self._powers = tuple(chains)

        # (e : x) lies above e, as e*x <= e, and "a*x <= e forces a <= e"
        # says (e : x) <= e.  So p is prime iff the quotient fixes p off
        # down[p], and q is primary iff it fixes q off down[rad q].
        self._primes = tuple(
            p for p in range(n) if p != top and not full & ~down[p] & ~fixed[p]
        )
        self._prime_mask = primes = _mask(self._primes)
        self._maximal_mask = _mask(
            i for i in range(n) if i != top and up[i] & ~(1 << i) == 1 << top
        )

        # one walk over the primes above a, in index order: the radical
        # folds their meet from the top as meet() does, and p is minimal
        # when no other of them lies below it
        meet = self._meet
        radical = []
        min_primes = []
        for a in range(n):
            above = rest = primes & up[a]
            r = top
            mins = []
            while rest:
                low = rest & -rest
                p = low.bit_length() - 1
                r = meet[r][p]
                if above & down[p] == low:
                    mins.append(p)
                rest ^= low
            radical.append(r)
            min_primes.append(tuple(mins))
        self._radical = rad = tuple(radical)
        self._min_primes = tuple(min_primes)
        self._primary_mask = _mask(
            q for q in range(n) if q != top and not full & ~down[rad[q]] & ~fixed[q]
        )

        pp: list[Optional[tuple[int, int]]] = [None] * n
        for p in self._primes:
            for k, v in enumerate(self._powers[p], start=1):
                if pp[v] is None:
                    pp[v] = (p, k)
        self._prime_power = tuple(pp)

        # dimension: longest strict chain (edge count) in the prime poset;
        # reversed(descending) puts every element after those below it
        height: dict[int, int] = {}
        for p in reversed(descending):
            if primes >> p & 1:
                height[p] = max(
                    (height[q] + 1 for q in _members(primes & down[p] & ~(1 << p))),
                    default=0,
                )
        self._dimension = max(height.values())

        join = self._join
        self._profile = LatticeProfile(
            is_domain=bool(primes >> bottom & 1),
            is_treed=all(
                join[p][q] == top
                for p, q in itertools.combinations(self._primes, 2)
                if not up[p] >> q & 1 and not up[q] >> p & 1
            ),
            generated_by_principal=all(map(self._principal, self.join_irreducibles())),
        )

    # -- principality -------------------------------------------------
    # Checked when asked, one row over b per a.  The weak notions are the
    # same identities at b = 1 (meet) and b = 0 (join), one row over a
    # (see element_profile).  Rows are padded as _maps pads them, as they
    # are used: a check that fails early pads few.

    def _meet_principal(self, m: int) -> bool:
        # a /\ b*m == ((a:m) /\ b) * m for all a and b
        meet, quot = self._order.meet_rows, self._quot
        row = bytes(self._mul[m])
        mul_m = row.ljust(256, b"\0")
        for a, meet_a in enumerate(meet):
            table = meet_a.ljust(256, b"\0")
            if row.translate(table) != meet[quot[a][m]].translate(mul_m):
                return False
        return True

    def _join_principal(self, j: int) -> bool:
        # ((a*j \/ b) : j) == a \/ (b:j) for all a and b
        join = self._order.join_rows
        row = bytes([q[j] for q in self._quot])  # row[y] = (y : j)
        quot_j = row.ljust(256, b"\0")
        for aj, join_a in zip(self._mul[j], join):
            table = join_a.ljust(256, b"\0")
            if join[aj].translate(quot_j) != row.translate(table):
                return False
        return True

    def _principal(self, x: Elt) -> bool:
        """Whether ``x`` is meet- and join-principal."""
        return self._join_principal(x) and self._meet_principal(x)

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
        """``x`` raised to the ``k``-th power; :class:`ValueError` for ``k < 1``."""
        if k < 1:
            raise ValueError(f"exponent must be at least 1, got {k}")
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

    def prime_power_witness(self, x: Elt) -> Optional[tuple[Elt, int]]:
        return self._prime_power[x]

    def principal_elements(self) -> tuple[Elt, ...]:
        return tuple(filter(self._principal, range(self.n)))

    def join_principal_elements(self) -> tuple[Elt, ...]:
        return tuple(filter(self._join_principal, range(self.n)))

    def join_irreducibles(self) -> tuple[Elt, ...]:
        """Elements with exactly one lower cover."""
        return _members(self._order.jirr)

    def generates(self, gens: Iterable[Elt]) -> bool:
        """Whether every element is the join of the members of ``gens`` below it.

        Every generating set holds the join-irreducibles, and they generate.
        """
        return not self._order.jirr & ~_mask(gens)

    def lower_covers(self, x: Elt) -> tuple[Elt, ...]:
        return self._order.covers[x]

    # -- profiles -------------------------------------------------------

    def element_profile(self, x: Elt) -> ElementProfile:
        witness = self._prime_power[x]
        mp = self._meet_principal(x)
        jp = self._join_principal(x)
        order = self._order
        mul_x = bytes(self._mul[x])
        quot_x = bytes([row[x] for row in self._quot])  # quot_x[a] = (a : x)
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
            # a /\ x == (a:x) * x, and (a*x : x) == a \/ (0:x), for all a
            is_weak_meet_principal=order.meet_rows[x]
            == quot_x.translate(mul_x.ljust(256, b"\0")),
            is_join_principal=jp,
            is_weak_join_principal=mul_x.translate(quot_x.ljust(256, b"\0"))
            == order.join_rows[quot_x[self.bottom]],
            is_principal=mp and jp,
        )

    def lattice_profile(self) -> LatticeProfile:
        return self._profile

    # -- labels and serialization ----------------------------------------

    def label(self, x: Elt) -> str:
        return self.labels[x]

    def index(self, label: str) -> Elt:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no element labelled {label!r}") from None

    def elements(self) -> range:
        return range(self.n)

    def proper_elements(self) -> tuple[Elt, ...]:
        return self._proper

    def to_spec(self) -> LatticeSpec:
        """Serialize back to a spec: covering pairs plus the non-forced products."""
        covers = sorted(
            (i, j) for j, below in enumerate(self._order.covers) for i in below
        )
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
    out, k = [], 0
    for i in range(n):
        if i == bottom:
            out.append("0")
        elif i == top:
            out.append("1")
        else:
            out.append(_word(k))
            k += 1
    return tuple(out)


def _word(k: int) -> str:
    """Word ``k``, from 0, of ``a, ..., z, aa, ab, ..., zz, aaa, ...``."""
    word = ""
    while True:
        k, r = divmod(k, 26)
        word = "abcdefghijklmnopqrstuvwxyz"[r] + word
        if not k:
            return word
        k -= 1


def _order_violations(
    order: _Order, bottom: int, top: int, labels: tuple[str, ...]
) -> list[Violation]:
    """The order defects of a record with designated bounds, or ``[]``.

    Three checks in turn, and only the first that fails reports: the
    first order cycle (``NotAPartialOrder``); then each designated bound
    against every element, witnessed by the first element in index order
    not above the bottom or not below the top (``NotALattice``, one per
    bound); then the first pair that lacks a join or a meet.
    """
    if order.cycle is not None:
        i, j = order.cycle
        return [Violation("NotAPartialOrder", (labels[i], labels[j]), "order cycle")]
    full = (1 << len(order.up)) - 1
    out = []
    rest = full & ~order.up[bottom]
    if rest:
        bad = (rest & -rest).bit_length() - 1
        detail = "designated bottom is not the least element"
        out.append(Violation("NotALattice", (labels[bottom], labels[bad]), detail))
    rest = full & ~order.down[top]
    if rest:
        bad = (rest & -rest).bit_length() - 1
        detail = "designated top is not the greatest element"
        out.append(Violation("NotALattice", (labels[bad], labels[top]), detail))
    if not out and order.missing is not None:
        i, j = order.missing
        out.append(Violation("NotALattice", (labels[i], labels[j]), "missing bound"))
    return out


def validate_lattice(spec: LatticeSpec) -> FiniteMultLattice:
    """Check every axiom on a :class:`LatticeSpec` and build the lattice.

    Raises :class:`InvalidSpec` for malformed input (unknown or repeated
    labels) and :class:`ValidationError` carrying one
    :class:`Violation` per failed check otherwise.  Products with the
    bottom or top element may be omitted from the spec: this lowering
    writes the forced products ``x*1 = x`` and ``x*0 = 0`` first, and the
    spec's own entries overwrite them, so an explicit bound product is
    still checked.  All other products are mandatory and reported as
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
    up = [0] * n
    for x, y in spec.order_pairs:
        if x not in index or y not in index:
            raise InvalidSpec(f"order pair ({x!r}, {y!r}) uses unknown labels")
        up[index[x]] |= 1 << index[y]
    bottom, top = index[spec.bottom], index[spec.top]
    mul: list[list[Optional[int]]] = [[None] * n for _ in range(n)]
    for x in range(n):  # the forced products, x*1 = x and x*0 = 0
        mul[x][top] = mul[top][x] = x
        mul[x][bottom] = mul[bottom][x] = bottom
    for (x, y), v in spec.mul_entries.items():
        if x not in index or y not in index or v not in index:
            raise InvalidSpec(f"product entry {x!r}*{y!r}={v!r} uses unknown labels")
        if x > y:
            raise InvalidSpec(f"product key ({x!r}, {y!r}) is not normalized")
        i, j = index[x], index[y]
        mul[i][j] = mul[j][i] = index[v]
    return FiniteMultLattice.from_tables(
        tuple(up), mul, bottom, top, labels=labels, name=spec.name
    )
