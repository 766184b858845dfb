"""Exhaustive enumeration of small multiplicative lattices.

Two stages: generate all bounded lattice orders on ``n`` unlabeled
elements (one per isomorphism class), then for each order generate all
multiplication tables satisfying the axioms, up to order-automorphism.

Isomorphism classes are identified by a canonical byte form minimized
over relabelings sending the bottom to 0 and the top to n-1 (an order
isomorphism always maps bounds to bounds, so nothing is lost).  The
order bytes come first in that form, so only the relabelings that carry
the order to its canonical up-masks can reach the minimum.  One helper,
``_canonical_order``, takes an order as given, finds its bounds, and
computes those up-masks together with the relabelings that reach them;
the order stage, the automorphism dedup and :func:`canonical_form` all
use it.  It keeps nothing between calls and fixes the rows one position
at a time, so its cost follows the tied prefixes, with (n-2)! as the
bound.  The order stage runs it once per placed labeling, and places
only labelings whose down-set sizes never decrease.

The multiplication search only branches on products of proper
join-irreducible elements: the remaining entries are forced by join
distributivity and propagated.  Distributivity ``x*y = u*y v v*y`` is
enforced for every incomparable pair ``(u, v)`` of proper elements with
``u v v = x``, pairs joining to the top included: the first pair whose
two products are known fills ``x*y``, every other pair must agree with
it (for ``x`` the top, with the preset ``T*y = y``).  Two more checks
prune a branch as soon as a partial table breaks an axiom:

- monotonicity: a new entry ``x*y = v`` must lie above every known
  entry ``a*b`` with ``a <= x`` and ``b <= y`` and below every known
  entry above it.  Each cell keeps the bounds this leaves it, ``lo``
  (the join of the known entries below it) and ``hi`` (the meet of
  those above), as one bitmask of the values between them, so a value
  costs one bit test;
- associativity: once the products ``p*q``, ``q*r``, ``(p*q)*r`` and
  ``p*(q*r)`` of join-irreducibles ``p, q, r`` are all known, the two
  sides must agree.

All three are consequences of the axioms, so every pruned branch holds
no solution.  A completed table is distributive everywhere; it is kept
when it is associative on every triple of join-irreducibles, hence
associative.  The full axiom check runs once, in
:meth:`FiniteMultLattice.from_tables`, on the representative of each
automorphism orbit.  The axioms are invariant under order
automorphisms, so the representative speaks for its whole orbit, and a
table the search got wrong raises :class:`ValidationError` there
instead of vanishing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from .core import (
    Elt,
    FiniteMultLattice,
    LatticeError,
    SizeCapExceeded,
    _members,
    _order_facts,
    multiplication_violations,  # unused here; perfbench/tracing.py wraps it by name
)
from .factorize import ClassificationReport, classify_lattice

__all__ = [
    "DEFAULT_SIZE_CAP",
    "HARD_SIZE_CAP",
    "SizeCapExceeded",
    "UnknownPredicate",
    "OrderTable",
    "enumerate_bounded_lattices",
    "enumerate_multiplications",
    "enumerated_universe",
    "canonical_form",
    "search",
    "PREDICATES",
]

DEFAULT_SIZE_CAP = 6
HARD_SIZE_CAP = 7
# canonical_form branches on tied rows, at most (n-2)! = 40,320 at 10 elements
_CANONICAL_FORM_MAX = 10

Table = tuple[tuple[int, ...], ...]


class UnknownPredicate(LatticeError):
    """The search predicate name or expression is not recognized."""


@dataclass(frozen=True)
class OrderTable:
    """A bounded lattice order in canonical labeling (bottom 0, top n-1)."""

    name: str
    n: int
    up: tuple[int, ...]
    join: tuple[tuple[int, ...], ...]
    meet: tuple[tuple[int, ...], ...]
    bottom: int
    top: int

    def leq(self, x: Elt, y: Elt) -> bool:
        return bool(self.up[x] >> y & 1)


def _check_cap(n: int, cap: int) -> None:
    if n < 1:
        raise ValueError("size must be at least 1")
    cap = min(cap, HARD_SIZE_CAP)
    if n > cap:
        raise SizeCapExceeded(f"size {n} exceeds the cap {cap}")


def _encode_leq(up: tuple[int, ...], n: int) -> bytes:
    return bytes(up[i] >> j & 1 for i in range(n) for j in range(n))


def _encode_relabeled_mul(mul: Table, perm: tuple[int, ...]) -> bytes:
    """Row-major bytes of the product table after relabeling ``i`` as ``perm[i]``."""
    src = sorted(range(len(perm)), key=perm.__getitem__)
    return bytes(perm[mul[a][b]] for a in src for b in src)


def _permute_up(up: tuple[int, ...], perm: tuple[int, ...], n: int) -> tuple[int, ...]:
    out = [0] * n
    for i in range(n):
        m = 0
        row = up[i]
        for j in range(n):
            if row >> j & 1:
                m |= 1 << perm[j]
        out[perm[i]] = m
    return tuple(out)


def _canonical_order(
    up: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Canonical up-masks of a bounded order, its bounds anywhere.

    Returns the relabeled up-masks whose ``_encode_leq`` is least, and
    every relabeling sending the bottom (largest up-mask) to 0 and the
    top (least, its own bit only) to n-1 that produces them, sorted.
    Rows are fixed one position at a time.  Row i of ``x`` reads its
    bits on the elements placed at 1..i-1, its own 1, then its bits on
    those left.  An element left above ``x`` has the smaller row (its
    placed upper bounds are among those of ``x``, and fewer left lie
    above it), so only maximal elements left compete, their rows end in
    zeros, and the least row is the least pattern of placed upper
    bounds.  Every prefix with the least row survives, ties included: at
    most (n-2)!/(n-2-i)! of them at row i.
    """
    n = len(up)
    bottom, top = up.index(max(up)), up.index(min(up))
    top_bit = 1 << top
    states = [((), max(up) ^ (1 << bottom | top_bit))]  # placed at 1..i-1, left
    for _ in range(n - 2):
        best, survivors = None, []
        for placed, left in states:
            rest = left
            while rest:
                bit = rest & -rest
                rest ^= bit
                x = bit.bit_length() - 1
                ux = up[x]
                if ux & left != bit:
                    continue  # an element left above x has a smaller row
                row = 0  # the placed upper bounds; rows share one width
                if ux & ~left != top_bit:
                    for e in placed:
                        row = row << 1 | ux >> e & 1
                if best is None or row < best:
                    best, survivors = row, []
                if row == best:
                    survivors.append((placed + (x,), left ^ bit))
        states = survivors
    # perm[x] is the position of x
    reach = sorted(
        tuple(map((bottom, *placed, top).index, range(n))) for placed, _ in states
    )
    return _permute_up(up, reach[0], n), tuple(reach)


def canonical_form(L: FiniteMultLattice) -> bytes:
    """Canonical byte encoding of a multiplicative lattice.

    Two lattices get the same form exactly when some bijection preserves
    both the order and the product.  The form is the minimum, over all
    relabelings sending the bottom to 0 and the top to n-1, of the
    concatenated order and product tables.  Raises
    :class:`SizeCapExceeded` above 10 elements.
    """
    n = L.n
    if n > _CANONICAL_FORM_MAX:
        raise SizeCapExceeded(
            f"canonical_form takes at most {_CANONICAL_FORM_MAX} elements, got {n}"
        )
    up, reach = _canonical_order(L._up)
    mul = min(_encode_relabeled_mul(L._mul, perm) for perm in reach)
    return bytes([n]) + _encode_leq(up, n) + mul


# -- stage one: bounded lattice orders --------------------------------------


def enumerate_bounded_lattices(n: int) -> list[OrderTable]:
    """All bounded lattice orders on ``n`` elements, one per isomorphism class.

    Elements are produced in a canonical labeling with bottom 0 and top
    n-1, in a deterministic order.  Raises :class:`SizeCapExceeded`
    above :data:`HARD_SIZE_CAP`.
    """
    _check_cap(n, HARD_SIZE_CAP)
    found: dict[bytes, tuple[int, ...]] = {}
    dmask = [1]  # dmask[i]: elements <= i, including i

    def place(k: int) -> None:
        if k == n:
            up = tuple(
                sum(1 << j for j in range(n) if dmask[j] >> i & 1) for i in range(n)
            )
            canon, _ = _canonical_order(up)
            found.setdefault(_encode_leq(canon, n), canon)
            return
        # Listing the elements by down-set size, ties in any order, gives a
        # linear extension, so every class has a labeling whose down-set
        # sizes never decrease, and only those are placed.  The placed
        # elements form a down-set of the final lattice, so they are closed
        # under meets: down(k) & down(i) is a placed down(j).  For i in d
        # this says that d, an odd mask (it holds the bottom), is
        # down-closed; the top lies above everything.
        least = dmask[-1].bit_count() - 1
        placed = set(dmask)
        for d in range((1 << k) - 1 if k == n - 1 else 1, 1 << k, 2):
            if d.bit_count() >= least and all(d & m in placed for m in dmask):
                dmask.append(d | 1 << k)
                place(k + 1)
                dmask.pop()

    place(1)
    orders = []
    for idx, canon in enumerate(sorted(found)):
        up = found[canon]
        facts = _order_facts(up)
        orders.append(
            OrderTable(f"U{n}_{idx}", n, up, facts.join, facts.meet, 0, n - 1)
        )
    return orders


def order_automorphisms(order: OrderTable) -> list[tuple[int, ...]]:
    """All relabelings of the order onto itself (they fix bottom and top).

    The order is canonical, so the relabelings that carry it to its
    canonical up-masks are exactly its automorphisms, the identity first.
    """
    return list(_canonical_order(order.up)[1])


# -- stage two: multiplication tables ---------------------------------------


def _mult_tables(order: OrderTable) -> list[Table]:
    """All axiom-satisfying multiplication tables on the order (raw search).

    Branches only on products of proper join-irreducible pairs, the
    elements with one lower cover in the order record; the rest is
    forced by distributivity, propagated over every incomparable pair of
    proper elements and its join, the top included.
    Monotonicity and associativity on join-irreducibles prune partial
    tables; a completed table is kept when every triple of
    join-irreducibles associates.  Monotonicity reads per-cell bounds:
    a value ``v`` is allowed at a cell when ``lo <= v <= hi``, ``lo``
    the join of the known entries at cells below it and ``hi`` the meet
    of those above, kept as the mask of that interval.  Setting a cell
    narrows the cells comparable to it, listed once per order, and each
    level of the search copies the masks and restores them on backtrack.
    This prunes exactly the branches that comparing the new entry with
    every known one would.  The full axiom check is left to
    :func:`enumerate_multiplications`.  Returns tables before
    automorphism dedup, in deterministic order.
    """
    n, B, T = order.n, order.bottom, order.top
    if B == T:
        return []  # a one-element structure collapses bottom and top
    join, meet, up = order.join, order.meet, order.up
    facts = _order_facts(up)
    down = facts.down
    mids = [i for i in range(n) if i not in (B, T)]
    jirr = _members(facts.jirr & ~(1 << T))

    # every incomparable pair of proper elements, with its join
    joins = [
        (join[u][v], u, v)
        for u, v in itertools.combinations(mids, 2)
        if not (up[u] >> v | up[v] >> u) & 1
    ]

    table: list[list[Optional[int]]] = [[None] * n for _ in range(n)]
    for x in range(n):
        table[x][B] = table[B][x] = B
        table[x][T] = table[T][x] = x

    free = list(itertools.combinations_with_replacement(jirr, 2))
    free.sort(key=lambda pq: (bin(down[meet[pq[0]][pq[1]]]).count("1"), pq))
    domains = [[v for v in range(n) if down[meet[p][q]] >> v & 1] for p, q in free]

    # associativity (p*q)*r == p*(q*r) over join-irreducibles; p < r suffices
    # by commutativity.  Each triple is first checked at the depth where
    # the later of p*q and q*r is chosen.
    depth = {pq: i for i, pq in enumerate(free)}
    checks: list[list[tuple[int, int, int]]] = [[] for _ in free]
    for q in jirr:
        for p, r in itertools.combinations(jirr, 2):
            at = max(depth[min(p, q), max(p, q)], depth[min(q, r), max(q, r)])
            checks[at].append((p, q, r))
    triples = [t for at in checks for t in at]

    # allowed[x*n+y], x <= y, masks the interval [lo, hi] of cell (x, y):
    # in a lattice up(a v b) = up(a) & up(b), so narrowing the mask by the
    # up-set of each known entry below and the down-set of each one above
    # leaves that interval.  (x, y) lies below (a, b) when x <= a and
    # y <= b, or x <= b and y <= a.
    cells = [x * n + y for x, y in itertools.combinations_with_replacement(mids, 2)]
    above: dict[int, list[int]] = {c: [] for c in cells}
    below: dict[int, list[int]] = {c: [] for c in cells}
    for c in cells:
        x, y = divmod(c, n)
        ux, uy = up[x], up[y]
        for d in cells:
            a, b = divmod(d, n)
            if (ux >> a & uy >> b | ux >> b & uy >> a) & 1:
                above[c].append(d)
                below[d].append(c)
    allowed = [(1 << n) - 1] * (n * n)
    assigned: list[tuple[int, int]] = []  # trail for undo

    def set_cell(x: int, y: int, v: int) -> bool:
        # only empty cells are set, always below the meet: a free domain
        # lies below it, and u*y v v*y <= (u /\ y) v (v /\ y) <= x /\ y
        if x > y:
            x, y = y, x
        c = x * n + y
        if not allowed[c] >> v & 1:
            return False
        uv, dv = up[v], down[v]
        for d in above[c]:
            allowed[d] &= uv
        for d in below[c]:
            allowed[d] &= dv
        table[x][y] = table[y][x] = v
        assigned.append((x, y))
        return True

    def propagate() -> bool:
        # x*y = u*y v v*y: the first known pair fills the cell, every other
        # pair checks it; for x = T the cell T*y = y is preset
        changed = True
        while changed:
            changed = False
            for x, u, v in joins:
                tu, tv, tx = table[u], table[v], table[x]
                for y in mids:
                    a, b = tu[y], tv[y]
                    if a is None or b is None:
                        continue
                    val = join[a][b]
                    cur = tx[y]
                    if cur is None:
                        if not set_cell(x, y, val):
                            return False
                        changed = True
                    elif cur != val:
                        return False
        return True

    def associative(group: list[tuple[int, int, int]]) -> bool:
        for p, q, r in group:
            left = table[table[p][q]][r]
            right = table[p][table[q][r]]
            if left != right and left is not None and right is not None:
                return False
        return True

    results: list[Table] = []

    def dfs(i: int) -> None:
        if i == len(free):
            if associative(triples):
                results.append(tuple(map(tuple, table)))
            return
        p, q = free[i]
        mark = len(assigned)
        saved = allowed[:]
        for v in domains[i]:
            if set_cell(p, q, v) and propagate() and associative(checks[i]):
                dfs(i + 1)
            while len(assigned) > mark:
                a, b = assigned.pop()
                table[a][b] = table[b][a] = None
            allowed[:] = saved

    dfs(0)
    return results


def _mult_reps(order: OrderTable) -> list[Table]:
    """One table per automorphism orbit, ordered by encoding.

    The representative of an orbit is its member with the least
    row-major encoding.
    """
    n = order.n
    autos = order_automorphisms(order)
    reps = {
        min(_encode_relabeled_mul(tab, perm) for perm in autos)
        for tab in _mult_tables(order)
    }
    return [
        tuple(tuple(key[i * n : (i + 1) * n]) for i in range(n)) for key in sorted(reps)
    ]


def enumerate_multiplications(order: OrderTable) -> list[FiniteMultLattice]:
    """All multiplicative lattices on the given order, up to isomorphism.

    Tables related by an automorphism of the order are the same lattice;
    one representative per orbit is returned, in deterministic order.
    Each goes through :meth:`FiniteMultLattice.from_tables`, the one full
    axiom check, which raises :class:`ValidationError` for a table the
    search got wrong.
    """
    return [
        FiniteMultLattice.from_tables(
            order.up, tab, order.bottom, order.top, name=f"{order.name}_{idx}"
        )
        for idx, tab in enumerate(_mult_reps(order))
    ]


# -- the universe and searches ----------------------------------------------

_UNIVERSE_CACHE: dict[int, tuple[FiniteMultLattice, ...]] = {}


def enumerated_universe(
    size_max: int, *, size_cap: int = DEFAULT_SIZE_CAP
) -> tuple[FiniteMultLattice, ...]:
    """Every multiplicative lattice with at most ``size_max`` elements.

    One lattice per isomorphism class, ordered by size then canonical
    form.  Results are cached per size.
    """
    _check_cap(size_max, size_cap)
    for n in range(1, size_max + 1):
        if n not in _UNIVERSE_CACHE:
            _UNIVERSE_CACHE[n] = tuple(
                L
                for order in enumerate_bounded_lattices(n)
                for L in enumerate_multiplications(order)
            )
    return tuple(L for n in range(1, size_max + 1) for L in _UNIVERSE_CACHE[n])


# Named predicates, each an expression in the grammar of _compile_predicate.
PREDICATES: dict[str, str] = {"not_cpr": "!cpr", "cq_dim_ge_2": "cq&dim>=2"}

_FLAG_ATOMS: dict[str, Callable[[ClassificationReport], bool]] = {
    "cpr": lambda r: r.is_cpr_lattice,
    "cq": lambda r: r.is_cq_lattice,
    "cpp": lambda r: r.is_cpp_lattice,
    "treed": lambda r: r.is_treed,
    "domain": lambda r: r.is_domain,
    "dedekind": lambda r: r.is_dedekind,
}


def _dimension_bound(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UnknownPredicate(
            f"unknown predicate {name!r} (dimension {text!r} is not an integer)"
        ) from None


def _compile_predicate(name: str) -> Callable[[ClassificationReport], bool]:
    """Compile a named predicate, a separation or a conjunction expression.

    General expressions join atoms with ``&``; an atom is a flag name
    (optionally negated with ``!``), ``dim=K`` or ``dim>=K``, e.g.
    ``cpr&!cq&!cpp``.  A named predicate stands for its expression in
    :data:`PREDICATES`, and a separation ``<flag>_not_<flag>`` for
    ``<flag>&!<flag>``.
    """
    expr = PREDICATES.get(name, name)
    has, sep, lacks = name.partition("_not_")
    if sep and has in _FLAG_ATOMS and lacks in _FLAG_ATOMS:
        expr = f"{has}&!{lacks}"
    conj: list[tuple[bool, Callable[[ClassificationReport], bool]]] = []
    for raw in expr.split("&"):
        atom = raw.strip()
        negate = atom.startswith("!")
        if negate:
            atom = atom[1:]
        if atom.startswith("dim>="):
            k = _dimension_bound(name, atom[5:])
            fn: Callable = lambda r, k=k: r.dimension >= k
        elif atom.startswith("dim="):
            k = _dimension_bound(name, atom[4:])
            fn = lambda r, k=k: r.dimension == k
        elif atom in _FLAG_ATOMS:
            fn = _FLAG_ATOMS[atom]
        else:
            raise UnknownPredicate(f"unknown predicate {name!r} (atom {atom!r})")
        conj.append((negate, fn))
    return lambda r: all(f(r) != negate for negate, f in conj)


def search(
    size_max: int,
    predicate: Optional[str] = None,
    *,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> list[tuple[FiniteMultLattice, ClassificationReport]]:
    """Matching lattices with their classification reports, deterministic order.

    A ``None`` predicate matches every lattice.  The predicate is compiled
    first, so an unknown one is reported before a size over the cap.
    """
    pred = None if predicate is None else _compile_predicate(predicate)
    out = []
    for L in enumerated_universe(size_max, size_cap=size_cap):
        rep = classify_lattice(L)
        if pred is None or pred(rep):
            out.append((L, rep))
    return out
