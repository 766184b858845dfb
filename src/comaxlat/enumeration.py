"""Exhaustive enumeration of small multiplicative lattices.

Two stages: generate all bounded lattice orders on ``n`` unlabeled
elements (one per isomorphism class), then for each order generate all
multiplication tables satisfying the axioms, up to order-automorphism.

Isomorphism classes are identified by a canonical byte form minimized
over relabelings that fix the bottom and the top (an order isomorphism
always maps bounds to bounds, so nothing is lost).  The order bytes
come first in that form, so only the relabelings that carry the order
to its canonical up-masks can reach the minimum.  One helper,
``_canonical_order``, computes those up-masks together with the
relabelings that reach them, once per labeled order; the order stage,
the automorphism dedup and :func:`canonical_form` all use it.

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
  entry above it, tested with bitmask up- and down-sets;
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

The per-order searches are independent, so the work may be partitioned
across worker processes; results are merged in a fixed sorted order and
are byte-identical for any worker count.
"""

from __future__ import annotations

import functools
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

from .core import (
    Elt,
    FiniteMultLattice,
    LatticeError,
    _order_facts,
    multiplication_violations,  # unused here; perfbench/tracing.py wraps it by name
    order_tables,
)
from .factorize import ClassificationReport, classify_lattice

__all__ = [
    "DEFAULT_SIZE_CAP",
    "HARD_SIZE_CAP",
    "SizeCapExceeded",
    "UnknownPredicate",
    "OrderTable",
    "SearchQuery",
    "enumerate_bounded_lattices",
    "enumerate_multiplications",
    "enumerated_universe",
    "canonical_form",
    "search",
    "PREDICATES",
]

DEFAULT_SIZE_CAP = 6
HARD_SIZE_CAP = 7

Table = tuple[tuple[int, ...], ...]


class SizeCapExceeded(LatticeError):
    """Requested size is above the configured cap."""


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


def _check_cap(n: int, size_cap: int) -> None:
    if n < 1:
        raise ValueError("size must be at least 1")
    if n > min(size_cap, HARD_SIZE_CAP):
        raise SizeCapExceeded(
            f"size {n} exceeds the cap {min(size_cap, HARD_SIZE_CAP)}"
        )


def _encode_leq(up: tuple[int, ...], n: int) -> bytes:
    return bytes(up[i] >> j & 1 for i in range(n) for j in range(n))


def _encode_relabeled_mul(mul: Table, perm: tuple[int, ...]) -> bytes:
    """Row-major bytes of the product table after relabeling ``i`` as ``perm[i]``."""
    src = sorted(range(len(perm)), key=perm.__getitem__)
    return bytes(perm[mul[a][b]] for a in src for b in src)


def _middle_perms(n: int) -> list[tuple[int, ...]]:
    """All relabelings of 1..n-2 (as full permutations fixing 0 and n-1)."""
    if n <= 2:
        return [tuple(range(n))]
    return [
        (0,) + mid + (n - 1,) for mid in itertools.permutations(range(1, n - 1))
    ]


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


@functools.lru_cache(maxsize=None)
def _relabelings(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Each relabeling fixing 0 and n-1, with the weights that encode an order.

    Under ``perm`` element ``j`` moves to row and column ``perm[j]``.
    ``bits[j]`` and ``shifts[j]`` place that column and that row in one
    integer ordered like ``_encode_leq`` (row 0, column 0 most
    significant).
    """
    out = []
    for perm in _middle_perms(n):
        rev = [n - 1 - k for k in perm]
        out.append((perm, tuple(1 << r for r in rev), tuple(n * r for r in rev)))
    return tuple(out)


@functools.lru_cache(maxsize=4096)
def _canonical_order(
    up: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Canonical up-masks of an order with bottom 0 and top n-1.

    Returns the relabeled up-masks whose ``_encode_leq`` is least, and
    every relabeling fixing 0 and n-1 that produces them, in
    ``_middle_perms`` order.
    """
    n = len(up)
    rows = [[j for j in range(n) if up[i] >> j & 1] for i in range(n)]
    keys = {}
    for perm, bits, shifts in _relabelings(n):
        key = 0
        for i, row in enumerate(rows):
            img = 0
            for j in row:
                img |= bits[j]
            key |= img << shifts[i]
        keys[perm] = key
    best = min(keys.values())
    reach = tuple(perm for perm, key in keys.items() if key == best)
    return _permute_up(up, reach[0], n), reach


def canonical_form(L: FiniteMultLattice) -> bytes:
    """Canonical byte encoding of a multiplicative lattice.

    Two lattices get the same form exactly when some bijection preserves
    both the order and the product.  The form is the minimum, over all
    relabelings sending the bottom to 0 and the top to n-1, of the
    concatenated order and product tables.
    """
    n = L.n
    # move the bounds to 0 and n-1, keeping the other elements in order
    mids = [i for i in range(n) if i not in (L.bottom, L.top)]
    bounds_out = [0] * n
    bounds_out[L.top] = n - 1
    for k, x in enumerate(mids, start=1):
        bounds_out[x] = k
    up, reach = _canonical_order(_permute_up(L._up, tuple(bounds_out), n))
    mul = min(
        _encode_relabeled_mul(L._mul, tuple(perm[k] for k in bounds_out))
        for perm in reach
    )
    return bytes([n]) + _encode_leq(up, n) + mul


# -- stage one: bounded lattice orders --------------------------------------


def enumerate_bounded_lattices(
    n: int, *, size_cap: int = DEFAULT_SIZE_CAP
) -> list[OrderTable]:
    """All bounded lattice orders on ``n`` elements, one per isomorphism class.

    Elements are produced in a canonical labeling with bottom 0 and top
    n-1, in a deterministic order.  Raises :class:`SizeCapExceeded`
    above the cap.
    """
    _check_cap(n, size_cap)
    found: dict[bytes, tuple[int, ...]] = {}
    dmask = [1]  # dmask[i]: elements <= i, including i

    def place(k: int) -> None:
        if k == n:
            up = tuple(
                sum(1 << j for j in range(n) if dmask[j] >> i & 1) for i in range(n)
            )
            # Not the per-order memo behind from_tables: each labeled order is
            # checked here once and never again (at size 8, 3,637 labeled
            # lattice orders reduce to 222 canonical ones), so memoizing
            # them would only fill the memo.
            join, meet, missing = order_tables(up, n)
            if missing is not None:
                return
            canon, _ = _canonical_order(up)
            found.setdefault(_encode_leq(canon, n), canon)
            return
        if k == n - 1:
            choices = [(1 << k) - 1]  # top lies above everything
        else:
            base = (1 << k) - 2  # bits 1..k-1 are optional, bit 0 mandatory
            choices = []
            sub = base
            while True:
                d = sub | 1
                if all(not d >> i & 1 or dmask[i] | d == d for i in range(1, k)):
                    choices.append(d)
                if sub == 0:
                    break
                sub = (sub - 1) & base
        for d in choices:
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
    """All relabelings of the order onto itself (they fix bottom and top)."""
    _, reach = _canonical_order(order.up)
    # p and reach[0] carry the order to the same up-masks, so reach[0]^-1 . p
    # fixes it; for a canonical order reach[0] is the identity.
    back = sorted(range(order.n), key=reach[0].__getitem__)
    return [tuple(back[k] for k in perm) for perm in reach]


# -- stage two: multiplication tables ---------------------------------------


def _mult_tables(order: OrderTable) -> list[Table]:
    """All axiom-satisfying multiplication tables on the order (raw search).

    Branches only on products of proper join-irreducible pairs; the
    rest is forced by distributivity, propagated over every incomparable
    pair of proper elements and its join, the top included.
    Monotonicity and associativity on join-irreducibles prune partial
    tables; a completed table is kept when every triple of
    join-irreducibles associates.  The full axiom check is left to
    :func:`enumerate_multiplications`.  Returns tables before
    automorphism dedup, in deterministic order.
    """
    n, B, T = order.n, order.bottom, order.top
    if B == T:
        return []  # a one-element structure collapses bottom and top
    join, meet, up = order.join, order.meet, order.up
    down = _order_facts(up).down
    mids = [i for i in range(n) if i not in (B, T)]

    # every incomparable pair of proper elements, with its join; an
    # element is join-irreducible exactly when no such pair joins to it
    joins = [
        (join[u][v], u, v)
        for u, v in itertools.combinations(mids, 2)
        if not (up[u] >> v | up[v] >> u) & 1
    ]
    reducible = {x for x, _, _ in joins}
    jirr = [x for x in mids if x not in reducible]

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

    assigned: list[tuple[int, int, int]] = []  # trail for undo, (x, y, x*y)

    def set_cell(x: int, y: int, v: int) -> bool:
        if x > y:
            x, y = y, x
        cur = table[x][y]
        if cur is not None:
            return cur == v
        if not down[meet[x][y]] >> v & 1:
            return False
        # monotonicity against already-known cells
        dx, dy, ux, uy = down[x], down[y], up[x], up[y]
        dv, uv = down[v], up[v]
        for a, b, w in assigned:
            if (dx >> a & dy >> b | dx >> b & dy >> a) & 1 and not dv >> w & 1:
                return False
            if (ux >> a & uy >> b | ux >> b & uy >> a) & 1 and not uv >> w & 1:
                return False
        table[x][y] = table[y][x] = v
        assigned.append((x, y, v))
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
        for v in domains[i]:
            if set_cell(p, q, v) and propagate() and associative(checks[i]):
                dfs(i + 1)
            while len(assigned) > mark:
                a, b, _ = assigned.pop()
                table[a][b] = table[b][a] = None

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


def _lattice(order: OrderTable, mul: Table, idx: int) -> FiniteMultLattice:
    return FiniteMultLattice.from_tables(
        order.up,
        mul,
        order.bottom,
        order.top,
        name=f"{order.name}_{idx}",
    )


def enumerate_multiplications(order: OrderTable) -> list[FiniteMultLattice]:
    """All multiplicative lattices on the given order, up to isomorphism.

    Tables related by an automorphism of the order are the same lattice;
    one representative per orbit is returned, in deterministic order.
    Each goes through :meth:`FiniteMultLattice.from_tables`, the one full
    axiom check, which raises :class:`ValidationError` for a table the
    search got wrong.
    """
    return [_lattice(order, tab, idx) for idx, tab in enumerate(_mult_reps(order))]


# -- the universe and searches ----------------------------------------------

_UNIVERSE_CACHE: dict[int, tuple[FiniteMultLattice, ...]] = {}


def enumerated_universe(
    size_max: int, *, size_cap: int = DEFAULT_SIZE_CAP, workers: int = 1
) -> tuple[FiniteMultLattice, ...]:
    """Every multiplicative lattice with at most ``size_max`` elements.

    One lattice per isomorphism class, ordered by size then canonical
    form.  Results are cached per size and identical for any worker
    count.  The orders of all uncached sizes share one worker pool.
    """
    _check_cap(size_max, size_cap)
    sizes = [n for n in range(1, size_max + 1) if n not in _UNIVERSE_CACHE]
    orders = [
        order
        for n in sizes
        for order in enumerate_bounded_lattices(n, size_cap=HARD_SIZE_CAP)
    ]
    if workers > 1 and len(orders) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(orders))) as pool:
            per_order = list(pool.map(_mult_reps, orders))
    else:
        per_order = [_mult_reps(order) for order in orders]
    found = [
        _lattice(order, tab, idx)
        for order, tabs in zip(orders, per_order)
        for idx, tab in enumerate(tabs)
    ]
    for n in sizes:
        _UNIVERSE_CACHE[n] = tuple(L for L in found if L.n == n)
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


@dataclass(frozen=True)
class SearchQuery:
    """A scan of the enumerated universe for lattices matching a predicate.

    A ``None`` predicate matches every lattice.
    """

    size_max: int
    predicate: Optional[str]
    limit: Optional[int] = None
    allow_size_7: bool = False


def search(
    query: SearchQuery, *, workers: int = 1
) -> list[tuple[FiniteMultLattice, ClassificationReport]]:
    """Matching lattices with their classification reports, deterministic order."""
    cap = HARD_SIZE_CAP if query.allow_size_7 else DEFAULT_SIZE_CAP
    pred = None if query.predicate is None else _compile_predicate(query.predicate)
    out = []
    for L in enumerated_universe(query.size_max, size_cap=cap, workers=workers):
        rep = classify_lattice(L)
        if pred is None or pred(rep):
            out.append((L, rep))
            if query.limit is not None and len(out) >= query.limit:
                break
    return out
