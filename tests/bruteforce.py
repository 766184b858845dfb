"""Independent brute-force twins used as test oracles.

Everything here is deliberately written from scratch against the plain
definitions (no reuse of the engine's search, propagation or
canonicalization), so that agreement between an engine result and its
twin is meaningful evidence.
"""

from __future__ import annotations

import itertools
import math

from comaxlat.core import FiniteMultLattice
from comaxlat.enumeration import OrderTable
from comaxlat.factorize import (
    FactorKind,
    Factorization,
    NoFactorization,
    TopElement,
    classify_lattice,
    factor,
)


def radical_by_nilpotents(L: FiniteMultLattice, a: int) -> int:
    """Join of all x some power of which lies below a (definitional form)."""
    members = []
    for x in range(L.n):
        p = x
        for _ in range(L.n + 1):
            if L.leq(p, a):
                members.append(x)
                break
            p = L.mul2(p, x)
    return L.join(members)


def is_prime_naive(L: FiniteMultLattice, p: int) -> bool:
    """p is proper and x*y <= p forces x <= p or y <= p."""
    return p != L.top and all(
        L.leq(x, p) or L.leq(y, p)
        for x in range(L.n)
        for y in range(L.n)
        if L.leq(L.mul2(x, y), p)
    )


def is_primary_naive(L: FiniteMultLattice, q: int) -> bool:
    """q is proper and x*y <= q forces x <= q or y <= rad(q)."""
    r = radical_by_nilpotents(L, q)
    return q != L.top and all(
        L.leq(x, q) or L.leq(y, r)
        for x in range(L.n)
        for y in range(L.n)
        if L.leq(L.mul2(x, y), q)
    )


def min_primes_naive(L: FiniteMultLattice, a: int) -> tuple[int, ...]:
    """The primes above a with no other prime between a and them."""
    above = [p for p in range(L.n) if is_prime_naive(L, p) and L.leq(a, p)]
    return tuple(
        p for p in above if not any(q != p and L.leq(q, p) for q in above)
    )


def dimension_naive(L: FiniteMultLattice) -> int:
    """The number of steps in a longest strict chain of primes."""
    primes = [p for p in range(L.n) if is_prime_naive(L, p)]

    def longest_from(p: int) -> int:
        return max(
            (1 + longest_from(q) for q in primes if q != p and L.leq(p, q)),
            default=0,
        )

    return max(longest_from(p) for p in primes)


def quotient_table_naive(L: FiniteMultLattice) -> tuple[tuple[int, ...], ...]:
    """quot[y][x] = the join of every a with a*x <= y."""
    n, mul, join, down = L.n, L._mul, L._join, L._down
    quot = [[L.bottom] * n for _ in range(n)]
    for y in range(n):
        uy = down[y]
        for x in range(n):
            best = L.bottom
            for a in range(n):
                if uy >> mul[a][x] & 1:
                    best = join[best][a]
            quot[y][x] = best
    return tuple(map(tuple, quot))


def meet_principal_naive(L: FiniteMultLattice, m: int) -> bool:
    """a /\\ b*m == ((a:m) /\\ b) * m for all a, b."""
    meet, mul, quot = L._meet, L._mul, L._quot
    return all(
        meet[a][mul[b][m]] == mul[meet[quot[a][m]][b]][m]
        for a in range(L.n)
        for b in range(L.n)
    )


def join_principal_naive(L: FiniteMultLattice, j: int) -> bool:
    """((a*j \\/ b) : j) == a \\/ (b:j) for all a, b."""
    join, mul, quot = L._join, L._mul, L._quot
    return all(
        quot[join[mul[a][j]][b]][j] == join[a][quot[b][j]]
        for a in range(L.n)
        for b in range(L.n)
    )


def count_bounded_lattices(n: int) -> int:
    """Poset-filter oracle: count bounded lattice orders up to isomorphism.

    Scans every strictly-upper-triangular relation on topologically
    labeled points, keeps the transitive ones that form a bounded
    lattice, and dedups by minimizing the full relation matrix over
    bound-preserving permutations.
    """
    if n == 1:
        return 1
    idx_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen: set[tuple] = set()
    for bits in range(1 << len(idx_pairs)):
        rel = [[False] * n for _ in range(n)]
        for k, (i, j) in enumerate(idx_pairs):
            if bits >> k & 1:
                rel[i][j] = True
        for i in range(n):
            rel[i][i] = True
        ok = True
        for i in range(n):
            for j in range(i + 1, n):
                if rel[i][j]:
                    for k in range(j + 1, n):
                        if rel[j][k] and not rel[i][k]:
                            ok = False
        if not ok:
            continue
        if not all(rel[0][j] for j in range(n)):
            continue
        if not all(rel[i][n - 1] for i in range(n)):
            continue
        if not _all_bounds_exist(rel, n):
            continue
        # canonicalize; a lattice isomorphism maps bounds to bounds
        best = None
        for mid in itertools.permutations(range(1, n - 1)):
            perm = (0,) + mid + (n - 1,)
            img = tuple(
                tuple(rel[_inv(perm, i)][_inv(perm, j)] for j in range(n))
                for i in range(n)
            )
            if best is None or img < best:
                best = img
        seen.add(best)
    return len(seen)


def _inv(perm, i):
    return perm.index(i)


def _all_bounds_exist(rel, n) -> bool:
    for i in range(n):
        for j in range(i + 1, n):
            ub = [k for k in range(n) if rel[i][k] and rel[j][k]]
            if not any(all(rel[u][w] for w in ub) for u in ub):
                return False
            lb = [k for k in range(n) if rel[k][i] and rel[k][j]]
            if not any(all(rel[w][u] for w in lb) for u in lb):
                return False
    return True


def _naive_cells(order: OrderTable):
    """The free products of the naive fill, each with its domain."""
    mids = [i for i in range(order.n) if i not in (order.bottom, order.top)]
    pairs = list(itertools.combinations_with_replacement(mids, 2))
    doms = [
        [v for v in range(order.n) if order.leq(v, order.meet[p][q])]
        for p, q in pairs
    ]
    return pairs, doms


def naive_space(order: OrderTable) -> int:
    """How many assignments :func:`naive_multiplications` tries."""
    return math.prod(len(dom) for dom in _naive_cells(order)[1])


def naive_multiplications(order: OrderTable) -> list[tuple[tuple[int, ...], ...]]:
    """Naive fill: try every assignment of the free products, scan all axioms."""
    n, B, T = order.n, order.bottom, order.top
    if B == T:
        return []
    pairs, doms = _naive_cells(order)
    out = []
    for choice in itertools.product(*doms):
        t = [[0] * n for _ in range(n)]
        for x in range(n):
            t[x][B] = t[B][x] = B
            t[x][T] = t[T][x] = x
        for (p, q), v in zip(pairs, choice):
            t[p][q] = t[q][p] = v
        if _naive_axioms_ok(t, order):
            out.append(tuple(map(tuple, t)))
    return out


def _naive_axioms_ok(t, order: OrderTable) -> bool:
    n = order.n
    join = order.join
    for x in range(n):
        for y in range(n):
            if t[x][y] != t[y][x]:
                return False
            for z in range(y, n):
                if t[t[x][y]][z] != t[x][t[y][z]]:
                    return False
                if t[x][join[y][z]] != join[t[x][y]][t[x][z]]:
                    return False
    return True


def first_axiom_failures_naive(mul, join, n: int):
    """The first associativity and the first distributivity failure.

    Returns ``(x, y, z)`` with ``(x*y)*z != x*(y*z)`` and ``(x, a, b)``
    with ``a <= b`` in index and ``x*(a v b) != x*a v x*b``, each the
    first in index order, or ``None`` where the axiom holds.
    """
    cube = list(itertools.product(range(n), repeat=3))
    assoc = next(
        ((x, y, z) for x, y, z in cube if mul[mul[x][y]][z] != mul[x][mul[y][z]]),
        None,
    )
    dist = next(
        (
            (x, a, b)
            for x, a, b in cube
            if a <= b and mul[x][join[a][b]] != join[mul[x][a]][mul[x][b]]
        ),
        None,
    )
    return assoc, dist


def count_iso_classes(order: OrderTable, tables) -> int:
    """Dedup tables under order automorphisms found by direct search."""
    n = order.n
    autos = [
        p
        for p in itertools.permutations(range(n))
        if all(
            order.leq(i, j) == order.leq(p[i], p[j])
            for i in range(n)
            for j in range(n)
        )
    ]
    classes = set()
    for t in tables:
        best = None
        for p in autos:
            inv = [0] * n
            for i, v in enumerate(p):
                inv[v] = i
            img = tuple(
                tuple(p[t[inv[i]][inv[j]]] for j in range(n)) for i in range(n)
            )
            if best is None or img < best:
                best = img
        classes.add(best)
    return len(classes)


def axioms_hold(L: FiniteMultLattice) -> bool:
    """Direct re-check of every multiplicative-lattice axiom on a lattice."""
    n = L.n
    if L.bottom == L.top:
        return False
    for x in range(n):
        if L.mul2(x, L.top) != x or L.mul2(x, L.bottom) != L.bottom:
            return False
        for y in range(n):
            if L.mul2(x, y) != L.mul2(y, x):
                return False
            for z in range(n):
                if L.mul2(L.mul2(x, y), z) != L.mul2(x, L.mul2(y, z)):
                    return False
                if L.mul2(x, L.join2(y, z)) != L.join2(L.mul2(x, y), L.mul2(x, z)):
                    return False
    return True


def canonical_form_by_all_relabelings(L: FiniteMultLattice) -> bytes:
    """Minimum of (n, order matrix, product matrix) over every relabeling.

    A relabeling sends the bottom to 0, the top to n-1 and the other
    elements to 1..n-2 in any of the (n-2)! ways.
    """
    n = L.n
    mids = [x for x in range(n) if x not in (L.bottom, L.top)]
    best = None
    for target in itertools.permutations(range(1, n - 1)):
        pos = {L.bottom: 0, L.top: n - 1, **dict(zip(mids, target))}
        src = {v: k for k, v in pos.items()}
        leq = bytes(L.leq(src[i], src[j]) for i in range(n) for j in range(n))
        mul = bytes(pos[L.mul2(src[i], src[j])] for i in range(n) for j in range(n))
        cand = bytes([n]) + leq + mul
        if best is None or cand < best:
            best = cand
    return best


# -- naive theorem-suite kernels ---------------------------------------------
# Earlier engine code kept as it was (apart from taking the lattice instead of
# the checker context): every tuple and every subset is visited, so the
# deduplicated and clique-walking kernels can be compared against them.


def lemma_comaximal_naive(L: FiniteMultLattice):
    for a in L.elements():
        for b in L.elements():
            c1 = L.comaximal(a, b)
            if c1 and (
                L.meet2(a, b) != L.mul2(a, b) or L.quotient(a, b) != a
            ):
                return True, False, (a, b)
            c2 = L.comaximal(L.radical(a), L.radical(b))
            powers = [
                L.comaximal(ai, bj)
                for ai in L.power_chain(a)
                for bj in L.power_chain(b)
            ]
            if not (c1 == c2 == all(powers) == any(powers)):
                return True, False, (a, b)
    for k in (2, 3):
        for a in L.elements():
            for cs in itertools.product(L.elements(), repeat=k):
                if all(L.comaximal(a, c) for c in cs) and not L.comaximal(
                    a, L.mul(cs)
                ):
                    return True, False, (a, *cs)
    return True, True, None


def lemma_formulas_naive(L: FiniteMultLattice):
    els = range(L.n)
    for b, c in itertools.product(els, repeat=2):
        seq = [L.quotient(b, ck) for ck in L.power_chain(c)]
        rhs = L.radical(L.join(seq))
        if L.quotient(L.radical(b), c) != rhs:
            return True, False, (b, c)
    for b1, c1, b2, c2 in itertools.product(els, repeat=4):
        k1 = [L.quotient(b1, ck) for ck in L.power_chain(c1)]
        k2 = [L.quotient(b2, ck) for ck in L.power_chain(c2)]
        kk = max(len(k1), len(k2))
        s1 = [k1[min(i, len(k1) - 1)] for i in range(kk)]
        s2 = [k2[min(i, len(k2) - 1)] for i in range(kk)]
        lhs = L.meet2(L.join(s1), L.join(s2))
        rhs = L.join(L.meet2(x, y) for x, y in zip(s1, s2))
        if lhs != rhs:
            return True, False, (b1, c1, b2, c2)
    return True, True, None


def thm_cpr_sufficiency_naive(L: FiniteMultLattice, gens: tuple[int, ...]):
    """The checker with hypothesis (2) scanned over every subset of the spectrum.

    Generation is tested from its definition; hypothesis (3) and the
    conclusion go through the public :func:`factor` and
    :func:`classify_lattice`.
    """
    if not all(
        L.join(g for g in gens if L.leq(g, x)) == x for x in L.elements()
    ):
        return False, None, None
    minimal = set(L.min_primes(L.bottom))
    hyp1 = all(
        sum(1 for m in L.max_elements() if L.leq(p, m)) < L.n + 1
        for p in L.spectrum()
        if p not in minimal
    )
    hyp2 = True
    spectrum = L.spectrum()
    for a in L.elements():
        if not hyp2:
            break
        for size in range(1, len(spectrum) + 1):
            if not hyp2:
                break
            for ps in itertools.combinations(spectrum, size):
                if all(not L.leq(a, p) for p in ps):
                    if not any(
                        L.leq(g, a) and all(not L.leq(g, p) for p in ps)
                        for g in gens
                    ):
                        hyp2 = False
                        break
    hyp3 = True
    for g in gens:
        for h in gens:
            if g != L.top and h != L.top:
                try:
                    factor(L, L.mul2(g, h), FactorKind.CPR)
                except NoFactorization:
                    hyp3 = False
    if not (hyp1 and hyp2 and hyp3):
        return False, None, None
    return True, classify_lattice(L).is_cpr_lattice, None


def comaximal_subsets_naive(L: FiniteMultLattice) -> list[tuple[int, ...]]:
    proper = L.proper_elements()
    out = []
    for size in range(1, len(proper) + 1):
        for sub in itertools.combinations(proper, size):
            if all(L.comaximal(p, q) for p, q in itertools.combinations(sub, 2)):
                out.append(sub)
    return out


def oracle_factorizations_naive(L: FiniteMultLattice, a: int, kind: FactorKind):
    if a == L.top:
        raise TopElement(f"{L.label(a)} admits no factorization")

    def condition(f: int) -> bool:
        if kind is FactorKind.CPR:
            return L.is_prime(L.radical(f))
        if kind is FactorKind.CQ:
            return L.is_primary(f)
        return L.prime_power_witness(f) is not None

    candidates = [f for f in L.proper_elements() if condition(f)]
    out = []
    for size in range(1, len(candidates) + 1):
        for subset in itertools.combinations(candidates, size):
            if all(
                L.comaximal(p, q) for p, q in itertools.combinations(subset, 2)
            ) and L.mul(subset) == a:
                out.append(Factorization(kind=kind, target=a, factors=subset))
    return out


def boolean_lattice(k: int) -> FiniteMultLattice:
    """The subsets of a k-set with meet as product; element i is the subset
    with bitmask i, so the bottom is 0 and the top is 2**k - 1."""
    n = 1 << k
    up = tuple(sum(1 << j for j in range(n) if i & j == i) for i in range(n))
    mul = [[i & j for j in range(n)] for i in range(n)]
    return FiniteMultLattice.from_tables(up, mul, 0, n - 1, name=f"B{n}")


def chain_lattice(n: int) -> FiniteMultLattice:
    """The n-element chain 0 < 1 < ... < n-1 with meet (minimum) as product;
    every proper element is prime."""
    up = tuple(((1 << n) - 1) & ~((1 << i) - 1) for i in range(n))
    mul = [[min(i, j) for j in range(n)] for i in range(n)]
    return FiniteMultLattice.from_tables(up, mul, 0, n - 1, name=f"C{n}")


def product_lattice(A: FiniteMultLattice, B: FiniteMultLattice) -> FiniteMultLattice:
    """The direct product A x B, ordered and multiplied componentwise;
    element a * B.n + b is the pair (a, b)."""
    pairs = [(a, b) for a in range(A.n) for b in range(B.n)]
    up = tuple(
        sum(
            1 << k
            for k, (c, d) in enumerate(pairs)
            if A.leq(a, c) and B.leq(b, d)
        )
        for a, b in pairs
    )
    mul = [
        [A.mul2(a, c) * B.n + B.mul2(b, d) for c, d in pairs] for a, b in pairs
    ]
    return FiniteMultLattice.from_tables(
        up,
        mul,
        A.bottom * B.n + B.bottom,
        A.top * B.n + B.top,
        name=f"{A.name}x{B.name}",
    )
