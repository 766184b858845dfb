"""Independent brute-force twins used as test oracles.

Everything here is deliberately written from scratch against the plain
definitions (no reuse of the engine's search, propagation or
canonicalization), so that agreement between an engine result and its
twin is meaningful evidence.
"""

from __future__ import annotations

import functools
import itertools
import json
import math

from comaxlat.core import FiniteMultLattice, LatticeSpec
from comaxlat.enumeration import OrderTable
from comaxlat.factorize import (
    FactorKind,
    Factorization,
    NoFactorization,
    TopElement,
    classify_lattice,
    factor,
)
from comaxlat.presets import preset


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


def weak_meet_principal_naive(L: FiniteMultLattice, m: int) -> bool:
    """a /\\ m == (a:m) * m for all a."""
    meet, mul, quot = L._meet, L._mul, L._quot
    return all(meet[a][m] == mul[quot[a][m]][m] for a in range(L.n))


def join_principal_naive(L: FiniteMultLattice, j: int) -> bool:
    """((a*j \\/ b) : j) == a \\/ (b:j) for all a, b."""
    join, mul, quot = L._join, L._mul, L._quot
    return all(
        quot[join[mul[a][j]][b]][j] == join[a][quot[b][j]]
        for a in range(L.n)
        for b in range(L.n)
    )


def weak_join_principal_naive(L: FiniteMultLattice, j: int) -> bool:
    """(a*j : j) == a \\/ (0:j) for all a."""
    join, mul, quot = L._join, L._mul, L._quot
    zero = quot[L.bottom][j]
    return all(quot[mul[a][j]][j] == join[a][zero] for a in range(L.n))


def generates_naive(L: FiniteMultLattice, gens) -> bool:
    """Every element is the join of the members of ``gens`` below it."""
    return all(L.join(g for g in gens if L.leq(g, x)) == x for x in L.elements())


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


def _middle_perms(n: int) -> list[tuple[int, ...]]:
    """All relabelings of 1..n-2 (as full permutations fixing 0 and n-1)."""
    if n <= 2:
        return [tuple(range(n))]
    return [
        (0,) + mid + (n - 1,) for mid in itertools.permutations(range(1, n - 1))
    ]


@functools.lru_cache(maxsize=1)
def _relabelings(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Each relabeling fixing 0 and n-1, with the weights that encode an order.

    Under ``perm`` element ``j`` moves to row and column ``perm[j]``.
    ``bits[j]`` and ``shifts[j]`` place that column and that row in one
    integer ordered like ``_leq_bytes`` (row 0, column 0 most
    significant).
    """
    out = []
    for perm in _middle_perms(n):
        rev = [n - 1 - k for k in perm]
        out.append((perm, tuple(1 << r for r in rev), tuple(n * r for r in rev)))
    return tuple(out)


def _leq_bytes(up: tuple[int, ...]) -> bytes:
    """The order matrix row by row, ``1`` where row ``i`` lies below column ``j``."""
    n = len(up)
    return bytes(up[i] >> j & 1 for i in range(n) for j in range(n))


def canonical_order_naive(
    up: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Twin of ``enumeration._canonical_order``: score all (n-2)! relabelings.

    Returns the relabeled up-masks whose ``_leq_bytes`` is least, and
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
    canon = [0] * n
    for i, row in enumerate(rows):
        canon[reach[0][i]] = sum(1 << reach[0][j] for j in row)
    return tuple(canon), reach


def bounded_lattice_orders_naive(n: int) -> list[tuple[int, ...]]:
    """Canonical up-masks of every bounded lattice order on ``n`` elements.

    Places every linear-extension labeling: element ``k`` goes above a
    down-closed set of the elements before it, closed under meets with
    them, and the top above all of them.  Each leaf is canonicalized
    with ``canonical_order_naive``.  Sorted by ``_leq_bytes``.
    """
    found: dict[bytes, tuple[int, ...]] = {}
    dmask = [1]  # dmask[i]: elements <= i, including i

    def place(k: int) -> None:
        if k == n:
            up = tuple(
                sum(1 << j for j in range(n) if dmask[j] >> i & 1) for i in range(n)
            )
            canon, _ = canonical_order_naive(up)
            found.setdefault(_leq_bytes(canon), canon)
            return
        if k == n - 1:
            choices = [(1 << k) - 1]
        else:
            base = (1 << k) - 2  # bits 1..k-1 are optional, bit 0 mandatory
            placed = set(dmask)
            choices = []
            sub = base
            while True:
                d = sub | 1
                if all(d & m in placed for m in dmask):
                    choices.append(d)
                if sub == 0:
                    break
                sub = (sub - 1) & base
        for d in choices:
            dmask.append(d | 1 << k)
            place(k + 1)
            dmask.pop()

    place(1)
    return [found[key] for key in sorted(found)]


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


def order_automorphisms_naive(order: OrderTable) -> list[tuple[int, ...]]:
    """Every permutation preserving the order, in lexicographic order."""
    n = order.n
    return [
        p
        for p in itertools.permutations(range(n))
        if all(
            order.leq(i, j) == order.leq(p[i], p[j])
            for i in range(n)
            for j in range(n)
        )
    ]


def count_iso_classes(order: OrderTable, tables) -> int:
    """Dedup tables under order automorphisms found by direct search."""
    n = order.n
    autos = order_automorphisms_naive(order)
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
# deduplicated and clique-walking kernels can be compared against them.  Each
# twin of a checker is named after its theorem id and takes the generating
# set as a tuple of elements; the ones whose statement has no generators
# ignore it.


def lemma_comaximal_naive(L: FiniteMultLattice, gens=()):
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
    # the tuples come from the elements comaximal to a, which is the
    # hypothesis applied first: the passing tuples keep their order
    for k in (2, 3):
        for a in L.elements():
            comax = [c for c in L.elements() if L.comaximal(a, c)]
            for cs in itertools.product(comax, repeat=k):
                if not L.comaximal(a, L.mul(cs)):
                    return True, False, (a, *cs)
    return True, True, None


def lemma_formulas_naive(L: FiniteMultLattice, gens=()):
    """Both join formulas over every (b, c) and every (b1, c1, b2, c2).

    A comparison of part (i) reads the two sequences (b1 : c1^k) and
    (b2 : c2^k) and nothing else, so its outcome is kept per pair of
    sequences; every 4-tuple is still visited in index order.
    """
    els = range(L.n)
    seqs = {}
    for b, c in itertools.product(els, repeat=2):
        seq = seqs[b, c] = tuple(L.quotient(b, ck) for ck in L.power_chain(c))
        rhs = L.radical(L.join(seq))
        if L.quotient(L.radical(b), c) != rhs:
            return True, False, (b, c)
    holds = {}
    for (b1, c1), (b2, c2) in itertools.product(seqs, repeat=2):
        k1, k2 = seqs[b1, c1], seqs[b2, c2]
        if (k1, k2) not in holds:
            kk = max(len(k1), len(k2))
            s1 = [k1[min(i, len(k1) - 1)] for i in range(kk)]
            s2 = [k2[min(i, len(k2) - 1)] for i in range(kk)]
            lhs = L.meet2(L.join(s1), L.join(s2))
            rhs = L.join(L.meet2(x, y) for x, y in zip(s1, s2))
            holds[k1, k2] = lhs == rhs
        if not holds[k1, k2]:
            return True, False, (b1, c1, b2, c2)
    return True, True, None


def thm_cpr_sufficiency_naive(L: FiniteMultLattice, gens: tuple[int, ...]):
    """The checker with hypothesis (2) scanned over every subset of the spectrum.

    Generation is tested from its definition; hypothesis (3) and the
    conclusion go through the public :func:`factor` and
    :func:`classify_lattice`.
    """
    if not generates_naive(L, gens):
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


def factor_kinds_naive(L: FiniteMultLattice) -> dict[FactorKind, int]:
    """For each kind, the bitmask of proper elements that factor with it.

    One public prime-radical :func:`factor` per element; the stronger
    kinds are decided on its factors with the public predicates.
    """
    masks = {kind: 0 for kind in FactorKind}
    for a in L.proper_elements():
        try:
            factors = factor(L, a, FactorKind.CPR).factors
        except NoFactorization:
            continue
        masks[FactorKind.CPR] |= 1 << a
        if all(L.is_primary(f) for f in factors):
            masks[FactorKind.CQ] |= 1 << a
        if all(L.prime_power_witness(f) is not None for f in factors):
            masks[FactorKind.CPP] |= 1 << a
    return masks


def thm_unique_lift_naive(L: FiniteMultLattice, gens=()):
    """Every comaximal decomposition lifts uniquely through the radical.

    For each pairwise comaximal set of proper parts with product a: if a
    is radical, so is every part; and for each b with a's radical, in
    index order, the tuples above b with the parts' radicals that are
    pairwise comaximal and multiply to b must be exactly the lift, whose
    i-th entry is the join of the (b : c**k), c the product of the other
    parts.
    """
    for parts in comaximal_subsets_naive(L):
        a = L.mul(parts)
        ra = L.radical(a)
        rads = [L.radical(p) for p in parts]
        if a == ra and any(p != r for p, r in zip(parts, rads)):
            return True, False, parts
        cofactors = [L.mul(parts[:i] + parts[i + 1:]) for i in range(len(parts))]
        for b in L.elements():
            if L.radical(b) != ra:
                continue
            lift = tuple(
                L.join(L.quotient(b, ck) for ck in L.power_chain(c))
                for c in cofactors
            )
            candidates = [
                [d for d in L.elements() if L.radical(d) == r and L.leq(b, d)]
                for r in rads
            ]
            matches = [
                tup
                for tup in itertools.product(*candidates)
                if L.mul(tup) == b
                and all(L.comaximal(x, y) for x, y in itertools.combinations(tup, 2))
            ]
            if matches != [lift]:
                return True, False, (b, *parts)
    return True, True, None


def thm_cpr_criterion_naive(L: FiniteMultLattice, gens=()):
    """An element has a prime-radical factorization iff its minimal primes
    are pairwise comaximal, and then only one; every element has one iff
    the lattice is treed.

    The factorizations come from :func:`oracle_factorizations_naive` and
    from the public :func:`factor`; the lattice flag from
    :func:`classify_lattice`.
    """
    for a in L.proper_elements():
        found = oracle_factorizations_naive(L, a, FactorKind.CPR)
        mins = L.min_primes(a)
        comax = all(L.comaximal(p, q) for p, q in itertools.combinations(mins, 2))
        try:
            factor(L, a, FactorKind.CPR)
            factors = True
        except NoFactorization:
            factors = False
        if len(found) > 1 or (len(found) == 1) != comax or factors != comax:
            return True, False, (a,)
    if classify_lattice(L).is_cpr_lattice != L.lattice_profile().is_treed:
        return True, False, None
    return True, True, None


def thm_cq_characterization_naive(L: FiniteMultLattice, gens=()):
    """Every proper element has exactly one primary factorization iff the
    lattice is a CPR lattice whose elements with prime radical are primary."""
    lhs = all(
        len(oracle_factorizations_naive(L, a, FactorKind.CQ)) == 1
        for a in L.proper_elements()
    )
    rhs = classify_lattice(L).is_cpr_lattice and all(
        L.is_primary(a) for a in L.proper_elements() if L.is_prime(L.radical(a))
    )
    return True, lhs == rhs, None


# In the twins below, factorizations come from the subset scan of
# oracle_factorizations_naive, primes, minimal primes and the dimension
# from the naive twins above.


def treed_naive(L: FiniteMultLattice) -> bool:
    """The primes below each prime form a chain."""
    primes = [p for p in L.elements() if is_prime_naive(L, p)]
    return all(
        L.leq(p, q) or L.leq(q, p)
        for m in primes
        for p, q in itertools.combinations([p for p in primes if L.leq(p, m)], 2)
    )


def _factors_naive(L: FiniteMultLattice, a: int, kind: FactorKind) -> bool:
    """Whether ``a`` is proper and has a factorization of ``kind``."""
    return a != L.top and bool(oracle_factorizations_naive(L, a, kind))


def _generator_products_factor_naive(
    L: FiniteMultLattice, gens, kind: FactorKind = FactorKind.CPR
) -> bool:
    """Every product of two proper generators has a factorization of ``kind``,
    by default a prime-radical one."""
    proper = [g for g in gens if g != L.top]
    return all(_factors_naive(L, L.mul2(g, h), kind) for g in proper for h in proper)


def cor_closure_naive(L: FiniteMultLattice, gens=()):
    """In a treed lattice the proper elements with a prime-radical
    factorization are closed under products, binary meets and binary
    joins (the top aside), and the minimal primes of each combination lie
    among those of its two arguments.  The witness is ``(x, y, combo)``,
    the first pair ``x <= y`` in index order, then product, meet, join."""
    if not treed_naive(L):
        return False, None, None
    factorable = [
        a for a in L.proper_elements() if _factors_naive(L, a, FactorKind.CPR)
    ]
    mins = [set(min_primes_naive(L, a)) for a in L.elements()]
    for x, y in itertools.combinations_with_replacement(factorable, 2):
        for combo in (L.mul2(x, y), L.meet2(x, y), L.join2(x, y)):
            if not mins[combo] <= mins[x] | mins[y]:
                return True, False, (x, y, combo)
            if combo != L.top and combo not in factorable:
                return True, False, (x, y, combo)
    return True, True, None


def thm_treed_from_generators_naive(L: FiniteMultLattice, gens):
    """If the generators generate and every product of two proper ones has
    a prime-radical factorization, the lattice is treed."""
    if not (generates_naive(L, gens) and _generator_products_factor_naive(L, gens)):
        return False, None, None
    return True, treed_naive(L), None


def cor_compact_equivalences_naive(L: FiniteMultLattice, gens):
    """For a generating set, four conditions agree: (1) every proper element
    has a prime-radical factorization; (2) every product of two proper
    generators has one; (3) the lattice is treed and every element has
    finitely many minimal primes; (4) it is treed and every generator has
    finitely many minimal primes."""
    if not generates_naive(L, gens):
        return False, None, None
    c1 = all(_factors_naive(L, a, FactorKind.CPR) for a in L.proper_elements())
    c2 = _generator_products_factor_naive(L, gens)
    treed = treed_naive(L)
    c3 = treed and all(len(min_primes_naive(L, a)) <= L.n for a in L.elements())
    c4 = treed and all(len(min_primes_naive(L, g)) <= L.n for g in gens)
    return True, c1 == c2 == c3 == c4, None


def lemma_cq_sufficient_naive(L: FiniteMultLattice, gens=()):
    """In a domain of dimension one every proper element has a primary
    factorization."""
    if not (is_prime_naive(L, L.bottom) and dimension_naive(L) == 1):
        return False, None, None
    cq = all(_factors_naive(L, a, FactorKind.CQ) for a in L.proper_elements())
    return True, cq, None


# Twins of the five checkers whose hypotheses hold on the 2-chain at most
# (see their docstrings).  Each hypothesis is decided from its definition:
# the domain by a prime bottom, principality by its two identities over all
# pairs, generation by joins, quotients by the join of every a with
# a*x <= y, and products of primes by multiplying primes.


def domain_naive(L: FiniteMultLattice) -> bool:
    """The bottom is prime."""
    return is_prime_naive(L, L.bottom)


def principal_naive(L: FiniteMultLattice, x: int) -> bool:
    """x is meet-principal and join-principal."""
    return meet_principal_naive(L, x) and join_principal_naive(L, x)


def products_of_primes_naive(L: FiniteMultLattice) -> set[int]:
    """The products of finitely many primes, the empty product (the top)
    included.  A shortest product has strictly decreasing partial
    products, so products of at most n - 1 primes are all of them."""
    primes = [p for p in L.elements() if is_prime_naive(L, p)]
    products = {L.top}
    for _ in range(L.n - 1):
        products |= {L.mul2(x, p) for x in products for p in primes}
    return products


def dedekind_naive(L: FiniteMultLattice) -> bool:
    """A domain generated by its principal elements in which every element
    is a finite product of primes."""
    principal = [x for x in L.elements() if principal_naive(L, x)]
    return (
        domain_naive(L)
        and generates_naive(L, principal)
        and products_of_primes_naive(L) == set(L.elements())
    )


def _all_factor_naive(L: FiniteMultLattice, kind: FactorKind) -> bool:
    """Every proper element has a factorization of ``kind``."""
    return all(_factors_naive(L, a, kind) for a in L.proper_elements())


def cor_cq_dimension_naive(L: FiniteMultLattice, gens=()):
    """A domain of more than two elements generated by its join-principal
    elements has a primary factorization for every proper element iff its
    dimension is one."""
    join_principal = [j for j in L.elements() if join_principal_naive(L, j)]
    if not (domain_naive(L) and L.n > 2 and generates_naive(L, join_principal)):
        return False, None, None
    return True, _all_factor_naive(L, FactorKind.CQ) == (dimension_naive(L) == 1), None


def thm_cq_generators_naive(L: FiniteMultLattice, gens):
    """For a domain of more than two elements generated by ``gens``, with
    (a*b : a) below the radical of b for all nonzero generators a and b,
    three statements agree: every product of two proper generators has a
    primary factorization, the dimension is one, and every proper element
    has a primary factorization."""
    nonzero = [g for g in gens if g != L.bottom]
    if not (
        domain_naive(L)
        and L.n > 2
        and generates_naive(L, gens)
        and all(
            L.leq(quotient_table_naive(L)[L.mul2(a, b)][a], radical_by_nilpotents(L, b))
            for a in nonzero
            for b in nonzero
        )
    ):
        return False, None, None
    c1 = _generator_products_factor_naive(L, gens, FactorKind.CQ)
    c2 = dimension_naive(L) == 1
    c3 = _all_factor_naive(L, FactorKind.CQ)
    return True, c1 == c2 == c3, None


def lemma_prime_principal_naive(L: FiniteMultLattice, gens=()):
    """A domain generated by its principal elements, whose primes are all
    principal, has every element a finite product of primes."""
    principal = [x for x in L.elements() if principal_naive(L, x)]
    primes = [p for p in L.elements() if is_prime_naive(L, p)]
    if not (
        domain_naive(L)
        and generates_naive(L, principal)
        and set(primes) <= set(principal)
    ):
        return False, None, None
    return True, products_of_primes_naive(L) == set(L.elements()), None


def thm_dedekind_naive(L: FiniteMultLattice, gens=()):
    """For a domain generated by its principal elements: every element is a
    finite product of primes iff every principal element other than the
    bounds has a prime-power factorization."""
    principal = [x for x in L.elements() if principal_naive(L, x)]
    if not (domain_naive(L) and generates_naive(L, principal)):
        return False, None, None
    lhs = products_of_primes_naive(L) == set(L.elements())
    rhs = all(
        _factors_naive(L, a, FactorKind.CPP)
        for a in principal
        if a not in (L.bottom, L.top)
    )
    return True, lhs == rhs, None


def dedekind_dim1_naive(L: FiniteMultLattice, gens=()):
    """A domain generated by principal elements in which every element is a
    finite product of primes has dimension at most one."""
    if not dedekind_naive(L):
        return False, None, None
    return True, dimension_naive(L) <= 1, None


def boolean_lattice(k: int) -> FiniteMultLattice:
    """The subsets of a k-set with meet as product; element i is the subset
    with bitmask i, so the bottom is 0 and the top is 2**k - 1."""
    n = 1 << k
    up = tuple(sum(1 << j for j in range(n) if i & j == i) for i in range(n))
    mul = [[i & j for j in range(n)] for i in range(n)]
    return FiniteMultLattice.from_tables(up, mul, 0, n - 1, name=f"B{n}")


def adjoin_bottom(L: FiniteMultLattice) -> FiniteMultLattice:
    """L with a new absorbing bottom below it: index 0, old index i at i + 1.

    Every product of old elements stays at or above L's bottom, so the
    result is a domain.  Every domain is one of these: the product of its
    nonzero elements is nonzero and lies below each of them, so they form
    a lattice L with a bottom of its own.
    """
    n = L.n + 1
    up = ((1 << n) - 1,) + tuple(
        sum(1 << b + 1 for b in range(L.n) if L.leq(a, b)) for a in range(L.n)
    )
    mul = [[0] * n] + [
        [0] + [L.mul2(a, b) + 1 for b in range(L.n)] for a in range(L.n)
    ]
    return FiniteMultLattice.from_tables(up, mul, 0, L.top + 1, name=f"0+{L.name}")


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


def larger_lattices() -> list[FiniteMultLattice]:
    """Shapes and products larger than anything the tier-1 universe holds."""
    L1, L3, E16 = preset("L1"), preset("L3"), preset("E16")
    return [
        boolean_lattice(4),
        chain_lattice(8),
        product_lattice(L1, L3),
        product_lattice(E16, chain_lattice(3)),
        product_lattice(boolean_lattice(2), L3),
    ]

def serialize_spec_naive(spec: LatticeSpec) -> str:
    """Lattice-file text through the JSON encoder, the layout the writer follows."""
    index = {lab: i for i, lab in enumerate(spec.elements)}
    doc: dict = {"name": spec.name, "elements": list(spec.elements)}
    if spec.bottom != "0":
        doc["bottom"] = spec.bottom
    if spec.top != "1":
        doc["top"] = spec.top
    doc["leq"] = [
        list(p) for p in sorted(spec.order_pairs, key=lambda p: (index[p[0]], index[p[1]]))
    ]
    doc["mul"] = {
        f"{x} {y}": spec.mul_entries[(x, y)]
        for x, y in sorted(spec.mul_entries, key=lambda k: (index[k[0]], index[k[1]]))
    }
    return json.dumps(doc, indent=2) + "\n"
