"""Finite Abelian groups given by addition tables, and exact counting of
solutions to linear systems over Z_d.

The group side is deliberately small: orders here never exceed the domain
size of a weight function, so everything is table-driven. Every group law
is still proved on the table, but with checks that need only a generating
set: associativity by Light's test (O(m^2 log m) lookups for a group of
order m), the coordinate map of a decomposition on its basis (O(m * t)).
The counting side has to scale to instances with 10^5 scopes, so
count_homs and count_solutions_mod share one sparse routine: per prime
power of the modulus it tracks the solution set (a particular solution and
kernel generators) row by row, in O(nonzeros x fill), and builds no dense
matrix.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .exactcore import IntMatrix
from .model import Instance

__all__ = [
    "AbelianGroup",
    "CyclicDecomposition",
    "decompose",
    "first_nonassociative",
    "count_solutions_mod",
    "count_homs",
]


@dataclass(frozen=True, eq=False)
class AbelianGroup:
    """Abelian group on {0..order-1} with an explicit addition table."""

    order: int
    add_table: tuple[tuple[int, ...], ...]
    zero: int
    neg_table: tuple[int, ...]

    @staticmethod
    def from_add_table(table: Sequence[Sequence[int]]) -> "AbelianGroup":
        n = len(table)
        rows = tuple(tuple(row) for row in table)
        if any(len(row) != n for row in rows):
            raise ValueError("addition table is not square")
        if any(x < 0 or x >= n for row in rows for x in row):
            raise ValueError("addition table entry out of range")
        zeros = [e for e in range(n) if all(rows[e][x] == x for x in range(n))]
        if len(zeros) != 1:
            raise ValueError(f"expected exactly one identity, found {zeros}")
        zero = zeros[0]
        for a in range(n):
            for b in range(a, n):
                if rows[a][b] != rows[b][a]:
                    raise ValueError(f"not commutative at ({a}, {b})")
        triple = first_nonassociative(rows)
        if triple is not None:
            raise ValueError(f"not associative at {triple}")
        neg = []
        for a in range(n):
            found = rows[a].count(zero)
            if found != 1:
                raise ValueError(f"element {a} has {found} inverses")
            neg.append(rows[a].index(zero))
        return AbelianGroup(n, rows, zero, tuple(neg))

    @staticmethod
    def cyclic(n: int) -> "AbelianGroup":
        table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
        return AbelianGroup(n, table, 0, tuple((-a) % n for a in range(n)))

    @staticmethod
    def direct_sum(*groups: "AbelianGroup") -> "AbelianGroup":
        """Direct sum, coordinatewise: element x is the x-th coordinate tuple
        in itertools.product order (the last coordinate varies fastest), and
        the empty sum is the order-1 group."""
        table, zero, neg = ((0,),), 0, (0,)
        for h in groups:  # a sum element x and an h element y become x * h.order + y
            n = h.order
            table = tuple(
                tuple(x * n + y for x in row for y in row_h) for row in table for row_h in h.add_table
            )
            zero = zero * n + h.zero
            neg = tuple(x * n + y for x in neg for y in h.neg_table)
        return AbelianGroup(len(table), table, zero, neg)

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def element_order(self, x: int) -> int:
        acc = x
        k = 1
        while acc != self.zero:
            acc = self.add_table[acc][x]
            k += 1
        return k


def first_nonassociative(table: Sequence[Sequence[int]]) -> tuple[int, int, int] | None:
    """Lex-first (a, b, c) with (a+b)+c != a+(b+c), or None when the
    operation table[x][y] on {0..m-1} is associative.

    Light's test: the elements b with (x+b)+y == x+(b+y) for all x and y
    are closed under + (for two such b, c: (x+(b+c))+y = ((x+b)+c)+y =
    (x+b)+(c+y) = x+(b+(c+y)) = x+((b+c)+y)), so the law holds everywhere
    once it holds for every b of a generating set. The set is grown
    greedily from the elements not yet reached by adding a generator on
    either side; nothing assumes an identity, and idempotents come last
    since an identity is reached from any other generator. For a group
    each new generator at least doubles what is reached, so there are at
    most log2(m) of them (one when m = 1) and the test costs
    O(m^2 log m) lookups. Only a failing table pays for the O(m^3) scan
    that names the lex-first triple.
    """
    m = len(table)
    reached: set[int] = set()
    gens: list[int] = []
    for x in sorted(range(m), key=lambda e: table[e][e] == e):
        if x in reached:
            continue
        gens.append(x)
        row_x = table[x]
        stack = [x] + [table[y][x] for y in reached] + [row_x[y] for y in reached]
        while stack:
            y = stack.pop()
            if y not in reached:
                reached.add(y)
                row_y = table[y]
                stack += [row_y[g] for g in gens] + [table[g][y] for g in gens]
    for b in gens:
        # x+(b+y) for every y, read as one row; an itemgetter of one index
        # would return a bare value, so m = 1 builds its one-entry row
        row_b = table[b]
        across = itemgetter(*row_b) if m > 1 else lambda row: (row[row_b[0]],)
        for x in range(m):
            row_x = table[x]
            if tuple(table[row_x[b]]) != across(row_x):
                return _lex_first_nonassociative(table)
    return None


def _lex_first_nonassociative(table: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    m = len(table)
    for a in range(m):
        row_a = table[a]
        for b in range(m):
            row_ab, row_b = table[row_a[b]], table[b]
            for c in range(m):
                if row_ab[c] != row_a[row_b[c]]:
                    return (a, b, c)
    raise AssertionError("Light's test failed on an associative table")


@dataclass(frozen=True)
class CyclicDecomposition:
    """Isomorphism with a direct sum of cyclic groups.

    factors is the invariant chain d_1 | d_2 | ... | d_t (empty for the
    trivial group); iso[x] is the coordinate tuple of element x, with
    iso[x][i] in Z_{factors[i]}.
    """

    factors: tuple[int, ...]
    iso: tuple[tuple[int, ...], ...]


def decompose(group: AbelianGroup) -> CyclicDecomposition:
    """Invariant-factor decomposition by greedy maximal-order quotients.

    Each round picks a coset representative of maximal order in the
    quotient by the span built so far, shifts it inside its coset until
    its true order matches (a direct complement always exists), and
    extends the coordinate map. The result is verified on its basis by
    _verify_decomposition. A table that is no group raises ValueError when
    a multiple of x misses the span for group.order steps, no shifted
    representative has the coset's order, the shifted spans collide (the
    cosets of a group are disjoint) or the verification fails; so every
    round multiplies the span by at least 2, and the search ends.

    Associativity is the caller's to prove, since the verification relies
    on it: ((2, 2, 0), (2, 0, 1), (0, 1, 2)) with zero 2 is commutative
    with an identity but not associative, and returns factors (3,).
    reconstruct_group runs Light's test first, from_add_table proves it,
    and cyclic and direct_sum hold it by construction.
    """
    spans: dict[int, tuple[int, ...]] = {group.zero: ()}
    orders_desc: list[int] = []
    while len(spans) < group.order:
        best_x, best_d = -1, 0
        for x in range(group.order):
            if x in spans:
                continue
            acc, k = x, 1
            while acc not in spans:
                if k == group.order:  # in a group, order * x = zero
                    raise ValueError(f"not a group: the multiples of {x} miss the span")
                acc = group.add(acc, x)
                k += 1
            if k > best_d:
                best_x, best_d = x, k
        rep = next(
            (group.add(best_x, s) for s in spans if group.element_order(group.add(best_x, s)) == best_d),
            None,
        )
        if rep is None:
            raise ValueError(f"not a group: no element of the coset of {best_x} has order {best_d}")
        new_spans: dict[int, tuple[int, ...]] = {}
        step = group.zero
        for j in range(best_d):
            for s, coords in spans.items():
                new_spans[group.add(s, step)] = coords + (j,)
            step = group.add(step, rep)
        if len(new_spans) < best_d * len(spans):
            raise ValueError(f"not a group: the multiples of {rep} shift the span onto itself")
        spans = new_spans
        orders_desc.append(best_d)
    factors = tuple(reversed(orders_desc))
    iso = tuple(tuple(reversed(spans[x])) for x in range(group.order))
    _verify_decomposition(group, factors, iso)
    return CyclicDecomposition(factors, iso)


def _verify_decomposition(
    group: AbelianGroup, factors: tuple[int, ...], iso: tuple[tuple[int, ...], ...]
) -> None:
    """Prove that iso is an isomorphism onto Z_{d_1} + ... + Z_{d_t}.

    Checks that iso is a bijection onto the coordinate vectors and that
    iso(x + e_k) == iso(x) + u_k for every x and k, where u_k is the k-th
    unit vector and e_k = iso^-1(u_k): O(m * t) lookups in place of all
    m^2 pairs. This suffices: at x = zero it gives iso(zero) = 0. For any
    b, write iso(b) = (n_1..n_t) and let y = n_1 e_1 + ... + n_t e_t,
    added one generator at a time; by associativity
    iso(x + y) = iso(x) + (n_1..n_t) for every x, so iso(y) = iso(b), hence
    y = b by injectivity and iso(x + b) = iso(x) + iso(b).
    """
    m, t = group.order, len(factors)
    if (
        math.prod(factors) != m
        or len(set(iso)) != m
        or any(len(v) != t or any(not 0 <= c < d for c, d in zip(v, factors)) for v in iso)
    ):
        raise ValueError("not a group: the coordinate map is not a bijection")
    for i in range(t - 1):
        if factors[i + 1] % factors[i] != 0:
            raise ValueError(f"not a group: the invariant chain {factors} is broken")
    element = {v: x for x, v in enumerate(iso)}
    for k, d in enumerate(factors):
        e = element[(0,) * k + (1,) + (0,) * (t - k - 1)]
        for x in range(m):
            v = iso[x]
            want = v[:k] + ((v[k] + 1) % d,) + v[k + 1 :]
            if iso[group.add(x, e)] != want:
                raise ValueError(f"not a group: the coordinate map is not additive at ({x}, {e})")


# ---------------------------------------------------------------------------
# linear systems over Z_d

# Nothing in src/ reads this or occurrence_matrix, since counting went
# sparse; perfbench/ and the tests still import them.
_SNF_CELL_LIMIT = 20_000


def occurrence_matrix(inst: Instance) -> IntMatrix:
    """Scopes-by-vertices matrix of occurrence counts."""
    rows = []
    for scope in inst.scopes:
        row = [0] * inst.n
        for v in scope:
            row[v] += 1
        rows.append(row)
    return IntMatrix.from_rows(rows, cols=inst.n)


def count_solutions_mod(m: IntMatrix, c: Sequence[int], d: int) -> int:
    """Number of x in (Z_d)^n with M x = c over Z_d, counted on M's
    nonzero entries by _count_mod."""
    if d < 1:
        raise ValueError(f"modulus must be positive, got {d}")
    if len(c) != m.rows:
        raise ValueError(f"right-hand side has {len(c)} entries for {m.rows} rows")
    rows = [{j: v for j, v in enumerate(row) if v} for row in m.entries]
    return _count_mod(rows, c, m.cols, d)


def _count_mod(rows: Sequence[dict[int, int]], c: Sequence[int], ncols: int, d: int) -> int:
    """Solution count over Z_d of the sparse rows {column: coefficient}:
    the product of the counts over Z_{p^e} for the prime powers p^e of d
    (Chinese remainder theorem), 1 when d = 1."""
    total = 1
    for p, e in _factorize(d):
        part = _count_prime_power(rows, c, ncols, p, e)
        if part == 0:
            return 0
        total *= part
    return total


def _factorize(d: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= d:
        if d % p == 0:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if d > 1:
        out.append((d, 1))
    return out


def _count_prime_power(
    rows: Sequence[dict[int, int]], c: Sequence[int], ncols: int, p: int, e: int
) -> int:
    """Number of x in (Z_{p^e})^ncols with row . x = c_i for every sparse
    row, by tracking the solution set x0 + K instead of the row space
    (structured Gaussian elimination, LaMacchia & Odlyzko 1990).

    K starts as the whole space, spanned by the unit vectors, and is kept
    as generators gens[k] = {v: coefficient}, indexed both ways (at[v] =
    {k: coefficient}). A row maps K onto p^v* Z_{p^e}, where p^v* is the
    gcd of q = p^e and the products s_k = row . g_k. So the row is
    solvable iff p^v* divides the residual c_i - row . x0, and then |K|
    shrinks by p^(e - v*); v* = e when every s_k is 0 (the row is
    implied). The pivot k has valuation v* and the fewest nonzeros: x0
    moves by a multiple of g_k, every other g_j loses (s_j / s_k) g_k, and
    g_k becomes p^(e - v*) g_k, which drops out once it is 0. These span
    the new K: an x = sum l_j g_j in K with row . x = 0 equals
    sum_{j != k} l_j (g_j - (s_j / s_k) g_k) + u g_k with u s_k = 0, so u
    is a multiple of p^(e - v*). A row costs O(its nonzeros x fill).
    """
    q = p**e
    valuation = {p**i: i for i in range(e + 1)}
    gens = [{v: 1} for v in range(ncols)]
    at = [{v: 1} for v in range(ncols)]
    x0 = [0] * ncols
    exponent = e * ncols
    for row, ci in zip(rows, c):
        residual = ci
        s: dict[int, int] = {}
        for v, a in row.items():
            residual -= a * x0[v]
            for k, g in at[v].items():
                s[k] = s.get(k, 0) + a * g
        s = {k: sk % q for k, sk in s.items() if sk % q}
        pv = math.gcd(q, *s.values())
        if residual % pv:
            return 0
        if not s:
            continue
        k = min((j for j, sj in s.items() if math.gcd(sj, q) == pv), key=lambda j: len(gens[j]))
        inv = pow(s.pop(k) // pv, -1, q)
        gk = gens[k]
        lam = residual // pv * inv % q
        if lam:
            for v, g in gk.items():
                x0[v] = (x0[v] + lam * g) % q
        for j, sj in s.items():
            t = sj // pv * inv
            gj = gens[j]
            for v, g in gk.items():
                new = (gj.get(v, 0) - t * g) % q
                if new:
                    gj[v] = at[v][j] = new
                elif v in gj:
                    del gj[v], at[v][j]
        scale = q // pv
        for v, g in list(gk.items()):
            new = g * scale % q
            if new:
                gk[v] = at[v][k] = new
            else:
                del gk[v], at[v][k]
        exponent -= e - valuation[pv]
    return p**exponent


def count_homs(dec: CyclicDecomposition, a: int, inst: Instance) -> int:
    """Number of vertex maps into the group with every scope summing to a.

    Splitting along the cyclic decomposition turns the condition into one
    linear system per invariant factor d_i: one sparse row per scope,
    {vertex: multiplicity}, with the i-th coordinate of a on the right.
    _count_mod counts each in O(nonzeros x fill) per prime power of d_i;
    no scopes-by-vertices matrix is built.
    """
    rows = [Counter(scope) for scope in inst.scopes]
    total = 1
    for di, ci in zip(dec.factors, dec.iso[a]):
        part = _count_mod(rows, [ci] * len(rows), inst.n, di)
        if part == 0:
            return 0
        total *= part
    return total
