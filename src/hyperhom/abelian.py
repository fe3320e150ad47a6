"""Finite Abelian groups given by addition tables, and exact counting of
solutions to linear systems over Z_d.

The group side is deliberately small: orders here never exceed the domain
size of a weight function, so everything is table-driven. Every group law
is still proved on the table, but with checks that need only a generating
set: associativity by Light's test (O(m^2 log m) lookups for a group of
order m), the coordinate map of a decomposition on its basis (O(m * t)).
The counting side has to scale to instances with thousands of scopes, so
count_solutions_mod routes between a Smith normal form formula (small
systems) and modular elimination per prime power (large systems, with a
bitset path for mod 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .exactcore import IntMatrix, SnfResult, snf
from .model import Instance

__all__ = [
    "AbelianGroup",
    "CyclicDecomposition",
    "decompose",
    "first_nonassociative",
    "count_solutions_mod",
    "count_homs",
    "snf",
    "SnfResult",
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
        order = math.prod(g.order for g in groups)
        sizes = [g.order for g in groups]

        def split(x: int) -> list[int]:
            out = []
            for s in reversed(sizes):
                out.append(x % s)
                x //= s
            return out[::-1]

        def join(parts: Sequence[int]) -> int:
            x = 0
            for s, p in zip(sizes, parts):
                x = x * s + p
            return x

        table = tuple(
            tuple(
                join([g.add_table[pa][pb] for g, pa, pb in zip(groups, split(a), split(b))])
                for b in range(order)
            )
            for a in range(order)
        )
        zero = join([g.zero for g in groups])
        neg = tuple(join([g.neg_table[p] for g, p in zip(groups, split(a))]) for a in range(order))
        return AbelianGroup(order, table, zero, neg)

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def scale(self, k: int, x: int) -> int:
        """k-fold sum of x (k may be any integer)."""
        if k < 0:
            return self.scale(-k, self.neg_table[x])
        acc = self.zero
        while k:
            if k & 1:
                acc = self.add_table[acc][x]
            x = self.add_table[x][x]
            k >>= 1
        return acc

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
        row_b = tuple(table[b])
        for x in range(m):
            row_x = table[x]
            if tuple(table[row_x[b]]) != tuple([row_x[t] for t in row_b]):
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
    _verify_decomposition.
    """
    if group.order == 1:
        return CyclicDecomposition((), ((),))
    spans: dict[int, tuple[int, ...]] = {group.zero: ()}
    orders_desc: list[int] = []
    while len(spans) < group.order:
        best_x, best_d = -1, 0
        for x in range(group.order):
            if x in spans:
                continue
            acc, k = x, 1
            while acc not in spans:
                acc = group.add(acc, x)
                k += 1
            if k > best_d:
                best_x, best_d = x, k
        rep = next(
            (group.add(best_x, s) for s in spans if group.element_order(group.add(best_x, s)) == best_d),
            None,
        )
        if rep is None:
            raise AssertionError("no direct complement representative found")
        new_spans: dict[int, tuple[int, ...]] = {}
        step = group.zero
        for j in range(best_d):
            for s, coords in spans.items():
                new_spans[group.add(s, step)] = coords + (j,)
            step = group.add(step, rep)
        if len(new_spans) != len(spans) * best_d:
            raise AssertionError("span extension collided")
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
        raise AssertionError("decomposition is not a bijection")
    for i in range(t - 1):
        if factors[i + 1] % factors[i] != 0:
            raise AssertionError(f"invariant chain broken: {factors}")
    element = {v: x for x, v in enumerate(iso)}
    for k, d in enumerate(factors):
        e = element[(0,) * k + (1,) + (0,) * (t - k - 1)]
        for x in range(m):
            v = iso[x]
            want = v[:k] + ((v[k] + 1) % d,) + v[k + 1 :]
            if iso[group.add(x, e)] != want:
                raise AssertionError(f"coordinate map not additive at ({x}, {e})")


# ---------------------------------------------------------------------------
# linear systems over Z_d

_SNF_CELL_LIMIT = 20_000


def count_solutions_mod(m: IntMatrix, c: Sequence[int], d: int) -> int:
    """Number of x in (Z_d)^n with M x = c over Z_d.

    Small systems go through the Smith normal form U M V = S: with
    c' = U c the count is prod_i gcd(s_i, d) * d^(n-m) when every
    congruence is satisfiable, else 0. Large systems are counted per
    prime power of d and combined by the Chinese remainder theorem.
    """
    if d < 1:
        raise ValueError(f"modulus must be positive, got {d}")
    if len(c) != m.rows:
        raise ValueError(f"right-hand side has {len(c)} entries for {m.rows} rows")
    if d == 1:
        return 1
    if m.rows * m.cols <= _SNF_CELL_LIMIT:
        return _count_via_snf(m, c, d)
    total = 1
    for p, e in _factorize(d):
        if p == 2 and e == 1:
            part = _count_gf2(m.entries, c, m.cols)
        else:
            part = _count_prime_power(m.entries, c, m.cols, p, e)
        if part == 0:
            return 0
        total *= part
    return total


def _count_via_snf(m: IntMatrix, c: Sequence[int], d: int) -> int:
    res = snf(m)
    cp = [sum(u * ci for u, ci in zip(row, c)) for row in res.U.entries]
    diag = res.S.diagonal()
    count = 1
    for i in range(m.rows):
        if i < len(diag):
            g = math.gcd(diag[i], d)
            if cp[i] % g != 0:
                return 0
            count *= g
        elif cp[i] % d != 0:
            return 0
    if m.cols > m.rows:
        count *= d ** (m.cols - m.rows)
    return count


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


def _count_gf2(rows: Sequence[Sequence[int]], c: Sequence[int], ncols: int) -> int:
    """Solution count of M x = c over GF(2) via bitset row echelon."""
    aug_bit = 1 << ncols
    pivots: dict[int, int] = {}
    for row, ci in zip(rows, c):
        bits = 0
        for j, v in enumerate(row):
            if v & 1:
                bits |= 1 << j
        if ci & 1:
            bits |= aug_bit
        while bits:
            low = bits & -bits
            if low == aug_bit:
                return 0
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = bits
                break
            bits ^= piv
    return 1 << (ncols - len(pivots))


def _count_prime_power(
    rows: Sequence[Sequence[int]], c: Sequence[int], ncols: int, p: int, e: int
) -> int:
    """Diagonalize over Z_{p^e} by minimum-valuation pivoting and count."""
    d = p**e
    a = [[v % d for v in row] for row in rows]
    aug = [ci % d for ci in c]
    nrows = len(a)
    row_active = list(range(nrows))
    col_active = list(range(ncols))
    pivot_vals: list[int] = []
    while True:
        best = None  # (valuation, row position, col position)
        for ri, i in enumerate(row_active):
            ai = a[i]
            for cj, j in enumerate(col_active):
                v = ai[j]
                if v == 0:
                    continue
                val = 0
                while v % p == 0:
                    v //= p
                    val += 1
                if best is None or val < best[0]:
                    best = (val, ri, cj)
                if best[0] == 0:
                    break
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        val, ri, cj = best
        i = row_active.pop(ri)
        j = col_active.pop(cj)
        pv = p**val
        unit = a[i][j] // pv
        inv = pow(unit, -1, d)
        ai = a[i]
        for jj in range(ncols):
            ai[jj] = (ai[jj] * inv) % d
        aug[i] = (aug[i] * inv) % d
        for k in row_active:
            ak = a[k]
            t = ak[j] // pv
            if t:
                for jj in col_active:
                    ak[jj] = (ak[jj] - t * ai[jj]) % d
                aug[k] = (aug[k] - t * aug[i]) % d
                ak[j] = 0
        pivot_vals.append(pv)
        if aug[i] % pv != 0:
            return 0
    for k in row_active:
        if aug[k] % d != 0:
            return 0
    count = math.prod(pivot_vals)
    return count * d ** len(col_active)


def occurrence_matrix(inst: Instance) -> IntMatrix:
    """Scopes-by-vertices matrix of occurrence counts."""
    rows = []
    for scope in inst.scopes:
        row = [0] * inst.n
        for v in scope:
            row[v] += 1
        rows.append(row)
    return IntMatrix.from_rows(rows, cols=inst.n)


def count_homs(dec: CyclicDecomposition, a: int, inst: Instance) -> int:
    """Number of vertex maps into the group with every scope summing to a.

    Splitting along the cyclic decomposition turns the condition into one
    linear system per invariant factor, with the constant right-hand side
    given by the coordinates of a.
    """
    occ = occurrence_matrix(inst)
    target = dec.iso[a]
    total = 1
    for di, ci in zip(dec.factors, target):
        part = count_solutions_mod(occ, [ci] * occ.rows, di)
        if part == 0:
            return 0
        total *= part
    return total
