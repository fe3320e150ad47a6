"""Groups, invariant-factor decomposition, and modular system counting."""

import math
import random
from itertools import product

import pytest

from hyperhom import fixtures as fx
from hyperhom.abelian import (
    AbelianGroup,
    _count_prime_power,
    _factorize,
    count_homs,
    count_solutions_mod,
    decompose,
    occurrence_matrix,
)
from hyperhom.exactcore import IntMatrix, snf
from hyperhom.model import CspInstance, Hypergraph, instance_components
from test_evaluator import _shuffled_union


def test_from_add_table_rejects_bad_tables():
    with pytest.raises(ValueError):
        AbelianGroup.from_add_table([[0, 1], [1, 1]])  # 1 has no inverse
    with pytest.raises(ValueError):
        AbelianGroup.from_add_table([[0, 1], [0, 1]])  # not commutative
    # Fano-style quasigroup: commutative, has identity behavior on diagonal
    # but fails associativity
    table = [[0, 2, 1], [2, 1, 0], [1, 0, 2]]
    with pytest.raises(ValueError):
        AbelianGroup.from_add_table(table)


def test_cyclic_basics():
    z4 = AbelianGroup.cyclic(4)
    assert z4.order == 4 and z4.zero == 0
    assert z4.add(3, 2) == 1
    assert z4.neg(3) == 1
    assert z4.element_order(2) == 2
    assert z4.element_order(1) == 4
    assert z4.element_order(0) == 1


def test_direct_sum_layout():
    g = AbelianGroup.direct_sum(AbelianGroup.cyclic(2), AbelianGroup.cyclic(3))
    assert g.order == 6
    # element = 3 * first + second in this layout; (1,1) + (1,2) = (0,0)
    assert g.add(3 + 1, 3 + 2) == 0


def mixed_radix_direct_sum(*groups: AbelianGroup) -> AbelianGroup:
    """Reference for direct_sum's numbering: element x splits into mixed-radix
    digits, one per group, the last group's digit varying fastest."""
    order = math.prod(g.order for g in groups)
    sizes = [g.order for g in groups]

    def split(x: int) -> list[int]:
        out = []
        for s in reversed(sizes):
            out.append(x % s)
            x //= s
        return out[::-1]

    def join(parts) -> int:
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


@pytest.mark.parametrize("factors", [(), (1,), (2, 3), (4, 2, 2), (8, 8), (2,) * 6])
def test_direct_sum_numbering_is_mixed_radix(factors):
    got = fx.group_from_factors(*factors)
    want = mixed_radix_direct_sum(*(AbelianGroup.cyclic(d) for d in factors))
    assert got.order == math.prod(factors)
    assert (got.order, got.add_table, got.zero, got.neg_table) == (
        want.order,
        want.add_table,
        want.zero,
        want.neg_table,
    )


DECOMPOSE_CASES = [
    ((), 1),
    ((2,), 2),
    ((3,), 3),
    ((4,), 4),
    ((5,), 5),
    ((2, 2), 4),
    ((2, 4), 8),
    ((3, 3), 9),
    ((2, 2, 2), 8),
    ((2, 6), 12),
    ((12,), 12),
]


@pytest.mark.parametrize("factors,order", DECOMPOSE_CASES)
def test_decompose_invariant_factors(factors, order):
    groups = [AbelianGroup.cyclic(d) for d in factors] or [AbelianGroup.cyclic(1)]
    g = AbelianGroup.direct_sum(*groups)
    dec = decompose(g)
    assert g.order == order
    assert dec.factors == factors
    # iso is additive and bijective
    seen = set(dec.iso)
    assert len(seen) == g.order
    for x in range(g.order):
        for y in range(g.order):
            sx, sy = dec.iso[x], dec.iso[y]
            want = tuple((a + b) % d for a, b, d in zip(sx, sy, dec.factors))
            assert dec.iso[g.add(x, y)] == want


def test_decompose_smith_style_merge():
    # Z6 built as Z2 x Z3 must come back as the single factor 6
    g = AbelianGroup.direct_sum(AbelianGroup.cyclic(2), AbelianGroup.cyclic(3))
    assert decompose(g).factors == (6,)
    # Z2 x Z2 x Z3 -> (2, 6)
    g = AbelianGroup.direct_sum(
        AbelianGroup.cyclic(2), AbelianGroup.cyclic(2), AbelianGroup.cyclic(3)
    )
    assert decompose(g).factors == (2, 6)


def _count_by_enumeration(m: IntMatrix, c, d: int) -> int:
    count = 0
    for x in product(range(d), repeat=m.cols):
        if all(
            sum(m.entries[i][j] * x[j] for j in range(m.cols)) % d == c[i] % d
            for i in range(m.rows)
        ):
            count += 1
    return count


def test_count_solutions_examples():
    assert count_solutions_mod(IntMatrix.from_rows([[1, 1]]), [0], 2) == 2
    assert count_solutions_mod(IntMatrix.from_rows([[0]]), [1], 2) == 0
    assert count_solutions_mod(IntMatrix.from_rows([[1, 1, 1]]), [0], 4) == 16
    assert count_solutions_mod(IntMatrix.from_rows([[1]]), [0], 1) == 1
    with pytest.raises(ValueError):
        count_solutions_mod(IntMatrix.from_rows([[1]]), [0, 1], 2)
    with pytest.raises(ValueError):
        count_solutions_mod(IntMatrix.from_rows([[1]]), [0], 0)


def test_count_solutions_random_vs_enumeration():
    rng = random.Random(424242)
    for _ in range(80):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 4)
        d = rng.randint(1, 6)
        m = IntMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        )
        c = [rng.randint(-4, 4) for _ in range(rows)]
        assert count_solutions_mod(m, c, d) == _count_by_enumeration(m, c, d)


def snf_counter(m: IntMatrix):
    """Reference count from the Smith normal form U M V = S: with c' = U c,
    prod_i gcd(s_i, d) * d^(cols - rows) when every congruence is
    satisfiable, else 0. One decomposition serves every (c, d)."""
    res = snf(m)
    diag = res.S.diagonal()

    def count(c, d: int) -> int:
        cp = [sum(u * ci for u, ci in zip(row, c)) for row in res.U.entries]
        total = 1
        for i in range(m.rows):
            g = math.gcd(diag[i], d) if i < len(diag) else d
            if cp[i] % g != 0:
                return 0
            if i < len(diag):
                total *= g
        return total * d ** max(m.cols - m.rows, 0)

    return count


def test_count_solutions_elimination_route():
    # elimination per prime power against the Smith normal form formula,
    # on small random systems and on occurrence matrices of small CSP
    # instances (repeated variables) and of connected hypergraphs
    rng = random.Random(99)
    for _ in range(40):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 4)
        d = rng.choice([2, 3, 4, 5, 6, 8, 9, 12])
        m = IntMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        )
        c = [rng.randint(-6, 6) for _ in range(rows)]
        assert count_solutions_mod(m, c, d) == snf_counter(m)(c, d)
    rng = random.Random(2024)
    counts = []
    for _ in range(200):
        occ = occurrence_matrix(fx.random_csp(rng, 8, 12, rng.choice((3, 4))))
        d = rng.choice([2, 3, 4, 6, 8, 9, 12])
        c = [rng.randrange(d)] * occ.rows
        assert count_solutions_mod(occ, c, d) == snf_counter(occ)(c, d), (occ.entries, d, c[:1])
    for d in (2, 3, 4, 6, 8, 9, 12) * 2:
        n = rng.randint(30, 100)
        inst = fx.random_connected_hypergraph(rng, n, rng.randint(2 * n, 3 * n), rng.choice((3, 4)))
        occ = occurrence_matrix(inst)
        reference = snf_counter(occ)
        targets = [[a] * occ.rows for a in range(d)] + [[rng.randrange(d) for _ in range(occ.rows)]]
        for c in targets:
            want = reference(c, d)
            assert count_solutions_mod(occ, c, d) == want, (n, occ.rows, d, c[0])
            counts.append(want)
    # both answers occur: unsolvable targets and solution sets of size > 1
    assert 0 in counts and max(counts) > 1


# --- differential references: the dense eliminations that counted every
# system before the sparse solution-set tracking replaced them


def dense_count_gf2(rows, c, ncols: int) -> int:
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


def dense_count_prime_power(rows, c, ncols: int, p: int, e: int) -> int:
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


def dense_count_mod(rows, c, ncols: int, d: int) -> int:
    """The dense route per prime power of d: bitsets at 2, elimination else."""
    total = 1
    for p, e in _factorize(d):
        if (p, e) == (2, 1):
            total *= dense_count_gf2(rows, c, ncols)
        else:
            total *= dense_count_prime_power(rows, c, ncols, p, e)
    return total


def _seeded_system(rng, q: int):
    """Dense rows and a right-hand side over Z_q: random entries (negative
    ones included), zero rows, CSP occurrence rows whose multiplicities
    reach q and beyond, and empty systems; c random or constant."""
    nrows, ncols = rng.randint(0, 8), rng.randint(0, 7)
    if rng.random() < 0.5 or ncols == 0:
        rows = [
            [rng.choice((0, 0, rng.randint(-2 * q, 2 * q))) for _ in range(ncols)] for _ in range(nrows)
        ]
    else:
        rows = []
        for _ in range(nrows):
            row = [0] * ncols
            for _ in range(rng.randint(0, 2 * q + 2)):
                row[rng.randrange(min(ncols, 3))] += 1
            rows.append(row)
    if rows and rng.random() < 0.2:
        rows[rng.randrange(nrows)] = [0] * ncols
    if rng.random() < 0.5:
        c = [rng.randint(-q, 2 * q)] * nrows
    else:
        c = [rng.randint(-q, 2 * q) for _ in range(nrows)]
    return rows, c, ncols


def test_sparse_counting_matches_dense_references():
    rng = random.Random(1990)
    counts = set()
    for _ in range(1500):
        p, e = rng.choice((2, 3, 5, 7)), rng.randint(1, 4)
        rows, c, ncols = _seeded_system(rng, p**e)
        sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
        want = dense_count_prime_power(rows, c, ncols, p, e)
        if (p, e) == (2, 1):
            assert dense_count_gf2(rows, c, ncols) == want
        assert _count_prime_power(sparse, c, ncols, p, e) == want, (rows, c, p, e)
        counts.add(min(want, 2))
    assert counts == {0, 1, 2}
    for _ in range(500):
        d = rng.choice((1, 2, 4, 6, 8, 12, 16, 18, 30, 36, 49, 81))
        rows, c, ncols = _seeded_system(rng, d)
        want = dense_count_mod(rows, c, ncols, d)
        assert count_solutions_mod(IntMatrix.from_rows(rows, cols=ncols), c, d) == want, (rows, c, d)
    assert count_solutions_mod(IntMatrix.from_rows([], cols=3), [], 5) == 125
    assert count_solutions_mod(IntMatrix.from_rows([[0, 0]]), [7], 1) == 1


def test_count_solutions_ignores_row_and_column_order():
    """The count of a seeded system in input order, with its rows shuffled
    together with c, and with its columns permuted, against the Smith form."""
    rng = random.Random(1991)
    counts = set()
    for _ in range(300):
        d = rng.choice((2, 4, 8, 3, 9, 6, 12))
        rows, c, ncols = _seeded_system(rng, d)
        m = IntMatrix.from_rows(rows, cols=ncols)
        want = count_solutions_mod(m, c, d)
        assert want == snf_counter(m)(c, d), (rows, c, d)
        order = rng.sample(range(len(rows)), len(rows))
        shuffled = IntMatrix.from_rows([rows[i] for i in order], cols=ncols)
        assert count_solutions_mod(shuffled, [c[i] for i in order], d) == want
        perm = rng.sample(range(ncols), ncols)
        permuted = IntMatrix.from_rows([[row[j] for j in perm] for row in rows], cols=ncols)
        assert count_solutions_mod(permuted, c, d) == want
        counts.add(min(want, 2))
    assert counts == {0, 1, 2}


def test_count_homs_crt_and_direct_sum_at_scale():
    # a 30000 x 3000 system, beyond what dense matrices could count here
    inst = fx.random_connected_hypergraph(random.Random(3000), 3000, 30000, 3)
    z2, z3, z6, z2z2 = (decompose(fx.group_from_factors(*f)) for f in ((2,), (3,), (6,), (2, 2)))
    c2 = [count_homs(z2, a, inst) for a in range(2)]
    c3 = [count_homs(z3, a, inst) for a in range(3)]
    # constant maps: x = 1 solves 1+1+1 = 1 over Z2, and any constant 3x = 0 over Z3
    assert min(c2) >= 1 and c3[0] >= 3
    for a in range(6):
        assert count_homs(z6, a, inst) == c2[a % 2] * c3[a % 3]
    for a, b in product(range(2), repeat=2):
        assert count_homs(z2z2, 2 * a + b, inst) == c2[a] * c2[b]


def test_count_homs_ignores_row_order():
    """The count in input order, as a product over the instance_components
    pieces (rows in plan order, |G| per isolated vertex) and with the
    scopes shuffled; CSPs repeat variables."""
    rng = random.Random(1990)
    decs = [decompose(fx.group_from_factors(*f)) for f in ((2,), (4,), (3,), (2, 4))]
    for _ in range(40):
        r = rng.randint(2, 4)
        make, n_max, m_max = rng.choice(((fx.random_hypergraph, 30, 40), (fx.random_csp, 24, 30)))
        inst = _shuffled_union(rng, make(rng, n_max, m_max, r), make(rng, n_max, m_max, r))
        split = instance_components(inst)
        scopes = list(inst.scopes)
        rng.shuffle(scopes)
        shuffled = CspInstance(inst.n, tuple(scopes), ())
        for dec in decs:
            order = math.prod(dec.factors)
            for a in (0, rng.randrange(order)):
                want = count_homs(dec, a, inst)
                pieces = math.prod(count_homs(dec, a, piece) for piece, _ in split.pieces)
                assert pieces * order**split.isolated == want
                assert count_homs(dec, a, shuffled) == want


def test_occurrence_matrix():
    g = Hypergraph(4, ((0, 1, 2), (1, 2, 3)))
    m = occurrence_matrix(g)
    assert (m.rows, m.cols) == (2, 4)
    assert [m.entries[0][j] for j in range(4)] == [1, 1, 1, 0]
    c = CspInstance(2, ((0, 0, 1),), ())
    m = occurrence_matrix(c)
    assert [m.entries[0][j] for j in range(2)] == [2, 1]


def test_count_homs_examples():
    edge = Hypergraph(3, ((0, 1, 2),))
    z2 = decompose(AbelianGroup.cyclic(2))
    assert count_homs(z2, 0, edge) == 4
    assert count_homs(z2, 1, edge) == 4

    z4 = decompose(AbelianGroup.cyclic(4))
    assert count_homs(z4, 2, edge) == 16

    two = Hypergraph(4, ((0, 1, 2), (0, 1, 3)))
    assert count_homs(z2, 0, two) == 4

    trivial = decompose(AbelianGroup.cyclic(1))
    assert count_homs(trivial, 0, edge) == 1


def test_count_homs_matches_enumeration():
    rng = random.Random(7)
    for factors in ((2,), (3,), (2, 2), (4,)):
        group = AbelianGroup.direct_sum(*(AbelianGroup.cyclic(d) for d in factors))
        dec = decompose(group)
        for _ in range(10):
            n = rng.randint(3, 5)
            edges = tuple(
                tuple(sorted(rng.sample(range(n), 3)))
                for _ in range(rng.randint(1, 3))
            )
            inst = Hypergraph(n, edges)
            a = rng.randrange(group.order)
            direct = 0
            for x in product(range(group.order), repeat=n):
                ok = True
                for e in inst.edges:
                    total = group.zero
                    for v in e:
                        total = group.add(total, x[v])
                    if total != a:
                        ok = False
                        break
                direct += ok
            assert count_homs(dec, a, inst) == direct
