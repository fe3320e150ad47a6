"""Groups, invariant-factor decomposition, and modular system counting."""

import math
import random
from itertools import product

import pytest

from hyperhom import fixtures as fx
from hyperhom.abelian import (
    AbelianGroup,
    count_homs,
    count_solutions_mod,
    decompose,
    occurrence_matrix,
)
from hyperhom.exactcore import IntMatrix, snf
from hyperhom.model import CspInstance, Hypergraph


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
    assert z4.scale(5, 3) == 3
    assert z4.element_order(2) == 2
    assert z4.element_order(1) == 4
    assert z4.element_order(0) == 1


def test_direct_sum_layout():
    g = AbelianGroup.direct_sum(AbelianGroup.cyclic(2), AbelianGroup.cyclic(3))
    assert g.order == 6
    # element = 3 * first + second in this layout; (1,1) + (1,2) = (0,0)
    assert g.add(3 + 1, 3 + 2) == 0


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
            sum(m[i, j] * x[j] for j in range(m.cols)) % d == c[i] % d
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


def test_occurrence_matrix():
    g = Hypergraph(4, ((0, 1, 2), (1, 2, 3)))
    m = occurrence_matrix(g)
    assert (m.rows, m.cols) == (2, 4)
    assert [m[0, j] for j in range(4)] == [1, 1, 1, 0]
    c = CspInstance(2, ((0, 0, 1),), ())
    m = occurrence_matrix(c)
    assert [m[0, j] for j in range(2)] == [2, 1]


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
