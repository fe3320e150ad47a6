"""Data model: tables, instances, file formats, marginals, components."""

import random
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from hyperhom import fixtures as fx
from hyperhom.model import (
    CspInstance,
    FormatError,
    Hypergraph,
    SymFunc,
    degrees,
    domain_components,
    dump_csp,
    dump_hypergraph,
    dump_symfunc,
    instance_components,
    instance_plan,
    load_csp,
    load_hypergraph,
    load_instance,
    load_symfunc,
    marginalize,
    orderings_count,
    prune_domain,
)
from test_evaluator import _shuffled_union


def link_roots(n, links):
    """Least class member of each of 0..n-1 under the classes the links join:
    a union-find that keeps the smaller root on every merge. The independent
    connectivity reference of the tests; the library has no union-find."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for link in links:
        base = find(link[0])
        for v in link[1:]:
            root = find(v)
            if root != base:
                base, other = min(base, root), max(base, root)
                parent[other] = base
    return [find(x) for x in range(n)]


def test_symfunc_validation():
    with pytest.raises(ValueError):
        SymFunc.from_weights(2, 2, {})  # arity too small
    with pytest.raises(ValueError):
        SymFunc.from_weights(0, 3, {})
    with pytest.raises(ValueError):
        SymFunc.from_weights(2, 3, {(0, 0, 2): Fraction(1)})
    with pytest.raises(ValueError):
        SymFunc.from_weights(2, 3, {(0, 0): Fraction(1)})
    with pytest.raises(ValueError):
        SymFunc.from_weights(2, 3, {(0, 0, 0): Fraction(-1)})


def test_symfunc_value_sorts_and_drops_zeros():
    g = SymFunc.from_weights(2, 3, {(0, 1, 1): Fraction(5), (0, 0, 0): Fraction(0)})
    assert g.value((1, 0, 1)) == 5
    assert g.value((0, 0, 0)) == 0
    assert (0, 0, 0) not in g.weights
    assert sorted(g.weights) == [(0, 1, 1)]


def test_orderings_count():
    assert orderings_count((0, 0, 1)) == 3
    assert orderings_count((0, 1, 2)) == 6
    assert orderings_count((1, 1, 1)) == 1
    assert orderings_count(()) == 1


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        Hypergraph(3, ((0, 0, 1),))  # repeated vertex
    with pytest.raises(ValueError):
        Hypergraph(3, ((2, 1, 0),))  # not increasing
    with pytest.raises(ValueError):
        Hypergraph(3, ((0, 1, 3),))  # out of range
    h = Hypergraph(4, ((0, 1, 2), (0, 1, 2)))  # multigraph allowed in memory
    assert len(h.edges) == 2
    assert h.arity == 3


def test_symfunc_file_round_trip():
    for g in (fx.parity(), fx.geometric(), fx.mixed(), fx.steiner_fano()):
        assert load_symfunc(dump_symfunc(g)).weights == g.weights


def test_symfunc_file_round_trip_past_the_digit_limit():
    den = 10**4999 + 7  # a 5000-digit denominator
    g = SymFunc.from_weights(2, 3, {(0, 0, 0): Fraction(4**8000), (0, 1, 1): Fraction(3, den)})
    back = load_symfunc(dump_symfunc(g))
    assert back.weights == g.weights


def test_symfunc_file_zero_weights():
    g = load_symfunc("symfunc v1\nq 3\nr 3\n0 0 0 = 0\n0 1 1 = 2/4\n2 2 2 = 0/3\n")
    assert dict(g.weights) == {(0, 1, 1): Fraction(1, 2)}
    assert prune_domain(g).removed == (2,)  # only a zero line names element 2
    with pytest.raises(FormatError) as err:
        load_symfunc("symfunc v1\nq 2\nr 3\n0 0 0 = 0\n0 0 0 = 1\n")
    assert err.value.line == 5  # a zero line still claims its key


def test_symfunc_file_errors_carry_line_numbers():
    text = "symfunc v1\nq 2\nr 3\n0 0 0 = 1\n0 0 0 = 2\n"
    with pytest.raises(FormatError) as err:
        load_symfunc(text)
    assert err.value.line == 5  # duplicate key

    with pytest.raises(FormatError) as err:
        load_symfunc("symfunc v1\nq 2\nr 3\n0 0 2 = 1\n")
    assert err.value.line == 4  # element out of range

    with pytest.raises(FormatError) as err:
        load_symfunc("symfunc v1\nq 2\nr 3\n0 0 0 = -1\n")
    assert err.value.line == 4  # negative weight

    with pytest.raises(FormatError) as err:
        load_symfunc("hypergraph v1\nn 3\n")
    assert err.value.line == 1


def test_symfunc_file_comments_and_blanks():
    text = "# weight table\nsymfunc v1\nq 2\nr 3\n\n# body\n0 0 0 = 1/2\n"
    g = load_symfunc(text)
    assert g.value((0, 0, 0)) == Fraction(1, 2)


def test_hypergraph_file_round_trip():
    h = Hypergraph(5, ((0, 1, 2), (2, 3, 4)))
    assert load_hypergraph(dump_hypergraph(h)) == h
    with pytest.raises(FormatError):
        load_hypergraph("hypergraph v1\nn 4\ne 0 1 2\ne 0 1 2\n")
    with pytest.raises(ValueError):
        dump_hypergraph(Hypergraph(3, ((0, 1, 2), (0, 1, 2))))


def test_csp_file_round_trip():
    inst = CspInstance(4, ((0, 1, 1), (2, 3, 0)), ((0, 2),))
    assert load_csp(dump_csp(inst)) == inst


def test_load_instance_dispatch():
    h = Hypergraph(3, ((0, 1, 2),))
    assert load_instance(dump_hypergraph(h)) == h
    c = CspInstance(2, ((0, 0, 1),), ())
    assert load_instance(dump_csp(c)) == c
    with pytest.raises(FormatError):
        load_instance("symfunc v1\nq 2\nr 3\n")


def test_marginalize_examples():
    two = marginalize(fx.parity(), 2)
    assert all(two.value(key) == 1 for key in ((0, 0), (0, 1), (1, 1)))
    one = marginalize(fx.geometric(), 1)
    assert (one.value((0,)), one.value((1,))) == (9, 18)
    full = marginalize(fx.mixed(), 3)
    assert full.value((0, 0, 1)) == fx.mixed().value((0, 0, 1))


def test_marginalize_bounds():
    with pytest.raises(ValueError):
        marginalize(fx.parity(), 0)
    with pytest.raises(ValueError):
        marginalize(fx.parity(), 4)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**16 - 1), st.integers(2, 3))
def test_marginal_total_mass(seedbits, q):
    rng = random.Random(seedbits)
    g = fx.random_table(rng, q, 3, zero_frac=0.4)
    total_r = sum(
        orderings_count(key) * w for key, w in g.weights.items()
    )
    for k in (1, 2):
        table = marginalize(g, k)
        total_k = sum(orderings_count(key) * v for key, v in table.weights.items())
        assert total_k == total_r


def test_prune_domain():
    g = SymFunc.from_weights(3, 3, {(0, 0, 0): Fraction(1), (0, 0, 2): Fraction(2)})
    res = prune_domain(g)
    assert res.kept == (0, 2)
    assert res.removed == (1,)
    assert res.func.q == 2
    assert res.func.value((0, 0, 1)) == 2  # renumbered: 2 -> 1

    allzero = SymFunc.from_weights(2, 3, {})
    res = prune_domain(allzero)
    assert res.kept == () and res.removed == (0, 1) and res.func.q == 0


def test_domain_components():
    assert domain_components(fx.parity()) == ((0, 1),)
    assert domain_components(fx.parity_loop_blocks()) == ((0, 1), (2,))
    assert domain_components(fx.mixed()) == ((0, 1, 2, 3),)
    with pytest.raises(ValueError):
        domain_components(SymFunc.from_weights(2, 3, {(0, 0, 0): Fraction(1)}))


def test_degrees():
    g = Hypergraph(5, ((0, 1, 2), (2, 3, 4)))
    assert degrees(g) == (1, 1, 2, 1, 1)
    c = CspInstance(3, ((0, 0, 1),), ())
    assert degrees(c) == (2, 1, 0)


def test_instance_components():
    g = Hypergraph(7, ((0, 1, 2), (2, 3, 4)))
    comps = instance_components(g)
    assert comps.isolated == 2
    assert len(comps.pieces) == 1
    piece, verts = comps.pieces[0]
    assert verts == (0, 1, 2, 3, 4)
    assert piece.n == 5

    two = instance_components(Hypergraph(6, ((0, 1, 2), (3, 4, 5))))
    assert len(two.pieces) == 2 and two.isolated == 0


def test_instance_components_csp_equality_spanning():
    """Equalities never reach a piece: the plan refuses every instance that
    carries one, with the message eval gives, wherever the pair lies."""
    ok = instance_components(CspInstance(4, ((0, 1, 2),)))
    assert ok.isolated == 1 and len(ok.pieces) == 1
    for eqs in (((0, 1),), ((0, 3),), ((4, 5), (2, 3)), ((5, 3),), ((1, 1),)):
        inst = CspInstance(6, ((3, 4, 5), (0, 1, 2)), eqs)
        for walk in (instance_plan, instance_components):
            with pytest.raises(ValueError, match="equality constraints"):
                walk(inst)


def test_instance_components_are_the_plan_runs():
    """Pieces by least vertex, each connected, vertices ascending and scopes
    in non-decreasing plan depth; together they hold every scope once, and
    isolated counts the vertices in no scope."""
    rng = random.Random(1818)
    for _ in range(150):
        r = rng.randint(2, 4)
        make, n_max, m_max = rng.choice(((fx.random_hypergraph, 14, 12), (fx.random_csp, 10, 8)))
        inst = _shuffled_union(rng, make(rng, n_max, m_max, r), make(rng, n_max, m_max, r))
        order, _, _ = instance_plan(inst)
        pos = {v: i for i, v in enumerate(order)}
        split = instance_components(inst)
        leasts = [verts[0] for _, verts in split.pieces]
        assert leasts == sorted(leasts)
        scopes = []
        for piece, verts in split.pieces:
            assert list(verts) == sorted(set(verts))
            assert set(link_roots(piece.n, piece.scopes)) == {0}
            back = [tuple(verts[v] for v in scope) for scope in piece.scopes]
            depths = [max(pos[v] for v in scope) for scope in back]
            assert depths == sorted(depths)
            scopes += back
        assert sorted(scopes) == sorted(inst.scopes)
        assert split.isolated == inst.n - len(set(chain.from_iterable(inst.scopes)))
