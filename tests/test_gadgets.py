"""Gadget constructions and their counting identities, checked by brute force."""

import random
import time
from fractions import Fraction
from itertools import chain, combinations_with_replacement

import pytest

from hyperhom import fixtures as fx
from hyperhom.abelian import count_homs
from hyperhom.dichotomy import classify
from hyperhom.evaluator import eval_bruteforce, eval_tractable
from hyperhom.gadgets import (
    InterpolationPlan,
    component_separator,
    contract_equalities,
    equality_eliminator,
    eval_table_brute,
    gram,
    pad_to_arity,
    power_function,
    recover_via_interpolation,
    relation_to_symfunc,
    separator_eta,
    tilde_f,
    two_stretch,
    vertex_power,
)
from hyperhom.model import CspInstance, Hypergraph, SymFunc, marginalize, orderings_count
from test_model import link_roots

EDGE3 = Hypergraph(3, ((0, 1, 2),))
TRIANGLE = Hypergraph(3, ((0, 1), (0, 2), (1, 2)))


def test_pad_structure():
    res = pad_to_arity(Hypergraph(2, ((0, 1),)), 2, 3)
    assert res.instance.n == 3
    assert res.instance.edges == ((0, 1, 2),)
    assert res.maps["fresh_per_edge"] == [[2]]

    same = pad_to_arity(EDGE3, 3, 3)
    assert same.instance == EDGE3

    with pytest.raises(ValueError):
        pad_to_arity(TRIANGLE, 3, 4)  # declared arity does not match edges
    with pytest.raises(ValueError):
        pad_to_arity(EDGE3, 3, 2)


def test_pad_identity_parity():
    res = pad_to_arity(TRIANGLE, 2, 3)
    lhs = eval_bruteforce(fx.parity(), res.instance)
    rhs = eval_table_brute(marginalize(fx.parity(), 2), TRIANGLE)
    assert lhs == rhs == 8


def test_pad_identity_random_tables():
    rng = random.Random(61)
    for _ in range(6):
        g = fx.random_table(rng, rng.randint(2, 3), zero_frac=0.25)
        inst = Hypergraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
        res = pad_to_arity(inst, 2, 3)
        assert eval_bruteforce(g, res.instance) == eval_table_brute(
            marginalize(g, 2), inst
        )


def test_stretch_structure():
    res = two_stretch(TRIANGLE)
    assert res.instance.n == 6
    assert len(res.instance.edges) == 6

    path = two_stretch(Hypergraph(2, ((0, 1),)))
    assert path.instance.edges == ((0, 2), (1, 2))

    loop = two_stretch(CspInstance(1, ((0, 0),), ()))
    assert loop.instance.n == 2
    assert tuple(loop.instance.scopes) == ((0, 1), (0, 1))


def test_gram_example():
    h = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]]
    assert gram(h) == ((Fraction(5), Fraction(4)), (Fraction(4), Fraction(5)))
    with pytest.raises(ValueError):
        gram([[Fraction(1), Fraction(2)]])


def test_tilde_examples():
    assert tilde_f(fx.all_ones(), 3) == (
        (Fraction(4), Fraction(4)),
        (Fraction(4), Fraction(4)),
    )
    assert tilde_f(fx.parity(), 3) == (
        (Fraction(2), Fraction(0)),
        (Fraction(0), Fraction(2)),
    )
    assert tilde_f(fx.geometric(), 3) == (
        (Fraction(25), Fraction(50)),
        (Fraction(50), Fraction(100)),
    )
    with pytest.raises(ValueError):
        tilde_f(fx.parity(), 1)


def test_tilde_is_gram_of_marginal():
    for g in (fx.parity(), fx.geometric(), fx.mixed()):
        f2 = marginalize(g, 2)
        h = [[f2.value((x, y)) for y in range(g.q)] for x in range(g.q)]
        assert tilde_f(g, 2) == gram(h)


def dense_tilde_f(g, k):
    """tilde_f as a walk over every (k-1)-multiset w of the domain."""
    f = marginalize(g, k)
    out = [[Fraction(0)] * g.q for _ in range(g.q)]
    for w in combinations_with_replacement(range(g.q), k - 1):
        mult = orderings_count(w)
        vals = [f.value((z,) + w) for z in range(g.q)]
        for z in range(g.q):
            vz = vals[z]
            if not vz:
                continue
            row = out[z]
            for zp in range(z, g.q):
                if vals[zp]:
                    row[zp] += mult * vz * vals[zp]
    for z in range(g.q):
        for zp in range(z + 1, g.q):
            out[zp][z] = out[z][zp]
    return tuple(tuple(row) for row in out)


def test_tilde_matches_dense_walk_on_seeded_tables():
    rng = random.Random(2718)
    tables = [fx.parity(), fx.geometric(), fx.mixed(), fx.steiner_fano(), fx.not_all_zero()]
    for _ in range(12):
        q, r = rng.randint(1, 8), rng.randint(3, 4)
        tables.append(fx.random_table(rng, q, r, zero_frac=rng.choice((0.3, 0.8))))
        tables.append(fx.random_tractable(rng, q, r))
    for g in tables:
        for k in range(2, g.r + 1):
            assert tilde_f(g, k) == dense_tilde_f(g, k), (g.q, g.r, k)


def test_tilde_integer_sums_match_dense_walk_on_coprime_denominators():
    # tilde_f sums over one common denominator: weights over distinct large
    # primes make it the product of all of them, and every entry's Fraction
    # must still come out in lowest terms, equal to the dense walk's
    rng = random.Random(7919)
    primes = [1_000_003, 998_244_353, 1_000_000_007, 2_147_483_647, 10**9 + 9, 999_999_937]
    for q, r in ((3, 3), (4, 3), (3, 4)):
        keys = list(combinations_with_replacement(range(q), r))
        weights = {
            key: Fraction(rng.randint(1, 10**12), rng.choice(primes))
            for key in keys
            if rng.random() < 0.7
        }
        g = SymFunc.from_weights(q, r, weights)
        for k in range(2, r + 1):
            assert tilde_f(g, k) == dense_tilde_f(g, k), (q, r, k)


def test_stretch_identity():
    # Z^h(stretch(I)) = Z^{gram(h)}(I), including a loop
    for g in (fx.geometric(), fx.mixed()):
        f2 = marginalize(g, 2)
        h = [[f2.value((x, y)) for y in range(g.q)] for x in range(g.q)]
        h2 = gram(h)
        table = SymFunc(
            g.q, 2, {(x, y): h2[x][y] for x in range(g.q) for y in range(x, g.q) if h2[x][y]}
        )
        for inst in (
            TRIANGLE,
            Hypergraph(2, ((0, 1),)),
            CspInstance(2, ((0, 0), (0, 1)), ()),
        ):
            res = two_stretch(inst)
            assert eval_table_brute(table, inst) == eval_table_brute(f2, res.instance)


def test_stretch_refuses_equalities():
    """The stretched graph has no equality constraints, and dropping them
    changes Z, so a csp carrying some is refused."""
    h = SymFunc(2, 2, {(0, 0): Fraction(1), (0, 1): Fraction(2), (1, 1): Fraction(5)})
    h2 = gram([[1, 2], [2, 5]])
    table = SymFunc(2, 2, {(x, y): h2[x][y] for x in range(2) for y in range(x, 2)})
    csp = CspInstance(3, ((0, 1), (1, 2)), ((0, 2),))
    dropped = CspInstance(3, csp.scopes, ())
    assert eval_table_brute(table, csp) == 1154
    assert eval_table_brute(h, two_stretch(dropped).instance) == eval_table_brute(table, dropped) == 1970
    with pytest.raises(ValueError, match=r"drops equality constraints \[\(0, 2\)\]"):
        two_stretch(csp)


def test_vertex_power_structure():
    res = vertex_power(EDGE3, 2)
    assert res.instance.n == 9
    assert len(res.instance.edges) == 4
    assert vertex_power(EDGE3, 1).instance == EDGE3
    with pytest.raises(ValueError):
        vertex_power(EDGE3, 0)

    two = vertex_power(Hypergraph(4, ((0, 1, 2), (1, 2, 3))), 3)
    # every vertex gains (j-1)*d pendant edges: degrees (1,2,2,1) -> 12 new
    assert len(two.instance.edges) == 2 + 12
    assert two.instance.n == 4 + 12 * 2


def test_vertex_power_identity():
    """Budget: 3 s for the whole test (about 0.5 s measured on a 2-vCPU VM)."""
    started = time.perf_counter()
    rng = random.Random(17)
    two_edges = Hypergraph(4, ((0, 1, 2), (1, 2, 3)))
    # vertex_power(loose, 2) has n = 801, but its frontier holds 6 live vertices
    loose = Hypergraph(201, tuple((2 * i, 2 * i + 1, 2 * i + 2) for i in range(100)))
    gs = [fx.geometric(), fx.mixed(), fx.parity(), fx.random_table(rng, 2, zero_frac=0.2)]
    for g in gs:
        cls = classify(g)
        for j in (1, 2):
            hj = power_function(g, j)
            # vertex_power(two_edges, 2) has q^16 assignments, 4^16 for mixed(),
            # but its frontier holds a few thousand states
            for inst in (EDGE3, two_edges, loose):
                res = vertex_power(inst, j)
                z = eval_bruteforce(g, res.instance)
                assert eval_bruteforce(hj, inst) == z
                if cls.tractable:
                    assert eval_tractable(cls, res.instance).value == z
    assert time.perf_counter() - started < 3.0


def test_power_function_geometric_single_edge():
    hj = power_function(fx.geometric(), 2)
    lhs = eval_bruteforce(hj, EDGE3)
    rhs = eval_bruteforce(fx.geometric(), vertex_power(EDGE3, 2).instance)
    assert lhs == rhs == 91125


def test_separator_structure():
    one = component_separator(EDGE3, 1)
    assert one.instance.n == 9
    assert len(one.instance.edges) == 7  # 1 original + 2 linking per vertex

    two = component_separator(EDGE3, 2)
    assert two.instance.n == 18
    assert len(two.instance.edges) == 14

    with pytest.raises(ValueError):
        component_separator(Hypergraph(6, ((0, 1, 2), (3, 4, 5))), 1)
    with pytest.raises(ValueError):
        component_separator(EDGE3, 0)


def test_separator_eta_values():
    g = fx.parity_loop_blocks()
    cls = classify(g)
    etas = [separator_eta(comp, EDGE3) for comp in cls.components]
    assert etas == [Fraction(8), Fraction(1)]

    g4 = fx.parity_allones_blocks()
    cls4 = classify(g4)
    etas4 = [separator_eta(comp, EDGE3) for comp in cls4.components]
    assert etas4 == [Fraction(8), Fraction(512)]


def test_separator_recovery_two_components():
    g = fx.parity_loop_blocks()
    cls = classify(g)
    etas = tuple(separator_eta(comp, EDGE3) for comp in cls.components)
    gammas = [count_homs(c.group.decomposition, c.group.a, EDGE3) for c in cls.components]
    obs = []
    for p in (1, 2):
        sep = component_separator(EDGE3, p)
        obs.append(eval_bruteforce(g, sep.instance, cap=10**9))
    assert obs == [Fraction(33), Fraction(257)]
    res = recover_via_interpolation(InterpolationPlan(etas, tuple(obs)))
    assert list(res.gamma) == gammas
    assert res.z0 == eval_tractable(cls, EDGE3).value == 5


def test_separator_single_component_recovery():
    g = fx.parity()
    cls = classify(g)
    eta = separator_eta(cls.components[0], EDGE3)
    sep = component_separator(EDGE3, 1)
    z1 = eval_bruteforce(g, sep.instance, cap=10**9)
    res = recover_via_interpolation(InterpolationPlan((eta,), (z1,)))
    assert res.gamma == (Fraction(4),)
    assert res.z0 == 4


def test_equality_eliminator_structure():
    inst = CspInstance(3, ((0, 1, 2),), ((0, 1),))
    res = equality_eliminator(inst, 1)
    assert res.instance.n == 5
    assert len(res.instance.scopes) == 3
    res = equality_eliminator(inst, 3)
    assert res.instance.n == 3 + 2 * 3
    assert len(res.instance.scopes) == 1 + 2 * 3
    with pytest.raises(ValueError):
        equality_eliminator(inst, 0)


def test_equality_eliminator_identity_single():
    g = fx.parity()
    inst = CspInstance(3, ((0, 1, 2),), ((0, 1),))
    contracted, _ = contract_equalities(inst)
    base = eval_bruteforce(g, contracted)
    assert base == 2
    for p in (1, 2, 3):
        res = equality_eliminator(inst, p)
        got = eval_bruteforce(g, res.instance)
        assert got == base * Fraction(2) ** p  # |A|^((k-2)*nu*p), nu=1, k=3


def test_equality_eliminator_identity_two_equalities():
    # nu = 2 pins the nu factor in the exponent
    g = fx.parity()
    inst = CspInstance(4, ((0, 1, 2), (1, 2, 3)), ((0, 1), (2, 3)))
    contracted, _ = contract_equalities(inst)
    base = eval_bruteforce(g, contracted)
    for p in (1, 2):
        res = equality_eliminator(inst, p)
        got = eval_bruteforce(g, res.instance)
        assert got == base * Fraction(2) ** (2 * p)


def test_equality_eliminator_mod3():
    # |A| = 3 exercises the group-order base
    g = fx.structured_family(
        [(fx.group_from_factors(3), 1, (Fraction(1),), 0, Fraction(1))]
    )
    inst = CspInstance(3, ((0, 1, 2),), ((1, 2),))
    contracted, _ = contract_equalities(inst)
    base = eval_bruteforce(g, contracted)
    res = equality_eliminator(inst, 2)
    assert eval_bruteforce(g, res.instance) == base * Fraction(3) ** 2


def test_contract_equalities():
    inst = CspInstance(5, ((0, 2, 4),), ((0, 1), (1, 3)))
    out, vmap = contract_equalities(inst)
    assert out.n == 3
    assert vmap[0] == vmap[1] == vmap[3]
    assert out.equalities == ()
    assert len(out.scopes) == 1


def test_contract_equalities_matches_union_find():
    """The classes are those of a union-find over the equalities, numbered by
    least member, on CSPs with self-pairs (u, u), repeated pairs, no
    equalities and variables in no equality."""
    rng = random.Random(2121)
    seen = set()
    for _ in range(600):
        n = rng.randint(1, 12)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))]
        if pairs and rng.random() < 0.3:
            u = rng.randrange(n)
            pairs.append((u, u))
        if pairs and rng.random() < 0.3:
            pairs += rng.sample(pairs, rng.randint(1, len(pairs)))
        rng.shuffle(pairs)
        scopes = tuple(tuple(rng.randrange(n) for _ in range(3)) for _ in range(rng.randint(0, 4)))
        out, vmap = contract_equalities(CspInstance(n, scopes, tuple(pairs)))
        root = link_roots(n, pairs)
        leasts = sorted(set(root))
        assert vmap == tuple(leasts.index(least) for least in root)
        assert out.n == len(leasts) and out.equalities == ()
        assert out.scopes == tuple(tuple(vmap[v] for v in s) for s in scopes)
        seen.add((
            any(u == w for u, w in pairs),
            len(set(pairs)) < len(pairs),
            not pairs,
            len(set(chain.from_iterable(pairs))) < n,
        ))
    assert {feature for key in seen for feature, on in enumerate(key) if on} == {0, 1, 2, 3}


def test_relation_to_symfunc():
    g = relation_to_symfunc(frozenset({(0, 0, 0), (0, 1, 1)}), 2, 3)
    assert g.weights == fx.parity().weights


def test_interpolation_examples():
    res = recover_via_interpolation(
        InterpolationPlan((Fraction(1), Fraction(2)), (Fraction(3), Fraction(5)))
    )
    assert res.gamma == (Fraction(1), Fraction(1))
    assert res.z0 == 2

    res = recover_via_interpolation(InterpolationPlan((Fraction(3),), (Fraction(6),)))
    assert res.gamma == (Fraction(2),)
    assert res.z0 == 2

    merged = recover_via_interpolation(
        InterpolationPlan(
            (Fraction(2), Fraction(2)), (Fraction(4), Fraction(8))
        )
    )
    assert merged.gamma is None
    assert merged.merged_etas == (Fraction(2),)
    assert merged.merged_gamma == (Fraction(2),)
    assert merged.z0 == 2


def test_interpolation_errors():
    with pytest.raises(ValueError):
        recover_via_interpolation(InterpolationPlan((Fraction(0),), (Fraction(1),)))
    with pytest.raises(ValueError):
        recover_via_interpolation(InterpolationPlan((), ()))
    with pytest.raises(ValueError):
        recover_via_interpolation(
            InterpolationPlan((Fraction(1), Fraction(2)), (Fraction(3),))
        )
    with pytest.raises(ValueError):
        # surplus observation inconsistent with the first two
        recover_via_interpolation(
            InterpolationPlan(
                (Fraction(1), Fraction(2)),
                (Fraction(3), Fraction(5), Fraction(100)),
            )
        )


def test_interpolation_surplus_consistent():
    # gamma = (1, 1): Z_p = 1 + 2^p
    plan = InterpolationPlan(
        (Fraction(1), Fraction(2)),
        (Fraction(3), Fraction(5), Fraction(9)),
    )
    res = recover_via_interpolation(plan)
    assert res.gamma == (Fraction(1), Fraction(1))


def test_brute_harness_helpers():
    f2 = marginalize(fx.parity(), 2)
    assert eval_table_brute(f2, TRIANGLE) == 8
    h = SymFunc(2, 2, {(0, 0): Fraction(1), (0, 1): Fraction(2), (1, 1): Fraction(1)})
    assert eval_table_brute(h, Hypergraph(2, ((0, 1),))) == 6
    # the size guard compares q^n with 10^7 without forming q^n
    with pytest.raises(ValueError, match="exceed 10\\^7"):
        eval_table_brute(fx.parity(), CspInstance(10**20, ((0, 1, 2),)))
    # an assignment that breaks an equality adds nothing, so the plain sum
    # equals the oracle on the contracted instance
    assert eval_table_brute(fx.parity(), CspInstance(4, ((0, 1, 2),), ((0, 3),))) == 4
    rng = random.Random(2525)
    for _ in range(60):
        q, r, n = rng.randint(1, 3), rng.randint(3, 4), rng.randint(1, 6)
        g = fx.random_table(rng, q, r, zero_frac=0.3)
        scopes = tuple(tuple(rng.randrange(n) for _ in range(r)) for _ in range(rng.randint(0, 3)))
        pairs = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 3)))
        inst = CspInstance(n, scopes, pairs)
        assert eval_table_brute(g, inst) == eval_bruteforce(g, contract_equalities(inst)[0])
    # marginals of arity 1 and 2: the oracle reads a one-position scope as a
    # tuple too
    f1 = marginalize(fx.parity(), 1)
    assert eval_bruteforce(f1, CspInstance(2, ((0,), (1,), (0,)))) == 32
    for _ in range(30):
        q, r, n = rng.randint(1, 3), rng.randint(3, 4), rng.randint(1, 6)
        g = fx.random_table(rng, q, r, zero_frac=0.3)
        for k in (1, 2):
            f = marginalize(g, k)
            scopes = tuple(tuple(rng.randrange(n) for _ in range(k)) for _ in range(rng.randint(0, 4)))
            pairs = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2)))
            inst = CspInstance(n, scopes, pairs)
            assert eval_table_brute(f, inst) == eval_bruteforce(f, contract_equalities(inst)[0])
