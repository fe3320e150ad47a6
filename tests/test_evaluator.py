"""Evaluation paths: brute force, closed form, DP, monomial machinery."""

import json
import math
import random
import time
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement

import pytest

from hyperhom import evaluator, fixtures as fx
from hyperhom.abelian import AbelianGroup
from hyperhom.dichotomy import classify
from hyperhom.evaluator import (
    DEFAULT_BRUTE_CAP,
    CapExceeded,
    EvalReport,
    PieceBreakdown,
    TermBreakdown,
    eval_bruteforce,
    eval_tractable,
    evaluate,
    lambda_factor_direct,
    lambda_monomial_dp,
    monomial_value,
    resolve_brute_cap,
)
from hyperhom.exactcore import format_rational
from hyperhom.gadgets import component_separator
from hyperhom.model import CspInstance, Hypergraph, SymFunc, degrees, instance_components, instance_plan

EDGE = Hypergraph(3, ((0, 1, 2),))


def test_bruteforce_examples():
    assert eval_bruteforce(fx.all_ones(), EDGE) == 8
    assert eval_bruteforce(fx.parity(), EDGE) == 4
    assert eval_bruteforce(fx.geometric(), EDGE) == 27
    assert eval_bruteforce(fx.mixed(), EDGE) == 256


def test_bruteforce_isolated_and_edgeless():
    plus_isolated = Hypergraph(4, ((0, 1, 2),))
    assert eval_bruteforce(fx.parity(), plus_isolated) == 8
    assert eval_bruteforce(fx.parity(), Hypergraph(3, ())) == 8  # 2^3
    assert eval_bruteforce(fx.mixed(), Hypergraph(2, ())) == 16  # 4^2


def test_bruteforce_csp_scope():
    inst = CspInstance(2, ((0, 0, 1),), ())
    assert eval_bruteforce(fx.parity(), inst) == 2


def test_bruteforce_rejects_equalities():
    inst = CspInstance(3, ((0, 1, 2),), ((0, 1),))
    with pytest.raises(ValueError, match="gadget"):
        eval_bruteforce(fx.parity(), inst)


def test_bruteforce_rational_weights():
    g = fx.random_table(random.Random(5), 3, zero_frac=0.2)
    inst = Hypergraph(4, ((0, 1, 2), (1, 2, 3)))
    direct = Fraction(0)
    from itertools import product

    for x in product(range(3), repeat=4):
        w = Fraction(1)
        for e in inst.edges:
            w *= g.value(tuple(x[v] for v in e))
        direct += w
    assert eval_bruteforce(g, inst) == direct


def test_bruteforce_deeper_than_recursion_limit():
    # a loose path with 600 edges: a plan 1200 deep, past Python's default
    # recursion limit of 1000, at q = 2
    loose = [(2 * i, 2 * i + 1, 2 * i + 2) for i in range(600)]
    path = Hypergraph(1201, tuple(loose))
    for g in (fx.parity(), fx.random_table(random.Random(71), 2, zero_frac=0.2)):
        assert eval_bruteforce(g, path) == _loose_path_z(g, loose)
    # q = 1 and 1197 vertices in no scope, each a factor of 1 outside every state
    one = SymFunc.from_weights(1, 3, {(0, 0, 0): Fraction(3, 2)})
    assert eval_bruteforce(one, Hypergraph(1200, ((0, 1, 2),))) == Fraction(3, 2)


def _shuffled_union(rng, left, right):
    """left and right side by side, under one random relabelling of all vertices."""
    label = list(range(left.n + right.n))
    rng.shuffle(label)
    scopes = [tuple(label[v] for v in scope) for scope in left.scopes]
    scopes += [tuple(label[left.n + v] for v in scope) for scope in right.scopes]
    if isinstance(left, Hypergraph):
        return Hypergraph(len(label), tuple(tuple(sorted(e)) for e in scopes))
    return CspInstance(len(label), tuple(scopes), ())


def test_plan_orders_pieces_contiguously_and_completes_each_scope_once():
    rng = random.Random(7702)
    split = 0
    for _ in range(200):
        r = rng.randint(2, 4)
        make, n_max, m_max = rng.choice(((fx.random_hypergraph, 14, 25), (fx.random_csp, 10, 20)))
        inst = make(rng, n_max, m_max, r)
        if rng.random() < 0.5:
            inst = _shuffled_union(rng, inst, make(rng, n_max, m_max, r))
        order, _, completing = instance_plan(inst)
        assert sorted(order) == sorted(set(chain.from_iterable(inst.scopes)))
        pos = {v: i for i, v in enumerate(order)}
        placed = sorted((d, positions) for d, level in enumerate(completing) for positions in level)
        scopes = [tuple(pos[v] for v in scope) for scope in inst.scopes]
        assert placed == sorted((max(positions), positions) for positions in scopes)
        pieces = instance_components(inst).pieces
        for _, verts in pieces:
            spots = sorted(pos[v] for v in verts)
            assert spots[-1] - spots[0] == len(spots) - 1
        split += len(pieces) > 1
    assert split >= 60


def test_plan_scales_to_sparse_instances():
    """One edge among 3*10^6 vertices, and among 10^20 (past the largest
    index): the walk, the oracle and the structured path touch only the
    edge's vertices; the rest multiply Z by q = 1 outside every state and
    every piece."""
    one = SymFunc.from_weights(1, 3, {(0, 0, 0): Fraction(3, 2)})
    for n in (3_000_000, 10**20):
        sparse = Hypergraph(n, ((0, 1, 2),))
        started = time.perf_counter()
        order, starts, _ = instance_plan(sparse)
        assert time.perf_counter() - started < 1.0
        assert (order, starts) == ([0, 1, 2], [0])
        for run in (lambda: eval_bruteforce(one, sparse), lambda: evaluate(one, sparse, "structured")[0].value):
            started = time.perf_counter()
            assert run() == Fraction(3, 2)
            assert time.perf_counter() - started < 1.0
        assert instance_components(sparse).isolated == n - 3
        with pytest.raises(ValueError, match="connected"):
            component_separator(sparse, 1)


def _complete(n):
    """The complete 3-uniform hypergraph: every vertex stays live to the last
    depth, so the frontier sum's state bound is 1 + q + ... + q^n."""
    return Hypergraph(n, tuple(combinations(range(n), 3)))


def test_cap_guard_and_resolution():
    wide = _complete(40)  # 2^41 - 1 states
    with pytest.raises(CapExceeded):
        eval_bruteforce(fx.parity(), wide, cap=2**30)
    assert resolve_brute_cap(None) == DEFAULT_BRUTE_CAP
    assert resolve_brute_cap(123) == 123
    small = _complete(12)
    with pytest.raises(CapExceeded):
        eval_bruteforce(fx.parity(), small, cap=5000)  # 2^13 - 1 > 5000
    assert eval_bruteforce(fx.parity(), small, cap=9001) == _reference_bruteforce(fx.parity(), small)
    # vertices in no scope never enter a state, whatever q^n
    assert eval_bruteforce(fx.parity(), Hypergraph(13, ()), cap=1) == 8192


def test_cap_boundary_is_the_state_count():
    for g in (fx.parity(), fx.mixed(), fx.random_table(random.Random(11), 3, zero_frac=0.3)):
        inst = _complete(5)
        count = sum(g.q**k for k in range(6))
        assert eval_bruteforce(g, inst, cap=count) == _reference_bruteforce(g, inst)
        with pytest.raises(CapExceeded, match=f"^{count} or more states exceed the configured cap {count - 1}$"):
            eval_bruteforce(g, inst, cap=count - 1)
    one_edge = Hypergraph(40, ((0, 1, 2),))  # 1 + 2 + 4 + 8 states; 37 free vertices
    assert eval_bruteforce(fx.parity(), one_edge, cap=15) == 2**39
    with pytest.raises(CapExceeded, match="^15 or more states"):
        eval_bruteforce(fx.parity(), one_edge, cap=14)


def test_cap_refuses_acceptance6_shape_before_any_state():
    inst = fx.random_connected_hypergraph(random.Random(606), 1000, 10000, 3)
    g = fx.mixed()
    started = time.perf_counter()
    with pytest.raises(CapExceeded) as refusal:
        eval_bruteforce(g, inst, cap=DEFAULT_BRUTE_CAP)
    assert time.perf_counter() - started < 1.0
    # the bound stops at its first step past the cap, and a step adds at
    # most q times the bound before it
    count = int(str(refusal.value).split()[0])
    assert DEFAULT_BRUTE_CAP < count <= (g.q + 1) * DEFAULT_BRUTE_CAP


def _loose_path_z(g, edges):
    """Z on a loose path, edge i sharing its first vertex with edge i-1's
    last: a vector over the shared vertex, pushed through each edge."""
    q = g.q
    vec = [Fraction(1)] * q
    for _ in edges:
        vec = [sum(vec[a] * g.value((a, b, c)) for a in range(q) for b in range(q)) for c in range(q)]
    return sum(vec)


def test_oracle_equals_structured_at_scale():
    """The oracle against the structured path on narrow instances whose q^n
    no enumeration reaches, the loose path also under shuffled labels, and
    component separators of one edge. Budget: 5 s for the whole test (about
    1.3 s measured on a 2-vCPU VM, steiner_fano included)."""
    started = time.perf_counter()
    rng = random.Random(1604)
    loose = [(2 * i, 2 * i + 1, 2 * i + 2) for i in range(100)]
    label = list(range(201))
    random.Random(1604).shuffle(label)
    shuffled = Hypergraph(201, tuple(tuple(sorted(label[v] for v in e)) for e in loose))
    tight = [(i, i + 1, i + 2) for i in range(58)]
    cycle = [tuple(sorted((i, (i + 1) % 60, (i + 2) % 60))) for i in range(60)]
    instances = [Hypergraph(201, tuple(loose)), shuffled, Hypergraph(60, tuple(tight)), Hypergraph(60, tuple(cycle))]
    functions = [fx.mixed(), fx.parity(), fx.geometric(), fx.parity_loop_blocks(), fx.parity_allones_blocks()]
    functions += [fx.random_tractable(rng, q) for q in (4, 5)]  # seeded blocks, junk and s >= 2
    for g in functions:
        cls = classify(g)
        for inst in instances:
            assert eval_bruteforce(g, inst) == eval_tractable(cls, inst).value
    mixed = classify(fx.mixed())
    for p in (3, 4, 6):
        sep = component_separator(EDGE, p).instance
        assert eval_bruteforce(mixed.func, sep) == eval_tractable(mixed, sep).value
    # a hard function, so only the oracle has a value, over 7^201 assignments
    fano = fx.steiner_fano()
    for inst in instances[:2]:
        assert eval_bruteforce(fano, inst) == _loose_path_z(fano, loose)
    assert time.perf_counter() - started < 5.0


def test_cap_rejects_negative_and_malformed_values():
    edge = Hypergraph(3, ((0, 1, 2),))
    with pytest.raises(ValueError, match="-1"):
        resolve_brute_cap(-1)
    with pytest.raises(ValueError, match="-1"):
        eval_bruteforce(fx.parity(), edge, cap=-1)
    assert resolve_brute_cap(0) == 0
    with pytest.raises(CapExceeded, match="cap 0"):
        eval_bruteforce(fx.parity(), edge, cap=0)
    with pytest.raises(CapExceeded, match="cap 0"):
        eval_bruteforce(fx.parity(), Hypergraph(0, ()), cap=0)  # even one assignment
    for bad in (1.5, "abc", True):
        with pytest.raises(ValueError, match="must be an int"):
            resolve_brute_cap(bad)
    with pytest.raises(ValueError, match="'abc'"):
        eval_bruteforce(fx.parity(), edge, cap="abc")


def test_lambda_factor_direct_examples():
    mixed_fs = classify(fx.mixed()).components[0].factor
    geom_fs = classify(fx.geometric()).components[0].factor
    parity_fs = classify(fx.parity()).components[0].factor
    assert lambda_factor_direct(geom_fs, (1, 1, 1), 1) == 27
    assert lambda_factor_direct(mixed_fs, (1, 1, 1), 1) == 64
    assert lambda_factor_direct(mixed_fs, (1, 1, 2, 1, 1), 2) == 2560
    assert lambda_factor_direct(parity_fs, (1, 1, 2, 1, 1), 2) == 1
    with pytest.raises(ValueError):
        lambda_factor_direct(mixed_fs, (1, 1, 1), 2)  # degree sum mismatch


def test_lambda_monomial_dp_examples():
    geom_fs = classify(fx.geometric()).components[0].factor
    coeff, value = lambda_monomial_dp(geom_fs, EDGE)
    assert value == 27
    coeffs = {vec: c for vec, c in coeff.items()}
    assert coeffs == {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}

    mixed_fs = classify(fx.mixed()).components[0].factor
    two = Hypergraph(5, ((0, 1, 2), (2, 3, 4)))
    _, value = lambda_monomial_dp(mixed_fs, two)
    assert value == 2560

    parity_fs = classify(fx.parity()).components[0].factor
    coeff, value = lambda_monomial_dp(parity_fs, EDGE)
    assert value == 1
    assert list(coeff.items()) == [((3,), 1)]

    with pytest.raises(ValueError):
        lambda_monomial_dp(geom_fs, Hypergraph(3, ()))


def test_tally_sanity_random():
    rng = random.Random(31415)
    for _ in range(15):
        g = fx.random_tractable(rng, rng.randint(2, 4))
        cls = classify(g)
        inst = fx.random_hypergraph(rng, 6, 4, 3)
        if not inst.edges:
            continue
        for comp in cls.components:
            fs = comp.factor
            coeff, value = lambda_monomial_dp(fs, inst)
            assert sum(coeff.values()) == fs.s ** inst.n
            assert all(sum(vec) == 3 * len(inst.edges) for vec in coeff)
            assert value == lambda_factor_direct(fs, degrees(inst), len(inst.edges))


def test_monomial_value_examples():
    geom_fs = classify(fx.geometric()).components[0].factor
    assert monomial_value(geom_fs, (2, 1)) == 2
    assert monomial_value(geom_fs, (3, 0)) == 1
    mixed_fs = classify(fx.mixed()).components[0].factor
    assert monomial_value(mixed_fs, (0, 3)) == 27
    assert monomial_value(mixed_fs, (4, 2)) == 9  # two scopes: C^2 * 1^4 * 3^2, mu = (1, 3)
    for bad in (
        (1, 1),  # sum not divisible by r
        (2, 2),
        (-1, 4),  # negative entry
        (1, 1, 1),  # wrong length
    ):
        with pytest.raises(ValueError):
            monomial_value(mixed_fs, bad)


def test_northwest_examples():
    # the proof's northwest-corner fill of the margins (one column per scope)
    # gives the same value as the direct C^M * prod mu_i^M_i
    cases = {
        (2, 1): ((0, 0, 1),),
        (3, 3): ((0, 0, 0), (1, 1, 1)),
        (4, 2): ((0, 0, 0), (0, 1, 1)),
    }
    weighted = fx.structured_family(
        [(AbelianGroup.cyclic(3), 2, (Fraction(1), Fraction(2)), 0, Fraction(5, 3))]
    )
    for g in (fx.mixed(), weighted):
        fs = classify(g).components[0].factor
        for mvec, columns in cases.items():
            want = Fraction(1)
            for column in columns:
                want *= fs.constant
                for i in column:
                    want *= fs.mu[i]
            assert monomial_value(fs, mvec) == want
        with pytest.raises(ValueError):
            monomial_value(fs, (2, 2))


def test_monomial_value_alpha_independent():
    # a component whose relation has more than three members: Z3 with s=2
    g = fx.structured_family(
        [(AbelianGroup.cyclic(3), 2, (Fraction(1), Fraction(2)), 0, Fraction(1))]
    )
    cls = classify(g)
    fs = cls.components[0].factor
    relation = sorted(fs.relation)
    assert len(relation) >= 3
    for mvec in ((2, 1), (3, 0), (0, 3), (1, 2)):
        want = monomial_value(fs, mvec)
        column = [i for i, m in enumerate(mvec) for _ in range(m)]
        for alpha in relation[:3]:
            z = tuple(fs.classes[c][i] for c, i in zip(alpha, column))
            assert g.value(z) == want


def test_eval_tractable_examples():
    cls = classify(fx.parity())
    assert eval_tractable(cls, EDGE).value == 4
    assert eval_tractable(cls, Hypergraph(4, ((0, 1, 2),))).value == 8
    assert eval_tractable(cls, CspInstance(2, ((0, 0, 1),), ())).value == 2
    assert eval_tractable(classify(fx.mixed()), EDGE).value == 256


def test_eval_tractable_breakdown_and_json():
    cls = classify(fx.parity_loop_blocks())
    report = eval_tractable(cls, EDGE)
    assert report.value == 5
    assert len(report.pieces) == 1
    piece = report.pieces[0]
    assert [t.lam * t.homs for t in piece.terms] == [Fraction(4), Fraction(1)]
    blob = report.to_json()
    json.dumps(blob)
    assert blob["value"] == "5"
    assert blob["pieces"][0]["terms"][0]["homs"] == 4


def test_to_json_formats_each_distinct_rational_once(monkeypatch):
    big = Fraction(7**500, 3)
    terms = (TermBreakdown((0, 1), big, 1), TermBreakdown((2,), Fraction(0), 0))
    report = EvalReport(big, "structured", (PieceBreakdown((0, 1, 2), terms, big),), 0)
    seen = []

    def counted(x):
        seen.append(x)
        return format_rational(x)

    monkeypatch.setattr(evaluator, "format_rational", counted)
    blob = report.to_json()
    assert sorted(seen) == [0, big]
    text = format_rational(big)
    assert (blob["value"], blob["pieces"][0]["total"]) == (text, text)
    assert [t["lambda"] for t in blob["pieces"][0]["terms"]] == [text, "0"]


def test_eval_tractable_methods_agree():
    rng = random.Random(777)
    for _ in range(10):
        g = fx.random_tractable(rng, rng.randint(2, 4))
        cls = classify(g)
        inst = fx.random_hypergraph(rng, 7, 5, 3)
        a = eval_tractable(cls, inst, method="structured").value
        b = eval_tractable(cls, inst, method="structured-dp").value
        assert a == b


def test_eval_multiplicative_over_disjoint_union():
    rng = random.Random(2024)
    for _ in range(8):
        g = fx.random_tractable(rng, rng.randint(2, 4))
        cls = classify(g)
        left = fx.random_hypergraph(rng, 5, 3, 3)
        right = fx.random_hypergraph(rng, 5, 3, 3)
        shifted = tuple(tuple(v + left.n for v in e) for e in right.edges)
        union = Hypergraph(left.n + right.n, left.edges + shifted)
        lv = eval_tractable(cls, left).value
        rv = eval_tractable(cls, right).value
        uv = eval_tractable(cls, union).value
        assert uv == lv * rv


def test_eval_empty_pruned_domain():
    nothing = SymFunc.from_weights(2, 3, {})
    cls = classify(nothing)
    assert eval_tractable(cls, EDGE).value == 0
    assert eval_tractable(cls, Hypergraph(3, ())).value == 8
    assert eval_bruteforce(nothing, EDGE) == 0


def test_evaluate_auto_dispatch():
    report, cls = evaluate(fx.parity(), EDGE, method="auto")
    assert report.method == "structured" and report.value == 4 and cls.tractable

    report, cls = evaluate(fx.not_all_zero(), EDGE, method="auto")
    assert report.method == "brute" and report.value == 7
    assert not cls.tractable

    report, cls = evaluate(fx.parity(), EDGE, method="brute")
    assert report.method == "brute" and report.value == 4 and cls is None

    with pytest.raises(ValueError):
        evaluate(fx.not_all_zero(), EDGE, method="structured")


def test_evaluate_structured_dp():
    report, _ = evaluate(fx.mixed(), EDGE, method="structured-dp")
    assert report.method == "structured-dp" and report.value == 256


# --- differential references: sorted-tuple lookups and tuple DP states,
# sharing no key or state encoding with the evaluators


def _reference_bruteforce(g, inst):
    """DFS over all assignments of the vertices in scopes, in `instance_plan`
    order, with sorted-tuple table lookups and pruning at a partial
    product's first zero; each vertex in no scope multiplies Z by q. It
    shares only the plan with eval_bruteforce, which sums over a frontier
    instead."""
    n, q = inst.n, g.q
    if not inst.scopes:
        return Fraction(q) ** n
    scale = math.lcm(*(w.denominator for w in g.weights.values()))
    table = {key: int(w * scale) for key, w in g.weights.items()}
    order, _, completing = instance_plan(inst)
    sigma, weights = [-1] * len(order), [1] * len(order)
    total, last, depth = 0, len(order) - 1, 0
    while depth >= 0:
        value = sigma[depth] + 1
        if value == q:
            sigma[depth] = -1
            depth -= 1
            continue
        sigma[depth] = value
        w = weights[depth]
        for positions in completing[depth]:
            f = table.get(tuple(sorted(sigma[p] for p in positions)))
            if f is None:
                w = 0
                break
            w *= f
        if not w:
            continue
        if depth == last:
            total += w
        else:
            depth += 1
            weights[depth] = w
    return Fraction(total * q ** (n - len(order)), scale ** len(inst.scopes))


def _reference_monomial_dp(fs, inst):
    """Tuple states of the first s-1 loads, summed as Fractions."""
    degs = degrees(inst)
    r = len(next(iter(fs.relation)))
    states = {(0,) * (fs.s - 1): 1}
    for d in degs:
        nxt = {}
        for state, cnt in states.items():
            for i in range(fs.s - 1):
                key = state[:i] + (state[i] + d,) + state[i + 1 :]
                nxt[key] = nxt.get(key, 0) + cnt
            nxt[state] = nxt.get(state, 0) + cnt
        states = nxt
    total = r * len(inst.scopes)
    coeff, value = {}, Fraction(0)
    for state, cnt in sorted(states.items()):
        mvec = state + (total - sum(state),)
        coeff[mvec] = cnt
        value += cnt * monomial_value(fs, mvec)
    return coeff, value


def _random_instance(rng, n, r, m_max=6):
    """A CSP (repeated variables, isolated vertices) or a hypergraph on n vertices."""
    if rng.random() < 0.6 or n < r:
        scopes = tuple(tuple(rng.randrange(n) for _ in range(r)) for _ in range(rng.randint(0, m_max)))
        return CspInstance(n, scopes, ())
    edges = {tuple(sorted(rng.sample(range(n), r))) for _ in range(rng.randint(0, m_max))}
    return Hypergraph(n, tuple(sorted(edges)))


def _random_weights(rng, q, r):
    """A random table, sometimes with all-zero rows (elements in no key)."""
    dead = {z for z in range(q) if rng.random() < 0.25}
    weights = {
        key: Fraction(rng.randint(1, 9), rng.randint(1, 5))
        for key in combinations_with_replacement(range(q), r)
        if not dead.intersection(key) and rng.random() < 0.7
    }
    return SymFunc.from_weights(q, r, weights)


def test_bruteforce_matches_reference_dfs():
    rng = random.Random(1101)
    shapes = set()
    for _ in range(400):
        r, q = rng.randint(3, 5), rng.randint(1, 4)
        n_max = 12
        while q > 1 and q**n_max > 2000:
            n_max -= 1
        n = 1 if rng.random() < 0.1 else rng.randint(1, n_max)
        g, inst = _random_weights(rng, q, r), _random_instance(rng, n, r)
        assert eval_bruteforce(g, inst) == _reference_bruteforce(g, inst), (g.weights, inst)
        shapes.add((r, q == 1, n == 1, isinstance(inst, CspInstance)))
    assert len(shapes) == 18  # every arity with q=1 or not, n=1 and both instance kinds


def _random_factor(rng, s, r):
    mu = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 6)) for _ in range(s))
    group = AbelianGroup.cyclic(rng.randint(1, 2))
    g = fx.structured_family([(group, s, mu, 0, Fraction(rng.randint(1, 7), rng.randint(1, 4)))], r=r)
    return classify(g).components[0].factor


def test_monomial_dp_matches_reference_tuple_states():
    rng = random.Random(1102)
    for _ in range(120):
        s, r = rng.randint(1, 5), rng.randint(3, 5)
        fs = _random_factor(rng, s, r)
        inst = _random_instance(rng, rng.randint(1, 6), r, m_max=4)
        if not inst.scopes:
            continue
        got, value = lambda_monomial_dp(fs, inst)
        coeff, want = _reference_monomial_dp(fs, inst)
        assert list(got.items()) == list(coeff.items())
        assert value == want
        assert value == sum(cnt * monomial_value(fs, mvec) for mvec, cnt in got.items())
        assert value == lambda_factor_direct(fs, degrees(inst), len(inst.scopes))


# --- eval-side properties, through every evaluation method

METHODS = ("brute", "structured", "structured-dp")


def _z_all(g, inst):
    values = {method: evaluate(g, inst, method=method)[0].value for method in METHODS}
    assert len(set(values.values())) == 1, values
    return values["brute"]


def test_scaling_g_scales_z_by_c_to_the_m():
    rng = random.Random(1103)
    for _ in range(30):
        g = fx.random_tractable(rng, rng.randint(2, 4))
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled = SymFunc.from_weights(g.q, g.r, {k: c * w for k, w in g.weights.items()})
        inst = _random_instance(rng, rng.randint(1, 5), 3)
        assert _z_all(scaled, inst) == c ** len(inst.scopes) * _z_all(g, inst)


def test_relabelling_vertices_keeps_z():
    rng = random.Random(1104)
    for _ in range(30):
        g = fx.random_tractable(rng, rng.randint(2, 4))
        inst = _random_instance(rng, rng.randint(1, 5), 3)
        perm = list(range(inst.n))
        rng.shuffle(perm)
        moved = [tuple(perm[v] for v in scope) for scope in inst.scopes]
        if isinstance(inst, Hypergraph):
            relabelled = Hypergraph(inst.n, tuple(sorted(tuple(sorted(e)) for e in moved)))
        else:
            relabelled = CspInstance(inst.n, tuple(moved), ())
        assert _z_all(g, relabelled) == _z_all(g, inst)


def test_disjoint_union_multiplies_z():
    rng = random.Random(1105)
    for _ in range(30):
        g = fx.random_tractable(rng, rng.randint(2, 4))
        left = _random_instance(rng, rng.randint(1, 3), 3)
        right = _random_instance(rng, rng.randint(1, 3), 3)
        shifted = tuple(tuple(v + left.n for v in scope) for scope in right.scopes)
        union = CspInstance(left.n + right.n, left.scopes + shifted, ())
        assert _z_all(g, union) == _z_all(g, left) * _z_all(g, right)


# non-cyclic groups, several components and r = 5 reach the counting over
# Z_{p^e} with e > 1 and over several invariant factors
WIDE_BLOCKS = (
    ((2, 4),), ((3, 3),), ((2, 2, 2),), ((2, 4), (3,)), ((2, 2, 2), (2,)), ((3, 3), (2, 2)),
    ((2, 2), (2, 2)), ((2, 4), (2, 2)),
)


def _wide_family(rng, block_factors, r):
    """One product-form block per group; a lone block of order 8 gets s = 2
    half the time."""
    blocks = []
    for factors in block_factors:
        group = fx.group_from_factors(*factors)
        mu = (Fraction(1),)
        if len(block_factors) == 1 and group.order == 8 and rng.random() < 0.5:
            mu = tuple(sorted(mu + (Fraction(rng.choice((2, 3, 5)), rng.choice((1, 4))),)))
        constant = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        blocks.append((group, len(mu), mu, rng.randrange(group.order), constant))
    return fx.structured_family(blocks, r=r, junk=rng.randint(0, 1))


def test_structured_matches_brute_on_noncyclic_groups_components_and_r5():
    rng = random.Random(1106)
    nonzero = 0
    for block_factors in WIDE_BLOCKS:
        for r in (3, 4, 5):
            g = _wide_family(rng, block_factors, r)
            cls = classify(g)
            assert cls.tractable
            # every block's factors are already an invariant chain
            assert sorted(c.group.decomposition.factors for c in cls.components) == sorted(block_factors)
            for _ in range(6):
                inst = _random_instance(rng, rng.randint(1, 4), r, m_max=4)
                nonzero += _z_all(g, inst) != 0 and len(inst.scopes) > 1
    assert nonzero >= 30


def test_relabelling_the_domain_keeps_z():
    rng = random.Random(1107)
    nonzero = 0
    for r in (3, 4, 5):
        tables = [fx.random_tractable(rng, rng.randint(2, 5), r) for _ in range(10)]
        tables += [_wide_family(rng, f, r) for f in WIDE_BLOCKS]
        for g in tables:
            perm = list(range(g.q))
            rng.shuffle(perm)
            moved = SymFunc.from_weights(
                g.q, g.r, {tuple(sorted(perm[z] for z in key)): w for key, w in g.weights.items()}
            )
            for _ in range(3):
                inst = _random_instance(rng, rng.randint(1, 3 if g.q > 8 else 4), r)
                z = _z_all(g, inst)
                assert _z_all(moved, inst) == z
                nonzero += z != 0 and len(inst.scopes) > 1
    assert nonzero >= 40
