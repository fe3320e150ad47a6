"""The support-driven table layer against small dense definitional references.

Every reference here walks the whole domain (every k-multiset, every
ordered completion, every candidate class), which is what the table layer
avoids; on small tables the two must agree exactly, down to dict order and
witness evidence.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

from hypothesis import given, settings, strategies as st

from hyperhom import fixtures as fx
from hyperhom.abelian import AbelianGroup, decompose
from hyperhom.dichotomy import (
    FactorStructure,
    GroupStructure,
    classify,
    equation_check,
    latin_check,
    reconstruct_group,
    replay_witness,
    sim_classes,
)
from hyperhom.exactcore import format_rational
from hyperhom.model import SymFunc, link_roots, marginalize

# ---------------------------------------------------------------------------
# dense references


def dense_marginal(g: SymFunc, k: int) -> dict[tuple[int, ...], Fraction]:
    """f(z) = sum over ordered (r-k)-tuples w of g(z, w), in sorted key order."""
    out = {}
    for z in combinations_with_replacement(range(g.q), k):
        total = sum((g.value(z + w) for w in product(range(g.q), repeat=g.r - k)), Fraction(0))
        if total:
            out[z] = total
    return out


def _proportional(va, vb):
    t = None
    for x, y in zip(va, vb):
        if (x == 0) != (y == 0):
            return None
        if x != 0:
            if t is None:
                t = x / y
            elif x != t * y:
                return None
    return t


def dense_sim_classes(g: SymFunc, comp):
    rest = list(combinations_with_replacement(range(g.q), g.r - 1))
    slices = {z: [g.value((z,) + w) for w in rest] for z in comp}
    classes, ratio = [], {}
    for z in comp:
        for cls in classes:
            t = _proportional(slices[z], slices[cls[0]])
            if t is not None:
                cls.append(z)
                ratio[z] = t
                break
        else:
            classes.append([z])
            ratio[z] = Fraction(1)
    return tuple(tuple(c) for c in classes), ratio


def dense_structured_family(blocks, r, junk):
    offset, weights = 0, {}
    for group, s, mu, a, constant in blocks:
        size = group.order * s
        for key in combinations_with_replacement(range(offset, offset + size), r):
            total, w = group.zero, Fraction(constant)
            for z in key:
                total = group.add(total, (z - offset) // s)
                w *= mu[(z - offset) % s]
            if total == a:
                weights[key] = w
        offset += size
    return SymFunc.from_weights(offset + junk, r, weights)


def dense_completions(relation, m, prefix):
    return [c for c in range(m) if tuple(sorted(prefix + (c,))) in relation]


def dense_latin(relation, r, m):
    for prefix in combinations_with_replacement(range(m), r - 1):
        completions = dense_completions(relation, m, prefix)
        if len(completions) != 1:
            return {"prefix": list(prefix), "completions": completions}
    return None


def dense_group(relation, r, m):
    """Add table and target from dense dot products, or the first
    non-associative triple as (a, b, c, left, right)."""
    pad = (0,) * (r - 3)

    def dot(a, b):
        (c,) = dense_completions(relation, m, (a, b) + pad)
        return c

    add = [[dot(0, dot(a, b)) for b in range(m)] for a in range(m)]
    for a, b, c in product(range(m), repeat=3):
        if add[add[a][b]][c] != add[a][add[b][c]]:
            return None, (a, b, c, add[add[a][b]][c], add[a][add[b][c]])
    return (add, dot(0, 0)), None


def dense_equation(relation, gs: GroupStructure):
    m, grp = gs.group.order, gs.group
    r = len(next(iter(relation)))
    for prefix in combinations_with_replacement(range(m), r - 1):
        (got,) = dense_completions(relation, m, prefix)
        total = grp.zero
        for c in prefix:
            total = grp.add(total, c)
        expected = grp.add(gs.a, grp.neg(total))
        if got != expected:
            return {"prefix": list(prefix), "got": got, "expected": expected}
    return None


def dense_classify(g: SymFunc):
    """The classifier's stages written out densely: returns (tractable,
    invariant factors per component, (kind, component, evidence) or None)."""
    unary = dense_marginal(g, 1)
    kept = [z for z in range(g.q) if (z,) in unary]
    root = link_roots(g.q, dense_marginal(g, 2))
    comps: dict[int, list[int]] = {}
    for z in kept:
        comps.setdefault(root[z], []).append(z)
    factors = []
    for least in sorted(comps):
        comp = tuple(comps[least])
        classes, ratio = dense_sim_classes(g, comp)
        first = classes[0]
        for cls in classes[1:]:
            if len(cls) != len(first):
                ev = {"class_a": list(first), "class_b": list(cls),
                      "size_a": len(first), "size_b": len(cls)}
                return False, None, ("UnequalClassSizes", comp, ev)
        ordered, norm_sets = [], []
        for cls in classes:
            low = min(ratio[z] for z in cls)
            pairs = sorted((ratio[z] / low, z) for z in cls)
            ordered.append(tuple(z for _, z in pairs))
            norm_sets.append(tuple(t for t, _ in pairs))
        for cls, norms in zip(classes[1:], norm_sets[1:]):
            if norms != norm_sets[0]:
                ev = {"class_a": list(classes[0]), "class_b": list(cls),
                      "ratios_a": [format_rational(t) for t in norm_sets[0]],
                      "ratios_b": [format_rational(t) for t in norms]}
                return False, None, ("RatioMultisetMismatch", comp, ev)
        m = len(classes)
        relation = {}
        for alpha in combinations_with_replacement(range(m), g.r):
            v = g.value(tuple(ordered[c][0] for c in alpha))
            if v:
                relation[alpha] = v
        (alpha0, constant), *others = relation.items()
        for alpha, v in others:
            if v != constant:
                ev = {"tuple_a": sorted(ordered[c][0] for c in alpha0),
                      "value_a": format_rational(constant),
                      "tuple_b": sorted(ordered[c][0] for c in alpha),
                      "value_b": format_rational(v)}
                return False, None, ("RepValueInconsistent", comp, ev)
        reps = [cls[0] for cls in classes]
        fs = FactorStructure(comp, tuple(ordered), len(first),
                             {z: i for cls in ordered for i, z in enumerate(cls)},
                             norm_sets[0], constant, frozenset(relation))
        ev = dense_latin(fs.relation, g.r, m)
        if ev is not None:
            ev = {"prefix": [reps[c] for c in ev["prefix"]],
                  "completions": [reps[c] for c in ev["completions"]]}
            return False, None, ("NotLatin", comp, ev)
        found, bad = dense_group(fs.relation, g.r, m)
        if bad is not None:
            a, b, c, left, right = bad
            ev = {"triple": [reps[a], reps[b], reps[c]], "left": reps[left], "right": reps[right]}
            return False, None, ("NotAssociative", comp, ev)
        add, target = found
        group = AbelianGroup.from_add_table(add)
        ev = dense_equation(fs.relation, GroupStructure(group, target, decompose(group)))
        if ev is not None:
            ev = {"prefix": [reps[c] for c in ev["prefix"]],
                  "got": reps[ev["got"]], "expected": reps[ev["expected"]]}
            return False, None, ("EquationMismatch", comp, ev)
        factors.append(decompose(group).factors)
    return True, factors, None


# ---------------------------------------------------------------------------
# stage-level differentials


@st.composite
def small_tables(draw):
    q = draw(st.integers(1, 5))
    r = draw(st.integers(3, 5))
    keys = list(combinations_with_replacement(range(q), r))
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys)))
    weights = {
        key: Fraction(draw(st.integers(0, 4)), draw(st.integers(1, 3))) for key in chosen
    }
    return SymFunc.from_weights(q, r, weights)


@settings(max_examples=60, deadline=None)
@given(small_tables())
def test_marginalize_matches_ordered_sum(g):
    for k in range(1, g.r + 1):
        table = marginalize(g, k)
        want = dense_marginal(g, k)
        assert table.values == want
        if k < g.r:
            assert list(table.values) == list(want)  # sorted key order


@settings(max_examples=60, deadline=None)
@given(small_tables())
def test_sim_classes_match_dense_slices(g):
    comp = tuple(sorted({z for key in g.weights for z in key}))
    sc = sim_classes(g, comp)
    classes, ratio = dense_sim_classes(g, comp)
    assert sc.classes == classes
    assert sc.ratio == ratio


def test_sim_classes_match_dense_on_structured_tables():
    rng = random.Random(4417)
    for _ in range(30):
        g = fx.random_tractable(rng, rng.randint(2, 7), rng.choice((3, 4)))
        comp = tuple(sorted({z for key in g.weights for z in key}))
        sc = sim_classes(g, comp)
        assert (sc.classes, sc.ratio) == dense_sim_classes(g, comp)


def test_structured_family_matches_dense_construction():
    rng = random.Random(8123)
    pool = [(2,), (3,), (2, 2), (4,), (2, 3), (5,), ()]
    for _ in range(40):
        blocks = []
        for _ in range(rng.randint(1, 3)):
            group = fx.group_from_factors(*rng.choice(pool))
            s = rng.randint(1, 3)
            mu = tuple(Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(s))
            constant = Fraction(rng.randint(1, 5), 2)
            blocks.append((group, s, mu, rng.randrange(group.order), constant))
        r, junk = rng.randint(3, 5), rng.randint(0, 2)
        got = fx.structured_family(blocks, r=r, junk=junk)
        want = dense_structured_family(blocks, r, junk)
        assert got.q == want.q
        assert list(got.weights.items()) == list(want.weights.items())


def _group_relation(group: AbelianGroup, r: int, a: int) -> set[tuple[int, ...]]:
    out = set()
    for alpha in combinations_with_replacement(range(group.order), r):
        total = group.zero
        for c in alpha:
            total = group.add(total, c)
        if total == a:
            out.add(alpha)
    return out


def test_latin_and_equation_checks_on_perturbed_relations():
    rng = random.Random(3301)
    pool = [(2,), (3,), (4,), (2, 2), (5,), (2, 3)]
    for _ in range(60):
        group = fx.group_from_factors(*rng.choice(pool))
        m, r = group.order, rng.choice((3, 4))
        relation = _group_relation(group, r, rng.randrange(m))
        move = rng.choice(("none", "drop", "add", "swap"))
        if move in ("drop", "swap"):
            relation.discard(rng.choice(sorted(relation)))
        if move in ("add", "swap"):
            relation.add(tuple(sorted(rng.randrange(m) for _ in range(r))))
        relation = frozenset(relation)
        reps = tuple(rng.sample(range(50), m))
        w = latin_check(relation, r, m, (9,), reps)
        ev = dense_latin(relation, r, m)
        if ev is None:
            assert w is None
        else:
            assert w.evidence == {
                "prefix": [reps[c] for c in ev["prefix"]],
                "completions": [reps[c] for c in ev["completions"]],
            }
            continue
        gs = reconstruct_group(relation, r, m)
        found, bad = dense_group(relation, r, m)
        if bad is not None:
            assert gs.evidence == {"triple": list(bad[:3]), "left": bad[3], "right": bad[4]}
            continue
        assert [list(row) for row in gs.group.add_table] == found[0] and gs.a == found[1]
        for a in range(m):  # every target; all but the true one must mismatch
            shifted = GroupStructure(gs.group, a, gs.decomposition)
            w = equation_check(relation, shifted)
            ev = dense_equation(relation, shifted)
            assert (w is None) == (ev is None) == (a == gs.a)
            if w is not None:
                assert w.evidence == ev


# ---------------------------------------------------------------------------
# whole classifier against the dense stages


def _perturbed(rng: random.Random, g: SymFunc) -> SymFunc:
    weights = dict(g.weights)
    support = sorted(weights)
    move = rng.choice(("bump", "drop", "add"))
    if move == "bump":
        key = rng.choice(support)
        weights[key] *= 2
    elif move == "drop" and len(support) > 1:
        del weights[rng.choice(support)]
    else:
        weights[tuple(sorted(rng.randrange(g.q) for _ in range(g.r)))] = Fraction(1)
    return SymFunc.from_weights(g.q, g.r, weights)


def test_classify_matches_dense_stages():
    rng = random.Random(60611)
    tables = []
    for _ in range(25):
        base = fx.random_tractable(rng, rng.randint(2, 7), rng.choice((3, 4)))
        tables += [base, _perturbed(rng, base)]
    tables += [fx.random_table(rng, rng.randint(2, 4), rng.choice((3, 4)), 0.4) for _ in range(25)]
    tables += [fx.steiner_fano(), fx.mixed_skewed(), fx.mixed_missing_element(),
               fx.mixed_perturbed_entry(), fx.not_all_zero()]
    kinds = set()
    for g in tables:
        cls = classify(g)
        tractable, factors, witness = dense_classify(g)
        assert cls.tractable == tractable
        if tractable:
            assert [c.group.decomposition.factors for c in cls.components] == factors
            continue
        w = cls.witness
        assert (w.kind, w.component, w.evidence) == witness
        assert replay_witness(g, w)
        kinds.add(w.kind)
    assert len(kinds) >= 4
