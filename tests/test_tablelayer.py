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
from hyperhom.certify import check_witness
from hyperhom.dichotomy import (
    FactorStructure,
    GroupStructure,
    HardnessWitness,
    check_product_structure,
    classify,
    equation_check,
    latin_check,
    reconstruct_group,
    replay_witness,
    sim_classes,
)
from hyperhom.exactcore import format_rational
from hyperhom.gadgets import relation_to_symfunc
from hyperhom.model import SymFunc, marginalize
from test_model import link_roots

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
        fs = FactorStructure(comp, tuple(ordered), len(first), norm_sets[0], constant,
                             frozenset(relation))
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
        assert table.weights == want
        if k < g.r:
            assert list(table.weights) == list(want)  # sorted key order


@settings(max_examples=60, deadline=None)
@given(small_tables())
def test_sim_classes_match_dense_slices(g):
    comp = tuple(sorted({z for key in g.weights for z in key}))
    sc = sim_classes(g, comp)
    classes, ratio = dense_sim_classes(g, comp)
    assert sc.classes == classes
    assert sc.ratio == ratio


def test_slice_key_and_ratio_match_dense_slices():
    # for every ordered pair of elements of every component: slice_ratio is
    # the dense slices' factor or None, and slice_key is the dense slice's
    # nonzero count and first nonzero rest, shared by proportional slices
    rng = random.Random(5281)
    tables = [fx.random_table(rng, rng.randint(3, 7), rng.choice((3, 4)), zero_frac) for zero_frac in (0.0, 0.3, 0.6) * 4]
    tables += [fx.random_tractable(rng, rng.randint(2, 7), rng.choice((3, 4))) for _ in range(12)]
    for factors, s, r in (((2, 2), 2, 3), ((3,), 2, 4), ((2, 2, 2), 1, 3), ((4,), 3, 3)):
        mu = tuple(sorted(Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(s)))
        tables.append(fx.structured_family([(fx.group_from_factors(*factors), s, mu, 1, Fraction(5, 3))], r=r, junk=1))
    tables += [_perturbed(rng, g) for g in tables[12:]]  # a key bumped, dropped or added
    proportional = same_key = 0
    for g in tables:
        rest = list(combinations_with_replacement(range(g.q), g.r - 1))
        for comp in g.support_index.components:
            slices = {z: [g.value((z,) + w) for w in rest] for z in comp}
            for z in comp:
                nonzero = [w for w, v in zip(rest, slices[z]) if v]
                assert g.slice_key(z) == (len(nonzero), nonzero[0])
                for w in comp:
                    t = _proportional(slices[z], slices[w])
                    assert g.slice_ratio(z, w) == t, (g.weights, z, w)
                    if t is not None:
                        assert g.slice_key(z) == g.slice_key(w)
                        proportional += z != w
                    else:
                        same_key += g.slice_key(z) == g.slice_key(w)
    # both outcomes occur, the second on pairs that share a slice key
    assert proportional >= 100 and same_key >= 100


def test_slice_ratio_needs_equal_key_counts():
    # swapping 0 for 3 maps 0's one key (0,1,2) onto the nonzero (1,2,3) at
    # ratio 1, but 3 has a second key: the slices are not proportional
    g = SymFunc.from_weights(4, 3, {(0, 1, 2): 1, (1, 1, 3): 1, (1, 2, 3): 1})
    assert g.slice_ratio(0, 3) is None
    assert g.slice_ratio(3, 0) is None
    assert g.slice_ratio(0, 0) == 1


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


def _shuffled(rng: random.Random, g: SymFunc) -> SymFunc:
    """g with its keys in shuffled order, so no element's keys come sorted."""
    items = list(g.weights.items())
    rng.shuffle(items)
    return SymFunc.from_weights(g.q, g.r, dict(items))


def test_sim_classes_match_dense_on_structured_tables():
    # sim_classes compares an element only with the classes filed under its
    # key count and least rest, read off its sorted holders. Group tables
    # give many classes of one count (s = 1 on Z2^4 with r = 4 has 120 keys
    # per element); shuffled copies give keys that arrive unsorted; a
    # perturbed key gives elements of one count and least rest whose slices
    # are not proportional; dense tables with no zero, or with weights 1 and
    # 2, give counts shared by classes that differ
    rng = random.Random(4417)
    tables = []
    for _ in range(30):
        tables.append(fx.random_tractable(rng, rng.randint(2, 7), rng.choice((3, 4))))
    for factors, s, r in (((2, 2, 2, 2), 1, 4), ((4, 4), 1, 3), ((2, 3), 2, 3), ((2, 2), 3, 3)):
        group = fx.group_from_factors(*factors)
        mu = [Fraction(1)] + [Fraction(rng.randint(2, 9), rng.randint(1, 9)) for _ in range(s - 1)]
        g = fx.structured_family([(group, s, tuple(mu), rng.randrange(group.order), Fraction(3, 2))], r=r)
        tables += [g, _shuffled(rng, g), _shuffled(rng, _perturbed(rng, g))]
    for _ in range(40):
        tables.append(_shuffled(rng, _perturbed(rng, fx.random_tractable(rng, rng.randint(3, 9), rng.choice((3, 4))))))
    for _ in range(12):
        q, r = rng.randint(3, 8), rng.choice((3, 4))
        tables.append(fx.random_table(rng, q, r, zero_frac=0.0))
        small = {k: Fraction(rng.randint(1, 2)) for k in combinations_with_replacement(range(q), r)
                 if rng.random() < 0.6}
        if small:
            tables.append(SymFunc.from_weights(q, r, small))
    for g in tables:
        comp = tuple(sorted({z for key in g.weights for z in key}))
        sc = sim_classes(g, comp)
        assert (sc.classes, sc.ratio) == dense_sim_classes(g, comp)


def _huge(rng):
    return Fraction(rng.randrange(2**64, 2**80), rng.randrange(2**64, 2**80))


def test_sim_classes_exact_on_huge_ratios():
    # g(key) = prod w[z] * h[sum of types mod 3] with type z % 3 and
    # numerators and denominators above 2^64: elements of one type are
    # proportional by w[z] / w[z']. Bumping one key by 1/10^30 must split
    # its elements from their old class-mates, and every table must agree
    # with the dense slices exactly
    rng = random.Random(2**64 + 19)
    split = 0
    for _ in range(12):
        q, r = rng.randint(4, 7), rng.choice((3, 4))
        w = [_huge(rng) for _ in range(q)]
        h = [_huge(rng), _huge(rng), rng.choice((Fraction(0), _huge(rng)))]
        weights = {}
        for key in combinations_with_replacement(range(q), r):
            v = h[sum(z % 3 for z in key) % 3]
            for z in key:
                v *= w[z]
            if v:
                weights[key] = v
        comp = tuple(range(q))
        g = SymFunc.from_weights(q, r, weights)
        before = sim_classes(g, comp)
        assert (before.classes, before.ratio) == dense_sim_classes(g, comp)
        assert before.classes == tuple(tuple(range(t, q, 3)) for t in range(3))
        bumped = rng.choice(sorted(weights))
        weights[bumped] += Fraction(1, 10**30)
        g = SymFunc.from_weights(q, r, weights)
        sc = sim_classes(g, comp)
        assert (sc.classes, sc.ratio) == dense_sim_classes(g, comp)
        for z in set(bumped):
            for y in set(before.classes[z % 3]) - {z}:
                assert not any(z in cls and y in cls for cls in sc.classes), (bumped, z, y)
                split += 1
    assert split >= 12


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
        completion = latin_check(relation, r, m)
        ev = dense_latin(relation, r, m)
        if ev is None:
            assert completion == {
                prefix: dense_completions(relation, m, prefix)[0]
                for prefix in combinations_with_replacement(range(m), r - 1)
            }
        else:
            # the stage names class ids; reps renames both sides as classify would
            assert completion.component == ()
            assert {key: [reps[c] for c in v] for key, v in completion.evidence.items()} == {
                "prefix": [reps[c] for c in ev["prefix"]],
                "completions": [reps[c] for c in ev["completions"]],
            }
            continue
        gs = reconstruct_group(completion, r, m)
        found, bad = dense_group(relation, r, m)
        if bad is not None:
            assert gs.evidence == {"triple": list(bad[:3]), "left": bad[3], "right": bad[4]}
            continue
        assert [list(row) for row in gs.group.add_table] == found[0] and gs.a == found[1]
        for a in range(m):  # every target; all but the true one must mismatch
            shifted = GroupStructure(gs.group, a, gs.decomposition)
            w = equation_check(completion, shifted)
            ev = dense_equation(relation, shifted)
            assert (w is None) == (ev is None) == (a == gs.a)
            if w is not None:
                assert w.evidence == ev


def all_dots_group(completion, r, m, zero):
    """reconstruct_group's add table and target from all m^2 ordered dots."""
    pad = (zero,) * (r - 3)
    dots = [[completion[tuple(sorted((a, b) + pad))] for b in range(m)] for a in range(m)]
    return [[dots[zero][dots[a][b]] for b in range(m)] for a in range(m)], dots[zero][zero]


def test_reconstruct_group_at_arity_four_with_zero_one():
    # at r = 4 every Latin relation found here is a group's, in many labellings
    relations = [
        frozenset(_group_relation(fx.group_from_factors(*f), 4, a))
        for f in ((2,), (3,), (4,), (2, 2), (5,), (2, 3))
        for a in (0, 1)
    ]
    relations += latin_relations(4, 4, 10**6) + latin_relations(5, 4, 10**6)
    for relation in relations:
        m = 1 + max(max(alpha) for alpha in relation)
        completion = latin_check(relation, 4, m)
        gs = reconstruct_group(completion, 4, m, zero=1)
        add, target = all_dots_group(completion, 4, m, 1)
        assert [list(row) for row in gs.group.add_table] == add
        assert (gs.a, gs.group.zero) == (target, 1)


def _lift_behind_parity(relation: frozenset, m: int, r: int) -> SymFunc:
    """Parity on {0, 1}, then `relation` at s = 2 on {2 .. 2m+1}: class c
    holds 2+c and 2+m+c, and its index-0 member (mu = 1) is 2+m+c, so the
    index-0 members are not the least ones."""
    parity = combinations_with_replacement((0, 1), r)
    weights = {key: Fraction(1) for key in parity if sum(key) % 2 == 0}
    members = [(2 + m + c, 2 + c) for c in range(m)]
    for alpha in relation:
        for ivec in product(range(2), repeat=r):
            key = tuple(sorted(members[c][i] for c, i in zip(alpha, ivec)))
            weights[key] = Fraction(2) ** sum(ivec)
    return SymFunc.from_weights(2 + 2 * m, r, weights)


def test_group_stage_witnesses_name_classes_by_least_element():
    mismatch = frozenset(
        tuple(map(int, key)) for key in "0000 0011 0022 0033 0123 1111 1122 1133 2223 2333".split()
    )
    for relation, m, r, kind in (
        (mismatch, 4, 4, "EquationMismatch"),
        (frozenset(fx.steiner_fano().weights), 7, 3, "NotAssociative"),
    ):
        g = _lift_behind_parity(relation, m, r)
        cls = classify(g)
        comp = tuple(range(2, 2 + 2 * m))
        fs = check_product_structure(g, sim_classes(g, comp))
        assert fs.relation == relation and fs.s == 2
        assert fs.reps == tuple(range(2, 2 + m)) != tuple(members[0] for members in fs.classes)
        # the stage's witness on class ids, named through fs.reps
        completion = latin_check(fs.relation, r, m)
        found = reconstruct_group(completion, r, m)
        if not isinstance(found, HardnessWitness):
            found = equation_check(completion, found)
        named = {
            key: [fs.reps[c] for c in v] if isinstance(v, list) else fs.reps[v]
            for key, v in found.evidence.items()
        }
        w = cls.witness
        assert (w.kind, w.component, w.evidence) == (kind, comp, named)
        assert replay_witness(g, w)


# ---------------------------------------------------------------------------
# whole classifier against the dense stages


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


def latin_relations(m: int, r: int, limit: int) -> list[frozenset]:
    """Latin relations on m classes at arity r, up to limit, by
    backtracking: the lex-first prefix with no completion yet takes each
    completion whose member covers no prefix twice, so every relation is
    found once."""
    prefixes = list(combinations_with_replacement(range(m), r - 1))
    covered, members, out = set(), [], []

    def extend(i):
        while i < len(prefixes) and prefixes[i] in covered:
            i += 1
        if i == len(prefixes):
            out.append(frozenset(members))
            return
        for c in range(m):
            if len(out) >= limit:
                return
            alpha = tuple(sorted(prefixes[i] + (c,)))
            subs = {alpha[:j] + alpha[j + 1 :] for j in range(r)}
            if covered.isdisjoint(subs):
                covered.update(subs)
                members.append(alpha)
                extend(i + 1)
                covered.difference_update(subs)
                members.pop()

    extend(0)
    return out


def test_classify_matches_dense_stages_on_latin_relations():
    # every Latin relation passes the Latin check, so these exercise the
    # group stages on inputs no group fixture reaches: non-associative
    # loops and associative relations that miss their target
    kinds = {}
    for m, r, limit in ((4, 4, 10**6), (5, 3, 10**6), (6, 3, 300)):
        relations = latin_relations(m, r, limit)
        assert len(relations) == {(4, 4): 28, (5, 3): 30, (6, 3): 300}[m, r]
        for relation in relations:
            g = relation_to_symfunc(relation, m, r)
            cls = classify(g)
            tractable, factors, witness = dense_classify(g)
            assert cls.tractable == tractable
            if tractable:
                assert [c.group.decomposition.factors for c in cls.components] == factors
                continue
            w = cls.witness
            assert (w.kind, w.component, w.evidence) == witness
            assert replay_witness(g, w)
            kinds[w.kind] = kinds.get(w.kind, 0) + 1
    assert kinds == {"NotAssociative": 88, "EquationMismatch": 12}


def every_table(q: int, r: int, values):
    """Every nonzero table on q elements at arity r with weights in values,
    in lexicographic order of the weight vectors over the sorted keys."""
    keys = list(combinations_with_replacement(range(q), r))
    for ws in product(values, repeat=len(keys)):
        if any(ws):
            yield SymFunc.from_weights(q, r, dict(zip(keys, ws)))


def sweep_verdict(g: SymFunc) -> str:
    """classify's verdict on g, "Tractable" or the witness kind, after
    checking it against dense_classify (verdict, invariant factors, exact
    witness) and, on a Hard answer, that check_witness and replay_witness
    both accept the witness."""
    cls = classify(g)
    tractable, factors, witness = dense_classify(g)
    if cls.tractable:
        assert tractable and [c.group.decomposition.factors for c in cls.components] == factors, g.weights
        return "Tractable"
    w = cls.witness
    assert (w.kind, w.component, w.evidence) == witness, g.weights
    assert check_witness(g, w) and replay_witness(g, w), g.weights
    return w.kind


def test_classify_matches_dense_stages_on_every_small_table():
    # every weight vector in {0, 1, 2} at q = 2, r = 3..5 and in {0, 1} at
    # q = 3, r = 3: 2,073 tables
    kinds = {}
    for q, r, values in ((2, 3, (0, 1, 2)), (2, 4, (0, 1, 2)), (2, 5, (0, 1, 2)), (3, 3, (0, 1))):
        for g in every_table(q, r, values):
            kind = sweep_verdict(g)
            kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds == {"Tractable": 71, "NotLatin": 1143, "RepValueInconsistent": 826, "UnequalClassSizes": 33}
