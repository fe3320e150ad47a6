"""The per-table support index and the classifier that reads it.

`SymFunc.support_index` replaces a rescan of the nonzero keys in every
classifier stage and once per component. The references here are the
definitions, and a test-local copy of the pipeline that rescanned: prune
to a renumbered copy, union-find over every key, per-component slice scans
and a full-table relation scan. On every table the two must agree on kept,
removed, components, structures and witness.
"""

import random
import time
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction

from hyperhom import fixtures as fx
from hyperhom.dichotomy import (
    KIND_RATIO_MULTISET_MISMATCH,
    KIND_REP_VALUE_INCONSISTENT,
    KIND_UNEQUAL_CLASS_SIZES,
    ComponentStructure,
    FactorStructure,
    HardnessWitness,
    SimClasses,
    classify,
    equation_check,
    latin_check,
    reconstruct_group,
    replay_witness,
)
from hyperhom.exactcore import format_rational
from hyperhom.evaluator import evaluate
from hyperhom.model import Hypergraph, SymFunc, domain_components, prune_domain
from test_model import link_roots

# ---------------------------------------------------------------------------
# the rescanning pipeline, kept as the reference


def rescan_prune(g):
    present = {z for key in g.weights for z in key}
    kept = tuple(z for z in range(g.q) if z in present)
    removed = tuple(z for z in range(g.q) if z not in present)
    renum = {old: new for new, old in enumerate(kept)}
    func = SymFunc(len(kept), g.r, {tuple(renum[z] for z in key): w for key, w in g.weights.items()})
    return func, kept, removed


def rescan_components(g):
    root = link_roots(g.q, g.weights)
    groups = {}
    for z in range(g.q):
        groups.setdefault(root[z], []).append(z)
    return tuple(tuple(groups[least]) for least in sorted(groups))


def rescan_sim_classes(g, component):
    comp = tuple(sorted(component))
    table = g.weights
    holders = {z: [] for z in comp}
    for key in table:
        for z in dict.fromkeys(key):
            if z in holders:
                holders[z].append(key)

    def ratio_to(z, rep):
        keys = holders[z]
        if len(keys) != len(holders[rep]):
            return None
        t = None
        for key in keys:
            swapped = list(key)
            swapped.remove(z)
            swapped.append(rep)
            other = table.get(tuple(sorted(swapped)))
            if other is None:
                return None
            if t is None:
                t = table[key] / other
            elif table[key] != t * other:
                return None
        return t

    classes, ratio = [], {}
    for z in comp:
        for cls in classes:
            t = ratio_to(z, cls[0])
            if t is not None:
                cls.append(z)
                ratio[z] = t
                break
        else:
            classes.append([z])
            ratio[z] = Fraction(1)
    return SimClasses(comp, tuple(tuple(c) for c in classes), ratio)


def rescan_product_structure(g, sc):
    first = sc.classes[0]
    for cls in sc.classes[1:]:
        if len(cls) != len(first):
            return HardnessWitness(
                KIND_UNEQUAL_CLASS_SIZES,
                sc.component,
                {"class_a": list(first), "class_b": list(cls), "size_a": len(first), "size_b": len(cls)},
            )
    ordered, norm_sets = [], []
    for cls in sc.classes:
        low = min(sc.ratio[z] for z in cls)
        pairs = sorted((sc.ratio[z] / low, z) for z in cls)
        ordered.append(tuple(z for _, z in pairs))
        norm_sets.append(tuple(t for t, _ in pairs))
    for cls, norms in zip(sc.classes[1:], norm_sets[1:]):
        if norms != norm_sets[0]:
            return HardnessWitness(
                KIND_RATIO_MULTISET_MISMATCH,
                sc.component,
                {
                    "class_a": list(sc.classes[0]),
                    "class_b": list(cls),
                    "ratios_a": [format_rational(t) for t in norm_sets[0]],
                    "ratios_b": [format_rational(t) for t in norms],
                },
            )
    class_of_rep = {members[0]: c for c, members in enumerate(ordered)}
    relation = {}
    for key, v in g.weights.items():
        if all(z in class_of_rep for z in key):
            relation[tuple(sorted(class_of_rep[z] for z in key))] = v
    constant, first_key = None, ()
    for alpha in sorted(relation):
        v = relation[alpha]
        if constant is None:
            constant, first_key = v, alpha
        elif v != constant:
            return HardnessWitness(
                KIND_REP_VALUE_INCONSISTENT,
                sc.component,
                {
                    "tuple_a": sorted(ordered[c][0] for c in first_key),
                    "value_a": format_rational(constant),
                    "tuple_b": sorted(ordered[c][0] for c in alpha),
                    "value_b": format_rational(v),
                },
            )
    return FactorStructure(
        sc.component, tuple(ordered), len(first), norm_sets[0], constant, frozenset(relation)
    )


def rescan_classify(g):
    """(kept, removed, component structures, witness) by the rescanning
    stages; the group stages are the library's."""
    func, kept, removed = rescan_prune(g)
    out = []
    for comp in rescan_components(func):
        comp = tuple(kept[z] for z in comp)
        fs = rescan_product_structure(g, rescan_sim_classes(g, comp))
        if isinstance(fs, HardnessWitness):
            return kept, removed, (), fs
        m = len(fs.classes)
        completion = latin_check(fs.relation, g.r, m)
        if isinstance(completion, HardnessWitness):
            w = completion
        else:
            gr = reconstruct_group(completion, g.r, m)
            w = gr if isinstance(gr, HardnessWitness) else equation_check(completion, gr)
        if w is not None:
            # the group stages name class ids; name each by its least element
            evidence = {
                key: [fs.reps[c] for c in v] if isinstance(v, list) else fs.reps[v]
                for key, v in w.evidence.items()
            }
            return kept, removed, (), HardnessWitness(w.kind, comp, evidence)
        out.append(ComponentStructure(fs, gr))
    return kept, removed, tuple(out), None


def _structure(cs):
    fs, gs = cs.factor, cs.group
    return (
        fs.component, fs.classes, fs.s, fs.mu, fs.constant, fs.relation,
        gs.group.add_table, gs.group.zero, gs.group.neg_table, gs.a,
        gs.decomposition.factors, gs.decomposition.iso,
    )


def _witness(w):
    return None if w is None else (w.kind, w.component, w.evidence)


# ---------------------------------------------------------------------------
# seeded tables


def _relabelled(rng, g):
    """g under a random permutation of the domain, keys in random order, so
    junk elements sit between components and no key order is sorted."""
    perm = list(range(g.q))
    rng.shuffle(perm)
    items = [(tuple(sorted(perm[z] for z in key)), w) for key, w in g.weights.items()]
    rng.shuffle(items)
    return SymFunc(g.q, g.r, dict(items))


def _doctored(rng, g):
    weights = dict(g.weights)
    key = rng.choice(sorted(weights))
    move = rng.choice(("bump", "drop", "add"))
    if move == "bump":
        weights[key] *= 2
    elif move == "drop" and len(weights) > 1:
        del weights[key]
    else:
        weights[tuple(sorted(rng.randrange(g.q) for _ in range(g.r)))] = Fraction(1)
    return SymFunc.from_weights(g.q, g.r, weights)


def _multi_block(rng, blocks, r, junk):
    spec = []
    for _ in range(blocks):
        group = fx.group_from_factors(*rng.choice([(), (2,), (3,), (2, 2), (4,)]))
        s = rng.choice((1, 1, 2))
        mu = sorted([Fraction(1)] + [Fraction(rng.randint(2, 5)) for _ in range(s - 1)])
        spec.append((group, s, mu, rng.randrange(group.order), Fraction(rng.randint(1, 4), 3)))
    return fx.structured_family(spec, r=r, junk=junk)


def _rescaled_member(rng, g):
    """One-component tractable g with the keys of one relation member that
    lacks class 0 doubled: classes and ratios stay, while the values on
    index-0 representatives no longer agree."""
    fs = rescan_classify(g)[2][0].factor
    alpha = rng.choice(sorted(a for a in fs.relation if a[0]))
    class_of = {z: c for c, cls in enumerate(fs.classes) for z in cls}
    return SymFunc(g.q, g.r, {
        key: 2 * w if tuple(sorted(class_of[z] for z in key)) == alpha else w
        for key, w in g.weights.items()
    })


def seeded_tables(seed):
    rng = random.Random(seed)
    tables = [fx.parity(), fx.mixed(), fx.steiner_fano(), fx.not_all_zero(), fx.mixed_skewed(),
              fx.mixed_missing_element(), fx.parity_allones_blocks(), SymFunc(3, 3, {})]
    for _ in range(20):
        tables.append(fx.random_table(rng, rng.randint(1, 6), rng.choice((3, 4)), rng.choice((0.3, 0.9))))
        base = fx.random_tractable(rng, rng.randint(2, 8), rng.choice((3, 4)))
        tables += [base, _doctored(rng, base)]
        multi = _multi_block(rng, rng.randint(2, 5), 3, rng.randint(0, 3))
        tables += [multi, _doctored(rng, multi)]
    tables = [_relabelled(rng, g) if rng.random() < 0.5 else g for g in tables]
    # s >= 2 and relabelled, so an index-0 representative is often not its
    # class's least member; the doctored member lies past those holding
    # class 0
    for _ in range(12):
        group = fx.group_from_factors(*rng.choice([(3,), (2, 2), (4,)]))
        s = rng.choice((2, 3))
        mu = [Fraction(1)] + sorted(Fraction(rng.randint(2, 5)) for _ in range(s - 1))
        block = (group, s, mu, rng.randrange(group.order), Fraction(1))
        base = fx.structured_family([block], r=rng.choice((3, 4)))
        tables.append(_rescaled_member(rng, _relabelled(rng, base)))
    # s >= 2 with class c = {c, m + c, ...}: the index-0 representatives are
    # 0..m-1 in class order, so the keys are read as class multisets as they
    # are, and those holding another member must be left out
    for _ in range(8):
        group = fx.group_from_factors(*rng.choice([(3,), (2, 2), (4,)]))
        m, s = group.order, rng.choice((2, 3))
        mu = [Fraction(1)] + sorted(Fraction(rng.randint(2, 5)) for _ in range(s - 1))
        block = (group, s, mu, rng.randrange(m), Fraction(rng.randint(1, 4), 3))
        base = fx.structured_family([block], r=rng.choice((3, 4)))
        # element c * s + i becomes c + i * m
        base = SymFunc(base.q, base.r, {
            tuple(sorted(z % s * m + z // s for z in key)): w for key, w in base.weights.items()
        })
        tables += [base, _rescaled_member(rng, base)]
    return tables


# ---------------------------------------------------------------------------
# tests


def test_support_index_matches_definitions():
    for g in seeded_tables(1801):
        idx = g.support_index
        assert g.support_index is idx  # built once per table
        for z in range(g.q):
            holding = [key for key in g.weights if z in key]
            assert idx.holders.get(z, []) == sorted(holding)  # sorted, also on relabelled tables
        func, kept, removed = rescan_prune(g)
        assert (idx.kept, idx.removed) == (kept, removed)
        assert idx.components == tuple(tuple(kept[z] for z in c) for c in rescan_components(func))
        pr = prune_domain(g)
        assert (pr.kept, pr.removed) == (kept, removed) and pr.func.weights == func.weights
        assert domain_components(pr.func) == rescan_components(func)


def _late_mismatch_off_least(g, w):
    """A RepValueInconsistent witness whose second key has no class-0
    member, on classes where some index-0 representative is not the least
    member: the cases where the grouped scan must order its groups by
    class, not by representative."""
    if w.kind != KIND_REP_VALUE_INCONSISTENT:
        return False
    sc = rescan_sim_classes(g, w.component)
    rep = {min(cls, key=lambda z: (sc.ratio[z], z)): c for c, cls in enumerate(sc.classes)}
    return min(rep[z] for z in w.evidence["tuple_b"]) > 0 and any(
        z != sc.classes[c][0] for z, c in rep.items()
    )


def _same_ids(g, component):
    """Whether the component's index-0 representatives are 0..m-1 in
    class order, the case where the relation is read off the keys without
    relabelling them."""
    sc = rescan_sim_classes(g, component)
    reps = [min(cls, key=lambda z: (sc.ratio[z], z)) for cls in sc.classes]
    return reps == list(range(len(reps)))


def test_classify_matches_rescanning_pipeline():
    kinds = set()
    tractable = late = 0
    read = Counter()  # (same ids, outcome) of each component whose relation was read
    for g in seeded_tables(2718):
        cls = classify(g)
        kept, removed, structures, witness = rescan_classify(g)
        assert (cls.kept, cls.removed) == (kept, removed)
        assert [_structure(c) for c in cls.components] == [_structure(c) for c in structures]
        assert _witness(cls.witness) == _witness(witness)
        assert cls.tractable == (witness is None)
        if witness is None:
            tractable += 1
            read.update((_same_ids(g, c.factor.component), "structure") for c in structures)
        else:
            kinds.add(witness.kind)
            late += _late_mismatch_off_least(g, witness)
            assert replay_witness(g, cls.witness)
            if witness.kind == KIND_REP_VALUE_INCONSISTENT:
                read[_same_ids(g, witness.component), witness.kind] += 1
    assert tractable >= 40 and len(kinds) >= 5 and late >= 5, (tractable, kinds, late)
    outcomes = ("structure", KIND_REP_VALUE_INCONSISTENT)
    assert all(read[same, outcome] >= 3 for same in (True, False) for outcome in outcomes), read


class CountingWeights(Mapping):
    """A weight table that counts how often it is iterated."""

    def __init__(self, weights):
        self._weights = dict(weights)
        self.passes = 0

    def __getitem__(self, key):
        return self._weights[key]

    def __iter__(self):
        self.passes += 1
        return iter(self._weights)

    def __len__(self):
        return len(self._weights)


def test_classify_reads_the_keys_a_bounded_number_of_times():
    # one pass to index the keys, whatever the number of components; the
    # rescanning pipeline made several per component
    block = (fx.group_from_factors(2), 2, (Fraction(1), Fraction(3)), 1, Fraction(2))
    for n in (1, 10, 100):
        g = fx.structured_family([block] * n, junk=2)
        counted = CountingWeights(g.weights)
        cls = classify(SymFunc(g.q, g.r, counted))
        assert cls.tractable and len(cls.components) == n
        assert counted.passes == 1, (n, counted.passes)
        witness = classify(SymFunc(g.q, g.r, CountingWeights(_doctored(random.Random(n), g).weights)))
        assert witness.func.weights.passes == 1


def test_support_index_edge_cases():
    empty = SymFunc(3, 3, {})
    assert (empty.support_index.kept, empty.support_index.removed) == ((), (0, 1, 2))
    assert empty.support_index.components == ()
    cls = classify(empty)
    assert cls.tractable and cls.removed == (0, 1, 2)
    loop = SymFunc.from_weights(4, 3, {(1, 1, 1): 1, (3, 3, 3): 2, (0, 2, 2): 1})
    idx = loop.support_index
    assert idx.holders[2] == [(0, 2, 2)]
    assert idx.components == ((0, 2), (1,), (3,))


def test_removed_is_listed_on_first_read_only():
    """An eval under a q = 10^7 table with one nonzero key never lists the
    other 10^7 - 1 elements."""
    huge = SymFunc.from_weights(10**7, 3, {(0, 0, 0): Fraction(5, 2)})
    started = time.perf_counter()
    report, cls = evaluate(huge, Hypergraph(3, ((0, 1, 2),)))
    assert time.perf_counter() - started < 1.0
    assert report.value == Fraction(5, 2) and cls.tractable and cls.kept == (0,)
    assert "removed" not in huge.support_index.__dict__
