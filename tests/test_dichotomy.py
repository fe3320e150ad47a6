"""Classification pipeline: classes, structure, groups, witnesses."""

import json
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from hyperhom import dichotomy
from hyperhom import fixtures as fx
from hyperhom.abelian import AbelianGroup, decompose
from hyperhom.cli import _classification_payload
from hyperhom.dichotomy import (
    GroupStructure,
    HardnessWitness,
    WITNESS_KINDS,
    check_product_structure,
    classify,
    equation_check,
    latin_check,
    reconstruct_group,
    replay_witness,
    sim_classes,
    verify_factoring_identity,
)
from hyperhom.gadgets import relation_to_symfunc, tilde_f
from hyperhom.model import SymFunc


def test_sim_classes_fixtures():
    assert sim_classes(fx.parity(), (0, 1)).classes == ((0,), (1,))
    assert sim_classes(fx.geometric(), (0, 1)).classes == ((0, 1),)
    assert sim_classes(fx.mixed(), (0, 1, 2, 3)).classes == ((0, 1), (2, 3))


def test_sim_classes_rejects_zero_slice():
    g = SymFunc.from_weights(2, 3, {(0, 0, 0): Fraction(1)})
    with pytest.raises(ValueError):
        sim_classes(g, (0, 1))


def _gram_classes(gram, comp):
    # first fit under the equality case of Cauchy-Schwarz on the slices
    classes = []
    for z in comp:
        for cls in classes:
            y = cls[0]
            if gram[z][y] ** 2 == gram[z][z] * gram[y][y]:
                cls.append(z)
                break
        else:
            classes.append([z])
    return tuple(map(tuple, classes))


def test_sim_classes_match_the_gram_oracle():
    # tilde_f(g, r) is the Gram matrix of the slices, so two elements share
    # a class exactly when their entry meets Cauchy-Schwarz with equality
    rng = random.Random(4231)
    tables = []
    for i in range(40):
        blocks = []
        for _ in range(rng.randint(1, 2)):
            group = fx.group_from_factors(*rng.choice([(), (2,), (3,), (2, 2), (4,)]))
            s = rng.choice((2, 3))
            mu = sorted([Fraction(1)] + [Fraction(rng.randint(2, 7), rng.randint(1, 3)) for _ in range(s - 1)])
            blocks.append((group, s, mu, rng.randrange(group.order), Fraction(rng.randint(1, 5), 2)))
        g = fx.structured_family(blocks, r=rng.choice((3, 4)), junk=rng.randint(0, 1))
        if i % 2:
            weights = dict(g.weights)
            key = rng.choice(sorted(weights))
            weights[key] *= 2
            g = SymFunc.from_weights(g.q, g.r, weights)
        tables.append(g)
    tables += [fx.random_tractable(rng, rng.randint(2, 8)) for _ in range(10)]
    tables += [fx.random_table(rng, rng.randint(2, 6), zero_frac=0.6) for _ in range(10)]
    components = nontrivial = 0
    for g in tables:
        gram = tilde_f(g, g.r)
        for comp in g.support_index.components:
            classes = sim_classes(g, comp).classes
            assert classes == _gram_classes(gram, comp), (g, comp)
            components += 1
            nontrivial += any(len(c) > 1 for c in classes)
    assert components >= 80 and nontrivial >= 60, (components, nontrivial)


def test_product_structure_mixed():
    sc = sim_classes(fx.mixed(), (0, 1, 2, 3))
    fs = check_product_structure(fx.mixed(), sc)
    assert not isinstance(fs, HardnessWitness)
    assert fs.s == 2
    assert fs.mu == (Fraction(1), Fraction(3))
    assert fs.constant == 1
    assert fs.classes == ((0, 1), (2, 3))
    assert fs.relation == frozenset({(0, 0, 0), (0, 1, 1)})
    assert fs.reps == (0, 2)
    assert fs.classes[1][1] == 3


def test_product_structure_witnesses():
    g = fx.mixed_missing_element()
    sc = sim_classes(g, (0, 1, 2))
    w = check_product_structure(g, sc)
    assert isinstance(w, HardnessWitness)
    assert w.kind == "UnequalClassSizes"
    assert w.evidence == {"class_a": [0, 1], "class_b": [2], "size_a": 2, "size_b": 1}

    g = fx.mixed_skewed()
    w = check_product_structure(g, sim_classes(g, (0, 1, 2, 3)))
    assert w.kind == "RatioMultisetMismatch"
    assert w.evidence["ratios_a"] == ["1", "3"]
    assert w.evidence["ratios_b"] == ["1", "5"]


def test_rep_value_inconsistent():
    g = SymFunc.from_weights(2, 3, {(0, 0, 0): Fraction(1), (0, 1, 1): Fraction(2)})
    cls = classify(g)
    assert not cls.tractable
    assert cls.witness.kind == "RepValueInconsistent"
    assert replay_witness(g, cls.witness)


def test_factoring_identity_direct_violation():
    # clean structure, doctored table: the identity test must localize it
    fs = check_product_structure(fx.mixed(), sim_classes(fx.mixed(), (0, 1, 2, 3)))
    doctored = fx.mixed_perturbed_entry()
    w = verify_factoring_identity(doctored, fs)
    assert w is not None and w.kind == "FactoringIdentityViolation"
    assert w.evidence["elements"] == [0, 0, 1]
    assert w.evidence["lhs"] == "125"
    assert w.evidence["rhs"] == "27"
    assert verify_factoring_identity(fx.mixed(), fs) is None
    # classify never emits this kind, so the rerun cannot confirm it
    assert not replay_witness(doctored, w)


def test_latin_check():
    parity_rel = frozenset({(0, 0, 0), (0, 1, 1)})
    assert latin_check(parity_rel, 3, 2) == {(0, 0): 0, (0, 1): 1, (1, 1): 0}
    w = latin_check(frozenset({(0, 0, 1), (0, 1, 1), (1, 1, 1)}), 3, 2)
    assert w is not None and w.kind == "NotLatin"
    assert w.evidence == {"prefix": [0, 1], "completions": [0, 1]}


def test_reconstruct_group_parity():
    completion = latin_check(frozenset({(0, 0, 0), (0, 1, 1)}), 3, 2)
    gs = reconstruct_group(completion, 3, 2)
    assert not isinstance(gs, HardnessWitness)
    assert gs.a == 0
    assert gs.decomposition.factors == (2,)
    assert equation_check(completion, gs) is None


def test_reconstruct_group_mod5():
    rel = frozenset(
        key for key in combinations_with_replacement(range(5), 3) if sum(key) % 5 == 2
    )
    completion = latin_check(rel, 3, 5)
    gs = reconstruct_group(completion, 3, 5)
    assert gs.a == 2
    assert gs.decomposition.factors == (5,)
    assert equation_check(completion, gs) is None


def test_reconstruct_group_shifted_zero():
    completion = latin_check(fx.shifted_mod4_relation(), 3, 4)
    gs = reconstruct_group(completion, 3, 4, zero=1)
    assert gs.a == 2
    assert gs.decomposition.factors == (4,)
    # derived addition is x + y - 1 mod 4
    for x in range(4):
        for y in range(4):
            assert gs.group.add(x, y) == (x + y - 1) % 4
    assert equation_check(completion, gs) is None
    # default zero gives the untranslated group, same invariants
    gs0 = reconstruct_group(completion, 3, 4)
    assert gs0.decomposition.factors == (4,)
    assert gs0.a == 0


def test_reconstruct_group_arity_four():
    rel = frozenset(
        key for key in combinations_with_replacement(range(3), 4) if sum(key) % 3 == 1
    )
    completion = latin_check(rel, 4, 3)
    gs = reconstruct_group(completion, 4, 3)
    assert gs.a == 1
    assert gs.decomposition.factors == (3,)
    assert equation_check(completion, gs) is None


def test_reconstruct_group_not_associative():
    rel = frozenset(sorted(fx.steiner_fano().weights))
    w = reconstruct_group(latin_check(rel, 3, 7), 3, 7)
    assert isinstance(w, HardnessWitness)
    assert w.kind == "NotAssociative"
    ev = w.evidence
    assert {"triple", "left", "right"} <= set(ev)
    assert ev["left"] != ev["right"]


def test_equation_check_direct_mismatch():
    completion = latin_check(frozenset({(0, 0, 0), (0, 1, 1)}), 3, 2)
    gs = reconstruct_group(completion, 3, 2)
    wrong = GroupStructure(group=gs.group, a=1, decomposition=gs.decomposition)
    w = equation_check(completion, wrong)
    assert w is not None and w.kind == "EquationMismatch"
    assert {"prefix", "got", "expected"} <= set(w.evidence)


def test_classify_tractable_fixtures():
    cases = [
        (fx.parity(), 1, [(2,)]),
        (fx.geometric(), 1, [()]),
        (fx.mixed(), 1, [(2,)]),
        (fx.parity_loop_blocks(), 2, [(2,), ()]),
        (fx.parity_allones_blocks(), 2, [(2,), ()]),
    ]
    for g, ncomp, factors in cases:
        cls = classify(g)
        assert cls.tractable
        assert len(cls.components) == ncomp
        assert [c.group.decomposition.factors for c in cls.components] == factors


def test_classify_prunes_and_reports_kept():
    g = fx.structured_family(
        [(AbelianGroup.cyclic(2), 1, (Fraction(1),), 0, Fraction(1))], junk=2
    )
    assert g.q == 4
    cls = classify(g)
    assert cls.tractable
    assert cls.kept == (0, 1)
    assert cls.removed == (2, 3)
    assert cls.components[0].factor.classes == ((0,), (1,))


def test_classify_all_zero():
    cls = classify(SymFunc.from_weights(2, 3, {}))
    assert cls.tractable
    assert cls.components == ()
    assert cls.kept == ()


def _equation_mismatch_table():
    # Latin and associative (Z4 with zero 0 reads off a target of 0), but
    # the members 1111 and 2223 do not sum to that target
    members = "0000 0011 0022 0033 0123 1111 1122 1133 2223 2333".split()
    relation = frozenset(tuple(int(c) for c in key) for key in members)
    return relation_to_symfunc(relation, 4, 4)


def test_classify_hard_fixtures_and_replay():
    cases = [
        (fx.not_all_zero(), "NotLatin"),
        (fx.steiner_fano(), "NotAssociative"),
        (fx.mixed_skewed(), "RatioMultisetMismatch"),
        (fx.mixed_missing_element(), "UnequalClassSizes"),
        (_equation_mismatch_table(), "EquationMismatch"),
    ]
    for g, kind in cases:
        cls = classify(g)
        assert not cls.tractable
        assert cls.witness.kind == kind
        assert cls.witness.kind in WITNESS_KINDS
        assert replay_witness(g, cls.witness)
        # the CLI prints the witness as JSON; read back, its component is a list
        printed = json.loads(json.dumps(_classification_payload(cls)))["witness"]
        assert isinstance(printed["component"], list)
        assert replay_witness(g, HardnessWitness(**printed))

    g = _equation_mismatch_table()
    w = classify(g).witness
    assert w.evidence == {"prefix": [2, 2, 2], "got": 3, "expected": 2}
    for changed in ({"got": 2}, {"expected": 3}, {"prefix": [2, 2, 3]}):
        forged = HardnessWitness(w.kind, w.component, {**w.evidence, **changed})
        assert not replay_witness(g, forged), changed


def test_replay_rejects_stale_witness():
    parity_cls = classify(fx.not_all_zero())
    w = parity_cls.witness
    # same witness against a table it does not describe
    assert not replay_witness(fx.parity(), w)

    fake = HardnessWitness(
        "UnequalClassSizes",
        (0, 1, 2, 3),
        {"class_a": [0], "class_b": [2, 3], "size_a": 1, "size_b": 2},
    )
    assert not replay_witness(fx.mixed(), fake)

    # NotLatin prefixes of the wrong length have no completion in an
    # r-multiset relation; they must not pass for a Latin failure
    for g, component in ((fx.parity(), (0, 1)), (fx.mixed(), (0, 1)), (fx.mixed(), (0, 1, 2, 3))):
        for prefix in ([0], [], [0, 0, 0]):
            forged = HardnessWitness("NotLatin", component, {"prefix": prefix, "completions": []})
            assert not replay_witness(g, forged), (g.q, component, prefix)

    # malformed evidence is no witness
    rep_value = SymFunc.from_weights(2, 3, {(0, 0, 0): Fraction(1), (0, 1, 1): Fraction(2)})
    for g, kind, evidence in (
        (fx.not_all_zero(), "NotLatin", {}),
        (fx.not_all_zero(), "NotLatin", {"prefix": 5}),
        (rep_value, "RepValueInconsistent", {}),
    ):
        component = classify(g).witness.component
        assert not replay_witness(g, HardnessWitness(kind, component, evidence)), evidence

    # true of the table, but not the first mismatch classify finds
    g = SymFunc.from_weights(
        2, 3, {(0, 0, 0): Fraction(1), (0, 1, 1): Fraction(2), (1, 1, 1): Fraction(3)}
    )
    w = classify(g).witness
    assert w.evidence["tuple_b"] == [0, 1, 1] and replay_witness(g, w)
    later = HardnessWitness(w.kind, w.component, {**w.evidence, "tuple_b": [1, 1, 1], "value_b": "3"})
    assert not replay_witness(g, later)

    with pytest.raises(ValueError):
        replay_witness(fx.parity(), HardnessWitness("NoSuchKind", (), {}))


def test_replay_returns_false_on_malformed_witnesses():
    # a malformed witness is no witness: replay answers False, never raises
    factoring = "FactoringIdentityViolation"
    cases = [
        (fx.not_all_zero(), HardnessWitness("NotLatin", 5, {})),  # component not iterable
        (fx.not_all_zero(), HardnessWitness("NotLatin", [[0], [1]], {})),  # unhashable elements
        (fx.geometric(), HardnessWitness(factoring, (0, 1), {})),
        (fx.geometric(), HardnessWitness(factoring, (0, 1), {"elements": 3, "uniform": [], "lhs": "1", "rhs": "1"})),
        (fx.geometric(), HardnessWitness(factoring, (0, 1), {"elements": [0, 0, 1], "uniform": [], "lhs": "x", "rhs": "1"})),
        (fx.geometric(), HardnessWitness(factoring, (0, 1), {"elements": [0, 0, 1], "uniform": [[0, 0, 1]], "lhs": 8})),
    ]
    for g, w in cases:
        assert replay_witness(g, w) is False, w


def test_replay_rejects_forged_witnesses_on_tractable_tables():
    # each evidence is true of the table, but off a domain component or
    # off the index-0 representatives, so it shows no hardness
    z2 = (fx.group_from_factors(2), 1, (Fraction(1),), 0, Fraction(1))
    two_parity = fx.structured_family([z2, z2])
    forged = [
        (fx.mixed(), HardnessWitness(
            "UnequalClassSizes", (0, 1, 2),
            {"class_a": [0, 1], "class_b": [2], "size_a": 2, "size_b": 1})),
        (fx.parity_allones_blocks(), HardnessWitness(
            "UnequalClassSizes", (0, 1, 2, 3),
            {"class_a": [0], "class_b": [2, 3], "size_a": 1, "size_b": 2})),
        (fx.geometric(), HardnessWitness(
            "RepValueInconsistent", (0, 1),
            {"tuple_a": [0, 0, 0], "value_a": "1", "tuple_b": [0, 0, 1], "value_b": "2"})),
        (two_parity, HardnessWitness(
            "NotLatin", (0, 1, 2, 3), {"prefix": [0, 2], "completions": []})),
        (fx.geometric(), HardnessWitness(
            "FactoringIdentityViolation", (0, 1),
            {"elements": [0, 0, 1], "uniform": [[0, 0, 0]] * 3, "lhs": "8", "rhs": "1"})),
    ]
    for g, w in forged:
        assert classify(g).tractable
        assert not replay_witness(g, w), w.kind
    # a genuine RepValueInconsistent names index-0 representatives only
    g = SymFunc.from_weights(2, 3, {(0, 0, 0): Fraction(1), (0, 1, 1): Fraction(2)})
    w = classify(g).witness
    assert w.evidence["tuple_a"] == [0, 0, 0] and replay_witness(g, w)
    for tup in ([0, 0, 1], [1, 1, 1]):  # a zero key is no key
        assert not replay_witness(g, HardnessWitness(w.kind, w.component, {**w.evidence, "tuple_b": tup}))


def test_replay_confirms_doctored_equation_witness_false():
    completion = latin_check(frozenset({(0, 0, 0), (0, 1, 1)}), 3, 2)
    gs = reconstruct_group(completion, 3, 2)
    wrong = GroupStructure(group=gs.group, a=1, decomposition=gs.decomposition)
    found = equation_check(completion, wrong)
    # on parity's component (0, 1) each class is its own element, so the
    # class-id evidence is the element-id evidence
    w = HardnessWitness(found.kind, (0, 1), found.evidence)
    # parity's true table yields a = 0, so this witness must not replay
    assert not replay_witness(fx.parity(), w)


def test_classify_runs_each_stage_once_per_component(monkeypatch):
    # perfbench times the stages by wrapping these module names; a
    # refactor that bypasses them would make its per-layer metrics read 0
    names = (
        "sim_classes",
        "check_product_structure",
        "latin_check",
        "reconstruct_group",
        "equation_check",
        "_completion_index",
    )
    calls = dict.fromkeys(names, 0)

    def counting(name):
        original = getattr(dichotomy, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(dichotomy, name, counting(name))
    blocks = [
        (fx.group_from_factors(2, 2), 1, (Fraction(1),), 1, Fraction(1)),
        (fx.group_from_factors(3), 2, (Fraction(1), Fraction(2)), 0, Fraction(1, 2)),
        (fx.group_from_factors(), 1, (Fraction(1),), 0, Fraction(3)),
    ]
    for r in (3, 4):
        calls.update(dict.fromkeys(names, 0))
        cls = classify(fx.structured_family(blocks, r=r))
        assert cls.tractable and len(cls.components) == 3
        assert calls == dict.fromkeys(names, 3)
    # a replay reruns one component's stages, each at most once
    g = _equation_mismatch_table()
    w = classify(g).witness
    calls.update(dict.fromkeys(names, 0))
    assert replay_witness(g, w)
    assert calls == dict.fromkeys(names, 1)


def test_classify_random_structured_families():
    rng = random.Random(20260817)
    for _ in range(25):
        g = fx.random_tractable(rng, rng.randint(2, 5))
        cls = classify(g)
        assert cls.tractable, g.weights


def test_classify_random_tables_replay():
    rng = random.Random(90125)
    hard = 0
    for _ in range(40):
        g = fx.random_table(rng, rng.randint(2, 4), zero_frac=0.35)
        cls = classify(g)
        if not cls.tractable:
            hard += 1
            assert replay_witness(g, cls.witness), cls.witness
    assert hard > 20  # random tables are overwhelmingly hard


def test_classify_scale_guard_z4_cubed_arity_four():
    # q = 64, r = 4: the table layer reads only the 11,968 nonzero keys of
    # the 766,480 multisets, so building and classifying stay well in budget
    started = time.perf_counter()
    group = fx.group_from_factors(4, 4, 4)
    g = fx.structured_family([(group, 1, (Fraction(1),), 5, Fraction(2, 3))], r=4)
    cls = classify(g)
    elapsed = time.perf_counter() - started
    assert cls.tractable
    assert [c.group.decomposition.factors for c in cls.components] == [(4, 4, 4)]
    assert elapsed < 10.0, f"{elapsed:.1f}s"
