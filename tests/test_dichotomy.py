"""Classification pipeline: classes, structure, groups, witnesses."""

import json
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from hyperhom import fixtures as fx
from hyperhom.abelian import AbelianGroup, decompose
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
from hyperhom.model import SymFunc


def test_sim_classes_fixtures():
    assert sim_classes(fx.parity(), (0, 1)).classes == ((0,), (1,))
    assert sim_classes(fx.geometric(), (0, 1)).classes == ((0, 1),)
    assert sim_classes(fx.mixed(), (0, 1, 2, 3)).classes == ((0, 1), (2, 3))


def test_sim_classes_rejects_zero_slice():
    g = SymFunc.from_weights(2, 3, {(0, 0, 0): Fraction(1)})
    with pytest.raises(ValueError):
        sim_classes(g, (0, 1))


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
    assert fs.element(1, 1) == 3


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
    assert replay_witness(doctored, w)


def test_latin_check():
    parity_rel = frozenset({(0, 0, 0), (0, 1, 1)})
    assert latin_check(parity_rel, 3, 2) is None
    w = latin_check(frozenset({(0, 0, 1), (0, 1, 1), (1, 1, 1)}), 3, 2)
    assert w is not None and w.kind == "NotLatin"
    assert w.evidence == {"prefix": [0, 1], "completions": [0, 1]}


def test_reconstruct_group_parity():
    gs = reconstruct_group(frozenset({(0, 0, 0), (0, 1, 1)}), 3, 2)
    assert not isinstance(gs, HardnessWitness)
    assert gs.a == 0
    assert gs.decomposition.factors == (2,)
    assert equation_check(frozenset({(0, 0, 0), (0, 1, 1)}), gs) is None


def test_reconstruct_group_mod5():
    rel = frozenset(
        key for key in combinations_with_replacement(range(5), 3) if sum(key) % 5 == 2
    )
    gs = reconstruct_group(rel, 3, 5)
    assert gs.a == 2
    assert gs.decomposition.factors == (5,)
    assert equation_check(rel, gs) is None


def test_reconstruct_group_shifted_zero():
    rel = fx.shifted_mod4_relation()
    gs = reconstruct_group(rel, 3, 4, zero=1)
    assert gs.a == 2
    assert gs.decomposition.factors == (4,)
    # derived addition is x + y - 1 mod 4
    for x in range(4):
        for y in range(4):
            assert gs.group.add(x, y) == (x + y - 1) % 4
    assert equation_check(rel, gs) is None
    # default zero gives the untranslated group, same invariants
    gs0 = reconstruct_group(rel, 3, 4)
    assert gs0.decomposition.factors == (4,)
    assert gs0.a == 0


def test_reconstruct_group_arity_four():
    rel = frozenset(
        key for key in combinations_with_replacement(range(3), 4) if sum(key) % 3 == 1
    )
    gs = reconstruct_group(rel, 4, 3)
    assert gs.a == 1
    assert gs.decomposition.factors == (3,)
    assert equation_check(rel, gs) is None


def test_reconstruct_group_not_associative():
    rel = frozenset(fx.steiner_fano().support())
    w = reconstruct_group(rel, 3, 7)
    assert isinstance(w, HardnessWitness)
    assert w.kind == "NotAssociative"
    ev = w.evidence
    assert {"triple", "left", "right"} <= set(ev)
    assert ev["left"] != ev["right"]


def test_equation_check_direct_mismatch():
    rel = frozenset({(0, 0, 0), (0, 1, 1)})
    gs = reconstruct_group(rel, 3, 2)
    wrong = GroupStructure(group=gs.group, a=1, decomposition=gs.decomposition)
    w = equation_check(rel, wrong)
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


def test_classify_hard_fixtures_and_replay():
    cases = [
        (fx.not_all_zero(), "NotLatin"),
        (fx.steiner_fano(), "NotAssociative"),
        (fx.mixed_skewed(), "RatioMultisetMismatch"),
        (fx.mixed_missing_element(), "UnequalClassSizes"),
    ]
    for g, kind in cases:
        cls = classify(g)
        assert not cls.tractable
        assert cls.witness.kind == kind
        assert cls.witness.kind in WITNESS_KINDS
        assert replay_witness(g, cls.witness)
        json.dumps(cls.witness.evidence)  # witness must be machine-readable


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

    with pytest.raises(ValueError):
        replay_witness(fx.parity(), HardnessWitness("NoSuchKind", (), {}))


def test_replay_confirms_doctored_equation_witness_false():
    rel = frozenset({(0, 0, 0), (0, 1, 1)})
    gs = reconstruct_group(rel, 3, 2)
    wrong = GroupStructure(group=gs.group, a=1, decomposition=gs.decomposition)
    w = equation_check(rel, wrong, component=(0, 1), reps=(0, 1))
    # parity's true table yields a = 0, so this witness must not replay
    assert not replay_witness(fx.parity(), w)


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
