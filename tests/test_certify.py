"""Hard witnesses checked from the table (certify.check_witness)."""

import contextlib
import importlib.util
import io
import json
import random
import sys
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from pathlib import Path

import pytest

from hyperhom import cli, dichotomy
from hyperhom import fixtures as fx
from hyperhom.certify import check_witness
from hyperhom.dichotomy import WITNESS_KINDS, HardnessWitness, classify, replay_witness
from hyperhom.exactcore import format_rational
from hyperhom.gadgets import relation_to_symfunc
from hyperhom.model import SymFunc, dump_symfunc, load_symfunc

from test_dichotomy import _equation_mismatch_table
from test_groupstages import latin_relations
from test_tablelayer import latin_relations as first_latin_relations

ROOT = Path(__file__).resolve().parent.parent
REP_VALUE = SymFunc.from_weights(2, 3, {(0, 0, 0): Fraction(1), (0, 1, 1): Fraction(2)})


def _hard_fixtures():
    return [
        (fx.not_all_zero(), "NotLatin"),
        (fx.steiner_fano(), "NotAssociative"),
        (fx.mixed_skewed(), "RatioMultisetMismatch"),
        (fx.mixed_missing_element(), "UnequalClassSizes"),
        (_equation_mismatch_table(), "EquationMismatch"),
        (REP_VALUE, "RepValueInconsistent"),
    ]


def _doctored_families(rng, count):
    """Structured families, one or two blocks with s = 1..3 and junk
    elements, with one key scaled, dropped or added, one element's slice
    scaled (which keeps the classes and changes a ratio), or every key of
    one class multiset scaled (which keeps the classes and their ratios and
    changes a representative value)."""
    tables = []
    for _ in range(count):
        blocks = []
        for _ in range(rng.randint(1, 2)):
            group = fx.group_from_factors(*rng.choice([(), (2,), (3,), (2, 2), (4,)]))
            s = rng.randint(1, 3)
            mu = sorted([Fraction(1)] + [Fraction(rng.randint(2, 7), rng.randint(1, 3)) for _ in range(s - 1)])
            blocks.append((group, s, mu, rng.randrange(group.order), Fraction(rng.randint(1, 5), 2)))
        g = fx.structured_family(blocks, r=rng.choice((3, 4)), junk=rng.randint(0, 1))
        weights = dict(g.weights)
        key = rng.choice(sorted(weights))
        move = rng.choice(("scale", "drop", "add", "element", "member"))
        if move == "element":
            z = rng.choice(key)
            weights = {k: v * 2 ** k.count(z) for k, v in weights.items()}
        elif move == "member":
            class_id = {}
            for i, structure in enumerate(classify(g).components):
                for c, cls in enumerate(structure.factor.classes):
                    class_id.update(dict.fromkeys(cls, (i, c)))
            alpha = sorted(map(class_id.get, key))
            weights = {k: v * (2 if sorted(map(class_id.get, k)) == alpha else 1) for k, v in weights.items()}
        elif move == "scale":
            weights[key] *= rng.choice((2, 3))
        elif move == "drop":
            del weights[key]
        else:
            weights[tuple(sorted(rng.randrange(g.q) for _ in range(g.r)))] = Fraction(1)
        tables.append(SymFunc.from_weights(g.q, g.r, weights))
    return tables


def _witnesses(tables):
    out = []
    for g in tables:
        cls = classify(g)
        if not cls.tractable:
            out.append((g, cls.witness))
    return out


def _assert_agree(pairs):
    for g, w in pairs:
        assert replay_witness(g, w), w
        assert check_witness(g, w), w


def test_check_agrees_with_replay_on_hard_fixtures():
    for g, kind in _hard_fixtures():
        cls = classify(g)
        assert cls.witness.kind == kind
        _assert_agree([(g, cls.witness)])
        # the CLI prints the witness as JSON; read back, it still checks
        printed = json.loads(json.dumps(cli._classification_payload(cls)))
        assert printed["replay"] is True
        assert check_witness(g, HardnessWitness(**printed["witness"]))


def test_check_agrees_with_replay_on_random_tables():
    rng = random.Random(31)
    tables = [
        fx.random_table(rng, rng.randint(2, 4), rng.choice((3, 4)), zero_frac=rng.choice((0.2, 0.35, 0.6)))
        for _ in range(300)
    ]
    pairs = _witnesses(tables)
    assert len(pairs) > 250
    _assert_agree(pairs)


def test_check_agrees_with_replay_on_random_relations():
    # with every weight 1, slices differ only in their rests, so elements
    # of one key count and least rest are told apart by the later rests
    rng = random.Random(32)
    tables = []
    for _ in range(300):
        q, r = rng.randint(2, 5), rng.choice((3, 4))
        keys = list(combinations_with_replacement(range(q), r))
        tables.append(relation_to_symfunc(frozenset(rng.sample(keys, rng.randint(1, len(keys)))), q, r))
    pairs = _witnesses(tables)
    assert len(pairs) > 200
    _assert_agree(pairs)


def test_check_agrees_with_replay_on_structured_witnesses():
    # doctored group tables give the weight kinds, also on components that
    # do not start at 0, and Latin relations (all at m = 4, r = 4 and
    # m = 5, r = 3, the first 100 at m = 6, r = 3) give the group kinds
    rng = random.Random(1031)
    tables = _doctored_families(rng, 150)
    tables += [relation_to_symfunc(rel, 4, 4) for rel in latin_relations(4, 4)]
    tables += [relation_to_symfunc(rel, 5, 3) for rel in latin_relations(5, 3)]
    tables += [relation_to_symfunc(rel, 6, 3) for rel in first_latin_relations(6, 3, 100)]
    pairs = _witnesses(tables)
    kinds = {w.kind for _, w in pairs}
    assert kinds == set(WITNESS_KINDS) - {"FactoringIdentityViolation"}, kinds
    assert any(w.component[0] != 0 for _, w in pairs)
    _assert_agree(pairs)


def test_check_agrees_with_replay_on_classify_hard_tables(tmp_path, monkeypatch):
    # the benchmark's six classify_hard tables, built as perfbench builds them
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up there
    spec.loader.exec_module(workloads)
    for seed in (1, 2, 3):
        cmds = workloads.build("classify_hard", seed, str(tmp_path / str(seed)))
        assert len(cmds) == 6
        for cmd in cmds:
            g = load_symfunc(Path(cmd.argv[2]).read_text())
            _assert_agree(_witnesses([g]))


def _changed(value, component):
    """Single-field changes that each make the stated fact false: another
    int, a string that is no rational the table gives, and a list one
    entry shorter or with one more entry (an element outside it)."""
    if type(value) is int:
        return [value + 1, str(value)]
    if isinstance(value, str):
        return [value + "1"]
    assert isinstance(value, list), value
    extra = next((z for z in component if z not in value), component[0])
    grown = value + ["1"] if value and isinstance(value[0], str) else sorted(value + [extra])
    return ([value[:-1]] if value else []) + [grown, tuple(value)]


def test_check_rejects_any_changed_evidence_field():
    rng = random.Random(1031)
    tables = [g for g, _ in _hard_fixtures()] + _doctored_families(rng, 60)
    tables += [relation_to_symfunc(rel, 4, 4) for rel in latin_relations(4, 4)]
    tables += [relation_to_symfunc(rel, 6, 3) for rel in first_latin_relations(6, 3, 40)]
    tables += [fx.random_table(rng, rng.randint(2, 4), 3) for _ in range(20)]
    pairs = _witnesses(tables)
    assert {w.kind for _, w in pairs} == set(WITNESS_KINDS) - {"FactoringIdentityViolation"}
    forged = 0
    for g, w in pairs:
        assert check_witness(g, w)
        for name, value in w.evidence.items():
            for other in _changed(value, w.component):
                changed = HardnessWitness(w.kind, w.component, {**w.evidence, name: other})
                assert check_witness(g, changed) is False, (w, name, other)
                forged += 1
        assert check_witness(g, HardnessWitness(w.kind, w.component[:-1], w.evidence)) is False
        assert check_witness(g, HardnessWitness(w.kind, w.component, {**w.evidence, "extra": 1})) is False
        missing = dict(w.evidence)
        missing.popitem()
        assert check_witness(g, HardnessWitness(w.kind, w.component, missing)) is False
        for kind in WITNESS_KINDS:  # another kind's fields
            if kind != w.kind:
                assert check_witness(g, HardnessWitness(kind, w.component, w.evidence)) is False
    assert forged > 900


def test_check_takes_no_witness_on_tractable_tables():
    # every evidence the table makes true as far as it can (actual class
    # sizes and ratios, actual key values, actual completions, and every
    # value for the group kinds' answers) fails on a tractable component
    rng = random.Random(4409)
    tried = 0
    for _ in range(40):
        g = fx.random_tractable(rng, rng.randint(2, 5))
        cls = classify(g)
        assert cls.tractable
        for structure in cls.components:
            fs = structure.factor
            comp = tuple(sorted(z for c in fs.classes for z in c))
            classes = [sorted(c) for c in fs.classes]
            reps = sorted(c[0] for c in classes)

            def ratios(c):
                firsts = [g.weights[g.support_index.holders[z][0]] for z in c]
                return [format_rational(t / min(firsts)) for t in sorted(firsts)]

            candidates = []
            for a, b in permutations(classes, 2):
                pair = {"class_a": a, "class_b": b}
                candidates.append(("UnequalClassSizes", {**pair, "size_a": len(a), "size_b": len(b)}))
                candidates.append(("RatioMultisetMismatch", {**pair, "ratios_a": ratios(a), "ratios_b": ratios(b)}))
            keys = [k for k in sorted(g.weights) if k[0] in comp][:30]
            for ka, kb in combinations(keys, 2):
                evidence = {"tuple_a": list(ka), "value_a": format_rational(g.weights[ka])}
                evidence.update({"tuple_b": list(kb), "value_b": format_rational(g.weights[kb])})
                candidates.append(("RepValueInconsistent", evidence))
            for prefix in combinations_with_replacement(reps, g.r - 1):
                found = [c for c in reps if tuple(sorted(prefix + (c,))) in g.weights]
                candidates.append(("NotLatin", {"prefix": list(prefix), "completions": found}))
                for got, expected in product(reps, repeat=2):
                    evidence = {"prefix": list(prefix), "got": got, "expected": expected}
                    candidates.append(("EquationMismatch", evidence))
            for triple in product(reps[:4], repeat=3):
                for left, right in product(reps, repeat=2):
                    candidates.append(("NotAssociative", {"triple": list(triple), "left": left, "right": right}))
            for kind, evidence in candidates:
                assert not check_witness(g, HardnessWitness(kind, comp, evidence)), (g.weights, kind, evidence)
            tried += len(candidates)
    assert tried > 5000, tried


def test_check_calls_no_classifier_stage(monkeypatch):
    hard = [(g, classify(g).witness) for g, _ in _hard_fixtures()]

    def refuse(*args, **kwargs):
        raise AssertionError("a classifier stage ran")

    for name in (
        "sim_classes",
        "check_product_structure",
        "_member_pass",
        "_group_of_dots",
        "latin_check",
        "reconstruct_group",
        "equation_check",
        "_completion_index",
        "_classify_component",
        "classify",
        "replay_witness",
    ):
        monkeypatch.setattr(dichotomy, name, refuse)
    for g, w in hard:
        assert check_witness(g, w), w.kind


def test_check_names_classes_by_least_element():
    # a prefix names each class by its least element, as classify does;
    # the same fact named by another member is not the witness. Dropping
    # every key of one class multiset keeps the classes of Z3 at s = 2
    g = fx.structured_family([(fx.group_from_factors(3), 2, (Fraction(1), Fraction(2)), 0, Fraction(1))])
    classes = classify(g).components[0].factor.classes
    class_of = {z: min(cls) for cls in classes for z in cls}
    alpha = sorted(map(class_of.get, min(g.weights)))
    kept = {k: v for k, v in g.weights.items() if sorted(map(class_of.get, k)) != alpha}
    g = SymFunc.from_weights(g.q, g.r, kept)
    w = classify(g).witness
    assert w.kind == "NotLatin" and check_witness(g, w)
    z = w.evidence["prefix"][-1]
    other = max(z2 for z2 in class_of if class_of[z2] == z)
    assert other != z
    prefix = sorted(w.evidence["prefix"][:-1] + [other])
    assert not check_witness(g, HardnessWitness(w.kind, w.component, {**w.evidence, "prefix": prefix}))


def test_check_reads_only_cells_with_one_completion():
    # x + y + z = 0 over Z3 with the member (0, 0, 1) added: the prefix
    # (0, 0) now completes with 0 and 1, so the target dot(0, 0) is no
    # cell, and no EquationMismatch can be read off the table
    relation = {k for k in combinations_with_replacement(range(3), 3) if sum(k) % 3 == 0} | {(0, 0, 1)}
    g = relation_to_symfunc(frozenset(relation), 3, 3)
    assert classify(g).witness.kind == "NotLatin"
    for prefix in combinations_with_replacement(range(3), 2):
        for got, expected in product(range(3), repeat=2):
            evidence = {"prefix": list(prefix), "got": got, "expected": expected}
            assert not check_witness(g, HardnessWitness("EquationMismatch", (0, 1, 2), evidence)), evidence


def test_check_rejects_unknown_kind():
    with pytest.raises(ValueError):
        check_witness(fx.parity(), HardnessWitness("NoSuchKind", (), {}))


def test_cli_replay_field_comes_from_the_checker(tmp_path, monkeypatch):
    # the classify command confirms a Hard answer with check_witness alone
    monkeypatch.setattr(cli, "replay_witness", None)
    path = tmp_path / "fano.sf"
    path.write_text(dump_symfunc(fx.steiner_fano()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["classify", "-g", str(path)]) == 0
    report = json.loads(out.getvalue())
    assert report["status"] == "hard" and report["payload"]["replay"] is True
