"""The group stages of the classifier against the full scans they replace.

first_nonassociative (Light's test on a generating set), the equation
check over relation members and the basis-only decomposition check each
skip work that a plain scan does. The references below are those plain
scans, written out here: the m^3 lex scan for associativity, every
(r-1)-prefix against its completion, and additivity on all m^2 pairs. On
every input the two must agree, down to the witness evidence. The
factoring identity is itself the full scan over all s^r index vectors per
relation member (verify_factoring_identity); its witnesses are checked
against the table they name.
"""

import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from hyperhom import fixtures as fx
from hyperhom.abelian import (
    AbelianGroup,
    _verify_decomposition,
    decompose,
    first_nonassociative,
)
from hyperhom.dichotomy import (
    KIND_FACTORING_IDENTITY_VIOLATION,
    FactorStructure,
    GroupStructure,
    check_product_structure,
    equation_check,
    latin_check,
    reconstruct_group,
    replay_witness,
    sim_classes,
    verify_factoring_identity,
)
from hyperhom.exactcore import format_rational
from hyperhom.model import SymFunc, domain_components, prune_domain

# ---------------------------------------------------------------------------
# full-scan references


def lex_scan(table):
    m = len(table)
    for a, b, c in product(range(m), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return (a, b, c)
    return None


def prefix_scan(relation, gs: GroupStructure, reps):
    grp, m = gs.group, gs.group.order
    r = len(next(iter(relation)))
    for prefix in combinations_with_replacement(range(m), r - 1):
        (got,) = [c for c in range(m) if tuple(sorted(prefix + (c,))) in relation]
        total = grp.zero
        for c in prefix:
            total = grp.add(total, c)
        expected = grp.add(gs.a, grp.neg(total))
        if got != expected:
            return {
                "prefix": [reps[c] for c in prefix],
                "got": reps[got],
                "expected": reps[expected],
            }
    return None


def additive_on_all_pairs(group: AbelianGroup, factors, iso) -> bool:
    if math.prod(factors) != group.order or len(set(iso)) != group.order:
        return False
    return all(
        iso[group.add(a, b)] == tuple((x + y) % d for x, y, d in zip(iso[a], iso[b], factors))
        for a in range(group.order)
        for b in range(group.order)
    )


# ---------------------------------------------------------------------------
# tables

GROUP_FACTORS = [(), (2,), (3,), (4,), (2, 2), (5,), (6,), (2, 4), (3, 3), (2, 2, 2), (2, 6)]


def relabel(table, perm):
    """The table of the same operation with element x renamed perm[x]."""
    m = len(table)
    out = [[0] * m for _ in range(m)]
    for a in range(m):
        for b in range(m):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


def product_table(left, right):
    """The direct product of two operations, element (a, b) at a * len(right) + b."""
    n = len(right)
    return [
        [left[a // n][b // n] * n + right[a % n][b % n] for b in range(len(left) * n)]
        for a in range(len(left) * n)
    ]


def symmetric_group_3():
    elems = list(permutations(range(3)))
    index = {p: i for i, p in enumerate(elems)}
    return [[index[tuple(p[q[i]] for i in range(3))] for q in elems] for p in elems]


@st.composite
def group_tables(draw):
    """A relabelled direct sum of cyclic groups, or the non-Abelian S3."""
    if draw(st.integers(0, 9)) == 0:
        table = symmetric_group_3()
    else:
        factors = draw(st.sampled_from(GROUP_FACTORS))
        table = [list(row) for row in fx.group_from_factors(*factors).add_table]
    return relabel(table, draw(st.permutations(range(len(table)))))


@st.composite
def operation_tables(draw):
    """Groups, groups translated so that 0 is no identity (x + y + t), groups
    with one entry changed, constant and projection tables, arbitrary small
    tables, and products of a group with an arbitrary small table (some of
    whose elements pass Light's test while others fail it)."""
    kind = draw(st.sampled_from(
        ("group", "translated", "perturbed", "constant", "left", "random", "product")
    ))
    if kind in ("random", "product"):
        m = draw(st.integers(1, 4 if kind == "random" else 3))
        table = [draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m)) for _ in range(m)]
        if kind == "random":
            return table
        group = fx.group_from_factors(*draw(st.sampled_from(GROUP_FACTORS[:6]))).add_table
        table = product_table(group, table)
        return relabel(table, draw(st.permutations(range(len(table)))))
    table = draw(group_tables())
    m = len(table)
    if kind == "translated":
        t = draw(st.integers(0, m - 1))
        table = [[table[table[a][b]][t] for b in range(m)] for a in range(m)]
    elif kind == "perturbed":
        a, b, c = (draw(st.integers(0, m - 1)) for _ in range(3))
        table[a][b] = c
    elif kind == "constant":
        c = draw(st.integers(0, m - 1))
        table = [[c] * m for _ in range(m)]
    elif kind == "left":
        table = [[a] * m for a in range(m)]
    return table


# ---------------------------------------------------------------------------
# associativity


@settings(max_examples=400, deadline=None)
@given(operation_tables())
def test_first_nonassociative_matches_lex_scan(table):
    assert first_nonassociative(table) == lex_scan(table)


def test_first_nonassociative_catches_every_single_entry_change():
    base = [list(row) for row in fx.group_from_factors(2, 4).add_table]
    m = len(base)
    failures = 0
    for a, b, c in product(range(m), repeat=3):
        if base[a][b] == c:
            continue
        table = [row[:] for row in base]
        table[a][b] = c
        got = first_nonassociative(table)
        assert got == lex_scan(table)
        failures += got is not None
    assert failures == m * m * (m - 1)  # a changed cell of a group table always breaks it


def test_translated_group_is_associative_without_identity_at_zero():
    z6 = fx.group_from_factors(6).add_table
    table = [[(a + b + 1) % 6 for b in range(6)] for a in range(6)]
    assert all(table[0][x] != x for x in range(1, 6))
    assert first_nonassociative(table) is None
    assert first_nonassociative(z6) is None
    loop = [[0, 1, 2], [1, 0, 0], [2, 0, 1]]  # identity 0, commutative
    assert lex_scan(loop) == (1, 1, 2)
    with pytest.raises(ValueError, match=r"not associative at \(1, 1, 2\)"):
        AbelianGroup.from_add_table(loop)


def test_light_test_checks_every_generator():
    # Z4 times a commutative loop of order 3: (1, e) is in the middle nucleus
    # (loop identity e), the loop part of other elements is not
    loop = [[0, 1, 2], [1, 0, 0], [2, 0, 1]]
    table = product_table([list(row) for row in fx.group_from_factors(4).add_table], loop)
    perm = list(range(12))
    perm[0], perm[3] = 3, 0  # (1, e) becomes element 0, the first generator
    table = relabel(table, perm)
    assert all(table[table[x][0]][y] == table[x][table[0][y]] for x in range(12) for y in range(12))
    assert lex_scan(table) is not None
    assert first_nonassociative(table) == lex_scan(table)


def test_associativity_work_is_log_m_rows_per_element():
    """Deterministic work guard on Z2^7 (m = 128): count row[i] lookups."""
    lookups = 0

    class Row(tuple):
        def __getitem__(self, i):
            nonlocal lookups
            lookups += 1
            return tuple.__getitem__(self, i)

    table = tuple(Row(row) for row in fx.group_from_factors(*(2,) * 7).add_table)
    m = len(table)
    assert first_nonassociative(table) is None
    bound = (math.ceil(math.log2(m)) + 1) * m * m
    # the m^3 scan it replaces makes 4 lookups per triple: 4 * m^3 = 8,388,608
    assert lookups <= bound, f"{lookups} lookups > {bound}"


# ---------------------------------------------------------------------------
# factoring identity


def _doctor(rng: random.Random, g: SymFunc, fs, most: int = 3) -> SymFunc:
    """Change one to `most` weights on keys made of the component's classes."""
    weights = dict(g.weights)
    members = [z for cls in fs.classes for z in cls]
    for _ in range(rng.randint(1, most)):
        key = tuple(sorted(rng.choice(members) for _ in range(g.r)))
        move = rng.choice(("scale", "scale", "drop", "set"))
        if move == "scale" and key in weights:
            weights[key] *= Fraction(rng.choice((2, 3)), rng.choice((1, 2)))
        elif move == "drop" and len(weights) > 1:
            weights.pop(key, None)
        else:
            weights[key] = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    return SymFunc(g.q, g.r, weights)


def test_factoring_identity_matches_full_scan_on_doctored_tables():
    rng = random.Random(5501)
    found = 0
    for _ in range(120):
        group = fx.group_from_factors(*rng.choice([(), (2,), (3,), (2, 2), (4,)]))
        s, r = rng.choice((2, 3)), rng.randint(3, 5)
        mu = [Fraction(1)] + [Fraction(rng.randint(2, 7), rng.randint(1, 3)) for _ in range(s - 1)]
        constant = Fraction(rng.randint(1, 5), 2)
        a = rng.randrange(group.order)
        g = fx.structured_family([(group, s, sorted(mu), a, constant)], r=r)
        fs = check_product_structure(g, sim_classes(g, tuple(range(g.q))))
        assert verify_factoring_identity(g, fs) is None
        doctored = _doctor(rng, g, fs)
        w = verify_factoring_identity(doctored, fs)
        if w is None:
            continue
        found += 1
        assert w.kind == KIND_FACTORING_IDENTITY_VIOLATION
        # the evidence names a failing identity: g(z)^r != prod of g(U_i)
        ev = w.evidence
        lhs = doctored.value(ev["elements"]) ** r
        rhs = math.prod(map(doctored.value, ev["uniform"]), start=Fraction(1))
        assert lhs != rhs and (ev["lhs"], ev["rhs"]) == (format_rational(lhs), format_rational(rhs))
        assert not replay_witness(doctored, w)
    assert found >= 60


def test_product_structure_implies_factoring_identity():
    # classify skips the factoring identity: on every component of a
    # doctored table where the product structure still passes, it holds
    rng = random.Random(6607)
    reached = 0
    for _ in range(2000):
        group = fx.group_from_factors(*rng.choice([(), (2,), (3,), (2, 2), (4,)]))
        s, r = rng.choice((2, 3)), rng.choice((3, 4))
        mu = [Fraction(1)] + [Fraction(rng.randint(2, 7), rng.randint(1, 3)) for _ in range(s - 1)]
        a = rng.randrange(group.order)
        g = fx.structured_family([(group, s, sorted(mu), a, Fraction(rng.randint(1, 5), 2))], r=r)
        fs = check_product_structure(g, sim_classes(g, tuple(range(g.q))))
        doctored = _doctor(rng, g, fs, most=2)
        pr = prune_domain(doctored)
        for comp in domain_components(pr.func):
            comp = tuple(pr.kept[z] for z in comp)
            fs = check_product_structure(doctored, sim_classes(doctored, comp))
            if isinstance(fs, FactorStructure):
                reached += 1
                assert verify_factoring_identity(doctored, fs) is None
    assert reached >= 50


def test_factoring_identity_has_nothing_to_check_at_s1():
    group = fx.group_from_factors(2, 2)
    g = fx.structured_family([(group, 1, (Fraction(1),), 3, Fraction(2))], r=4)
    fs = check_product_structure(g, sim_classes(g, tuple(range(g.q))))
    bumped = SymFunc(g.q, g.r, {key: v * (i + 1) for i, (key, v) in enumerate(g.weights.items())})
    assert fs.s == 1
    assert verify_factoring_identity(bumped, fs) is None


# ---------------------------------------------------------------------------
# equation check


def _sum_relation(group: AbelianGroup, r: int, a: int) -> frozenset:
    out = set()
    for alpha in combinations_with_replacement(range(group.order), r):
        total = group.zero
        for c in alpha:
            total = group.add(total, c)
        if total == a:
            out.add(alpha)
    return frozenset(out)


def test_equation_check_matches_prefix_scan():
    rng = random.Random(7129)
    mismatches = 0
    for factors in [(2,), (3,), (4,), (2, 2), (5,), (6,), (2, 4), (3, 3)]:
        group = fx.group_from_factors(*factors)
        m = group.order
        for r in (3, 4):
            relation = _sum_relation(group, r, rng.randrange(m))
            completion = latin_check(relation, r, m)
            reps = tuple(rng.sample(range(100), m))
            for zero in range(m):  # every designated zero, shifted ones included
                gs = reconstruct_group(completion, r, m, zero)
                assert gs.group.zero == zero
                # at m = 4 also Z2 + Z2 on the same labels, a group of the right
                # order that the relation need not fit
                for grp in [gs.group] + ([fx.group_from_factors(2, 2)] if m == 4 else []):
                    for a in range(m):  # every target; only the derived one fits its group
                        trial = GroupStructure(grp, a, gs.decomposition)
                        w = equation_check(completion, trial)
                        ev = prefix_scan(relation, trial, reps)
                        assert (w is None) == (ev is None)
                        if grp is gs.group:
                            assert (w is None) == (a == gs.a)
                        if w is not None:
                            mismatches += 1
                            # the stage names class ids; reps renames them as classify would
                            named = {
                                "prefix": [reps[c] for c in w.evidence["prefix"]],
                                "got": reps[w.evidence["got"]],
                                "expected": reps[w.evidence["expected"]],
                            }
                            assert w.component == () and named == ev
    assert mismatches > 400


def test_reconstruct_group_rejects_a_zero_outside_the_classes():
    completion = latin_check(fx.shifted_mod4_relation(), 3, 4)
    for zero in (7, 4, -1):
        with pytest.raises(ValueError, match=rf"zero={zero} with m=4"):
            reconstruct_group(completion, 3, 4, zero=zero)


def test_reconstructed_groups_pass_the_full_group_laws():
    # reconstruct_group proves identity, inverses and commutativity in its
    # docstring instead of asserting them; from_add_table checks them all
    built = 0
    for factors in [(2,), (3,), (4,), (2, 2), (5,), (6,), (2, 4), (3, 3)]:
        group = fx.group_from_factors(*factors)
        m = group.order
        for r in (3, 4, 5):
            for a in range(m):
                completion = latin_check(_sum_relation(group, r, a), r, m)
                for zero in range(m):
                    gs = reconstruct_group(completion, r, m, zero)
                    full = AbelianGroup.from_add_table(gs.group.add_table)
                    assert (full.zero, full.neg_table) == (zero, gs.group.neg_table)
                    built += 1
    assert built == 3 * sum(m * m for m in (2, 3, 4, 4, 5, 6, 8, 9))


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_raises_on_a_table_that_is_no_group():
    # the all-1 table on {0, 1} is associative, but the multiples of 1 never
    # reach 0: decompose must raise rather than search forever, whether the
    # table is built directly or derived from a completion that is not one
    # latin_check returns
    with pytest.raises(ValueError):
        decompose(AbelianGroup(2, ((1, 1), (1, 1)), 0, (0, 0)))
    with pytest.raises(ValueError):
        reconstruct_group({(0, 0): 1, (0, 1): 1, (1, 1): 1}, 3, 2)
    # here 1 + 1 = 0, but 0 + 1 = 0 maps the span {0} onto itself, so it
    # never grows
    with pytest.raises(ValueError):
        decompose(AbelianGroup(2, ((0, 0), (1, 0)), 0, (0, 1)))


def test_decompose_raises_value_error_on_random_tables():
    # every random table either decomposes or is named as no group; none
    # trips an internal assertion
    rng = random.Random(1515)
    outcomes = {"decomposed": 0, "rejected": 0}
    for _ in range(3000):
        m = rng.randint(2, 4)
        table = tuple(tuple(rng.randrange(m) for _ in range(m)) for _ in range(m))
        neg = tuple(rng.randrange(m) for _ in range(m))
        try:
            decompose(AbelianGroup(m, table, rng.randrange(m), neg))
            outcomes["decomposed"] += 1
        except ValueError as exc:
            assert str(exc).startswith("not a group: ")
            outcomes["rejected"] += 1
    assert min(outcomes.values()) >= 20, outcomes


@pytest.mark.parametrize("factors", GROUP_FACTORS[1:])
def test_decomposition_check_matches_all_pairs_on_swapped_coordinates(factors):
    group = fx.group_from_factors(*factors)
    dec = decompose(group)
    assert additive_on_all_pairs(group, dec.factors, dec.iso)
    m = group.order
    rejected = 0
    for a in range(m):
        for b in range(a + 1, m):
            iso = list(dec.iso)
            iso[a], iso[b] = iso[b], iso[a]
            iso = tuple(iso)
            want = additive_on_all_pairs(group, dec.factors, iso)
            try:
                _verify_decomposition(group, dec.factors, iso)
                got = True
            except ValueError:
                got = False
            assert got == want, (a, b)
            rejected += not got
    assert rejected >= m * (m - 1) // 2 - m  # only swaps that are automorphisms pass


def test_decomposition_check_rejects_bad_coordinates():
    group = fx.group_from_factors(2, 2)
    dec = decompose(group)
    for iso in (
        dec.iso[:3] + (dec.iso[0],),  # not injective
        dec.iso[:3] + ((2, 1),),  # coordinate out of range
        tuple((1, 2) if v == (1, 0) else v for v in dec.iso),  # the first unit vector missing
        tuple((x,) for x in range(4)),  # Z4 coordinates on Z2 + Z2
    ):
        with pytest.raises(ValueError, match="not a group"):
            _verify_decomposition(group, dec.factors, iso)
    with pytest.raises(ValueError, match="not a group"):
        _verify_decomposition(group, (4,), tuple((x,) for x in range(4)))
