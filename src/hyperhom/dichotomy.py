"""Tractability classifier for symmetric weight functions.

A function is polynomial-time evaluable exactly when, on every connected
component of its (pruned) domain, it factors as a product of per-element
weights times a 0/1 relation on similarity classes, and that relation is
the solution set of one linear equation over a finite Abelian group on
the classes. classify() runs five stages on each component (similarity
classes, product structure, Latin check, group reconstruction, equation
check) and returns either the per-component structure or a
machine-checkable witness of the first failed check. replay_witness()
reruns the stages on the witness's component: a witness replays exactly
when they fail there with that witness, and in no other way.
certify.check_witness() checks a witness from the table instead, with no
stage rerun.

The last three stages run as one pass over the relation's members
(_member_pass). It fills the group's dot table from the members whose
first r-3 classes are the zero class; their prefixes are the
lexicographically first block of all (r-1)-prefixes, so a bad cell there
is the first Latin failure. At r > 3 it checks that every member sums to
the target and that the relation has as many members as the equation has
solutions (a Burnside count), which proves the relation Latin without
indexing its prefixes. Where that proof fails, or the zero block cannot
fill the table, latin_check names the first Latin failure, and on a Latin
relation the pass names the failure on its own group; so every witness
is the one the three stages name in turn.

The structures and witnesses classify() returns refer to elements by
their original ids, so results can be read against the input table
directly; the three group stages work on class ids only.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from typing import Mapping, Sequence

from .abelian import AbelianGroup, CyclicDecomposition, decompose, first_nonassociative
from .exactcore import format_rational
from .model import SymFunc

__all__ = [
    "KIND_UNEQUAL_CLASS_SIZES",
    "KIND_RATIO_MULTISET_MISMATCH",
    "KIND_REP_VALUE_INCONSISTENT",
    "KIND_FACTORING_IDENTITY_VIOLATION",
    "KIND_NOT_LATIN",
    "KIND_NOT_ASSOCIATIVE",
    "KIND_EQUATION_MISMATCH",
    "WITNESS_KINDS",
    "HardnessWitness",
    "SimClasses",
    "FactorStructure",
    "GroupStructure",
    "ComponentStructure",
    "Classification",
    "sim_classes",
    "check_product_structure",
    "verify_factoring_identity",
    "latin_check",
    "reconstruct_group",
    "equation_check",
    "classify",
    "replay_witness",
]

KIND_UNEQUAL_CLASS_SIZES = "UnequalClassSizes"
KIND_RATIO_MULTISET_MISMATCH = "RatioMultisetMismatch"
KIND_REP_VALUE_INCONSISTENT = "RepValueInconsistent"
KIND_FACTORING_IDENTITY_VIOLATION = "FactoringIdentityViolation"
KIND_NOT_LATIN = "NotLatin"
KIND_NOT_ASSOCIATIVE = "NotAssociative"
KIND_EQUATION_MISMATCH = "EquationMismatch"

WITNESS_KINDS = (
    KIND_UNEQUAL_CLASS_SIZES,
    KIND_RATIO_MULTISET_MISMATCH,
    KIND_REP_VALUE_INCONSISTENT,
    KIND_FACTORING_IDENTITY_VIOLATION,
    KIND_NOT_LATIN,
    KIND_NOT_ASSOCIATIVE,
    KIND_EQUATION_MISMATCH,
)


@dataclass(frozen=True, eq=False)
class HardnessWitness:
    """Evidence that one pipeline check failed on one domain component.

    evidence is JSON-ready (ints, lists, rationals as strings). The group
    stages (latin_check, reconstruct_group, equation_check) return their
    witness on class ids with component (); classify and replay_witness
    report it on element ids, each class named by its least element.
    """

    kind: str
    component: tuple[int, ...]
    evidence: dict


@dataclass(frozen=True, eq=False)
class SimClasses:
    """Partition of a component into slice-proportionality classes.

    Two elements are equivalent when their top-arity slices are positive
    rational multiples of each other; ratio[z] is the factor relating z's
    slice to the slice of its class representative (the least member).
    """

    component: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    ratio: Mapping[int, Fraction]


@dataclass(frozen=True, eq=False)
class FactorStructure:
    """Product form of a function on one component.

    classes lists each similarity class with members ordered by index
    (ascending normalized ratio, ties by id); mu[i] is the shared weight
    of index i with mu[0] = 1; constant is the value of the function on
    index-0 representatives of any relation member; relation holds the
    sorted class-index multisets with nonzero weight. The table value at
    ((a_1,i_1)..(a_r,i_r)) is constant * prod_j mu[i_j] when the class
    multiset is in the relation and 0 otherwise.
    """

    component: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    s: int
    mu: tuple[Fraction, ...]
    constant: Fraction
    relation: frozenset[tuple[int, ...]]

    @property
    def reps(self) -> tuple[int, ...]:
        return tuple(min(cls) for cls in self.classes)


@dataclass(frozen=True, eq=False)
class GroupStructure:
    """Abelian group on the class ids of one component plus the target.

    The relation of the component equals the set of class multisets
    summing to `a` in `group`; decomposition carries the invariant
    factors and coordinates used for counting.
    """

    group: AbelianGroup
    a: int
    decomposition: CyclicDecomposition


@dataclass(frozen=True, eq=False)
class ComponentStructure:
    factor: FactorStructure
    group: GroupStructure


@dataclass(frozen=True, eq=False)
class Classification:
    func: SymFunc
    tractable: bool
    components: tuple[ComponentStructure, ...]
    witness: HardnessWitness | None

    @property
    def kept(self) -> tuple[int, ...]:
        """The elements some nonzero key holds, read from func.support_index."""
        return self.func.support_index.kept

    @property
    def removed(self) -> tuple[int, ...]:
        """The elements of 0..q-1 that no nonzero key holds, listed on first
        read by func.support_index, so an eval never builds them."""
        return self.func.support_index.removed


_ONE = Fraction(1)  # every class's first ratio, one object, so equal norms compare by identity


def sim_classes(g: SymFunc, component: Sequence[int]) -> SimClasses:
    """Group component elements whose slices are proportional.

    Classes are ordered by least element, members ascending. An element
    joins a class when g.slice_ratio, its slice's factor to the class
    representative's, is not None; that factor is its ratio.

    An element is compared only with the classes it could join: each class
    is filed under its slice's g.slice_key (key count and least rest),
    which proportional slices share and an element reads in O(r).
    Proportionality is an equivalence, so an element has at most one class
    to join, and the classes, their order and the ratios are those of
    comparing it with every class found so far. A dense random table's key
    counts mostly differ, and a group table's classes share a count but
    mostly not a least rest, so an element is mostly compared only with the
    class it joins.
    """
    comp = tuple(sorted(component))
    holders = g.support_index.holders
    slice_key, slice_ratio = g.slice_key, g.slice_ratio
    classes: list[list[int]] = []
    ratio: dict[int, Fraction] = {}
    filed: dict[tuple, list[list[int]]] = {}  # slice key -> its classes
    for z in comp:
        if z not in holders:
            raise ValueError(f"element {z} has an all-zero slice; prune the domain first")
        home = filed.setdefault(slice_key(z), [])
        for cls in home:
            t = slice_ratio(z, cls[0])
            if t is not None:
                cls.append(z)
                ratio[z] = t
                break
        else:
            cls = [z]
            classes.append(cls)
            ratio[z] = _ONE
            home.append(cls)
    return SimClasses(comp, tuple(tuple(c) for c in classes), ratio)


def check_product_structure(g: SymFunc, sc: SimClasses) -> FactorStructure | HardnessWitness:
    """Extract the per-class weight split, or witness why none exists.

    Checks, in order: all classes the same size; all classes the same
    multiset of min-normalized ratios; one consistent value on index-0
    representatives across the relation. The relation is read off the
    nonzero keys made of index-0 representatives only, and scanned in
    sorted order of class multisets, stopping at the first value that
    differs. The members whose least class is c are the keys
    g.support_index lists under c's representative that hold otherwise
    only representatives of classes >= c, and visiting the groups by c,
    each sorted, gives the sorted order of the whole relation. The
    constant is the value of the least member of the first nonempty group,
    found by min(). A group's values are compared with it in one C-level
    list compare, which stops at the first value that differs and passes a
    value that is the constant object (equal weights often share one) with
    no Fraction compare. A group with no mismatch is not sorted, nor is one
    on the same-ids path below, whose keys are its members in sorted
    order; so only another group that has a mismatch is sorted, to name
    its least member. A witness reads only the groups up to
    its member's, and a structure reads each key of the component at most
    r times: O(|component support| * r), not O(|support|), per component.
    A class's ratios are divided by their least only when it is below 1,
    the ratio of the class's least member.

    How a key is read depends on the representatives. When the index-0
    representatives are 0..m-1 in class order, as on a group table with
    s = 1 whose component starts at 0, every element below m is one, so a
    key under c's representative is in c's group exactly when its least
    element is c and its greatest is below m, and the sorted key is its
    own class multiset. The holders are sorted, so the keys whose least
    element is c are the tail of c's list from (c,), found by bisection:
    a key is read at most once, at one comparison, with no relabelling,
    sort or set test. Otherwise each key is tested against the set of
    representatives of classes >= c and mapped to its sorted class ids,
    O(r log r) per key. Both read the same members, group by group.

    A returned structure satisfies the factoring identity on every key of
    the component, so verify_factoring_identity has nothing left to find.
    sim_classes accepts z into the class of rep only when
    g.slice_ratio(z, rep) is ratio[z]: swapping one z for rep maps the
    nonzero keys holding z into those holding rep with
    g(K) = ratio[z] * g(K - z + rep); the swap is injective, and the two
    key lists have the same length, so it is a bijection. Hence
    g(z + w) = ratio[z] * g(rep + w) for every (r-1)-multiset w, both
    sides 0 included. Swapping the members of a key K one at a time for their
    representatives gives g(K) = prod_j ratio[z_j] * g(R), where R holds
    the representatives of K's classes alpha. In class c, ratio[z] =
    low_c * mu[index(z)], with low_c the ratio of index 0, since every
    class has the normalized ratios mu; so the key E of index-0 members
    of alpha has g(E) = prod_j low_{c_j} * g(R), and g(K) = prod_j
    mu[i_j] * g(E). The relation holds exactly the alpha with g(E) != 0,
    and all of them have g(E) = constant, so g(K) = constant * prod_j
    mu[i_j] when alpha is in the relation and 0 otherwise. Then both
    sides of the identity are constant^r * prod_j mu[i_j]^r.
    """
    first = sc.classes[0]
    for cls in sc.classes[1:]:
        if len(cls) != len(first):
            return HardnessWitness(
                KIND_UNEQUAL_CLASS_SIZES,
                sc.component,
                {
                    "class_a": list(first),
                    "class_b": list(cls),
                    "size_a": len(first),
                    "size_b": len(cls),
                },
            )
    s = len(first)
    ordered: list[tuple[int, ...]] = []
    norm_sets: list[tuple[Fraction, ...]] = []
    for cls in sc.classes:
        ratios = [sc.ratio[z] for z in cls]
        low = min(ratios)
        if low != 1:  # a class's least member has ratio 1; divide only when another is lower
            ratios = [t / low for t in ratios]
        pairs = sorted(zip(ratios, cls))
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
    mu = norm_sets[0]
    reps = [members[0] for members in ordered]
    m = len(reps)
    same_ids = reps == list(range(m))
    class_id = {rep: c for c, rep in enumerate(reps)}.__getitem__
    holders = g.support_index.holders
    table = g.weights
    relation: set[tuple[int, ...]] = set()
    constant = None
    first_key: tuple[int, ...] = ()
    later = set(reps)  # the representatives of classes >= c
    for c, rep in enumerate(reps):
        # the members whose least class is c
        if same_ids:  # a sorted key of representatives >= c is its own class multiset
            held = holders[rep]  # sorted: the keys whose least element is rep are its tail
            keys = alphas = [key for key in held[bisect_left(held, (rep,)):] if key[-1] < m]
        else:
            keys = list(filter(later.issuperset, holders[rep]))
            alphas = [tuple(sorted(map(class_id, key))) for key in keys]
            later.discard(rep)
        values = list(map(table.__getitem__, keys))
        # the members are distinct, so min() and sorted() compare no values
        if constant is None and alphas:  # the least member of the relation
            first_key, constant = min(zip(alphas, values))
        # a list compare runs in C, passes a value that is the constant
        # object with no Fraction compare (equal weights often share one),
        # and stops at the first value that differs
        if values != [constant] * len(values):
            # on the same-ids path the keys are the members in sorted order
            members = zip(alphas, values) if same_ids else sorted(zip(alphas, values))
            alpha, v = next(m for m in members if m[1] is not constant and m[1] != constant)
            return HardnessWitness(
                KIND_REP_VALUE_INCONSISTENT,
                sc.component,
                {
                    "tuple_a": sorted(reps[i] for i in first_key),
                    "value_a": format_rational(constant),
                    "tuple_b": sorted(reps[i] for i in alpha),
                    "value_b": format_rational(v),
                },
            )
        relation.update(alphas)
    if constant is None:
        raise ValueError("component carries no nonzero weight; prune the domain first")
    return FactorStructure(
        component=sc.component,
        classes=tuple(ordered),
        s=s,
        mu=mu,
        constant=constant,
        relation=frozenset(relation),
    )


def verify_factoring_identity(g: SymFunc, fs: FactorStructure) -> HardnessWitness | None:
    """Check g(z)^r == prod over positions of g at uniform per-factor index.

    For each relation member alpha in sorted order and each ivec in
    product(range(s), repeat=r), z takes index ivec[j] in class alpha[j]
    and U_i index i in every class of alpha; g(z)^r must equal
    prod_j g(U_{ivec[j]}). The first failure is returned as a witness.
    classify does not call this: a structure that check_product_structure
    returned for g satisfies it (proof there). It stays as a check that
    reads only the table, for a structure paired with another table.
    classify never emits its witness kind, so replay_witness never
    confirms one.
    """
    r = g.r
    for alpha in sorted(fs.relation):
        for ivec in product(range(fs.s), repeat=r):
            z = [fs.classes[c][i] for c, i in zip(alpha, ivec)]
            uniform = [[fs.classes[c][i] for c in alpha] for i in ivec]
            lhs = g.value(z) ** r
            rhs = math.prod(map(g.value, uniform), start=Fraction(1))
            if lhs != rhs:
                return HardnessWitness(
                    KIND_FACTORING_IDENTITY_VIOLATION,
                    fs.component,
                    {
                        "elements": sorted(z),
                        "uniform": [sorted(u) for u in uniform],
                        "lhs": format_rational(lhs),
                        "rhs": format_rational(rhs),
                    },
                )
    return None


def _completion_index(
    relation: frozenset[tuple[int, ...]],
) -> tuple[dict[tuple[int, ...], int], set[tuple[int, ...]]]:
    """Map each (r-1)-multiset that extends into the relation to a
    completion, and collect those with several: one entry per member and
    distinct class in it, O(|relation| * r). A member is its prefix plus
    the completion, so two members meeting at a prefix complete it
    differently."""
    index: dict[tuple[int, ...], int] = {}
    clashes: set[tuple[int, ...]] = set()
    for alpha in relation:
        for i, c in enumerate(alpha):
            if i and alpha[i - 1] == c:
                continue
            prefix = alpha[:i] + alpha[i + 1 :]
            if index.setdefault(prefix, c) != c:
                clashes.add(prefix)
    return index, clashes


def latin_check(
    relation: frozenset[tuple[int, ...]], r: int, m: int
) -> dict[tuple[int, ...], int] | HardnessWitness:
    """Every (r-1)-multiset of class ids must extend to the relation in
    exactly one way. Returns the completion function, a dict from each
    sorted (r-1)-multiset to its one completion, or the witness, on class
    ids, of the lex-first prefix with no or several completions.

    Members are sorted r-multisets of range(m), so every index key is a
    prefix, and the relation is Latin exactly when no key clashes and all
    C(m+r-2, r-1) prefixes are keys: O(|relation| * r). Only a failure
    walks the prefixes in sorted order, to name the first.
    """
    index, clashes = _completion_index(relation)
    if not clashes and len(index) == math.comb(m + r - 2, r - 1):
        return index
    for prefix in combinations_with_replacement(range(m), r - 1):
        if prefix in index and prefix not in clashes:
            continue
        return _not_latin(relation, prefix, m)
    raise ValueError("relation members must be sorted r-multisets of range(m)")


def _not_latin(relation: frozenset[tuple[int, ...]], prefix: tuple[int, ...], m: int) -> HardnessWitness:
    completions = [c for c in range(m) if tuple(sorted(prefix + (c,))) in relation]
    return HardnessWitness(KIND_NOT_LATIN, (), {"prefix": list(prefix), "completions": completions})


def reconstruct_group(
    completion: Mapping[tuple[int, ...], int], r: int, m: int, zero: int = 0
) -> GroupStructure | HardnessWitness:
    """Recover the Abelian group forcing a Latin relation, if one exists,
    from the completion function latin_check returned; a witness names
    class ids.

    With a designated zero class, dot(a, b) completes (a, b, zero^(r-3));
    then a + b = dot(zero, dot(a, b)), the negation is dot(., dot(zero,
    zero)), and the equation target is dot(zero, zero). Commutativity
    holds as dots[a][b] and dots[b][a] read the same sorted key, so the
    dots take m(m+1)/2 completion lookups, one per pair a <= b. Every
    prefix has one completion (latin_check returned), so dot(a, b) = c
    gives dot(a, c) = b: both complete (a, b, c, zero^(r-3)). Hence
    a + zero = a, via c = dot(a, zero), and a + neg[a] = zero, via
    dot(a, neg[a]) = dot(zero, zero) and dot(zero, dot(zero, zero)) = zero.
    The content is associativity, which first_nonassociative decides by
    Light's test in O(m^2 log m) and witnesses by its lex-first failing
    triple. With all four settled the group is built from the derived
    tables directly. That dot(a, b) is -(a + b) + dot(zero, zero) in this
    group is not checked here: (a, b, zero^(r-3)) is one of the prefixes
    equation_check checks next.
    """
    if not 0 <= zero < m:
        raise ValueError(f"zero must be a class id in range(m), got zero={zero} with m={m}")
    pad = (zero,) * (r - 3)

    def dot(a: int, b: int) -> int:
        return completion[tuple(sorted((a, b) + pad))]

    dots = [[0] * m for _ in range(m)]
    for a, b in combinations_with_replacement(range(m), 2):
        dots[a][b] = dots[b][a] = dot(a, b)
    return _group_of_dots(dots, zero)


def _group_of_dots(dots: list[list[int]], zero: int) -> GroupStructure | HardnessWitness:
    """The group reconstruct_group derives from a symmetric dot table, or
    the witness of Light's test."""
    zsq = dots[zero][zero]
    row = dots[zero]
    add = [[row[c] for c in dots_a] for dots_a in dots]
    neg = [dots_a[zsq] for dots_a in dots]
    triple = first_nonassociative(add)
    if triple is not None:
        a, b, c = triple
        return HardnessWitness(
            KIND_NOT_ASSOCIATIVE,
            (),
            {"triple": [a, b, c], "left": add[add[a][b]][c], "right": add[a][add[b][c]]},
        )
    group = AbelianGroup(len(dots), tuple(map(tuple, add)), zero, tuple(neg))
    return GroupStructure(group, zsq, decompose(group))


def equation_check(
    completion: Mapping[tuple[int, ...], int], gs: GroupStructure
) -> HardnessWitness | None:
    """Each entry (prefix, c) of the completion function latin_check
    returned must have c = a - sum(prefix) in the reconstructed group; the
    witness names, on class ids, the lex-first prefix that fails.

    An entry fails exactly when its member, prefix plus c, misses a, and
    dropping a member's largest class gives its lex-first prefix. So only
    the entries with c at least the prefix's last class are checked, one
    per member, O(|relation| * r), and the least failing one is the witness.
    """
    group = gs.group
    failing = [
        prefix
        for prefix, c in completion.items()
        if c >= prefix[-1] and group.add_table[_group_sum(group, prefix)][c] != gs.a
    ]
    if not failing:
        return None
    prefix = min(failing)
    expected = group.add(gs.a, group.neg(_group_sum(group, prefix)))
    return HardnessWitness(
        KIND_EQUATION_MISMATCH,
        (),
        {"prefix": list(prefix), "got": completion[prefix], "expected": expected},
    )


def _group_sum(group: AbelianGroup, classes: Sequence[int]) -> int:
    table = group.add_table
    total = group.zero
    for c in classes:
        total = table[total][c]
    return total


def _member_pass(
    relation: frozenset[tuple[int, ...]], r: int, m: int
) -> GroupStructure | HardnessWitness:
    """The three group stages' result, read from the members in one pass.

    The dot table is filled from the members whose first r-3 classes are
    the zero class 0, the zero block: a member (0^(r-3), x, y, z) gives
    dot(x, y) = z, dot(x, z) = y and dot(y, z) = x. These are exactly the
    members that complete the prefixes (0^(r-3), a, b), so a cell with no
    value or two is a prefix with no completion or several. The
    zero-padded prefixes are the lexicographically first block of all
    (r-1)-prefixes, so the least bad cell is latin_check's witness. A
    member fills at most three of the m(m+1)/2 cells, so a block too small
    to fill them all leaves some zero-padded prefix with no completion:
    latin_check names it, and no table is built. Past that bound the m x m
    table is linear in the relation.

    A full fill is the table reconstruct_group reads from the completion
    function, so the group (add, neg, a = dot(0, 0), Light's test and the
    decomposition) is built the same way, by _group_of_dots. Identity and
    inverses hold by reconstruct_group's argument, which reads only the
    zero block, since each member fills all three of its cells; so they
    are not checked.

    At r = 3 every prefix is a pair, so the fill is the whole Latin check,
    and every member sums to a: for a member (x, y, z), x + y =
    dot(0, z), and dot(0, z) + z = dot(0, dot(dot(0, z), z)) = dot(0, 0),
    as dot(0, z) completes (0, z). So equation_check has nothing to find
    and the result is _group_of_dots's. At r > 3 the members outside the
    zero block are not checked for Latinness. Instead every member must
    sum to a, and the relation, then a subset of the solution set, must
    have its size, counted by _solution_count; the solution set is Latin,
    so it is the relation latin_check accepts and the group is the one the
    stages build. Otherwise latin_check runs first, as a prefix outside
    the zero block may fail it. On a Latin relation the completions of the
    zero-padded prefixes are the fill, so this group or witness is
    reconstruct_group's, and equation_check finds a mismatch on it: a
    Latin relation inside the solution set is the solution set.

    O(|block|) for the fill, O(m^2 log m) for the group and, at r > 3,
    O(|relation| * r) lookups for the sums; a tractable relation indexes
    no prefix.
    """
    pad = (0,) * (r - 3)
    block = relation if r == 3 else [alpha for alpha in relation if alpha[r - 4] == 0]
    if 3 * len(block) < m * (m + 1) // 2:
        return latin_check(relation, r, m)
    dots = [[-1] * m for _ in range(m)]
    clashes: set[tuple[int, int]] = set()
    for alpha in block:
        x, y, z = alpha[-3:]
        for a, b, c in ((x, y, z), (x, z, y), (y, z, x)):
            row = dots[a]
            if row[b] < 0:
                row[b] = dots[b][a] = c
            elif row[b] != c:
                clashes.add((a, b))
    if clashes or any(-1 in row for row in dots):
        cell = next(
            (a, b)
            for a, row in enumerate(dots)
            for b in range(a, m)
            if row[b] < 0 or (a, b) in clashes
        )
        return _not_latin(relation, pad + cell, m)
    gs = _group_of_dots(dots, 0)
    if r == 3:
        return gs
    if isinstance(gs, GroupStructure) and len(relation) == _solution_count(gs.decomposition, gs.a, r):
        add, a = gs.group.add_table, gs.a
        for alpha in relation:
            total = alpha[0]
            for c in alpha[1:]:
                total = add[total][c]
            if total != a:
                break
        else:
            return gs
    completion = latin_check(relation, r, m)
    if isinstance(completion, HardnessWitness):
        return completion
    if isinstance(gs, HardnessWitness):
        return gs
    return equation_check(completion, gs)


def _solution_count(dec: CyclicDecomposition, a: int, r: int) -> int:
    """Number of r-multisets of the group whose sum is a.

    By Burnside over S_r acting on the r-tuples summing to a, it is
    (1/r!) times the sum over permutations of their fixed tuples. A
    permutation with k cycles of lengths l_1..l_k fixes the tuples constant
    on its cycles, with sum(l_i * y_i) = a; over Z_d there are
    d^(k-1) * gcd(g, d) of them when gcd(g, d) divides a's coordinate and
    none otherwise, g = gcd(l_1..l_k). With m the group's order, that is
    m^(k-1) * w(gcd(g, D)), where D is the largest invariant factor and
    w(e) the product over the factors d of gcd(e, d), or 0 when some
    gcd(e, d) misses a's coordinate. So the permutations are summed by e
    = gcd(g, D), not one by one: those with every cycle length a multiple
    of e sum m^(k-1) to r!/m * C(m/e + r/e - 1, r/e) (the permutations
    of r/e points with k cycles, stretched e-fold, weighted (m/e)^k),
    and those with gcd exactly e are these less the ones of each multiple
    of e, taken from the largest e down. The cost is O(divisors of
    gcd(D, r) squared), at any r.
    """
    factors = dec.factors
    m = math.prod(factors)
    top = math.gcd(factors[-1] if factors else 1, r)
    exact: dict[int, int] = {}
    total = 0
    for e in reversed([e for e in range(1, top + 1) if top % e == 0]):
        n = r // e
        exact[e] = math.factorial(r) * math.comb(m // e + n - 1, n) - sum(
            v for f, v in exact.items() if f % e == 0
        )
        gcds = [math.gcd(e, d) for d in factors]
        if all(c % h == 0 for c, h in zip(dec.iso[a], gcds)):
            total += exact[e] * math.prod(gcds)
    return total // (math.factorial(r) * m)


def _classify_component(g: SymFunc, comp: Sequence[int]) -> ComponentStructure | HardnessWitness:
    """Run the stages on one domain component: the structure, or the
    witness of the first failed stage. Each stage is called by its module
    name, so a wrapper installed on the module sees every call. The group
    stages run as _member_pass, which calls latin_check and equation_check
    only to name a witness its dot table cannot. The group stages name
    classes by id; this is the one place their witness is moved onto comp,
    each class id c becoming its least element reps[c]."""
    fs = check_product_structure(g, sim_classes(g, comp))
    if isinstance(fs, HardnessWitness):
        return fs
    w = _member_pass(fs.relation, g.r, len(fs.classes))
    if isinstance(w, GroupStructure):
        return ComponentStructure(fs, w)
    reps = fs.reps
    evidence = {
        key: [reps[c] for c in v] if isinstance(v, list) else reps[v]
        for key, v in w.evidence.items()
    }
    return HardnessWitness(w.kind, fs.component, evidence)


def classify(g: SymFunc) -> Classification:
    """Full dichotomy decision.

    Prunes zero-marginal elements, splits the domain into co-occurrence
    components, and on each component runs five stages: similarity
    classes, product structure, Latin check, group reconstruction,
    equation check. The product structure implies the factoring identity
    (see check_product_structure), so it is not checked again. The last
    three stages are one pass over the relation's members (_member_pass):
    the dot table from the zero block, whose bad cell is the first Latin
    failure; the group; at r > 3 the target sum of every member and the
    Burnside count of the solutions, which proves the relation Latin. So
    a tractable component builds no completion index, and the group is
    built once. Where the pass cannot prove the relation (r > 3, or a zero
    block too small to fill the table), latin_check runs first, to name
    the first Latin failure. The first failure becomes the witness;
    otherwise the per-component structures are returned.

    The components come from g.support_index on original ids, as
    prune_domain and domain_components read them, with no renumbered copy
    of the table; kept and removed are read from it, so a table with no
    nonzero key has no component and is Tractable. The index is built on
    first use, in one pass over the keys, and the stages read it for every
    component.
    """
    out: list[ComponentStructure] = []
    for comp in g.support_index.components:
        res = _classify_component(g, comp)
        if isinstance(res, HardnessWitness):
            return Classification(g, False, (), res)
        out.append(res)
    return Classification(g, True, tuple(out), None)


def _named_component(g: SymFunc, w: HardnessWitness) -> tuple[int, ...] | None:
    """The domain component of g that w names, as a tuple, or None when it
    names none; an unknown kind raises ValueError. The components are read
    from g.support_index, free when classify built it for the same g."""
    if w.kind not in WITNESS_KINDS:
        raise ValueError(f"unknown witness kind {w.kind!r}")
    try:
        comp = tuple(w.component)
        return comp if comp in g.support_index.components else None
    except TypeError:  # not iterable, or unhashable elements
        return None


def replay_witness(g: SymFunc, w: HardnessWitness) -> bool:
    """Re-verify a witness against a table by rerunning the classifier.

    The witness must name a domain component of g (_named_component). The
    component's stages then run again, each at most once, and the witness
    holds exactly when they fail there with the same kind and evidence.
    The stages are deterministic, so evidence that is true of the table
    but is not the first failure classify finds replays False, as do a
    malformed witness and a FactoringIdentityViolation, a kind classify
    never emits. The CLI confirms a Hard answer with
    certify.check_witness, which reruns nothing and accepts any evidence
    true of the table; this rerun stays as its reference.
    """
    comp = _named_component(g, w)
    if comp is None:
        return False
    got = _classify_component(g, comp)
    return isinstance(got, HardnessWitness) and got.kind == w.kind and got.evidence == w.evidence
