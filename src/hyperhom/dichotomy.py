"""Tractability classifier for symmetric weight functions.

A function is polynomial-time evaluable exactly when, on every connected
component of its (pruned) domain, it factors as a product of per-element
weights times a 0/1 relation on similarity classes, and that relation is
the solution set of one linear equation over a finite Abelian group on
the classes. classify() runs the full decision pipeline and returns
either the per-component structure or a machine-checkable witness of the
first failed check; replay_witness() re-verifies a witness against the
table it came from.

All structures refer to elements by their original ids, so results can
be read against the input table directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from typing import Mapping, Sequence

from .abelian import AbelianGroup, CyclicDecomposition, decompose, first_nonassociative
from .exactcore import format_rational, parse_rational
from .model import SymFunc, domain_components, marginalize, prune_domain

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

    evidence is JSON-ready (ints, lists, rationals as strings); class-level
    kinds identify classes by their least element id.
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
    index_of: Mapping[int, int]
    mu: tuple[Fraction, ...]
    constant: Fraction
    relation: frozenset[tuple[int, ...]]

    @property
    def reps(self) -> tuple[int, ...]:
        return tuple(min(cls) for cls in self.classes)

    def element(self, cls: int, index: int) -> int:
        return self.classes[cls][index]


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
    kept: tuple[int, ...]
    removed: tuple[int, ...]
    components: tuple[ComponentStructure, ...]
    witness: HardnessWitness | None


def sim_classes(g: SymFunc, component: Sequence[int], k: int | None = None) -> SimClasses:
    """Group component elements whose arity-k slices are proportional.

    k defaults to the full arity; lower k is used by consistency tests.
    Classes are ordered by least element, members ascending.

    The slice of z is kept sparse, as the list of nonzero keys holding z.
    Two slices are proportional when the lists have the same length and
    each key of z's list, with one z swapped for the other element, is a
    nonzero key at a constant ratio. Comparing an element with a class
    representative costs O(|slice| * r) table lookups, and mismatches
    usually show at the first key.
    """
    if k is None:
        k = g.r
    if not 2 <= k <= g.r:
        raise ValueError(f"slice arity {k} outside 2..{g.r}")
    comp = tuple(sorted(component))
    table = g.weights if k == g.r else marginalize(g, k).values
    holders: dict[int, list[tuple[int, ...]]] = {z: [] for z in comp}
    for key in table:
        for z in dict.fromkeys(key):
            if z in holders:
                holders[z].append(key)

    def ratio_to(z: int, rep: int) -> Fraction | None:
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

    classes: list[list[int]] = []
    ratio: dict[int, Fraction] = {}
    for z in comp:
        if not holders[z]:
            raise ValueError(f"element {z} has an all-zero slice; prune the domain first")
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


def check_product_structure(g: SymFunc, sc: SimClasses) -> FactorStructure | HardnessWitness:
    """Extract the per-class weight split, or witness why none exists.

    Checks, in order: all classes the same size; all classes the same
    multiset of min-normalized ratios; one consistent value on index-0
    representatives across the relation. The relation is read off the
    nonzero keys made of index-0 representatives only, and scanned in
    sorted order.
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
    mu = norm_sets[0]
    index_of = {z: i for members in ordered for i, z in enumerate(members)}
    class_of_rep = {members[0]: c for c, members in enumerate(ordered)}
    relation: dict[tuple[int, ...], Fraction] = {}
    for key, v in g.weights.items():
        if all(z in class_of_rep for z in key):
            relation[tuple(sorted(class_of_rep[z] for z in key))] = v
    constant = None
    first_key: tuple[int, ...] = ()
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
    if constant is None:
        raise ValueError("component carries no nonzero weight; prune the domain first")
    return FactorStructure(
        component=sc.component,
        classes=tuple(ordered),
        s=s,
        index_of=index_of,
        mu=mu,
        constant=constant,
        relation=frozenset(relation),
    )


def verify_factoring_identity(g: SymFunc, fs: FactorStructure) -> HardnessWitness | None:
    """Check g(z)^r == prod over positions of g at uniform per-factor index.

    Redundant once check_product_structure has passed on exact classes,
    but catches table/structure mismatches independently, which is what
    makes witnesses replayable from the table alone.

    For a relation member alpha, an index vector ivec picks z with index
    ivec[j] in class alpha[j], and U_i takes index i in every class of
    alpha. A uniform ivec gives z = U_i and g(U_i)^r on both sides, so it
    is skipped. Permuting ivec within a run of equal classes in alpha
    keeps z and both sides, so one vector per key is checked: the one
    non-decreasing within each run, which comes first in product order,
    so the first failure is the one a scan of all s^r vectors would find.
    The s values g(U_i) are looked up once per alpha; at s = 1 nothing is
    left to check.
    """
    if fs.s == 1:
        return None
    r = g.r
    for alpha in sorted(fs.relation):
        uniform = [tuple(fs.classes[c][i] for c in alpha) for i in range(fs.s)]
        uniform_value = [g.value(u) for u in uniform]
        runs = [
            combinations_with_replacement(range(fs.s), alpha.count(c))
            for c in dict.fromkeys(alpha)
        ]
        for parts in product(*runs):
            ivec = sum(parts, ())
            if ivec.count(ivec[0]) == r:
                continue
            z = tuple(fs.classes[c][i] for c, i in zip(alpha, ivec))
            lhs = g.value(z) ** r
            rhs = math.prod((uniform_value[i] for i in ivec), start=Fraction(1))
            if lhs != rhs:
                return HardnessWitness(
                    KIND_FACTORING_IDENTITY_VIOLATION,
                    fs.component,
                    {
                        "elements": sorted(z),
                        "uniform": [sorted(uniform[i]) for i in ivec],
                        "lhs": format_rational(lhs),
                        "rhs": format_rational(rhs),
                    },
                )
    return None


def _completion_index(relation: frozenset[tuple[int, ...]]) -> dict[tuple[int, ...], list[int]]:
    """Map each (r-1)-multiset that extends into the relation to its sorted
    completions: one entry per member alpha and distinct class c in alpha,
    so O(|relation| * r)."""
    index: dict[tuple[int, ...], list[int]] = {}
    for alpha in relation:
        for i, c in enumerate(alpha):
            if i and alpha[i - 1] == c:
                continue
            index.setdefault(alpha[:i] + alpha[i + 1 :], []).append(c)
    for completions in index.values():
        completions.sort()
    return index


def latin_check(
    relation: frozenset[tuple[int, ...]],
    r: int,
    m: int,
    component: Sequence[int] = (),
    reps: Sequence[int] | None = None,
) -> HardnessWitness | None:
    """Every (r-1)-multiset of class ids must extend to the relation in
    exactly one way. reps translates class ids to element ids in evidence
    (identity when omitted).

    Prefixes are scanned in sorted order against a completion index, and
    every prefix before the first failure has one completion, so the scan
    costs O(|relation| * r).
    """
    reps = tuple(reps) if reps is not None else tuple(range(m))
    index = _completion_index(relation)
    for prefix in combinations_with_replacement(range(m), r - 1):
        completions = index.get(prefix, [])
        if len(completions) != 1:
            return HardnessWitness(
                KIND_NOT_LATIN,
                tuple(component),
                {
                    "prefix": [reps[c] for c in prefix],
                    "completions": [reps[c] for c in completions],
                },
            )
    return None


def _unique_completion(index: Mapping[tuple[int, ...], list[int]], prefix: tuple[int, ...]) -> int:
    found = index.get(tuple(sorted(prefix)), [])
    if len(found) != 1:
        raise ValueError(f"relation is not Latin at prefix {prefix}")
    return found[0]


def reconstruct_group(
    relation: frozenset[tuple[int, ...]],
    r: int,
    m: int,
    zero: int = 0,
    component: Sequence[int] = (),
    reps: Sequence[int] | None = None,
) -> GroupStructure | HardnessWitness:
    """Recover the Abelian group forcing a Latin relation, if one exists.

    With a designated zero class, dot(a, b) completes (a, b, zero^(r-3));
    then a + b = dot(zero, dot(a, b)), the negation is dot(., dot(zero,
    zero)), and the equation target is dot(zero, zero). Identity,
    inverses, and commutativity hold by symmetry of the relation; the
    content is associativity, which first_nonassociative decides by
    Light's test in O(m^2 log m) and witnesses by its lex-first failing
    triple. Only members holding zero^(r-3) complete such a prefix, so
    only they are indexed.
    """
    reps = tuple(reps) if reps is not None else tuple(range(m))
    pad = (zero,) * (r - 3)
    index = _completion_index(
        frozenset(alpha for alpha in relation if alpha.count(zero) >= r - 3)
    )

    def dot(a: int, b: int) -> int:
        return _unique_completion(index, (a, b) + pad)

    zsq = dot(zero, zero)
    dots = [[dot(a, b) for b in range(m)] for a in range(m)]
    add = [[dots[zero][dots[a][b]] for b in range(m)] for a in range(m)]
    neg = [dots[a][zsq] for a in range(m)]
    for a in range(m):
        if add[a][zero] != a or add[a][neg[a]] != zero:
            raise AssertionError("derived operation lost its identity or inverses")
        for b in range(m):
            if add[a][b] != add[b][a]:
                raise AssertionError("derived operation lost commutativity")
    triple = first_nonassociative(add)
    if triple is not None:
        a, b, c = triple
        return HardnessWitness(
            KIND_NOT_ASSOCIATIVE,
            tuple(component),
            {
                "triple": [reps[a], reps[b], reps[c]],
                "left": reps[add[add[a][b]][c]],
                "right": reps[add[a][add[b][c]]],
            },
        )
    group = AbelianGroup.from_add_table(add)
    if group.zero != zero:
        raise AssertionError("derived identity differs from the designated zero")
    for a in range(m):
        for b in range(m):
            want = add[neg[add[a][b]]][zsq]  # dot(a, b) == -(a+b) + dot(zero, zero)
            if dots[a][b] != want:
                raise AssertionError("triple set disagrees with the derived group")
    return GroupStructure(group, zsq, decompose(group))


def equation_check(
    relation: frozenset[tuple[int, ...]],
    gs: GroupStructure,
    component: Sequence[int] = (),
    reps: Sequence[int] | None = None,
) -> HardnessWitness | None:
    """The unique completion of every (r-1)-multiset must equal
    a - sum(prefix) in the reconstructed group.

    The relation must be Latin (latin_check has passed); then the check
    holds exactly when every member sums to a. If a member alpha does not,
    the prefix alpha minus its last class has that class as its only
    completion, and it differs from a - sum(prefix). If every member
    does, the completion c of each prefix makes a member, so c = a -
    sum(prefix). So the members are summed, O(|relation| * r), and only
    on a mismatch are the prefixes scanned in sorted order; the first
    failing one is the witness.
    """
    group = gs.group
    if all(_group_sum(group, alpha) == gs.a for alpha in relation):
        return None
    m = group.order
    r = len(next(iter(relation)))
    reps = tuple(reps) if reps is not None else tuple(range(m))
    index = _completion_index(relation)
    for prefix in combinations_with_replacement(range(m), r - 1):
        got = _unique_completion(index, prefix)
        expected = group.add(gs.a, group.neg(_group_sum(group, prefix)))
        if got != expected:
            return HardnessWitness(
                KIND_EQUATION_MISMATCH,
                tuple(component),
                {
                    "prefix": [reps[c] for c in prefix],
                    "got": reps[got],
                    "expected": reps[expected],
                },
            )
    raise AssertionError("a relation member misses the target but no prefix does")


def _group_sum(group: AbelianGroup, classes: Sequence[int]) -> int:
    table = group.add_table
    total = group.zero
    for c in classes:
        total = table[total][c]
    return total


def classify(g: SymFunc) -> Classification:
    """Full dichotomy decision.

    Prunes zero-marginal elements, splits the domain into co-occurrence
    components, and on each component runs: similarity classes, product
    structure, factoring identity, Latin check, group reconstruction,
    equation check. The first failure becomes the witness; otherwise the
    per-component structures are returned.
    """
    pr = prune_domain(g)
    if not pr.kept:
        return Classification(g, True, (), tuple(pr.removed), (), None)
    components = tuple(
        tuple(pr.kept[z] for z in comp) for comp in domain_components(pr.func)
    )
    out: list[ComponentStructure] = []
    for comp in components:
        sc = sim_classes(g, comp)
        fs = check_product_structure(g, sc)
        if isinstance(fs, HardnessWitness):
            return Classification(g, False, pr.kept, pr.removed, (), fs)
        w = verify_factoring_identity(g, fs)
        if w is not None:
            return Classification(g, False, pr.kept, pr.removed, (), w)
        m = len(fs.classes)
        w = latin_check(fs.relation, g.r, m, comp, fs.reps)
        if w is not None:
            return Classification(g, False, pr.kept, pr.removed, (), w)
        gr = reconstruct_group(fs.relation, g.r, m, 0, comp, fs.reps)
        if isinstance(gr, HardnessWitness):
            return Classification(g, False, pr.kept, pr.removed, (), gr)
        w = equation_check(fs.relation, gr, comp, fs.reps)
        if w is not None:
            return Classification(g, False, pr.kept, pr.removed, (), w)
        out.append(ComponentStructure(fs, gr))
    return Classification(g, True, pr.kept, pr.removed, tuple(out), None)


def replay_witness(g: SymFunc, w: HardnessWitness) -> bool:
    """Re-verify a witness against a table.

    Value-level kinds are checked straight off the table; class-level
    kinds recompute the (deterministic) classes for the recorded
    component and re-run the single failed check.
    """
    if w.kind not in WITNESS_KINDS:
        raise ValueError(f"unknown witness kind {w.kind!r}")
    ev = w.evidence
    if w.kind == KIND_REP_VALUE_INCONSISTENT:
        va = g.value(tuple(ev["tuple_a"]))
        vb = g.value(tuple(ev["tuple_b"]))
        return (
            va == parse_rational(ev["value_a"])
            and vb == parse_rational(ev["value_b"])
            and va != vb
        )
    if w.kind == KIND_FACTORING_IDENTITY_VIOLATION:
        lhs = g.value(tuple(ev["elements"])) ** g.r
        rhs = Fraction(1)
        for tup in ev["uniform"]:
            rhs *= g.value(tuple(tup))
        return (
            lhs == parse_rational(ev["lhs"])
            and rhs == parse_rational(ev["rhs"])
            and lhs != rhs
        )
    try:
        sc = sim_classes(g, w.component)
    except ValueError:
        return False
    if not sc.classes:
        return False
    classes = {tuple(c) for c in sc.classes}
    if w.kind == KIND_UNEQUAL_CLASS_SIZES:
        ca, cb = tuple(ev["class_a"]), tuple(ev["class_b"])
        return ca in classes and cb in classes and len(ca) != len(cb)
    if w.kind == KIND_RATIO_MULTISET_MISMATCH:
        ca, cb = tuple(ev["class_a"]), tuple(ev["class_b"])
        if ca not in classes or cb not in classes:
            return False

        def norms(cls: tuple[int, ...]) -> list[str]:
            low = min(sc.ratio[z] for z in cls)
            return [format_rational(t) for t in sorted(sc.ratio[z] / low for z in cls)]

        return (
            norms(ca) == ev["ratios_a"]
            and norms(cb) == ev["ratios_b"]
            and ev["ratios_a"] != ev["ratios_b"]
        )
    fs = check_product_structure(g, sc)
    if isinstance(fs, HardnessWitness):
        return False
    m = len(fs.classes)
    reps = fs.reps
    rep_to_class = {rep: idx for idx, rep in enumerate(reps)}
    if w.kind == KIND_NOT_LATIN:
        if any(z not in rep_to_class for z in ev["prefix"]):
            return False
        prefix = tuple(rep_to_class[z] for z in ev["prefix"])
        completions = [c for c in range(m) if tuple(sorted(prefix + (c,))) in fs.relation]
        return [reps[c] for c in completions] == ev["completions"] and len(completions) != 1
    if w.kind == KIND_NOT_ASSOCIATIVE:
        if latin_check(fs.relation, g.r, m) is not None:
            return False
        gr = reconstruct_group(fs.relation, g.r, m, 0, w.component, reps)
        return (
            isinstance(gr, HardnessWitness)
            and gr.kind == KIND_NOT_ASSOCIATIVE
            and gr.evidence == ev
        )
    if w.kind == KIND_EQUATION_MISMATCH:
        if latin_check(fs.relation, g.r, m) is not None:
            return False
        gr = reconstruct_group(fs.relation, g.r, m, 0, w.component, reps)
        if isinstance(gr, HardnessWitness):
            return False
        w2 = equation_check(fs.relation, gr, w.component, reps)
        return w2 is not None and w2.evidence == ev
    raise ValueError(f"unknown witness kind {w.kind!r}")
