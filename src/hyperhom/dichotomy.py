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

The structures and witnesses classify() returns refer to elements by
their original ids, so results can be read against the input table
directly; the three group stages work on class ids only.
"""

from __future__ import annotations

import math
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
    kept: tuple[int, ...]
    components: tuple[ComponentStructure, ...]
    witness: HardnessWitness | None

    @property
    def removed(self) -> tuple[int, ...]:
        """The elements of 0..q-1 that no nonzero key holds, listed on first
        read by func.support_index, so an eval never builds them."""
        return self.func.support_index.removed


def sim_classes(g: SymFunc, component: Sequence[int]) -> SimClasses:
    """Group component elements whose slices are proportional.

    Classes are ordered by least element, members ascending.

    The slice of z is kept sparse, as the list of nonzero keys holding z,
    read from g.support_index (built once per table, shared by every
    component). Two slices are proportional when the lists have the same
    length and each key of z's list, with one z swapped for the other
    element, is a nonzero key at a constant ratio. Comparing an element with
    a class representative costs O(|slice| * r) table lookups, and
    mismatches usually show at the first key. Ratios are compared as
    integer cross-products of numerators and denominators, with no gcd per
    key; one Fraction is built for each element that joins a class.
    """
    comp = tuple(sorted(component))
    table = g.weights
    holders = g.support_index.holders

    def ratio_to(z: int, rep: int) -> Fraction | None:
        keys = holders[z]
        if len(keys) != len(holders[rep]):
            return None
        num = den = 0  # the first key's ratio num/den; weights are positive
        for key in keys:
            swapped = list(key)
            swapped.remove(z)
            swapped.append(rep)
            other = table.get(tuple(sorted(swapped)))
            if other is None:
                return None
            w = table[key]
            n = w.numerator * other.denominator
            d = w.denominator * other.numerator
            if not den:
                num, den = n, d
            elif n * den != num * d:
                return None
        return Fraction(num, den)

    classes: list[list[int]] = []
    ratio: dict[int, Fraction] = {}
    for z in comp:
        if z not in holders:
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
    sorted order of class multisets, stopping at the first value that
    differs. The members whose least class is c are the keys
    g.support_index lists under c's representative that hold otherwise
    only representatives of classes >= c, and visiting the groups by c,
    each sorted, gives the sorted order of the whole relation. A group
    whose values all equal the constant has no mismatch to name, so it is
    not sorted. A witness reads only the groups up to its member's, and a
    structure reads each key of the component at most r times:
    O(|component support| * r), not O(|support|), per component.

    A returned structure satisfies the factoring identity on every key of
    the component, so verify_factoring_identity has nothing left to find.
    sim_classes accepts z into the class of rep only when swapping one z
    for rep maps the nonzero keys holding z into those holding rep with
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
    reps = [members[0] for members in ordered]
    class_id = {rep: c for c, rep in enumerate(reps)}.__getitem__
    holders = g.support_index.holders
    table = g.weights
    relation: set[tuple[int, ...]] = set()
    constant = None
    first_key: tuple[int, ...] = ()
    later = set(reps)  # the representatives of classes >= c
    for c, rep in enumerate(reps):
        # the members whose least class is c
        group = {
            tuple(sorted(map(class_id, key))): table[key]
            for key in filter(later.issuperset, holders[rep])
        }
        later.discard(rep)
        # count() compares by identity first, so a group that agrees costs no
        # sort and, where equal weights share one object, no Fraction compare
        if constant is None or list(group.values()).count(constant) != len(group):
            for alpha, v in sorted(group.items()):  # distinct members: no value is compared
                if constant is None:
                    constant, first_key = v, alpha
                elif v != constant:
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
        relation.update(group)
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
        completions = [c for c in range(m) if tuple(sorted(prefix + (c,))) in relation]
        return HardnessWitness(
            KIND_NOT_LATIN, (), {"prefix": list(prefix), "completions": completions}
        )
    raise ValueError("relation members must be sorted r-multisets of range(m)")


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
    zsq = dots[zero][zero]
    add = [[dots[zero][dots[a][b]] for b in range(m)] for a in range(m)]
    neg = [dots[a][zsq] for a in range(m)]
    triple = first_nonassociative(add)
    if triple is not None:
        a, b, c = triple
        return HardnessWitness(
            KIND_NOT_ASSOCIATIVE,
            (),
            {"triple": [a, b, c], "left": add[add[a][b]][c], "right": add[a][add[b][c]]},
        )
    group = AbelianGroup(m, tuple(map(tuple, add)), zero, tuple(neg))
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


def _classify_component(g: SymFunc, comp: Sequence[int]) -> ComponentStructure | HardnessWitness:
    """Run the five stages on one domain component: the structure, or the
    witness of the first failed stage. Each stage is called by its module
    name, so a wrapper installed on the module sees every call. The group
    stages name classes by id; this is the one place their witness is
    moved onto comp, each class id c becoming its least element reps[c]."""
    fs = check_product_structure(g, sim_classes(g, comp))
    if isinstance(fs, HardnessWitness):
        return fs
    m = len(fs.classes)
    completion = latin_check(fs.relation, g.r, m)
    if isinstance(completion, HardnessWitness):
        w = completion
    else:
        gr = reconstruct_group(completion, g.r, m)
        w = gr if isinstance(gr, HardnessWitness) else equation_check(completion, gr)
        if w is None:
            return ComponentStructure(fs, gr)
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
    (see check_product_structure), so it is not checked again. The Latin
    check hands the relation's completion function to the two group
    stages. The first failure becomes the witness; otherwise the
    per-component structures are returned.

    Kept elements and the components come from g.support_index on
    original ids, as prune_domain and domain_components read them, with no
    renumbered copy of the table; removed is listed from it on first read.
    The index is built on first use, in two passes over the keys, and the
    stages read it for every component.
    """
    idx = g.support_index
    if not idx.kept:
        return Classification(g, True, (), (), None)
    out: list[ComponentStructure] = []
    for comp in idx.components:
        res = _classify_component(g, comp)
        if isinstance(res, HardnessWitness):
            return Classification(g, False, idx.kept, (), res)
        out.append(res)
    return Classification(g, True, idx.kept, tuple(out), None)


def replay_witness(g: SymFunc, w: HardnessWitness) -> bool:
    """Re-verify a witness against a table by rerunning the classifier.

    The witness must name a domain component of g, read from
    g.support_index (free when classify built it for the same g). The
    component's stages then run again, each at most once, and the witness
    holds exactly when they fail there with the same kind and evidence.
    The stages are deterministic, so evidence that is true of the table
    but is not the first failure classify finds replays False, as do a
    malformed witness and a FactoringIdentityViolation, a kind classify
    never emits.
    """
    if w.kind not in WITNESS_KINDS:
        raise ValueError(f"unknown witness kind {w.kind!r}")
    try:
        if tuple(w.component) not in g.support_index.components:
            return False
    except TypeError:  # not iterable, or unhashable elements
        return False
    got = _classify_component(g, w.component)
    return isinstance(got, HardnessWitness) and got.kind == w.kind and got.evidence == w.evidence
