"""Hard witnesses checked from the table, with no classifier stage rerun.

Each witness kind classify() emits states one fact about a domain
component, and in the paper's hardness half that fact alone makes Z
#P-hard: similarity classes of different sizes or different ratio
multisets, two representative keys with different values (the weights do
not factor over the classes), or a class relation that is not Latin, or is
Latin but not the solution set of one Abelian-group equation.
check_witness() decides whether the evidence is true of the table, reading
only g.weights and g.support_index (the table layer classify built for
this g). It finds similar elements by the table layer's one similarity
test, as sim_classes does, but calls no classifier stage: the component's
elements are filed by SymFunc.slice_key (key count and least rest), and
elements filed together are compared by SymFunc.slice_ratio.

A class multiset is in the relation when some key of its classes is
nonzero, and then every key of those classes is: similar elements have
slices related by a positive factor. So the relation is read by key
lookups on any members, and the elements that complete a prefix form
whole classes. The group kinds read only the dot cells their evidence
needs, dot(x, y) being the one class completing (x, y, zero^(r-3)) with
zero the component's least element. If the relation were the solution set
of x_1 + ... + x_r = a in an Abelian group G, with e the zero's class,
every cell would have one completion, a - x - y - (r-3)e, and the dot
table's group, x (+) y = dot(zero, dot(x, y)) = x + y - e, would be G with
e as identity; its target dot(zero, zero) and negation dot(x, dot(zero,
zero)) make a - sum(prefix) the one completion of every prefix. So cells
with one completion that break associativity, or a prefix completed by
another class, show the relation is no such solution set.

Costs: O(|component| * r) to file the component's elements by slice key,
slice comparisons only of the elements filed with a named one, and
O(|component|) key lookups per prefix or dot cell read. There is no pass
over the whole support, no completion index and no group table.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from .dichotomy import (
    KIND_EQUATION_MISMATCH,
    KIND_NOT_ASSOCIATIVE,
    KIND_NOT_LATIN,
    KIND_RATIO_MULTISET_MISMATCH,
    KIND_REP_VALUE_INCONSISTENT,
    KIND_UNEQUAL_CLASS_SIZES,
    HardnessWitness,
    _named_component,
)
from .exactcore import format_rational
from .model import SymFunc

__all__ = ["check_witness"]


def check_witness(g: SymFunc, w: HardnessWitness) -> bool:
    """True when the witness's evidence is true of g and shows g hard.

    The witness must name a domain component of g and state, on element
    ids in classify's form (classes and prefixes named by least elements,
    lists ascending), one of: two complete similarity classes with
    different sizes (UnequalClassSizes) or different normalized ratio
    multisets (RatioMultisetMismatch); two nonzero keys of index-0 members
    with different values (RepValueInconsistent); a prefix whose
    completions are not exactly one class (NotLatin); a non-associative
    triple of the dot table's group (NotAssociative); or a prefix whose
    one completion is not the equation's (EquationMismatch). Any true
    instance of the fact passes, not only the first one classify finds,
    unlike replay_witness. A FactoringIdentityViolation, which classify
    never emits, and a malformed witness give False; an unknown kind
    raises ValueError.
    """
    comp = _named_component(g, w)
    if comp is None:
        return False
    check = _CHECKS.get(w.kind)
    if check is None or not isinstance(w.evidence, dict) or set(w.evidence) != set(check[0]):
        return False
    return check[1](_Component(g, comp), *(w.evidence[name] for name in check[0]))


def _ints(value: Any, members: frozenset[int], length: int | None = None) -> tuple[int, ...] | None:
    """value as a tuple of component elements, or None when it is not a
    list of ints in the component (of the given length)."""
    if not isinstance(value, list) or (length is not None and len(value) != length):
        return None
    if not all(type(z) is int and z in members for z in value):
        return None
    return tuple(value)


class _Component:
    """One domain component's slices, read from the support index."""

    def __init__(self, g: SymFunc, comp: tuple[int, ...]):
        self.g = g
        self.table = g.weights
        self.holders = g.support_index.holders
        self.r = g.r
        self.comp = comp
        self.members = frozenset(comp)
        self.zero = comp[0]
        self._filed: dict[tuple, list[int]] = {}  # slice key -> its elements
        for z in comp:
            self._filed.setdefault(g.slice_key(z), []).append(z)
        self._cells: dict[tuple[int, ...], list[int]] = {}

    def mates(self, z: int) -> list[int]:
        """The elements, z among them, that share z's slice key, ascending."""
        return self._filed[self.g.slice_key(z)]

    def similar(self, y: int, z: int) -> bool:
        """Whether y's and z's slices are proportional."""
        return self.g.slice_ratio(y, z) is not None

    def class_of(self, z: int) -> list[int]:
        """z's similarity class, ascending."""
        return [y for y in self.mates(z) if y == z or self.similar(y, z)]

    def least(self, z: int) -> bool:
        """Whether z is the least element of its class."""
        return not any(self.similar(y, z) for y in self.mates(z) if y < z)

    def weight0(self, z: int) -> Fraction:
        """The weight of z's least key: in one class, proportional to the
        ratio that orders the class's members."""
        return self.table[self.holders[z][0]]

    def completions(self, prefix: tuple[int, ...]) -> list[int]:
        """The least elements of the classes completing a sorted prefix into
        a nonzero key, ascending: |component| lookups. The completing
        elements form whole classes, so the least of each is found among
        them."""
        found = self._cells.get(prefix)
        if found is None:
            table = self.table
            found = []
            for x in self.comp:
                if tuple(sorted((*prefix, x))) in table and not any(self.similar(c, x) for c in found):
                    found.append(x)
            self._cells[prefix] = found
        return found

    def dot(self, x: int | None, y: int | None) -> int | None:
        """The one class completing (x, y, zero^(r-3)), or None."""
        if x is None or y is None:
            return None
        found = self.completions(tuple(sorted((x, y, *(self.zero,) * (self.r - 3)))))
        return found[0] if len(found) == 1 else None

    def add(self, x: int | None, y: int | None) -> int | None:
        return self.dot(self.zero, self.dot(x, y))

    def complete_class(self, value: Any) -> tuple[int, ...] | None:
        """value as a complete similarity class, or None."""
        cls = _ints(value, self.members)
        if not cls or self.class_of(cls[0]) != list(cls):
            return None
        return cls

    def reps(self, value: Any, length: int) -> tuple[int, ...] | None:
        """value as a sorted tuple of least class elements, or None."""
        elems = _ints(value, self.members, length)
        if elems is None or list(elems) != sorted(elems) or not all(map(self.least, set(elems))):
            return None
        return elems


def _ratios(c: _Component, cls: tuple[int, ...]) -> list[str]:
    weights = [c.weight0(z) for z in cls]
    low = min(weights)
    return [format_rational(t / low) for t in sorted(weights)]


def _all_ints(*values: Any) -> bool:
    return all(type(v) is int for v in values)


def _unequal_class_sizes(c: _Component, class_a, class_b, size_a, size_b) -> bool:
    a, b = c.complete_class(class_a), c.complete_class(class_b)
    return a is not None and b is not None and _all_ints(size_a, size_b) and size_a == len(a) != len(b) == size_b


def _ratio_multiset_mismatch(c: _Component, class_a, class_b, ratios_a, ratios_b) -> bool:
    a, b = c.complete_class(class_a), c.complete_class(class_b)
    if a is None or b is None:
        return False
    return ratios_a == _ratios(c, a) != _ratios(c, b) == ratios_b


def _index_zero(c: _Component, z: int) -> bool:
    """Whether z is its class's index-0 member: least weight0, ties by id."""
    mine = (c.weight0(z), z)
    return not any((c.weight0(y), y) < mine and c.similar(y, z) for y in c.mates(z) if y != z)


def _rep_value_inconsistent(c: _Component, tuple_a, value_a, tuple_b, value_b) -> bool:
    values = []
    for elems, text in ((tuple_a, value_a), (tuple_b, value_b)):
        key = _ints(elems, c.members, c.r)
        weight = None if key is None else c.table.get(key)  # keys are sorted
        if weight is None or text != format_rational(weight) or not all(_index_zero(c, z) for z in set(key)):
            return False
        values.append(weight)
    return values[0] != values[1]


def _not_latin(c: _Component, prefix, completions) -> bool:
    prefix = c.reps(prefix, c.r - 1)
    if prefix is None:
        return False
    found = c.completions(prefix)
    return _ints(completions, c.members) == tuple(found) and len(found) != 1


def _not_associative(c: _Component, triple, left, right) -> bool:
    triple = _ints(triple, c.members, 3)
    if triple is None or not _all_ints(left, right) or not all(map(c.least, set(triple))):
        return False
    a, b, x = triple
    got_left = c.add(c.add(a, b), x)
    got_right = c.add(a, c.add(b, x))
    return got_left is not None and got_right is not None and left == got_left != got_right == right


def _equation_mismatch(c: _Component, prefix, got, expected) -> bool:
    prefix = c.reps(prefix, c.r - 1)
    if prefix is None or not _all_ints(got, expected) or c.completions(prefix) != [got]:
        return False
    target = c.dot(c.zero, c.zero)
    total = c.zero
    for x in prefix:
        total = c.add(total, x)
    want = c.add(target, c.dot(total, target))  # a - sum(prefix)
    return want is not None and expected == want != got


_CHECKS = {
    KIND_UNEQUAL_CLASS_SIZES: (("class_a", "class_b", "size_a", "size_b"), _unequal_class_sizes),
    KIND_RATIO_MULTISET_MISMATCH: (("class_a", "class_b", "ratios_a", "ratios_b"), _ratio_multiset_mismatch),
    KIND_REP_VALUE_INCONSISTENT: (("tuple_a", "value_a", "tuple_b", "value_b"), _rep_value_inconsistent),
    KIND_NOT_LATIN: (("prefix", "completions"), _not_latin),
    KIND_NOT_ASSOCIATIVE: (("triple", "left", "right"), _not_associative),
    KIND_EQUATION_MISMATCH: (("prefix", "got", "expected"), _equation_mismatch),
}  # no FactoringIdentityViolation: classify never emits it
