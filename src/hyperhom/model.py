"""Core objects: symmetric weight functions, instances, and their file formats.

A weight function assigns a nonnegative rational to every size-r multiset
over the domain {0..q-1}; instances are r-uniform hypergraphs (distinct
vertices per edge) or constraint lists (repeats allowed, plus optional
equality constraints that only the gadget tools consume).

Text formats are line based, with '#' starting a comment anywhere:

    symfunc v1          hypergraph v1       csp v1
    q 2                 n 3                 n 3
    r 3                 e 0 1 2             c 0 0 1
    0 0 0 = 1                               eq 0 2
    0 1 1 = 1/2

Weight lines list the multiset in non-decreasing order; absent multisets
weigh 0. Hypergraph edges are strictly increasing and may not repeat in a
file; constraint lines may repeat (a multiset of scopes).
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, compress, repeat
from operator import attrgetter, itemgetter, le, lt
from typing import Iterator, Mapping, Sequence, Union

from .exactcore import format_rational, parse_rational

__all__ = [
    "FormatError",
    "SymFunc",
    "SupportIndex",
    "Hypergraph",
    "CspInstance",
    "Instance",
    "PruneResult",
    "InstanceComponents",
    "orderings_count",
    "load_symfunc",
    "dump_symfunc",
    "load_hypergraph",
    "dump_hypergraph",
    "load_csp",
    "dump_csp",
    "load_instance",
    "marginalize",
    "prune_domain",
    "domain_components",
    "instance_plan",
    "instance_components",
    "degrees",
]


class FormatError(ValueError):
    """Malformed input text; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, eq=False)
class SymFunc:
    """Symmetric function on size-r multisets over {0..q-1}.

    weights holds only the nonzero entries, keyed by sorted tuples.
    from_weights admits r >= 3 only; marginalize builds tables of any
    arity down to 1.
    """

    q: int
    r: int
    weights: Mapping[tuple[int, ...], Fraction]

    @staticmethod
    def from_weights(q: int, r: int, weights: Mapping[Sequence[int], Fraction | int]) -> "SymFunc":
        """Check a table and keep its nonzero weights in the mapping's order.

        Each key becomes the sorted tuple of int() of its elements; it must
        have r elements in 0..q-1, and no nonzero key may sort like another
        key. Each weight becomes a Fraction (one that is exactly a Fraction
        is kept as given) and must be nonnegative. The checks run in column
        passes (_weights_columns); when one fails or a conversion raises,
        the key loop (_weights_loop) runs to raise the first key's first
        error, or to keep a table whose only repeats have zero weight.
        """
        if q < 1:
            raise ValueError(f"domain size must be positive, got {q}")
        if r < 3:
            raise ValueError(f"arity must be at least 3, got {r}")
        table = _weights_columns(q, r, weights)
        if table is None:
            table = _weights_loop(q, r, weights)
        return SymFunc(q, r, table)

    def value(self, key: Sequence[int]) -> Fraction:
        return self.weights.get(tuple(sorted(key)), _ZERO)

    @cached_property
    def support_index(self) -> "SupportIndex":
        """The table's SupportIndex, built on first use and kept: weights
        is never mutated, so the index stays valid for the life of g."""
        return SupportIndex.of(self)


_ZERO = Fraction(0)
_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def _weights_columns(
    q: int, r: int, weights: Mapping[Sequence[int], Fraction | int]
) -> dict[tuple[int, ...], Fraction] | None:
    """The nonzero weights in the mapping's order, or None when a key or
    weight fails a check or its conversion raises.

    C-level maps build the sorted int keys, and only weights that are not
    exactly Fractions are converted. One set of key lengths, the least
    first and the greatest last element check arity and range; the least
    numerator checks the sign; one dict of all keys finds repeats by its
    size; one pass drops the zero weights.
    """
    try:
        keys = list(map(tuple, map(sorted, map(map, repeat(int), weights))))
        ws = [w if type(w) is Fraction else Fraction(w) for w in weights.values()]
    except Exception:  # _weights_loop raises it again, after any earlier key's error
        return None
    if set(map(len, keys)) - {r}:
        return None
    if min(map(itemgetter(0), keys), default=0) < 0 or max(map(itemgetter(-1), keys), default=0) >= q:
        return None
    nums = list(map(_numerator, ws))
    if min(nums, default=0) < 0:
        return None
    table = dict(zip(keys, ws))
    if len(table) != len(keys):
        return None
    if all(nums):
        return table
    return dict(compress(zip(keys, ws), nums))


def _weights_loop(
    q: int, r: int, weights: Mapping[Sequence[int], Fraction | int]
) -> dict[tuple[int, ...], Fraction]:
    """from_weights' key loop: raises the first key's first error, in the
    order element conversion, arity, range, weight conversion, sign,
    duplicate, or returns the nonzero weights in the mapping's order. A
    zero weight claims no key, so a key may repeat one of zero weight
    that comes before it, and only its nonzero weight is kept."""
    table: dict[tuple[int, ...], Fraction] = {}
    for key, w in weights.items():
        k = tuple(sorted(int(z) for z in key))
        if len(k) != r:
            raise ValueError(f"key {k} has arity {len(k)}, expected {r}")
        if any(z < 0 or z >= q for z in k):
            raise ValueError(f"key {k} out of domain range 0..{q - 1}")
        w = Fraction(w)
        if w < 0:
            raise ValueError(f"negative weight {w} at {k}")
        if k in table:
            raise ValueError(f"duplicate key {k}")
        if w != 0:
            table[k] = w
    return table


@dataclass(frozen=True, eq=False)
class SupportIndex:
    """What the nonzero keys of a weight function say about its domain.

    holders[z] lists the nonzero keys that hold z, each once, in table
    order. kept holds the elements that occur in some key (with
    nonnegative weights, those with positive unary marginal), and
    components the connected components of the co-occurrence relation on
    kept, each ascending, sorted by least element; all on original ids.
    removed, the rest of 0..q-1, is listed on first read only, in O(q):
    classify's report reads it, an eval never does.

    Costs two passes over the keys, O(|support| * r), whatever q: one lists
    the elements, one files each key under them. The components come from a
    search that reads each element's holders at most once, in C loops
    (O(|support| * r^2) element visits at most), and stops as soon as every
    kept element is placed, so one dense component reads a single element's
    keys. Memory: at most r references per key. sim_classes and
    check_product_structure read the holders; prune_domain,
    domain_components, classify and replay_witness read kept and the
    components; so a table is scanned once however many components it has.
    """

    q: int
    holders: Mapping[int, list[tuple[int, ...]]]
    kept: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]

    @cached_property
    def removed(self) -> tuple[int, ...]:
        if len(self.kept) == self.q:
            return ()
        return tuple(z for z in range(self.q) if z not in self.holders)

    @staticmethod
    def of(g: SymFunc) -> "SupportIndex":
        elements = sorted(set(chain.from_iterable(g.weights)))
        holders: dict[int, list[tuple[int, ...]]] = {z: [] for z in elements}
        for key in g.weights:
            prev = None
            for z in key:  # keys are sorted, so repeats are adjacent
                if z != prev:
                    holders[z].append(key)
                    prev = z
        # two elements co-occur exactly when some nonzero key holds both
        unplaced = set(elements)
        components = []
        for least in elements:
            if least not in unplaced:
                continue
            unplaced.discard(least)
            comp, frontier = [least], [least]
            while frontier and unplaced:
                reached = unplaced.intersection(chain.from_iterable(holders[frontier.pop()]))
                unplaced -= reached
                comp += reached
                frontier += reached
            components.append(tuple(sorted(comp)))
        return SupportIndex(g.q, holders, tuple(elements), tuple(components))


@dataclass(frozen=True)
class Hypergraph:
    """Uniform hypergraph; every edge lists distinct vertices in increasing
    order. Edges form a multiset (gadget constructions may duplicate them)."""

    n: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative vertex count")
        arity = None
        for e in self.edges:
            if arity is None:
                arity = len(e)
            elif len(e) != arity:
                raise ValueError(f"mixed edge arities {arity} and {len(e)}")
            if len(e) < 1 or not _strictly_increasing(e):
                raise ValueError(f"edge {e} is not strictly increasing")
            if e[0] < 0 or e[-1] >= self.n:
                raise ValueError(f"edge {e} out of vertex range 0..{self.n - 1}")

    @property
    def arity(self) -> int | None:
        return len(self.edges[0]) if self.edges else None

    @property
    def scopes(self) -> tuple[tuple[int, ...], ...]:
        return self.edges


@dataclass(frozen=True)
class CspInstance:
    """Constraint instance: scopes may repeat vertices and whole lines; the
    equalities are auxiliary variable-identification pairs (evaluation
    rejects them, the gadget tools eliminate them)."""

    n: int
    scopes: tuple[tuple[int, ...], ...]
    equalities: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative variable count")
        arity = None
        for s in self.scopes:
            if arity is None:
                arity = len(s)
            elif len(s) != arity:
                raise ValueError(f"mixed scope arities {arity} and {len(s)}")
            if len(s) < 1 or any(v < 0 or v >= self.n for v in s):
                raise ValueError(f"scope {s} out of variable range 0..{self.n - 1}")
        for u, w in self.equalities:
            if not (0 <= u < self.n and 0 <= w < self.n):
                raise ValueError(f"equality ({u}, {w}) out of variable range")

    @property
    def arity(self) -> int | None:
        return len(self.scopes[0]) if self.scopes else None


Instance = Union[Hypergraph, CspInstance]


def orderings_count(key: Sequence[int]) -> int:
    """Number of distinct orderings of a multiset (multinomial coefficient)."""
    counts = Counter(key)
    out = math.factorial(len(key))
    for c in counts.values():
        out //= math.factorial(c)
    return out


# ---------------------------------------------------------------------------
# file formats


def _content_lines(raw: Sequence[str], start: int = 0) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line of raw[start:] that has content,
    with comments and outer whitespace stripped; line numbers are 1-based."""
    for lineno, line in enumerate(raw[start:], start + 1):
        line = line.partition("#")[0].strip()
        if line:
            yield lineno, line


def _header(raw: Sequence[str], expected: str, keywords: Sequence[str]) -> tuple[int, list[tuple[int, int]]]:
    """Check the header line and the '<keyword> <int>' line of each keyword
    after it, in order.

    Returns the index in raw of the line after the last keyword line, and
    (line number, value) per keyword. A missing keyword line is reported at
    the line after the last one.
    """
    lines = _content_lines(raw)
    try:
        lineno, line = next(lines)
    except StopIteration:
        raise FormatError(1, f"empty file, expected header {expected!r}") from None
    if line != expected:
        raise FormatError(lineno, f"expected header {expected!r}, got {line!r}")
    values = []
    for keyword in keywords:
        lineno, line = next(lines, (len(raw) + 1, ""))
        if not line:
            raise FormatError(lineno, f"missing '{keyword} <int>' line")
        parts = line.split()
        if len(parts) != 2 or parts[0] != keyword:
            raise FormatError(lineno, f"expected '{keyword} <int>', got {line!r}")
        try:
            values.append((lineno, int(parts[1])))
        except ValueError:
            raise FormatError(lineno, f"bad integer {parts[1]!r}") from None
    return lineno, values


def _int_tokens(lineno: int, tokens: list[str], what: str) -> tuple[int, ...]:
    try:
        return tuple(map(int, tokens))
    except ValueError:
        raise FormatError(lineno, f"bad {what}") from None


def _strictly_increasing(e: tuple[int, ...]) -> bool:
    return all(map(lt, e, e[1:]))


_CHUNK = 1024  # weight lines per column pass of load_symfunc


def load_symfunc(text: str) -> SymFunc:
    """Parse the `symfunc v1` format.

    The body is read in column passes over chunks of _CHUNK lines: one
    split() per chunk, one int() and range check per distinct element token
    and one parse per distinct weight literal per call, then C-level order
    checks and one dict update per chunk. Weights with the same literal
    share one Fraction. When any check fails, the line loop reruns over the
    body only to name the first error, in each line's order '=', element
    list, length, range, order, literal, sign, duplicate.
    """
    raw = text.splitlines()
    if "#" in text:
        raw = [line.partition("#")[0] for line in raw]
    start, ((q_line, q), (r_line, r)) = _header(raw, "symfunc v1", ("q", "r"))
    if q < 1:
        raise FormatError(q_line, f"domain size must be positive, got {q}")
    if r < 3:
        raise FormatError(r_line, f"arity must be at least 3, got {r}")
    weights = _symfunc_columns(list(filter(str.strip, raw[start:])), q, r)
    if weights is None:
        weights = _symfunc_lines(raw, start, q, r)
    return SymFunc(q, r, weights)


def _symfunc_columns(body: list[str], q: int, r: int) -> dict[tuple[int, ...], Fraction] | None:
    """The nonzero weights of the body lines in file order, or None when
    a line is malformed, out of range, unsorted, negative or a duplicate.

    Each chunk's lines are joined with a ' ; ' sentinel and split once;
    every row of r + 3 tokens must read r elements, '=', a weight, ';'. A
    stray ';' fails the int(), the '=' test or the literal parse, so when
    the checks pass the rows are the lines.
    """
    width = r + 3
    table: dict[tuple[int, ...], Fraction] = {}
    elements: dict[str, int] = {}  # token -> element of 0..q-1
    literals: dict[str, Fraction] = {}  # weight token -> nonnegative weight
    for i in range(0, len(body), _CHUNK):
        chunk = body[i:i + _CHUNK]
        rows = len(chunk)
        tokens = " ; ".join(chunk).replace("=", " = ").split()
        tokens.append(";")
        if (len(tokens) != rows * width or tokens[r::width].count("=") != rows
                or tokens[r + 2::width].count(";") != rows):
            return None
        cols = []
        for j in range(r):
            col = tokens[j::width]
            for tok in set(col).difference(elements):
                try:
                    z = int(tok)
                except ValueError:
                    return None
                if z < 0 or z >= q:
                    return None
                elements[tok] = z
            cols.append(list(map(elements.__getitem__, col)))
        if not all(all(map(le, a, b)) for a, b in zip(cols, cols[1:])):
            return None
        col = tokens[r + 1::width]
        for tok in set(col).difference(literals):
            try:
                w = parse_rational(tok)
            except ValueError:
                return None
            if w < 0:
                return None
            literals[tok] = w
        table.update(zip(zip(*cols), map(literals.__getitem__, col)))
    if len(table) != len(body):
        return None
    if all(literals.values()):
        return table
    return {key: w for key, w in table.items() if w}


def _symfunc_lines(raw: Sequence[str], start: int, q: int, r: int) -> dict[tuple[int, ...], Fraction]:
    """load_symfunc's line loop over raw[start:]: raises the first line's
    first error, or returns the nonzero weights in file order."""
    weights: dict[tuple[int, ...], Fraction] = {}
    zeros: set[tuple[int, ...]] = set()
    for lineno, line in _content_lines(raw, start):
        left, eq, right = line.partition("=")
        if not eq:
            raise FormatError(lineno, f"expected '<z1> .. <zr> = <weight>', got {line!r}")
        key = _int_tokens(lineno, left.split(), f"element list {left.strip()!r}")
        if len(key) != r:
            raise FormatError(lineno, f"key has {len(key)} elements, expected {r}")
        if any(z < 0 or z >= q for z in key):
            raise FormatError(lineno, f"element out of range 0..{q - 1} in {key}")
        if key != tuple(sorted(key)):
            raise FormatError(lineno, f"key {key} is not in non-decreasing order")
        try:
            w = parse_rational(right.strip())
        except ValueError as exc:
            raise FormatError(lineno, str(exc)) from None
        if w < 0:
            raise FormatError(lineno, f"negative weight {format_rational(w)}")
        if key in weights or key in zeros:
            raise FormatError(lineno, f"duplicate key {key}")
        if w:
            weights[key] = w
        else:
            zeros.add(key)
    return weights


def dump_symfunc(g: SymFunc) -> str:
    """The `symfunc v1` text of g: one line per nonzero weight, keys sorted.

    A table load_symfunc would refuse (an empty domain, arity below 3)
    raises ValueError. Each distinct element and each distinct weight is
    formatted once; weights are told apart by (numerator, denominator),
    whose hash is C-level, unlike a Fraction's.
    """
    if g.q < 1:
        raise ValueError(f"domain size {g.q}: tables on an empty domain have no file form")
    if g.r < 3:
        raise ValueError(f"arity {g.r}: tables of arity below 3 have no file form")
    keys = sorted(g.weights)
    ws = list(map(g.weights.__getitem__, keys))
    nums, dens = list(map(_numerator, ws)), list(map(_denominator, ws))
    weight_texts = {pair: format_rational(Fraction(*pair)) for pair in set(zip(nums, dens))}
    names = {z: str(z) for z in set(chain.from_iterable(keys))}
    fields = [map(names.__getitem__, map(itemgetter(i), keys)) for i in range(g.r)]
    fields += [repeat("="), map(weight_texts.__getitem__, zip(nums, dens))]
    out = ["symfunc v1", f"q {g.q}", f"r {g.r}"]
    out += map(" ".join, zip(*fields))
    return "\n".join(out) + "\n"


def load_hypergraph(text: str) -> Hypergraph:
    """Parse the `hypergraph v1` format.

    O(lines): each distinct vertex token is parsed and range-checked once
    per call, keyed by its text. Every line reports the first of its errors
    in the order 'e', vertex list, empty, order, range, arity, duplicate.
    """
    raw = text.splitlines()
    start, ((n_line, n),) = _header(raw, "hypergraph v1", ("n",))
    if n < 0:
        raise FormatError(n_line, f"vertex count must be nonnegative, got {n}")
    edges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    vertices: dict[str, int] = {}  # token -> vertex of 0..n-1
    arity = None
    for lineno, line in _content_lines(raw, start):
        parts = line.split()
        if parts[0] != "e":
            raise FormatError(lineno, f"expected 'e <v1> ..', got {line!r}")
        tokens = parts[1:]
        try:
            e = tuple(map(vertices.__getitem__, tokens))
            known = True
        except KeyError:
            e = _int_tokens(lineno, tokens, f"vertex list {line!r}")
            known = False
        if len(e) < 1:
            raise FormatError(lineno, "empty edge")
        if not _strictly_increasing(e):
            raise FormatError(lineno, f"edge {e} is not strictly increasing")
        if not known:
            if e[0] < 0 or e[-1] >= n:
                raise FormatError(lineno, f"edge {e} out of vertex range 0..{n - 1}")
            vertices.update(zip(tokens, e))
        if arity is None:
            arity = len(e)
        elif len(e) != arity:
            raise FormatError(lineno, f"edge arity {len(e)} differs from {arity}")
        if e in seen:
            raise FormatError(lineno, f"duplicate edge {e}")
        seen.add(e)
        edges.append(e)
    return Hypergraph(n, tuple(edges))


def dump_hypergraph(h: Hypergraph) -> str:
    seen = set()
    for e in h.edges:
        if e in seen:
            raise ValueError(f"duplicate edge {e}: multigraphs have no file form")
        seen.add(e)
    out = ["hypergraph v1", f"n {h.n}"]
    out.extend("e " + " ".join(map(str, e)) for e in h.edges)
    return "\n".join(out) + "\n"


def load_csp(text: str) -> CspInstance:
    """Parse the `csp v1` format.

    O(lines): each distinct variable token is parsed and range-checked once
    per call, keyed by its text. Every line reports the first of its errors
    in the order variable list, range, keyword, empty scope or pair, arity.
    """
    raw = text.splitlines()
    start, ((n_line, n),) = _header(raw, "csp v1", ("n",))
    if n < 0:
        raise FormatError(n_line, f"variable count must be nonnegative, got {n}")
    scopes: list[tuple[int, ...]] = []
    equalities: list[tuple[int, int]] = []
    variables: dict[str, int] = {}  # token -> variable of 0..n-1
    arity = None
    for lineno, line in _content_lines(raw, start):
        parts = line.split()
        tokens = parts[1:]
        try:
            vs = tuple(map(variables.__getitem__, tokens))
        except KeyError:
            vs = _int_tokens(lineno, tokens, f"vertex list {line!r}")
            if any(v < 0 or v >= n for v in vs):
                raise FormatError(lineno, f"variable out of range 0..{n - 1} in {line!r}")
            variables.update(zip(tokens, vs))
        if parts[0] == "c":
            if len(vs) < 1:
                raise FormatError(lineno, "empty scope")
            if arity is None:
                arity = len(vs)
            elif len(vs) != arity:
                raise FormatError(lineno, f"scope arity {len(vs)} differs from {arity}")
            scopes.append(vs)
        elif parts[0] == "eq":
            if len(vs) != 2:
                raise FormatError(lineno, f"expected 'eq <u> <w>', got {line!r}")
            equalities.append((vs[0], vs[1]))
        else:
            raise FormatError(lineno, f"expected 'c ..' or 'eq ..', got {line!r}")
    return CspInstance(n, tuple(scopes), tuple(equalities))


def dump_csp(inst: CspInstance) -> str:
    out = ["csp v1", f"n {inst.n}"]
    out.extend("c " + " ".join(map(str, s)) for s in inst.scopes)
    out.extend(f"eq {u} {w}" for u, w in inst.equalities)
    return "\n".join(out) + "\n"


def load_instance(text: str) -> Instance:
    """Dispatch on the header line: hypergraph or csp."""
    for lineno, line in _content_lines(text.splitlines()):
        if line == "hypergraph v1":
            return load_hypergraph(text)
        if line == "csp v1":
            return load_csp(text)
        raise FormatError(lineno, f"unknown instance header {line!r}")
    raise FormatError(1, "empty file")


# ---------------------------------------------------------------------------
# marginals, pruning, components


def marginalize(g: SymFunc, k: int) -> SymFunc:
    """Table of f(z1..zk) = sum over ordered (r-k)-tuples w of g(z, w).

    The arity-k table is a SymFunc whose support is the arity-k
    co-occurrence relation of g; at k = r it is g itself. Driven by the
    support: each nonzero key K adds g(K) times the number of orderings of
    K - z to every distinct k-sub-multiset z of K, so the cost is
    O(|support| * C(r, k)) whatever the domain size. Below r, values are
    listed in sorted key order.
    """
    if not 1 <= k <= g.r:
        raise ValueError(f"marginal arity {k} outside 1..{g.r}")
    if k == g.r:
        return g
    sums: dict[tuple[int, ...], Fraction] = {}
    for key, w in g.weights.items():
        for z in dict.fromkeys(combinations(key, k)):
            rest = list(key)
            for e in z:
                rest.remove(e)
            sums[z] = sums.get(z, _ZERO) + orderings_count(rest) * w
    return SymFunc(g.q, k, {z: sums[z] for z in sorted(sums) if sums[z]})


@dataclass(frozen=True)
class PruneResult:
    """Restriction of a function to elements with nonzero unary marginal.

    func is renumbered to the surviving domain; kept[i] is the original id
    of new element i, removed lists the dropped originals.
    """

    func: SymFunc
    kept: tuple[int, ...]
    removed: tuple[int, ...]


def prune_domain(g: SymFunc) -> PruneResult:
    """Drop the elements no nonzero key holds, read off g.support_index.

    The renumbered copy holds the same keys, so every one of its elements
    is held by one and none is left to prune."""
    idx = g.support_index
    kept, removed = idx.kept, idx.removed
    # the renumbering is increasing, so renumbered keys stay sorted
    renum = {old: new for new, old in enumerate(kept)}
    out = SymFunc(
        len(kept), g.r, {tuple(renum[z] for z in key): w for key, w in g.weights.items()}
    )
    return PruneResult(out, kept, removed)


def domain_components(g: SymFunc) -> tuple[tuple[int, ...], ...]:
    """Connected components of the binary co-occurrence relation.

    Requires a pruned function (every element has positive unary marginal);
    components are sorted by least element, each listed ascending. Read off
    g.support_index: O(|support| * r) on first use, then free.
    """
    idx = g.support_index
    if idx.removed:
        raise ValueError(f"domain not pruned: zero unary marginal at {list(idx.removed)}")
    return idx.components


@dataclass(frozen=True)
class InstanceComponents:
    """Connected pieces of an instance plus the count of vertices in no scope.

    Each piece is (sub-instance, vertices) with vertices[new_id] = old_id;
    every piece holds a scope.
    """

    pieces: tuple[tuple[Instance, tuple[int, ...]], ...]
    isolated: int


def degrees(inst: Instance) -> tuple[int, ...]:
    """Occurrence count of each vertex across all scopes (with multiplicity)."""
    d = [0] * inst.n
    for scope in inst.scopes:
        for v in scope:
            d[v] += 1
    return tuple(d)


def instance_plan(inst: Instance) -> tuple[list[int], list[int], list[list[tuple[int, ...]]]]:
    """Order of the vertices in scopes by one breadth-first queue, the depth
    at which each connected piece begins, and, per depth, the scopes (as
    position tuples) that become fully assigned there.

    Each piece starts at its least vertex not yet entered, so the pieces
    come in order of least vertex. A vertex in no scope never enters: it
    only multiplies Z by the domain size. When a vertex enters, every
    member of its scopes that has not entered joins the back of the queue,
    except the one member a scope still lacks, which jumps to the front, so
    that scope completes next. A popped vertex that has already entered is
    skipped. Cost O(sum of scope sizes squared) and a sort of the vertices
    in scopes; nothing is kept per vertex in no scope, so n may be any
    size. A CspInstance carrying equality constraints is refused with
    ValueError, so every evaluation refuses it here.
    """
    if isinstance(inst, CspInstance) and inst.equalities:
        raise ValueError(
            "instance carries equality constraints; eliminate them with the gadget tools first"
        )
    scopes = inst.scopes
    members = [tuple(set(scope)) for scope in scopes]
    touching: defaultdict[int, list[int]] = defaultdict(list)
    for si, scope in enumerate(members):
        for v in scope:
            touching[v].append(si)
    lacking = [len(scope) for scope in members]
    pos: dict[int, int] = {}
    order: list[int] = []
    starts: list[int] = []
    queue: deque[int] = deque()
    for start in sorted(touching):
        if start in pos:
            continue
        starts.append(len(order))
        queue.append(start)
        while queue:
            v = queue.popleft()
            if v in pos:
                continue
            pos[v] = len(order)
            order.append(v)
            for si in touching[v]:
                lacking[si] -= 1
                push = queue.appendleft if lacking[si] == 1 else queue.append
                for u in members[si]:
                    if u not in pos:
                        push(u)
    completing: list[list[tuple[int, ...]]] = [[] for _ in order]
    for scope in scopes:
        positions = tuple(pos[v] for v in scope)
        completing[max(positions)].append(positions)
    return order, starts, completing


def instance_components(inst: Instance) -> InstanceComponents:
    """The pieces of an instance are the runs of its plan (instance_plan):
    vertices ascending, scopes in the order the plan completes them, so the
    counter eliminates along the walk. isolated counts the vertices the
    plan never enters, those in no scope."""
    order, starts, completing = instance_plan(inst)
    pieces = []
    for a, b in zip(starts, starts[1:] + [len(order)]):
        verts = tuple(sorted(order[a:b]))
        renum = {old: new for new, old in enumerate(verts)}
        scopes = tuple(
            tuple(renum[order[p]] for p in positions)
            for level in completing[a:b]
            for positions in level
        )
        if isinstance(inst, Hypergraph):
            piece: Instance = Hypergraph(len(verts), scopes)
        else:
            piece = CspInstance(len(verts), scopes)
        pieces.append((piece, verts))
    return InstanceComponents(tuple(pieces), inst.n - len(order))
