"""Named example functions, construction helpers, and random generators.

The builders here produce weight functions in the tractable product form
(per component: an Abelian group on classes, per-index weights, one
constant, one target), the named fixtures pin the tables used across the
test suite and the self-test, and the random generators are all driven
by a caller-supplied random.Random so counts stay reproducible.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations_with_replacement, product
from typing import Sequence

from .abelian import AbelianGroup
from .model import CspInstance, Hypergraph, SymFunc

__all__ = [
    "group_from_factors",
    "structured_family",
    "parity",
    "all_ones",
    "geometric",
    "mixed",
    "mixed_skewed",
    "mixed_missing_element",
    "mixed_perturbed_entry",
    "not_all_zero",
    "steiner_fano",
    "parity_loop_blocks",
    "parity_allones_blocks",
    "shifted_mod4_relation",
    "random_tractable",
    "random_table",
    "random_hypergraph",
    "random_connected_hypergraph",
    "random_csp",
]


def group_from_factors(*factors: int) -> AbelianGroup:
    """Direct sum of cyclic groups of the given orders (trivial for none)."""
    return AbelianGroup.direct_sum(*(AbelianGroup.cyclic(d) for d in factors))


def structured_family(
    blocks: Sequence[tuple[AbelianGroup, int, Sequence[Fraction], int, Fraction]],
    r: int = 3,
    junk: int = 0,
) -> SymFunc:
    """Weight function in explicit product form.

    Each block is (group, s, mu, a, constant) and occupies the next
    group.order * s domain elements, laid out class-major (element =
    offset + class * s + index); weights inside a block are constant *
    prod mu[index] on multisets whose classes sum to a in the group, and
    0 otherwise. junk appends elements with no nonzero weight at the end
    (they must be pruned away by classification).

    Only the support is built. The last two classes (x, y), x <= y, of a
    member are listed once under their sum, by x, so each sorted
    (r-2)-multiset of classes reads its completions, those with x at
    least its last class, from the row of a - (its sum): O(order^2 +
    order^(r-2)) group lookups, not a sum per (r-1)-multiset. A member's
    keys take every sorted index multiset in each run of one class; where
    x starts a new run they are the prefix's expansions times the pair's,
    each expanded once. Keys with the same multiset of indices share one
    weight. Beyond that the cost is O(|support| * r), and keys are
    inserted in sorted order, so the keys are sorted, in range and
    nonzero by construction and the table is not validated again.
    """
    if r < 3:
        raise ValueError(f"arity must be at least 3, got {r}")
    offset = 0
    layout = []
    for group, s, mu, a, constant in blocks:
        if s < 1 or len(mu) != s:
            raise ValueError(f"need s >= 1 matching mu, got s={s}, mu={mu}")
        if any(Fraction(m) <= 0 for m in mu):
            raise ValueError(f"per-index weights must be positive, got {mu}")
        if Fraction(constant) <= 0:
            raise ValueError(f"constant must be positive, got {constant}")
        if not 0 <= a < group.order:
            raise ValueError(f"target {a} outside the group")
        layout.append((offset, group, s, tuple(Fraction(m) for m in mu), a, Fraction(constant)))
        offset += group.order * s
    q = offset + junk
    if q < 1:
        raise ValueError(f"domain size must be positive, got {q}")
    weights: dict[tuple[int, ...], Fraction] = {}
    for off, group, s, mu, a, constant in layout:
        # an index multiset is coded as the sum of (r+1)^index over its indices;
        # cells[c][n] lists class c's runs of n sorted indices as (elements, code)
        runs = [
            [(idx, sum((r + 1) ** i for i in idx)) for idx in combinations_with_replacement(range(s), n)]
            for n in range(r + 1)
        ]
        shared = {code: math.prod((mu[i] for i in idx), start=constant) for idx, code in runs[r]}
        cells = [
            [[(tuple(off + c * s + i for i in idx), code) for idx, code in run] for run in runs]
            for c in range(group.order)
        ]

        def expand(classes: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
            """The keys of a sorted class multiset, with their index codes."""
            out = []
            for parts in product(*[cells[c][classes.count(c)] for c in dict.fromkeys(classes)]):
                key: tuple[int, ...] = ()
                code = 0
                for elems, k in parts:
                    key += elems
                    code += k
                out.append((key, code))
            return out

        add, neg, m = group.add_table, group.neg_table, group.order
        pairs: list[list[tuple[int, int]]] = [[] for _ in range(m)]  # by sum, then by x
        for x in range(m):
            for y in range(x, m):
                pairs[add[x][y]].append((x, y))
        firsts = [[x for x, _ in row] for row in pairs]
        tails: dict[tuple[int, int], list[tuple[tuple[int, ...], int]]] = {}  # each pair's, once used
        block: list[tuple[tuple[int, ...], Fraction]] = []
        for prefix in combinations_with_replacement(range(m), r - 2):
            total = group.zero
            for c in prefix:
                total = add[total][c]
            v = add[a][neg[total]]
            i = bisect_left(firsts[v], prefix[-1])
            if i < len(firsts[v]) and firsts[v][i] == prefix[-1]:  # x extends the prefix's last run
                block += [(key, shared[code]) for key, code in expand(prefix + pairs[v][i])]
                i += 1
            head = expand(prefix)
            for xy in pairs[v][i:]:
                tail = tails.get(xy)
                if tail is None:
                    tail = tails[xy] = expand(xy)
                block += [(hk + tk, shared[hc + tc]) for tk, tc in tail for hk, hc in head]
        block.sort()
        weights.update(block)
    return SymFunc(q, r, weights)


def parity() -> SymFunc:
    """q=2, r=3: weight 1 exactly when the three bits sum to 0 mod 2."""
    return structured_family([(AbelianGroup.cyclic(2), 1, (Fraction(1),), 0, Fraction(1))])


def all_ones(q: int = 2, r: int = 3) -> SymFunc:
    return SymFunc.from_weights(
        q, r, {key: Fraction(1) for key in combinations_with_replacement(range(q), r)}
    )


def geometric() -> SymFunc:
    """q=2, r=3: weights 1, 2, 4, 8 — a single class with index weights (1, 2)."""
    return structured_family(
        [(AbelianGroup.cyclic(1), 2, (Fraction(1), Fraction(2)), 0, Fraction(1))]
    )


def mixed() -> SymFunc:
    """q=4, r=3: two classes of two indexed elements over a mod-2 equation.

    Element z sits in class z // 2 with index z % 2; the weight is
    3^(number of odd arguments) when the classes sum to 0 mod 2.
    """
    return structured_family(
        [(AbelianGroup.cyclic(2), 2, (Fraction(1), Fraction(3)), 0, Fraction(1))]
    )


def mixed_skewed() -> SymFunc:
    """mixed with the second class's high-index weight moved from 3 to 5.

    Classes survive with equal sizes but their normalized ratio multisets
    differ, so classification must report RatioMultisetMismatch.
    """
    weights: dict[tuple[int, ...], Fraction] = {}
    per_element = {0: Fraction(1), 1: Fraction(3), 2: Fraction(1), 3: Fraction(5)}
    for key in combinations_with_replacement(range(4), 3):
        if sum(z // 2 for z in key) % 2 == 0:
            w = Fraction(1)
            for z in key:
                w *= per_element[z]
            weights[key] = w
    return SymFunc.from_weights(4, 3, weights)


def mixed_missing_element() -> SymFunc:
    """mixed restricted to domain {0, 1, 2}: class sizes become 2 and 1."""
    g = mixed()
    weights = {key: w for key, w in g.weights.items() if 3 not in key}
    return SymFunc.from_weights(3, 3, weights)


def mixed_perturbed_entry() -> SymFunc:
    """mixed with the single table entry at {0, 0, 1} changed from 3 to 5."""
    weights = dict(mixed().weights)
    weights[(0, 0, 1)] = Fraction(5)
    return SymFunc.from_weights(4, 3, weights)


def not_all_zero() -> SymFunc:
    """q=2, r=3: weight 1 unless all arguments are 0 — not Latin."""
    weights = {
        key: Fraction(1)
        for key in combinations_with_replacement(range(2), 3)
        if key != (0, 0, 0)
    }
    return SymFunc.from_weights(2, 3, weights)


FANO_BLOCKS = (
    (0, 1, 2),
    (0, 3, 4),
    (0, 5, 6),
    (1, 3, 5),
    (1, 4, 6),
    (2, 3, 6),
    (2, 4, 5),
)


def steiner_fano() -> SymFunc:
    """q=7, r=3: the Fano plane's triples plus all (z, z, z) — a Latin
    relation whose derived operation is not associative."""
    weights = {key: Fraction(1) for key in FANO_BLOCKS}
    for z in range(7):
        weights[(z, z, z)] = Fraction(1)
    return SymFunc.from_weights(7, 3, weights)


def parity_loop_blocks() -> SymFunc:
    """q=3, r=3: parity on {0, 1} plus a free singleton component {2}."""
    return structured_family(
        [
            (AbelianGroup.cyclic(2), 1, (Fraction(1),), 0, Fraction(1)),
            (AbelianGroup.cyclic(1), 1, (Fraction(1),), 0, Fraction(1)),
        ]
    )


def parity_allones_blocks() -> SymFunc:
    """q=4, r=3: parity on {0, 1} plus an unconstrained pair {2, 3}."""
    return structured_family(
        [
            (AbelianGroup.cyclic(2), 1, (Fraction(1),), 0, Fraction(1)),
            (AbelianGroup.cyclic(1), 2, (Fraction(1), Fraction(1)), 0, Fraction(1)),
        ]
    )


def shifted_mod4_relation() -> frozenset[tuple[int, ...]]:
    """Triples over {0..3} summing to 0 mod 4.

    With designated zero 1 the reconstruction yields addition
    x + y - 1 mod 4 (so x -> x - 1 is the isomorphism onto Z_4) and
    equation target 2.
    """
    return frozenset(
        key for key in combinations_with_replacement(range(4), 3) if sum(key) % 4 == 0
    )


# ---------------------------------------------------------------------------
# random generators (caller supplies the seeded Random)

_GROUP_POOL: dict[int, list[tuple[int, ...]]] = {
    1: [()],
    2: [(2,)],
    3: [(3,)],
    4: [(4,), (2, 2)],
    5: [(5,)],
}


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 4))


def random_tractable(rng: random.Random, q: int, r: int = 3) -> SymFunc:
    """Random product-form function on exactly q elements.

    Splits the domain into blocks (random group, random index count,
    random positive weights and target) plus occasional zero-weight junk.
    Classification of the result must come back Tractable.
    """
    blocks = []
    junk = 0
    remaining = q
    while remaining > 0:
        if blocks and rng.random() < 0.15:
            junk += 1
            remaining -= 1
            continue
        options = [
            (m, s)
            for m in _GROUP_POOL
            for s in range(1, remaining + 1)
            if m * s <= remaining
        ]
        m, s = rng.choice(options)
        factors = rng.choice(_GROUP_POOL[m])
        group = group_from_factors(*factors)
        mu = sorted([Fraction(1)] + [_random_rational(rng) for _ in range(s - 1)])
        a = rng.randrange(group.order)
        constant = _random_rational(rng)
        blocks.append((group, s, tuple(mu), a, constant))
        remaining -= m * s
    return structured_family(blocks, r=r, junk=junk)


def random_table(rng: random.Random, q: int, r: int = 3, zero_frac: float = 0.3) -> SymFunc:
    """Uniform random table with roughly the given fraction of zeros."""
    weights = {}
    for key in combinations_with_replacement(range(q), r):
        if rng.random() >= zero_frac:
            weights[key] = _random_rational(rng)
    return SymFunc.from_weights(q, r, weights)


def random_hypergraph(rng: random.Random, n_max: int, m_max: int, r: int) -> Hypergraph:
    """n <= n_max vertices, up to m_max distinct sorted r-edges."""
    n = rng.randint(1, n_max)
    if n < r:
        return Hypergraph(n, ())
    edges: set[tuple[int, ...]] = set()
    target = rng.randint(0, m_max)
    for _ in range(4 * target):
        if len(edges) >= target:
            break
        edges.add(tuple(sorted(rng.sample(range(n), r))))
    return Hypergraph(n, tuple(sorted(edges)))


def random_connected_hypergraph(rng: random.Random, n: int, m: int, r: int) -> Hypergraph:
    """Connected r-uniform multigraph-free instance with n vertices, m edges.

    A covering backbone is laid down first (every edge grabs at least one
    already-covered vertex), then distinct random edges fill up to m.
    """
    if n < r:
        raise ValueError(f"need at least {r} vertices, got {n}")
    order = list(range(n))
    rng.shuffle(order)
    edges: set[tuple[int, ...]] = set()
    covered = order[:r]
    edges.add(tuple(sorted(covered)))
    i = r
    while i < n:
        fresh = order[i : i + r - 1]
        i += len(fresh)
        anchors = rng.sample(covered, r - len(fresh))
        edges.add(tuple(sorted(fresh + anchors)))
        covered.extend(fresh)
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(n), r))))
    return Hypergraph(n, tuple(sorted(edges)))


def random_csp(rng: random.Random, n_max: int, m_max: int, r: int) -> CspInstance:
    """Scopes with possible repeated variables and repeated lines."""
    n = rng.randint(1, n_max)
    scopes = tuple(
        tuple(rng.randrange(n) for _ in range(r)) for _ in range(rng.randint(0, m_max))
    )
    return CspInstance(n, scopes, ())
