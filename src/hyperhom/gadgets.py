"""Instance transformations whose partition-sum identities are testable.

Each construction returns the built instance plus bookkeeping; the
identities themselves (padding, stretch, vertex power, component
separation, equality elimination, interpolation recovery) are exercised
by the test harness with brute force on both sides. Outputs are edge
multisets: a separator at p = 1 and an eliminator on a reflexive
equality both produce duplicate edges, and the identities count those
with multiplicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .dichotomy import ComponentStructure
from .evaluator import lambda_factor_direct
from .model import (
    CspInstance,
    Hypergraph,
    Instance,
    SymFunc,
    degrees,
    instance_plan,
    marginalize,
    orderings_count,
)

__all__ = [
    "MAX_GADGET_ENTRIES",
    "GadgetResult",
    "pad_to_arity",
    "two_stretch",
    "gram",
    "tilde_f",
    "vertex_power",
    "power_function",
    "component_separator",
    "separator_eta",
    "equality_eliminator",
    "contract_equalities",
    "relation_to_symfunc",
    "InterpolationPlan",
    "InterpolationResult",
    "recover_via_interpolation",
    "eval_table_brute",
]

MAX_GADGET_ENTRIES = 10**6  # bound on what a report lists: a gadget's output, classify's removed elements


@dataclass(frozen=True, eq=False)
class GadgetResult:
    """A built instance, vertex bookkeeping, and the construction knobs."""

    instance: Hypergraph
    maps: dict
    params: dict


def pad_to_arity(g_instance: Hypergraph, k: int, r: int) -> GadgetResult:
    """Raise a k-uniform instance to arity r with r-k fresh vertices per edge.

    Evaluating an arity-r function on the result equals evaluating its
    arity-k marginal on the original, because each fresh block is summed
    over exactly once. More than MAX_GADGET_ENTRIES fresh vertices are refused.
    """
    if not 2 <= k <= r:
        raise ValueError(f"need 2 <= k <= r, got k={k}, r={r}")
    if g_instance.arity is not None and g_instance.arity != k:
        raise ValueError(f"instance arity {g_instance.arity} != declared k {k}")
    if r == k:
        return GadgetResult(g_instance, {"fresh_per_edge": []}, {"k": k, "r": r})
    fresh_count = len(g_instance.edges) * (r - k)
    if fresh_count > MAX_GADGET_ENTRIES:
        raise ValueError(f"{fresh_count} fresh vertices would pass {MAX_GADGET_ENTRIES} entries")
    edges = []
    fresh_per_edge = []
    c = g_instance.n
    for e in g_instance.edges:
        fresh = tuple(range(c, c + r - k))
        c += r - k
        edges.append(e + fresh)
        fresh_per_edge.append(list(fresh))
    return GadgetResult(
        Hypergraph(c, tuple(edges)),
        {"fresh_per_edge": fresh_per_edge},
        {"k": k, "r": r},
    )


def two_stretch(inst: Instance) -> GadgetResult:
    """Subdivide every 2-ary scope with a fresh midpoint.

    Accepts loops and parallel scopes (a loop becomes a parallel pair
    through its midpoint); the result is always a 2-uniform multigraph.
    The result has no equality constraints, so a CspInstance carrying
    some is refused with ValueError.
    """
    if inst.arity not in (None, 2):
        raise ValueError(f"2-stretch needs arity 2, got {inst.arity}")
    if isinstance(inst, CspInstance) and inst.equalities:
        raise ValueError(
            f"2-stretch drops equality constraints {list(inst.equalities)}; eliminate them first"
        )
    edges = []
    midpoints = []
    c = inst.n
    for u, v in inst.scopes:
        edges.append((min(u, c), max(u, c)))
        edges.append((min(v, c), max(v, c)))
        midpoints.append(c)
        c += 1
    return GadgetResult(Hypergraph(c, tuple(edges)), {"midpoints": midpoints}, {})


def gram(h: Sequence[Sequence[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    """Gram table of a binary function: (x, y) -> sum_z h[x][z] * h[y][z]."""
    q = len(h)
    if any(len(row) != q for row in h):
        raise ValueError("binary table is not square")
    return tuple(
        tuple(sum((Fraction(h[x][z]) * h[y][z] for z in range(q)), Fraction(0)) for y in range(q))
        for x in range(q)
    )


def tilde_f(g: SymFunc, k: int) -> tuple[tuple[Fraction, ...], ...]:
    """Binary table pairing arity-k marginal slices over ordered completions.

    Entry (z, z') is sum over ordered (k-1)-tuples w of f(z,w) * f(z',w);
    symmetric, with positive diagonal once the domain is pruned. Driven by
    the support of f: each nonzero key splits into (z, w) once per distinct
    element z, and only pairs sharing a w are multiplied. Values are scaled
    to integers over one common denominator D, so the products and sums are
    integer arithmetic, and each entry becomes one Fraction over D^2.
    A table with q*q above MAX_GADGET_ENTRIES is refused with ValueError
    before the matrix is built.
    """
    if not 2 <= k <= g.r:
        raise ValueError(f"need 2 <= k <= r, got k={k}")
    if g.q * g.q > MAX_GADGET_ENTRIES:
        raise ValueError(f"a {g.q}x{g.q} table would pass {MAX_GADGET_ENTRIES} entries")
    f = marginalize(g, k)
    den = math.lcm(*(v.denominator for v in f.weights.values()))
    slices: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for key, v in f.weights.items():
        scaled = v.numerator * (den // v.denominator)
        for i, z in enumerate(key):
            if i == 0 or key[i - 1] != z:
                slices.setdefault(key[:i] + key[i + 1 :], []).append((z, scaled))
    sums = [[0] * g.q for _ in range(g.q)]
    for w, pairs in slices.items():
        mult = orderings_count(w)
        for z, vz in pairs:
            row, scaled = sums[z], mult * vz
            for zp, vzp in pairs:
                if zp >= z:
                    row[zp] += scaled * vzp
    den2 = den * den
    for z, row in enumerate(sums):
        for zp in range(z, g.q):
            row[zp] = sums[zp][z] = Fraction(row[zp], den2)
    return tuple(map(tuple, sums))


def vertex_power(g_instance: Hypergraph, j: int) -> GadgetResult:
    """Attach (j-1) * degree pendant edges (fresh tails) to every vertex.

    The pendants are listed per vertex, so n or a pendant count above
    MAX_GADGET_ENTRIES is refused with ValueError before anything is kept
    per vertex."""
    if j < 1:
        raise ValueError(f"power must be at least 1, got {j}")
    k = g_instance.arity
    if j == 1 or k is None:
        return GadgetResult(g_instance, {"pendants_per_vertex": []}, {"j": j})
    if g_instance.n > MAX_GADGET_ENTRIES:
        raise ValueError(f"pendant lists for {g_instance.n} vertices would pass {MAX_GADGET_ENTRIES} entries")
    added = (j - 1) * k * len(g_instance.edges)  # (j-1) * degree summed over the vertices
    if added > MAX_GADGET_ENTRIES:
        raise ValueError(f"{added} pendant edges would pass {MAX_GADGET_ENTRIES} entries")
    degs = degrees(g_instance)
    edges = list(g_instance.edges)
    pendants = []
    c = g_instance.n
    for v in range(g_instance.n):
        mine = []
        for _ in range((j - 1) * degs[v]):
            fresh = tuple(range(c, c + k - 1))
            c += k - 1
            edges.append((v,) + fresh)
            mine.append(len(edges) - 1)
        pendants.append(mine)
    return GadgetResult(
        Hypergraph(c, tuple(edges)), {"pendants_per_vertex": pendants}, {"j": j}
    )


def power_function(g: SymFunc, j: int) -> SymFunc:
    """The weight function matching a j-th vertex power.

    Each pendant edge at v sums freely over its tail, contributing one
    unary-marginal factor per power step; absorbing those per scope gives
    weights g(z) * prod over positions of f1(z_t)^(j-1). Evaluating this
    on G equals evaluating g on vertex_power(G, j).

    The table keeps g's keys, and multiplies each weight by positive
    marginals of elements that some nonzero key holds, so it is valid by
    construction and is not checked again.
    """
    if j < 1:
        raise ValueError(f"power must be at least 1, got {j}")
    if j == 1:
        return g
    f1 = marginalize(g, 1)
    weights = {}
    for key, w in g.weights.items():
        for z in key:
            w = w * f1.value((z,)) ** (j - 1)
        weights[key] = w
    return SymFunc(g.q, g.r, weights)


def component_separator(g_instance: Hypergraph, p: int) -> GadgetResult:
    """p disjoint copies of a connected instance, cyclically linked.

    Every vertex i gets, per copy j, a fresh (k-1)-block tied by two edges
    to copy j's and copy (j mod p)+1's image of i. Hom counts through a
    single domain component then scale geometrically in p, which is what
    the interpolation recovery exploits. The input must be connected with
    no vertex outside a scope: its plan (instance_plan) is one run over
    all n vertices. More than MAX_GADGET_ENTRIES edges (p*M + 2np) are refused.
    """
    if p < 1:
        raise ValueError(f"copy count must be at least 1, got {p}")
    k = g_instance.arity
    if k is None:
        raise ValueError("separator needs at least one edge")
    order, starts, _ = instance_plan(g_instance)
    if len(starts) != 1 or len(order) != g_instance.n:
        raise ValueError("separator input must be connected")
    n = g_instance.n
    listed = p * (len(g_instance.edges) + 2 * n)
    if listed > MAX_GADGET_ENTRIES:
        raise ValueError(f"{listed} edges would pass {MAX_GADGET_ENTRIES} entries")
    edges = []
    for j in range(p):
        off = j * n
        edges.extend(tuple(v + off for v in e) for e in g_instance.edges)
    base = n * p
    blocks = []
    for i in range(n):
        for j in range(p):
            start = base + (i * p + j) * (k - 1)
            block = tuple(range(start, start + k - 1))
            blocks.append({"vertex": i, "copy": j, "fresh": list(block)})
            edges.append(tuple(sorted(block + (j * n + i,))))
            edges.append(tuple(sorted(block + (((j + 1) % p) * n + i,))))
    total = base + n * p * (k - 1)
    return GadgetResult(Hypergraph(total, tuple(edges)), {"blocks": blocks}, {"p": p})


def separator_eta(comp: ComponentStructure, g_instance: Hypergraph) -> Fraction:
    """Per-copy growth rate of one domain component under the separator.

    The degree factor of a single linked copy (every original vertex
    gains 2, every fresh vertex has 2) times the free-block hom count
    |A|^(n(k-2)).
    """
    k = len(next(iter(comp.factor.relation)))
    n = g_instance.n
    degs = [d + 2 for d in degrees(g_instance)] + [2] * (n * (k - 1))
    lam = lambda_factor_direct(comp.factor, degs, len(g_instance.edges) + 2 * n)
    return lam * Fraction(comp.group.group.order) ** (n * (k - 2))


def equality_eliminator(inst: CspInstance, p: int) -> GadgetResult:
    """Replace equality constraints by p rounds of fresh-block edge pairs.

    Per equality (u, w) and round, one fresh (k-1)-block is joined by an
    edge through u and an edge through w; on a Latin relation the block
    forces equal completions, so the hom count gains a known factor of
    |A|^((k-2) * equalities * p) per domain component. More than
    MAX_GADGET_ENTRIES blocks are refused.
    """
    if p < 1:
        raise ValueError(f"round count must be at least 1, got {p}")
    k = inst.arity
    if k is None:
        raise ValueError("eliminator needs at least one scope")
    block_count = len(inst.equalities) * p
    if block_count > MAX_GADGET_ENTRIES:
        raise ValueError(f"{block_count} blocks would pass {MAX_GADGET_ENTRIES} entries")
    for s in inst.scopes:
        if len(set(s)) != len(s):
            raise ValueError(f"scope {s} repeats a variable; eliminator needs plain edges")
    edges = [tuple(sorted(s)) for s in inst.scopes]
    blocks = []
    c = inst.n
    for i, (u, w) in enumerate(inst.equalities):
        for j in range(p):
            block = tuple(range(c, c + k - 1))
            c += k - 1
            blocks.append({"equality": i, "round": j, "fresh": list(block)})
            edges.append(tuple(sorted(block + (u,))))
            edges.append(tuple(sorted(block + (w,))))
    return GadgetResult(Hypergraph(c, tuple(edges)), {"blocks": blocks}, {"p": p})


def contract_equalities(inst: CspInstance) -> tuple[CspInstance, tuple[int, ...]]:
    """Merge equality-linked variables; returns the instance plus old->new map.

    The classes are the runs of the plan of the equalities taken as scopes
    (instance_plan); a variable in no equality is a class of its own.
    Classes are numbered by least member."""
    root = list(range(inst.n))
    order, starts, _ = instance_plan(CspInstance(inst.n, inst.equalities))
    for a, b in zip(starts, starts[1:] + [len(order)]):
        for v in order[a:b]:
            root[v] = order[a]  # a run starts at its least vertex
    renum = {least: i for i, least in enumerate(sorted(set(root)))}
    var_map = tuple(renum[least] for least in root)
    scopes = tuple(tuple(var_map[v] for v in s) for s in inst.scopes)
    return CspInstance(len(renum), scopes, ()), var_map


def relation_to_symfunc(relation: frozenset[tuple[int, ...]], m: int, r: int) -> SymFunc:
    """0/1 weight function of a class-multiset relation on domain [m]."""
    return SymFunc.from_weights(m, r, {key: Fraction(1) for key in relation})


@dataclass(frozen=True, eq=False)
class InterpolationPlan:
    """Geometric-sum observations Z_p = sum_l gamma_l * eta_l^p, p = 1.."""

    etas: tuple[Fraction, ...]
    observations: tuple[Fraction, ...]


@dataclass(frozen=True, eq=False)
class InterpolationResult:
    z0: Fraction
    gamma: tuple[Fraction, ...] | None
    merged_etas: tuple[Fraction, ...]
    merged_gamma: tuple[Fraction, ...]


def recover_via_interpolation(plan: InterpolationPlan) -> InterpolationResult:
    """Solve for the gamma coefficients from powers of known rates.

    Duplicate rates are merged (their coefficients add and cannot be
    separated); the square system over the first observations is solved
    exactly and any surplus observations are checked for consistency.
    gamma is only reported per input slot when all rates were distinct.
    """
    if any(e == 0 for e in plan.etas):
        raise ValueError("zero rate in interpolation plan")
    if not plan.etas:
        raise ValueError("empty interpolation plan")
    merged: list[Fraction] = []
    for e in plan.etas:
        if e not in merged:
            merged.append(e)
    m = len(merged)
    if len(plan.observations) < m:
        raise ValueError(f"need at least {m} observations, got {len(plan.observations)}")
    mat = [[eta ** (p + 1) for eta in merged] for p in range(m)]
    rhs = list(plan.observations[:m])
    sol = _solve_exact(mat, rhs)
    for p in range(m, len(plan.observations)):
        predicted = sum((c * eta ** (p + 1) for c, eta in zip(sol, merged)), Fraction(0))
        if predicted != plan.observations[p]:
            raise ValueError(
                f"observation {p + 1} is {plan.observations[p]}, "
                f"but the recovered rates predict {predicted}"
            )
    z0 = sum(sol, Fraction(0))
    gamma = tuple(sol) if len(merged) == len(plan.etas) else None
    return InterpolationResult(z0, gamma, tuple(merged), tuple(sol))


def _solve_exact(mat: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    n = len(mat)
    a = [list(map(Fraction, row)) + [Fraction(rhs[i])] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular interpolation system")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def eval_table_brute(table: SymFunc, inst: Instance) -> Fraction:
    """Plain assignment sum of a value table of any arity over an instance.

    Test-harness helper (identities compare this against the main
    evaluator); an assignment that breaks an equality constraint adds
    nothing. Refuses beyond 10^7 assignments.
    """
    if inst.scopes and table.r != len(inst.scopes[0]):
        raise ValueError(f"table arity {table.r} != instance arity {len(inst.scopes[0])}")
    # 2^24 > 10^7, so the exponent capped at 24 compares q^n without forming it
    if table.q ** min(inst.n, 24) > 10**7:
        raise ValueError(f"{table.q}^{inst.n} assignments exceed 10^7")
    equalities = inst.equalities if isinstance(inst, CspInstance) else ()
    total = Fraction(0)
    for sigma in product(range(table.q), repeat=inst.n):
        if any(sigma[u] != sigma[w] for u, w in equalities):
            continue
        w = Fraction(1)
        for scope in inst.scopes:
            w *= table.value(tuple(sigma[v] for v in scope))
            if not w:
                break
        total += w
    return total
