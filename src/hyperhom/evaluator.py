"""Exact evaluation of the partition sum Z: brute force and structured paths.

Z is the sum over all assignments sigma: vertices -> domain of the product
of the weight function over all scopes. The brute-force path is the oracle:
an exact sum over a frontier of live vertices, guarded by a cap on its
states. The structured path uses a Tractable classification to evaluate in
polynomial time as a product over connected instance pieces of
sum-over-components Lambda * hom-count, and comes in two flavors: a closed
form for Lambda and an independent monomial dynamic program kept as a
cross-check.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Sequence

from .abelian import count_homs
from .dichotomy import Classification, FactorStructure, classify
from .exactcore import format_rational
from .model import Instance, degrees, instance_components, instance_plan

__all__ = [
    "DEFAULT_BRUTE_CAP",
    "MAX_ISOLATED_BITS",
    "CapExceeded",
    "resolve_brute_cap",
    "eval_bruteforce",
    "lambda_factor_direct",
    "lambda_monomial_dp",
    "monomial_value",
    "TermBreakdown",
    "PieceBreakdown",
    "EvalReport",
    "eval_tractable",
    "evaluate",
]

DEFAULT_BRUTE_CAP = 10_000_000
MAX_ISOLATED_BITS = 2**23  # bound on isolated * ceil(log2 q), the bits of q^isolated


class CapExceeded(RuntimeError):
    """Oracle refusal: the frontier sum's state bound exceeds the configured cap."""


def resolve_brute_cap(cap: int | None = None) -> int:
    """The cap on the oracle's states: the argument, else the default. 0
    refuses every brute-force evaluation; a negative value or one that is
    not an int (bool included) raises ValueError."""
    if cap is None:
        return DEFAULT_BRUTE_CAP
    if not isinstance(cap, int) or isinstance(cap, bool):
        raise ValueError(f"bad brute-force cap {cap!r}: the cap must be an int")
    if cap < 0:
        raise ValueError(f"bad brute-force cap {cap}: the cap must be at least 0")
    return cap


def _check_instance(g_r: int, inst: Instance) -> None:
    if inst.scopes and len(inst.scopes[0]) != g_r:
        raise ValueError(f"instance arity {len(inst.scopes[0])} != function arity {g_r}")


def _isolated_factor(q: int, isolated: int) -> int:
    """q^isolated, the factor of the vertices in no scope; ValueError, before
    it is formed, when isolated * ceil(log2 q) passes MAX_ISOLATED_BITS."""
    if isolated * (q - 1).bit_length() > MAX_ISOLATED_BITS:
        raise ValueError(f"{isolated} vertices in no scope would multiply Z by {q}^{isolated}, "
                         f"past {MAX_ISOLATED_BITS} bits")
    return q**isolated


def _tuple_getter(indices: Sequence[int]) -> itemgetter:
    """An itemgetter that returns a tuple for any number of indices: one
    index would give a bare value, so a slice keeps a tuple."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return itemgetter(slice(indices[0], indices[0] + 1) if indices else slice(0))


def eval_bruteforce(g, inst: Instance, cap: int | None = None) -> Fraction:
    """Oracle evaluation by a sum over a frontier, in `instance_plan` order.

    A state assigns the live vertices: those entered that still have a
    scope to complete. Each depth adds its vertex q ways, multiplies in
    the scopes that complete there (a state is dropped at its first zero)
    and sums out every vertex whose last scope has just completed. A
    vertex in no scope multiplies Z by q and never enters a state.
    Weights are pre-scaled to one integer table keyed by the product of
    base + z over a key's values z, so each scope is read by one
    precompiled itemgetter and math.prod, and one Fraction is built at
    the end. Memory is O(largest layer of states). Before any state is
    built, raises CapExceeded when the bound 1 + sum over depths of
    q^(live vertices) exceeds the cap (argument, else the default).
    """
    _check_instance(g.r, inst)
    cap = resolve_brute_cap(cap)
    q = g.q
    _, _, completing = instance_plan(inst)
    # the depth of each vertex in a scope -> the depth of its last scope
    done = {p: d for d, level in enumerate(completing) for positions in level for p in positions}
    depths = sorted(done)
    retiring = Counter(done.values())
    states_bound, live = 1, 0
    for d in depths:
        if states_bound > cap:
            break
        live += 1
        states_bound += q**live
        live -= retiring[d]
    if states_bound > cap:
        raise CapExceeded(f"{states_bound} or more states exceed the configured cap {cap}")
    isolated = _isolated_factor(q, inst.n - len(done))
    scale = math.lcm(*(w.denominator for w in g.weights.values()))
    # prod(base + z) over a key's values z has the elementary symmetric
    # sums of the z as its digits in base (2q)^r, each below the base, so
    # it tells multisets apart
    base = (2 * q) ** g.r
    table = {
        math.prod(base + z for z in key): w.numerator * (scale // w.denominator)
        for key, w in g.weights.items()
    }
    lookup = table.get
    places = range(base, base + q)
    states: dict[tuple[int, ...], int] = {(): 1}
    frontier: list[int] = []  # depths of the live vertices, in key order
    for d in depths:
        frontier.append(d)
        slot = {p: i for i, p in enumerate(frontier)}
        getters = [_tuple_getter([slot[p] for p in positions]) for positions in completing[d]]
        kept = [i for i, p in enumerate(frontier) if done[p] > d]
        frontier = [frontier[i] for i in kept]
        project = _tuple_getter(kept)
        layer: dict[tuple[int, ...], int] = {}
        for key, w0 in states.items():
            for place in places:
                full = key + (place,)
                w = w0
                for get in getters:
                    f = lookup(math.prod(get(full)))
                    if f is None:
                        break
                    w *= f
                else:
                    out = project(full)
                    layer[out] = layer.get(out, 0) + w
        states = layer
    return Fraction(states.get((), 0) * isolated, scale ** len(inst.scopes))


def _arity(fs: FactorStructure, degs: Sequence[int], m_count: int) -> int:
    """The relation's arity r, once the degrees are checked to sum to r * M."""
    r = len(next(iter(fs.relation)))
    if sum(degs) != r * m_count:
        raise ValueError(f"degree sum {sum(degs)} != arity {r} * scopes {m_count}")
    return r


def lambda_factor_direct(fs: FactorStructure, degs: Sequence[int], m_count: int) -> Fraction:
    """Closed form C^M * prod_d (sum_i mu[i]^d)^count_d over the degree histogram.

    This is the per-component degree factor of the structured evaluation:
    each vertex of degree d contributes sum_i mu[i]^d, so equal degrees
    share one power. The root-free form is exact because the index-0
    weight is 1 and the constant contributes once per scope.
    """
    _arity(fs, degs, m_count)
    out = fs.constant**m_count
    for d, count in Counter(degs).items():
        out *= pow(sum(m**d for m in fs.mu), count)
    return out


def lambda_monomial_dp(fs: FactorStructure, degs: Sequence[int], m_count: int) -> Fraction:
    """The degree factor of lambda_factor_direct, from the same arguments,
    as a sum over exponent vectors.

    Walks the degrees, giving each vertex one index and adding its degree
    to that index's load. A state holds the loads of the first s-1 indices
    (the last is forced by the total rM) as one int in mixed radix
    W = rM + 1, load i at W**i, so a vertex of degree d adds d * W**i.
    The value sums each final state's count of index assignments times
    C^M * prod_i mu[i]^M_i, in integers over the common denominator
    prod_i b_i^(rM) where mu[i] = a_i/b_i, with the loads read off each
    state's digits. It never forms the per-vertex product, so it is
    computed independently of, and must equal, lambda_factor_direct.
    """
    total = _arity(fs, degs, m_count) * m_count
    radix = total + 1
    places = [radix**i for i in range(fs.s - 1)]
    states: dict[int, int] = {0: 1}
    for d in degs:
        # the vertex takes index s-1 (state unchanged) or index i < s-1
        nxt = dict(states)
        get = nxt.get
        for shift in [d * place for place in places]:
            for state, cnt in states.items():
                key = state + shift
                nxt[key] = get(key, 0) + cnt
        states = nxt
    *heads, (a_last, b_last) = ratios = [(mu.numerator, mu.denominator) for mu in fs.mu]
    numerator = 0
    for state, cnt in states.items():
        rest = total
        for a, b in heads:
            state, load = divmod(state, radix)
            cnt *= a**load * b ** (total - load)
            rest -= load
        numerator += cnt * a_last**rest * b_last ** (total - rest)
    denominator = math.prod(b for _, b in ratios) ** total
    return fs.constant**m_count * Fraction(numerator, denominator)


def monomial_value(fs: FactorStructure, mvec: Sequence[int]) -> Fraction:
    """Value C^M * prod_i mu[i]^M_i of one exponent vector (M_1..M_s).

    Each of the M = sum(mvec) / r scopes takes the weight of one relation
    member, which the product form gives as C times mu at its r indices,
    so the vector's loads enter only as exponents. No r-th roots appear.
    """
    if len(mvec) != fs.s:
        raise ValueError(f"exponent vector has {len(mvec)} entries, expected {fs.s}")
    if not fs.relation:
        raise ValueError("empty relation")
    if any(m < 0 for m in mvec):
        raise ValueError(f"negative entry in exponent vector {tuple(mvec)}")
    r = len(next(iter(fs.relation)))
    total = sum(mvec)
    if total % r != 0:
        raise ValueError(f"exponent total {total} not divisible by arity {r}")
    value = fs.constant ** (total // r)
    for mu, m in zip(fs.mu, mvec):
        value *= mu**m
    return value


@dataclass(frozen=True, eq=False)
class TermBreakdown:
    """One domain component's contribution on one instance piece."""

    component: tuple[int, ...]
    lam: Fraction
    homs: int


@dataclass(frozen=True, eq=False)
class PieceBreakdown:
    """One connected instance piece: original vertices and its factor."""

    vertices: tuple[int, ...]
    terms: tuple[TermBreakdown, ...]
    total: Fraction


@dataclass(frozen=True, eq=False)
class EvalReport:
    value: Fraction
    method: str  # "brute" | "structured" | "structured-dp"
    pieces: tuple[PieceBreakdown, ...] | None = None
    isolated: int | None = None

    def to_json(self) -> dict:
        """Machine-readable form: rationals as strings, full breakdown.
        Each distinct rational is formatted once: on one piece the value,
        its total and its lambda are often one huge number."""
        texts: dict[tuple[int, int], str] = {}

        def text(x: Fraction) -> str:
            key = (x.numerator, x.denominator)
            if key not in texts:
                texts[key] = format_rational(x)
            return texts[key]

        out: dict = {"value": text(self.value), "method": self.method}
        if self.isolated is not None:
            out["isolated_vertices"] = self.isolated
        if self.pieces is not None:
            out["pieces"] = [
                {
                    "vertices": list(piece.vertices),
                    "total": text(piece.total),
                    "terms": [
                        {
                            "component": list(term.component),
                            "lambda": text(term.lam),
                            "homs": term.homs,
                        }
                        for term in piece.terms
                    ],
                }
                for piece in self.pieces
            ]
        return out


def eval_tractable(cls: Classification, inst: Instance, method: str = "structured") -> EvalReport:
    """Polynomial-time evaluation from a Tractable classification.

    Z factors over connected instance pieces; each piece sums, over the
    domain components, the degree factor times the count of group-equation
    solutions; the degree factor is lambda_factor_direct for "structured"
    and lambda_monomial_dp for "structured-dp". Isolated vertices contribute
    the original domain size each.
    """
    if not cls.tractable:
        raise ValueError("structured evaluation requires a Tractable classification")
    degree_factor = {"structured": lambda_factor_direct, "structured-dp": lambda_monomial_dp}.get(method)
    if degree_factor is None:
        raise ValueError(f"unknown method {method!r}")
    _check_instance(cls.func.r, inst)
    split = instance_components(inst)
    value = Fraction(_isolated_factor(cls.func.q, split.isolated))
    pieces: list[PieceBreakdown] = []
    for sub, verts in split.pieces:
        degs = degrees(sub)
        terms: list[TermBreakdown] = []
        total = Fraction(0)
        for comp in cls.components:
            lam = degree_factor(comp.factor, degs, len(sub.scopes))
            homs = count_homs(comp.group.decomposition, comp.group.a, sub)
            terms.append(TermBreakdown(comp.factor.component, lam, homs))
            total += lam * homs
        value *= total
        pieces.append(PieceBreakdown(verts, tuple(terms), total))
    return EvalReport(value, method, tuple(pieces), split.isolated)


def evaluate(
    g,
    inst: Instance,
    method: str = "auto",
    cap: int | None = None,
) -> tuple[EvalReport, Classification | None]:
    """Method dispatch used by the CLI.

    auto classifies and takes the structured path when Tractable, falling
    back to guarded brute force; structured/structured-dp require a
    Tractable function; brute never classifies.
    """
    if method not in ("auto", "brute", "structured", "structured-dp"):
        raise ValueError(f"unknown method {method!r}")
    cls = None if method == "brute" else classify(g)
    if cls is None or (method == "auto" and not cls.tractable):
        return EvalReport(eval_bruteforce(g, inst, cap), "brute"), cls
    if not cls.tractable:
        raise ValueError("structured evaluation requires a Tractable function")
    return eval_tractable(cls, inst, "structured" if method == "auto" else method), cls
