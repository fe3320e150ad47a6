"""Seeded workloads: input files, the CLI commands run on them, and their checks.

`build(name, seed, workdir)` writes a workload's input files and returns its
commands; it is the set-up that `setup_s` times, so it imports hyperhom when
called (the runner re-imports the package before every set-up). `prepare`
computes each command's reference result through the library, outside any
timed region, and `Command.check` compares a command's JSON report with it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

DEFAULT_SEED = 1

# The workloads BENCHMARK.json lists, with the same `why` text.
WORKLOADS = {
    "eval_crosscheck": (
        "hundreds of small seeded auto/dp-lambda/brute evals plus n=100/M=200 DPs: CLI "
        "overhead, brute oracle and monomial DP dominate"
    ),
    "classify_tractable": (
        "classify on product-form tables (Z2^6, Z8^2, Z2^5 r=4, Z4xZ8 r=4, Z8^2 s=2 q=128, "
        "multi-component): every stage on sparse support"
    ),
    "classify_hard": (
        "classify on dense random tables (q=30 r=4, q=60 r=3), perturbed tables and "
        "steiner_fano: early exit on dense support, witness replay"
    ),
}
# Run by `--workload all` (or by name) but not listed in BENCHMARK.json.
# eval_large: two long, memory-heavy commands per run; on a shared 2-vCPU VM
# their times spread 30-50% across ten runs even after speed calibration,
# beyond any regression bound worth gating on. eval_acceptance6: BENCHMARK.json
# lists only workloads on which no operation fails, and the CLI cannot yet
# print this Z (about 14,300 digits), so every command exits 1 and counts as
# failed.
EXTRA_WORKLOADS = {
    "eval_large": (
        "eval --method auto at n=400/M=3000 (GF(2), 2^2, 3 elimination) and 20 pieces of "
        "n=50/M=300 (SNF): abelian counting dominates"
    ),
    "eval_acceptance6": "acceptance-6 shape (mixed(), connected n=1000, M=10000) through the CLI; "
    "exits 1 on the int-to-str digit limit until the output path is fixed",
}

_EXPECTED_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


@dataclass
class Command:
    """One CLI invocation with what its output must show."""

    label: str
    argv: list[str]
    check: Callable[[dict, dict], str | None]  # (report, ref) -> failure message or None
    keys: int = 0  # C(q+r-1, r) of the classified table, for classify commands
    scopes: int = 0  # instance scopes, for eval commands
    ref: dict = field(default_factory=dict)  # shared by the commands of one query
    make_ref: Callable[[dict], None] | None = None  # fills ref, set on one command per ref


def value_digest(value: Fraction) -> str:
    """sha256 of num/den in hex; hex has no digit limit, unlike str() of a huge int."""
    text = f"{value.numerator:x}/{value.denominator:x}"
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected() -> dict:
    with open(_EXPECTED_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    return path


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 4))


def _mu(rng: random.Random, s: int) -> tuple[Fraction, ...]:
    return tuple(sorted([Fraction(1)] + [_rational(rng) for _ in range(s - 1)]))


def invariant_factors(factors: tuple[int, ...]) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... of a direct sum of cyclic groups."""
    powers: dict[int, list[int]] = {}
    for d in factors:
        p = 2
        while d > 1:
            if d % p == 0:
                pe = 1
                while d % p == 0:
                    d //= p
                    pe *= p
                powers.setdefault(p, []).append(pe)
            p += 1
    length = max((len(v) for v in powers.values()), default=0)
    out = [1] * length
    for v in powers.values():
        for i, pe in enumerate(sorted(v, reverse=True)):
            out[length - 1 - i] *= pe
    return tuple(out)


def _report_value(report: dict) -> Fraction:
    return Fraction(report["payload"]["value"])


def relabelled(inst, rng: random.Random):
    """The same instance with vertices renamed at random and scopes shuffled."""
    from hyperhom.model import CspInstance, Hypergraph

    perm = list(range(inst.n))
    rng.shuffle(perm)
    scopes = [tuple(perm[v] for v in s) for s in inst.scopes]
    rng.shuffle(scopes)
    if isinstance(inst, Hypergraph):
        return Hypergraph(inst.n, tuple(tuple(sorted(s)) for s in scopes))
    return CspInstance(inst.n, tuple(scopes), ())


# ---------------------------------------------------------------------------
# checks


def _value_check(expect_digest: str | None = None):
    """Value must equal ref['value'] (and the stored digest, when given)."""

    def check(report: dict, ref: dict) -> str | None:
        got = _report_value(report)
        if got != ref["value"]:
            return "value differs from the library's on a relabelled instance"
        if expect_digest is not None and value_digest(got) != expect_digest:
            return "value differs from the value stored for the default seed"
        return None

    return check


def _library_value(g_path: str, inst_path: str, seed: int):
    """make_ref: library evaluation of a relabelled, scope-shuffled instance."""

    def make_ref(ref: dict) -> None:
        from hyperhom.evaluator import evaluate
        from hyperhom.model import load_instance, load_symfunc

        with open(g_path, encoding="utf-8") as fh:
            g = load_symfunc(fh.read())
        with open(inst_path, encoding="utf-8") as fh:
            inst = load_instance(fh.read())
        report, _ = evaluate(g, relabelled(inst, random.Random(seed)), method="auto")
        ref["value"] = report.value

    return make_ref


def _eval_command(label, g_path, inst_path, method, scopes, check, ref, make_ref=None) -> Command:
    argv = ["eval", "-g", g_path, "-i", inst_path, "--method", method]
    return Command(label, argv, check, scopes=scopes, ref=ref, make_ref=make_ref)


# ---------------------------------------------------------------------------
# generators


def _eval_large(rng: random.Random, workdir: str, seed: int) -> list[Command]:
    from hyperhom import fixtures as fx
    from hyperhom.model import Hypergraph, dump_hypergraph, dump_symfunc

    blocks = [
        (fx.group_from_factors(d), 1, (Fraction(1),), rng.randrange(d), Fraction(1)) for d in (2, 4, 3)
    ]
    g_path = _write(workdir, "z2z4z3.sym", dump_symfunc(fx.structured_family(blocks, r=3)))
    # (b) one connected piece: 3000x400 systems, past the SNF cell limit
    shape_b = fx.random_connected_hypergraph(rng, 400, 3000, 3)
    # (c) 20 pieces of 300x50 = 15,000 cells each, under the SNF cell limit
    perm = list(range(1000))
    rng.shuffle(perm)
    edges = []
    for p in range(20):
        piece = fx.random_connected_hypergraph(rng, 50, 300, 3)
        edges.extend(tuple(sorted(perm[50 * p + v] for v in e)) for e in piece.edges)
    shape_c = Hypergraph(1000, tuple(sorted(edges)))
    expected = load_expected()["eval_large"] if seed == DEFAULT_SEED else {}
    cmds = []
    for label, inst in (("b", shape_b), ("c", shape_c)):
        inst_path = _write(workdir, f"shape_{label}.hg", dump_hypergraph(inst))
        cmds.append(
            _eval_command(
                label, g_path, inst_path, "auto", len(inst.edges),
                _value_check(expected.get(label)), {}, _library_value(g_path, inst_path, seed),
            )
        )
    return cmds


def _eval_acceptance6(rng: random.Random, workdir: str, seed: int) -> list[Command]:
    from hyperhom import fixtures as fx
    from hyperhom.model import dump_hypergraph, dump_symfunc

    g_path = _write(workdir, "mixed.sym", dump_symfunc(fx.mixed()))
    inst = fx.random_connected_hypergraph(rng, 1000, 10000, 3)
    inst_path = _write(workdir, "shape_a.hg", dump_hypergraph(inst))
    expected = load_expected()["eval_acceptance6"] if seed == DEFAULT_SEED else {}
    return [
        _eval_command(
            "a", g_path, inst_path, "auto", len(inst.edges),
            _value_check(expected.get("a")), {}, _library_value(g_path, inst_path, seed),
        )
    ]


# Small queries cycle through every (q, r, function kind, instance kind), so
# seeds change the tables and instances but not the mix; n is the largest
# with q^n <= BRUTE_STATES, so every query stays brute-forceable.
SMALL_QUERIES = 192
BRUTE_STATES = 1024
DP_GROUPS = ((2,), (4,), (3,))  # one n=100/M=200/s=2 query per group


def _oracle_values(g_path: str, inst_path: str):
    """make_ref: eval_bruteforce, and the plain assignment sum for brute itself."""

    def make_ref(ref: dict) -> None:
        from hyperhom.evaluator import eval_bruteforce
        from hyperhom.gadgets import eval_table_brute
        from hyperhom.model import load_instance, load_symfunc, marginalize

        with open(g_path, encoding="utf-8") as fh:
            g = load_symfunc(fh.read())
        with open(inst_path, encoding="utf-8") as fh:
            inst = load_instance(fh.read())
        ref["oracle"] = eval_bruteforce(g, inst)
        ref["table"] = eval_table_brute(marginalize(g, g.r), inst)

    return make_ref


def _small_check(report: dict, ref: dict) -> str | None:
    """Brute-force answers against the plain assignment sum, others against eval_bruteforce."""
    if report["payload"]["method"] == "brute":
        return None if _report_value(report) == ref["table"] else "value differs from eval_table_brute"
    return None if _report_value(report) == ref["oracle"] else "value differs from eval_bruteforce"


def _eval_crosscheck(rng: random.Random, workdir: str, seed: int) -> list[Command]:
    from hyperhom import fixtures as fx
    from hyperhom.model import CspInstance, Hypergraph, dump_csp, dump_hypergraph, dump_symfunc

    cmds: list[Command] = []
    for i in range(SMALL_QUERIES):
        q, r = 2 + i % 4, 3 + i // 4 % 2
        tractable, hypergraph = i // 8 % 2 == 0, i // 16 % 2 == 0
        g = fx.random_tractable(rng, q, r) if tractable else fx.random_table(rng, q, r)
        n = r
        while q ** (n + 1) <= BRUTE_STATES:
            n += 1
        if hypergraph:
            inst = fx.random_connected_hypergraph(rng, n, min(6, math.comb(n, r)), r)
            inst_text = dump_hypergraph(inst)
        else:  # repeated variables allowed, possibly several pieces
            inst = CspInstance(n, tuple(tuple(rng.randrange(n) for _ in range(r)) for _ in range(6)))
            inst_text = dump_csp(inst)
        g_path = _write(workdir, f"q{i:03d}.sym", dump_symfunc(g))
        inst_path = _write(workdir, f"q{i:03d}.inst", inst_text)
        ref: dict = {}
        make_ref = _oracle_values(g_path, inst_path)
        kind = "hg" if isinstance(inst, Hypergraph) else "csp"
        label = f"{'tractable' if tractable else 'table'}-{kind}"
        methods = ("auto", "dp-lambda", "brute") if tractable else ("auto", "brute")
        for method in methods:
            cmds.append(
                _eval_command(
                    f"{label}-{method}", g_path, inst_path, method, len(inst.scopes),
                    _small_check, ref, make_ref,
                )
            )
            make_ref = None  # one reference computation per query
    for i, factors in enumerate(DP_GROUPS):
        group = fx.group_from_factors(*factors)
        g = fx.structured_family([(group, 2, _mu(rng, 2), rng.randrange(group.order), _rational(rng))])
        inst = fx.random_connected_hypergraph(rng, 100, 200, 3)
        g_path = _write(workdir, f"dp{i}.sym", dump_symfunc(g))
        inst_path = _write(workdir, f"dp{i}.hg", dump_hypergraph(inst))
        ref = {}
        make_ref = _library_value(g_path, inst_path, seed + i)
        for method in ("auto", "dp-lambda"):
            cmds.append(
                _eval_command(f"dp-{method}", g_path, inst_path, method, 200, _value_check(), ref, make_ref)
            )
            make_ref = None
    return cmds


def _classify_command(label: str, g_path: str, q: int, r: int, check) -> Command:
    return Command(label, ["classify", "-g", g_path], check, keys=math.comb(q + r - 1, r))


def _tractable_check(expect: list[tuple[int, int, tuple[int, ...]]]):
    def check(report: dict, ref: dict) -> str | None:
        payload = report["payload"]
        if report["status"] != "tractable":
            return f"verdict {report['status']}, expected tractable"
        got = [(c["s"], c["group_order"], tuple(c["invariant_factors"])) for c in payload["components"]]
        if got != expect:
            return f"components (s, order, factors) {got} != construction {expect}"
        return None

    return check


CLASSIFY_TRACTABLE = (
    # label, blocks as (cyclic factors, s), r, junk elements
    ("Z2^6", (((2,) * 6, 1),), 3, 0),
    ("Z8^2", (((8, 8), 1),), 3, 0),
    ("Z2^5-r4", (((2,) * 5, 1),), 4, 0),
    ("Z4xZ8-r4", (((4, 8), 1),), 4, 0),
    ("Z8^2-s2-q128", (((8, 8), 2),), 3, 0),
    ("multi", (((4, 4), 1), ((3,), 3), ((2, 2, 2), 2), ((5,), 1)), 3, 2),
)


def _classify_tractable(rng: random.Random, workdir: str, seed: int) -> list[Command]:
    from hyperhom import fixtures as fx
    from hyperhom.model import dump_symfunc

    cmds = []
    for label, spec, r, junk in CLASSIFY_TRACTABLE:
        blocks, expect = [], []
        for factors, s in spec:
            group = fx.group_from_factors(*factors)
            blocks.append((group, s, _mu(rng, s), rng.randrange(group.order), _rational(rng)))
            expect.append((s, group.order, invariant_factors(factors)))
        g = fx.structured_family(blocks, r=r, junk=junk)
        g_path = _write(workdir, f"{label}.sym", dump_symfunc(g))
        cmds.append(_classify_command(label, g_path, g.q, r, _tractable_check(expect)))
    return cmds


def _hard_check(kind: str):
    def check(report: dict, ref: dict) -> str | None:
        payload = report["payload"]
        if report["status"] != "hard":
            return f"verdict {report['status']}, expected hard"
        if payload["witness"]["kind"] != kind:
            return f"witness {payload['witness']['kind']}, expected {kind}"
        if payload["replay"] is not True:
            return "witness did not replay"
        return None

    return check


def _classify_hard(rng: random.Random, workdir: str, seed: int) -> list[Command]:
    from hyperhom import fixtures as fx
    from hyperhom.model import SymFunc, dump_symfunc

    def structured(factors, s):
        group = fx.group_from_factors(*factors)
        return fx.structured_family([(group, s, _mu(rng, s), rng.randrange(group.order), _rational(rng))])

    base = structured((8, 8), 1)
    support = sorted(base.weights)
    bumped = dict(base.weights)
    key = rng.choice(support)
    bumped[key] *= 2
    dropped = dict(base.weights)
    del dropped[rng.choice(support)]
    base2 = structured((4, 8), 2)
    added = dict(base2.weights)
    while True:
        key = tuple(sorted(rng.randrange(base2.q) for _ in range(3)))
        if key not in added:
            added[key] = Fraction(1)
            break
    tables = (
        ("random-q30-r4", fx.random_table(rng, 30, 4), "RepValueInconsistent"),
        ("random-q60-r3", fx.random_table(rng, 60, 3), "RepValueInconsistent"),
        ("bumped-Z8^2", SymFunc.from_weights(base.q, 3, bumped), "RepValueInconsistent"),
        ("dropped-Z8^2", SymFunc.from_weights(base.q, 3, dropped), "NotLatin"),
        ("added-Z4xZ8-s2", SymFunc.from_weights(base2.q, 3, added), "UnequalClassSizes"),
        ("steiner_fano", fx.steiner_fano(), "NotAssociative"),
    )
    cmds = []
    for label, g, kind in tables:
        g_path = _write(workdir, f"{label}.sym", dump_symfunc(g))
        cmds.append(_classify_command(label, g_path, g.q, g.r, _hard_check(kind)))
    return cmds


_BUILDERS = {
    "eval_large": _eval_large,
    "eval_crosscheck": _eval_crosscheck,
    "classify_tractable": _classify_tractable,
    "classify_hard": _classify_hard,
    "eval_acceptance6": _eval_acceptance6,
}


def build(name: str, seed: int, workdir: str) -> list[Command]:
    """Write the workload's input files under workdir and return its commands."""
    os.makedirs(workdir, exist_ok=True)
    return _BUILDERS[name](random.Random(f"{name}:{seed}"), workdir, seed)


def prepare(cmds: list[Command]) -> None:
    """Compute every reference result (untimed, before tracing starts)."""
    for cmd in cmds:
        if cmd.make_ref is not None:
            cmd.make_ref(cmd.ref)
