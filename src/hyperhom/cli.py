"""Command-line front end: classify, eval, gadget, selftest.

Every run prints exactly one JSON report to stdout (stable key order,
rationals as strings) and a short human summary to stderr. Exit codes:
0 success, 1 input or usage problem, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from typing import Any

from . import __version__, gadgets
from .abelian import count_solutions_mod
from .certify import check_witness
from .dichotomy import Classification, classify, latin_check, reconstruct_group, replay_witness
from .evaluator import CapExceeded, eval_bruteforce, eval_tractable, evaluate, resolve_brute_cap
from .exactcore import IntMatrix, format_rational, snf
from .fixtures import (
    geometric,
    mixed,
    not_all_zero,
    parity,
    shifted_mod4_relation,
    steiner_fano,
)
from .gadgets import (
    component_separator,
    equality_eliminator,
    eval_table_brute,
    pad_to_arity,
    tilde_f,
    two_stretch,
    vertex_power,
)
from .model import (
    CspInstance,
    FormatError,
    Hypergraph,
    load_instance,
    load_symfunc,
    marginalize,
)

_METHOD_MAP = {
    "auto": "auto",
    "structured": "structured",
    "dp-lambda": "structured-dp",
    "brute": "brute",
}


class _CliError(Exception):
    """Bad flags or bad input files; reported with exit code 1."""


class _SelfTestFailure(Exception):
    """An internal cross-check disagreed; reported with exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _CliError(message)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _rational_text(value: Any) -> str:
    """json.dumps hook: rationals as strings, nothing else unencodable."""
    if isinstance(value, Fraction):
        return format_rational(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _report(command: str, status: str, payload: Any, started: float) -> str:
    report = {
        "tool": "hyperhom",
        "version": __version__,
        "command": command,
        "status": status,
        "payload": payload,
        "timing_ms": int((time.perf_counter() - started) * 1000),
    }
    return json.dumps(report, indent=2, default=_rational_text) + "\n"


def _classification_payload(cls: Classification) -> dict[str, Any]:
    # the report lists every removed element, so a huge q with few kept
    # elements is refused (exit 1) before the list is built
    removed = cls.func.q - len(cls.kept)
    if removed > gadgets.MAX_GADGET_ENTRIES:
        raise ValueError(f"{removed} removed elements would pass {gadgets.MAX_GADGET_ENTRIES} entries")
    payload: dict[str, Any] = {
        "q": cls.func.q,
        "r": cls.func.r,
        "tractable": cls.tractable,
        "kept": list(cls.kept),
        "removed": list(cls.removed),
    }
    if cls.tractable:
        comps = []
        for comp in cls.components:
            fs = comp.factor
            gs = comp.group
            comps.append(
                {
                    "elements": list(fs.component),
                    "classes": [list(c) for c in fs.classes],
                    "s": fs.s,
                    "mu": fs.mu,
                    "constant": fs.constant,
                    "group_order": gs.group.order,
                    "invariant_factors": list(gs.decomposition.factors),
                    "a": gs.a,
                }
            )
        payload["components"] = comps
    else:
        w = cls.witness
        payload["witness"] = {
            "kind": w.kind,
            "component": list(w.component),
            "evidence": w.evidence,
        }
        # true when the evidence holds of the table and so shows it hard;
        # the classifier does not run again
        payload["replay"] = check_witness(cls.func, w)
    return payload


def _instance_payload(inst: Hypergraph | CspInstance) -> dict[str, Any]:
    if isinstance(inst, Hypergraph):
        return {"type": "hypergraph", "n": inst.n, "edges": [list(e) for e in inst.edges]}
    return {
        "type": "csp",
        "n": inst.n,
        "scopes": [list(s) for s in inst.scopes],
        "equalities": [list(e) for e in inst.equalities],
    }


def _cmd_classify(args: argparse.Namespace) -> tuple[str, dict[str, Any], str]:
    cls = classify(load_symfunc(_read(args.g)))
    payload = _classification_payload(cls)
    if cls.tractable:
        return "tractable", payload, f"{len(cls.components)} component(s)"
    return "hard", payload, cls.witness.kind


def _cmd_eval(args: argparse.Namespace) -> tuple[str, dict[str, Any], str]:
    g = load_symfunc(_read(args.g))
    inst = load_instance(_read(args.i))
    method = _METHOD_MAP[args.method]
    cap = resolve_brute_cap(args.brute_cap)  # a bad cap is an error on every path
    report, cls = evaluate(g, inst, method=method, cap=cap)
    payload: dict[str, Any] = dict(report.to_json())
    payload["instance"] = _instance_payload(inst)
    if cls is not None:
        payload["tractable"] = cls.tractable
    return "value", payload, f"value {payload['value']} via {payload['method']}"


def _cmd_gadget(args: argparse.Namespace) -> tuple[str, dict[str, Any], str]:
    kind = args.kind
    if kind == "tilde":
        g = load_symfunc(_read(args.g))
        payload = {
            "gadget": kind,
            "k": args.k,
            "matrix": tilde_f(g, args.k),
        }
        return "value", payload, kind
    inst = load_instance(_read(args.i))
    if kind in ("pad", "power", "separate") and not isinstance(inst, Hypergraph):
        raise _CliError(f"gadget {kind} needs a hypergraph instance")
    if kind == "eq-elim" and not isinstance(inst, CspInstance):
        raise _CliError("gadget eq-elim needs a csp instance")
    if kind == "pad":
        if inst.arity is None:
            raise _CliError("pad needs at least one edge")
        res = pad_to_arity(inst, inst.arity, args.r)
    elif kind == "stretch":
        res = two_stretch(inst)
    elif kind == "power":
        res = vertex_power(inst, args.j)
    elif kind == "separate":
        res = component_separator(inst, args.p)
    else:  # eq-elim: the parser admits no other kind
        res = equality_eliminator(inst, args.p)
    payload = {
        "gadget": kind,
        "params": res.params,
        "instance": _instance_payload(res.instance),
        "maps": res.maps,
    }
    return "value", payload, kind


def _expect(name: str, got: Any, want: Any) -> str:
    if got != want:
        raise _SelfTestFailure(f"{name}: got {got!r}, want {want!r}")
    return name


def _cmd_selftest(args: argparse.Namespace) -> tuple[str, dict[str, Any], str]:
    checks: list[str] = []
    edge = Hypergraph(3, ((0, 1, 2),))

    for g, factors, value in (
        (parity(), (2,), Fraction(4)),
        (geometric(), (), Fraction(27)),
        (mixed(), (2,), Fraction(256)),
    ):
        cls = classify(g)
        _expect("tractable", cls.tractable, True)
        _expect("factors", cls.components[0].group.decomposition.factors, factors)
        checks.append(_expect(f"structured q={g.q}", eval_tractable(cls, edge).value, value))
        checks.append(_expect(f"brute q={g.q}", eval_bruteforce(g, edge), value))

    for g, kind in ((not_all_zero(), "NotLatin"), (steiner_fano(), "NotAssociative")):
        cls = classify(g)
        _expect("hard", cls.tractable, False)
        _expect("kind", cls.witness.kind, kind)
        replayed = replay_witness(g, cls.witness)
        _expect(f"check {kind}", check_witness(g, cls.witness), replayed)  # the two must agree
        checks.append(_expect(f"replay {kind}", replayed, True))

    gs = reconstruct_group(latin_check(shifted_mod4_relation(), 3, 4), 3, 4, zero=1)
    _expect("shifted zero target", gs.a, 2)
    checks.append(_expect("shifted factors", gs.decomposition.factors, (4,)))

    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    res = snf(m)
    _expect("snf transform", res.U.mul(m).mul(res.V).entries, res.S.entries)
    checks.append(_expect("snf diagonal", res.S.diagonal(), (1, 6)))
    checks.append(
        _expect("mod count", count_solutions_mod(IntMatrix.from_rows([[1, 1, 1]]), [0], 4), 16)
    )

    triangle = Hypergraph(3, ((0, 1), (0, 2), (1, 2)))
    padded = pad_to_arity(triangle, 2, 3)
    checks.append(
        _expect(
            "pad identity",
            eval_bruteforce(parity(), padded.instance),
            eval_table_brute(marginalize(parity(), 2), triangle),
        )
    )

    return "value", {"checks": len(checks), "names": checks}, f"{len(checks)} self-checks passed"


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process on first use.

    Parsing keeps no state between calls: no action appends to a default,
    and a usage error raises before anything is stored.
    """
    parser = _Parser(prog="hyperhom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="decide tractability of a weight function")
    p.add_argument("-g", required=True, help="weight function file")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("eval", help="evaluate the partition function on an instance")
    p.add_argument("-g", required=True, help="weight function file")
    p.add_argument("-i", required=True, help="instance file (hypergraph or csp)")
    p.add_argument("--method", choices=sorted(_METHOD_MAP), default="auto")
    p.add_argument("--brute-cap", type=int, default=None, help="brute-force state guard")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("gadget", help="run a gadget construction")
    gsub = p.add_subparsers(dest="kind", required=True)
    gp = gsub.add_parser("pad", help="pad every edge up to a target arity")
    gp.add_argument("-i", required=True)
    gp.add_argument("-r", type=int, required=True, help="target arity")
    gp = gsub.add_parser("stretch", help="replace each binary edge by a length-2 path")
    gp.add_argument("-i", required=True)
    gp = gsub.add_parser("tilde", help="stretched pair weight matrix")
    gp.add_argument("-g", required=True)
    gp.add_argument("-k", type=int, required=True, help="instance arity")
    gp = gsub.add_parser("power", help="attach pendant blocks per vertex degree")
    gp.add_argument("-i", required=True)
    gp.add_argument("-j", type=int, required=True)
    gp = gsub.add_parser("separate", help="chain copies through linking blocks")
    gp.add_argument("-i", required=True)
    gp.add_argument("-p", type=int, required=True)
    gp = gsub.add_parser("eq-elim", help="replace equality constraints by gadget edges")
    gp.add_argument("-i", required=True)
    gp.add_argument("-p", type=int, required=True)
    for gp_name, gp_sub in gsub.choices.items():
        gp_sub.set_defaults(handler=_cmd_gadget, kind=gp_name)

    p = sub.add_parser("selftest", help="run built-in fixture cross-checks")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and print its report; returns the exit code.

    The argument parser is built on the first call and reused by every
    later call in the process, so a call pays only for parsing its own
    arguments and input files (O(lines), see the loaders in model).
    """
    started = time.perf_counter()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    command = " ".join(argv) if argv else "(none)"
    try:
        args = _build_parser().parse_args(argv)
        status, payload, summary = args.handler(args)
        code, note = 0, f"{status}: {summary}"
    except (_CliError, FormatError, OSError, CapExceeded, ValueError) as exc:
        code, message, note = 1, str(exc), f"error: {exc}"
    except _SelfTestFailure as exc:
        code, message, note = 2, f"selftest mismatch: {exc}", f"selftest mismatch: {exc}"
    except Exception as exc:  # pragma: no cover - defensive
        code, message, note = 2, f"internal: {exc!r}", f"internal error: {exc!r}"
    if code:
        status, payload = "error", {"message": message}
    try:  # the text is built before anything is printed, so a failure here still ends in one report
        text = _report(command, status, payload, started)
    except Exception as exc:
        code, note = 2, f"internal error: {exc!r}"
        text = _report(command, "error", {"message": f"internal: {exc!r}"}, started)
    sys.stdout.write(text)
    print(note, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
