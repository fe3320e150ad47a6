"""Seeded fuzzing of the CLI on damaged input texts.

Valid texts are mutated by byte flips, token deletions and duplicates,
header damage, huge and negative numbers, q = 1 or n = 0 and 1, and
emptied bodies, and each one is run through `cli.main` in-process:
`symfunc v1` texts through `classify`, and `hypergraph v1` and `csp v1`
texts through `eval` with every method and through every gadget kind.
Whatever the text, the command must exit 0 or 1 and print exactly one
JSON report; a text the loader refuses must be refused by a FormatError
that names a line of it; and a structured value must equal the oracle's
wherever the oracle fits its cap.
"""

import json
import random
import time
from fractions import Fraction

from hyperhom import fixtures as fx
from hyperhom.cli import main
from hyperhom.evaluator import CapExceeded, eval_bruteforce
from hyperhom.model import (
    CspInstance,
    FormatError,
    Hypergraph,
    SymFunc,
    dump_csp,
    dump_hypergraph,
    dump_symfunc,
    load_instance,
    load_symfunc,
)

HUGE = ("100000000000000000000", str(2**63), "9" * 5000, "-1", "-100000000000000000000", "0")


def _bases() -> list[str]:
    rng = random.Random(17)
    tables = [
        fx.parity(),
        fx.mixed(),
        fx.geometric(),
        fx.steiner_fano(),
        fx.mixed_skewed(),
        fx.random_table(rng, 4, 4, 0.5),
        fx.structured_family(
            [(fx.group_from_factors(2, 2), 2, (Fraction(1), Fraction(5, 3)), 1, Fraction(7, 2))],
            r=4,
            junk=1,
        ),
        SymFunc.from_weights(3, 3, {(0, 0, 0): Fraction(1, 3)}),
    ]
    texts = [dump_symfunc(g) for g in tables]
    texts[1] = "# a comment\n" + texts[1].replace("\n0 2 2", "  # trailing\n\n0 2 2", 1)
    return texts


def _instance_bases() -> list[str]:
    rng = random.Random(29)
    hypergraphs = [
        Hypergraph(3, ((0, 1, 2),)),
        Hypergraph(5, ((0, 1, 2), (1, 2, 3), (2, 3, 4))),
        Hypergraph(7, ((0, 1, 2), (2, 3, 4))),
        Hypergraph(5, ((0, 1, 2, 3), (1, 2, 3, 4))),
        Hypergraph(4, ((0, 1), (1, 2), (2, 3))),
    ]
    while len(hypergraphs) < 8:
        h = fx.random_hypergraph(rng, 7, 5, 3)
        if h.edges:
            hypergraphs.append(h)
    csps = [
        CspInstance(4, ((0, 1, 2), (1, 2, 3)), ()),
        CspInstance(4, ((0, 0, 1), (1, 2, 3), (1, 2, 3)), ()),
        CspInstance(5, ((0, 1, 2), (2, 3, 4)), ((0, 4),)),
    ]
    while len(csps) < 5:
        c = fx.random_csp(rng, 6, 4, 3)
        if c.scopes:
            csps.append(c)
    return [dump_hypergraph(h) for h in hypergraphs] + [dump_csp(c) for c in csps]


def _mutate(rng: random.Random, text: str) -> bytes:
    lines = text.splitlines()
    header = 3 if "symfunc v1" in text else 2  # instance texts have no r line
    move = rng.choice(("flip", "flip", "delete", "duplicate", "header", "number", "q1", "empty"))
    if move == "flip":
        data = bytearray(text.encode())
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        return bytes(data)
    if move in ("delete", "duplicate", "number"):
        i = rng.randrange(len(lines))
        tokens = lines[i].split()
        if tokens:
            j = rng.randrange(len(tokens))
            if move == "delete":
                del tokens[j]
            elif move == "duplicate":
                tokens.insert(j, tokens[j])
            else:
                tokens[j] = rng.choice(HUGE) + rng.choice(("", "", "/3", "/0"))
            lines[i] = " ".join(tokens)
    elif move == "header":
        damage = rng.choice(("drop", "swap", "repeat", "version", "blank"))
        i = rng.randrange(3)
        if damage == "drop":
            del lines[i]
        elif damage == "swap":
            lines[1], lines[2] = lines[2], lines[1]
        elif damage == "repeat":
            lines.insert(i, lines[i])
        elif damage == "version":
            lines[0] = rng.choice(("symfunc v2", "symfunc", "SYMFUNC V1", "hypergraph v1", ""))
        else:
            lines[i] = lines[i].split()[0]
    elif move == "q1" and header == 3:
        lines[1] = "q 1"
        if rng.random() < 0.5:
            lines[3:] = [f"0 0 0 = {rng.choice(('1', '2/3', '0'))}"] if lines[2] == "r 3" else []
    elif move == "q1":  # on an instance, n = 0 or 1, with or without its scopes
        lines[1] = rng.choice(("n 0", "n 1"))
        if rng.random() < 0.5:
            del lines[2:]
    else:
        del lines[header:]
    return ("\n".join(lines) + rng.choice(("\n", ""))).encode()


def _check_refusal(data: bytes, load, code: int, report: dict) -> None:
    """A text that does not decode, or that load refuses, exits 1; a
    FormatError names a line of the text, and the report carries it."""
    try:
        text = data.decode()
    except UnicodeDecodeError:
        assert code == 1
        return
    try:
        load(text)
    except FormatError as exc:
        assert code == 1
        assert 1 <= exc.line <= len(text.splitlines()) + 1
        assert report["payload"]["message"] == str(exc)


def test_classify_survives_damaged_texts(tmp_path, capsys):
    rng = random.Random(2029)
    path = tmp_path / "g.sym"
    bases = _bases()
    codes = {0: 0, 1: 0}
    started = time.perf_counter()
    for _ in range(2000):
        data = _mutate(rng, rng.choice(bases))
        path.write_bytes(data)
        code = main(["classify", "-g", str(path)])
        out = capsys.readouterr().out
        report = json.loads(out)  # one JSON document, nothing after it
        assert code in (0, 1), (code, data[:200], report["payload"])
        codes[code] += 1
        assert (report["status"] == "error") == (code == 1)
        _check_refusal(data, load_symfunc, code, report)
    assert codes[0] >= 200 and codes[1] >= 1000, codes
    assert time.perf_counter() - started < 3.0


def test_eval_and_gadgets_survive_damaged_instances(tmp_path, capsys):
    rng = random.Random(3030)
    g_path, i_path = tmp_path / "g.sym", tmp_path / "inst.txt"
    tables = [fx.parity(), fx.mixed(), fx.geometric(), fx.mixed_skewed(), fx.steiner_fano(),
              fx.random_table(rng, 3, 3, 0.5), fx.random_tractable(rng, 3, 4)]
    table_texts = [dump_symfunc(g) for g in tables]
    bases = _instance_bases()
    huge = "100000000000000000000"
    params = {
        "pad": ("-r", ("1", "3", "4", "6", huge)),
        "stretch": (),
        "tilde": ("-k", ("0", "2", "3", "4", huge)),
        "power": ("-j", ("0", "1", "2", "3", huge)),
        "separate": ("-p", ("0", "1", "2", "3", huge)),
        "eq-elim": ("-p", ("0", "1", "2", huge)),
    }
    codes = {0: 0, 1: 0}
    checked = 0
    started = time.perf_counter()
    for _ in range(2000):
        t = rng.randrange(len(tables))
        kind = rng.choice(("eval", "eval", "eval", "eval", *params))
        if kind == "tilde":  # the one gadget that reads a table, so mutate the table
            data = _mutate(rng, rng.choice(table_texts))
            g_path.write_bytes(data)
            flag, values = params[kind]
            argv = ["gadget", kind, "-g", str(g_path), flag, rng.choice(values)]
        else:
            base = rng.choice(bases)
            data = _mutate(rng, base) if rng.random() < 0.5 else base.encode()
            i_path.write_bytes(data)
            if kind == "eval":
                g_path.write_text(table_texts[t])
                method = rng.choice(("auto", "structured", "dp-lambda", "brute"))
                cap = rng.choice(("0", "10", "1000"))
                argv = ["eval", "-g", str(g_path), "-i", str(i_path), "--method", method, "--brute-cap", cap]
            else:
                argv = ["gadget", kind, "-i", str(i_path)]
                if params[kind]:
                    flag, values = params[kind]
                    argv += [flag, rng.choice(values)]
        code = main(argv)
        report = json.loads(capsys.readouterr().out)  # one JSON document, nothing after it
        assert code in (0, 1), (argv[:2], code, data[:200], report["payload"])
        codes[code] += 1
        assert (report["status"] == "error") == (code == 1)
        _check_refusal(data, load_symfunc if kind == "tilde" else load_instance, code, report)
        if kind == "eval" and method != "brute" and code == 0:
            try:
                oracle = eval_bruteforce(tables[t], load_instance(data.decode()), cap=10**5)
            except CapExceeded:
                continue
            assert Fraction(report["payload"]["value"]) == oracle, (argv, data)
            checked += 1
    assert codes[0] >= 150 and codes[1] >= 500 and checked >= 100, (codes, checked)
    assert time.perf_counter() - started < 3.0
