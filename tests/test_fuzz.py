"""Seeded fuzzing of `classify` on damaged `symfunc v1` texts.

Valid texts are mutated by byte flips, token deletions and duplicates,
header damage, huge and negative numbers, q = 1 and emptied bodies, and
each one is classified through `cli.main` in-process. Whatever the text,
the command must exit 0 or 1 and print exactly one JSON report; a text the
loader refuses must be refused by a FormatError that names a line of it.
"""

import json
import random
import time
from fractions import Fraction

from hyperhom import fixtures as fx
from hyperhom.cli import main
from hyperhom.model import FormatError, SymFunc, dump_symfunc, load_symfunc

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


def _mutate(rng: random.Random, text: str) -> bytes:
    lines = text.splitlines()
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
    elif move == "q1":
        lines[1] = "q 1"
        if rng.random() < 0.5:
            lines[3:] = [f"0 0 0 = {rng.choice(('1', '2/3', '0'))}"] if lines[2] == "r 3" else []
    else:
        del lines[3:]
    return ("\n".join(lines) + rng.choice(("\n", ""))).encode()


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
        try:
            text = data.decode()
        except UnicodeDecodeError:
            assert code == 1
            continue
        try:
            load_symfunc(text)
        except FormatError as exc:
            assert code == 1
            assert 1 <= exc.line <= len(text.splitlines()) + 1
            assert report["payload"]["message"] == str(exc)
    assert codes[0] >= 200 and codes[1] >= 1000, codes
    assert time.perf_counter() - started < 3.0
