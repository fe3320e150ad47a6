"""Command-line behavior: reports, exit codes, determinism."""

import hashlib
import json
import os
import re
import subprocess
import sys
from decimal import Decimal
from itertools import combinations
from pathlib import Path

import pytest

import hyperhom
from hyperhom import fixtures as fx
from hyperhom.cli import main
from hyperhom.gadgets import relation_to_symfunc
from hyperhom.model import CspInstance, Hypergraph, dump_csp, dump_hypergraph, dump_symfunc


# Latin and associative (Z4 with zero 0 reads off a target of 0), but the
# members 1111 and 2223 do not sum to that target: an EquationMismatch
EQUATION_MISMATCH = frozenset(
    tuple(int(c) for c in key) for key in "0000 0011 0022 0033 0123 1111 1122 1133 2223 2333".split()
)


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, g in (
        ("parity", fx.parity()),
        ("geometric", fx.geometric()),
        ("notallzero", fx.not_all_zero()),
        ("fano", fx.steiner_fano()),
        ("mismatch", relation_to_symfunc(EQUATION_MISMATCH, 4, 4)),
    ):
        p = tmp_path / f"{name}.sf"
        p.write_text(dump_symfunc(g))
        paths[name] = str(p)
    edge = tmp_path / "edge3.hg"
    edge.write_text(dump_hypergraph(Hypergraph(3, ((0, 1, 2),))))
    paths["edge3"] = str(edge)
    tri = tmp_path / "tri.hg"
    tri.write_text(dump_hypergraph(Hypergraph(3, ((0, 1), (0, 2), (1, 2)))))
    paths["tri"] = str(tri)
    eq = tmp_path / "eq.csp"
    eq.write_text(dump_csp(CspInstance(3, ((0, 1, 2),), ((0, 1),))))
    paths["eq"] = str(eq)
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, json.loads(out), err


def test_classify_tractable(files, capsys):
    code, report, err = run_cli(capsys, "classify", "-g", files["parity"])
    assert code == 0
    assert report["tool"] == "hyperhom"
    assert report["status"] == "tractable"
    comp = report["payload"]["components"][0]
    assert comp["invariant_factors"] == [2]
    assert comp["a"] == 0
    assert "tractable" in err


def test_classify_hard(files, capsys):
    code, report, _ = run_cli(capsys, "classify", "-g", files["notallzero"])
    assert code == 0
    assert report["status"] == "hard"
    assert report["payload"]["witness"]["kind"] == "NotLatin"
    assert report["payload"]["replay"] is True


def test_eval_methods(files, capsys):
    code, report, _ = run_cli(
        capsys, "eval", "-g", files["parity"], "-i", files["edge3"], "--method", "auto"
    )
    assert code == 0
    assert report["status"] == "value"
    assert report["payload"]["value"] == "4"
    assert report["payload"]["method"] == "structured"

    code, report, _ = run_cli(
        capsys, "eval", "-g", files["parity"], "-i", files["edge3"], "--method", "brute"
    )
    assert code == 0 and report["payload"]["method"] == "brute"
    assert report["payload"]["value"] == "4"

    code, report, _ = run_cli(
        capsys,
        "eval",
        "-g",
        files["geometric"],
        "-i",
        files["edge3"],
        "--method",
        "dp-lambda",
    )
    assert code == 0
    assert report["payload"]["method"] == "structured-dp"
    assert report["payload"]["value"] == "27"


def test_eval_value_beyond_int_str_digits(tmp_path, capsys):
    # 4^8000 has 4817 digits, beyond the interpreter's default int-to-str limit
    g = tmp_path / "mixed.sf"
    g.write_text(dump_symfunc(fx.mixed()))
    inst = tmp_path / "edgeless.hg"
    inst.write_text(dump_hypergraph(Hypergraph(8000, ())))
    code, report, _ = run_cli(capsys, "eval", "-g", str(g), "-i", str(inst))
    assert code == 0
    text = report["payload"]["value"]
    assert len(text) == 4817
    assert int(Decimal(text)) == 4**8000


def test_eval_one_edge_among_1e20_vertices(tmp_path, capsys):
    # n is past the largest index, so nothing may be kept per vertex; under
    # a q = 1 table the vertices in no scope multiply Z by 1
    g = tmp_path / "one.sf"
    g.write_text("symfunc v1\nq 1\nr 3\n0 0 0 = 3/2\n")
    inst = tmp_path / "sparse.hg"
    inst.write_text(f"hypergraph v1\nn {10**20}\ne 0 1 2\n")
    for method in ("auto", "brute", "structured", "dp-lambda"):
        code, report, _ = run_cli(capsys, "eval", "-g", str(g), "-i", str(inst), "--method", method)
        assert code == 0
        assert report["payload"]["value"] == "3/2"


def test_eval_brute_deeper_than_recursion_limit(files, tmp_path, capsys):
    # a loose path with 600 edges: a plan 1200 deep; its 600 even-sum
    # constraints are independent over Z2, so Z = 2^(1201 - 600)
    loose = tuple((2 * i, 2 * i + 1, 2 * i + 2) for i in range(600))
    inst = tmp_path / "long.hg"
    inst.write_text(dump_hypergraph(Hypergraph(1201, loose)))
    code, report, _ = run_cli(
        capsys, "eval", "-g", files["parity"], "-i", str(inst), "--method", "brute"
    )
    assert code == 0
    assert report["payload"]["value"] == str(2**601)


def test_eval_hard_auto_uses_brute(files, capsys):
    code, report, _ = run_cli(
        capsys, "eval", "-g", files["notallzero"], "-i", files["edge3"]
    )
    assert code == 0
    assert report["payload"]["method"] == "brute"
    assert report["payload"]["value"] == "7"
    assert report["payload"]["tractable"] is False


def test_eval_structured_on_hard_is_input_error(files, capsys):
    code, report, _ = run_cli(
        capsys,
        "eval",
        "-g",
        files["notallzero"],
        "-i",
        files["edge3"],
        "--method",
        "structured",
    )
    assert code == 1
    assert report["status"] == "error"


# every vertex of the complete 3-uniform hypergraph on 9 vertices stays live
# to the last depth: 1 + 2 + ... + 2^9 = 1023 states at q = 2
WIDE = Hypergraph(9, tuple(combinations(range(9), 3)))


def test_eval_cap_exceeded(files, capsys, tmp_path):
    big = tmp_path / "big.hg"
    big.write_text(dump_hypergraph(WIDE))
    code, report, _ = run_cli(
        capsys,
        "eval",
        "-g",
        files["parity"],
        "-i",
        str(big),
        "--method",
        "brute",
        "--brute-cap",
        "1000",
    )
    assert code == 1
    assert report["payload"]["message"].endswith("1023 or more states exceed the configured cap 1000")


@pytest.mark.parametrize("value", ["-1", "0", "abc"], ids=lambda value: f"flag-{value}")
def test_eval_brute_cap_values(files, capsys, value):
    for method in ("brute", "auto"):  # parity is tractable: auto never runs brute force
        argv = ["eval", "-g", files["parity"], "-i", files["edge3"], "--method", method]
        argv += ["--brute-cap", value]
        code, report, _ = run_cli(capsys, *argv)
        if value == "0" and method == "auto":
            assert code == 0 and report["payload"]["value"] == "4"
            continue
        assert code == 1 and report["status"] == "error"
        message = report["payload"]["message"]
        if value == "0":  # 0 refuses every brute-force evaluation
            assert "1 or more states exceed the configured cap 0" in message
        else:
            assert value in message and "exceed" not in message


def test_gadget_commands(files, capsys):
    code, report, _ = run_cli(capsys, "gadget", "pad", "-i", files["tri"], "-r", "3")
    assert code == 0
    inst = report["payload"]["instance"]
    assert inst["n"] == 6 and len(inst["edges"]) == 3

    code, report, _ = run_cli(capsys, "gadget", "stretch", "-i", files["tri"])
    assert code == 0 and len(report["payload"]["instance"]["edges"]) == 6

    code, report, _ = run_cli(capsys, "gadget", "tilde", "-g", files["parity"], "-k", "3")
    assert code == 0
    assert report["payload"]["matrix"] == [["2", "0"], ["0", "2"]]

    code, report, _ = run_cli(capsys, "gadget", "power", "-i", files["edge3"], "-j", "2")
    assert code == 0 and report["payload"]["instance"]["n"] == 9

    code, report, _ = run_cli(capsys, "gadget", "separate", "-i", files["edge3"], "-p", "2")
    assert code == 0 and report["payload"]["instance"]["n"] == 18

    code, report, _ = run_cli(capsys, "gadget", "eq-elim", "-i", files["eq"], "-p", "1")
    assert code == 0
    assert len(report["payload"]["instance"]["edges"]) == 3


def test_gadget_type_mismatch(files, capsys):
    code, report, _ = run_cli(capsys, "gadget", "eq-elim", "-i", files["edge3"], "-p", "1")
    assert code == 1 and report["status"] == "error"


def test_selftest(capsys):
    code, report, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert report["payload"]["checks"] >= 10


def test_missing_file_is_input_error(capsys):
    code, report, _ = run_cli(capsys, "classify", "-g", "/nonexistent/x.sf")
    assert code == 1 and report["status"] == "error"


def test_bad_flag_is_input_error(capsys):
    code, report, _ = run_cli(capsys, "eval", "--nope")
    assert code == 1 and report["status"] == "error"


def test_malformed_table_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.sf"
    bad.write_text("symfunc v1\nq 2\nr 3\n0 0 9 = 1\n")
    code, report, _ = run_cli(capsys, "classify", "-g", str(bad))
    assert code == 1
    assert "line 4" in report["payload"]["message"]


def test_report_determinism(files, capsys):
    def snapshot():
        code, report, _ = run_cli(capsys, "classify", "-g", files["parity"])
        assert code == 0
        report.pop("timing_ms")
        return json.dumps(report, sort_keys=False)

    assert snapshot() == snapshot()


def test_console_script_entry_point(files):
    # the child imports the package under test, wherever pytest found it
    src = str(Path(hyperhom.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hyperhom.cli", "classify", "-g", files["parity"]],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["status"] == "tractable"


def test_parser_reuse_matches_fresh_interpreters(files, capsys):
    # one process runs every command in turn, usage errors included; each
    # report must equal the one a fresh interpreter prints for the command
    sequence = [
        ["eval", "-g", files["parity"], "--method", "nope"],
        ["classify", "-g", files["parity"]],
        ["gadget", "pad", "-i", files["tri"]],
        *(
            ["eval", "-g", files["geometric"], "-i", files["edge3"], "--method", method]
            for method in ("auto", "structured", "dp-lambda", "brute")
        ),
        ["classify", "-g", files["notallzero"], "-i", files["edge3"]],
        ["gadget", "tilde", "-g", files["geometric"], "-k", "2"],
        ["gadget", "pad", "-i", files["tri"], "-r", "4"],
        ["selftest"],
    ]
    src = str(Path(hyperhom.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for argv in sequence:
        code = main(list(argv))
        out, _ = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "hyperhom.cli", *argv], capture_output=True, text=True, env=env
        )
        assert code == fresh.returncode, argv
        mine, theirs = json.loads(out), json.loads(fresh.stdout)
        mine.pop("timing_ms"), theirs.pop("timing_ms")
        assert json.dumps(mine) == json.dumps(theirs), argv


def _golden_commands(files, tmp_path):
    big = tmp_path / "big.hg"
    big.write_text(dump_hypergraph(WIDE))
    return {
        "selftest": ["selftest"],
        **{
            f"classify-{name}": ["classify", "-g", files[name]]
            for name in ("parity", "geometric", "notallzero", "fano", "mismatch")
        },
        **{
            f"eval-{method}": ["eval", "-g", files["geometric"], "-i", files["edge3"], "--method", method]
            for method in ("auto", "structured", "dp-lambda", "brute")
        },
        "gadget-pad": ["gadget", "pad", "-i", files["tri"], "-r", "3"],
        "gadget-stretch": ["gadget", "stretch", "-i", files["tri"]],
        "gadget-tilde": ["gadget", "tilde", "-g", files["geometric"], "-k", "2"],
        "gadget-power": ["gadget", "power", "-i", files["edge3"], "-j", "2"],
        "gadget-separate": ["gadget", "separate", "-i", files["edge3"], "-p", "2"],
        "gadget-eq-elim": ["gadget", "eq-elim", "-i", files["eq"], "-p", "1"],
        "missing-file": ["classify", "-g", "/nonexistent/x.sf"],
        "bad-flag": ["eval", "--nope"],
        "cap-exceeded": ["eval", "-g", files["parity"], "-i", str(big), "--method", "brute", "--brute-cap", "1000"],
    }


# sha256 of each command's stdout + NUL + stderr, with the tmp directory and
# timing_ms normalized: the default output is byte-stable, so a new digest is
# a change of the output format
_GOLDEN = {
    "selftest": "d59076d021da314e3ba3d8630e235403602e5d2de8b8c4dd90deac83b88296de",
    "classify-parity": "efa8fd715259ce912218226fbc76d5ca3d87c8c12c35cc89be6afce869371d55",
    "classify-geometric": "4635fd65120cdc281e2e2cb84ebd84f953aef09ab2a2d9f30b0d1f5fa66957d1",
    "classify-notallzero": "f50a199bfcfabe4f033ce218466675690c6a265b8c30a4e6e8f824a2dd92f8ad",
    "classify-fano": "6d6331fbdde6629d63922282ee6ac996a74d1c1f35aa13db81356d52c26478ef",
    "classify-mismatch": "f7b944a7bb100ed8e4aa9b2db94fd8c0cb0cc87529ee83279c18c4fde5831029",
    "eval-auto": "8fbe34ae52453ff9b9ffda65169caafe43b15d32f994fc825dc409528182ea80",
    "eval-structured": "71ffddecffcedf48d75099bd514ae8afb431dafe7e7c163980262af05c45a2ab",
    "eval-dp-lambda": "80996df782576cec06d7c78738b00132ad78a96a8db51a3cacf2a10343b2e5a0",
    "eval-brute": "12348236f565ee84a802482ccba6e9467fb3a09b644dad47ffba5363323fbba9",
    "gadget-pad": "05468f2573ea3e01e9f3f70e591606875945fa0b39e925fef06d34481a599b47",
    "gadget-stretch": "4da175d8976a0f4ab12658fd86ea371c2164c520d7243ea45836586bc7cee29c",
    "gadget-tilde": "7dbf15940a5762f1788b32ad40f13bd74721dc4f3abdd35efece0601edb793a2",
    "gadget-power": "27810c88a48402e7fbff76a821b775d30daa31e723c22a1d1d613caafce1f595",
    "gadget-separate": "44e06b07b10643c1a683dc8b88193fe04c59fe06edf4f6ca18eb1471528cc903",
    "gadget-eq-elim": "b693a87fd9af8b7d02a1aef30869d8fbf82ab70e805cfa2941881ae76d91f1d2",
    "missing-file": "5b50a857dc41beadb3fe473381606e2f234775e3f7a32c8d02e03ce2057c9a82",
    "bad-flag": "fc7ab1f52cd6bd5a2d4ff3b4c86b3013a1fba1ee655f78348837d6d9fcc2b91f",
    "cap-exceeded": "4ad4165dbfb5aea1df811de897a889a65853ef39645d4bfc8aa9913996b44f2b",
}


def test_cli_output_golden(files, tmp_path, capsys):
    digests = {}
    for name, argv in _golden_commands(files, tmp_path).items():
        main(argv)
        out, err = capsys.readouterr()
        text = re.sub(r'"timing_ms": \d+', '"timing_ms": 0', out + "\0" + err)
        digests[name] = hashlib.sha256(text.replace(str(tmp_path), "<tmp>").encode()).hexdigest()
    assert digests == _GOLDEN
