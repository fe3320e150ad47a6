"""Command-line behavior: reports, exit codes, determinism."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import hyperhom
from hyperhom import fixtures as fx
from hyperhom.cli import main
from hyperhom.evaluator import MAX_ISOLATED_BITS
from hyperhom.gadgets import (
    MAX_GADGET_ENTRIES,
    component_separator,
    equality_eliminator,
    pad_to_arity,
    relation_to_symfunc,
    tilde_f,
    vertex_power,
)
from hyperhom.model import CspInstance, Hypergraph, SymFunc, dump_csp, dump_hypergraph, dump_symfunc


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


def test_eval_methods(files, tmp_path, capsys):
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

    four = tmp_path / "four.hg"
    four.write_text(dump_hypergraph(Hypergraph(4, ((0, 1, 2, 3),))))
    for method in ("auto", "brute", "structured", "dp-lambda"):
        code, report, _ = run_cli(capsys, "eval", "-g", files["parity"], "-i", str(four), "--method", method)
        assert code == 1
        assert report["payload"]["message"] == "instance arity 4 != function arity 3"


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
    # under a q = 2 table they would multiply Z by 2^(10^20 - 3): each method
    # refuses before forming that power, here under a 1 GiB address-space cap
    # so that a regression fails fast instead of filling the memory
    resource = pytest.importorskip("resource")
    g.write_text("symfunc v1\nq 2\nr 3\n0 0 0 = 1\n0 1 1 = 1\n")
    src = str(Path(hyperhom.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def capped():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    for method in ("auto", "brute", "structured", "dp-lambda"):
        proc = subprocess.run(
            [sys.executable, "-m", "hyperhom.cli", "eval", "-g", str(g), "-i", str(inst), "--method", method],
            capture_output=True, text=True, env=env, preexec_fn=capped, timeout=60,
        )
        assert proc.returncode == 1, proc.stderr
        message = json.loads(proc.stdout)["payload"]["message"]
        k = 10**20 - 3
        assert message == f"{k} vertices in no scope would multiply Z by 2^{k}, past {MAX_ISOLATED_BITS} bits"


def test_gadgets_refuse_reports_past_the_entry_bound(tmp_path, capsys, monkeypatch):
    # tilde reports a q x q matrix and power a pendant list per vertex, so at
    # 10^20 each refuses (exit 1) at once, before it keeps anything per element
    # or vertex
    huge = 10**20
    g = tmp_path / "huge.sf"
    g.write_text(f"symfunc v1\nq {huge}\nr 3\n0 0 0 = 1\n")
    inst = tmp_path / "huge.hg"
    inst.write_text(f"hypergraph v1\nn {huge}\ne 0 1 2\n")
    cases = (
        (["tilde", "-g", str(g), "-k", "3"], f"a {huge}x{huge} table would pass {MAX_GADGET_ENTRIES} entries"),
        (["power", "-i", str(inst), "-j", "2"],
         f"pendant lists for {huge} vertices would pass {MAX_GADGET_ENTRIES} entries"),
    )
    for argv, message in cases:
        tracemalloc.start()
        started = time.perf_counter()
        try:
            code, report, _ = run_cli(capsys, "gadget", *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - started < 1
        assert peak < 10**7
        assert code == 1
        assert report["payload"]["message"] == message
    # the bound is on the entries: one past it is refused in the library too
    side = math.isqrt(MAX_GADGET_ENTRIES) + 1
    with pytest.raises(ValueError, match="entries"):
        tilde_f(SymFunc(side, 3, {(0, 0, 0): Fraction(1)}), 3)
    with pytest.raises(ValueError, match="entries"):
        vertex_power(Hypergraph(MAX_GADGET_ENTRIES + 1, ((0, 1, 2),)), 2)
    # so is a power whose pendant edges, (j - 1) * degree per vertex, pass it
    with pytest.raises(ValueError, match=f"{3 * 10**12} pendant edges"):
        vertex_power(Hypergraph(3, ((0, 1, 2),)), 10**12 + 1)
    # a power of 1 or an instance with no edge lists no pendants at any n
    assert vertex_power(Hypergraph(huge, ((0, 1, 2),)), 1).maps == {"pendants_per_vertex": []}
    assert vertex_power(Hypergraph(huge, ()), 2).maps == {"pendants_per_vertex": []}
    # pad lists M * (r - k) fresh vertices, separate p * M + 2np edges and
    # eq-elim E * p blocks: past the bound each refuses before it builds
    # any, here under a 1 GiB address-space cap so that a regression fails
    # fast instead of filling the memory
    resource = pytest.importorskip("resource")
    edge = tmp_path / "edge.hg"
    edge.write_text("hypergraph v1\nn 3\ne 0 1 2\n")
    csp = tmp_path / "eq.csp"
    csp.write_text("csp v1\nn 3\nc 0 1 2\neq 0 1\n")
    src = str(Path(hyperhom.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def capped():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    cases = (
        (["pad", "-i", str(edge), "-r", str(10**11)], f"{10**11 - 3} fresh vertices"),
        (["eq-elim", "-i", str(csp), "-p", str(10**11)], f"{10**11} blocks"),
        (["separate", "-i", str(edge), "-p", str(3 * 10**6)], f"{21 * 10**6} edges"),
        (["separate", "-i", str(edge), "-p", str(10**11)], f"{7 * 10**11} edges"),
    )
    for argv, listed in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "hyperhom.cli", "gadget", *argv],
            capture_output=True, text=True, env=env, preexec_fn=capped, timeout=60,
        )
        assert proc.returncode == 1, proc.stderr
        report = json.loads(proc.stdout)  # one JSON report, nothing after it
        assert report["payload"]["message"] == f"{listed} would pass {MAX_GADGET_ENTRIES} entries"
    # on both sides of the bound, in the library
    monkeypatch.setattr(hyperhom.gadgets, "MAX_GADGET_ENTRIES", 14)
    one = Hypergraph(3, ((0, 1, 2),))
    eq = CspInstance(3, ((0, 1, 2),), ((0, 1),))
    assert len(pad_to_arity(one, 3, 17).maps["fresh_per_edge"][0]) == 14
    assert len(component_separator(one, 2).instance.edges) == 14
    assert len(equality_eliminator(eq, 14).maps["blocks"]) == 14
    for build, listed in (
        (lambda: pad_to_arity(one, 3, 18), "15 fresh vertices"),
        (lambda: component_separator(one, 3), "21 edges"),
        (lambda: equality_eliminator(eq, 15), "15 blocks"),
    ):
        with pytest.raises(ValueError, match=f"^{listed} would pass 14 entries$"):
            build()


def test_classify_refuses_a_removed_list_past_the_entry_bound(tmp_path, capsys, monkeypatch):
    # the report lists every removed element, so at q = 10^20 with one key
    # classify refuses (exit 1) where it ran out of memory listing them
    huge = tmp_path / "huge.sf"
    huge.write_text(f"symfunc v1\nq {10**20}\nr 3\n0 0 0 = 1\n")
    started = time.perf_counter()
    code, report, _ = run_cli(capsys, "classify", "-g", str(huge))
    assert time.perf_counter() - started < 1
    assert code == 1
    assert report["payload"]["message"] == f"{10**20 - 1} removed elements would pass {MAX_GADGET_ENTRIES} entries"
    # on both sides of the bound: 10 removed elements are listed, 11 refused
    monkeypatch.setattr(hyperhom.gadgets, "MAX_GADGET_ENTRIES", 10)
    for q, want in ((11, 0), (12, 1)):
        g = tmp_path / f"q{q}.sf"
        g.write_text(f"symfunc v1\nq {q}\nr 3\n0 0 0 = 1\n")
        code, report, _ = run_cli(capsys, "classify", "-g", str(g))
        assert code == want
        if want:
            assert report["payload"]["message"] == "11 removed elements would pass 10 entries"
        else:
            assert report["status"] == "tractable"
            assert report["payload"]["removed"] == list(range(1, 11))


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


def test_gadget_commands(files, capsys, tmp_path):
    code, report, _ = run_cli(capsys, "gadget", "pad", "-i", files["tri"], "-r", "3")
    assert code == 0
    inst = report["payload"]["instance"]
    assert inst["n"] == 6 and len(inst["edges"]) == 3

    code, report, _ = run_cli(capsys, "gadget", "stretch", "-i", files["tri"])
    assert code == 0 and len(report["payload"]["instance"]["edges"]) == 6

    stretch_eq = tmp_path / "stretch-eq.csp"
    stretch_eq.write_text("csp v1\nn 3\nc 0 1\nc 1 2\neq 0 2\n")
    code, report, _ = run_cli(capsys, "gadget", "stretch", "-i", str(stretch_eq))
    assert code == 1
    assert report["payload"]["message"] == (
        "2-stretch drops equality constraints [(0, 2)]; eliminate them first"
    )

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


def test_unencodable_report_is_internal_error(capsys, monkeypatch):
    # the parser binds each handler once per process, so rebuild it around the
    # patched handler, and again afterwards for the tests that follow
    monkeypatch.setattr(hyperhom.cli, "_cmd_selftest", lambda args: ("ok", {"bad": object()}, "done"))
    hyperhom.cli._build_parser.cache_clear()
    try:
        code = main(["selftest"])
    finally:
        hyperhom.cli._build_parser.cache_clear()
    out, err = capsys.readouterr()
    report = json.loads(out)  # one JSON document, nothing after it
    assert code == 2 and report["status"] == "error"
    assert report["payload"]["message"].startswith("internal: TypeError(")
    assert err.startswith("internal error: TypeError(") and "Traceback" not in err


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
    # an empty table, and a valid table with a comment-only instance
    empty, good, comments = tmp_path / "empty.sf", tmp_path / "good.sf", tmp_path / "comments.hg"
    empty.write_text("")
    good.write_text("symfunc v1\nq 2\nr 3\n0 0 0 = 1\n")
    comments.write_text("# no header\n\n")
    code, report, _ = run_cli(capsys, "classify", "-g", str(empty))
    assert code == 1
    assert report["payload"]["message"] == "line 1: empty file, expected header 'symfunc v1'"
    code, report, _ = run_cli(capsys, "eval", "-g", str(good), "-i", str(comments))
    assert code == 1
    assert report["payload"]["message"] == "line 1: empty file"


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
