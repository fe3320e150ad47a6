"""Tests of the benchmark itself: seeded inputs, tracing transparency, shapes.

Run from the repository root with `python3 -m pytest perfbench -q` (about two
minutes: every workload's commands run once untraced and once traced).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import clock  # noqa: E402
import hyperhom.cli  # noqa: E402,F401
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ALL = [*workloads.WORKLOADS, *workloads.EXTRA_WORKLOADS]


def _files(path) -> dict[str, bytes]:
    return {name: (path / name).read_bytes() for name in sorted(os.listdir(path))}


@pytest.mark.parametrize("name", ALL)
def test_same_seed_gives_identical_files(name, tmp_path):
    first = workloads.build(name, 7, str(tmp_path / "a"))
    second = workloads.build(name, 7, str(tmp_path / "b"))
    workloads.build(name, 8, str(tmp_path / "c"))
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert [c.label for c in first] == [c.label for c in second]
    assert [[os.path.basename(a) for a in c.argv] for c in first] == [
        [os.path.basename(a) for a in c.argv] for c in second
    ]


def _without_timing(stdout: str) -> dict:
    report = json.loads(stdout)
    del report["timing_ms"]
    return report


@pytest.mark.parametrize("name", ALL)
def test_traced_and_untraced_outputs_match(name, tmp_path):
    cmds = workloads.build(name, workloads.DEFAULT_SEED, str(tmp_path))
    cli = sys.modules["hyperhom.cli"]
    original = cli.main
    plain = [run.run_command(c.argv) for c in cmds]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main is not original
        traced = [run.run_command(c.argv) for c in cmds]
    finally:
        tracer.uninstall()
    assert cli.main is original
    assert len(tracer.spans) > len(cmds)
    for cmd, (code_a, _, out_a), (code_b, _, out_b) in zip(cmds, plain, traced):
        assert code_a == code_b, cmd.label
        assert _without_timing(out_a) == _without_timing(out_b), cmd.label


def test_acceptance6_failure_is_reported_by_message(tmp_path):
    (cmd,) = workloads.build("eval_acceptance6", workloads.DEFAULT_SEED, str(tmp_path))
    code, _, stdout = run.run_command(cmd.argv)
    assert code == 1
    assert "integer string conversion" in run.judge(cmd, code, stdout)


def test_eval_large_shapes_and_routes(tmp_path):
    from hyperhom.abelian import _SNF_CELL_LIMIT
    from hyperhom.dichotomy import classify
    from hyperhom.model import instance_components, load_instance, load_symfunc

    cmds = {c.label: c for c in workloads.build("eval_large", 3, str(tmp_path))}
    with open(cmds["b"].argv[2], encoding="utf-8") as fh:
        cls = classify(load_symfunc(fh.read()))
    assert cls.tractable
    # one component per group; past the SNF limit Z2 takes the GF(2) bitset
    # route, Z4 and Z3 the prime-power elimination (2^2 and 3^1)
    assert sorted(c.group.decomposition.factors for c in cls.components) == [(2,), (3,), (4,)]
    assert all(c.factor.s == 1 and c.factor.constant == 1 for c in cls.components)

    def pieces(label):
        with open(cmds[label].argv[4], encoding="utf-8") as fh:
            split = instance_components(load_instance(fh.read()))
        assert split.isolated == 0
        return [(sub.n, len(sub.scopes)) for sub, _ in split.pieces]

    shape_b = pieces("b")
    assert shape_b == [(400, 3000)]
    assert all(n * m > _SNF_CELL_LIMIT for n, m in shape_b)
    shape_c = pieces("c")
    assert shape_c == [(50, 300)] * 20
    assert all(n * m <= _SNF_CELL_LIMIT for n, m in shape_c)


def test_eval_crosscheck_shapes(tmp_path):
    from hyperhom.model import CspInstance, Hypergraph, load_instance, load_symfunc

    cmds = workloads.build("eval_crosscheck", 5, str(tmp_path))
    queries = {}
    for cmd in cmds:
        queries.setdefault((cmd.argv[2], cmd.argv[4]), []).append(cmd.argv[6])
    small = {k: v for k, v in queries.items() if not os.path.basename(k[0]).startswith("dp")}
    dps = {k: v for k, v in queries.items() if os.path.basename(k[0]).startswith("dp")}
    assert len(small) == workloads.SMALL_QUERIES and len(dps) == len(workloads.DP_GROUPS)
    kinds, qs, rs = set(), set(), set()
    repeated_vars = False
    for (g_path, inst_path), methods in small.items():
        with open(g_path, encoding="utf-8") as fh:
            g = load_symfunc(fh.read())
        with open(inst_path, encoding="utf-8") as fh:
            inst = load_instance(fh.read())
        qs.add(g.q)
        rs.add(g.r)
        kinds.add(type(inst))
        assert methods in (["auto", "dp-lambda", "brute"], ["auto", "brute"])
        assert g.q**inst.n <= workloads.BRUTE_STATES < g.q ** (inst.n + 1) or inst.n == g.r
        if isinstance(inst, CspInstance):
            repeated_vars |= any(len(set(s)) < len(s) for s in inst.scopes)
    assert qs == {2, 3, 4, 5} and rs == {3, 4}
    assert kinds == {Hypergraph, CspInstance} and repeated_vars
    for (g_path, inst_path), methods in dps.items():
        with open(inst_path, encoding="utf-8") as fh:
            inst = load_instance(fh.read())
        assert methods == ["auto", "dp-lambda"]
        assert (inst.n, len(inst.scopes)) == (100, 200)


def test_classify_workload_shapes(tmp_path):
    from hyperhom.model import load_symfunc

    def sizes(name):
        out = []
        for cmd in workloads.build(name, 2, str(tmp_path / name)):
            with open(cmd.argv[2], encoding="utf-8") as fh:
                g = load_symfunc(fh.read())
            out.append((cmd.label, g.q, g.r))
        return out

    assert sizes("classify_tractable") == [
        ("Z2^6", 64, 3), ("Z8^2", 64, 3), ("Z2^5-r4", 32, 4), ("Z4xZ8-r4", 32, 4),
        ("Z8^2-s2-q128", 128, 3), ("multi", 48, 3),
    ]
    assert sizes("classify_hard") == [
        ("random-q30-r4", 30, 4), ("random-q60-r3", 60, 3), ("bumped-Z8^2", 64, 3),
        ("dropped-Z8^2", 64, 3), ("added-Z4xZ8-s2", 64, 3), ("steiner_fano", 7, 3),
    ]


@pytest.mark.parametrize(
    "factors, expect",
    [((2,) * 6, (2,) * 6), ((8, 8), (8, 8)), ((4, 8), (4, 8)), ((8, 4), (4, 8)),
     ((2, 3), (6,)), ((2, 2, 2), (2, 2, 2)), ((4, 2, 3), (2, 12)), ((5,), (5,)), ((), ())],
)
def test_invariant_factors(factors, expect):
    assert workloads.invariant_factors(factors) == expect


def test_tracer_totals_self_and_nesting():
    tracer = tracing.Tracer()
    tracer.spans[:] = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["model.marginalize", 1.0, 4.0, 0, 0],
        ["model.prune_domain", 5.0, 9.0, 0, 0],
        ["model.marginalize", 6.0, 8.0, 2, 0],
        ["model.marginalize", 6.5, 7.0, 3, 0],  # nested in itself: not counted twice
    ]
    totals = tracer.totals()
    assert totals["cli.main"] == {"s": 10.0, "self_s": 3.0, "calls": 1}
    assert totals["model.prune_domain"] == {"s": 4.0, "self_s": 2.0, "calls": 1}
    assert totals["model.marginalize"] == {"s": 5.0, "self_s": 5.0, "calls": 3}
    assert tracer.totals(factor=2.0)["cli.main"] == {"s": 20.0, "self_s": 6.0, "calls": 1}
    metrics = tracer.layer_metrics(commands=2)
    assert metrics["model.marginalize.calls"] == {"value": 1.5, "unit": "count"}
    assert metrics["exactcore.snf.s"] == {"value": 0.0, "unit": "s"}


def test_clock_samples_about_every_interval(monkeypatch):
    now = [100.0]
    monkeypatch.setattr(clock, "perf_counter", lambda: now[0])
    monkeypatch.setattr(clock, "reference_work", lambda: 0)
    timer = clock.Clock()
    timer.sample_if_due()
    assert len(timer.times) == 1
    now[0] += clock.REF_EVERY_S / 2
    timer.sample_if_due()
    assert len(timer.times) == 1
    now[0] += 2 * clock.REF_EVERY_S
    timer.sample_if_due()
    assert len(timer.times) == 3
    now[0] += 100 * clock.REF_EVERY_S
    timer.sample_if_due()
    assert len(timer.times) == 3 + clock.MAX_CATCH_UP
    timer.times[:] = [0.02, 0.09, 0.05]
    assert timer.factor() == clock.REF_NOMINAL_S / 0.05


def test_benchmark_json_matches_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {w["name"]: w["why"] for w in bench["workloads"]} == workloads.WORKLOADS
    assert [m["name"] for m in bench["end_to_end"]] == list(run.RESULT_METRICS)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, unit) for name, unit, _, _ in tracing.LAYER_METRICS
    ]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval_crosscheck", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
