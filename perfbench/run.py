"""Seeded command-level benchmark of the hyperhom CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--out FILE]

A single workload runs in this process as a closed loop with one client and
one thread: it calls `hyperhom.cli.main(argv)` in-process, one command after
another, on input files generated from the seed, and captures each JSON
report. The timed unit is one whole command (argument parsing, file parsing,
compute and JSON output); each report is checked against a library reference
outside the timed region. Commands run in whole cycles over the workload, in
a seeded order: one cycle, then more while the next one is expected to end
within --seconds of the start. Times are wall seconds scaled to a nominal
machine speed by a reference computation timed during the run (clock.py),
which cancels part of a shared machine's drift. The last stdout line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics of
tracing.LAYER_METRICS with --trace 1.

`--workload all` runs every workload, listed or extra, untraced and traced in
child processes, prints each metric with its unit and sample count, the check
results and failure messages, and the tracing overhead, and can write the
whole record to a JSON file.

The package is imported from `src/` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import clock  # noqa: E402  (sibling modules of this script)
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 3
# End-to-end metrics printed in the final line with --trace 0: the ones every
# listed workload has, and none of which is 0.
RESULT_METRICS = ("cmd_s.p50", "cmd_per_s", "setup_s", "peak_rss_mb")
P90_MIN_SAMPLES = 100


def _fresh_import() -> None:
    """Import hyperhom from src/ anew, dropping any previous import."""
    for key in [k for k in sys.modules if k == "hyperhom" or k.startswith("hyperhom.")]:
        del sys.modules[key]
    importlib.import_module("hyperhom.cli")


def setup(name: str, seed: int, workdir: str, timer: clock.Clock) -> tuple[list, list[float]]:
    """Import the package and write the inputs SETUP_REPS times; keep the last.

    Returns the commands and each set-up's wall seconds.
    """
    times = []
    for _ in range(SETUP_REPS):
        timer.sample()
        started = perf_counter()
        _fresh_import()
        cmds = workloads.build(name, seed, workdir)
        times.append(perf_counter() - started)
    return cmds, times


def run_command(argv: list[str]) -> tuple[int, float, str]:
    """One in-process CLI call: exit code, wall seconds, captured stdout."""
    main = sys.modules["hyperhom.cli"].main
    out, err = io.StringIO(), io.StringIO()
    started = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, perf_counter() - started, out.getvalue()


def judge(cmd: workloads.Command, code: int, stdout: str) -> str | None:
    """Failure message for one command's outcome, or None when it passed."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return f"exit {code}; stdout is not one JSON report"
    if code != 0:
        return f"exit {code}: {report.get('payload', {}).get('message')}"
    try:
        return cmd.check(report, cmd.ref)
    except (KeyError, TypeError, ValueError) as exc:
        return f"report lacks an expected field: {exc!r}"


def measure(cmds, seed: int, seconds: float, timer: clock.Clock, tracer: tracing.Tracer | None = None):
    """Closed loop over whole seeded cycles: one, then more while the next is
    expected to end within `seconds` of the start.

    Returns (command index, wall seconds, failure message or None) for every
    command run.
    """
    rng = random.Random(seed)
    runs: list[tuple[int, float, str | None]] = []
    started = perf_counter()
    while True:
        cycle_start = perf_counter()
        order = list(range(len(cmds)))
        rng.shuffle(order)
        for i in order:
            timer.sample_if_due()
            if tracer is not None:
                tracer.command = len(runs)
            code, dt, stdout = run_command(cmds[i].argv)
            runs.append((i, dt, judge(cmds[i], code, stdout)))
        now = perf_counter()
        if now - started + (now - cycle_start) > seconds:
            timer.sample_if_due()
            return runs


def end_to_end(name: str, cmds, samples, setup_times: list[float], factor: float) -> dict:
    """Every end-to-end metric this workload has: value, unit, sample count.

    Wall times are multiplied by `factor` into nominal seconds (clock.py);
    the rates count passed commands, or their scopes or table keys, per
    nominal second spent in commands.
    """
    durations = [dt * factor for _, dt, _ in samples]
    busy = sum(durations)
    passed = [cmds[i] for i, _, failure in samples if failure is None]
    n = len(samples)

    def metric(value, unit, count):
        return {"value": value, "unit": unit, "samples": count}

    out = {
        "cmd_s.p50": metric(statistics.median(durations), "s", n),
        "cmd_per_s": metric(len(passed) / busy, "1/s", n),
        "setup_s": metric(statistics.median(setup_times) * factor, "s", len(setup_times)),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "error_rate": metric((n - len(passed)) / n, "ratio", n),
    }
    if n >= P90_MIN_SAMPLES:
        out["cmd_s.p90"] = metric(statistics.quantiles(durations, n=10)[-1], "s", n)
    if name.startswith("eval_"):
        out["scopes_per_s"] = metric(sum(c.scopes for c in passed) / busy, "1/s", n)
    else:
        out["table_keys_per_s"] = metric(sum(c.keys for c in passed) / busy, "1/s", n)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = os.path.join(OUT, f"{name}-{seed}-{os.getpid()}")
    timer = clock.Clock()
    try:
        cmds, setup_times = setup(name, seed, workdir, timer)
        if not sys.modules["hyperhom"].__file__.startswith(SRC + os.sep):
            raise RuntimeError(f"hyperhom imported from outside {SRC}")
        workloads.prepare(cmds)
        tracer = tracing.Tracer() if trace else None
        if tracer is not None:
            tracer.install()
        try:
            samples = measure(cmds, seed, seconds, timer, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = Counter(f"{cmds[i].label}: {failure}" for i, _, failure in samples if failure)
    factor = timer.factor()
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "commands_per_cycle": len(cmds),
        "cycles": len(samples) // len(cmds),
        "attempted": len(samples),
        "failed": sum(failures.values()),
        "failures": dict(failures),
        "speed_factor": factor,
        "reference_runs": len(timer.times),
        "end_to_end": end_to_end(name, cmds, samples, setup_times, factor),
    }
    if tracer is not None:
        report["per_layer"] = tracer.layer_metrics(len(samples), factor)
        report["functions_per_command"] = {
            func: {k: v / len(samples) for k, v in row.items()}
            for func, row in sorted(tracer.totals(factor).items())
        }
        path = os.path.join(OUT, f"trace-{name}-{seed}.json")
        tracer.write(path)
        report["trace_file"] = os.path.relpath(path, ROOT)
    return report


def _print_report(report: dict) -> None:
    print(
        f"workload {report['workload']} seed {report['seed']} trace {report['trace']}: "
        f"{report['attempted']} commands in {report['cycles']} cycle(s) of {report['commands_per_cycle']}, "
        f"speed factor {report['speed_factor']:.4f} from {report['reference_runs']} reference runs"
    )
    for key, m in report["end_to_end"].items():
        print(f"  {key:<18} {m['value']:>14.6g} {m['unit']:<6} ({m['samples']} samples)")
    print(f"  checks: {report['attempted'] - report['failed']} passed, {report['failed']} failed")
    for message, count in report["failures"].items():
        print(f"  failure x{count}: {message}")
    for key, m in report.get("per_layer", {}).items():
        print(f"  {key:<40} {m['value']:>14.6g} {m['unit']} per command")


def _result_line(report: dict) -> dict:
    if report["trace"]:
        metrics = report["per_layer"]
    else:
        metrics = {k: {"value": report["end_to_end"][k]["value"], "unit": report["end_to_end"][k]["unit"]}
                   for k in RESULT_METRICS}
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def _child(name: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    for line in proc.stdout.splitlines():
        if line.startswith("report: "):
            return json.loads(line[len("report: "):])
    raise RuntimeError(f"{name} trace={trace} printed no report")


def _share(report: dict, part: str, whole: str) -> float | None:
    rows = report.get("functions_per_command", {})
    if part in rows and rows.get(whole, {}).get("s"):
        return rows[part]["s"] / rows[whole]["s"]
    return None


def run_all(seed: int, seconds: float, out: str | None) -> dict:
    record = {
        "seed": seed,
        "seconds": seconds,
        "machine": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
        },
        "workloads": {},
        "layer_map": [
            {"metric": name, "unit": unit, "should_move": moves, "no_change_on": still}
            for name, unit, moves, still in tracing.LAYER_METRICS
        ],
    }
    for name, why in {**workloads.WORKLOADS, **workloads.EXTRA_WORKLOADS}.items():
        plain = _child(name, seed, seconds, 0)
        traced = _child(name, seed, seconds, 1)
        _print_report(plain)
        _print_report(traced)
        overhead = {}
        for key in ("cmd_s.p50", "cmd_per_s"):
            base, traced_value = plain["end_to_end"][key]["value"], traced["end_to_end"][key]["value"]
            share = (traced_value - base) / base if base else None
            overhead[key] = {"untraced": base, "traced": traced_value, "difference": traced_value - base,
                             "share": share}
            print(f"  tracing overhead on {key}: {traced_value - base:+.6g} (share {share})")
        shares = {
            "occurrence_matrix_of_count_homs": _share(
                traced, "abelian.occurrence_matrix", "abelian.count_homs"
            ),
            "marginalize_of_classify": _share(traced, "model.marginalize", "dichotomy.classify"),
        }
        print(f"  inclusive-time shares: {shares}")
        record["workloads"][name] = {
            "why": why,
            "listed": name in workloads.WORKLOADS,
            "untraced": plain,
            "traced": traced,
            "tracing_overhead": overhead,
            "shares": shares,
        }
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
    reports = [w["untraced"] for w in record["workloads"].values()]
    return {
        "correct": all(r["failed"] == 0 for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {
            f"{r['workload']}/{k}": {"value": r["end_to_end"][k]["value"], "unit": r["end_to_end"][k]["unit"]}
            for r in reports
            for k in RESULT_METRICS
        },
    }


def main(argv: list[str] | None = None) -> int:
    names = [*workloads.WORKLOADS, *workloads.EXTRA_WORKLOADS, "all"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write the full record here")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hyperhom", "__init__.py")):
        print(f"error: no hyperhom package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.out)
    else:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        _print_report(report)
        print("report: " + json.dumps(report))
        result = _result_line(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
