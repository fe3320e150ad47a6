"""Span tracing around hyperhom's public functions, from outside the package.

`Tracer.install` replaces each listed function by a timing wrapper in every
loaded `hyperhom` module that binds it (the defining module and every module
that imported it by name), so calls between modules are seen too. Spans are
kept in memory as [name, start, end, parent, command] and aggregated into the
per-layer metrics of `LAYER_METRICS` when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# Per-layer metrics: (name, unit, end-to-end metric and workload it should
# move, workload on which it should read "no change"). `.s` is inclusive
# time, `.self_s` inclusive time minus child spans, `.calls` a call count and
# `.cells` the summed rows x cols of the systems passed in; all are averaged
# per command of the run, with times scaled like all others (clock.py).
_CLS = "table_keys_per_s on classify_tractable and classify_hard"
_CLS_T = "table_keys_per_s on classify_tractable; on classify_hard only early stages and replay"
_EVAL = "scopes_per_s and peak_rss_mb on eval_large"
_XCHK = "cmd_per_s and cmd_s.p90 on eval_crosscheck"
LAYER_METRICS = (
    ("cli.main.self_s", "s", "cmd_s.p50 on eval_crosscheck; eval_large through huge-value output",
     "classify_tractable"),
    ("model.load_symfunc.s", "s", "cmd_s.p50 on eval_crosscheck and classify_hard (large tables)",
     "eval_large"),
    ("model.load_instance.s", "s", "cmd_s.p50 on eval_large (10k-line files) and eval_crosscheck",
     "classify_tractable"),
    ("model.marginalize.s", "s", _CLS, "eval_large"),
    ("model.marginalize.calls", "count", _CLS, "eval_large"),
    ("model.prune_domain.self_s", "s", _CLS, "eval_large"),
    ("model.domain_components.self_s", "s", _CLS, "eval_large"),
    ("model.instance_components.s", "s", "scopes_per_s on eval_large shape (c)",
     "classify_tractable"),
    ("dichotomy.classify.self_s", "s", _CLS_T, "eval_large"),
    ("dichotomy.sim_classes.self_s", "s", _CLS_T, "eval_large"),
    ("dichotomy.check_product_structure.s", "s", _CLS_T, "eval_large"),
    ("dichotomy.verify_factoring_identity.s", "s", _CLS_T, "eval_large"),
    ("dichotomy.latin_check.s", "s", _CLS_T, "eval_large"),
    ("dichotomy.reconstruct_group.self_s", "s", _CLS_T, "eval_large"),
    ("dichotomy.equation_check.s", "s", _CLS_T, "eval_large"),
    ("dichotomy.replay_witness.self_s", "s", "cmd_s.p50 on classify_hard", "classify_tractable"),
    ("abelian.decompose.s", "s", "table_keys_per_s on classify_tractable", "eval_crosscheck"),
    ("abelian.count_homs.self_s", "s", _EVAL, "classify_tractable"),
    ("abelian.count_homs.calls", "count", _EVAL, "classify_tractable"),
    ("abelian.occurrence_matrix.s", "s", _EVAL, "classify_tractable"),
    ("abelian.occurrence_matrix.calls", "count", _EVAL, "classify_tractable"),
    ("abelian.count_solutions_mod.self_s", "s", _EVAL, "classify_tractable"),
    ("abelian.count_solutions_mod.calls", "count", _EVAL, "classify_tractable"),
    ("abelian.count_solutions_mod.cells", "count", _EVAL, "classify_tractable"),
    ("exactcore.snf.s", "s", "scopes_per_s on eval_large shape (c); cmd_s.p90 on eval_crosscheck",
     "classify_tractable"),
    ("exactcore.snf.calls", "count", "scopes_per_s on eval_large shape (c)", "classify_tractable"),
    ("evaluator.eval_tractable.self_s", "s", "scopes_per_s on eval_large", "classify_tractable"),
    ("evaluator.lambda_factor_direct.s", "s", "scopes_per_s on eval_large", "classify_tractable"),
    ("evaluator.lambda_monomial_dp.self_s", "s", _XCHK, "eval_large"),
    ("evaluator.monomial_value.s", "s", _XCHK, "eval_large"),
    ("evaluator.monomial_value.calls", "count", _XCHK, "eval_large"),
    ("evaluator.eval_bruteforce.s", "s", _XCHK, "eval_large"),
    ("evaluator.eval_bruteforce.calls", "count", _XCHK, "eval_large"),
)
# Every function a metric names is wrapped, plus evaluate, so that evaluation
# spans have the dispatch as parent rather than cli.main. gadgets is imported
# by the CLI but no command calls it.
WRAPPED = tuple(
    dict.fromkeys([name.rpartition(".")[0] for name, _, _, _ in LAYER_METRICS] + ["evaluator.evaluate"])
)


class Tracer:
    """Collects spans from wrapped hyperhom functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.cells: dict[str, int] = {}
        self.command = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count_cells = name == "abelian.count_solutions_mod"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_cells:
                m = args[0] if args else kwargs["m"]
                self.cells[name] = self.cells.get(name, 0) + m.rows * m.cols
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.command])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()

        return traced

    def install(self) -> None:
        """Wrap every listed function in every loaded hyperhom namespace."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sys.modules.items() if key == "hyperhom" or key.startswith("hyperhom.")]
        for name in WRAPPED:
            home, _, fname = name.partition(".")
            original = getattr(sys.modules[f"hyperhom.{home}"], fname)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def totals(self, factor: float = 1.0) -> dict[str, dict[str, float]]:
        """Per function: inclusive seconds, self seconds and call count.

        Durations are multiplied by `factor` (see clock.py). A span nested
        inside a span of the same function adds to the call count and self
        time but not again to the inclusive time.
        """
        duration = [(end - start) * factor for _, start, end, _, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                child_time[span[3]] += duration[i]
        out: dict[str, dict[str, float]] = {}
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            row = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            row["calls"] += 1
            row["self_s"] += duration[i] - child_time[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                row["s"] += duration[i]
        for name, cells in self.cells.items():
            out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})["cells"] = cells
        return out

    def layer_metrics(self, commands: int, factor: float = 1.0) -> dict[str, dict[str, float | str]]:
        """Every LAYER_METRICS entry, averaged per command (0 when not reached)."""
        totals = self.totals(factor)
        metrics = {}
        for name, unit, _, _ in LAYER_METRICS:
            func, _, stat = name.rpartition(".")
            value = totals.get(func, {}).get(stat, 0)
            metrics[name] = {"value": value / commands, "unit": unit}
        return metrics

    def write(self, path: str) -> None:
        """Write the spans as JSON: one [name, start, end, parent, command] row each."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "command"], "spans": self.spans}, handle)
