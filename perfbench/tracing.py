"""Spans around the calls into each ssfp layer, taken from outside the package.

A ``Tracer`` replaces a layer's public function by a timing wrapper in every
module namespace that holds it: ``ssfp.experiments`` binds ``solve_milp``,
``build_model`` and ``build_do`` by name, so patching only the defining
module would miss those calls.  Spans stay in memory until the run ends.
"""
from __future__ import annotations

import importlib
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

#: The solver's LP entry; when a later solver stops calling it, the LP
#: metrics turn unavailable instead of reading zero.
LP_ENTRY = ("ssfp.solver", "linprog")
HIGHS_ENTRY = ("scipy.optimize._linprog_highs", "_highs_wrapper")


def _solve_info(args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    return {"label": model.name, "nodes": result.node_count}


def _lp_info(args, kwargs, result):
    return {"nit": int(result.nit)}


def _evaluate_info(args, kwargs, result):
    objective = args[0] if args else kwargs["objective"]
    first_stage = args[2] if len(args) > 2 else kwargs["first_stage_solution"]
    return {"objective": objective, "first_stage": first_stage.pairs}


#: (group, module, function, info extractor).  The group names the layer a
#: span is charged to; nested calls within one group count once.
TRACED = (
    ("instances", "ssfp.instances", "random_grid_instance", None),
    ("instances", "ssfp.instances", "random_artificial", None),
    ("models", "ssfp.models", "build_model", None),
    ("models", "ssfp.models", "build_do", None),
    ("solve", "ssfp.solver", "solve_milp", _solve_info),
    ("oracle", "ssfp.solver", "brute_force", None),
    ("lp", *LP_ENTRY, _lp_info),
    ("highs", *HIGHS_ENTRY, None),
    ("record", "ssfp.experiments", "sweep_record", None),
    ("evaluate", "ssfp.experiments", "evaluate_under", _evaluate_info),
)
#: The untraced run wraps only ``solve_milp``, for per-call latency and nodes.
LATENCY_ONLY = tuple(t for t in TRACED if t[0] == "solve")


class Span:
    __slots__ = ("group", "name", "start", "end", "parent", "pass_no", "item", "info")

    def __init__(self, group, name, start, end, parent, pass_no, item):
        self.group, self.name = group, name
        self.start, self.end, self.parent = start, end, parent
        self.pass_no, self.item, self.info = pass_no, item, None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "pass": self.pass_no, "item": self.item}


class Tracer:
    """Records a span per wrapped call; ``pass_no`` and ``item`` tag them."""

    def __init__(self, targets=TRACED) -> None:
        self.targets = targets
        self.spans: list[Span | None] = []
        self.stack: list[int] = []
        self.pass_no = -1  # -1 is set-up
        self.item = "setup"
        self.missing: list[str] = []  # targets whose function does not exist

    def _wrap(self, group: str, name: str, fn, info):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = spans[index] = Span(group, name, start, end, parent,
                                           self.pass_no, self.item)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Patch every namespace that holds a traced function; undo on exit."""
        undo: list[tuple[object, str, object]] = []
        self.missing = []
        try:
            for group, module_name, attribute, info in self.targets:
                name = f"{module_name}.{attribute}"
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                original = getattr(module, attribute, None)
                if original is None:
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(group, name, original, info)
                holders = [module] + [m for key, m in list(sys.modules.items())
                                      if key == "ssfp" or key.startswith("ssfp.")]
                for holder in dict.fromkeys(holders):
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
                            undo.append((holder, key, original))
            yield self
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)


def _spans_by_pass(spans: list[Span]) -> dict[int, list[tuple[int, Span]]]:
    out: dict[int, list[tuple[int, Span]]] = {}
    for index, span in enumerate(spans):
        out.setdefault(span.pass_no, []).append((index, span))
    return out


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child)]


def _seconds(spans: list[tuple[int, Span]], times: list[float] | None = None) -> float:
    """Total duration of ``spans``, or their total of ``times`` by span index."""
    if times is None:
        return sum((s.duration for _, s in spans), 0.0)
    return sum((times[i] for i, _ in spans), 0.0)


def _outermost(spans: list[Span], own: list[tuple[int, Span]], group: str):
    """The spans of ``group`` not nested in another span of the same group."""
    return [(i, s) for i, s in own
            if s.group == group and (s.parent < 0 or spans[s.parent].group != group)]


def _pass_metrics(spans: list[Span], own: list[tuple[int, Span]], self_time: list[float]) -> dict:
    """Per-layer figures of one pass, from the spans tagged with it."""
    from ssfp.experiments import MODEL_LABELS

    def under_evaluate(span: Span) -> bool:
        parent = span.parent
        while parent >= 0:
            if spans[parent].group == "evaluate":
                return True
            parent = spans[parent].parent
        return False

    builds = _outermost(spans, own, "models")
    solves = _outermost(spans, own, "solve")
    lps = _outermost(spans, own, "lp")
    highs = _outermost(spans, own, "highs")
    oracle = _outermost(spans, own, "oracle")
    records = _outermost(spans, own, "record")
    evaluations = _outermost(spans, own, "evaluate")
    recourse_runs = [s for _, s in evaluations if s.info and s.info["objective"] != "do"]
    distinct = {(s.item, s.info["first_stage"]) for s in recourse_runs}
    top_solves = [(i, s) for i, s in solves if not under_evaluate(s)]
    m = {
        "models.build_s": _seconds(builds),
        "models.build_calls": len(builds),
        "solver.solve_s": _seconds(solves),
        "solver.solve_calls": len(solves),
        "solver.nodes": sum(s.info["nodes"] for _, s in solves if s.info),
        "solver.lp_calls": len(lps),
        "solver.simplex_iters": sum(s.info["nit"] for _, s in lps if s.info),
        "solver.lp_s": _seconds(lps),
        "solver.lp_highs_s": _seconds(highs),
        "solver.lp_wrapper_s": _seconds(lps, self_time),
        "solver.bnb_self_s": _seconds(solves, self_time),
        "solver.oracle_s": _seconds(oracle),
        "solver.oracle_calls": len(oracle),
        "experiments.record_s": _seconds(records),
        "experiments.evaluate_s": _seconds(evaluations),
        "experiments.recourse_solves": sum(under_evaluate(s) for _, s in solves),
        "experiments.recourse_distinct_ratio":
            len(distinct) / len(recourse_runs) if recourse_runs else 0.0,
    }
    for label in MODEL_LABELS:
        mine = [(i, s) for i, s in top_solves if s.info and s.info["label"] == label]
        m[f"solver.nodes.{label}"] = sum(s.info["nodes"] for _, s in mine)
        m[f"solver.solve_s.{label}"] = _seconds(mine)
    return m


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, read from its name."""
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


COUNTERS = ("solver.nodes", "solver.lp_calls", "solver.simplex_iters")
LP_METRICS = ("solver.lp_calls", "solver.simplex_iters", "solver.lp_s", "solver.lp_highs_s",
              "solver.lp_wrapper_s", "solver.bnb_self_s")


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics (times: median over the traced passes; counts: the
    first pass's, which every pass must repeat) and notes about them."""
    spans = tracer.spans
    self_time = self_times(spans)
    by_pass = _spans_by_pass(spans)
    passes = [p for p in sorted(by_pass) if p >= 0]
    per_pass = [_pass_metrics(spans, by_pass[p], self_time) for p in passes]
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        metrics[name] = statistics.median(values) if unit_of(name) == "s" else values[0]
    metrics["instances.gen_s"] = _seconds(_outermost(spans, by_pass.get(-1, []), "instances"))

    notes: dict = {"unavailable": {}}
    counts_repeat = all(m[c] == per_pass[0][c] for m in per_pass for c in COUNTERS)
    notes["counters_repeat_across_passes"] = counts_repeat
    notes["traced_passes"] = len(passes)
    if metrics["solver.nodes"] > 0 and metrics["solver.lp_calls"] == 0:
        for name in LP_METRICS:
            notes["unavailable"][name] = f"{'.'.join(LP_ENTRY)} saw no calls while B&B ran nodes"
            metrics[name] = None
    return metrics, notes


def self_time_table(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Calls, total and self seconds per wrapped function over all spans."""
    table: dict[str, dict[str, float]] = {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own
    return table
