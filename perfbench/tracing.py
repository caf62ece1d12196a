"""Span recorder for the traced run (``--trace 1``).

Spans are recorded from the benchmark's own code: :func:`install`
replaces each public call named in :data:`TARGETS` with a wrapper that
opens a span, calls the original and closes the span. The program's own
files are not changed. Every span keeps its name, start, end, parent
span and the id of the benchmark operation (request) it ran under, plus
a count taken at the same boundary (groups of a view, rows of a fit).
Spans stay in memory and are written out by :meth:`Recorder.dump` when
the run ends. Calls made inside shard worker processes are not seen;
their stage time is the coordinator's wait, taken at
``ShardExecutor.run``/``run_shared``.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import threading
import time
from typing import Callable

clock = time.perf_counter


class Recorder:
    """In-memory spans: ``[name, start, end, parent, request, count]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = 0
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        idx = len(self.spans)
        self.spans.append([name, clock(), 0.0, parent, self.request, 0])
        stack.append(idx)
        return idx

    def end(self, idx: int, count: int = 0) -> None:
        span = self.spans[idx]
        span[2] = clock()
        span[5] = count
        stack = self._stack()
        if stack and stack[-1] == idx:
            stack.pop()

    def op(self, name: str):
        """A benchmark operation: a new request id and a root span."""
        self.request += 1
        return _Span(self, "op." + name)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "request", "count"],
                       "spans": self.spans}, fh)


class _Span:
    def __init__(self, recorder: Recorder, name: str):
        self.recorder, self.name = recorder, name

    def __enter__(self):
        self.idx = self.recorder.begin(self.name)
        return self

    def __exit__(self, *exc):
        self.recorder.end(self.idx)
        return False


class NullRecorder:
    """The untraced run: operations open no spans."""

    def op(self, name: str):
        return _NULL


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


def _len_groups(args, kwargs, result) -> int:
    return len(result.groups)


def _design_rows(args, kwargs, result) -> int:
    return sum(len(vd.keys) for vd in result)


def _fit_rows(args, kwargs, result) -> int:
    return int(args[1].n)


def _delta_rows(args, kwargs, result) -> int:
    delta = args[1]
    return len(delta.appended) + len(delta.retracted)


def _sweep_groups(args, kwargs, result) -> int:
    return len(args[0].groups)


def _stage_name(args, kwargs) -> str:
    return "shard.stage." + str(kwargs.get("stage", "other"))


#: ``(module, owner or None, attribute, span name, count function)``.
#: A span name ending in ``*`` is completed per call by ``_stage_name``.
TARGETS: list[tuple] = [
    ("repro.relational.dataset", "HierarchicalDataset", "build",
     "relational.load", None),
    ("repro.relational.cube", "Cube", "__init__", "relational.load", None),
    ("repro.core.session", "Reptile", "__init__", "relational.load", None),
    ("repro.serving.service", "ExplanationService", "register",
     "relational.load", None),
    ("repro.relational.cube", "Cube", "view", "relational.view",
     _len_groups),
    ("repro.serving.engine", "CachingViews", "view", "relational.view",
     _len_groups),
    ("repro.relational.cube", "Cube", "drilldown_view", "relational.view",
     _len_groups),
    ("repro.relational.cube", "Cube", "parallel_view", "relational.view",
     _len_groups),
    ("repro.core.session", "Reptile", "apply_delta", "relational.delta",
     _delta_rows),
    ("repro.relational.shard", "ShardedCube", "__init__", "shard.start",
     None),
    ("repro.relational.shard", "ShardExecutor", "__init__", "shard.start",
     None),
    ("repro.relational.shard", "ShardExecutor", "run", "shard.stage.*",
     None),
    ("repro.relational.shard", "ShardExecutor", "run_shared",
     "shard.stage.*", None),
    ("repro.kernels", None, "group_codes", "kernels.group_codes", None),
    ("repro.kernels", None, "rank1_sweep", "kernels.rank1_sweep", None),
    ("repro.model.features", None, "build_view_designs", "model.design",
     _design_rows),
    ("repro.model.multilevel", "MultilevelModel", "fit", "model.fit",
     _fit_rows),
    ("repro.model.multilevel", "MultilevelModel", "fit_predict_many",
     "model.fit", _fit_rows),
    ("repro.model.pipeline", None, "feature_columns_from_view",
     "model.features", None),
    ("repro.model.pipeline", None, "y_vector", "model.features", None),
    ("repro.factorized.matrix", "FactorizedMatrix", "__init__",
     "factorized.matrix", None),
    ("repro.core.repair", "RepairPrediction", "array_form", "core.align",
     None),
    ("repro.core.ranker", None, "score_drilldown", "core.sweep",
     _sweep_groups),
    ("repro.core.session", "DrillSession", "recommend", "core.recommend",
     None),
    ("repro.serving.server", "ServerApp", "dispatch", "serving.dispatch",
     None),
    ("repro.serving.service", "ExplanationService", "ingest",
     "serving.ingest", None),
] + [("repro.model.backends", "FactorizedDesign", op, "factorized.design_op",
      None) for op in ("gram", "xt_v", "x_beta", "cluster_grams",
                       "cluster_zt_v", "z_b", "cluster_sq_norms")] + [
    ("repro.serving.service", "ExplanationService", op, "serving.service",
     None) for op in ("with_session", "submit_batch", "open_session",
                      "close_session")]

#: Wrapper spans whose own time is reported as a self time; they do not
#: count as layer coverage (they enclose everything under them).
ENTRY_SPANS = ("core.recommend", "serving.dispatch", "serving.service",
               "serving.ingest")


def _wrap(recorder: Recorder, fn: Callable, name: str,
          count: Callable | None) -> Callable:
    dynamic = name.endswith("*")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = recorder.begin(_stage_name(args, kwargs) if dynamic else name)
        n = 0
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                n = count(args, kwargs, result)
            return result
        finally:
            recorder.end(idx, n)
    return wrapper


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every target; returns a function that restores them."""
    undo: list[tuple[object, str, object]] = []
    for module_name, owner, attr, name, count in TARGETS:
        module = importlib.import_module(module_name)
        holder = getattr(module, owner) if owner else module
        original = holder.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(_wrap(recorder, original.__func__, name,
                                        count))
        else:
            wrapped = _wrap(recorder, original, name, count)
        setattr(holder, attr, wrapped)
        undo.append((holder, attr, original))
        if owner is None:
            # Names imported with ``from x import f`` are bound again in
            # every importing module; wrap those bindings as well.
            for other in list(sys.modules.values()):
                if other is module or not getattr(
                        other, "__name__", "").startswith("repro"):
                    continue
                if other.__dict__.get(attr) is original:
                    setattr(other, attr, wrapped)
                    undo.append((other, attr, original))

    def restore() -> None:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)
    return restore


def per_call_cost(recorder_factory=Recorder, calls: int = 20000) -> float:
    """Median extra seconds one wrapped call costs over a bare call."""
    def bare(x):
        return x
    samples = []
    for _ in range(5):
        rec = recorder_factory()
        wrapped = _wrap(rec, bare, "calibrate", None)
        t0 = clock()
        for i in range(calls):
            bare(i)
        t1 = clock()
        for i in range(calls):
            wrapped(i)
        t2 = clock()
        samples.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(statistics.median(samples), 0.0)


def top_level(spans: list[list], name: str) -> list[list]:
    """Spans named ``name`` with no ancestor of the same name."""
    out = []
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            out.append(span)
    return out


def within_ops(spans: list[list]) -> list[list]:
    """The spans of benchmark operations, re-indexed; work outside any
    operation (fault probes, oracle checks) is dropped."""
    root: list[int] = []
    for i, span in enumerate(spans):
        root.append(i if span[3] < 0 else root[span[3]])
    keep = [i for i in range(len(spans))
            if spans[root[i]][0].startswith("op.")]
    new_index = {old: new for new, old in enumerate(keep)}
    return [spans[i][:3] + [new_index.get(spans[i][3], -1)] + spans[i][4:]
            for i in keep]


def children(spans: list[list]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[3] >= 0:
            kids.setdefault(span[3], []).append(i)
    return kids


def self_time(spans: list[list], name: str, minus: str | None = None
              ) -> float:
    """Total time of top-level ``name`` spans minus their direct children
    (or, with ``minus``, minus their top-most ``minus`` descendants)."""
    kids = children(spans)
    index = {id(s): i for i, s in enumerate(spans)}
    total = 0.0
    for span in top_level(spans, name):
        i = index[id(span)]
        own = span[2] - span[1]
        if minus is None:
            own -= sum(spans[c][2] - spans[c][1] for c in kids.get(i, ()))
        else:
            own -= sum(s[2] - s[1] for s in _topmost_below(spans, kids, i,
                                                            minus))
        total += own
    return total


def _topmost_below(spans, kids, i, name):
    out, todo = [], list(kids.get(i, ()))
    while todo:
        c = todo.pop()
        if spans[c][0] == name:
            out.append(spans[c])
        else:
            todo.extend(kids.get(c, ()))
    return out


def coverage(spans: list[list]) -> float:
    """Share of operation wall time inside layer spans.

    Per operation, the top-most layer spans under it (entry wrappers such
    as ``core.recommend`` excluded, their layer children counted) are
    summed; nested spans are never counted twice.
    """
    kids = children(spans)
    covered = total = 0.0
    for i, span in enumerate(spans):
        if not span[0].startswith("op."):
            continue
        total += span[2] - span[1]
        todo = list(kids.get(i, ()))
        while todo:
            c = todo.pop()
            name = spans[c][0]
            if name.startswith("op.") or name in ENTRY_SPANS:
                todo.extend(kids.get(c, ()))
            else:
                covered += spans[c][2] - spans[c][1]
    return covered / total if total else 0.0
