"""Span tracing of corrseg's layers, installed from outside the package.

`Tracer.install()` wraps public functions of corrseg's modules at run
time: every module attribute bound to a wrapped function is rebound to
the wrapper, so calls through `from .x import f` names are traced too.
Each call records a span (trace id, span id, parent span id, name,
start, end) plus counts computed from the call's arguments and result.
Spans stay in memory; the caller writes them out when the run ends.

`layer_metrics()` turns one run's spans into the per-layer metrics of
the benchmark. Counts are computed from input sizes and the k_max / K
each call reports, never from a program counter, so they repeat exactly.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager

MB = 2**20
F64 = 8


def _dp_k_max(t: int, k_max, fixed_k) -> int:
    """Segment ceiling one covariate series' DP runs with (as correction does)."""
    from corrseg.segment import default_k_max

    if fixed_k is not None:
        return min(max(1, fixed_k), t)
    return default_k_max(t) if k_max is None else min(k_max, t)


def _written(a, r):
    return {"bytes": os.path.getsize(a["path"])}


def _covariate_rows(a, r):
    return {"rows": sum(len(pos) for patients in r.values() for pos, _ in patients.values())}


def _covariate_dp(a, r):
    sizes = [len(values) for _, values in a["series"].values()]
    return {
        "series": len(sizes),
        "cells": sum(_dp_k_max(t, a["k_max"], a["fixed_k"]) * t * t for t in sizes),
    }


IO_WRITERS = (
    "write_rows", "write_segmentation", "write_regions", "write_matrix",
    "write_truth", "write_json", "write_manifest",
)
# (module, function, counts computed from (bound arguments, result), track peak memory)
INSTRUMENTED = [
    ("io", "read_expression", lambda a, r: {"cells": r.n * r.p}, False),
    ("io", "read_annotation", None, False),
    ("io", "read_segmentation", None, False),
    ("io", "read_covariate_long", _covariate_rows, False),
    ("io", "read_covariate_wide", _covariate_rows, False),
    ("io", "read_regions", None, False),
    ("io", "read_truth", None, False),
    *[("io", name, _written, False) for name in IO_WRITERS],
    ("core", "standardize", None, False),
    ("core", "build_gram_prefix", lambda a, r: {"bytes": (a["matrix"].p + 1) ** 2 * F64}, False),
    ("segment", "build_cost_table", lambda a, r: {"calls": 1, "bytes": 2 * r.p * r.p * F64}, True),
    ("segment", "select_k", lambda a, r: {"passes": 1, "cells": len(r.L) * a["costs"].p ** 2}, True),
    ("segment", "dp_segment", lambda a, r: {"passes": 1, "cells": a["K"] * r.p ** 2}, False),
    ("correction", "segment_covariate", _covariate_dp, False),
    ("correction", "align_to_genes", None, False),
    ("correction", "correct_expression", None, False),
    ("significance", "estimate_rho0", None, False),
    ("significance", "test_regions", lambda a, r: {"tested": sum(x.tested for x in r)}, False),
    ("significance", "apply_adjustment", None, False),
    ("pipeline", "split_by_chromosome", lambda a, r: {"chromosomes": len(r)}, False),
    ("pipeline", "segment_all", None, False),
    ("pipeline", "correct_view", None, False),
    ("simulate", "generate", None, False),
    ("simulate", "evaluate", None, False),
]


class Tracer:
    """Records spans for one run; all of them share `trace_id`."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block; yields the span's attribute dict."""
        span = {
            "trace": self.trace_id,
            "id": len(self.spans) + 1,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter() - self._t0,
            "end": None,
            "attrs": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield span["attrs"]
        finally:
            span["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    def wrap(self, name: str, fn, counts=None, peak: bool = False):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                if peak:
                    tracemalloc.start()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if peak:
                        attrs["peak_mb"] = tracemalloc.get_traced_memory()[1] / MB
                        tracemalloc.stop()
                if counts is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    try:
                        attrs.update(counts(bound.arguments, result))
                    except (AttributeError, KeyError, TypeError) as exc:
                        # a changed signature must not break the run: the count reads 0
                        attrs["count_error"] = repr(exc)
                return result

        return traced

    def install(self) -> None:
        """Wrap INSTRUMENTED functions wherever corrseg's modules bind them.

        A function the package no longer has is skipped; its metrics read 0.
        """
        import corrseg.cli  # noqa: F401  (loads every module that binds the names)

        replace = {}
        for module, func, counts, peak in INSTRUMENTED:
            original = getattr(sys.modules.get(f"corrseg.{module}"), func, None)
            if original is None:
                continue
            # keyed by id: module attributes include unhashable values; each
            # wrapper keeps its original alive, so no id is reused meanwhile
            replace[id(original)] = self.wrap(f"{module}.{func}", original, counts, peak)
        for name, mod in list(sys.modules.items()):
            if name != "corrseg" and not name.startswith("corrseg."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)


# Per-layer metric -> span names it sums. A span counts once: spans nested
# under another span of the same metric (write_matrix -> write_rows) are
# already inside their ancestor's time and counts.
WRITES = tuple(f"io.{name}" for name in IO_WRITERS)
READ_COVARIATE = ("io.read_covariate_long", "io.read_covariate_wide")
DP_PASSES = ("segment.select_k", "segment.dp_segment")
LAYER_TIMES = {
    "io.read_expression_s": ("io.read_expression",),
    "io.read_segmentation_s": ("io.read_segmentation",),
    "io.read_covariate_s": READ_COVARIATE,
    "io.write_s": WRITES,
    "core.standardize_s": ("core.standardize",),
    "core.gram_prefix_s": ("core.build_gram_prefix",),
    "segment.cost_table_s": ("segment.build_cost_table",),
    "segment.select_k_s": ("segment.select_k",),
    "segment.dp_segment_s": ("segment.dp_segment",),
    "correction.segment_covariate_s": ("correction.segment_covariate",),
    "correction.align_s": ("correction.align_to_genes",),
    "correction.regress_s": ("correction.correct_expression",),
    "significance.estimate_rho0_s": ("significance.estimate_rho0",),
    "significance.test_regions_s": ("significance.test_regions",),
    "significance.adjust_s": ("significance.apply_adjustment",),
    "pipeline.split_s": ("pipeline.split_by_chromosome",),
    "simulate.generate_s": ("simulate.generate",),
    "simulate.evaluate_s": ("simulate.evaluate",),
}
# metric -> (span names, attribute summed over them)
LAYER_COUNTS = {
    "io.cells_parsed": (("io.read_expression",), "cells"),
    "io.covariate_rows_parsed": (READ_COVARIATE, "rows"),
    "io.bytes_written": (WRITES, "bytes"),
    "core.gram_prefix_bytes": (("core.build_gram_prefix",), "bytes"),
    "segment.cost_table_calls": (("segment.build_cost_table",), "calls"),
    "segment.cost_table_bytes": (("segment.build_cost_table",), "bytes"),
    "segment.dp_passes": (DP_PASSES, "passes"),
    "segment.dp_cells": (DP_PASSES, "cells"),
    "correction.series_fitted": (("correction.segment_covariate",), "series"),
    "correction.dp_cells": (("correction.segment_covariate",), "cells"),
    "significance.regions_tested": (("significance.test_regions",), "tested"),
    "pipeline.chromosomes": (("pipeline.split_by_chromosome",), "chromosomes"),
}
# metric -> span name whose largest traced peak it reports
LAYER_PEAKS = {
    "segment.cost_table_peak_mb": "segment.build_cost_table",
    "segment.select_k_peak_mb": "segment.select_k",
}

def layer_metrics(spans: list[dict], untimed: set[str]) -> dict[str, dict[str, float]]:
    """Per-layer metrics of one run, per command span and in total.

    Returns {command: {metric: value}} with an extra "total" entry that
    sums times and counts and takes the largest peak over the commands
    not named in `untimed`. A command span is one named "cli.<command>"
    without a parent.
    """
    by_id = {s["id"]: s for s in spans}

    def command_of(span):
        while span["parent"] is not None:
            span = by_id[span["parent"]]
        return span["name"][len("cli."):]

    def outermost(span, names):
        parent = span["parent"]
        while parent is not None:
            if by_id[parent]["name"] in names:
                return False
            parent = by_id[parent]["parent"]
        return True

    metrics = (*LAYER_TIMES, *LAYER_COUNTS, *LAYER_PEAKS, "cli.self_s")
    commands = [s["name"][len("cli."):] for s in spans if s["parent"] is None]
    out = {c: dict.fromkeys(metrics, 0.0) for c in commands}
    for span in spans:
        if span["parent"] is None:
            continue
        row = out[command_of(span)]
        name = span["name"]
        for metric, names in LAYER_TIMES.items():
            if name in names and outermost(span, names):
                row[metric] += span["end"] - span["start"]
        for metric, (names, key) in LAYER_COUNTS.items():
            if name in names and outermost(span, names):
                row[metric] += span["attrs"].get(key, 0)
        for metric, source in LAYER_PEAKS.items():
            if name == source:
                row[metric] = max(row[metric], span["attrs"].get("peak_mb", 0.0))
    for span in spans:
        if span["parent"] is None:
            covered = sum(
                c["end"] - c["start"] for c in spans if c["parent"] == span["id"]
            )
            out[span["name"][len("cli."):]]["cli.self_s"] += span["end"] - span["start"] - covered
    total = dict.fromkeys(metrics, 0.0)
    for command, row in out.items():
        if command in untimed:
            continue
        for metric, value in row.items():
            if metric in LAYER_PEAKS:
                total[metric] = max(total[metric], value)
            else:
                total[metric] += value
    out["total"] = total
    return out
