"""The benchmark's tracing hooks still find what they wrap.

`perfbench/tracing.py` wraps corrseg functions by (module, name) and
computes per-layer counts from their bound arguments. A renamed
function or parameter does not break a traced run: its metric silently
reads 0. These checks make such a rename fail here instead.
"""

from __future__ import annotations

import importlib
import inspect
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# wrapped names the package no longer has: the p x p cost table went when
# both DP passes moved into one kernel (ROADMAP item 1 re-maps the hook)
GONE = {("segment", "build_cost_table")}


def _tracing() -> types.ModuleType:
    # executed from source so that reading the hooks writes no bytecode cache
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), vars(module))
    return module


tracing = _tracing()

# (module, function) -> arguments its working count reads
COUNTED_ARGUMENTS = {
    **{("io", name): ("path",) for name in tracing.IO_WRITERS},
    ("core", "build_gram_prefix"): ("matrix",),
    ("segment", "dp_segment"): ("K",),
    ("correction", "segment_covariate"): ("series", "k_max", "fixed_k"),
}


def _resolve(module: str, name: str):
    return getattr(importlib.import_module(f"corrseg.{module}"), name, None)


@pytest.mark.parametrize(
    "module,name",
    [(m, f) for m, f, _, _ in tracing.INSTRUMENTED if (m, f) not in GONE],
)
def test_instrumented_function_exists(module, name):
    assert callable(_resolve(module, name)), f"corrseg.{module}.{name} is gone"


@pytest.mark.parametrize("module,name", sorted(COUNTED_ARGUMENTS))
def test_counted_arguments_are_parameters(module, name):
    assert (module, name) in {(m, f) for m, f, _, _ in tracing.INSTRUMENTED}
    params = inspect.signature(_resolve(module, name)).parameters
    for arg in COUNTED_ARGUMENTS[module, name]:
        assert arg in params, f"corrseg.{module}.{name} lost parameter {arg!r}"
