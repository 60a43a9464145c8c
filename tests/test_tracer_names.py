"""The names the traced benchmark run reads off the program still exist.

perfbench/layers.py profiles functions by module and qualified name, and
wraps a few public functions, passing their arguments through.  A rename or
a changed signature would break `perfbench/run.py --trace 1` only when it
runs; these tests check the names and signatures without installing the
wrappers.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", ROOT / "perfbench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()

# (module, qualified name, the positional arguments its wrapper in layers.py passes)
WRAPPED_CALLS = [
    ("freemod", "GradedMatrixHom.__init__", ("hom", "source", "target", "degree", "entries")),
    ("solvers", "ColumnSpan.__init__", ("span", "ambient", "columns")),
    ("solvers", "smith_normal_form", ("rows",)),
    ("solvers", "syzygies", ("f", "prune")),
    ("solvers", "kernel_columns", ("ambient", "columns")),
    ("solvers", "prune_columns", ("ambient", "columns")),
    ("modules", "resolve", ("module", "max_length")),
    ("textio", "parse_source", ("source", "filename")),
]


def test_every_layer_is_a_module():
    for layer in layers.LAYERS:
        assert importlib.import_module(f"gradedtrace.{layer}").__file__


@pytest.mark.parametrize("metric", sorted(layers.PROFILED))
def test_every_profiled_name_resolves(metric):
    module, qualname, kind = layers.PROFILED[metric]
    function = layers._resolve_attr(importlib.import_module(f"gradedtrace.{module}"), qualname)
    assert kind in ("calls", "seconds")
    assert inspect.iscode(function.__code__)


@pytest.mark.parametrize("module, qualname, arguments", WRAPPED_CALLS, ids=[q for _, q, _ in WRAPPED_CALLS])
def test_every_wrapped_function_binds_its_wrappers_arguments(module, qualname, arguments):
    function = layers._resolve_attr(importlib.import_module(f"gradedtrace.{module}"), qualname)
    inspect.signature(function).bind(*arguments)

