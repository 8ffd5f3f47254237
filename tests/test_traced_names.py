"""The benchmark's tracer patches functions by name; each must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
)
_tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracer)

TRACED_NAMES = [(m, f) for m, funcs in _tracer.TRACED.items() for f in funcs]


@pytest.mark.parametrize("module, function", TRACED_NAMES,
                         ids=["%s.%s" % mf for mf in TRACED_NAMES])
def test_traced_function_exists(module, function):
    mod = importlib.import_module("spoofsense." + module)
    assert callable(getattr(mod, function, None)), "spoofsense.%s.%s" % (module, function)
