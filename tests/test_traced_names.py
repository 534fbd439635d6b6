"""The benchmark's tracer wraps library functions by name, so every name it
lists must exist: renaming a traced function fails here, in tier 1, and not
only in the benchmark's own checks."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class body runs
    sys.modules[spec.name] = spans
    try:
        spec.loader.exec_module(spans)
    finally:
        del sys.modules[spec.name]
    return spans.LAYERS


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, *_ in traced_layers()])
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"biquandles.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_numba_flag_exists():
    # read by the benchmark's environment stamp
    kernels = importlib.import_module("biquandles._kernels")
    assert isinstance(kernels.HAVE_NUMBA, bool)
