"""The benchmark harness wraps library functions by name.

benchmarks/tracing.py looks up every (module, name) in its LAYERS table
on the eframes modules before each run, so a public function that is
renamed or deleted makes every benchmark run fail. This guard reads the
table and checks each name here, before any benchmark runs.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def layer_names():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCHMARKS))
    return [
        (module, name)
        for module, names in tracing.LAYERS.values()
        for name in names
    ]


@pytest.mark.parametrize("module, name", layer_names())
def test_every_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"eframes.{module}"), name))
