"""The per-layer metrics of BENCHMARK.json that are named after a function
read that function's spans, and the tracer in perfbench/tracing.py wraps only
the public plain functions defined in each layer module.  A decorator that
turns one of them into another kind of callable (``functools.cache`` does)
would leave its metrics silently empty, so this checks each named function.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

# metrics named after something other than one function of their layer:
# jacobi_check split by table kind, the eliminator's entry points together,
# and counted methods of RowSpace and Poly
AGGREGATES = {"liealg.jacobi_concrete", "liealg.jacobi_symbolic", "exact.echelon",
              "exact.rowspace", "exact.poly"}


def test_metric_functions_are_plain_functions_of_their_layer():
    metrics = [m["name"] for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]]
    named = {tuple(name.split(".")[:2]) for name in metrics if name.count(".") == 2}
    named = {(layer, function) for layer, function in named
             if f"{layer}.{function}" not in AGGREGATES}
    assert ("isomorphy", "fingerprint") in named
    assert ("gradation", "lower_central_series") in named
    for layer, function in sorted(named):
        module = importlib.import_module(f"qflab.{layer}")
        obj = getattr(module, function, None)
        assert inspect.isfunction(obj), f"{layer}.{function} is not a plain function"
        assert obj.__module__ == module.__name__, f"{layer}.{function} is defined elsewhere"
