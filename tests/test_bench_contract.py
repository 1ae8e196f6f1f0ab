"""What the benchmark under bench/ needs from the package.

The benchmark is kept fixed between its own revisions, so a change to the
package must keep every name it calls and every property its tracer
relies on.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import ambiseg

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_modules_define_no_public_generator(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import layer_functions

    # the tracer's self-check counts calls with sys.setprofile, which sees
    # every resume of a generator as a call its wrapper never saw
    generators = [
        name for name, fn in layer_functions().items()
        if inspect.isgeneratorfunction(fn)
    ]
    assert generators == []


@pytest.mark.parametrize("script", ["harness.py", "setup_trial.py"])
def test_bench_names_resolve(script):
    tree = ast.parse((BENCH / script).read_text())
    bound = {}  # name in the script -> the ambiseg object it imports
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "ambiseg":
                    bound[alias.asname or alias.name] = ambiseg
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ambiseg"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                where = f"from {node.module} import {alias.name}"
                assert hasattr(module, alias.name), where
                bound[alias.asname or alias.name] = getattr(module, alias.name)
    assert bound
    missing = [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and inspect.ismodule(bound.get(node.value.id))
        and not hasattr(bound[node.value.id], node.attr)
    ]
    assert missing == []
