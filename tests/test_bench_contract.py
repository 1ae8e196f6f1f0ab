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
from ambiseg.masks import LabelMask, consensus_set, restrict, separate_agreement

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


def test_set_observers_read_real_results(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from traced import OBSERVERS

    # `--trace 1` reports the mean of these observers over a run
    def mask(labels):
        return LabelMask(width=4, height=2, num_classes=2, labels=labels)

    a, b = mask([0, 1, 1, 0, 1, 1, 0, 0]), mask([0, 1, 0, 0, 1, 0, 0, 1])
    p, q = mask([1, 0, 1, 0, 1, 0, 1, 1]), mask([0, 0, 1, 1, 0, 0, 1, 0])
    unanimous = consensus_set([a, b])
    assert OBSERVERS["masks.consensus_set"](([a, b],), {}, unanimous) == 5 / 8
    _, disagree = separate_agreement(a, b)
    consistent, _ = separate_agreement(p, q)
    refined = restrict(consistent, disagree)
    assert OBSERVERS["masks.restrict"]((consistent, disagree), {}, refined) == 2


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
