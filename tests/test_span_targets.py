"""The benchmark's span list against the library and against BENCHMARK.json.

``perfbench/spans.py`` wraps library functions by name for the traced run,
so renaming or removing one of them breaks that run. These checks catch it
without running a workload.
"""

import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("spans")


def test_every_target_is_bound(spans):
    # _find_bindings scans the loaded walklevel modules, so load them first
    homes = {mod: importlib.import_module(f"walklevel.{mod}") for mod in spans.TARGETS}
    tracer = spans.Tracer()
    tracer._find_bindings()  # resolves every name; installs nothing
    wrapped = {id(orig) for _, _, orig, _ in tracer.patches}
    for mod, names in spans.TARGETS.items():
        for name in names:
            fn = getattr(homes[mod], name)
            target = fn.__init__ if isinstance(fn, type) else fn
            assert id(target) in wrapped, f"walklevel.{mod}.{name}"


def test_metric_names_match_the_benchmark(spans):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spans.metric_names() == {m["name"]: m["unit"] for m in spec["per_layer"]}
