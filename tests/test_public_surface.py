"""The package's public names, the names deleted from it, and the benchmark's imports.

``walklevel.__all__`` is the public API. Names that only tests and demos
called were deleted from it; these checks keep them from coming back
unseen and make sure ``perfbench/workloads.py``, which tier-1 does not run,
still imports everything it uses.
"""

import inspect
import os
import subprocess
import sys
import types
from importlib import import_module
from pathlib import Path

import pytest

import walklevel

ROOT = Path(__file__).resolve().parent.parent

# module or class -> names deleted from it
REMOVED = {
    "walklevel.ortho": ("from_pair", "level"),
    "walklevel.ortho.RatRegOrtho": ("from_fraction", "from_permutation", "identity"),
    "walklevel.intmat": ("adjugate", "IntPoly"),
    "walklevel.intmat.IntMatrix": ("minor", "map", "mod", "is_zero", "zeros", "columns"),
    "walklevel.snf": ("_prime_of_modulus",),
    "walklevel.snf.KernelShape": ("size",),
    "walklevel.bounds.LevelBoundReport": ("bound_for",),
    "walklevel.bounds.DgsCertificate": ("is_dgs",),
    "walklevel.bounds.FamilyMembership": ("is_member", "in_square_family"),
    "walklevel.bounds.MateCountBounds": ("applicable",),
    "walklevel.graphs.Graph": ("relabel",),
}

# function -> keyword options deleted from it; each became a module constant
REMOVED_OPTIONS = {
    "walklevel.arith.factorize": ("budget",),
    "walklevel.matesearch.enumerate_columns": ("cap",),
    "walklevel.matesearch.search_mates": ("node_cap",),
    "walklevel.graphs.isomorphic": ("size_limit",),
}


def resolve(path):
    """The module, or the class inside a module, that a dotted path names."""
    try:
        return import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(import_module(module), cls)


def test_every_exported_name_resolves():
    assert len(set(walklevel.__all__)) == len(walklevel.__all__)
    for name in walklevel.__all__:
        assert hasattr(walklevel, name), name


@pytest.mark.parametrize("owner", sorted(REMOVED))
def test_removed_names_stay_gone(owner):
    home = resolve(owner)
    for name in REMOVED[owner]:
        assert not hasattr(home, name), f"{owner}.{name}"
        if isinstance(home, types.ModuleType):
            assert name not in walklevel.__all__
            assert not hasattr(walklevel, name), f"walklevel.{name}"


@pytest.mark.parametrize("path", sorted(REMOVED_OPTIONS))
def test_removed_options_stay_gone(path):
    module, _, name = path.rpartition(".")
    params = inspect.signature(getattr(import_module(module), name)).parameters
    for option in REMOVED_OPTIONS[path]:
        assert option not in params, f"{path}({option}=...)"


def test_benchmark_workloads_import():
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    proc = subprocess.run([sys.executable, "-c", "import workloads"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
