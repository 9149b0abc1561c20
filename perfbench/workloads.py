"""The four workloads: their inputs and the operation each one times.

Every workload is a list of items, one graph each, and one operation that
takes an item's argument. Operations look the library's functions up on
their modules at call time, so that the traced run sees the calls.
``record`` turns the operation's result into the JSON-able dict that the
checks read and that the determinism check hashes; it runs outside the
timed region.

Inputs:

* ``sweep_small``: slots 0..N-1 of ``SweepConfig(n_min=6, n_max=12,
  seed=<seed>, mates=True)``; the timed operation is ``sweep_one``.
* ``sweep_factor``: slots of ``SweepConfig(n_min=14, n_max=16,
  seed=POOL_SEED, mates=False)``.
* ``profile_large``: the first controllable draw of
  ``random_graph(derive_stream(POOL_SEED, i, attempt), n, 1, 2)`` for
  n = 24..27; the timed operation is ``walk_profile(g, primes=(2, 3, 5, 7))``.
* ``mates_cli``: the bundled fixture at automatic levels plus the graphs of
  ``mates_pool.txt`` (made from sweep seed POOL_SEED) at their listed
  levels; the timed operation is ``walklevel.cli.main(["mates", "-", ..., "--json"])``
  with stdin and stdout redirected to strings.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

from walklevel import cli, graphs, sweep
from walklevel.fixtures import verify_manifest
from walklevel.graphs import walk_matrix
from walklevel.intmat import det
from walklevel.sweep import SweepConfig, derive_stream, random_graph

HERE = Path(__file__).resolve().parent
FIXTURE_DIR = HERE.parent / "src" / "walklevel" / "fixtures"

# Graphs per pass, full and quick (--quick, used by the benchmark's own test).
SIZES = {
    "sweep_small": (1000, 30),
    "sweep_factor": (24, 3),
    "profile_large": (8, 2),
    "mates_cli": (60, 3),
}
PROFILE_ORDERS = (24, 25, 26, 27)
PROFILE_PRIMES = (2, 3, 5, 7)
# Seed of the fixed pools of sweep_factor, profile_large and mates_cli. Their
# per-graph cost is heavy-tailed, so a pool that fits in one run is a fixed
# sample and --seed draws only the sweep_small graphs (see README.md).
POOL_SEED = 42
MAX_ATTEMPTS = 1000


@dataclass(frozen=True)
class Item:
    gid: str   # graph id, used in spans and failure reports
    arg: Any   # what the timed operation receives
    src: Any   # what the checks need to know about the input


@dataclass(frozen=True)
class Workload:
    name: str
    items: list[Item]
    op: Callable[[Any], Any]
    record: Callable[[Any], dict]


def _identity(rec: dict) -> dict:
    return rec


def _sweep_slot(config: SweepConfig, index: int) -> dict:
    return sweep.sweep_one(config, index)


def _sweep(name: str, config: SweepConfig, slots: list[int]) -> Workload:
    items = [Item(f"slot{i}", i, i) for i in slots]
    return Workload(name, items, partial(_sweep_slot, config), _identity)


def sweep_small(seed: int, count: int) -> Workload:
    config = SweepConfig(n_min=6, n_max=12, seed=seed, mates=True)
    return _sweep("sweep_small", config, list(range(count)))


def sweep_factor(seed: int, count: int) -> Workload:
    config = SweepConfig(n_min=14, n_max=16, seed=POOL_SEED, mates=False)
    return _sweep("sweep_factor", config, list(range(count)))


def _controllable_graph(index: int, n: int):
    for attempt in range(MAX_ATTEMPTS):
        g = random_graph(derive_stream(POOL_SEED, index, attempt), n, 1, 2)
        if det(walk_matrix(g)):
            return g
    raise RuntimeError(f"no controllable graph for index {index} within {MAX_ATTEMPTS} draws")


def _profile(g):
    return graphs.walk_profile(g, primes=PROFILE_PRIMES)


def _profile_record(prof) -> dict:
    return prof.as_dict()


def profile_large(seed: int, count: int) -> Workload:
    items = []
    for i in range(count):
        g = _controllable_graph(i, PROFILE_ORDERS[i % len(PROFILE_ORDERS)])
        items.append(Item(f"g{i}-n{g.n}", g, [list(row) for row in g.adj]))
    return Workload("profile_large", items, _profile, _profile_record)


def read_pool(path: Path = HERE / "mates_pool.txt") -> list[tuple[int, str, list[int]]]:
    """(slot, graph6, levels) for each line of the mates pool file."""
    pool = []
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            slot, g6, levels = line.split()
            pool.append((int(slot), g6, [int(x) for x in levels.split(",")]))
    return pool


def run_cli(arg: tuple[str, list[str]]) -> tuple[int, str]:
    """``walklevel.cli.main(argv)`` with ``text`` on stdin; returns (code, stdout)."""
    text, argv = arg
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _cli_record(result: tuple[int, str]) -> dict:
    code, text = result
    return {"code": code, "stdout": text}


def mates_cli(seed: int, count: int) -> Workload:
    verify_manifest()
    fixture = (FIXTURE_DIR / "g10_adjacency.txt").read_text()
    items = [Item("fixture", (fixture, ["mates", "-", "--json"]),
                  {"fixture": True, "text": fixture, "levels": [3, 9]})]
    for slot, g6, levels in read_pool()[: count - 1]:
        argv = ["mates", "-", "--levels", ",".join(map(str, levels)), "--json"]
        items.append(Item(f"pool{slot}", (g6 + "\n", argv),
                          {"fixture": False, "g6": g6, "levels": levels}))
    return Workload("mates_cli", items, run_cli, _cli_record)


BUILDERS = {
    "sweep_small": sweep_small,
    "sweep_factor": sweep_factor,
    "profile_large": profile_large,
    "mates_cli": mates_cli,
}


def build(name: str, seed: int, quick: bool) -> Workload:
    return BUILDERS[name](seed, SIZES[name][1 if quick else 0])


def canonical(rec: dict) -> str:
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))

