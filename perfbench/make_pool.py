"""Regenerate ``mates_pool.txt``, the graph list of the ``mates_cli`` workload.

The pool is every graph on which ``sweep_one`` (the ``sweep_small``
configuration: n 6-12, edge probability 1/2, mates on, library defaults)
finds at least one class, taken in slot order from the given sweep seed
until ``--count`` graphs are collected. Each line is

    <slot> <graph6> <levels>

where <levels> are the odd prime-power levels the sweep searched for that
graph, comma-separated; ``mates_cli`` passes them to ``walklevel mates
--levels``. Run from the repository root:

    python3 perfbench/make_pool.py --seed 42 --count 100 > perfbench/mates_pool.txt
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from walklevel.sweep import SweepConfig, sweep_one  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--count", type=int, default=100)
    args = parser.parse_args()
    config = SweepConfig(n_min=6, n_max=12, seed=args.seed, mates=True)
    print(f"# sweep_one(SweepConfig(n_min=6, n_max=12, seed={args.seed}, mates=True), slot)")
    print("# slot graph6 levels")
    found = 0
    slot = 0
    while found < args.count:
        rec = sweep_one(config, slot)
        search = rec.get("search")
        if search and search["classes"]:
            levels = ",".join(str(x) for x in search["levels"])
            print(f"{slot} {rec['graph6']} {levels}", flush=True)
            found += 1
        slot += 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
