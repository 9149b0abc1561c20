#!/usr/bin/env python3
"""Seeded random sweep: hunt for violations that should never exist.

Samples binomial random graphs, keeps the controllable ones, and for every
odd prime p with corank-1 rank condition searches all levels the older
valuation-minus-one ceiling allows. If any matrix ever exceeded the
half-valuation bound, or any witness failed its lemma conclusions, or any
graph beat its mate-count bound, the report would flag it; zero findings is
the expected (and asserted-in-tests) outcome. Identical seeds give
byte-identical JSON.

Run:  python demos/05_random_sweep.py [seed]
"""

import sys

from walklevel import SweepConfig, run_sweep
from walklevel.sweep import report_json

BANNER = "=" * 64


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 42
    config = SweepConfig(n_min=6, n_max=10, graph_count=200, seed=seed)
    print(BANNER)
    print(f"sweep: {config.graph_count} slots, "
          f"n in [{config.n_min}, {config.n_max}], seed {seed}")
    print(BANNER)

    report = run_sweep(config)
    agg = report["aggregate"]

    print("\nacceptance statistics (controllability rejection sampling):")
    for n, stats in agg["controllable_acceptance"].items():
        rate = stats["accepted"] / stats["attempts"]
        print(f"  n={n}: {stats['accepted']}/{stats['attempts']} draws accepted "
              f"({rate:.0%})")

    print("\nbound rules fired across the sample:")
    for rule, count in agg["rules_fired"].items():
        print(f"  {rule}: {count}")

    print(f"\nsearched {agg['searched']} graphs at nontrivial levels;")
    print(f"  classes found: {agg['classes_found']}, distinct mates: "
          f"{agg['mates_found']}, witnesses verified: {agg['witnesses_checked']}")
    print(f"  max observed level valuation by prime: {agg['max_observed_by_prime']}")

    print("\nviolation counters (all must stay zero):")
    print(f"  half-valuation bound: {len(agg['bound_violations'])}")
    print(f"  lemma conclusions:    {len(agg['lemma_failures'])}")
    print(f"  mate-count bounds:    {len(agg['mate_bound_violations'])}")
    print(f"  refined conjecture:   {len(agg['conjecture_violations'])} "
          f"(findings only, never asserted)")

    blob = report_json(report)
    print(f"\ncanonical JSON report: {len(blob)} bytes "
          f"(byte-identical for identical seed+config)")


if __name__ == "__main__":
    main()
