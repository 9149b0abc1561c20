"""One workload in one fresh interpreter: set up, warm up, time, check.

Started by ``run.py``; not meant to be run by hand. ``--t0`` is the
``time.monotonic()`` reading taken just before this process was spawned,
so set-up time covers interpreter start, importing ``walklevel`` from the
checkout's ``src/`` and building the inputs. With ``--setup-only`` the
process stops there and prints ``{"setup_s": ...}``.

Otherwise it makes one untimed warm-up pass over the inputs, runs
``gc.collect()`` and ``gc.freeze()``, then makes timed passes until
``--seconds`` have passed (at least ``MIN_PASSES``). After timing it checks
the warm-up's outputs (see ``checks.py``; they import sympy and networkx,
which would otherwise weigh on the peak RSS). An operation of a timed pass
succeeds when it did not raise, its output is byte-identical to the
warm-up's output for that graph, and that output passed the checks.
Between timed passes of an untraced run the worker starts a set-up-only
interpreter and waits for it, so the set-up samples are spread over the
whole run. With ``--trace 1`` each graph of a
pass runs twice back to back, untraced and traced, in alternating order,
so a change of the host's speed hits both alike. The last line printed is
one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

MIN_PASSES = (3, 1)        # least number of timed passes: normal, quick
MAX_REPORTED_ERRORS = 20
# A warm-up much slower than the timed passes means the library keeps
# results between calls, which the repeated inputs of the timed passes hit.
WARMUP_RATIO_WARN = 2.0


def import_library():
    """Import walklevel from this checkout's src/, and from nowhere else."""
    import walklevel
    if not Path(walklevel.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"walklevel imported from {walklevel.__file__}, not from {SRC}")


class Failure:
    """Stands in for the output of an operation that raised."""

    def __init__(self, text: str):
        self.text = text.strip().splitlines()[-1]


def timed(op, arg) -> tuple[float, object]:
    t = time.perf_counter()
    try:
        out = op(arg)
    except Exception:  # an operation that raised counts as failed; keep going
        out = Failure(traceback.format_exc())
    return time.perf_counter() - t, out


def run_pass(wl, tracer=None, label: str = "", flip: int = 0):
    """Run every graph once: {traced: (times, outputs)}, with traced runs only
    when a tracer is given."""
    runs = {False: ([], [])} if tracer is None else {False: ([], []), True: ([], [])}
    if tracer is not None:
        tracer.start_pass()
    for k, item in enumerate(wl.items):
        for traced in sorted(runs, reverse=bool((k + flip) % 2)):
            if traced:
                tracer.graph_id = f"{label}/{item.gid}"
                tracer.install()
                try:
                    t, out = timed(wl.op, item.arg)
                finally:
                    tracer.uninstall()
            else:
                t, out = timed(wl.op, item.arg)
            runs[traced][0].append(t)
            runs[traced][1].append(out)
    return runs


def digest(wl, out) -> str | None:
    """sha256 of the output's canonical record; None for an operation that raised."""
    from workloads import canonical
    if isinstance(out, Failure):
        return None
    return hashlib.sha256(canonical(wl.record(out)).encode()).hexdigest()


def check_outputs(wl, outs) -> dict[str, list[str]]:
    """Graph id -> errors, for each warm-up output that failed a check."""
    import checks
    from workloads import PROFILE_PRIMES

    errors: dict[str, list[str]] = {}
    for item, out in zip(wl.items, outs):
        if isinstance(out, Failure):
            continue
        rec = wl.record(out)
        if wl.name.startswith("sweep_"):
            errs = checks.check_sweep(item.src, rec)
        elif wl.name == "profile_large":
            errs = checks.check_profile_large(item.src, rec, PROFILE_PRIMES)
        else:
            errs = checks.check_mates(item.src, rec)
        if errs:
            errors[item.gid] = errs
    return errors


def setup_once(args) -> float:
    """Set-up time of a fresh interpreter that builds the inputs and stops."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only",
           *(["--quick"] if args.quick else [])]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE, text=True,
                          check=True, timeout=60)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--spans", help="file for the traced run's spans")
    args = parser.parse_args()

    import_library()
    from workloads import build

    wl = build(args.workload, args.seed, args.quick)
    setups = [time.monotonic() - args.t0]
    if args.setup_only:
        print(json.dumps({"setup_s": setups[0]}))
        return 0

    warm_times, first = run_pass(wl)[False]
    ref = [digest(wl, out) for out in first]
    errors = {item.gid: [f"warm-up: {out.text}"]
              for item, out in zip(wl.items, first) if isinstance(out, Failure)}
    wrong = set()   # graphs with an output that did not raise but is wrong
    gc.collect()
    gc.freeze()

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    min_passes = MIN_PASSES[args.quick]
    runs = {False: [], True: []}   # per-graph times of each timed pass, untraced and traced
    attempted = failed = 0
    matched = [0] * len(wl.items)   # timed runs of each graph that gave the warm-up's output
    start = time.perf_counter()
    while len(runs[False]) < min_passes or time.perf_counter() - start < args.seconds:
        k = len(runs[False])
        for traced, (times, outs) in run_pass(wl, tracer, f"pass{k}", k).items():
            runs[traced].append(times)
            for i, (item, out, want) in enumerate(zip(wl.items, outs, ref)):
                attempted += 1
                if want is not None and digest(wl, out) == want:
                    matched[i] += 1
                    continue
                failed += 1
                if not isinstance(out, Failure):
                    wrong.add(item.gid)
                why = out.text if isinstance(out, Failure) else "output differs from the warm-up"
                errors.setdefault(item.gid, [f"pass {k}{' traced' if traced else ''}: {why}"])
        if tracer is None:
            setups.append(setup_once(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # A warm-up output that fails a check fails every timed run that repeated it.
    for gid, errs in check_outputs(wl, first).items():
        i = next(k for k, item in enumerate(wl.items) if item.gid == gid)
        failed += matched[i]
        wrong.add(gid)
        errors.setdefault(gid, errs)

    for gid, errs in list(errors.items())[:MAX_REPORTED_ERRORS]:
        sys.stderr.write(f"{wl.name} {gid}: {errs}\n")
    good = [i for i, item in enumerate(wl.items) if item.gid not in errors]
    if not good:
        sys.stderr.write(f"{wl.name}: every graph failed\n")
        return 2

    def per_graph(passes):
        """Each good graph's median over the passes."""
        return [statistics.median(times[i] for times in passes) for i in good]

    plain = per_graph(runs[False])
    graphs_per_s = len(plain) / sum(plain)
    warmup_ratio = sum(warm_times[i] for i in good) / sum(plain)
    if warmup_ratio > WARMUP_RATIO_WARN:
        sys.stderr.write(f"{wl.name}: the warm-up took {warmup_ratio:.1f} times the timed "
                         "passes; a cache kept between calls may be timed as hits\n")
    if tracer is None:
        p90 = plain[0] if len(plain) < 2 else statistics.quantiles(plain, n=10,
                                                                    method="inclusive")[8]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "graphs_per_s": (graphs_per_s, "1/s"),
            "graph_p50_ms": (statistics.median(plain) * 1e3, "ms"),
            "graph_p90_ms": (p90 * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        from spans import metric_names
        traced_rate = len(good) / sum(per_graph(runs[True]))
        values = tracer.metrics()
        values["trace.graphs_per_s"] = traced_rate
        values["trace.untraced_graphs_per_s"] = graphs_per_s
        values["trace.overhead_pct"] = (graphs_per_s / traced_rate - 1) * 100
        values["trace.warmup_ratio"] = warmup_ratio
        metrics = {name: (values[name], unit) for name, unit in metric_names().items()}
        if args.spans:
            tracer.write_spans(args.spans)

    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "info": {
            "graphs_per_pass": len(wl.items),
            "timed_passes": len(runs[False]),
            "setup_s_runs": setups,
            "warmup_s": sum(warm_times),
            "pass_s": [sum(times) for times in runs[False]],
            "traced_pass_s": [sum(times) for times in runs[True]],
            "per_graph_ms": {wl.items[i].gid: t * 1e3 for i, t in zip(good, plain)},
            "errors": errors,
        },
    }
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
