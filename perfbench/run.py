"""walklevel benchmark: one workload per call, end to end or per module.

    python3 perfbench/run.py --workload sweep_small --seed 1 --seconds 15 --trace 0

Workloads: sweep_small, sweep_factor, profile_large, mates_cli (see
README.md). Each run starts one fresh interpreter with a fixed
PYTHONHASHSEED that sets up, warms up, times and checks (``worker.py``).
With ``--trace 0`` it also starts a set-up-only interpreter after each
timed pass; ``setup_s`` is the median set-up time of all of them. With
``--trace 1`` it prints the per-module metrics and the tracing overhead
instead of the end-to-end metrics.

Every metric is printed by name with its unit; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics. A
results file with the git revision, nproc, the Python version and every
metric goes to ``perfbench/results/`` (spans of a traced run next to it).
Exit status: 0 when every operation ran and passed its checks, 1 when some
failed (the result is still printed), 2 when no result could be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("sweep_small", "sweep_factor", "profile_large", "mates_cli")
DEADLINE_S = 170          # the whole run, set-up interpreters included
HASH_SEED = "0"


def spawn(args, extra: list[str]) -> tuple[int, dict | None]:
    """Run worker.py in a fresh interpreter; (exit code, its last JSON line)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace), *(["--quick"] if args.quick else []), *extra]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    t0 = time.monotonic()
    # its own session, so that a timeout also ends the set-up interpreters it starts
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write(f"{args.workload}: worker did not finish before the deadline\n")
        return 2, None
    lines = stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description="walklevel benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the sweep_small graphs (the other pools are fixed)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed passes continue until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, one timed pass")
    args = parser.parse_args()

    RESULTS.mkdir(exist_ok=True)
    label = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    spans = RESULTS / f"spans-{label}.jsonl"
    code, out = spawn(args, ["--spans", str(spans)] if args.trace else [])
    if code not in (0, 1) or out is None:
        return 2

    result = {key: out[key] for key in ("correct", "attempted", "failed", "metrics")}

    record = {
        "label": label,
        "git_revision": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "args": vars(args),
        **result,
        "info": out["info"],
    }
    (RESULTS / f"BENCH_{label}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, m in result["metrics"].items():
        print(f"{args.workload:14s} {name:44s} {m['value']:14.4f} {m['unit']}")
    print(f"{args.workload:14s} attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
