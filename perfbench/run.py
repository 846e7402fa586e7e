"""majcirc benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (or `all` of them, each in its own process) from the root
of a checkout, importing the package from the checkout's `src/`.  Human-readable
lines come first; the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-module metrics with --trace 1.  Exits 1 when an op failed
its check, 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("sampled_block4096", "agree_corr1001", "exact_block25", "search_pipeline")
# The most worker processes any run uses (the worker-count check runs at 2).
MAX_WORKERS = 2


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return worst


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return _run_all(args)

    src = ROOT / "src"
    if not (src / "majcirc" / "__init__.py").is_file():
        print(f"error: no majcirc package under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy loads, so fix it first:
    # workers x BLAS threads must not exceed the processors.
    threads = str(max(1, (os.cpu_count() or 1) // MAX_WORKERS))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path[:0] = [str(src), str(HERE)]

    import majcirc
    if Path(majcirc.__file__).resolve().parent != (src / "majcirc").resolve():
        print(f"error: majcirc imported from {majcirc.__file__}, not {src}", file=sys.stderr)
        return 2
    import harness
    import workloads

    reference = json.loads((HERE / "reference.json").read_text())
    workload = workloads.full_workloads(reference)[args.workload]
    result = harness.run(workload, args.seed, args.seconds, bool(args.trace), HERE / "out")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
