"""Benchmark of tosda: Monte-Carlo DOA throughput and the exhaustive design sweep.

    python3 perfbench/run.py --workload mc-cna9 --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md): ``mc-cna9``, ``mc-cna24`` and
``design-sweep``.  With ``--trace 0`` this process starts ``PROCESSES``
fresh workload processes one after another.  Each sets up, which gives
the ``setup_s`` samples, and runs an interleaved share of the timed
passes, so the timed passes spread over the whole run.  The last line of
standard output is the end-to-end result.  With ``--trace 1`` one
process makes a traced run and the last line is the per-layer result.
``--smoke`` swaps in tiny inputs for the benchmark's tests.
The exit code is 0 whenever a result is printed, also when ``correct`` is
false; it is 2 when the checkout holds no ``src/tosda`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workload

HERE = Path(__file__).resolve().parent
PROCESSES = 3
DEADLINE_S = 170  # the whole command must end within 180 s


def run_child(args: list[str], deadline: float) -> dict:
    """Run workload.py in a fresh process and parse its last stdout line."""
    cmd = [sys.executable, str(HERE / "workload.py"), *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit(f"workload process exceeded the {DEADLINE_S} s deadline: {cmd}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"workload process failed with exit code {proc.returncode}: {cmd}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pool(children: list[dict]) -> dict:
    """Combine the workload processes of one untraced run.

    ``pass_s`` is the median pass time over the passes of all processes:
    one ``monte_carlo`` call, or one full ``dof_sweep``.
    """
    pass_times = [t for child in children for t in child["pass_times"]]
    ops = children[0]["ops_per_pass"]
    pass_s = statistics.median(pass_times)
    accuracy = {}
    for child in children:
        for key, value in (child["accuracy"] or {}).items():
            accuracy[key] = accuracy.get(key, 0) + value
    return {
        "ops_per_pass": ops,
        "passes": len(pass_times),
        "pass_s": pass_s,
        "ops_per_s": ops / pass_s,
        "pass_quartiles": statistics.quantiles(pass_times, n=4),
        "accuracy": accuracy,
        "setups": [child["setup_s"] for child in children],
        "peak_rss_mb": max(child["peak_rss_mb"] for child in children),
        "digest": next(child["digest"] for child in children if "digest" in child),
    }


def report_lines(name: str, run: dict) -> list[str]:
    """Human-readable end-to-end metrics, with units and sample counts."""
    lines = []
    acc = run["accuracy"]
    q1, _, q3 = run["pass_quartiles"]
    if name.startswith("mc-"):
        lines += [
            f"trials_per_s     {run['ops_per_s']:.4f} 1/s  (median of {run['passes']} "
            f"passes of {run['ops_per_pass']} trials; pass-time quartiles {q1:.3f}, {q3:.3f} s)",
            f"rmse_deg         {math.sqrt(acc['squared_error_deg2'] / acc['estimates']):.6f} "
            f"deg  (over the {acc['trials']} trials of the first passes)",
            f"unresolved_frac  {acc['unresolved'] / acc['trials']:.4f}  "
            f"({acc['unresolved']} of {acc['trials']} trials)",
        ]
    else:
        lines += [
            f"sweep_s          {run['pass_s']:.4f} s  (median of {run['passes']} sweeps of "
            f"{run['ops_per_pass']} rows; quartiles {q1:.3f}, {q3:.3f} s)",
            f"disagreements    {acc['disagreements']} of {acc['rows']} rows "
            f"(closed form != brute force)",
        ]
    setups = run["setups"]
    lines += [
        f"setup_s          {statistics.median(setups):.4f} s  (median of {len(setups)} "
        f"fresh processes: {', '.join(f'{s:.3f}' for s in setups)})",
        f"peak_rss_mb      {run['peak_rss_mb']:.1f} MB  (largest workload process)",
    ]
    return lines


def main(argv=None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workload.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workload.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (workload.SRC / "tosda" / "__init__.py").is_file():
        print(f"no tosda package under {workload.SRC}; nothing to benchmark",
              file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--trace", str(args.trace)]
    common += ["--smoke"] if args.smoke else []
    if args.trace:
        child = run_child(common + ["--seconds", str(args.seconds)], deadline)
        print("env: " + json.dumps(child["env"]))
        for name, metric in child["metrics"].items():
            print(f"{name:46s} {metric['value']:.6g} {metric['unit']}")
        print(f"traced passes {child['passes']}; outputs sha256 {child['digest']}; "
              f"spans in {child['spans_file']}")
        metrics = child["metrics"]
        children = [child]
    else:
        share = ["--seconds", str(args.seconds / PROCESSES), "--parts", str(PROCESSES)]
        children = [run_child(common + share + ["--part", str(part)], deadline)
                    for part in range(PROCESSES)]
        run = pool(children)
        print("env: " + json.dumps(children[0]["env"]))
        for line in report_lines(args.workload, run):
            print(f"{args.workload:13s} {line}")
        print(f"outputs sha256 {run['digest']}")
        metrics = {
            "ops_per_s": {"value": run["ops_per_s"], "unit": "1/s"},
            "setup_s": {"value": statistics.median(run["setups"]), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    attempted = sum(child["attempted"] for child in children)
    failed = sum(child["failed"] for child in children)
    for child in children:
        for failure in child["failures"]:
            print(f"FAILED: {failure}")
    print(f"{attempted} operations attempted, {failed} failed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
