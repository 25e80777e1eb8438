"""Regenerate the committed reference outputs under perfbench/reference/.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter the outputs, and say so in
the change: the references pin the DOF table, and the Monte-Carlo
estimates of the warm-up and of the first passes at the default seed,
for the full and the smoke workloads.
"""

from __future__ import annotations

import json
import os

import workload


def main() -> None:
    tosda = workload.import_package()
    workload.REFERENCE.mkdir(exist_ok=True)
    for smoke, table in ((False, workload.WORKLOADS), (True, workload.SMOKE)):
        for name, cfg in table.items():
            threads = min(cfg.threads, len(os.sched_getaffinity(0)))
            state = cfg.setup(tosda)
            warmup = cfg.warmup(tosda, state, threads)
            passes = [cfg.run(tosda, state, workload.DEFAULT_SEED, i, threads)
                      for i in range(cfg.min_passes)]
            data = cfg.reference_data(warmup, passes)
            path = workload.reference_path(name, smoke)
            path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
            print(f"wrote {path}")


if __name__ == "__main__":
    main()
