"""One benchmark workload, run in a fresh process by ``run.py``.

The process sets up (imports tosda from the checkout's ``src``, builds the
array, makes one warm-up call), then runs its share of the timed passes
for ``--seconds``, checks every output and prints one JSON object as its
last line of standard output.  With ``--trace 1`` it alternates untraced
and traced passes of the same inputs and reports per-layer metrics
instead.

Only the standard library is imported before the set-up clock starts, so
``setup_s`` includes the import of numpy and scipy that tosda pulls in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference"
OUT = HERE / "out"

DEFAULT_SEED = 1
_WARMUP_INDEX = 2**31  # seed stream of the warm-up call, never a pass index


def pass_seed(seed: int, index: int) -> int:
    """Master seed of pass ``index``: distinct passes draw distinct trials."""
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass(frozen=True)
class MonteCarlo:
    """``monte_carlo`` on a TO-SDA array, as ``tosda simulate`` runs it.

    One pass is one ``monte_carlo`` call over the SNR sweep.  Passes below
    ``min_passes`` always run; accuracy covers exactly those, so it does
    not depend on machine speed.  The warm-up is one trial at the first
    sweep point, always at :data:`DEFAULT_SEED`.
    """

    variant: str
    sensors: int
    snapshots: int
    n_sources: int
    coupling: bool
    snr_db: tuple
    trials_per_point: int
    threads: int
    grid_step_deg: float
    min_passes: int
    span_deg: tuple = (-60.0, 60.0)

    trial_start = "simulator.synthesize_snapshots"
    stages = (
        "simulator.synthesize_snapshots",
        "simulator.sample_third_cumulants",
        "simulator.virtual_array_vector",
        "simulator.ss_music",
    )
    warmup_ops = 1

    @property
    def ops_per_pass(self) -> int:
        return len(self.snr_db) * self.trials_per_point

    def truth(self):
        import numpy as np

        return np.linspace(self.span_deg[0], self.span_deg[1], self.n_sources)

    def setup(self, tosda):
        array, _ = tosda.geometry.build_to_sda(self.variant, self.sensors)
        coupling = tosda.metrics.CouplingModel() if self.coupling else None
        return array, coupling

    def warmup(self, tosda, state, threads: int):
        """Runs to_eca, fills the steering cache and starts the BLAS and
        worker threads."""
        return self._call(tosda, state, pass_seed(DEFAULT_SEED, _WARMUP_INDEX),
                          self.snr_db[:1], 1, threads)

    def run(self, tosda, state, seed: int, index: int, threads: int):
        return self._call(tosda, state, pass_seed(seed, index), self.snr_db,
                          self.trials_per_point, threads)

    def _call(self, tosda, state, master_seed, snr_db, trials, threads):
        array, coupling = state
        scene = tosda.simulator.SourceScene(
            angles_deg=tuple(self.truth()),
            snr_db=float(snr_db[0]),
            snapshots=self.snapshots,
            seed=master_seed,
        )
        return tosda.simulator.monte_carlo(
            array, scene, ("snr", list(snr_db)), trials=trials, coupling=coupling,
            grid_step_deg=self.grid_step_deg, threads=threads,
        )

    def estimates(self, out):
        """points x trials x sources matrix of one call's estimates."""
        import numpy as np

        return np.stack([stats.per_trial_estimates for stats in out])

    def fingerprint(self, out) -> bytes:
        return self.estimates(out).tobytes()

    def reference_for(self, data, seed: int, index):
        """Reference estimates of pass ``index``, or of the warm-up when
        ``index`` is None.  Passes are pinned at the default seed only."""
        if index is None:
            return data["warmup"]
        if seed != DEFAULT_SEED or index >= len(data["passes"]):
            return None
        return data["passes"][index]

    def check(self, out, reference) -> list[str]:
        """One message per failed trial: wrong shape, unsorted, non-finite,
        or further than one grid step from ``reference`` when given."""
        import numpy as np

        est = self.estimates(out)
        if reference is None:
            want = (len(self.snr_db), self.trials_per_point, self.n_sources)
        else:
            reference = np.asarray(reference)
            want = reference.shape
        if est.shape != want:
            return [f"estimates have shape {est.shape}, expected {want}"] * (want[0] * want[1])
        problems = []
        for p, t in np.ndindex(est.shape[:2]):
            row = est[p, t]
            if not np.all(np.isfinite(row)) or np.any(np.diff(row) < 0):
                problems.append(f"snr {self.snr_db[p]} trial {t}: not sorted and finite: {row}")
            elif reference is not None and np.max(
                np.abs(row - reference[p, t])
            ) > self.grid_step_deg * (1 + 1e-9):
                problems.append(
                    f"snr {self.snr_db[p]} trial {t}: {row} differs from the "
                    f"reference {reference[p, t]} by more than the grid step"
                )
        return problems

    def accuracy(self, outs) -> dict:
        """Error sums over all trials of ``outs``, to be pooled by run.py.

        A trial is unresolved when some estimate lies further than half
        the minimum source spacing from its true angle.
        """
        import numpy as np

        est = np.concatenate([self.estimates(out).reshape(-1, self.n_sources)
                              for out in outs if out is not None])
        truth = self.truth()
        err = np.abs(est - truth[None, :])
        half_spacing = np.min(np.diff(truth)) / 2
        return {
            "squared_error_deg2": float(np.sum(err**2)),
            "estimates": int(err.size),
            "unresolved": int(np.count_nonzero(np.any(err > half_spacing, axis=1))),
            "trials": int(est.shape[0]),
        }

    def reference_data(self, warmup, passes) -> dict:
        return {"seed": DEFAULT_SEED,
                "warmup": self.estimates(warmup).tolist(),
                "passes": [self.estimates(out).tolist() for out in passes]}


@dataclass(frozen=True)
class Sweep:
    """``dof_sweep``, as ``tosda sweep`` runs it: one pass is one full
    sweep, and each row of the DOF table is one operation.  The warm-up
    sweeps the first N only."""

    variants: tuple
    n_values: tuple
    min_passes: int

    trial_start = "designer.dof_sweep"
    stages = ("designer.brute_force_split",)
    threads = 1  # dof_sweep has no thread parameter

    @property
    def ops_per_pass(self) -> int:
        return len(self.variants) * len(self.n_values)

    @property
    def warmup_ops(self) -> int:
        return len(self.variants)

    def setup(self, tosda):
        return None

    def warmup(self, tosda, state, threads: int):
        """Fills the minimum-sensor cache of every variant."""
        return tosda.designer.dof_sweep(self.variants, self.n_values[:1])

    def run(self, tosda, state, seed: int, index: int, threads: int):
        return tosda.designer.dof_sweep(self.variants, self.n_values)

    @staticmethod
    def rows(out) -> dict:
        return {(r.variant, r.N): {
            "variant": r.variant, "N": r.N, "N1": r.N1, "N2": r.N2, "M1": r.M1,
            "M2": r.M2, "J": r.J, "dof_closed": r.dof_closed,
            "dof_brute": r.dof_brute, "agreement": r.agreement,
        } for r in out}

    def fingerprint(self, out) -> bytes:
        return json.dumps(list(self.rows(out).values()), sort_keys=True).encode()

    def reference_for(self, data, seed: int, index):
        """The rows the call must return: every row of the committed
        table, or those of the first N for the warm-up."""
        rows = {(r["variant"], r["N"]): r for r in data["rows"]}
        if index is None:
            return {key: r for key, r in rows.items() if key[1] == self.n_values[0]}
        return rows

    def check(self, out, reference) -> list[str]:
        """One message per row that is missing, extra or different."""
        got = self.rows(out)
        return [f"DOF row {got.get(key)} differs from the reference {reference.get(key)}"
                for key in sorted(reference.keys() | got.keys())
                if got.get(key) != reference.get(key)]

    def accuracy(self, outs) -> dict:
        """Closed-form vs brute-force disagreements in one pass's table."""
        rows = [row for out in outs[:1] if out is not None
                for row in self.rows(out).values()]
        return {"rows": len(rows),
                "disagreements": sum(not row["agreement"] for row in rows)}

    def reference_data(self, warmup, passes) -> dict:
        return {"rows": list(self.rows(passes[0]).values())}


WORKLOADS = {
    "mc-cna9": MonteCarlo("cna", 9, 12000, 12, coupling=True, snr_db=(-10.0, 0.0, 10.0),
                          trials_per_point=20, threads=2, grid_step_deg=0.01, min_passes=3),
    "mc-cna24": MonteCarlo("cna", 24, 12000, 12, coupling=False, snr_db=(0.0,),
                           trials_per_point=1, threads=1, grid_step_deg=0.01, min_passes=3),
    "design-sweep": Sweep(("cna", "scna", "tna2"), tuple(range(4, 25)), min_passes=1),
}

# Same code paths on tiny inputs, for the benchmark's own tests.
SMOKE = {
    "mc-cna9": MonteCarlo("cna", 5, 600, 4, coupling=True, snr_db=(-10.0, 0.0, 10.0),
                          trials_per_point=2, threads=2, grid_step_deg=0.5, min_passes=2),
    "mc-cna24": MonteCarlo("cna", 6, 600, 4, coupling=False, snr_db=(0.0,),
                           trials_per_point=1, threads=1, grid_step_deg=0.5, min_passes=2),
    "design-sweep": Sweep(("cna", "scna", "tna2"), tuple(range(4, 8)), min_passes=1),
}


def reference_path(workload: str, smoke: bool) -> Path:
    return REFERENCE / f"{workload}{'.smoke' if smoke else ''}.json"


def load_reference(workload: str, smoke: bool) -> dict:
    return json.loads(reference_path(workload, smoke).read_text(encoding="utf-8"))


def import_package():
    """Import tosda from the checkout's ``src``, never from site-packages."""
    sys.path.insert(0, str(SRC))
    import tosda

    if Path(tosda.__file__).resolve().parent != SRC / "tosda":
        raise SystemExit(f"tosda imported from {tosda.__file__}, not from {SRC}")
    return tosda


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "TOSDA_THREADS"):
        env[var] = os.environ.get(var)
    env["seed"] = seed
    return env


class Runner:
    """Runs the calls of one workload and tallies operations and failures."""

    def __init__(self, tosda, cfg, state, seed: int, threads: int, reference: dict):
        self.tosda, self.cfg, self.state = tosda, cfg, state
        self.seed, self.threads, self.reference = seed, threads, reference
        self.attempted = 0
        self.failures: list[str] = []

    def attempt(self, label: str, ops: int, call, reference):
        """Run ``call`` and check its output; returns (output, seconds).

        An exception fails all ``ops`` operations and gives output None.
        """
        self.attempted += ops
        start = time.perf_counter()
        try:
            out = call()
        except Exception:
            seconds = time.perf_counter() - start
            self.failures += [f"{label}: " + traceback.format_exc(limit=3)] * ops
            return None, seconds
        seconds = time.perf_counter() - start
        self.failures += [f"{label}: {msg}" for msg in self.cfg.check(out, reference)]
        return out, seconds

    def warmup(self, threads: int):
        """The set-up's warm-up call, checked against its reference on
        every run: it is made at the default seed whatever ``--seed`` is."""
        cfg = self.cfg
        return self.attempt(
            "warm-up", cfg.warmup_ops,
            lambda: cfg.warmup(self.tosda, self.state, threads),
            cfg.reference_for(self.reference, DEFAULT_SEED, None))

    def run_pass(self, index: int, threads: int):
        cfg = self.cfg
        return self.attempt(
            f"pass {index}", cfg.ops_per_pass,
            lambda: cfg.run(self.tosda, self.state, self.seed, index, threads),
            cfg.reference_for(self.reference, self.seed, index))

    def result(self) -> dict:
        return {"attempted": self.attempted, "failed": len(self.failures),
                "failures": self.failures[:5]}


def fingerprint(cfg, out):
    return None if out is None else cfg.fingerprint(out)


def digest(cfg, out) -> str:
    return hashlib.sha256(fingerprint(cfg, out) or b"failed").hexdigest()


def measure(runner: Runner, seconds: float, part: int, parts: int) -> dict:
    """Untraced passes ``part``, ``part + parts``, ... for ``seconds``.

    Every process runs at least one pass, and passes below ``min_passes``
    run whatever the time.  Returns the time of each pass, the accuracy
    sums of the passes below ``min_passes`` and, from the process that
    ran pass 0, the digest of its outputs.
    """
    cfg = runner.cfg
    pass_times, first_outs, result = [], [], {}
    start = time.perf_counter()
    index = part
    while (index == part or index < cfg.min_passes
           or time.perf_counter() - start < seconds):
        out, seconds_taken = runner.run_pass(index, runner.threads)
        pass_times.append(seconds_taken)
        if index < cfg.min_passes:
            first_outs.append(out)
        if index == 0:
            result["digest"] = digest(cfg, out)
        index += parts
    result.update(ops_per_pass=cfg.ops_per_pass, pass_times=pass_times,
                  accuracy=cfg.accuracy(first_outs) if first_outs else None)
    return result


def measure_traced(runner: Runner, tracer: tracing.Tracer, seconds: float) -> dict:
    """Pairs of untraced and traced passes of the same inputs.

    The traced pass runs on one thread and must reproduce the untraced
    pass bit for bit; a mismatch fails the pass's operations.
    """
    cfg = runner.cfg
    walls, single_walls = [], []
    disagreements = 0
    start = time.perf_counter()
    index = 0
    tracer.phase = "run"
    while index < 1 or time.perf_counter() - start < seconds:
        plain, wall = runner.run_pass(index, runner.threads)
        walls.append(wall)
        single_walls.append(runner.run_pass(index, 1)[1] if runner.threads > 1 else wall)
        with tracer.active(), tracer.span("bench.pass"):
            traced, _ = runner.run_pass(index, 1)
        if index == 0:
            first_digest = digest(cfg, traced)
        if fingerprint(cfg, plain) != fingerprint(cfg, traced):
            runner.failures += [f"pass {index}: traced outputs differ from untraced"] * (
                cfg.ops_per_pass)
        if isinstance(cfg, Sweep):
            disagreements = cfg.accuracy([traced])["disagreements"]
        index += 1
    metrics = tracing.layer_metrics(
        tracer.spans, index, cfg.stages, runner.threads, walls, single_walls, disagreements,
    )
    return {"passes": index, "metrics": metrics, "digest": first_digest}


def main(argv=None) -> int:
    clock = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--part", type=int, default=0,
                        help="this process runs passes part, part + parts, ...")
    parser.add_argument("--parts", type=int, default=1)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 0 <= args.part < args.parts:
        parser.error("need --seed >= 0 and 0 <= --part < --parts")
    cfg = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    # never more worker threads than cores; results do not depend on it
    threads = min(cfg.threads, len(os.sched_getaffinity(0)))

    tosda = import_package()
    tracer = tracing.Tracer(tosda, cfg.trial_start) if args.trace else None
    runner = Runner(tosda, cfg, None, args.seed, threads,
                    load_reference(args.workload, args.smoke))
    with tracer.active() if tracer else nullcontext():
        runner.state = cfg.setup(tosda)
        runner.warmup(1 if tracer else threads)
    setup_s = time.perf_counter() - clock
    result = {"setup_s": setup_s, "env": environment(args.seed)}
    if tracer:
        result.update(measure_traced(runner, tracer, args.seconds))
        OUT.mkdir(exist_ok=True)
        tag = "-smoke" if args.smoke else ""
        spans_file = OUT / f"spans-{args.workload}{tag}-seed{args.seed}.json"
        tracer.dump(spans_file)
        result["spans_file"] = str(spans_file.relative_to(HERE.parent))
    else:
        result.update(measure(runner, args.seconds, args.part, args.parts))
    result.update(runner.result())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
