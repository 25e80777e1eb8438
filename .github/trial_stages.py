"""Measure the stages of the trial that ``run_trial`` runs, for CNA N=9 with
coupling and CNA N=24 without (12 sources over [-60, 60] degrees,
K = 12000, 0 dB): ``synthesize_snapshots``, ``virtual_array_vector``,
``_signal_subspace``, ``_music_spectrum`` and ``_local_maxima``, the stage
functions ``run_trial`` and ``ss_music`` look up in ``simulator``.  Each is
wrapped there once, so every call records its wall time and the minor page
faults its own thread takes (``RUSAGE_THREAD``).

Per case, a table of each stage's median ms and faults per trial over a few
seeded ``run_trial`` calls on a 0.01 degree grid, trial 0 a warm-up that is
not counted, and of the rest of the trial: its wall time and faults less
its stages'.  Then the bytes of the cached grid and phasor row, the malloc
settings ``run_trial`` fixes, the process's peak RSS so far, and the
tracemalloc peak of one cold trial, which starts with an empty grid cache.
Last, per case, a fresh process for each line makes two ``monte_carlo``
calls and reports the second's trials/s and minor faults per trial, in all
and by stage, the rest being the process's remainder: at a 0.01 and a 0.1
degree grid on two workers and on one for N=9 (the benchmark's mc-cna9 runs
two, ``tosda simulate`` one by default), on one for N=24, as mc-cna24 runs
it, and on two workers for N=9 at 0.0002 degrees, whose 7.2 MB spectrum is
the largest per-trial array of these lines.  A fresh process sees only the
allocations of its own grid, as a ``tosda simulate`` run does.  Faults per
trial that climb from a handful to hundreds mean per-trial arrays are handed
back to the kernel and faulted in again, and the stage they land in shows.

Run from any directory: ``python .github/trial_stages.py [trials]``.
"""
import os, resource, subprocess, sys, time, tracemalloc
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, 'src'))
import numpy as np
from tosda import geometry, lagset, metrics, simulator

scene = simulator.SourceScene(tuple(np.linspace(-60.0, 60.0, 12)), 0.0, 12000)
grid_step = 0.01
CASES = {9: metrics.CouplingModel(), 24: None}
# the (workers, grid step) of each case's pool lines
POOL_LINES = {9: ((2, grid_step), (2, 0.1), (2, 0.0002), (1, grid_step), (1, 0.1)),
              24: ((1, grid_step), (1, 0.1))}
# the stages, in the order a trial runs them, and per stage the (wall ms,
# thread minor faults) of each call
STAGES = ('synthesize_snapshots', 'virtual_array_vector', '_signal_subspace',
          '_music_spectrum', '_local_maxima')
CALLS = {stage: [] for stage in STAGES}


def measured(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and its (wall ms, minor faults of this thread)."""
    faults, start = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt, time.perf_counter()
    out = fn(*args, **kwargs)
    return out, (1e3 * (time.perf_counter() - start),
                 resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - faults)


def recorded(stage, fn):
    def call(*args, **kwargs):
        out, cost = measured(fn, *args, **kwargs)
        CALLS[stage].append(cost)
        return out
    return call


for stage in STAGES:
    setattr(simulator, stage, recorded(stage, getattr(simulator, stage)))


def clear_calls():
    for calls in CALLS.values():
        calls.clear()


def stage_table(sensors, trials):
    """Each stage's median ms and faults per trial over ``trials`` warm
    ``run_trial`` calls, then the rest of the trial."""
    array, _ = geometry.build_to_sda('cna', sensors)
    trial = []
    for t in range(trials + 1):  # trial 0 warms up and is not counted
        if t == 1:
            clear_calls()
        trial.append(measured(simulator.run_trial, array, scene,
                              np.random.default_rng([2015, 0, t]),
                              coupling=CASES[sensors], grid_step_deg=grid_step)[1])
    rows = {stage: np.array(calls) for stage, calls in CALLS.items()}
    assert all(len(calls) == trials for calls in rows.values()), 'one call per stage per trial'
    rows['rest'] = np.array(trial[1:]) - sum(rows.values())
    print(f"CNA N={sensors} (m = {lagset.consecutive_z(array) + 1}, "
          f"coupling {'on' if CASES[sensors] else 'off'}), over {trials} run_trial calls:")
    for stage, calls in rows.items():
        print(f"  {stage:22s} {np.median(calls[:, 0]):8.2f} ms "
              f"{calls[:, 1].sum() / trials:8.1f} minor faults per trial")


def pool_line(sensors, workers, step, pool_trials):
    """Trials/s and minor faults per trial, in all and by stage, of the
    second of two ``monte_carlo`` calls; the first warms up the workers and
    the grid."""
    array, _ = geometry.build_to_sda('cna', sensors)
    for _ in range(2):
        clear_calls()
        faults, start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
        simulator.monte_carlo(array, scene, trials=pool_trials, coupling=CASES[sensors],
                              grid_step_deg=step, threads=workers)
    rate = pool_trials / (time.perf_counter() - start)
    total = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    by_stage = {stage: sum(f for _, f in calls) for stage, calls in CALLS.items()}
    by_stage['rest'] = total - sum(by_stage.values())
    print(f"  monte_carlo at {step:g} deg on {workers} worker(s), {pool_trials} trials: "
          f"{total / pool_trials:.0f} minor faults per trial, {rate:.1f} trials/s")
    print('    per trial by stage: ' + ', '.join(
        f"{stage} {count / pool_trials:.1f}" for stage, count in by_stage.items()), flush=True)


if sys.argv[1:2] == ['pool']:
    pool_line(*(int(a) if a.isdigit() else float(a) for a in sys.argv[2:]))
    sys.exit()
trials = int(sys.argv[1]) if len(sys.argv) > 1 else 5
for sensors, pool_lines in POOL_LINES.items():
    simulator._grid_and_steering.cache_clear()
    tracemalloc.start()
    simulator.run_trial(geometry.build_to_sda('cna', sensors)[0], scene,
                        np.random.default_rng([2015, 1, 0]), coupling=CASES[sensors],
                        grid_step_deg=grid_step)
    cold_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    stage_table(sensors, trials)
    grid, phasor = simulator._grid_and_steering(grid_step)
    print(f"  cached grid {grid.nbytes / 1e6:.2f} MB and phasor row "
          f"{phasor.nbytes / 1e6:.2f} MB; glibc malloc: mmap threshold "
          f"{simulator._MMAP_THRESHOLD / 2**20:g} MiB, trim threshold "
          f"{simulator._TRIM_THRESHOLD / 2**20:g} MiB, {simulator._ARENA_MAX} arena(s)")
    print(f"  peak RSS so far: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB; "
          f"cold-trial tracemalloc peak: {cold_peak / 2**20:.1f} MiB", flush=True)
    for workers, step in pool_lines:
        subprocess.run([sys.executable, __file__, 'pool', str(sensors), str(workers),
                        str(step), str(4 * trials)], check=True)
