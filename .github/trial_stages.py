"""Print the median wall time in ms of each stage of a cumulant-MUSIC trial:
snapshot synthesis, ``virtual_array_vector``, ``_signal_subspace`` and the
grid evaluation of the pseudo-spectrum, for CNA N=9 with coupling and CNA
N=24 without (12 sources over [-60, 60] degrees, K = 12000, 0 dB, 0.01 degree
grid), over a few seeded trials on the calling thread, each holding a pooled
workspace as ``run_trial`` does, and the size of the cached steering table.
Each case then prints the process's peak RSS so far beside the tracemalloc
peak of one cold trial: a ``run_trial`` that starts the case with an empty
steering cache, so it includes the table's build.  Last, per case, a fresh
process for each line makes two ``monte_carlo`` calls and reports the second's
trials/s and minor page faults per trial at a 0.01 and a 0.1 degree grid: on
two workers and on one for N=9 (the benchmark's mc-cna9 runs two, ``tosda
simulate`` one by default), on one for N=24, as mc-cna24 runs it.  A fresh
process sees only the allocations of its own grid, as a ``tosda simulate`` run
does.  Faults per trial that climb from a handful to hundreds mean the
per-trial arrays are handed back to the kernel and faulted in again.

Run from any directory: ``python .github/trial_stages.py [trials]``.
"""
import os, resource, subprocess, sys, time, tracemalloc
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, 'src'))
import numpy as np
from tosda import geometry, lagset, metrics, simulator

scene = simulator.SourceScene(tuple(np.linspace(-60.0, 60.0, 12)), 0.0, 12000)
grid_step = 0.01
CASES = {9: metrics.CouplingModel(), 24: None}


def usage():
    return resource.getrusage(resource.RUSAGE_SELF)


def timed(times, stage, fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    times.setdefault(stage, []).append(1e3 * (time.perf_counter() - start))
    return out


def pool_line(sensors, workers, step, pool_trials):
    """Trials/s and minor faults per trial of the second of two
    ``monte_carlo`` calls; the first warms up the workers and the grid."""
    array, _ = geometry.build_to_sda('cna', sensors)
    for _ in range(2):
        faults, start = usage().ru_minflt, time.perf_counter()
        simulator.monte_carlo(array, scene, trials=pool_trials, coupling=CASES[sensors],
                              grid_step_deg=step, threads=workers)
    rate = pool_trials / (time.perf_counter() - start)
    print(f"  monte_carlo at {step:g} deg on {workers} worker(s), {pool_trials} trials: "
          f"{(usage().ru_minflt - faults) / pool_trials:.0f} minor faults per trial, "
          f"{rate:.1f} trials/s", flush=True)


if sys.argv[1:2] == ['pool']:
    pool_line(*(int(a) if a.isdigit() else float(a) for a in sys.argv[2:]))
    sys.exit()
trials = int(sys.argv[1]) if len(sys.argv) > 1 else 5
for sensors, pools in ((9, (2, 1)), (24, (1,))):
    coupling = CASES[sensors]
    array, _ = geometry.build_to_sda('cna', sensors)
    z_max = lagset.consecutive_z(array)
    simulator._grid_and_steering.cache_clear()
    tracemalloc.start()
    simulator.run_trial(array, scene, np.random.default_rng([2015, 1, 0]),
                        coupling=coupling, grid_step_deg=grid_step)
    cold_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    _, steering = simulator._grid_and_steering(
        grid_step, simulator._block_length(z_max + 1) + 1)
    times = {}
    with simulator._WORKSPACES.checked_out():
        for t in range(trials + 1):  # trial 0 warms up and is not counted
            if t == 1:
                times, faults = {}, usage().ru_minflt
            rng = np.random.default_rng([2015, 0, t])
            x = timed(times, 'synthesize_snapshots', simulator.synthesize_snapshots,
                      array, scene, coupling, rng)
            z = timed(times, 'virtual_array_vector', simulator.virtual_array_vector,
                      x, array)
            del x  # each array lives as long as it does in run_trial
            es = timed(times, '_signal_subspace', simulator._signal_subspace,
                       z[z_max:], scene.n_sources)
            timed(times, 'grid evaluation', simulator._music_spectrum, es, steering)
            del z, es
    stage_faults = (usage().ru_minflt - faults) / trials
    print(f"CNA N={sensors} (m = {z_max + 1}, coupling {'on' if coupling else 'off'}), "
          f"median ms over {trials} trials:")
    for stage, ms in times.items():
        print(f"  {stage:22s} {np.median(ms):8.2f}")
    print(f"  minor faults per trial in the stage loop: {stage_faults:.0f}; "
          f"steering table {steering.shape[0]} x {steering.shape[1]}, "
          f"{steering.nbytes / 1e6:.2f} MB")
    print(f"  peak RSS so far: {usage().ru_maxrss / 1024:.1f} MB; "
          f"cold-trial tracemalloc peak: {cold_peak / 2**20:.1f} MiB", flush=True)
    for workers in pools:
        for step in (grid_step, 0.1):
            subprocess.run([sys.executable, __file__, 'pool', str(sensors), str(workers),
                            str(step), str(4 * trials)], check=True)
