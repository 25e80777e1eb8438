"""Print the median wall time in ms of each stage of a cumulant-MUSIC trial:
snapshot synthesis, ``virtual_array_vector``, ``_signal_subspace`` and the
grid evaluation of the pseudo-spectrum, for CNA N=9 with coupling and CNA
N=24 without (12 sources over [-60, 60] degrees, K = 12000, 0 dB, 0.01 degree
grid), over a few seeded trials on the calling thread.  Then a second
``monte_carlo`` call per case, on two workers for N=9 and one for N=24 as the
benchmark's mc workloads run them, gives trials/s and the minor page faults
per trial, and each case ends with the process's peak RSS so far beside the
tracemalloc peak of one cold trial: a ``run_trial`` that starts the case with
an empty steering cache, so it includes the table's build.  Faults
per trial that climb from a handful to hundreds mean the allocator hands
the per-trial arrays back to the kernel and faults them in again.

Run from any directory: ``python .github/trial_stages.py [trials]``.
"""
import os, resource, sys, time, tracemalloc
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, 'src'))
import numpy as np
from tosda import geometry, lagset, metrics, simulator

trials = int(sys.argv[1]) if len(sys.argv) > 1 else 5
scene = simulator.SourceScene(tuple(np.linspace(-60.0, 60.0, 12)), 0.0, 12000)
grid_step = 0.01


def usage():
    return resource.getrusage(resource.RUSAGE_SELF)


def timed(times, stage, fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    times.setdefault(stage, []).append(1e3 * (time.perf_counter() - start))
    return out


for sensors, coupling, workers in ((9, metrics.CouplingModel(), 2), (24, None, 1)):
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
    pool_trials = 4 * trials
    for _ in range(2):  # the first call warms up the workers and their arenas
        faults, start = usage().ru_minflt, time.perf_counter()
        simulator.monte_carlo(array, scene, trials=pool_trials, coupling=coupling,
                              grid_step_deg=grid_step, threads=workers)
    rate = pool_trials / (time.perf_counter() - start)
    print(f"  minor faults per trial: {stage_faults:.0f} in the stage loop, "
          f"{(usage().ru_minflt - faults) / pool_trials:.0f} in a {workers}-worker "
          f"monte_carlo call of {pool_trials} trials ({rate:.1f} trials/s)")
    print(f"  peak RSS so far: {usage().ru_maxrss / 1024:.1f} MB; "
          f"cold-trial tracemalloc peak: {cold_peak / 2**20:.1f} MiB")
