"""Print the median wall time in ms of each stage of a cumulant-MUSIC trial:
snapshot synthesis, ``virtual_array_vector``, ``_signal_subspace`` and the
grid evaluation of the pseudo-spectrum, for CNA N=9 with coupling and CNA
N=24 without (12 sources over [-60, 60] degrees, K = 12000, 0 dB, 0.01 degree
grid), over a few seeded trials on the calling thread under the malloc policy
``run_trial`` fixes, then the bytes of the cached grid and phasor row and the
allocator settings of that policy.  Each case then prints the process's peak
RSS so far beside the tracemalloc peak of one cold trial: a ``run_trial``
that starts the case with an empty grid cache.  Last, per case, a fresh
process for each line makes two ``monte_carlo`` calls and reports the
second's trials/s and minor page faults per trial at a 0.01 and a 0.1 degree
grid: on two workers and on one for N=9 (the benchmark's mc-cna9 runs two,
``tosda simulate`` one by default), on one for N=24, as mc-cna24 runs it,
and on two workers for N=9 at 0.0002 degrees, whose 7.2 MB spectrum is the
largest per-trial array of these lines.
Below each such line, the faults per trial taken on the trial's own thread
(``RUSAGE_THREAD``) in each stage, ``_local_maxima`` apart from the rest of
``ss_music``, and the process's remainder, so a change of the allocator's
state shows which stage faults.  A fresh process sees only the allocations of
its own grid, as a ``tosda simulate`` run does.  Faults per trial that climb
from a handful to hundreds mean the per-trial arrays are handed back to the
kernel and faulted in again.

Run from any directory: ``python .github/trial_stages.py [trials]``.
"""
import os, resource, subprocess, sys, threading, time, tracemalloc
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, 'src'))
import numpy as np
from tosda import geometry, lagset, metrics, simulator

scene = simulator.SourceScene(tuple(np.linspace(-60.0, 60.0, 12)), 0.0, 12000)
grid_step = 0.01
CASES = {9: metrics.CouplingModel(), 24: None}
# the (workers, grid step) of each case's pool lines
POOL_LINES = {9: ((2, grid_step), (2, 0.1), (2, 0.0002), (1, grid_step), (1, 0.1)),
              24: ((1, grid_step), (1, 0.1))}
# the stages whose faults a pool line counts, in the order a trial runs them
FAULT_STAGES = ('synthesize_snapshots', 'virtual_array_vector', '_signal_subspace',
                '_music_spectrum', '_local_maxima')


def usage():
    return resource.getrusage(resource.RUSAGE_SELF)


def timed(times, stage, fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    times.setdefault(stage, []).append(1e3 * (time.perf_counter() - start))
    return out


def count_stage_faults(faults):
    """Wrap each of ``FAULT_STAGES`` in ``simulator`` so that the minor faults
    its calling thread takes during a call add to ``faults[stage]``."""
    lock = threading.Lock()

    def counted(stage, fn):
        def call(*args, **kwargs):
            before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
            try:
                return fn(*args, **kwargs)
            finally:
                taken = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before
                with lock:
                    faults[stage] = faults.get(stage, 0) + taken
        return call

    for stage in FAULT_STAGES:
        setattr(simulator, stage, counted(stage, getattr(simulator, stage)))


def pool_line(sensors, workers, step, pool_trials):
    """Trials/s and minor faults per trial of the second of two
    ``monte_carlo`` calls, in all and by stage; the first warms up the
    workers and the grid."""
    array, _ = geometry.build_to_sda('cna', sensors)
    stage_faults = {}
    count_stage_faults(stage_faults)
    for _ in range(2):
        stage_faults.clear()
        faults, start = usage().ru_minflt, time.perf_counter()
        simulator.monte_carlo(array, scene, trials=pool_trials, coupling=CASES[sensors],
                              grid_step_deg=step, threads=workers)
    rate = pool_trials / (time.perf_counter() - start)
    total = usage().ru_minflt - faults
    print(f"  monte_carlo at {step:g} deg on {workers} worker(s), {pool_trials} trials: "
          f"{total / pool_trials:.0f} minor faults per trial, "
          f"{rate:.1f} trials/s", flush=True)
    by_stage = [(stage, stage_faults.get(stage, 0)) for stage in FAULT_STAGES]
    by_stage.append(('rest', total - sum(count for _, count in by_stage)))
    print('    per trial by stage: ' + ', '.join(
        f"{stage} {count / pool_trials:.1f}" for stage, count in by_stage), flush=True)


if sys.argv[1:2] == ['pool']:
    pool_line(*(int(a) if a.isdigit() else float(a) for a in sys.argv[2:]))
    sys.exit()
trials = int(sys.argv[1]) if len(sys.argv) > 1 else 5
for sensors, pool_lines in POOL_LINES.items():
    coupling = CASES[sensors]
    array, _ = geometry.build_to_sda('cna', sensors)
    z_max = lagset.consecutive_z(array)
    simulator._grid_and_steering.cache_clear()
    tracemalloc.start()
    simulator.run_trial(array, scene, np.random.default_rng([2015, 1, 0]),
                        coupling=coupling, grid_step_deg=grid_step)
    cold_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    grid, phasor = simulator._grid_and_steering(grid_step)
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
        timed(times, 'grid evaluation', simulator._music_spectrum, es, phasor)
        del z, es
    stage_faults = (usage().ru_minflt - faults) / trials
    print(f"CNA N={sensors} (m = {z_max + 1}, coupling {'on' if coupling else 'off'}), "
          f"median ms over {trials} trials:")
    for stage, ms in times.items():
        print(f"  {stage:22s} {np.median(ms):8.2f}")
    print(f"  minor faults per trial in the stage loop: {stage_faults:.0f}; cached grid "
          f"{grid.nbytes / 1e6:.2f} MB and phasor row {phasor.nbytes / 1e6:.2f} MB; "
          f"glibc malloc: mmap threshold {simulator._MMAP_THRESHOLD / 2**20:g} MiB, "
          f"trim threshold {simulator._TRIM_THRESHOLD / 2**20:g} MiB, "
          f"{simulator._ARENA_MAX} arena(s)")
    print(f"  peak RSS so far: {usage().ru_maxrss / 1024:.1f} MB; "
          f"cold-trial tracemalloc peak: {cold_peak / 2**20:.1f} MiB", flush=True)
    for workers, step in pool_lines:
        subprocess.run([sys.executable, __file__, 'pool', str(sensors), str(workers),
                        str(step), str(4 * trials)], check=True)
