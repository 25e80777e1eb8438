"""Print the median wall time in ms of each stage of a cumulant-MUSIC trial:
snapshot synthesis, ``virtual_array_vector``, ``_signal_subspace`` and the
grid evaluation of the pseudo-spectrum, for CNA N=9 with coupling and CNA
N=24 without (12 sources over [-60, 60] degrees, K = 12000, 0 dB, 0.01 degree
grid), over a few seeded trials on the calling thread.

Run from any directory: ``python .github/trial_stages.py [trials]``.
"""
import os, sys, time
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, 'src'))
import numpy as np
from tosda import coarray, geometry, metrics, simulator

trials = int(sys.argv[1]) if len(sys.argv) > 1 else 5
scene = simulator.SourceScene(tuple(np.linspace(-60.0, 60.0, 12)), 0.0, 12000)
grid_step = 0.01


def timed(times, stage, fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    times.setdefault(stage, []).append(1e3 * (time.perf_counter() - start))
    return out


for sensors, coupling in ((9, metrics.CouplingModel()), (24, None)):
    array, _ = geometry.build_to_sda('cna', sensors)
    report = coarray.to_eca(array)
    z_max = report.one_sided_z
    _, steering = simulator._grid_and_steering(grid_step, array.unit_spacing)
    times = {}
    for t in range(trials + 1):  # trial 0 warms up and is not counted
        if t == 1:
            times = {}
        rng = np.random.default_rng([2015, 0, t])
        x = timed(times, 'synthesize_snapshots', simulator.synthesize_snapshots,
                  array, scene, coupling, rng)
        z = timed(times, 'virtual_array_vector', simulator.virtual_array_vector,
                  x, array, report)
        es = timed(times, '_signal_subspace', simulator._signal_subspace,
                   z[z_max:], scene.n_sources)
        timed(times, 'grid evaluation', simulator._music_spectrum, es, steering)
    print(f"CNA N={sensors} (m = {z_max + 1}, coupling {'on' if coupling else 'off'}), "
          f"median ms over {trials} trials:")
    for stage, ms in times.items():
        print(f"  {stage:22s} {np.median(ms):8.2f}")
