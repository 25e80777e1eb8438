"""Print the cold start of the design layer: the median wall time, over 5
fresh processes, of ``import tosda`` plus one ``dof_sweep(("cna", "scna",
"tna2"), range(4, 25))``, and whether numpy got loaded.  Then the median
wall time of the design-layer stages: ``to_eca`` and
``consecutive_z`` in microseconds on CNA N=24 and TNA-II N=24, then in
milliseconds one single-N ``brute_force_split("tna2", n)`` at N = 8, 24 and
40, and one whole ``dof_sweep(("cna", "scna", "tna2"), range(4, 25))``, the
design-sweep benchmark pass: warm, and cold with the split search's
generator memo cleared before each timed sweep; next to it, the tail walks
of one such sweep alone (``LagSet.zs`` over each tail the sweep walked, from
the generator's set), so the log shows how much of a pass is big-int work
and how much is bookkeeping; then one warm sweep to N = 44, where walking
each split's tail once gains most, and one to N = 92, the scale of
``tosda sweep`` at which the design layer's run time is quoted, timed once
after a warm-up sweep (the memo holds one variant's generators at this
scale, so each variant rebuilds its own).  Last, the memo's hits and misses over one sweep
from an empty memo: the search asks for each generator once per call, so
within one sweep only the closed-form split's own lookups hit; the search's
hits come from later calls.

Run from any directory: ``python .github/design_stages.py``.
"""
import json, logging, os, statistics, subprocess, sys, time
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, 'src')
sys.path.insert(0, SRC)
from tosda import coarray, designer, geometry, lagset

COLD_START = """\
import json, sys, time
start = time.perf_counter()
import tosda
tosda.dof_sweep(('cna', 'scna', 'tna2'), range(4, 25))
print(json.dumps([time.perf_counter() - start, 'numpy' in sys.modules]))
"""

logging.disable(logging.WARNING)  # TNA-II's notice of the rounding candidate it took


def median_s(fn, *args, repeats=7, number=1):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn(*args)
        times.append((time.perf_counter() - start) / number)
    return statistics.median(times)


cold = [json.loads(subprocess.run([sys.executable, '-c', COLD_START], check=True,
                                   capture_output=True, text=True,
                                   env={**os.environ, 'PYTHONPATH': SRC}).stdout)
        for _ in range(5)]
print(f'cold start, import tosda + dof_sweep N=4..24: {1e3 * statistics.median(t for t, _ in cold):.1f} ms, '
      f'numpy loaded: {any(numpy for _, numpy in cold)}')
for variant in ('cna', 'tna2'):
    array, _ = geometry.build_to_sda(variant, 24)
    for fn in (coarray.to_eca, coarray.consecutive_z):
        print(f'{variant} N=24 {fn.__name__}: {1e6 * median_s(fn, array, number=200):.1f} us')
for n in (8, 24, 40):
    designer.brute_force_split('tna2', n)  # warm-up
    print(f'brute_force_split tna2 N={n}: {1e3 * median_s(designer.brute_force_split, "tna2", n):.2f} ms')
sweep = (('cna', 'scna', 'tna2'), range(4, 25))
designer.dof_sweep(*sweep)  # warm-up
print(f'dof_sweep cna,scna,tna2 N=4..24: {1e3 * median_s(designer.dof_sweep, *sweep):.1f} ms')


def cold_sweep():
    designer._generator.cache_clear()
    designer.dof_sweep(*sweep)


print(f'dof_sweep cna,scna,tna2 N=4..24, cold generator memo: {1e3 * median_s(cold_sweep):.1f} ms')
walks, zs = [], lagset.LagSet.zs
lagset.LagSet.zs = lambda lags, positions: walks.append((lags, positions)) or zs(lags, positions)
try:
    designer.dof_sweep(*sweep)  # records each tail the sweep walks, and the set it starts from
finally:
    lagset.LagSet.zs = zs


def walk_tails():
    for lags, positions in walks:
        for _ in lags.zs(positions):
            pass


print(f'the {len(walks)} tail walks of that sweep ({sum(len(p) for _, p in walks)} sensors) alone: '
      f'{1e3 * median_s(walk_tails):.1f} ms')
long_sweep = (('cna', 'scna', 'tna2'), range(4, 45))
designer.dof_sweep(*long_sweep)  # warm-up
print(f'dof_sweep cna,scna,tna2 N=4..44: {1e3 * median_s(designer.dof_sweep, *long_sweep, repeats=3):.1f} ms')
widest_sweep = (('cna', 'scna', 'tna2'), range(4, 93))  # as tosda sweep runs at scale
designer.dof_sweep(*widest_sweep)  # warm-up
print(f'dof_sweep cna,scna,tna2 N=4..92: {median_s(designer.dof_sweep, *widest_sweep, repeats=1):.2f} s')
cold_sweep()
memo = designer._generator.cache_info()
print(f'generator memo over one sweep: {memo.hits} hits, {memo.misses} misses')
