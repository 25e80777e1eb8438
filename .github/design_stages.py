"""Print the cold start of the design layer: the median wall time, with its
quartiles, over 5 fresh processes, of ``import tosda`` plus one
``dof_sweep(("cna", "scna", "tna2"), range(4, 25))``, and whether numpy got
loaded.  Then the median wall time of the design-layer stages: ``to_eca`` and
``consecutive_z`` in microseconds on CNA N=24 and TNA-II N=24, then in
milliseconds one single-N ``brute_force_split("tna2", n)`` at N = 8, 24 and
40, and one whole ``dof_sweep(("cna", "scna", "tna2"), range(4, 25))``, the
design-sweep benchmark pass: warm, and cold with the split search's
generator memo cleared before each timed sweep; then, per variant, one warm
split search (``designer._search``) over the same N next to its tail walks
alone (``LagSet.zs`` over each tail the search walked, from the generator's
set), the two timed in alternation, so the log shows how much of each
variant's search is big-int work and how much is bookkeeping; then one warm
sweep to N = 44, where walking each split's tail once gains most, and one to
N = 92, the scale of ``tosda sweep`` at which the design layer's run time is
quoted, timed once after a warm-up sweep (the memo holds one variant's
generators at this scale, so each variant rebuilds its own).  Last, the
memo's hits and misses over one sweep from an empty memo: the search asks for each generator once per call, so
within one sweep only the closed-form split's own lookups hit; the search's
hits come from later calls.

Each repeated stage prints its median with the first and third quartiles of
its repeats next to it, so the log shows how far apart the repeats of one
line lie: a change smaller than that spread is not resolved by one run.

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


def spread(times, scale, digits=1):
    """'median (quartiles q1-q3)' of ``times``, each multiplied by ``scale``."""
    q1, median, q3 = (scale * t for t in statistics.quantiles(times, n=4))
    return f'{median:.{digits}f} (quartiles {q1:.{digits}f}-{q3:.{digits}f})'


def times_s(fn, *args, repeats=7, number=1):
    """The wall time of each of ``repeats`` repeats, per call of ``number`` calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn(*args)
        times.append((time.perf_counter() - start) / number)
    return times


cold = [json.loads(subprocess.run([sys.executable, '-c', COLD_START], check=True,
                                   capture_output=True, text=True,
                                   env={**os.environ, 'PYTHONPATH': SRC}).stdout)
        for _ in range(5)]
print(f'cold start, import tosda + dof_sweep N=4..24: {spread([t for t, _ in cold], 1e3)} ms, '
      f'numpy loaded: {any(numpy for _, numpy in cold)}')
for variant in ('cna', 'tna2'):
    array, _ = geometry.build_to_sda(variant, 24)
    for fn in (coarray.to_eca, lagset.consecutive_z):
        print(f'{variant} N=24 {fn.__name__}: {spread(times_s(fn, array, number=200), 1e6)} us')
for n in (8, 24, 40):
    designer.brute_force_split('tna2', n)  # warm-up
    print(f'brute_force_split tna2 N={n}: '
          f'{spread(times_s(designer.brute_force_split, "tna2", n), 1e3, digits=2)} ms')
sweep = (('cna', 'scna', 'tna2'), range(4, 25))
designer.dof_sweep(*sweep)  # warm-up
print(f'dof_sweep cna,scna,tna2 N=4..24: {spread(times_s(designer.dof_sweep, *sweep), 1e3)} ms')


def cold_sweep():
    designer._generator.cache_clear()
    designer.dof_sweep(*sweep)


print(f'dof_sweep cna,scna,tna2 N=4..24, cold generator memo: {spread(times_s(cold_sweep), 1e3)} ms')


def recorded_walks(variant):
    """Each tail that one warm ``_search`` of ``variant`` over the sweep's N
    walks, with the generator's set it starts from."""
    walks, zs = [], lagset.LagSet.zs
    lagset.LagSet.zs = lambda lags, positions: walks.append((lags, positions)) or zs(lags, positions)
    try:
        designer._search(variant, sweep[1])
    finally:
        lagset.LagSet.zs = zs
    return walks


def walk_tails(walks):
    for lags, positions in walks:
        lags.zs(positions)


for variant in sweep[0]:
    walks = recorded_walks(variant)
    # the two alternate, so a drift of the shared box slows both alike
    search, alone = zip(*((*times_s(designer._search, variant, sweep[1], repeats=1),
                           *times_s(walk_tails, walks, repeats=1)) for _ in range(7)))
    print(f'_search {variant} N=4..24: {spread(search, 1e3, digits=2)} ms, '
          f'its {len(walks)} tail walks ({sum(len(p) for _, p in walks)} sensors) alone: '
          f'{spread(alone, 1e3, digits=2)} ms')
long_sweep = (('cna', 'scna', 'tna2'), range(4, 45))
designer.dof_sweep(*long_sweep)  # warm-up
print(f'dof_sweep cna,scna,tna2 N=4..44: '
      f'{spread(times_s(designer.dof_sweep, *long_sweep, repeats=3), 1e3)} ms')
widest_sweep = (('cna', 'scna', 'tna2'), range(4, 93))  # as tosda sweep runs at scale
designer.dof_sweep(*widest_sweep)  # warm-up
(once,) = times_s(designer.dof_sweep, *widest_sweep, repeats=1)  # one run has no quartiles
print(f'dof_sweep cna,scna,tna2 N=4..92: {once:.2f} s')
cold_sweep()
memo = designer._generator.cache_info()
print(f'generator memo over one sweep: {memo.hits} hits, {memo.misses} misses')
