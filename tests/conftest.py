"""The fresh-interpreter probe of the import boundaries, shared by
``test_package.py`` (numpy, ``tosda.coarray``) and ``test_simulator.py``
(scipy)."""

import json
import os
import subprocess
import sys

import pytest

# The import boundaries, in one fresh interpreter: the design layer's steps
# and then the simulation path's.  Each step records what it found loaded
# once it had run: numpy, tosda.coarray and every scipy module.
IMPORT_BOUNDARIES = """\
import json, os, sys
steps = {}
def step(name, **extra):
    steps[name] = {'numpy': 'numpy' in sys.modules, 'coarray': 'tosda.coarray' in sys.modules,
                   'scipy': sorted(m for m in sys.modules if m.startswith('scipy')), **extra}
import tosda
step('import tosda')
from tosda import (brute_force_split, build_to_sda, consecutive_z, dof_sweep,
                   split_closed_form)
dof_sweep(('cna', 'scna', 'tna2'), range(4, 25))
step('dof_sweep')
brute_force_split('tna2', 8)
split_closed_form('scna', 12)
step('splits')
consecutive_z(build_to_sda('cna', 9)[0])
step('build_to_sda, consecutive_z')
from tosda import cli
step('design --oracle', exit=cli.main(['design', '--variant', 'tna2', '--sensors', '8',
                                       '--oracle', '-o', os.path.join(tmp, 'design')]))
step('sweep --baseline', exit=cli.main(['sweep', '--n-range', '4:6', '--baseline',
                                        os.path.join(tmp, 'design', 'array.json'),
                                        '-o', os.path.join(tmp, 'sweep')]))
try:
    cli.main(['--version'])
except SystemExit as exc:
    step('--version', exit=exc.code)
import tosda.simulator
step('import tosda.simulator')
import numpy as np
from tosda.simulator import (SourceScene, monte_carlo, ss_music, synthesize_snapshots,
                             virtual_array_vector)
# CNA N=9 has m = 124 <= 224, so its subspace comes from eigh, and N=13
# (m = 309) from Lanczos
arr, _ = build_to_sda('cna', 9)
scene = SourceScene(tuple(np.linspace(-60, 60, 12)), 0.0, 400, seed=3)
z = virtual_array_vector(synthesize_snapshots(arr, scene), arr)
ss_music(z, 12)
step('dense ss_music', lags=z.size)
for threads in (1, 2):
    for n in (9, 13):
        monte_carlo(build_to_sda('cna', n)[0], scene, ('snr', [0.0, 10.0]), trials=2,
                    threads=threads)
    step(f'monte_carlo threads={threads}')
for mode in ('rmse', 'spectrum'):
    path = os.path.join(tmp, mode + '.json')
    with open(path, 'w') as f:
        json.dump({'mode': mode, 'array': {'variant': 'cna', 'sensors': 9},
                   'scene': {'angles_deg': {'count': 4, 'span_deg': [-40, 40]},
                             'snr_db': 5.0, 'snapshots': 600},
                   'sweep': {'parameter': 'snr', 'values': [0.0, 10.0]}, 'trials': 2,
                   'master_seed': 77, 'coupling': {'enabled': True}}, f)
    step(f'simulate {mode}', exit=cli.main(['simulate', '--config', path, '--threads', '2',
                                            '-o', os.path.join(tmp, mode)]))
from tosda import *
step('from tosda import *')
print(json.dumps(steps))
"""


@pytest.fixture(scope="session")
def boundaries(tmp_path_factory):
    """The steps ``IMPORT_BOUNDARIES`` recorded, and the directory it wrote in."""
    tmp = tmp_path_factory.mktemp("boundaries")
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), os.pardir, "src")}
    run = subprocess.run(
        [sys.executable, "-c", f"tmp = {str(tmp)!r}\n{IMPORT_BOUNDARIES}"],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1]), tmp
