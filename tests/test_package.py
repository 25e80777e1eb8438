"""The package surface: the lazy public names of ``tosda`` and the layers
that start without numpy."""

import importlib
import json
import os
import subprocess
import sys

import tosda

# The public names of ``tosda``, each under a submodule that holds the same
# object (``consecutive_z`` is defined in ``lagset``; ``coarray`` re-exports it).
PUBLIC = {
    "coarray": ("CoarrayReport", "LagMultiset", "consecutive_z", "index_lag_map",
                "second_order", "to_eca", "toca"),
    "designer": ("DesignParams", "SweepRow", "brute_force_split",
                 "dof_closed_form", "dof_sweep", "minimum_sensors", "split_closed_form"),
    "errors": ("ArrayFileError", "ArrayParseError", "ArrayValidationError",
               "CapacityExceededError", "GeometryInconsistencyError",
               "InternalConsistencyError", "InvalidParameterError", "TosdaError",
               "UnsupportedSizeError"),
    "geometry": ("VARIANTS", "SensorArray", "build_generator", "build_gtoa", "build_to_sda",
                 "build_ula", "load_array", "normalize_variant", "save_array"),
    "metrics": ("CouplingModel", "RedundancyReport", "closed_form_redundancy",
                "corollary_bounds", "coupling_leakage", "coupling_matrix", "k_tilde",
                "l3_bound", "redundancy_toeca", "size_bounds",
                "z_closed_form"),
    "simulator": ("EstimationResult", "RunStats", "SourceScene", "monte_carlo", "rmse",
                  "run_trial", "sample_third_cumulants", "ss_music", "steering_matrix",
                  "synthesize_snapshots", "virtual_array_vector"),
}


def test_all_holds_the_public_names():
    names = [name for group in PUBLIC.values() for name in group]
    assert len(names) == 54
    assert sorted(tosda.__all__) == sorted(names)


def test_each_name_is_its_submodules_object():
    listed = dir(tosda)
    for module, names in PUBLIC.items():
        submodule = importlib.import_module(f"tosda.{module}")
        assert getattr(tosda, module) is submodule
        for name in names:
            assert getattr(tosda, name) is getattr(submodule, name), name
            assert name in listed, name
    assert tosda.consecutive_z is tosda.lagset.consecutive_z
    assert tosda.coarray.LagSet is tosda.lagset.LagSet


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from tosda import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(tosda.__all__)
    assert not hasattr(tosda, "no_such_name")


# Each step of the design layer, in a fresh interpreter: which steps found
# numpy loaded once they had run.
DESIGN_WITHOUT_NUMPY = """\
import json, os, sys
facts = {}
def step(name):
    facts[name] = 'numpy' in sys.modules
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
codes = [cli.main(['design', '--variant', 'tna2', '--sensors', '8', '--oracle',
                   '-o', os.path.join(tmp, 'design')])]
step('design --oracle')
codes.append(cli.main(['sweep', '--n-range', '4:6', '--baseline',
                       os.path.join(tmp, 'design', 'array.json'), '-o', os.path.join(tmp, 'sweep')]))
step('sweep --baseline')
try:
    cli.main(['--version'])
except SystemExit as exc:
    codes.append(exc.code)
step('--version')
facts['exit codes'] = codes
print(json.dumps(facts))
"""


def test_design_layer_loads_no_numpy(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), os.pardir, "src")}
    run = subprocess.run(
        [sys.executable, "-c", f"tmp = {str(tmp_path)!r}\n{DESIGN_WITHOUT_NUMPY}"],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    facts = json.loads(run.stdout.splitlines()[-1])
    assert facts.pop("exit codes") == [0, 0, 0]
    assert facts == dict.fromkeys(facts, False) and len(facts) == 7, facts
    assert (tmp_path / "sweep" / "dof.csv").read_text().count("\n") == 3 * 3 + 2
