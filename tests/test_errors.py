"""Every constructor, and every public function taking a number or an array
of numbers, checks its numeric fields with the one rule in
:mod:`tosda.errors`: a bad value raises InvalidParameterError naming the
field, never a bare TypeError or ValueError and never a silent conversion."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from tosda import (
    ArrayValidationError,
    CouplingModel,
    InvalidParameterError,
    SensorArray,
    SourceScene,
    brute_force_split,
    build_generator,
    build_gtoa,
    build_to_sda,
    build_ula,
    closed_form_redundancy,
    coupling_leakage,
    dof_sweep,
    k_tilde,
    l3_bound,
    load_array,
    monte_carlo,
    rmse,
    sample_third_cumulants,
    size_bounds,
    split_closed_form,
    ss_music,
    steering_matrix,
    virtual_array_vector,
    z_closed_form,
)
from tosda.designer import continuous_optimum_n1
from tosda.errors import real_number

# bad values for a whole-number field and for a finite-real field, and for an
# entry of an array of finite numbers
WHOLE = (True, "3", 2.5)
REAL = (True, "0.5", math.inf, -math.inf, math.nan)
ENTRY = ("a", "0.5", None, True, math.inf, -math.inf, math.nan)

CNA8 = split_closed_form("cna", 8)


def _gtoa(delta1=9, delta2=9, n2=2):
    return build_gtoa(build_generator("cna", 1, 2), delta1, delta2, n2)


def _snapshots(v):
    """A two-sensor ULA's 2 x 3 snapshots with ``v`` as one entry, as lists."""
    return [[1.0, v, -1.0], [0.5, 2.0, -2.5]]


ULA2 = build_ula(2)


def _monte_carlo(trials=1, threads=1):
    scene = SourceScene((-20.0, 20.0), snr_db=0.0, snapshots=64, seed=0)
    return monte_carlo(build_to_sda("cna", 9)[0], scene, trials=trials, threads=threads)


# (constructor, field, bad values, call taking the bad value)
CASES = [
    ("SensorArray", "positions", WHOLE, lambda v: SensorArray("x", (0, v))),
    *[("DesignParams", f, WHOLE, lambda v, f=f: replace(CNA8, **{f: v}))
      for f in ("N", "M1", "M2")],
    # a split with M1 or M2 below 1 has no generator
    *[("DesignParams", f, (0, -1), lambda v, f=f: replace(CNA8, **{f: v}))
      for f in ("M1", "M2")],
    *[("CouplingModel", f, REAL, lambda v, f=f: CouplingModel(**{f: v}))
      for f in ("c1_magnitude", "c1_phase", "decay_phase_step")],
    ("CouplingModel", "band_limit", WHOLE, lambda v: CouplingModel(band_limit=v)),
    ("CouplingModel.coefficient", "distance", (1.5, True, "3"),
     lambda v: CouplingModel().coefficient(v)),
    ("coupling_leakage", "coupling matrix", (math.nan, math.inf, -math.inf, "0.5", None),
     lambda v: coupling_leakage(np.array([[1.0, v], [v, 1.0]]))),
    ("SourceScene", "angles_deg", REAL,
     lambda v: SourceScene((0.0, v), snr_db=0.0, snapshots=8)),
    ("SourceScene", "angles_deg", (5.0, None),
     lambda v: SourceScene(v, snr_db=0.0, snapshots=3)),
    ("SourceScene", "snr_db", REAL,
     lambda v: SourceScene((0.0,), snr_db=v, snapshots=8)),
    ("SourceScene", "snapshots", (2.5, True),
     lambda v: SourceScene((0.0,), snr_db=0.0, snapshots=v, seed=0)),
    ("SourceScene", "seed", (2.5, "2"),
     lambda v: SourceScene((0.0,), snr_db=0.0, snapshots=8, seed=v)),
    ("monte_carlo", "trials", (2.5, True, "3", math.nan),
     lambda v: _monte_carlo(trials=v)),
    ("monte_carlo", "threads", (1.5, True, None), lambda v: _monte_carlo(threads=v)),
    ("build_ula", "n", WHOLE, build_ula),
    ("build_generator", "m1", WHOLE, lambda v: build_generator("cna", v, 2)),
    ("build_generator", "m2", WHOLE, lambda v: build_generator("cna", 1, v)),
    ("build_gtoa", "delta1", WHOLE, lambda v: _gtoa(delta1=v)),
    ("build_gtoa", "delta2", WHOLE, lambda v: _gtoa(delta2=v)),
    ("build_gtoa", "n2", WHOLE, lambda v: _gtoa(n2=v)),
    ("ss_music", "grid_step_deg", REAL,
     lambda v: ss_music(np.ones(9), 1, grid_step_deg=v)),
    ("ss_music", "n_sources", (2.5, True, "2", None, math.inf),
     lambda v: ss_music(np.ones(9), v)),
    ("ss_music", "z", ENTRY, lambda v: ss_music([1.0, v, 1.0], 1)),
    ("virtual_array_vector", "x", ENTRY,
     lambda v: virtual_array_vector(_snapshots(v), ULA2)),
    ("sample_third_cumulants", "x", ENTRY,
     lambda v: sample_third_cumulants(_snapshots(v), ULA2)),
    ("rmse", "estimates", ENTRY, lambda v: rmse([[v, 1.0]], [0.0, 1.0])),
    ("rmse", "truth", ENTRY, lambda v: rmse([[0.0, 1.0]], [v, 1.0])),
    # a scalar truth, or zero sources or trials, has no error to average
    ("rmse", "truth", (0.0, [[0.0]]), lambda v: rmse([[1.0]], v)),
    ("rmse", "truth", ([],), lambda v: rmse([], v)),
    ("rmse", "estimates", (np.zeros((0, 1)), [[[1.0]]]), lambda v: rmse(v, [0.0])),
    ("steering_matrix", "angles_deg", REAL, lambda v: steering_matrix(build_ula(2), [v])),
    *[(f.__name__, "n", WHOLE, lambda v, f=f: f("cna", v))
      for f in (split_closed_form, brute_force_split, build_to_sda, z_closed_form,
                closed_form_redundancy)],
    ("dof_sweep", "n", WHOLE, lambda v: dof_sweep(["cna"], [v])),
    *[(f.__name__, "n", WHOLE, f) for f in (size_bounds, k_tilde, l3_bound)],
    # an N past the float range of the closed forms, as `tosda design` and
    # `tosda metrics --variant` take it
    ("continuous_optimum_n1", "n", (10**200,), lambda v: continuous_optimum_n1("cna", v)),
    ("split_closed_form", "n", (10**200,), lambda v: split_closed_form("cna", v)),
    # an N in float range whose closed-form generator reaches past the
    # co-array cap, refused before any of its segments is listed
    *[(f.__name__, "CNA generator", (10**100,), lambda v, f=f: f("cna", v))
      for f in (split_closed_form, build_to_sda)],
    # a tail of more sensors than the cap, refused before it is listed: the
    # first split the search builds at N = 10**12 has about 10**12
    ("build_gtoa", "tail", (2**24 + 1, 10**12), lambda v: _gtoa(n2=v)),
    ("brute_force_split", "tail", (10**12,), lambda v: brute_force_split("cna", v)),
    ("dof_sweep", "tail", (10**12,), lambda v: dof_sweep(["cna"], [v])),
    ("z_closed_form", "n", (10**200,), lambda v: z_closed_form("cna", v)),
    ("closed_form_redundancy", "n", (10**200,), lambda v: closed_form_redundancy("cna", v)),
    ("l3_bound", "n", (10**400,), l3_bound),
]


def _label(value) -> str:
    """``value``'s repr for a test id, or its length where that is long."""
    text = repr(value)
    return text if len(text) <= 40 else f"{type(value).__name__}-of-{len(text)}-chars"


@pytest.mark.parametrize(
    "call, field, bad",
    [
        pytest.param(call, field, bad, id=f"{name}-{field}-{_label(bad)}")
        for name, field, bads, call in CASES
        for bad in bads
    ],
)
def test_bad_number_names_its_field(call, field, bad):
    with pytest.raises(InvalidParameterError, match=f"^{field} must be .+, got "):
        call(bad)


def test_valid_inputs_of_the_table_build():
    assert _gtoa().positions == (0, 1, 3, 4, 9, 18)
    assert build_generator("tna2", 2, 2).size == 4
    ss_music(np.ones(9), 1, grid_step_deg=1.0)
    assert np.array_equal(steering_matrix(build_ula(2), 5), steering_matrix(build_ula(2), [5.0]))
    assert CouplingModel().coefficient(2.0) == CouplingModel().coefficient(np.int64(2))
    assert coupling_leakage(np.eye(2)) == 0.0
    row = dof_sweep(["cna"], [8])[0]
    assert row == brute_force_split("cna", 8)
    assert z_closed_form("cna", 8.0) == z_closed_form("cna", 8) == 93.0
    assert size_bounds(np.int64(3)) == (13, 45, 22) and k_tilde(3.0) == 22
    assert l3_bound(4.0) == l3_bound(4)
    assert SourceScene(np.array([5.0]), snr_db=0.0, snapshots=3).angles_deg == (5.0,)


def test_fields_store_the_checked_value():
    arr = SensorArray("x", (0.0, np.int64(2)))
    assert arr.positions == (0, 2) and all(type(p) is int for p in arr.positions)
    model = CouplingModel(c1_magnitude=0, band_limit=4.0)
    assert type(model.c1_magnitude) is float and type(model.band_limit) is int
    scene = SourceScene((np.float32(10), 20), snr_db=np.int64(3), snapshots=8)
    assert all(type(a) is float for a in scene.angles_deg)
    assert type(scene.snr_db) is float
    params = replace(CNA8, N=8.0)
    assert type(params.N) is int and params == CNA8


def test_real_number_rejects_int_beyond_float_range():
    assert real_number(10**300) == 1e300
    with pytest.raises(InvalidParameterError, match="^x must be a finite real number"):
        real_number(10**400, "x")


@pytest.mark.parametrize(
    "field, blob",
    [
        # the grid is fixed at half a wavelength: any other spacing is refused
        *[("unit_spacing_wavelengths", {"positions": [0, 1], "unit_spacing_wavelengths": v})
          for v in (math.inf, True, 0.25, "0.5")],
        ("positions", {"positions": [0, True]}),
        ("positions", {"positions": [0, "2"]}),
        ("positions", {"positions": [0, None]}),
    ],
    ids=["infinite-spacing", "bool-spacing", "quarter-spacing", "string-spacing",
         "bool-position", "string-position", "null-position"],
)
def test_array_file_with_bad_number_rejected(tmp_path, field, blob):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(blob))  # math.inf is written as Infinity
    with pytest.raises(ArrayValidationError, match=re.escape(f"{path}: {field} must be ")):
        load_array(path)
