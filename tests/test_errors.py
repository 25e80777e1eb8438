"""Every constructor checks its own numeric fields with the one rule in
:mod:`tosda.errors`: a bad value raises InvalidParameterError naming the
field, never a bare TypeError and never a silent conversion."""

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
    build_generator,
    build_gtoa,
    build_ula,
    load_array,
    split_closed_form,
    ss_music,
)
from tosda.errors import real_number

# bad values for a whole-number field and for a finite-real field
WHOLE = (True, "3", 2.5)
REAL = (True, "0.5", math.inf, -math.inf, math.nan)

CNA8 = split_closed_form("cna", 8)
TNA9 = split_closed_form("tna2", 9)
COUNTS = ("N", "N1", "N2", "M1", "M2", "delta1", "delta2", "lambda1", "lambda2")


def _gtoa(delta1=9, delta2=9, n2=2):
    return build_gtoa(build_generator("cna", 1, 2), delta1, delta2, n2)


# (constructor, field, bad values, call taking the bad value)
CASES = [
    ("SensorArray", "positions", WHOLE, lambda v: SensorArray("x", (0, v))),
    ("SensorArray", "unit_spacing", REAL, lambda v: SensorArray("x", (0, 1), v)),
    *[("DesignParams", f, WHOLE, lambda v, f=f: replace(CNA8, **{f: v}))
      for f in COUNTS],
    ("DesignParams", "J", WHOLE, lambda v: replace(TNA9, J=v)),
    *[("CouplingModel", f, REAL, lambda v, f=f: CouplingModel(**{f: v}))
      for f in ("c1_magnitude", "c1_phase", "decay_phase_step")],
    ("CouplingModel", "band_limit", WHOLE, lambda v: CouplingModel(band_limit=v)),
    ("SourceScene", "angles_deg", REAL,
     lambda v: SourceScene((0.0, v), snr_db=0.0, snapshots=8)),
    ("SourceScene", "snr_db", REAL,
     lambda v: SourceScene((0.0,), snr_db=v, snapshots=8)),
    ("build_ula", "n", WHOLE, build_ula),
    ("build_generator", "m1", WHOLE, lambda v: build_generator("cna", v, 2)),
    ("build_generator", "m2", WHOLE, lambda v: build_generator("cna", 1, v)),
    ("build_generator", "j", WHOLE, lambda v: build_generator("tna2", 2, 2, v)),
    ("build_gtoa", "delta1", WHOLE, lambda v: _gtoa(delta1=v)),
    ("build_gtoa", "delta2", WHOLE, lambda v: _gtoa(delta2=v)),
    ("build_gtoa", "n2", WHOLE, lambda v: _gtoa(n2=v)),
    ("ss_music", "grid_step_deg", REAL,
     lambda v: ss_music(np.ones(9), 1, grid_step_deg=v)),
]


@pytest.mark.parametrize(
    "call, field, bad",
    [
        pytest.param(call, field, bad, id=f"{name}-{field}-{bad!r}")
        for name, field, bads, call in CASES
        for bad in bads
    ],
)
def test_bad_number_names_its_field(call, field, bad):
    with pytest.raises(InvalidParameterError, match=f"^{field} must be "):
        call(bad)


def test_valid_inputs_of_the_table_build():
    assert _gtoa().positions == (0, 1, 3, 4, 9, 18)
    assert build_generator("tna2", 2, 2, 1).size == 4
    ss_music(np.ones(9), 1, grid_step_deg=1.0)


def test_fields_store_the_checked_value():
    arr = SensorArray("x", (0.0, np.int64(2)), 1)
    assert arr.positions == (0, 2) and all(type(p) is int for p in arr.positions)
    assert type(arr.unit_spacing) is float
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
        ("unit_spacing", {"positions": [0, 1], "unit_spacing_wavelengths": math.inf}),
        ("unit_spacing", {"positions": [0, 1], "unit_spacing_wavelengths": True}),
        ("positions", {"positions": [0, True]}),
        ("positions", {"positions": [0, "2"]}),
        ("positions", {"positions": [0, None]}),
    ],
    ids=["infinite-spacing", "bool-spacing", "bool-position", "string-position",
         "null-position"],
)
def test_array_file_with_bad_number_rejected(tmp_path, field, blob):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(blob))  # math.inf is written as Infinity
    with pytest.raises(ArrayValidationError, match=re.escape(f"{path}: {field} must be ")):
        load_array(path)
