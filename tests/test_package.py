"""The package surface: the lazy public names of ``tosda`` and the modules
each design or simulation step loads."""

import importlib

import tosda

# The public names of ``tosda``, each under the submodule that defines it.
PUBLIC = {
    "coarray": ("CoarrayReport", "LagMultiset", "index_lag_map", "second_order", "to_eca",
                "toca"),
    "lagset": ("consecutive_z",),
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


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from tosda import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(tosda.__all__)
    assert not hasattr(tosda, "no_such_name")


# The steps of the conftest probe IMPORT_BOUNDARIES, in its order.
DESIGN_STEPS = ("import tosda", "dof_sweep", "splits", "build_to_sda, consecutive_z",
                "design --oracle", "sweep --baseline", "--version")
SIMULATION_STEPS = ("import tosda.simulator", "dense ss_music", "monte_carlo threads=1",
                    "monte_carlo threads=2", "simulate rmse", "simulate spectrum")


def test_design_layer_loads_no_numpy(boundaries):
    steps, tmp = boundaries
    assert [steps[name]["numpy"] for name in DESIGN_STEPS] == [False] * len(DESIGN_STEPS)
    assert [steps[name]["exit"] for name in DESIGN_STEPS[-3:]] == [0, 0, 0]
    assert (tmp / "design" / "manifest.json").exists()
    assert (tmp / "sweep" / "dof.csv").read_text().count("\n") == 3 * 3 + 2


def test_simulation_path_loads_no_coarray(boundaries):
    steps, tmp = boundaries
    assert [steps[name]["coarray"] for name in SIMULATION_STEPS] == [False] * len(SIMULATION_STEPS)
    assert steps["from tosda import *"]["coarray"]  # the probe sees it once it loads
    assert steps["dense ss_music"]["lags"] == 2 * 123 + 1
    for mode in ("rmse", "spectrum"):
        assert steps[f"simulate {mode}"]["exit"] == 0
        assert (tmp / mode / f"{mode}.csv").exists()


def test_no_step_loads_scipy(boundaries):
    steps, _ = boundaries
    assert list(steps) == [*DESIGN_STEPS, *SIMULATION_STEPS, "from tosda import *"]
    assert {name: step["scipy"] for name, step in steps.items() if step["scipy"]} == {}
