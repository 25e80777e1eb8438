"""Third-order co-array sparse linear arrays: design, verification, DOA.

The package splits into five layers:

- :mod:`tosda.geometry`  — integer sensor layouts and file I/O
- :mod:`tosda.coarray`   — exact second-/third-order lag multisets
- :mod:`tosda.designer`  — closed-form and exhaustive sensor splits
- :mod:`tosda.metrics`   — size/redundancy bounds and mutual coupling
- :mod:`tosda.simulator` — snapshots, cumulants, Toeplitz co-array MUSIC

The public names below load with their submodule, the first time one of
them is used.  Only the float layers (``coarray``'s multisets, ``metrics``
and ``simulator``) import numpy; ``geometry``, ``designer``, ``errors`` and
``lagset`` (the bitset engine behind ``consecutive_z``, the split search
and the simulator's Z) need the standard library alone, so ``import
tosda`` and the design layer start without numpy.  No design or
simulation path imports ``coarray``: its multisets are the oracle of
``lagset`` and the ``tosda coarray`` report.
"""

import importlib

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_EXPORTS = {
    "coarray": ("CoarrayReport", "LagMultiset", "index_lag_map", "second_order",
                "to_eca", "toca"),
    "lagset": ("consecutive_z",),
    "designer": ("DesignParams", "SweepRow", "brute_force_split",
                 "dof_closed_form", "dof_sweep", "minimum_sensors", "split_closed_form"),
    "errors": ("ArrayFileError", "ArrayParseError", "ArrayValidationError",
               "CapacityExceededError", "GeometryInconsistencyError",
               "InternalConsistencyError", "InvalidParameterError", "TosdaError",
               "UnsupportedSizeError"),
    "geometry": ("VARIANTS", "SensorArray", "build_generator", "build_gtoa",
                 "build_to_sda", "build_ula", "load_array", "normalize_variant",
                 "save_array"),
    "metrics": ("CouplingModel", "RedundancyReport", "closed_form_redundancy",
                "corollary_bounds", "coupling_leakage", "coupling_matrix", "k_tilde",
                "l3_bound", "redundancy_toeca", "size_bounds",
                "z_closed_form"),
    "simulator": ("EstimationResult", "RunStats", "SourceScene", "monte_carlo", "rmse",
                  "run_trial", "sample_third_cumulants", "ss_music", "steering_matrix",
                  "synthesize_snapshots", "virtual_array_vector"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Import the submodule that defines ``name``, or is ``name``, on first use."""
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
