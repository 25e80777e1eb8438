"""Third-order co-array sparse linear arrays: design, verification, DOA.

The package splits into five layers:

- :mod:`tosda.geometry`  — integer sensor layouts and file I/O
- :mod:`tosda.coarray`   — exact second-/third-order lag algebra
- :mod:`tosda.designer`  — closed-form and exhaustive sensor splits
- :mod:`tosda.metrics`   — size/redundancy bounds and mutual coupling
- :mod:`tosda.simulator` — snapshots, cumulants, Toeplitz co-array MUSIC
"""

from .coarray import (
    CoarrayReport,
    LagMultiset,
    index_lag_map,
    second_order,
    to_eca,
    toca,
)
from .designer import (
    SplitResult,
    SweepRow,
    brute_force_split,
    dof_closed_form,
    dof_sweep,
    minimum_sensors,
    split_closed_form,
)
from .errors import (
    ArrayFileError,
    ArrayParseError,
    ArrayValidationError,
    CapacityExceededError,
    GeometryInconsistencyError,
    InternalConsistencyError,
    InvalidParameterError,
    TosdaError,
    UnsupportedSizeError,
)
from .geometry import (
    VARIANTS,
    DesignParams,
    SensorArray,
    build_generator,
    build_gtoa,
    build_to_sda,
    build_ula,
    load_array,
    normalize_variant,
    save_array,
)
from .metrics import (
    CouplingModel,
    RedundancyReport,
    closed_form_redundancy,
    corollary_bounds,
    coupling_leakage,
    coupling_matrix,
    k_tilde,
    l3_bound,
    redundancy_second_order,
    redundancy_toeca,
    size_bounds,
    z_closed_form,
)
from .simulator import (
    EstimationResult,
    RunStats,
    SourceScene,
    monte_carlo,
    rmse,
    sample_third_cumulants,
    ss_music,
    steering_matrix,
    synthesize_snapshots,
    virtual_array_vector,
)

__version__ = "0.1.0"
