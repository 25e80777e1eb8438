"""Co-array size bounds, redundancy figures, and the mutual-coupling model.

The combinatorial quantities (size bounds, maximal one-sided co-array
size) are computed in exact integer arithmetic because they feed ratios
where floating point error could flip a bound check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import lagset
from .designer import continuous_optimum_n1, round_half_up
from .errors import (
    InternalConsistencyError,
    InvalidParameterError,
    float_range,
    real_number,
    whole_number,
)
from .geometry import SensorArray, normalize_variant


def size_bounds(n: int) -> tuple[int, int, int]:
    """(lower, upper, one-sided max) sizes of an N-sensor TO-ECA.

    lower = 6N-5, upper = (4N^3+3N^2-N+3)/3, one-sided max
    k_tilde = (4N^3+3N^2-N)/6.  Both divisions are provably exact.
    """
    n = whole_number(n, "n")
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    lower = 6 * n - 5
    upper, rem_u = divmod(4 * n**3 + 3 * n**2 - n + 3, 3)
    k_tilde, rem_k = divmod(4 * n**3 + 3 * n**2 - n, 6)
    if rem_u or rem_k:
        raise InternalConsistencyError(f"size bounds not integral at n={n}")
    return lower, upper, k_tilde


def k_tilde(n: int) -> int:
    """Maximal one-sided TO-ECA size (4N^3+3N^2-N)/6."""
    return size_bounds(n)[2]


def l3_bound(n: int) -> float:
    """Strict lower bound on the TO-ECA redundancy of any N-sensor array.

    (1 + 2/(3*pi)) * (4N^3+3N^2-N) / (N^3+3N^2+2N); increases with N and
    tends to 4*(1 + 2/(3*pi)) ~ 4.8488.
    """
    n = whole_number(n, "n")
    if n < 2:
        raise InvalidParameterError(f"redundancy bound needs n >= 2, got {n}")
    with float_range(n, "n"):
        return (1 + 2 / (3 * math.pi)) * (4 * n**3 + 3 * n**2 - n) / (
            n**3 + 3 * n**2 + 2 * n
        )


@dataclass(frozen=True)
class RedundancyReport:
    """Achieved vs maximal one-sided co-array size for one array.

    ``r_t`` is ``k_tilde / Z`` and comes out infinite when the
    consecutive segment degenerates to lag 0 alone (Z = 0); infinity is
    a legitimate value here, not an error.
    """

    name: str
    N: int
    Z: int
    k_tilde: int
    r_t: float
    l3: float
    within_bounds: bool

    @property
    def infinite(self) -> bool:
        return math.isinf(self.r_t)


def redundancy_toeca(array: SensorArray) -> RedundancyReport:
    """Redundancy of the array's TO-ECA, with the universal lower bound.

    Z is ``to_eca(array).one_sided_z``, read by :func:`lagset.consecutive_z`.
    """
    n = array.size
    z = lagset.consecutive_z(array)
    kt = k_tilde(n)
    r_t = kt / z if z >= 1 else math.inf
    l3 = l3_bound(n) if n >= 2 else math.nan
    within = bool(r_t > l3) if n >= 2 else True
    return RedundancyReport(
        name=array.name, N=n, Z=z, k_tilde=kt, r_t=r_t, l3=l3,
        within_bounds=within,
    )


def z_closed_form(variant: str, n: int) -> float:
    """Closed-form one-sided consecutive-lag count of a TO-SDA variant.

    Evaluates the relaxed cubic DOF objective at the printed integer
    snap of the continuous optimum N1* (floor for CNA/SCNA, round-half-up
    for TNA-II) and halves it.  This is a smooth design-space estimate:
    at small N the snapped N1 can fall below any realizable generator, so
    cross-checks against brute force only make sense where both exist.
    """
    n = whole_number(n, "n")
    variant = normalize_variant(variant)
    if n < 2:
        raise InvalidParameterError(f"need n >= 2, got {n}")
    n1_star = continuous_optimum_n1(variant, n)
    with float_range(n, "n"):
        if variant == "cna":
            n1 = float(math.floor(n1_star))
            f = (
                -(n1**3) + (n - 21 / 4) * n1**2 + (6 * n + 19 / 2) * n1
                - 17 / 4 - 5 * n
            )
        elif variant == "scna":
            n1 = float(math.floor(n1_star))
            f = (
                -(n1**3) + (n - 21 / 4) * n1**2 + (6 * n + 3 / 2) * n1
                + 7 / 4 + 3 * n
            )
        else:
            n1 = float(round_half_up(n1_star))
            f = (
                -2 * n1**3 + (2 * n + 3 / 2) * n1**2 + (9 / 2 - 4 * n) * n1
                + 4 * n**2 - 3 * n / 2 - 47 / 8
            )
    return (f - 1) / 2


def closed_form_redundancy(variant: str, n: int) -> float:
    """k_tilde(N) over the variant's closed-form one-sided lag count."""
    z = z_closed_form(variant, n)
    with float_range(n, "n"):
        return math.inf if z <= 0 else k_tilde(n) / z


def corollary_bounds(variant: str) -> tuple[float, float]:
    """Published (low, high) envelope of the closed-form redundancy."""
    variant = normalize_variant(variant)
    return {
        "cna": (2.4789, 9.0),
        "scna": (2.200, 9.0),
        "tna2": (2.1477, 4.5),
    }[variant]


@dataclass(frozen=True)
class CouplingModel:
    """Banded symmetric Toeplitz mutual-coupling model.

    Coefficient at inter-sensor distance l (grid units): c_0 = 1,
    c_1 = c1_magnitude * exp(j*c1_phase), and for 2 <= l <= band_limit
    c_l = c_1 * exp(-j*(l-1)*decay_phase_step) / l, zero beyond the band.
    Defaults reproduce the standard benchmark model (0.3*exp(j*pi/3),
    band 100, pi/8 phase step).
    """

    c1_magnitude: float = 0.3
    c1_phase: float = math.pi / 3
    band_limit: int = 100
    decay_phase_step: float = math.pi / 8

    def __post_init__(self):
        for key in ("c1_magnitude", "c1_phase", "decay_phase_step"):
            object.__setattr__(self, key, real_number(getattr(self, key), key))
        object.__setattr__(self, "band_limit", whole_number(self.band_limit, "band_limit"))
        if not 0 <= self.c1_magnitude < 1:
            raise InvalidParameterError("|c1| must lie in [0, 1)")
        if self.band_limit < 0:
            raise InvalidParameterError("band limit must be >= 0")

    def coefficient(self, distance: int) -> complex:
        distance = whole_number(distance, "distance")
        if distance < 0:
            raise InvalidParameterError("distance must be >= 0")
        if distance == 0:
            return 1.0 + 0.0j
        if distance > self.band_limit:
            return 0.0j
        c1 = self.c1_magnitude * np.exp(1j * self.c1_phase)
        if distance == 1:
            return complex(c1)
        return complex(
            c1 * np.exp(-1j * (distance - 1) * self.decay_phase_step) / distance
        )


def coupling_matrix(
    array: SensorArray, model: Optional[CouplingModel] = None
) -> np.ndarray:
    """N x N mutual-coupling matrix of the physical array.

    Entry (a, b) depends only on |p_a - p_b|, so the matrix equals its
    transpose, has a unit diagonal, and is exactly zero beyond the band.
    Coefficients are computed up to ``min(aperture, band_limit)`` only.
    """
    model = model or CouplingModel()
    reach = min(array.aperture, model.band_limit)
    # a gap between neighbours beyond the band shrinks to reach + 1: no
    # distance within reach changes and none beyond it comes within, and
    # the shrunk positions fit int64 whatever the aperture
    pos = array.positions
    p = np.cumsum([0] + [min(b - a, reach + 1) for a, b in zip(pos, pos[1:])])
    dist = np.minimum(np.abs(p[:, None] - p[None, :]), reach + 1)
    table = np.array(
        [model.coefficient(l) for l in range(reach + 1)] + [0j], dtype=np.complex128
    )
    return table[dist]


def coupling_leakage(c: np.ndarray) -> float:
    """Off-diagonal energy fraction ||C - diag(C)||_F / ||C||_F."""
    c = np.asarray(c)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise InvalidParameterError(f"expected a square matrix, got {c.shape}")
    if c.dtype.kind not in "iufc" or not np.isfinite(c).all():
        raise InvalidParameterError(f"coupling matrix must be finite, got a {c.dtype} matrix")
    total = np.linalg.norm(c)
    if total == 0:
        raise InvalidParameterError("coupling matrix is identically zero")
    off = c - np.diag(np.diag(c))
    return float(np.linalg.norm(off) / total)
