"""End-to-end cumulant-domain DOA experiments.

Pipeline: synthesize snapshots (optionally through a mutual-coupling
matrix), average their empirical third-order cumulants over each lag of
the consecutive virtual array in one pass, then run co-array MUSIC on
the Hermitian Toeplitz matrix of that virtual-array vector.  Its
eigenvectors span the subspaces of the spatially smoothed covariance
without forming it (Liu & Vaidyanathan, IEEE SPL 22(9), 2015).
Third-order statistics vanish for Gaussian processes, so additive
Gaussian noise is suppressed by the statistics themselves rather than
subtracted.

All randomness flows through ``numpy.random.Generator`` objects seeded
from explicit integers; Monte-Carlo trials derive their generators from
(master seed, sweep point, trial index) so results do not depend on the
number of worker threads.
"""

from __future__ import annotations

import functools
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import toeplitz
from scipy.signal import find_peaks

from . import coarray, metrics
from .coarray import CoarrayReport
from .errors import (
    CapacityExceededError,
    InternalConsistencyError,
    InvalidParameterError,
)
from .geometry import SensorArray

SWEEP_PARAMETERS = ("snr", "snapshots", "num_sources")


@dataclass(frozen=True)
class SourceScene:
    """Source constellation and sampling setup for one experiment.

    ``snr_db`` is per-source: each source has unit power and the noise
    power at every sensor is 10**(-snr_db/10).  Source amplitudes are
    real, zero-mean and unit-variance with a centered exponential law;
    its skewness keeps all four third-order conjugation patterns away
    from zero, which symmetric constellations would not.
    """

    angles_deg: tuple[float, ...]
    snr_db: float
    snapshots: int
    seed: int = 0

    def __post_init__(self):
        angles = tuple(float(a) for a in self.angles_deg)
        if len(angles) < 1:
            raise InvalidParameterError("need at least one source")
        if not all(math.isfinite(a) for a in (*angles, self.snr_db)):
            raise InvalidParameterError(
                f"angles and snr_db must be finite, got {angles} and {self.snr_db}"
            )
        if len(set(angles)) != len(angles):
            raise InvalidParameterError(f"source angles must be distinct: {angles}")
        if any(abs(a) >= 90 for a in angles):
            raise InvalidParameterError("angles must lie inside (-90, 90) degrees")
        if self.snapshots < 1:
            raise InvalidParameterError("need at least one snapshot")
        if int(self.seed) != self.seed or self.seed < 0:
            raise InvalidParameterError("seed must be a non-negative integer")
        object.__setattr__(self, "angles_deg", angles)

    @property
    def n_sources(self) -> int:
        return len(self.angles_deg)


@dataclass
class EstimationResult:
    """DOA estimates from one spectrum evaluation.

    ``peaks_padded`` is set when the pseudo-spectrum offered fewer local
    maxima than requested sources and the remainder was filled with the
    largest off-peak grid values; such trials should be treated as
    resolution failures.
    """

    angles_deg: np.ndarray
    spectrum: Optional[tuple[np.ndarray, np.ndarray]]
    peaks_padded: bool


@dataclass
class RunStats:
    """Aggregate of one Monte-Carlo sweep point.

    ``padded_trials`` counts the trials whose estimates were padded (see
    :class:`EstimationResult`); their estimates still enter ``rmse_deg``.
    """

    sweep_value: float
    trials: int
    padded_trials: int
    rmse_deg: float
    per_trial_estimates: np.ndarray
    truth_deg: np.ndarray


def steering_matrix(array: SensorArray, angles_deg) -> np.ndarray:
    """N x D matrix of unit-modulus phase responses exp(j*2*pi*d*p*sin)."""
    angles = np.atleast_1d(np.asarray(angles_deg, dtype=float))
    if np.any(np.abs(angles) >= 90):
        raise InvalidParameterError("angles must lie inside (-90, 90) degrees")
    p = np.asarray(array.positions, dtype=float)
    u = np.sin(np.deg2rad(angles))
    return np.exp(1j * 2 * np.pi * array.unit_spacing * np.outer(p, u))


def synthesize_snapshots(
    array: SensorArray,
    scene: SourceScene,
    coupling: Optional[metrics.CouplingModel] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Simulate the N x K received-snapshot matrix.

    Sources are drawn first, then noise, so a fixed seed reproduces the
    matrix bit for bit.  The coupling matrix multiplies only the signal
    part; sensor noise is injected after it.
    """
    if rng is None:
        rng = np.random.default_rng(scene.seed)
    d, k = scene.n_sources, scene.snapshots
    a = steering_matrix(array, scene.angles_deg)
    s = rng.exponential(1.0, size=(d, k)) - 1.0
    x = a @ s.astype(np.complex128)
    if coupling is not None:
        x = metrics.coupling_matrix(array, coupling) @ x
    sigma = math.sqrt(10.0 ** (-scene.snr_db / 10.0))
    noise = rng.standard_normal((array.size, k)) + 1j * rng.standard_normal(
        (array.size, k)
    )
    return x + (sigma / math.sqrt(2.0)) * noise


def _centred(x: np.ndarray, array: SensorArray) -> np.ndarray:
    """The N x K snapshot matrix with each sensor's sample mean removed."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 2:
        raise InvalidParameterError(f"expected an N x K matrix, got shape {x.shape}")
    n, k = x.shape
    if n != array.size:
        raise InvalidParameterError(
            f"snapshot matrix has {n} rows but the array has {array.size} sensors"
        )
    if k < 1:
        raise InvalidParameterError("need at least one snapshot")
    return x - x.mean(axis=1, keepdims=True)


def sample_third_cumulants(x: np.ndarray, array: SensorArray) -> np.ndarray:
    """Reference estimate of all 4*N^3 empirical third-order cumulants.

    For a zero-mean process the third cumulant equals the third moment,
    so after removing the sample mean each entry is the snapshot average
    of the conjugation pattern x_i x_j x_k, in the order of
    :func:`tosda.coarray.index_lag_map`.  The pipeline does not use this
    vector; it is the oracle :func:`virtual_array_vector` is tested against.
    """
    xc = _centred(x, array)
    t1 = np.einsum("it,jt,kt->ijk", xc, xc, xc, optimize=True) / xc.shape[1]
    t2 = np.einsum("it,jt,kt->ijk", xc, xc, xc.conj(), optimize=True) / xc.shape[1]
    return np.concatenate(
        [t1.ravel(), t2.ravel(), t2.conj().ravel(), t1.conj().ravel()]
    )


def virtual_array_vector(
    x: np.ndarray, array: SensorArray, report: CoarrayReport
) -> np.ndarray:
    """Redundancy-averaged third-order cumulants on the lags [-Z, Z].

    Entries sharing a lag enter the unweighted arithmetic mean; the output
    has length 2Z+1, ordered by lag.  Patterns 1 and 2 are symmetric in
    (i, j), so only the pairs i <= j are formed, weighted by multiplicity;
    patterns 3 and 4 are their conjugate mirror.  The lag counts found
    here must equal the weights of ``report``, the TO-ECA of ``array``.
    """
    xc = _centred(x, array)
    n, k = xc.shape
    z = report.one_sided_z
    if z < 0:
        raise InternalConsistencyError("co-array has no lag 0; nothing to average")
    p = np.asarray(array.positions, dtype=np.int64)
    i, j = np.triu_indices(n)
    mult = np.repeat(np.where(i == j, 1.0, 2.0), 2 * n)
    lags = ((p[i] + p[j])[:, None] + np.concatenate([p, -p])).ravel()
    keep = np.abs(lags) <= z

    def binned(values):
        return np.bincount(lags[keep] + z, values[keep], 2 * z + 1)

    both = np.concatenate([xc, xc.conj()]).T
    # one block of pair rows per sensor keeps peak memory at N x K, not N^2/2 x K
    moments = np.concatenate([(xc[a] * xc[a:]) @ both for a in range(n)]).ravel()
    moments *= mult / k
    sums = binned(moments.real) + 1j * binned(moments.imag)
    counts = binned(mult) + binned(mult)[::-1]
    w = report.weights
    if w.lo > -z or not np.array_equal(counts, w.counts[-z - w.lo : z - w.lo + 1]):
        raise InternalConsistencyError(f"report is not the TO-ECA of {array.name}")
    return (sums + sums[::-1].conj()) / counts


@functools.lru_cache(maxsize=8)
def _grid_and_steering(m: int, step_deg: float, unit_spacing: float):
    """Search grid over (-90, 90) plus the m-element virtual ULA responses."""
    npts = int(round(180.0 / step_deg)) + 1
    grid = np.linspace(-90.0, 90.0, npts)[1:-1]
    u = np.sin(np.deg2rad(grid))
    a = np.exp(1j * 2 * np.pi * unit_spacing * np.outer(np.arange(m, dtype=float), u))
    grid.setflags(write=False)  # shared across threads and callers
    a.setflags(write=False)
    return grid, a


def ss_music(
    z: np.ndarray,
    n_sources: int,
    *,
    grid_step_deg: float = 0.01,
    unit_spacing: float = 0.5,
    keep_spectrum: bool = False,
) -> EstimationResult:
    """Co-array MUSIC on a virtual-array vector over [-Z, Z].

    The Z+1 lags 0..Z of the conjugate-symmetric vector z define the
    Hermitian Toeplitz matrix T with T[i, k] = z(i - k).  The spatially
    smoothed covariance of the Z+1 overlapping subvectors equals T T^H/(Z+1)
    (Liu & Vaidyanathan, "Remarks on the spatial smoothing step in coarray
    MUSIC", IEEE SPL 22(9), 2015), so its signal subspace is spanned by the
    D eigenvectors of T with the largest |eigenvalue|.  The complementary
    noise subspace defines the pseudo-spectrum, and the D largest local
    maxima are returned sorted by angle.  Requires D <= Z: each extra
    source consumes one dimension of the subarray.
    """
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim != 1 or z.size % 2 == 0:
        raise InvalidParameterError(
            f"virtual-array vector must have odd length 2Z+1, got {z.shape}"
        )
    if not np.all(np.isfinite(z)):
        raise InvalidParameterError("virtual-array vector has non-finite entries")
    if np.abs(z[::-1].conj() - z).max() > 1e-9 * np.abs(z).max():
        raise InvalidParameterError(
            "virtual-array vector is not conjugate-symmetric: z(-l) != conj z(l)"
        )
    big_z = (z.size - 1) // 2
    if n_sources < 1:
        raise InvalidParameterError("need at least one source")
    if n_sources > big_z:
        raise CapacityExceededError(
            f"{n_sources} sources exceed the {big_z} one-sided consecutive lags"
        )
    if not (math.isfinite(grid_step_deg) and grid_step_deg > 0):
        raise InvalidParameterError(f"grid step {grid_step_deg} is not finite and > 0")
    m = big_z + 1
    grid, a = _grid_and_steering(m, grid_step_deg, unit_spacing)
    if grid.size < n_sources:
        raise InvalidParameterError(f"{grid.size} grid points for {n_sources} sources")
    vals, vecs = np.linalg.eigh(toeplitz(z[big_z:]))  # Hermitian: row = conj(column)
    signal = vecs[:, np.argsort(np.abs(vals), kind="stable")[m - n_sources:]]

    # |En^H a|^2 = m - |Es^H a|^2 because the eigenbasis is orthonormal
    proj = signal.conj().T @ a
    den = m - np.einsum("ij,ij->j", proj, proj.conj()).real
    spectrum = 1.0 / np.maximum(den, 1e-12)

    peaks, _ = find_peaks(spectrum)
    order = peaks[np.argsort(spectrum[peaks], kind="stable")[::-1]]
    chosen = list(order[:n_sources])
    padded = len(chosen) < n_sources
    if padded:
        taken = set(chosen)
        for idx in np.argsort(spectrum, kind="stable")[::-1]:
            if idx not in taken:
                chosen.append(int(idx))
                taken.add(int(idx))
            if len(chosen) == n_sources:
                break
    angles = np.sort(grid[np.asarray(chosen, dtype=np.intp)])
    return EstimationResult(
        angles_deg=angles,
        spectrum=(grid, spectrum) if keep_spectrum else None,
        peaks_padded=padded,
    )


def rmse(estimates: np.ndarray, truth) -> float:
    """Root-mean-square DOA error over trials and sources, in degrees.

    Estimates are matched to the truth by sorted order, which is the
    deterministic matching the aggregate error definition presumes.
    """
    est = np.asarray(estimates, dtype=float)
    if est.ndim == 1:
        est = est[None, :]
    if est.ndim != 2:
        raise InvalidParameterError(f"expected a trials x D matrix, got {est.shape}")
    truth = np.sort(np.asarray(truth, dtype=float))
    if est.shape[1] != truth.size:
        raise InvalidParameterError(
            f"estimates have {est.shape[1]} sources, truth has {truth.size}"
        )
    err = np.sort(est, axis=1) - truth[None, :]
    return float(np.sqrt(np.mean(err**2)))


def whole_number(value) -> int:
    """``value`` as an int when it is a number with no fractional part.

    Bools, non-numbers and non-whole values raise instead of truncating.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    raise InvalidParameterError(f"{value!r} is not a whole number")


def _scene_for_point(scene: SourceScene, parameter: str, value) -> SourceScene:
    if parameter == "snr":
        return replace(scene, snr_db=float(value))
    if parameter not in SWEEP_PARAMETERS:
        raise InvalidParameterError(
            f"sweep parameter must be one of {SWEEP_PARAMETERS}, got {parameter!r}"
        )
    count = whole_number(value)
    if count < 1:
        raise InvalidParameterError(f"sweep {parameter} must be a whole number >= 1")
    if parameter == "snapshots":
        return replace(scene, snapshots=count)
    lo, hi = min(scene.angles_deg), max(scene.angles_deg)
    return replace(scene, angles_deg=tuple(np.linspace(lo, hi, count)))


def monte_carlo(
    array: SensorArray,
    scene: SourceScene,
    sweep: Optional[tuple[str, Sequence]] = None,
    *,
    trials: int,
    coupling: Optional[metrics.CouplingModel] = None,
    grid_step_deg: float = 0.01,
    threads: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> list[RunStats]:
    """Run seeded end-to-end trials for each sweep point.

    ``scene.seed`` acts as the master seed; trial t of sweep point i
    uses ``default_rng([seed, i, t])``, so a run is reproducible and
    independent of ``threads``.  A trial that cannot estimate (more
    sources than consecutive lags) aborts its sweep point with a
    :class:`CapacityExceededError` naming the point.
    """
    if trials < 1:
        raise InvalidParameterError("need at least one trial")
    if threads < 1:
        raise InvalidParameterError("need at least one thread")
    if sweep is None:
        points = [(None, scene)]
    else:
        parameter, values = sweep
        if not len(values):
            raise InvalidParameterError("sweep needs at least one value")
        points = [
            (value, _scene_for_point(scene, parameter, value)) for value in values
        ]

    report = coarray.to_eca(array)
    big_z = report.one_sided_z
    results = []
    for point_idx, (value, point_scene) in enumerate(points):
        d = point_scene.n_sources
        if d > big_z:
            raise CapacityExceededError(
                f"sweep point {value!r}: {d} sources exceed the {big_z} "
                f"one-sided consecutive lags of {array.name}"
            )

        def run_trial(t: int) -> EstimationResult:
            rng = np.random.default_rng([point_scene.seed, point_idx, t])
            x = synthesize_snapshots(array, point_scene, coupling, rng)
            zvec = virtual_array_vector(x, array, report)
            return ss_music(
                zvec,
                d,
                grid_step_deg=grid_step_deg,
                unit_spacing=array.unit_spacing,
            )

        if threads == 1:
            estimates = [run_trial(t) for t in range(trials)]
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                estimates = list(pool.map(run_trial, range(trials)))
        est_matrix = np.vstack([est.angles_deg for est in estimates])
        padded = sum(est.peaks_padded for est in estimates)
        truth = np.sort(np.asarray(point_scene.angles_deg))
        results.append(
            RunStats(
                sweep_value=math.nan if value is None else float(value),
                trials=trials,
                padded_trials=padded,
                rmse_deg=rmse(est_matrix, truth),
                per_trial_estimates=est_matrix,
                truth_deg=truth,
            )
        )
        if progress is not None:
            progress(
                f"sweep point {point_idx + 1}/{len(points)} "
                f"(value={value!r}): rmse={results[-1].rmse_deg:.4f} deg, "
                f"{padded}/{trials} trials padded"
            )
    return results
