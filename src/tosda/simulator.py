"""End-to-end cumulant-domain DOA experiments.

Pipeline: synthesize snapshots (optionally through a mutual-coupling
matrix), estimate the empirical third-order cumulant vector, collapse it
onto the consecutive virtual array by redundancy averaging, then run
spatial-smoothing MUSIC on the virtual uniform array.  Third-order
statistics vanish for Gaussian processes, so additive Gaussian noise is
suppressed by the statistics themselves rather than subtracted.

All randomness flows through ``numpy.random.Generator`` objects seeded
from explicit integers; Monte-Carlo trials derive their generators from
(master seed, sweep point, trial index) so results do not depend on the
number of worker threads.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
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
class CumulantData:
    """Stacked empirical third-order cumulant vector of length 4*N^3.

    ``lag_map[i]`` is the virtual-array lag the i-th entry responds to;
    the ordering matches :func:`tosda.coarray.index_lag_map`.
    """

    values: np.ndarray
    lag_map: np.ndarray
    n_sensors: int
    snapshots: int


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
    subarray_size: int
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


def sample_third_cumulants(x: np.ndarray, array: SensorArray) -> CumulantData:
    """Empirical third-order cumulants of the snapshot matrix.

    For a zero-mean process the third cumulant equals the third moment,
    so after removing the sample mean each entry is the snapshot average
    of the conjugation pattern x_i x_j x_k.  Patterns 3 and 4 are exact
    conjugates of patterns 2 and 1 for any data, so only two tensor
    contractions are evaluated.
    """
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
    xc = x - x.mean(axis=1, keepdims=True)
    t1 = np.einsum("it,jt,kt->ijk", xc, xc, xc, optimize=True) / k
    t2 = np.einsum("it,jt,kt->ijk", xc, xc, xc.conj(), optimize=True) / k
    values = np.concatenate(
        [t1.ravel(), t2.ravel(), t2.conj().ravel(), t1.conj().ravel()]
    )
    return CumulantData(
        values=values,
        lag_map=coarray.index_lag_map(array),
        n_sensors=n,
        snapshots=k,
    )


def virtual_array_vector(cum: CumulantData, report: CoarrayReport) -> np.ndarray:
    """Collapse cumulant entries onto the consecutive lags [-Z, Z].

    Entries sharing a lag are redundancy-averaged with the unweighted
    arithmetic mean; the output has length 2Z+1, ordered by lag.
    """
    z = report.one_sided_z
    if z < 0:
        raise InternalConsistencyError("co-array has no lag 0; nothing to average")
    lag = cum.lag_map
    if lag.shape != cum.values.shape:
        raise InvalidParameterError("cumulant values and lag map sizes differ")
    mask = np.abs(lag) <= z
    idx = (lag[mask] + z).astype(np.intp)
    vals = cum.values[mask]
    width = 2 * z + 1
    counts = np.bincount(idx, minlength=width)
    if np.any(counts == 0):
        missing = [int(i - z) for i in np.flatnonzero(counts == 0)]
        raise InternalConsistencyError(
            f"lags {missing} missing inside [-{z}, {z}]; report and lag map disagree"
        )
    sums = np.bincount(idx, weights=vals.real, minlength=width) + 1j * np.bincount(
        idx, weights=vals.imag, minlength=width
    )
    return sums / counts


_STEERING_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def _grid_and_steering(m: int, step_deg: float, unit_spacing: float):
    """Search grid over (-90, 90) plus the m-element virtual ULA responses."""
    key = (m, float(step_deg), float(unit_spacing))
    hit = _STEERING_CACHE.get(key)
    if hit is None:
        npts = int(round(180.0 / step_deg)) + 1
        grid = np.linspace(-90.0, 90.0, npts)[1:-1]
        u = np.sin(np.deg2rad(grid))
        a = np.exp(
            1j * 2 * np.pi * unit_spacing * np.outer(np.arange(m, dtype=float), u)
        )
        grid.setflags(write=False)  # shared across threads and callers
        a.setflags(write=False)
        if len(_STEERING_CACHE) >= 8:
            _STEERING_CACHE.clear()
        hit = (grid, a)
        _STEERING_CACHE[key] = hit
    return hit


def ss_music(
    z: np.ndarray,
    n_sources: int,
    *,
    grid_step_deg: float = 0.01,
    unit_spacing: float = 0.5,
    keep_spectrum: bool = False,
) -> EstimationResult:
    """Spatial-smoothing MUSIC on a virtual-array vector over [-Z, Z].

    The 2Z+1 lags are swept by Z+1 overlapping subvectors of length Z+1
    whose averaged outer product restores rank; its noise subspace (the
    Z+1-D smallest eigenpairs) defines the pseudo-spectrum, and the D
    largest local maxima are returned sorted by angle.  Requires
    D <= Z: each extra source consumes one dimension of the subarray.
    """
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim != 1 or z.size % 2 == 0:
        raise InvalidParameterError(
            f"virtual-array vector must have odd length 2Z+1, got {z.shape}"
        )
    big_z = (z.size - 1) // 2
    if n_sources < 1:
        raise InvalidParameterError("need at least one source")
    if n_sources > big_z:
        raise CapacityExceededError(
            f"{n_sources} sources exceed the {big_z} one-sided consecutive lags"
        )
    if grid_step_deg <= 0:
        raise InvalidParameterError("grid step must be positive")
    m = big_z + 1
    windows = sliding_window_view(z, m)  # row i = lags [i-Z, i]
    r = windows.T @ windows.conj() / m
    r = (r + r.conj().T) / 2
    _, vecs = np.linalg.eigh(r)
    signal = vecs[:, m - n_sources:]

    grid, a = _grid_and_steering(m, grid_step_deg, unit_spacing)
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
        subarray_size=m,
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


def _scene_for_point(scene: SourceScene, parameter: str, value) -> SourceScene:
    if parameter == "snr":
        return replace(scene, snr_db=float(value))
    if parameter == "snapshots":
        return replace(scene, snapshots=int(value))
    if parameter == "num_sources":
        lo, hi = min(scene.angles_deg), max(scene.angles_deg)
        angles = tuple(np.linspace(lo, hi, int(value)))
        return replace(scene, angles_deg=angles)
    raise InvalidParameterError(
        f"sweep parameter must be one of {SWEEP_PARAMETERS}, got {parameter!r}"
    )


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
            cum = sample_third_cumulants(x, array)
            zvec = virtual_array_vector(cum, report)
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
