"""End-to-end cumulant-domain DOA experiments.

Pipeline: synthesize snapshots (optionally through a mutual-coupling
matrix), average their empirical third-order cumulants over each lag of
the consecutive virtual array in one pass, then run co-array MUSIC on
the Hermitian Toeplitz matrix of that virtual-array vector.  Its
eigenvectors span the subspaces of the spatially smoothed covariance
without forming it (Liu & Vaidyanathan, IEEE SPL 22(9), 2015).  Small
virtual arrays take them from a dense ``eigh``; large ones from
implicitly restarted Lanczos (ARPACK) on a product with the circulant
embedding of T, whose spectrum is transformed once per call, so the
matrix is never formed.  The grid projection evaluates ||Es^H a||^2 as
one trigonometric polynomial whose coefficients are the superdiagonal
sums of Es Es^H (the root-MUSIC identity, Barabell, ICASSP 1983), from one
steering table whose size does not depend on the aperture.
Third-order statistics vanish for Gaussian processes, so additive
Gaussian noise is suppressed by the statistics themselves rather than
subtracted.

All randomness flows through ``numpy.random.Generator`` objects seeded
from explicit integers; Monte-Carlo trials derive their generators from
(master seed, sweep point, trial index) so results do not depend on the
number of worker threads.

For the whole of every ``monte_carlo`` call, the OpenBLAS copies bundled
with numpy and scipy are pinned to one thread each and restored afterwards.
Several workers would each start a BLAS thread per core and oversubscribe
the cores.  With one worker, the threads ARPACK wakes in scipy's copy still
spin when numpy's copy starts the next trial's GEMM, which slowed both by
about 2x.  The pin leaves every result unchanged.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.fft
from scipy.linalg import toeplitz
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from . import coarray, metrics
from .coarray import CoarrayReport
from .errors import (
    CapacityExceededError,
    InternalConsistencyError,
    InvalidParameterError,
    real_number,
    whole_number,
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
        angles = tuple(real_number(a, "angles_deg") for a in self.angles_deg)
        if len(angles) < 1:
            raise InvalidParameterError("need at least one source")
        snr_db = real_number(self.snr_db, "snr_db")
        if -snr_db / 10.0 > math.log10(sys.float_info.max):
            raise InvalidParameterError(
                f"snr_db {snr_db} puts the noise power 10**(-snr_db/10) beyond float range"
            )
        if len(set(angles)) != len(angles):
            raise InvalidParameterError(f"source angles must be distinct: {angles}")
        if any(abs(a) >= 90 for a in angles):
            raise InvalidParameterError("angles must lie inside (-90, 90) degrees")
        snapshots = whole_number(self.snapshots, "snapshots")
        if snapshots < 1:
            raise InvalidParameterError("need at least one snapshot")
        seed = whole_number(self.seed, "seed")
        if seed < 0:
            raise InvalidParameterError("seed must be a non-negative integer")
        object.__setattr__(self, "angles_deg", angles)
        object.__setattr__(self, "snr_db", snr_db)
        object.__setattr__(self, "snapshots", snapshots)
        object.__setattr__(self, "seed", seed)

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

    ``spectrum`` is 1/|En^H a|^2 with |En^H a|^2 = m - ||Es^H a||^2.  The
    second term is the polynomial r_0 + 2 Re sum_l r_l w**l (see
    :func:`ss_music`), whose rounding is bounded by about eps*sum|r_l|
    <= eps*D*m; measured, |En^H a|^2 stays within 6.5e-15*m of the
    per-row form sum_k |Es[:, k]^H a|^2 on CNA vectors (D = 12,
    m = 124..1514), so float64 gives it to about eps*m absolute.  Near a
    peak the subtraction cancels, so a spectrum value is only good to
    about eps*m/(m - ||Es^H a||^2) relative; compare 1/spectrum, not
    spectrum.
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


# Rows per block of the factored steering table; the cached table is B x G.
_BLOCK = 64

# Largest virtual array whose signal subspace comes from a dense eigh.  ARPACK's
# reverse-communication loop runs in Python under the GIL, so it loses on small
# matrices, and two pool workers overlap their eighs but not their ARPACK loops.
# Medians in ms on real CNA vectors (12 sources, K=12000, coupling) on 2 cores,
# eigh / eigsh on the FFT operator of _signal_subspace, ranges over 3 runs;
# "2 workers" is the wall time per call while two pool workers run:
#                       m=124          m=252          m=309          m=512
#   pinned, one call    4.1-7.8 / 6-7  22 / 5.4-11    38-41 / 7      210-220 / 9
#   pinned, 2 workers   2.8-3.3 / 8-15 12.5-13 / 9-11 18-22 / 10-16  103-117 / 13-15
#   unpinned, one call  3.9-18 / 6-16  20-28 / 7-10   33-54 / 8-20   128-200 / 18-67
# One call alone crosses over below m = 195, but with 2 workers eigh still wins
# at m=195 (8-12 / 11-15 ms) and ties at m=252 (11.5-13 / 10-11.6 ms), so in the
# pool the crossover stays near m = 256.  At m=1514: 4.8 s vs 11 ms.
# One-worker monte_carlo calls run in the "pinned, one call" row too.
_DENSE_EIGH_MAX_M = 256


@functools.lru_cache(maxsize=8)
def _grid_and_steering(step_deg: float, unit_spacing: float):
    """Search grid over (-90, 90) plus the block factors of the ULA responses.

    Element qB + r of the steering vector at u = sin(angle) is
    shift(u)**q * inner[r](u), with inner[r] = exp(j*2*pi*d*r*u) for the
    B = ``_BLOCK`` offsets r and shift = exp(j*2*pi*d*B*u), so one B x G
    table serves virtual arrays of any length.
    """
    npts = int(round(180.0 / step_deg)) + 1
    grid = np.linspace(-90.0, 90.0, npts)[1:-1]
    u = np.sin(np.deg2rad(grid))
    phase = 1j * 2 * np.pi * unit_spacing
    inner = np.exp(phase * np.outer(np.arange(_BLOCK, dtype=float), u))
    shift = np.exp(phase * _BLOCK * u)
    for table in (grid, inner, shift):
        table.setflags(write=False)  # shared across threads and callers
    return grid, inner, shift


def _signal_subspace(c: np.ndarray, n_sources: int) -> np.ndarray:
    """Orthonormal basis of the eigenvectors of largest |eigenvalue| of T.

    T = toeplitz(c) is Hermitian with first column c (row = conj(column)).
    """
    m = c.size
    # ARPACK cannot return k >= m - 1 eigenpairs of an operator
    if m <= _DENSE_EIGH_MAX_M or n_sources >= m - 1:
        vals, vecs = np.linalg.eigh(toeplitz(c))
        return vecs[:, np.argsort(np.abs(vals), kind="stable")[m - n_sources:]]
    # T is the leading m x m block of the circulant matrix with first column
    # [c, 0..., conj(c[m-1:0:-1])], whose spectrum is transformed once here
    n_fft = scipy.fft.next_fast_len(2 * m - 1)
    spec = scipy.fft.fft(
        np.concatenate([c, np.zeros(n_fft - 2 * m + 1), c[:0:-1].conj()])
    )
    op = LinearOperator(
        (m, m),
        matvec=lambda v: scipy.fft.ifft(spec * scipy.fft.fft(np.ravel(v), n_fft))[:m],
        dtype=np.complex128,
    )
    try:
        # for complex input eigsh defers to eigs without its rng, so an
        # implicit start vector would come from OS entropy
        _, vecs = eigsh(op, k=n_sources, which="LM", v0=np.ones(m))
    except ArpackError as exc:  # includes ArpackNoConvergence
        raise InternalConsistencyError(f"ARPACK found no signal subspace: {exc}") from exc
    # eigs normalises its Ritz vectors but does not orthogonalise them, and in
    # a (nearly) degenerate eigenspace they can be far from orthogonal
    return np.linalg.qr(vecs)[0]


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Indices of the local maxima of x, one per run of equal values.

    A run is a maximum when both neighbouring runs are lower; runs at
    either end never are.  Its index is (first + last) // 2.
    """
    if x.size == 0:
        return np.empty(0, dtype=np.intp)
    edges = np.flatnonzero(x[1:] != x[:-1]) + 1
    first, last = np.r_[0, edges], np.r_[edges, x.size] - 1
    runs = x[first]
    peak = np.flatnonzero((runs[1:-1] > runs[:-2]) & (runs[1:-1] > runs[2:])) + 1
    return (first[peak] + last[peak]) // 2


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
    source consumes one dimension of the subarray, and a z that is all zero
    is rejected.

    A local maximum is a run of equal grid values whose neighbouring runs
    are both lower; runs touching either end of the grid never count, and a
    run reports its middle index (first + last) // 2.  This is the rule of
    ``scipy.signal.find_peaks``, plateaus included; they occur where the
    spectrum is clamped at 1e12.

    Up to m = Z+1 = 256, or when D >= m - 1, the subspace comes from a dense
    ``eigh`` of T.  Above that it comes from ARPACK (``eigsh`` with a fixed
    start vector, so results are reproducible) on an operator that applies T
    as the leading block of a circulant of FFT length L >= 2m - 1, whose
    spectrum is computed once per call: O(L log L) time and O(L) memory per
    product.

    With w = exp(j*2*pi*d*u), ||Es^H a(u)||^2 = r_0 + 2 Re sum_{l>=1} r_l w**l,
    where r_l is the sum of the l-th superdiagonal of Es Es^H, i.e. the summed
    autocorrelations of the columns of conj(Es), taken by FFT; r_0 = D.  The
    coefficients r_0/2, r_1, ..., r_{m-1} are cut into rows of B = 64, one
    GEMM with the cached B x G table gives each row's partial sum, and
    Horner's rule in shift = w**B adds the rows, so no m x G table exists and
    the GEMM does not grow with D.
    """
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim != 1 or z.size % 2 == 0:
        raise InvalidParameterError(
            f"virtual-array vector must have odd length 2Z+1, got {z.shape}"
        )
    if not np.all(np.isfinite(z)):
        raise InvalidParameterError("virtual-array vector has non-finite entries")
    if not np.any(z):
        raise InvalidParameterError("virtual-array vector is all zero")
    if np.abs(z[::-1].conj() - z).max() > 1e-9 * np.abs(z).max():
        raise InvalidParameterError(
            "virtual-array vector is not conjugate-symmetric: z(-l) != conj z(l)"
        )
    big_z = (z.size - 1) // 2
    n_sources = whole_number(n_sources, "n_sources")
    if n_sources < 1:
        raise InvalidParameterError("need at least one source")
    if n_sources > big_z:
        raise CapacityExceededError(
            f"{n_sources} sources exceed the {big_z} one-sided consecutive lags"
        )
    grid_step_deg = real_number(grid_step_deg, "grid_step_deg")
    if not grid_step_deg > 0:
        raise InvalidParameterError(f"grid_step_deg must be > 0, got {grid_step_deg}")
    m = big_z + 1
    grid, inner, shift = _grid_and_steering(grid_step_deg, unit_spacing)
    if grid.size < n_sources:
        raise InvalidParameterError(f"{grid.size} grid points for {n_sources} sources")
    signal = _signal_subspace(z[big_z:], n_sources)

    # |En^H a|^2 = m - ||Es^H a||^2 because the eigenbasis is orthonormal, and
    # ||Es^H a||^2 = 2 Re acc with acc = r_0/2 + sum_l r_l w**l (see above)
    n_fft = scipy.fft.next_fast_len(2 * m - 1)
    power = np.abs(scipy.fft.fft(signal.conj(), n_fft, axis=0)) ** 2
    coef = np.zeros(-(-m // _BLOCK) * _BLOCK, dtype=np.complex128)
    coef[:m] = scipy.fft.ifft(power.sum(axis=1))[:m]
    coef[0] /= 2
    rows = coef.reshape(-1, _BLOCK) @ inner
    acc = rows[-1]
    for row in rows[-2::-1]:
        acc = acc * shift + row
    den = m - 2 * acc.real
    spectrum = 1.0 / np.maximum(den, 1e-12)

    peaks = _local_maxima(spectrum)
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


def _scene_for_point(scene: SourceScene, parameter: str, value) -> SourceScene:
    if parameter == "snr":
        return replace(scene, snr_db=value)
    if parameter not in SWEEP_PARAMETERS:
        raise InvalidParameterError(
            f"sweep parameter must be one of {SWEEP_PARAMETERS}, got {parameter!r}"
        )
    count = whole_number(value, f"sweep {parameter}")
    if count < 1:
        raise InvalidParameterError(f"sweep {parameter} must be a whole number >= 1")
    if parameter == "snapshots":
        return replace(scene, snapshots=count)
    lo, hi = min(scene.angles_deg), max(scene.angles_deg)
    return replace(scene, angles_deg=tuple(np.linspace(lo, hi, count)))


# Extension modules that link each bundled OpenBLAS copy, with the suffix of
# its thread-count symbols (numpy's copy is the 64-bit-integer build).
_OPENBLAS_COPIES = (
    ("numpy._core._multiarray_umath", "64_"),
    ("scipy.linalg._fblas", ""),
)


def _openblas_thread_controls():
    """``(get, set)`` thread-count functions of each OpenBLAS copy found, and
    the modules of the copies whose symbols are missing."""
    controls, missing = [], []
    for module, suffix in _OPENBLAS_COPIES:
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (ImportError, OSError, AttributeError):
            missing.append(module)
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        controls.append((get, set_))
    return controls, missing


class _BlasPin:
    """Pins every OpenBLAS copy found to one thread while any caller holds it.

    Thread counts are process state, so concurrent ``monte_carlo`` calls share
    one pin: the first caller in saves the counts and pins, the last one out
    restores them.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._holders = 0
        self._saved = []

    @contextlib.contextmanager
    def held(self, progress: Optional[Callable[[str], None]]):
        controls, missing = _openblas_thread_controls()
        if missing and progress is not None:
            progress(
                f"BLAS thread-count symbols not found in {', '.join(missing)}; "
                "that BLAS runs unpinned"
            )
        with self._lock:
            if self._holders == 0:
                self._saved = [(set_, get()) for get, set_ in controls]
                for set_, _ in self._saved:
                    set_(1)
            self._holders += 1
        try:
            yield
        finally:
            with self._lock:
                self._holders -= 1
                if self._holders == 0:
                    for set_, count in self._saved:
                        set_(count)


_BLAS_PIN = _BlasPin()


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

    ``min(threads, trials)`` worker threads run the trials of every sweep
    point from one pool, or on the calling thread when there is one worker.
    For the whole call the OpenBLAS copies of numpy and scipy are pinned to
    one thread each: several workers would oversubscribe the cores, and with
    one worker the threads one copy leaves spinning slow the other's next
    call.  Their previous counts are restored on return, also when a trial
    raises.  A copy whose thread-count symbols are missing runs unpinned,
    and ``progress`` is told so.
    """
    trials = whole_number(trials, "trials")
    threads = whole_number(threads, "threads")
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
    workers = min(threads, trials)
    # the pin is entered first, so it outlasts the pool's threads
    with _BLAS_PIN.held(progress), contextlib.ExitStack() as stack:
        trial_map = map
        if workers > 1:
            trial_map = stack.enter_context(ThreadPoolExecutor(max_workers=workers)).map
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

            estimates = list(trial_map(run_trial, range(trials)))
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
