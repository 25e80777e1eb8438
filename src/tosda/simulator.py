"""End-to-end cumulant-domain DOA experiments.

Pipeline: synthesize snapshots (optionally through a mutual-coupling
matrix), average their empirical third-order cumulants over each lag of
the consecutive virtual array in one pass, then run co-array MUSIC on
the Hermitian Toeplitz matrix of that virtual-array vector.  Its
eigenvectors span the subspaces of the spatially smoothed covariance
without forming it (Liu & Vaidyanathan, IEEE SPL 22(9), 2015).  Small
virtual arrays take them from a dense real symmetric ``eigh`` of a
unitary transform of T; large ones from Lanczos with full
reorthogonalisation on a product with the circulant embedding of T, whose
spectrum is transformed once per call, so the matrix is never formed.
The grid projection evaluates ||Es^H a||^2 as one trigonometric
polynomial whose coefficients are the superdiagonal sums of Es Es^H (the
root-MUSIC identity, Barabell, ICASSP 1983), from a cached steering table
holding only the b+1 rows (at most 33) that the array's block length b
reads, a fixed chunk of grid columns at a time.
Third-order statistics vanish for Gaussian processes, so additive
Gaussian noise is suppressed by the statistics themselves rather than
subtracted.

One seeded trial of the pipeline is :func:`run_trial`.  All randomness
flows through ``numpy.random.Generator`` objects seeded from explicit
integers; Monte-Carlo trials derive their generators from (master seed,
sweep point, trial index) so results do not depend on the number of
worker threads.

The simulator runs on numpy alone and loads no scipy module.  Neither path
forms T: the dense one gathers two n x n blocks of it from the lag vector,
and Lanczos multiplies by its circulant embedding.  Every FFT and both
subspace solvers are numpy's, so its one BLAS copy is numpy's OpenBLAS.
While a ``monte_carlo`` call runs a worker pool, that copy is pinned to one
thread (see :func:`monte_carlo`); the pin leaves every result unchanged.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import reprlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import lagset, metrics
from .errors import (
    CapacityExceededError,
    InvalidParameterError,
    real_number,
    whole_number,
)
from .geometry import UNIT_SPACING, SensorArray

SWEEP_PARAMETERS = ("snr", "snapshots", "num_sources")


@dataclass(frozen=True)
class SourceScene:
    """Source constellation and sampling setup for one experiment.

    ``snr_db`` is per-source: each source has unit power and the noise
    power at every sensor is 10**(-snr_db/10).  Source amplitudes are
    real, zero-mean and unit-variance with a centered exponential law;
    its skewness keeps all four third-order conjugation patterns away
    from zero, which symmetric constellations would not.

    ``seed`` is :func:`monte_carlo`'s master seed (stream
    ``default_rng([seed, i, t])``) and :func:`synthesize_snapshots`' default
    stream, ``default_rng(seed)``; :func:`run_trial` draws from the
    generator it is given.
    """

    angles_deg: tuple[float, ...]
    snr_db: float
    snapshots: int
    seed: int = 0

    def __post_init__(self):
        try:
            angles = tuple(self.angles_deg)
        except TypeError:  # a bare number, say
            raise InvalidParameterError(
                f"angles_deg must be a sequence of real numbers, got {self.angles_deg!r}"
            ) from None
        angles = tuple(real_number(a, "angles_deg") for a in angles)
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

    ``spectrum`` is (grid, 1/|En^H a|^2) with |En^H a|^2 = m - ||Es^H a||^2.  The
    second term is the polynomial r_0 + 2 Re sum_l r_l w**l (see
    :func:`ss_music`), summed by Horner's rule over about m/b rows, each
    step rounding the phase of shift = w**b on terms up to sum|r_l| <= D*m,
    so the error is bounded by about eps*D*m**2/b.  Against the per-row form
    m - sum_k |Es[:, k]^H a|^2 in long double (same Es, float64 u and pi;
    CNA, D = 12, K = 12000, 0 dB) it was at most 7.3e-15*m at m = 124 (b = 16,
    three seeds; 6.6e-15*m with b = 64) and 7.9e-14*m at m = 1514 (b = 32,
    three seeds; 7.6e-14*m with b = 64), about 6e-17*m**2, far inside that
    bound.  Near a peak the subtraction cancels, so a spectrum value is only
    good to that error over m - ||Es^H a||^2, relative; compare 1/spectrum,
    not spectrum.
    """

    angles_deg: np.ndarray
    spectrum: tuple[np.ndarray, np.ndarray]
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
    """N x D matrix of unit-modulus phase responses exp(j*2*pi*d*p*sin), d
    the grid spacing :data:`~tosda.geometry.UNIT_SPACING`."""
    angles = np.ravel(np.array(angles_deg, dtype=object))
    angles = np.array([real_number(a, "angles_deg") for a in angles], dtype=float)
    if np.any(np.abs(angles) >= 90):
        raise InvalidParameterError("angles must lie inside (-90, 90) degrees")
    p = np.asarray(array.positions, dtype=float)
    u = np.sin(np.deg2rad(angles))
    return np.exp(1j * 2 * np.pi * UNIT_SPACING * np.outer(p, u))


def synthesize_snapshots(
    array: SensorArray,
    scene: SourceScene,
    coupling: Optional[metrics.CouplingModel] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Simulate the N x K received-snapshot matrix.

    Sources are drawn first, then noise, so a fixed seed reproduces the
    matrix bit for bit.  The coupling matrix multiplies only the signal
    part; sensor noise is injected after it.  The signal is C A S computed as
    (C A) S, so coupling costs N^2 D rather than N^2 K, and A S as two real
    GEMMs, since the source amplitudes S are real.
    """
    if rng is None:
        rng = np.random.default_rng(scene.seed)
    d, k = scene.n_sources, scene.snapshots
    a = steering_matrix(array, scene.angles_deg)
    if coupling is not None:
        a = _coupling_matrix(array, coupling) @ a
    s = rng.standard_exponential(size=(d, k))
    s -= 1.0
    sigma = math.sqrt(10.0 ** (-scene.snr_db / 10.0))
    x = np.empty((array.size, k), dtype=np.complex128)
    # the real parts of the noise, then its imaginary parts, drawn in turn into
    # one buffer: the stream of one (2, N, K) draw
    noise = np.empty((array.size, k))
    for part, steering in ((x.real, a.real), (x.imag, a.imag)):
        rng.standard_normal(out=noise)
        noise *= sigma / math.sqrt(2.0)
        np.add(steering @ s, noise, out=part)
    return x


@functools.lru_cache(maxsize=8)
def _coupling_matrix(
    array: SensorArray, coupling: metrics.CouplingModel
) -> np.ndarray:
    """``metrics.coupling_matrix(array, coupling)``, read-only and cached:
    every trial of a run couples the same array by the same model."""
    c = metrics.coupling_matrix(array, coupling)
    c.setflags(write=False)  # shared across threads and trials
    return c


def _numeric_array(value, name: str, dtype=np.complex128) -> np.ndarray:
    """``value`` as a ``dtype`` (complex128 or float) array when its entries
    are numbers, real ones for float; strings, bools, None and other objects
    raise :class:`InvalidParameterError` naming the argument as ``name``
    instead of converting."""
    kinds, what = ("iufc", "numbers") if dtype is np.complex128 else ("iuf", "real numbers")
    try:
        a = np.asarray(value)
    except ValueError:  # a ragged nesting of sequences
        a = None
    if not isinstance(value, np.ndarray) and a is not None and a.dtype.kind in kinds:
        # numpy turns a bool among numbers into a number, so look at the
        # entries of a sequence; an array's dtype already tells
        if any(isinstance(v, (bool, np.bool_)) for v in np.asarray(value, dtype=object).flat):
            a = None
    if a is None or a.dtype.kind not in kinds:
        raise InvalidParameterError(
            f"{name} must be an array of {what}, got {reprlib.repr(value)}"
        )
    return a.astype(dtype, copy=False)


def _snapshots_and_means(x, array: SensorArray) -> tuple[np.ndarray, np.ndarray]:
    """The N x K snapshot matrix x as complex128 and its N x 1 sensor means.

    A NaN or infinite entry makes its row's mean non-finite, so the finite
    means also check the entries, without another pass over x.
    """
    x = _numeric_array(x, "x")
    if x.ndim != 2:
        raise InvalidParameterError(f"expected an N x K matrix, got shape {x.shape}")
    n, k = x.shape
    if n != array.size:
        raise InvalidParameterError(
            f"snapshot matrix has {n} rows but the array has {array.size} sensors"
        )
    if k < 1:
        raise InvalidParameterError("need at least one snapshot")
    with np.errstate(invalid="ignore", over="ignore"):  # checked just below
        mean = x.mean(axis=1, keepdims=True)
    bad = np.flatnonzero(~np.isfinite(mean))
    if bad.size:
        raise InvalidParameterError(
            f"x must be finite with finite sensor means, got a non-finite mean "
            f"in rows {bad.tolist()}"
        )
    return x, mean


def sample_third_cumulants(x: np.ndarray, array: SensorArray) -> np.ndarray:
    """Reference estimate of all 4*N^3 empirical third-order cumulants.

    For a zero-mean process the third cumulant equals the third moment,
    so after removing the sample mean each entry is the snapshot average
    of the conjugation pattern x_i x_j x_k, in the order of
    :func:`tosda.coarray.index_lag_map`.  The pipeline does not use this
    vector; it is the oracle :func:`virtual_array_vector` is tested against.
    """
    x, mean = _snapshots_and_means(x, array)
    xc = x - mean
    t1 = np.einsum("it,jt,kt->ijk", xc, xc, xc, optimize=True) / xc.shape[1]
    t2 = np.einsum("it,jt,kt->ijk", xc, xc, xc.conj(), optimize=True) / xc.shape[1]
    return np.concatenate(
        [t1.ravel(), t2.ravel(), t2.conj().ravel(), t1.conj().ravel()]
    )


# Snapshot columns per GEMM of the pair products in virtual_array_vector.
_SNAPSHOT_BLOCK = 1024


def virtual_array_vector(x: np.ndarray, array: SensorArray) -> np.ndarray:
    """Redundancy-averaged third-order cumulants on the lags [-Z, Z], Z the
    one-sided consecutive span of ``array``'s TO-ECA.

    Entries sharing a lag enter the unweighted arithmetic mean; the output
    has length 2Z+1, ordered by lag.  Patterns 1 and 2 are symmetric in
    (i, j), so only the pairs i <= j are formed, weighted by multiplicity;
    patterns 3 and 4 are their conjugate mirror.  The sensor at 0 gives
    every array lag 0, so Z >= 0 and the output is never empty.

    The snapshots go through in blocks of ``_SNAPSHOT_BLOCK`` columns; each
    block is centred by the sensor means into the first N rows of one
    reusable buffer, its conjugate into the last N, and its pair products
    into another, so no centred copy of x is made and the working memory
    does not grow with K.
    """
    x, mean = _snapshots_and_means(x, array)
    n, k = x.shape
    z = lagset.consecutive_z(array)
    p = np.asarray(array.positions, dtype=np.int64)
    i, j = np.triu_indices(n)
    mult = np.repeat(np.where(i == j, 1.0, 2.0), 2 * n)
    lags = ((p[i] + p[j])[:, None] + np.concatenate([p, -p])).ravel()
    keep = np.abs(lags) <= z

    def binned(values):
        return np.bincount(lags[keep] + z, values[keep], 2 * z + 1)

    # one GEMM per block of snapshot columns over all pairs, with the block's
    # centred columns [xc; conj(xc)] as its transposed right operand; the blocks
    # keep peak memory at (N^2/2 + 2N) x _SNAPSHOT_BLOCK, not N^2/2 x K
    first_row = np.r_[0, np.cumsum(np.arange(n, 1, -1))]
    width = min(k, _SNAPSHOT_BLOCK)
    pairs = np.empty((i.size, width), dtype=np.complex128)
    both = np.empty((2 * n, width), dtype=np.complex128)
    moments = np.zeros((i.size, 2 * n), dtype=np.complex128)
    for lo in range(0, k, _SNAPSHOT_BLOCK):
        cols = slice(lo, lo + _SNAPSHOT_BLOCK)
        rhs = both[:, : min(_SNAPSHOT_BLOCK, k - lo)]
        xc = rhs[:n]
        np.subtract(x[:, cols], mean, out=xc)
        np.conjugate(xc, out=rhs[n:])
        block = pairs[:, : rhs.shape[1]]
        for a in range(n):
            rows = slice(first_row[a], first_row[a] + n - a)
            np.multiply(xc[a], xc[a:], out=block[rows])
        moments += block @ rhs.T
    moments = moments.ravel()
    moments *= mult / k
    sums = binned(moments.real) + 1j * binned(moments.imag)
    counts = binned(mult) + binned(mult)[::-1]
    return (sums + sums[::-1].conj()) / counts


# The most rows a block of the grid evaluation uses, and the grid columns one
# GEMM and Horner pass of it cover.  32 rather than 64 halves the cached table
# of a long virtual array (m >= 1024) for about m/64 more Horner rows: at
# m = 1514, 9.5 MB instead of 18.7 MB at 0.01 degrees, for about 1-2 ms more
# per call on a 2-core x86 box.
_BLOCK = 32
_GRID_CHUNK = 4096

# Smallest grid step: it leaves 2**20 interior points, a (b+1) x G steering
# table of 0.52 GiB once b = _BLOCK (m >= 256); its out-of-place build briefly
# needs about twice that.
_MIN_GRID_STEP_DEG = 180.0 / (2**20 + 1)

# Largest virtual array whose signal subspace comes from a dense eigh.  The
# Lanczos loop runs in Python under the GIL, so it loses on small matrices, and
# two pool workers overlap their eighs better than their Lanczos loops.  Medians
# in ms of _signal_subspace on real CNA vectors (12 sources, K=12000, coupling)
# on 2 cores, real eigh / Lanczos, ranges over 3 runs; "2 workers" is the wall
# time per call while two pinned pool workers each run the call, "one call"
# runs numpy's copy unpinned, as one-worker monte_carlo calls do:
#     m     one call             2 workers
#     124   2.5-2.8 / 6.4-6.6    2.9-5.5 / 14-17
#     154   3.6-4.0 / 7.7-8.1    6.0-7.9 / 19-24
#     195   4.8-6.3 / 5.5-8.5    9.0-12 / 17-28
#     252   9.2-10 / 5.3-9.2     15-16 / 20-25
#     309   13-16 / 5.7-9.1      15-19 / 20-23
#     374   20-23 / 5.8-9.7      24 / 18-21
#     512   46-51 / 7.5-11       62-69 / 24-28
# One call crosses over between m = 195 and 252, the pool between 309 and 374.
# The limit stays at the first: from 252 to 309 a one-worker call would lose
# about as much to the dense eigh as a pool worker gains from it.
_DENSE_EIGH_MAX_M = 224

# Lanczos stops when every wanted Ritz residual is within this factor of the
# largest |Ritz value|, and restarts, from this seed, when a new vector's norm
# is within it of ||T||.
_LANCZOS_TOL = 1e-14
_LANCZOS_RESTART_SEED = 2015


@functools.lru_cache(maxsize=8)
def _grid_and_steering(step_deg: float, rows: int):
    """Search grid over (-90, 90) plus the block factors of the ULA responses.

    Row r of the ``rows`` x G table is exp(j*2*pi*d*r*u) at u = sin(angle),
    d = UNIT_SPACING, for r = 0..b with b = rows - 1.  Element qb + r of the
    steering vector is table[b]**q * table[r], so a virtual array whose block
    length (:func:`_block_length`) is b needs just these b+1 rows.  Every row
    is bit for bit the same row of a taller table.
    """
    npts = int(round(180.0 / step_deg)) + 1
    grid = np.linspace(-90.0, 90.0, npts)[1:-1]
    u = np.sin(np.deg2rad(grid))
    phase = 1j * 2 * np.pi * UNIT_SPACING
    steering = np.exp(phase * np.outer(np.arange(rows, dtype=float), u))
    for table in (grid, steering):
        table.setflags(write=False)  # shared across threads and callers
    return grid, steering


def _block_length(m: int) -> int:
    """Coefficients per row of the grid evaluation for a length-m virtual
    array: the power of two with sqrt(m) < b <= 2 sqrt(m), at most ``_BLOCK``.
    The GEMM makes m*G multiplications whatever b is, but it reads b rows of
    the table and Horner's rule adds m/b rows, so b near sqrt(2m) keeps both
    small; b doubles at m = 4, 16, 64 and 256."""
    return min(_BLOCK, 1 << ((2 * m).bit_length() // 2))


def _fft_length(m: int) -> int:
    """FFT length for an exact autocorrelation or circulant product of
    length-m columns: the smallest power of two >= 2m - 1."""
    return 1 << (2 * m - 2).bit_length()


def _real_transform(c: np.ndarray) -> np.ndarray:
    """Q^H T Q, real symmetric, for the unitary Q of :func:`_signal_subspace`
    and the Hermitian Toeplitz T with first column c and diagonal Re c[0],
    read from its lags e = [conj(c[m-1:0:-1]), Re c[0], c[1:]], T[i, k] =
    e[m-1+i-k].  With n = m//2, A = T[:n, :n] and B = T[:n, ::-1][:, :n],
    A[i, k] = e[m-1+i-k] and B[i, k] = e[i+k]; the blocks are Re(A + B),
    Im(B - A), Im(B - A)^T and Re(A - B), plus for odd m the middle row
    sqrt(2) [Re t_n, -Im t_n] with t_n[k] = T[n, k] = e[m-1+n-k], k < n."""
    m = c.size
    n = m // 2
    e = np.concatenate([c[:0:-1].conj(), c[:1].real, c[1:]])
    i = np.arange(n)
    a, b = e[m - 1 + i[:, None] - i], e[i[:, None] + i]
    r = np.empty((m, m))
    r[:n, :n] = (a + b).real
    r[m - n :, m - n :] = (a - b).real
    r[:n, m - n :] = (b - a).imag
    r[m - n :, :n] = r[:n, m - n :].T
    if m % 2:
        mid = math.sqrt(2) * e[m - 1 + n - i]
        r[n, :n] = r[:n, n] = mid.real
        r[n, m - n :] = r[m - n :, n] = -mid.imag
        r[n, n] = c[0].real
    return r


def _unfolded(w: np.ndarray) -> np.ndarray:
    """Q w for a real m x D matrix w and the Q of :func:`_signal_subspace`."""
    m = w.shape[0]
    n = m // 2
    top = (w[:n] + 1j * w[m - n :]) / math.sqrt(2)
    return np.concatenate([top, w[n : m - n], top[::-1].conj()])


def _orthogonalised(w: np.ndarray, rows: np.ndarray):
    """w less its projection on the orthonormal ``rows``, by two passes of
    classical Gram-Schmidt, and the coefficients of the first pass."""
    h = (rows @ w.conj()).conj()
    w = w - h @ rows
    return w - (rows @ w.conj()).conj() @ rows, h


def _signal_subspace(c: np.ndarray, n_sources: int) -> np.ndarray:
    """Orthonormal basis of the eigenvectors of largest |eigenvalue| of T.

    T = toeplitz(c) is Hermitian with first column c (row = conj(column)).

    Up to ``_DENSE_EIGH_MAX_M`` the eigenvectors come from a real ``eigh``.
    T is Hermitian Toeplitz, hence centro-Hermitian, so R = Q^H T Q is real
    symmetric for the sparse unitary Q whose columns are (e_k + e_k')/sqrt(2)
    for k < m//2, e_{m//2} when m is odd, and j(e_k - e_k')/sqrt(2), with
    k' = m-1-k (Lee, 1980; the unitary transform of unitary root-MUSIC,
    Pesavento, Gershman & Haardt, IEEE TSP 48(5), 2000).  R and the vectors
    Q W are formed from blocks and reversals, never by a product with Q.
    """
    m = c.size
    if m <= _DENSE_EIGH_MAX_M:
        vals, vecs = np.linalg.eigh(_real_transform(c))
        wanted = np.argsort(np.abs(vals), kind="stable")[m - n_sources:]
        return _unfolded(vecs[:, wanted])
    # T is the leading m x m block of the circulant matrix with first column
    # [c, 0..., conj(c[m-1:0:-1])], whose spectrum is transformed once here;
    # its largest |value| bounds ||T||
    n_fft = _fft_length(m)
    spec = np.fft.fft(np.concatenate([c, np.zeros(n_fft - 2 * m + 1), c[:0:-1].conj()]))
    breakdown = _LANCZOS_TOL * np.abs(spec).max()
    # Lanczos with full reorthogonalisation: row k of basis is the k-th Lanczos
    # vector, alpha and beta the diagonal and off-diagonal of the tridiagonal
    basis = np.empty((min(m, 4 * n_sources + 32), m), dtype=np.complex128)
    alpha, beta = np.empty(m), np.empty(m)
    q = np.full(m, 1 / math.sqrt(m), dtype=np.complex128)
    rng = None
    for k in range(1, m + 1):
        if k > basis.shape[0]:  # double the rows, up to m
            basis = np.concatenate([basis, np.empty_like(basis[: m - basis.shape[0]])])
        basis[k - 1] = q
        # orthogonalising T q against every Lanczos vector also takes out
        # alpha q and beta q_prev
        tq = np.fft.ifft(spec * np.fft.fft(q, n_fft))[:m]
        w, h = _orthogonalised(tq, basis[:k])
        alpha[k - 1] = h[-1].real
        beta[k - 1] = np.linalg.norm(w)
        # the test takes an eigh of the k x k tridiagonal, every 4 steps up to
        # k = 64, then every 8 up to 128, every 16 up to 256 and so on: about
        # 8 tests per doubling of k, O(k^3) in all rather than O(k^4)
        if k >= n_sources and (k % (1 << max(2, k.bit_length() - 4)) == 0 or k == m):
            tri = np.diag(alpha[:k]) + np.diag(beta[: k - 1], 1) + np.diag(beta[: k - 1], -1)
            theta, s = np.linalg.eigh(tri)
            wanted = np.argsort(np.abs(theta), kind="stable")[k - n_sources:]
            residual = beta[k - 1] * np.abs(s[-1, wanted])
            # at k = m the Lanczos vectors span the whole space: T is exact
            if k == m or residual.max() <= _LANCZOS_TOL * np.abs(theta).max():
                break
        if beta[k - 1] <= breakdown:
            # the Lanczos vectors span an invariant subspace of T; go on from
            # a fixed-seed vector orthogonal to them
            beta[k - 1] = 0.0
            if rng is None:
                rng = np.random.default_rng(_LANCZOS_RESTART_SEED)
            w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            w = _orthogonalised(w, basis[:k])[0]
            q = w / np.linalg.norm(w)
        else:
            q = w / beta[k - 1]
    # the QR keeps the basis orthonormal to working precision
    return np.linalg.qr(basis[:k].T @ s[:, wanted])[0]


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


def _music_spectrum(signal: np.ndarray, steering: np.ndarray) -> np.ndarray:
    """1/|En^H a|^2 on the grid of the cached (b+1) x G ``steering`` table for
    the orthonormal m x D signal basis ``signal``, b = ``_block_length(m)``,
    clamped at 1e12 (see :func:`ss_music`).  The grid is evaluated
    ``_GRID_CHUNK`` columns at a time, so its partial sums take (m/b) x
    ``_GRID_CHUNK``, not (m/b) x G; each column's value does not depend on the
    chunking."""
    # |En^H a|^2 = m - ||Es^H a||^2 because the eigenbasis is orthonormal, and
    # ||Es^H a||^2 = 2 Re acc with acc = r_0/2 + sum_l r_l w**l
    m = signal.shape[0]
    b = steering.shape[0] - 1
    power = np.abs(np.fft.fft(signal.conj(), _fft_length(m), axis=0)) ** 2
    coef = np.zeros(-(-m // b) * b, dtype=np.complex128)
    coef[:m] = np.fft.ifft(power.sum(axis=1))[:m]
    coef[0] /= 2
    coef = coef.reshape(-1, b)
    total = np.empty(steering.shape[1])
    for lo in range(0, total.size, _GRID_CHUNK):
        cols = slice(lo, lo + _GRID_CHUNK)
        rows = coef @ steering[:b, cols]
        shift = steering[b, cols]
        acc = rows[-1]
        for row in rows[-2::-1]:
            acc *= shift
            acc += row
        total[cols] = acc.real
    return 1.0 / np.maximum(m - 2 * total, 1e-12)


def _checked_grid_step(grid_step_deg: float) -> float:
    """``grid_step_deg`` as a float, or :class:`InvalidParameterError` when it
    is not a real number of at least ``_MIN_GRID_STEP_DEG``."""
    grid_step_deg = real_number(grid_step_deg, "grid_step_deg")
    if not grid_step_deg >= _MIN_GRID_STEP_DEG:
        raise InvalidParameterError(
            f"grid_step_deg must be >= {_MIN_GRID_STEP_DEG:.3g}, got {grid_step_deg}"
        )
    return grid_step_deg


def ss_music(
    z: np.ndarray,
    n_sources: int,
    *,
    grid_step_deg: float = 0.01,
) -> EstimationResult:
    """Co-array MUSIC on a virtual-array vector over [-Z, Z], its lags
    d = :data:`~tosda.geometry.UNIT_SPACING` (half a wavelength) apart.

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

    Up to m = Z+1 = 224 the subspace comes from a dense real symmetric
    ``eigh`` of Q^H T Q for a sparse unitary Q (see :func:`_signal_subspace`).
    Above that it comes from Lanczos with full reorthogonalisation on an
    operator that applies T as the leading block of a circulant whose
    spectrum is computed once per call: O(L log L) time and O(L) memory per
    product, where the FFT length L is the smallest power of two >= 2m - 1.
    It starts from ones/sqrt(m) and restarts from a fixed-seed vector, so
    results are reproducible, and after m steps it is exact, so it always
    returns.

    With w = exp(j*2*pi*d*u), ||Es^H a(u)||^2 = r_0 + 2 Re sum_{l>=1} r_l w**l,
    where r_l is the sum of the l-th superdiagonal of Es Es^H, i.e. the summed
    autocorrelations of the columns of conj(Es), taken by FFTs of length L;
    r_0 = D.  The coefficients r_0/2, r_1, ..., r_{m-1} are cut into rows of
    b, the power of two with sqrt(m) < b <= 2 sqrt(m) up to 32 (16 at m = 124,
    32 at m = 1514); one GEMM with the first b rows of a (b+1) x G table,
    cached per grid and b, gives each row's partial sum, and Horner's
    rule in w**b, its last row, adds the rows.  Both run over chunks of
    ``_GRID_CHUNK`` grid columns, so no m x G table exists, the partial sums
    never span the whole grid, and the GEMM does not grow with D.
    """
    z = _numeric_array(z, "z")
    if z.ndim != 1 or z.size % 2 == 0:
        raise InvalidParameterError(
            f"virtual-array vector must have odd length 2Z+1, got {z.shape}"
        )
    if not np.all(np.isfinite(z)):
        raise InvalidParameterError("z must be finite, got non-finite entries")
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
    grid_step_deg = _checked_grid_step(grid_step_deg)
    grid, steering = _grid_and_steering(grid_step_deg, _block_length(big_z + 1) + 1)
    if grid.size < n_sources:
        raise InvalidParameterError(f"{grid.size} grid points for {n_sources} sources")
    spectrum = _music_spectrum(_signal_subspace(z[big_z:], n_sources), steering)

    peaks = _local_maxima(spectrum)
    order = peaks[np.argsort(spectrum[peaks], kind="stable")[::-1]]
    chosen = order[:n_sources]
    padded = chosen.size < n_sources
    if padded:  # the largest grid values that are not already chosen
        rest = np.argsort(spectrum, kind="stable")[::-1]
        rest = rest[np.isin(rest, chosen, invert=True)]
        chosen = np.concatenate([chosen, rest[: n_sources - chosen.size]])
    angles = np.sort(grid[chosen])
    return EstimationResult(
        angles_deg=angles,
        spectrum=(grid, spectrum),
        peaks_padded=padded,
    )


def rmse(estimates: np.ndarray, truth) -> float:
    """Root-mean-square DOA error over trials and sources, in degrees.

    Estimates are matched to the truth by sorted order, which is the
    deterministic matching the aggregate error definition presumes.  Both
    must hold finite real numbers, for at least one trial and one source.
    """
    est = _numeric_array(estimates, "estimates", float)
    angles = _numeric_array(truth, "truth", float)
    if angles.ndim != 1 or angles.size == 0:
        raise InvalidParameterError(
            f"truth must be a list of at least one angle, got {reprlib.repr(truth)}"
        )
    truth = np.sort(angles)
    for name, a in (("estimates", est), ("truth", truth)):
        if not np.all(np.isfinite(a)):
            raise InvalidParameterError(f"{name} must be finite, got non-finite entries")
    if est.ndim == 1:
        est = est[None, :]
    if est.ndim != 2 or len(est) == 0:
        raise InvalidParameterError(
            "estimates must be a trials x D matrix of at least one trial, "
            f"got shape {est.shape}"
        )
    if est.shape[1] != truth.size:
        raise InvalidParameterError(
            f"estimates have {est.shape[1]} sources, truth has {truth.size}"
        )
    err = np.sort(est, axis=1) - truth[None, :]
    return float(np.sqrt(np.mean(err**2)))


def _scene_for_point(
    array: SensorArray, scene: SourceScene, parameter: str, value
) -> SourceScene:
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
    _check_capacity(array, count, f"sweep point {value!r}: ")  # before any angle is listed
    lo, hi = min(scene.angles_deg), max(scene.angles_deg)
    return replace(scene, angles_deg=tuple(np.linspace(lo, hi, count)))


# Thread-count symbols ("get", "set") of numpy's bundled OpenBLAS, the
# 64-bit-integer build linked by its core extension module.
_OPENBLAS_SYMBOL = "scipy_openblas_{}_num_threads64_"


@functools.cache
def _openblas_thread_controls():
    """``(get, set)`` thread-count functions of numpy's OpenBLAS copy, or
    None when its symbols are missing; resolved once per process."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = getattr(lib, _OPENBLAS_SYMBOL.format("get"))
        set_ = getattr(lib, _OPENBLAS_SYMBOL.format("set"))
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


class _BlasPin:
    """Pins numpy's OpenBLAS copy to one thread while any caller holds it.

    The thread count is process state, so concurrent ``monte_carlo`` calls
    share one pin: the first caller in saves the count and pins, and the last
    caller out restores it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._holders = 0
        self._saved = 0  # the count before the pin

    @contextlib.contextmanager
    def held(self, progress: Optional[Callable[[str], None]]):
        controls = _openblas_thread_controls()
        if controls is None and progress is not None:
            progress("BLAS thread-count symbols not found in numpy; its BLAS runs unpinned")
        with self._lock:
            if self._holders == 0 and controls is not None:
                self._saved = controls[0]()
                controls[1](1)
            self._holders += 1
        try:
            yield
        finally:
            with self._lock:
                self._holders -= 1
                if self._holders == 0 and controls is not None:
                    controls[1](self._saved)


_BLAS_PIN = _BlasPin()


def _check_capacity(array: SensorArray, n_sources: int, where: str = "") -> None:
    """Raise :class:`CapacityExceededError`, its message prefixed by ``where``,
    when ``n_sources`` exceeds the one-sided consecutive lags of ``array``'s
    TO-ECA."""
    z = lagset.consecutive_z(array)
    if n_sources > z:
        raise CapacityExceededError(
            f"{where}{n_sources} sources exceed the {z} "
            f"one-sided consecutive lags of {array.name}"
        )


def run_trial(
    array: SensorArray,
    scene: SourceScene,
    rng: np.random.Generator,
    *,
    coupling: Optional[metrics.CouplingModel] = None,
    grid_step_deg: float = 0.01,
) -> EstimationResult:
    """One seeded trial of the pipeline: snapshots drawn from ``rng``, the
    virtual-array vector, and co-array MUSIC for ``scene``'s sources on a
    ``grid_step_deg`` grid; the result carries the grid and its
    pseudo-spectrum.  More sources than the TO-ECA's Z raise
    :class:`CapacityExceededError`, and a bad grid step
    :class:`InvalidParameterError`, before any snapshot is drawn.
    """
    _check_capacity(array, scene.n_sources)
    _checked_grid_step(grid_step_deg)
    # the snapshots are not kept while ss_music runs
    zvec = virtual_array_vector(synthesize_snapshots(array, scene, coupling, rng), array)
    return ss_music(zvec, scene.n_sources, grid_step_deg=grid_step_deg)


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

    ``scene.seed`` acts as the master seed; trial t of sweep point i is a
    :func:`run_trial` on ``default_rng([seed, i, t])``, so a run is
    reproducible and independent of ``threads``.  ``sweep``'s values are
    read once, so an iterator serves.  A trial that cannot estimate (more
    sources than consecutive lags) aborts its sweep point with a
    :class:`CapacityExceededError` naming the point; a ``num_sources`` point
    is refused so before any trial runs and before its angles are listed.

    ``min(threads, trials)`` worker threads run the trials of every sweep
    point from one pool, or on the calling thread when there is one worker.
    While the pool runs, numpy's OpenBLAS copy is pinned to one thread, since
    several workers would oversubscribe the cores, and its count is restored
    on return, also when a trial raises.  One worker leaves the count alone,
    because the copy's own threads make its trials faster: 60 alternating
    pairs of one-trial CNA N=24 calls (12 sources, K = 12000, 0 dB) on a
    shared 2-core x86-64 box gave quartiles of 47.9/52.6/59.4 ms unpinned
    against 54.4/61.6/74.6 ms pinned.  If the copy's thread-count symbols
    are missing, it runs unpinned, and ``progress`` is told so.
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
        try:
            parameter, values = sweep
            values = list(values)
        except (TypeError, ValueError):
            raise InvalidParameterError(
                f"sweep must be a (parameter, values) pair, got {sweep!r}"
            ) from None
        if not values:
            raise InvalidParameterError("sweep needs at least one value")
        points = [
            (value, _scene_for_point(array, scene, parameter, value)) for value in values
        ]

    results = []
    workers = min(threads, trials)
    with contextlib.ExitStack() as stack:
        trial_map = map
        if workers > 1:
            # the pin is entered first, so it outlasts the pool's threads
            stack.enter_context(_BLAS_PIN.held(progress))
            trial_map = stack.enter_context(ThreadPoolExecutor(max_workers=workers)).map
        for point_idx, (value, point_scene) in enumerate(points):
            where = "" if sweep is None else f"sweep point {value!r}: "
            _check_capacity(array, point_scene.n_sources, where)

            def trial(t: int) -> tuple[np.ndarray, bool]:
                rng = np.random.default_rng([point_scene.seed, point_idx, t])
                est = run_trial(
                    array, point_scene, rng,
                    coupling=coupling, grid_step_deg=grid_step_deg,
                )
                return est.angles_deg, est.peaks_padded

            angles, padded = zip(*trial_map(trial, range(trials)))
            est_matrix = np.vstack(angles)
            truth = np.sort(np.asarray(point_scene.angles_deg))
            results.append(
                RunStats(
                    sweep_value=math.nan if value is None else float(value),
                    trials=trials,
                    padded_trials=sum(padded),
                    rmse_deg=rmse(est_matrix, truth),
                    per_trial_estimates=est_matrix,
                    truth_deg=truth,
                )
            )
            if progress is not None:
                point = (f"sweep point {point_idx + 1}/{len(points)} (value={value!r}): "
                         if sweep is not None else "")
                progress(f"{point}rmse={results[-1].rmse_deg:.4f} deg, "
                         f"{results[-1].padded_trials}/{trials} trials padded")
    return results
