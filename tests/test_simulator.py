import dataclasses
import functools
import hashlib
import itertools
import json
import math
import platform
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz
from scipy.signal import find_peaks

from tosda import (
    CapacityExceededError,
    CouplingModel,
    InvalidParameterError,
    SensorArray,
    SourceScene,
    build_to_sda,
    build_ula,
    index_lag_map,
    monte_carlo,
    rmse,
    sample_third_cumulants,
    ss_music,
    steering_matrix,
    synthesize_snapshots,
    to_eca,
    virtual_array_vector,
)
import tosda
from tosda import simulator
from tosda.designer import minimum_sensors


def analytic_virtual_vector(big_z, angles_deg, gammas=None):
    """Population-limit virtual-array vector: sum of unit-lag exponentials,
    for lags half a wavelength apart."""
    angles = np.atleast_1d(np.asarray(angles_deg, dtype=float))
    if gammas is None:
        gammas = np.ones_like(angles)
    lags = np.arange(-big_z, big_z + 1)
    u = np.sin(np.deg2rad(angles))
    return (gammas[None, :] * np.exp(1j * np.pi * np.outer(lags, u))).sum(axis=1)


class TestSourceScene:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_angle(self, bad):
        with pytest.raises(InvalidParameterError):
            SourceScene((0.0, bad), snr_db=0.0, snapshots=8)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_snr(self, bad):
        with pytest.raises(InvalidParameterError):
            SourceScene((0.0,), snr_db=bad, snapshots=8)

    def test_rejects_snr_whose_noise_power_overflows(self):
        SourceScene((0.0,), snr_db=-3000.0, snapshots=8)
        with pytest.raises(InvalidParameterError, match="noise power"):
            SourceScene((0.0,), snr_db=-3100.0, snapshots=8)

    @pytest.mark.parametrize(
        "field, message",
        [({"angles_deg": (10.0, 10.0)}, "source angles must be distinct"),
         ({"angles_deg": (0.0, 90.0)}, "angles must lie inside"),
         ({"angles_deg": (-90.0,)}, "angles must lie inside"),
         ({"snapshots": 0}, "need at least 3 snapshots, got 0"),
         ({"snapshots": 1}, "need at least 3 snapshots, got 1"),
         ({"snapshots": 2}, "need at least 3 snapshots, got 2"),
         ({"seed": -1}, "seed must be a non-negative integer")],
        ids=["duplicate-angle", "angle-90", "angle-minus-90", "no-snapshot", "one-snapshot",
             "two-snapshots", "negative-seed"],
    )
    def test_rejects_values_outside_the_domain(self, field, message):
        with pytest.raises(InvalidParameterError, match=f"^{message}"):
            SourceScene(**{"angles_deg": (0.0,), "snr_db": 0.0, "snapshots": 8, **field})

    def test_whole_float_seed_runs_as_int(self):
        scene = SourceScene((0.0,), snr_db=0.0, snapshots=8.0, seed=2.0)
        assert (scene.snapshots, scene.seed) == (8, 2)
        assert type(scene.snapshots) is int and type(scene.seed) is int
        arr, _ = build_to_sda("cna", 6)
        ran, want = (monte_carlo(arr, s, trials=2, grid_step_deg=0.1)
                     for s in (scene, dataclasses.replace(scene, seed=2)))
        assert ran[0].rmse_deg == want[0].rmse_deg
        assert np.array_equal(ran[0].per_trial_estimates, want[0].per_trial_estimates)


class TestSteeringMatrix:
    def test_broadside_is_all_ones(self):
        assert np.allclose(steering_matrix(build_to_sda("cna", 8)[0], [0.0]), 1.0)

    def test_unit_modulus(self):
        assert np.allclose(np.abs(steering_matrix(build_ula(4), [-33.0, 12.0, 71.0])), 1.0)

    def test_phase_of_second_sensor(self):
        a = steering_matrix(build_ula(2), [30.0])
        assert a[1, 0] == pytest.approx(np.exp(1j * np.pi * 0.5), abs=1e-12)

    def test_conjugate_pairs_mirror_angle(self):
        arr = build_ula(5)
        assert np.allclose(steering_matrix(arr, [17.0]).conj(), steering_matrix(arr, [-17.0]))

    def test_endfire_rejected(self):
        with pytest.raises(InvalidParameterError):
            steering_matrix(build_ula(2), [90.0])


class TestSynthesizeSnapshots:
    def test_deterministic_from_seed(self):
        arr = build_ula(4)
        scene = SourceScene((0.0, 20.0), snr_db=5.0, snapshots=64, seed=11)
        assert np.array_equal(synthesize_snapshots(arr, scene), synthesize_snapshots(arr, scene))

    def test_band_zero_coupling_is_identity(self):
        arr = build_ula(4)
        scene = SourceScene((0.0, 20.0), snr_db=5.0, snapshots=64, seed=11)
        plain = synthesize_snapshots(arr, scene)
        coupled = synthesize_snapshots(arr, scene, CouplingModel(band_limit=0))
        assert np.array_equal(plain, coupled)

    # K = 500 in one column block (ids as before blocks were taken), then
    # either side of a block edge, and a last block of three columns
    @pytest.mark.parametrize("coupling, k", [
        pytest.param(None, 500, id="None"),
        pytest.param(CouplingModel(), 500, id="coupling1"),
        *(pytest.param(coupling, k, id=f"{name}-{k}")
          for name, coupling in (("None", None), ("coupling", CouplingModel()))
          for k in (1023, 1024, 1025, 2051)),
    ])
    def test_matches_direct_formula(self, coupling, k):
        assert simulator._SNAPSHOT_BLOCK == 1024  # the block the K above straddle
        # A S + sigma/sqrt(2) (n_re + j n_im) from the same random stream: bit
        # for bit without coupling, across the column blocks of the GEMM;
        # C (A S) rounds apart from (C A) S
        arr, _ = build_to_sda("cna", 9)
        scene = SourceScene(tuple(np.linspace(-60.0, 60.0, 12)), snr_db=-3.0, snapshots=k)
        rng = np.random.default_rng(21)
        s = rng.exponential(1.0, size=(12, k)) - 1.0
        n_re = rng.standard_normal((9, k))
        n_im = rng.standard_normal((9, k))
        signal = steering_matrix(arr, scene.angles_deg) @ s
        if coupling is not None:
            signal = tosda.coupling_matrix(arr, coupling) @ signal
        sigma = math.sqrt(10.0 ** (3.0 / 10.0))
        want = signal + (sigma / math.sqrt(2.0)) * (n_re + 1j * n_im)
        got_rng = np.random.default_rng(21)
        x = synthesize_snapshots(arr, scene, coupling, got_rng)
        if coupling is None:
            assert np.array_equal(x.view(np.float64), want.view(np.float64))
        else:
            assert np.abs(x - want).max() <= 1e-15 * np.abs(want).max()
        assert got_rng.random() == rng.random()  # both streams end in one place

    def test_pinned_at_one_seed(self):
        # one broadside source: its steering vector is exactly 1, so every
        # product and sum is exact and x is the random stream's alone, on any
        # BLAS; a change of the draws (their law, order or count) moves it
        scene = SourceScene((0.0,), snr_db=10.0, snapshots=8, seed=5)
        x = synthesize_snapshots(build_ula(3), scene)
        assert (x[0, 0].real.hex(), x[2, 7].imag.hex()) == (
            "0x1.2772beb9f86ddp+0", "-0x1.80e455abbb33ap-3")
        assert hashlib.sha256(x.tobytes()).hexdigest() == (
            "70c20fcaba5fbfac53572eb598a36141c0d595127acfcafb9b915711ad8cb1b4")

    def test_coupling_matrix_built_once_per_array_and_model(self, array9, monkeypatch):
        calls, coefficient = [], CouplingModel.coefficient
        monkeypatch.setattr(CouplingModel, "coefficient",
                            lambda model, d: calls.append(d) or coefficient(model, d))
        simulator._coupling_matrix.cache_clear()
        scene = SourceScene(tuple(np.linspace(-60.0, 60.0, 12)), 0.0, 500)

        def trial(seed):
            tosda.run_trial(array9, scene, np.random.default_rng(seed),
                            coupling=CouplingModel())

        trial(1)
        first = len(calls)
        trial(2)
        assert first > 0 and len(calls) == first
        assert not simulator._coupling_matrix(array9, CouplingModel()).flags.writeable
        # the public function builds a fresh, writeable matrix on every call
        assert tosda.coupling_matrix(array9, CouplingModel()).flags.writeable
        assert len(calls) == 2 * first

    def test_noiseless_broadside_rows_equal(self):
        scene = SourceScene((0.0,), snr_db=300.0, snapshots=16, seed=0)
        x = synthesize_snapshots(build_ula(3), scene)
        assert np.allclose(x[1:], x[0], atol=1e-12)

    def test_source_power_near_unity(self):
        scene = SourceScene((0.0,), snr_db=300.0, snapshots=200_000, seed=3)
        x = synthesize_snapshots(build_ula(2), scene)
        assert np.mean(np.abs(x[0]) ** 2) == pytest.approx(1.0, rel=0.05)


class TestSampleThirdCumulants:
    def test_zero_input(self):
        cum = sample_third_cumulants(np.zeros((2, 10), dtype=complex), build_ula(2))
        assert np.all(cum == 0)
        assert cum.shape == (4 * 8,)

    def test_single_sensor_case1_is_third_moment(self):
        arr = SensorArray("a", (0,))
        rng = np.random.default_rng(0)
        s = rng.exponential(1.0, 500) - 1.0
        cum = sample_third_cumulants(s[None, :].astype(complex), arr)
        centered = s - s.mean()
        assert cum[0] == pytest.approx(np.mean(centered**3))

    def test_matches_explicit_pattern_loop(self):
        # independent oracle: evaluate all four conjugation patterns with
        # a plain loop and compare entry by entry
        arr = SensorArray("a", (0, 1, 3))
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 40)) + 1j * rng.standard_normal((3, 40))
        cum = sample_third_cumulants(x, arr)
        xc = x - x.mean(axis=1, keepdims=True)
        patterns = (lambda a, b, c: a * b * c, lambda a, b, c: a * b * c.conj(),
                    lambda a, b, c: a.conj() * b.conj() * c,
                    lambda a, b, c: a.conj() * b.conj() * c.conj())
        n = 3
        for j, pat in enumerate(patterns, start=1):
            for l1, l2, l3 in itertools.product(range(n), repeat=3):
                idx = (j - 1) * n**3 + n * n * l1 + n * l2 + l3
                want = np.mean(pat(xc[l1], xc[l2], xc[l3]))
                assert cum[idx] == pytest.approx(want, abs=1e-12)

    def test_conjugation_symmetry(self):
        arr = build_ula(2)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 30)) + 1j * rng.standard_normal((2, 30))
        cum = sample_third_cumulants(x, arr)
        case1, case2, case3, case4 = np.split(cum, 4)  # 8 entries each
        assert np.array_equal(case3, case2.conj())
        assert np.array_equal(case4, case1.conj())

    def test_gaussian_noise_scale(self):
        # pure Gaussian input: entries shrink like 1/sqrt(K)
        arr = build_ula(2)
        rng = np.random.default_rng(123)
        k = 100_000
        x = (rng.standard_normal((2, k)) + 1j * rng.standard_normal((2, k))) / np.sqrt(2)
        cum = sample_third_cumulants(x, arr)
        assert np.max(np.abs(cum)) < 10 / np.sqrt(k)

    def test_gaussian_decay_rate(self):
        arr = build_ula(2)
        rng = np.random.default_rng(7)
        maxima = []
        for k in (10_000, 40_000):
            x = (rng.standard_normal((2, k)) + 1j * rng.standard_normal((2, k)))
            maxima.append(np.max(np.abs(sample_third_cumulants(x, arr))))
        ratio = maxima[0] / maxima[1]
        assert 1.0 <= ratio <= 3.0  # ~2 expected for a 4x snapshot increase

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            sample_third_cumulants(np.zeros((3, 10), dtype=complex), build_ula(2))


def reference_virtual_vector(x, arr):
    """Bincount average of the full 4N^3 cumulant vector over [-Z, Z], Z read
    from the TO-ECA histogram."""
    cum, lags = sample_third_cumulants(x, arr), index_lag_map(arr)
    big_z = to_eca(arr).one_sided_z
    inside = np.abs(lags) <= big_z
    idx, vals = lags[inside] + big_z, cum[inside]
    sums = np.bincount(idx, vals.real) + 1j * np.bincount(idx, vals.imag)
    return sums / np.bincount(idx)


class TestVirtualArrayVector:
    def test_single_sensor(self):
        arr = SensorArray("a", (0,))
        x = np.full((1, 50), 2.0, dtype=complex)
        x[0, ::2] = -1.0  # non-trivial signal
        cum = sample_third_cumulants(x, arr)
        z = virtual_array_vector(x, arr)
        assert z.shape == (1,)
        assert z[0] == pytest.approx(np.mean(cum))

    def test_constructed_exponential_passes_through(self):
        # one real source with steering exp(j*omega*p) and unit third
        # moment: every cumulant entry is exp(j*omega*lag)
        arr, _ = build_to_sda("cna", 8)
        rep = to_eca(arr)
        omega = 0.37
        s = np.array([2.0, -1.0, -1.0]) / np.cbrt(2.0)  # mean 0, mean cube 1
        x = np.exp(1j * omega * np.asarray(arr.positions))[:, None] * s[None, :]
        lags = np.arange(-rep.one_sided_z, rep.one_sided_z + 1)
        assert np.allclose(virtual_array_vector(x, arr), np.exp(1j * omega * lags),
                           atol=1e-12)

    def test_average_counts_equal_weights(self):
        arr, _ = build_to_sda("scna", 8)
        rep, lag_map = to_eca(arr), index_lag_map(arr)
        for lag in (-rep.one_sided_z, -3, 0, 5, rep.one_sided_z):
            assert np.sum(lag_map == lag) == rep.weights[lag]

    @settings(deadline=None)
    @given(
        st.sets(st.integers(1, 40), max_size=6),
        st.integers(1, 30),
        st.integers(0, 2**32 - 1),
    )
    def test_property_matches_reference(self, positions, k, seed):
        # a sensor at 0 puts lag 0 = 0 + 0 - 0 into the TO-ECA, so Z >= 0
        arr = SensorArray("h", (0, *sorted(positions)))
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((arr.size, k)) + 1j * rng.standard_normal((arr.size, k))
        got = virtual_array_vector(x, arr)
        want = reference_virtual_vector(x, arr)
        assert got.shape == want.shape == (2 * to_eca(arr).one_sided_z + 1,)
        # entries are means of cubes, so rounding scales with max |x|^3
        scale = np.abs(x).max() ** 3
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * scale)

    def test_matches_reference_with_coupling(self):
        arr, _ = build_to_sda("cna", 9)
        scene = SourceScene((-30.0, 10.0, 45.0), snr_db=0.0, snapshots=2000, seed=4)
        x = synthesize_snapshots(arr, scene, CouplingModel())
        want = reference_virtual_vector(x, arr)
        assert np.allclose(virtual_array_vector(x, arr), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "k", [1, 7, 700, simulator._SNAPSHOT_BLOCK, 2 * simulator._SNAPSHOT_BLOCK + 3])
    def test_matches_reference_across_snapshot_blocks(self, k):
        # short blocks, one full block, and a ragged last block; the offset
        # per sensor makes every block's centring by the sensor means count.
        # At k = 7, every TO-SDA with N <= 24 ties the bitset Z and the pair
        # bins to the TO-ECA histogram and the full lag map
        arrays = [build_to_sda("scna", 6)[0]]
        if k == 7:
            arrays = [build_to_sda(variant, n)[0] for variant in ("cna", "scna", "tna2")
                      for n in range(minimum_sensors(variant), 25)]
        rng = np.random.default_rng(k)
        for arr in arrays:
            x = (rng.standard_normal((arr.size, k)) + 1j * rng.standard_normal((arr.size, k))
                 + (3.0 - 2.0j) * np.arange(arr.size)[:, None])
            got = virtual_array_vector(x, arr)
            want = reference_virtual_vector(x, arr)
            assert got.shape == want.shape, arr.name
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(x).max() ** 3), \
                arr.name

    def test_input_checks(self):
        arr = build_ula(2)
        for bad in (np.zeros(4), np.zeros((3, 10)), np.zeros((2, 0))):
            with pytest.raises(InvalidParameterError):
                virtual_array_vector(bad, arr)


def symmetric_noise(rng, big_z, scale):
    """Complex noise on the lags [-Z, Z] with e(-l) = conj e(l)."""
    e = np.array([1, 1j]) @ rng.standard_normal((2, 2 * big_z + 1))
    return scale * (e + e[::-1].conj()) / 2


def smoothed_covariance(z):
    """Average outer product of the Z+1 overlapping length-(Z+1) subvectors."""
    m = (z.size + 1) // 2
    windows = np.lib.stride_tricks.sliding_window_view(z, m)  # row i = lags [i-Z, i]
    return windows.T @ windows.conj() / m


def assert_matches_smoothing_music(z, d, grid_step_deg=0.05):
    """Check ``ss_music(z, d)`` against spatial-smoothing MUSIC: its spectrum
    on the grid, from one steering vector per point, and its d highest peaks
    by ``find_peaks``.  Returns the grid."""
    est = ss_music(z, d, grid_step_deg=grid_step_deg)
    grid, spectrum = est.spectrum
    r = smoothed_covariance(z)
    m = r.shape[0]
    _, vecs = np.linalg.eigh((r + r.conj().T) / 2)
    a = np.exp(1j * np.pi * np.outer(np.arange(m), np.sin(np.deg2rad(grid))))
    signal = vecs[:, m - d :]
    # |En^H a|^2 = m - |Es^H a|^2, the form ss_music evaluates
    want = 1.0 / np.maximum(m - np.sum(np.abs(signal.conj().T @ a) ** 2, axis=0), 1e-12)
    peaks, _ = find_peaks(want)
    assert peaks.size >= d
    top = peaks[np.argsort(want[peaks], kind="stable")[::-1][:d]]
    # compare |En^H a|^2 = 1/spectrum: float64 gives it to about 5e-17*m**2
    # absolute, so at a sharp peak the spectrum itself is good only to a few
    # 1e-9 relative
    np.testing.assert_allclose(1 / spectrum, 1 / want, rtol=0, atol=1e-12 * m)
    np.testing.assert_array_equal(est.angles_deg, np.sort(grid[top]))
    return grid


class TestLocalMaxima:
    """``simulator._local_maxima`` against ``scipy.signal.find_peaks``."""

    @given(st.lists(st.integers(0, 3), max_size=40))
    @example([2, 2, 1, 0, 1, 1])  # plateaus at both edges
    @example([0, 3, 3, 3, 3, 1, 3])
    def test_small_integers_match_find_peaks(self, values):
        x = np.asarray(values, dtype=float)
        assert np.array_equal(simulator._local_maxima(x), find_peaks(x)[0])

    @given(st.lists(st.sampled_from([0.5, 2.0, 1e12]), max_size=40))
    @example([1e12, 1e12, 2.0, 1e12, 1e12, 1e12, 0.5, 1e12])
    def test_clamped_runs_match_find_peaks(self, values):
        # 1/max(den, 1e-12) turns every den <= 1e-12 into a run of 1e12
        x = np.asarray(values)
        assert np.array_equal(simulator._local_maxima(x), find_peaks(x)[0])


@pytest.mark.parametrize("m", [2, 3, 4, 5, 124, 125, 223, 224])
def test_real_transform_subspace_matches_complex_eigh(m):
    # the dense path's real eigh of Q^H T Q spans the eigenvectors of largest
    # |eigenvalue| of T; a negative-cumulant source makes one of them negative
    big_z, d = m - 1, min(3, m - 1)
    angles = [-41.0, 7.5, 33.0][:d]
    gammas = np.array([-1.5, 1.0, 0.8])[:d]
    z = analytic_virtual_vector(big_z, angles, gammas)
    z += symmetric_noise(np.random.default_rng([11, m]), big_z, 0.01 * np.abs(z).max())
    c = z[big_z:]
    assert m <= simulator._DENSE_EIGH_MAX_M and c[0].imag == 0
    vals, vecs = np.linalg.eigh(toeplitz(c))
    wanted = np.argsort(np.abs(vals), kind="stable")[m - d:]
    assert vals[wanted].min() < 0
    want = vecs[:, wanted] @ vecs[:, wanted].conj().T
    signal = simulator._signal_subspace(c, d)
    assert signal.shape == (m, d)
    np.testing.assert_allclose(signal @ signal.conj().T, want, rtol=0, atol=1e-14)


def test_lanczos_convergence_tests_spaced_geometrically(monkeypatch):
    # a random Hermitian Toeplitz T has no wide gap after D, so Lanczos runs to
    # k of about 450; one test every 4 steps took 72 tridiagonal eighs here
    m, d = 800, 150
    rng = np.random.default_rng(5)
    c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    c[0] = c[0].real
    vals, vecs = np.linalg.eigh(toeplitz(c))
    wanted = vecs[:, np.argsort(np.abs(vals), kind="stable")[m - d:]]
    sizes, eigh = [], np.linalg.eigh

    def counting(a):
        sizes.append(a.shape[0])
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    signal = simulator._signal_subspace(c, d)
    assert sizes[-1] > 256 and len(sizes) <= 36
    np.testing.assert_allclose(signal @ signal.conj().T, wanted @ wanted.conj().T,
                               rtol=0, atol=1e-10)


def test_lanczos_basis_grows_past_its_first_rows(monkeypatch):
    # the basis starts with 4 D + 32 = 36 rows; a random Hermitian Toeplitz T
    # at m = 225 needs 52 Lanczos vectors for its largest |eigenvalue|, so the
    # rows double once
    m, d = 225, 1
    rng = np.random.default_rng(5)
    c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    c[0] = c[0].real
    vals, vecs = np.linalg.eigh(toeplitz(c))
    wanted = vecs[:, np.argsort(np.abs(vals), kind="stable")[m - d:]]
    sizes, eigh = [], np.linalg.eigh

    def counting(a):
        sizes.append(a.shape[0])
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    signal = simulator._signal_subspace(c, d)
    assert m > simulator._DENSE_EIGH_MAX_M and sizes[-1] > 4 * d + 32
    np.testing.assert_allclose(signal @ signal.conj().T, wanted @ wanted.conj().T,
                               rtol=0, atol=1e-12)


# The scipy modules each path loads, as the conftest probe ``boundaries``
# recorded them in one fresh interpreter: numpy's FFTs and numpy's copy alone
# on the dense and the Lanczos path.
def test_import_leaves_scipy_signal_unloaded(boundaries):
    steps, _ = boundaries
    assert steps["import tosda"]["scipy"] == []


def test_design_paths_load_no_scipy(boundaries):
    steps, tmp = boundaries
    design = ("dof_sweep", "splits", "build_to_sda, consecutive_z", "design --oracle")
    assert [steps[name]["scipy"] for name in design] == [[]] * len(design)
    assert steps["design --oracle"]["exit"] == 0
    assert (tmp / "design" / "manifest.json").exists()


def test_dense_ss_music_loads_no_scipy_sparse(boundaries):
    # the dense ss_music call ran on 2Z+1 = 247 lags
    steps, _ = boundaries
    assert steps["dense ss_music"]["lags"] == 2 * 123 + 1
    assert steps["dense ss_music"]["scipy"] == []


@pytest.mark.parametrize("threads", [1, 2])
def test_dense_monte_carlo_loads_no_scipy(boundaries, threads):
    steps, _ = boundaries
    assert steps[f"monte_carlo threads={threads}"]["scipy"] == []


@pytest.mark.parametrize("mode", ["rmse", "spectrum"])
def test_dense_simulate_loads_no_scipy(boundaries, mode):
    steps, tmp = boundaries
    assert steps[f"simulate {mode}"]["exit"] == 0
    assert (tmp / mode / f"{mode}.csv").exists()
    assert steps[f"simulate {mode}"]["scipy"] == []


# The process's first call on CNA N=13 (m = 309 > 224), in a fresh
# interpreter, since the BLAS count it sees holds only from a process's
# start.  numpy's copy starts at 2 threads, so a pin on one worker, or a
# missed one in a pool, would show.  With two workers both start the Lanczos
# path together, before anything has warmed up.  Every FFT of it is recorded: the Lanczos products
# and the grid projection.  A second call with the other worker count must
# agree.  The script prints the dict of facts it saw.
FIRST_LANCZOS_CALL = """\
import json, sys
import numpy as np
from tosda import SourceScene, build_to_sda, consecutive_z, monte_carlo, simulator
get, _ = simulator._openblas_thread_controls()
facts = {'count at start': get()}
inside, fft, ifft = [], np.fft.fft, np.fft.ifft
def recording(transform):
    return lambda *args, **kwargs: (inside.append(get()), transform(*args, **kwargs))[1]
np.fft.fft, np.fft.ifft = recording(fft), recording(ifft)
arr, _ = build_to_sda('cna', 13)
facts['m above the eigh limit'] = consecutive_z(arr) + 1 > simulator._DENSE_EIGH_MAX_M
scene = SourceScene(tuple(np.linspace(-60, 60, 12)), 0.0, 2000, seed=13)
first = monte_carlo(arr, scene, trials=4, threads=threads)[0].per_trial_estimates
np.fft.fft, np.fft.ifft = fft, ifft
facts.update({'counts in its FFTs': sorted(set(inside)), 'FFTs': len(inside), 'count after': get()})
other = monte_carlo(arr, scene, trials=4, threads=3 - threads)[0].per_trial_estimates
facts['estimates equal'] = bool(np.array_equal(first, other))
facts['scipy'] = sorted(m for m in sys.modules if m.startswith('scipy'))
print(json.dumps(facts))
"""


@pytest.fixture(scope="module")
def fresh_facts(fresh_python):
    """``fresh_facts(threads)``: the facts that ``FIRST_LANCZOS_CALL`` printed
    with ``threads`` workers in a new interpreter on this checkout; each
    count runs once."""
    @functools.cache
    def facts(threads):
        return json.loads(fresh_python(f"threads = {threads}\n{FIRST_LANCZOS_CALL}",
                                       OPENBLAS_NUM_THREADS="2"))

    return facts


@pytest.mark.parametrize("threads", [1, 2])
def test_first_lanczos_call_pins_blas_only_in_a_pool(fresh_facts, threads):
    # at threads=2 both workers start the Lanczos path at once
    facts = fresh_facts(threads)
    assert facts.pop("FFTs") > 20
    assert facts == {
        "count at start": 2, "m above the eigh limit": True,
        "counts in its FFTs": [1] if threads > 1 else [2], "count after": 2,
        "estimates equal": True, "scipy": [],
    }


class TestSsMusic:
    def test_population_single_source(self):
        est = ss_music(analytic_virtual_vector(40, [12.34]), 1)
        assert abs(est.angles_deg[0] - 12.34) <= 0.01

    def test_population_broadside(self):
        assert abs(ss_music(analytic_virtual_vector(30, [0.0]), 1).angles_deg[0]) <= 0.01

    def test_population_pair(self):
        est = ss_music(analytic_virtual_vector(60, [-30.0, 30.0]), 2)
        assert np.all(np.abs(est.angles_deg - [-30.0, 30.0]) <= 0.01)

    def test_capacity_rule(self):
        for big_z in (5, 300):
            z = analytic_virtual_vector(big_z, [0.0])
            with pytest.raises(CapacityExceededError):
                ss_music(z, big_z + 1)
            ss_music(z, big_z)  # exactly Z sources is allowed
            ss_music(z, big_z - 1)

    @pytest.mark.parametrize("big_z", [20, 300])
    def test_all_zero_vector_rejected(self, big_z):
        with pytest.raises(InvalidParameterError, match="all zero"):
            ss_music(np.zeros(2 * big_z + 1), 3)

    def test_lanczos_path_repeatable(self):
        z = analytic_virtual_vector(300, [-20.0, 10.0, 40.0])
        z += symmetric_noise(np.random.default_rng(7), 300, 0.1)
        first, second = (ss_music(z, 3) for _ in range(2))
        assert np.array_equal(first.spectrum[1], second.spectrum[1])
        assert np.array_equal(first.angles_deg, second.angles_deg)

    def test_degenerate_signal_eigenspace_on_lanczos_path(self):
        # T has the eigenvalue m twice, so its eigenvectors there are not unique
        assert_matches_smoothing_music(analytic_virtual_vector(400, [-30.0, 0.0, 30.0]), 3)

    @pytest.mark.parametrize("d", [1, 3])
    def test_exact_rank_vector_restarts_lanczos(self, d, monkeypatch):
        # noise-free, T has rank d up to the rounding of its entries, so the
        # Krylov space of ones/sqrt(m) is invariant after a few steps and the
        # next vector's norm falls to rounding level before Lanczos converges
        # (at step 3 for d = 1, 5 for d = 3); it must go on from a new vector
        seeds = []
        real_rng = np.random.default_rng

        def recording_rng(seed=None):
            seeds.append(seed)
            return real_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        z = analytic_virtual_vector(300, [-41.0, 7.5, 52.0][:d])
        assert z.size // 2 + 1 > simulator._DENSE_EIGH_MAX_M
        assert_matches_smoothing_music(z, d)
        assert seeds == [simulator._LANCZOS_RESTART_SEED]

    def test_even_length_rejected(self):
        with pytest.raises(InvalidParameterError):
            ss_music(np.ones(10, dtype=complex), 1)

    def test_smoothed_matrix_hermitian_psd(self):
        # the spatially smoothed matrix is T T^H / m for the Toeplitz T of lags 0..Z
        rng = np.random.default_rng(3)
        z = analytic_virtual_vector(30, [-10.0, 25.0]) + symmetric_noise(rng, 30, 0.01)
        m = 31
        r = smoothed_covariance(z)
        t = toeplitz(z[m - 1:])
        assert np.linalg.norm(r - t @ t.conj().T / m) <= 1e-12 * np.linalg.norm(r)
        assert np.allclose(r, r.conj().T, atol=1e-10 * np.abs(r).max())
        eigvals = np.linalg.eigvalsh((r + r.conj().T) / 2)
        assert eigvals.min() >= -1e-10 * eigvals.max()

    # seeds 50..55 draw Z beyond the dense-eigh limit, so they run the Lanczos path
    @pytest.mark.parametrize("seed", range(56))
    def test_matches_spatial_smoothing_reference(self, seed):
        rng = np.random.default_rng([2015, seed])
        d = int(rng.integers(1, 5))
        while True:
            angles = np.sort(rng.uniform(-70.0, 70.0, d))
            if np.all(np.diff(angles) >= 2.0):
                break
        lanczos = seed >= 50
        big_z = int(rng.integers(260, 701) if lanczos else rng.integers(max(d, 8), 41))
        # a source's cumulant may be negative: T then has a negative signal eigenvalue
        gammas = rng.uniform(0.5, 2.0, d) * rng.choice([-1.0, 1.0], d)
        z = analytic_virtual_vector(big_z, angles, gammas)
        z += symmetric_noise(rng, big_z, 0.01 * np.abs(z).max())
        assert_matches_smoothing_music(z, d)

    # m = Z+1 at both sides of every m = 4, 16, 64, 256, 1024 where the grid
    # evaluation's block rows b double and of the dense-eigh limit 224; m = 65,
    # 225, 257 and 513 leave one coefficient in a last block of b, and at
    # m = 257 and 513, 2m-1 is one above the fast FFT lengths 512 and 1024.
    # The 0.05 degree grid is 3599 points, one _GRID_CHUNK; at 0.01 degrees,
    # 17999 points are four full chunks and a ragged 1615, read with b = 16
    # (m = 124) and b = 32 (m = 256)
    @pytest.mark.parametrize("big_z, step", [
        *(pytest.param(big_z, 0.05, id=str(big_z))
          for big_z in (2, 3, 14, 15, 40, 62, 63, 64, 223, 224, 254, 255, 256, 512, 1022,
                        1023)),
        pytest.param(123, 0.01, id="123-0.01deg"),
        pytest.param(255, 0.01, id="255-0.01deg"),
    ])
    def test_matches_spatial_smoothing_reference_at_edge_lengths(self, big_z, step):
        rng = np.random.default_rng([2015, big_z])
        d = min(4, big_z)
        angles = [-47.5, -3.2, 21.0, 58.4][:d]
        gammas = np.array([1.0, -0.7, 1.6, 0.9])[:d]
        z = analytic_virtual_vector(big_z, angles, gammas)
        z += symmetric_noise(rng, big_z, 0.01 * np.abs(z).max())
        grid = assert_matches_smoothing_music(z, d, step)
        assert divmod(grid.size, simulator._GRID_CHUNK) == {0.05: (0, 3599), 0.01: (4, 1615)}[step]

    @pytest.mark.parametrize("defect", [1e-3, 1e-6])
    def test_non_conjugate_symmetric_vector_rejected(self, defect):
        z = analytic_virtual_vector(20, [5.0, 30.0])
        z[:20] += defect * np.abs(z).max()  # negative lags only
        with pytest.raises(InvalidParameterError, match="conjugate-symmetric"):
            ss_music(z, 2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_vector_rejected(self, bad):
        z = analytic_virtual_vector(20, [5.0, 30.0])
        z[[5, -6]] = bad  # lags -15 and 15, so the vector stays symmetric
        with pytest.raises(InvalidParameterError, match="non-finite"):
            ss_music(z, 2)

    def test_rounding_level_asymmetry_accepted(self):
        z = analytic_virtual_vector(20, [5.0, 30.0])
        z[:20] *= 1 + 1e-12
        assert np.all(np.abs(ss_music(z, 2).angles_deg - [5.0, 30.0]) <= 0.01)

    @pytest.mark.parametrize("step", [float("nan"), float("inf"), 0.0, -0.5, 1e-9])
    def test_bad_grid_step_rejected(self, step):
        with pytest.raises(InvalidParameterError):
            ss_music(analytic_virtual_vector(20, [5.0]), 1, grid_step_deg=step)

    def test_grid_with_fewer_points_than_sources_rejected(self):
        # a 60-degree step leaves the interior points -30 and 30 only
        z = analytic_virtual_vector(20, [-30.0, 0.0, 30.0])
        assert ss_music(z, 2, grid_step_deg=60.0).angles_deg.tolist() == [-30.0, 30.0]
        with pytest.raises(InvalidParameterError):
            ss_music(z, 3, grid_step_deg=60.0)
        with pytest.raises(InvalidParameterError):
            ss_music(z, 1, grid_step_deg=500.0)  # no interior point at all

    # seeds 0-11: small whole-number spectra on a 10-degree grid, where
    # plateaus, ties and too few local maxima are common; then the real
    # spectrum of a broadside source on a 30-degree grid, five points and one
    # peak, whose rest fills by decreasing value (at D = 4, 60 degrees tops
    # -60 by one ulp)
    @pytest.mark.parametrize("seed, d, want", [
        *(pytest.param(seed, None, None, id=str(seed)) for seed in range(12)),
        pytest.param(None, 3, [-30.0, 0.0, 30.0], id="broadside-3"),
        pytest.param(None, 4, [-30.0, 0.0, 30.0, 60.0], id="broadside-4"),
    ])
    def test_padded_pick_matches_loop_reference(self, seed, d, want, monkeypatch):
        step = 30.0
        if seed is not None:
            rng = np.random.default_rng([7, seed])
            spectrum = rng.integers(0, 4, 17).astype(float)
            d, step = int(rng.integers(1, 10)), 10.0
            monkeypatch.setattr(simulator, "_music_spectrum", lambda signal, steering: spectrum)
        est = ss_music(analytic_virtual_vector(20, [0.0]), d, grid_step_deg=step)
        grid, spectrum = est.spectrum
        # the pick as a loop: peaks by descending value, then the largest others
        peaks = find_peaks(spectrum)[0]
        chosen = list(peaks[np.argsort(spectrum[peaks], kind="stable")[::-1]][:d])
        for idx in np.argsort(spectrum, kind="stable")[::-1]:
            if len(chosen) < d and idx not in chosen:
                chosen.append(idx)
        assert est.peaks_padded == (peaks.size < d)
        assert est.angles_deg.tolist() == sorted(grid[chosen].tolist())
        assert want is None or (est.peaks_padded and est.angles_deg.tolist() == want)

    def test_spectrum_returned_on_request(self):
        grid, spec = ss_music(analytic_virtual_vector(20, [5.0]), 1).spectrum
        assert grid.shape == spec.shape
        assert grid[0] > -90 and grid[-1] < 90


class TestSteeringTable:
    def test_ss_music_caches_one_phasor_row_per_step(self):
        simulator._grid_and_steering.cache_clear()
        ss_music(analytic_virtual_vector(123, [-20.0, 10.0, 40.0]), 3)  # m = 124, b = 16
        ss_music(analytic_virtual_vector(299, [-20.0, 10.0, 40.0]), 3)  # m = 300, b = 32
        _, phasor = simulator._grid_and_steering(0.01)
        info = simulator._grid_and_steering.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 1, 1)
        # the non-negative half of the 17999-point grid: 0 and its 8999 positive points
        assert phasor.shape == (9000,)

    # 0.7 degrees is 257 steps of 180/257 = 0.70039 degrees, an even 256 interior
    # points; 60 degrees leaves -30 and 30 only
    @pytest.mark.parametrize("step, size", [(0.01, 17999), (0.05, 3599), (0.7, 256), (60.0, 2)])
    def test_grid_is_antisymmetric_over_a_half_width_table(self, step, size):
        grid, phasor = simulator._grid_and_steering(step)
        assert grid.size == size
        assert np.array_equal(grid, -grid[::-1])
        np.testing.assert_allclose(np.diff(grid), 180 / round(180 / step), rtol=0, atol=1e-12)
        assert phasor.shape == ((size + 1) // 2,)
        u = np.sin(np.deg2rad(grid[size // 2:]))
        assert np.array_equal(phasor, np.exp(1j * 2 * np.pi * simulator.UNIT_SPACING * u))

    @pytest.mark.parametrize("step", [0.01, 0.7, 60.0])
    def test_streamed_powers_match_exp(self, step):
        # w**r by products of w, against exp(j*pi*r*u) row by row; a shorter
        # block's rows are the leading rows of a longer one's
        grid, phasor = simulator._grid_and_steering(step)
        u = np.sin(np.deg2rad(grid[grid.size // 2:]))
        powers = simulator._phasor_powers(phasor, np.empty((33, phasor.size), np.complex128))
        r = np.arange(33)[:, None]
        want = np.exp(1j * 2 * np.pi * simulator.UNIT_SPACING * (r * u))
        assert np.abs(powers - want).max() <= 1e-13
        assert np.array_equal(powers[:2], [np.ones(phasor.size), phasor])
        for b in (1, 2, 16):
            shorter = simulator._phasor_powers(phasor, np.empty((b + 1, phasor.size), np.complex128))
            assert np.array_equal(shorter, powers[: b + 1])

    def test_cold_trial_traced_peak_below_5_5_mib(self, array9):
        # one CNA N=9 trial with an empty grid cache: the 9 x 12000 snapshots,
        # the source and noise draws of the synthesis, and the trial's other
        # arrays, as numpy reports them to tracemalloc (3.80 MiB)
        assert cold_trial_traced_peak(array9, CouplingModel()) < 5.5 * 2**20

    def test_cold_n24_trial_traced_peak_below_12_mib(self):
        # m = 1514: the 24 x 12000 snapshots beside the pair block of
        # virtual_array_vector (10.67 MiB)
        assert cold_trial_traced_peak(build_to_sda("cna", 24)[0], None) < 12 * 2**20

    def test_fine_grid_n24_ss_music_traced_peak_below_10_95_mib(self):
        # ss_music at 0.001 degrees and m = 1514 with an empty grid cache: the
        # 179999-point grid, its phasor row, the spectrum, the masks of its
        # maxima and the Lanczos basis, with no table that grows with m
        # (9.33 MiB; a cached table of the powers would add 47.5)
        array = build_to_sda("cna", 24)[0]
        scene = SourceScene(tuple(np.linspace(-60.0, 60.0, 12)), 0.0, 12000)
        z = virtual_array_vector(
            synthesize_snapshots(array, scene, rng=np.random.default_rng(1)), array)
        simulator._grid_and_steering.cache_clear()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            ss_music(z, scene.n_sources, grid_step_deg=0.001)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert z.size == 2 * 1514 - 1 and peak < 10.95 * 2**20


# Two monte_carlo calls in a fresh interpreter (CNA, 12 sources, K = 12000,
# N=9 with coupling or N=24 without), the first to warm up; the script prints
# the second's minor page faults per trial.  Arrays handed back to the kernel
# and faulted in afresh each trial show as a hundred or more.  Left to glibc's
# own thresholds, which follow the largest block freed so far, the count hangs
# on the order in which the workers first free their arrays: 0.6 to 58 per
# trial over seven fresh two-worker N=9 runs on a 2-core x86-64 box, against
# 0.6 to 13 under the fixed policy, whose one heap the two workers can still
# grow now and then.  The 0.0002 degree spectrum, 7.2 MB, took 226 to 481
# under a 2 MiB mmap threshold.  A run that starts on a machine idle for a few
# seconds reads about 11 with any allocator settings.
WARM_POOL_FAULTS = """\
import resource, sys
import numpy as np
from tosda import SourceScene, build_to_sda, monte_carlo
from tosda.metrics import CouplingModel
sensors, workers, step = int(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3])
arr, _ = build_to_sda('cna', sensors)
coupling = CouplingModel() if sensors == 9 else None
scene = SourceScene(tuple(np.linspace(-60, 60, 12)), 0.0, 12000)
for _ in range(2):
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    monte_carlo(arr, scene, trials=20, coupling=coupling, threads=workers,
                grid_step_deg=step)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) / 20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the malloc thresholds are fixed under glibc only")
@pytest.mark.parametrize("sensors, workers, step", [(9, 2, 0.01), (24, 1, 0.01), (9, 2, 0.0002)],
                         ids=["n9-2-workers", "n24-1-worker", "n9-2-workers-0.0002deg"])
def test_warm_pool_trials_take_almost_no_page_faults(fresh_python, sensors, workers, step):
    assert float(fresh_python(WARM_POOL_FAULTS, str(sensors), str(workers), str(step))) < 40


def cold_trial_traced_peak(array, coupling):
    """How far tracemalloc's peak over one trial (12 sources, K = 12000,
    0 dB, a 0.01 degree grid) that starts with an empty grid cache rises
    above its start, in bytes."""
    simulator._grid_and_steering.cache_clear()
    scene = SourceScene(tuple(np.linspace(-60.0, 60.0, 12)), 0.0, 12000)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tosda.run_trial(array, scene, np.random.default_rng(1), coupling=coupling)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestRmse:
    def test_perfect(self):
        assert rmse(np.array([[1.0, 2.0]]), [1.0, 2.0]) == 0

    def test_single_error(self):
        assert rmse(np.array([[1.0]]), [0.0]) == pytest.approx(1.0)

    def test_two_trials(self):
        assert rmse(np.array([[0.0], [2.0]]), [0.0]) == pytest.approx(np.sqrt(2.0))

    def test_trial_order_invariant(self):
        rng = np.random.default_rng(0)
        est = rng.normal(size=(6, 3))
        truth = [-5.0, 0.0, 5.0]
        shuffled = est[rng.permutation(6)]
        assert rmse(est, truth) == pytest.approx(rmse(shuffled, truth))

    def test_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            rmse(np.zeros((2, 3)), [0.0, 1.0])


@pytest.fixture(scope="module")
def array9():
    arr, _ = build_to_sda("cna", 9)
    return arr


@pytest.fixture
def blas():
    """The ``(get, set)`` thread-count controls of numpy's OpenBLAS copy,
    whose count is put back after the test.  The tests set 3, a count no pin
    leaves behind, or 2: not the pin's count either, and few enough not to
    oversubscribe two cores, where unpinned runs took about 12 s at 3
    threads and under 1 s at 2."""
    get, set_ = simulator._openblas_thread_controls()
    saved = get()
    yield get, set_
    set_(saved)


def test_run_trial_keeps_spectrum_on_request(array9):
    scene = SourceScene((-20.0, 20.0), snr_db=10.0, snapshots=600, seed=4)
    kept = tosda.run_trial(array9, scene, np.random.default_rng(4), grid_step_deg=0.05)
    grid, spectrum = kept.spectrum
    assert grid.shape == spectrum.shape == (3599,)  # open interval at 0.05 degrees
    assert grid[0] == pytest.approx(-89.95) and grid[-1] == pytest.approx(89.95)


class TestMonteCarlo:
    @pytest.mark.parametrize(
        "run, message",
        [({"trials": 0}, "need at least one trial"),
         ({"trials": 1, "threads": 0}, "need at least one thread"),
         ({"trials": 1, "sweep": ("snr", [])}, "sweep needs at least one value")],
        ids=["no-trial", "no-thread", "empty-sweep"],
    )
    def test_rejects_an_empty_run(self, array9, run, message):
        scene = SourceScene((0.0,), snr_db=0.0, snapshots=64, seed=0)
        with pytest.raises(InvalidParameterError, match=f"^{message}"):
            monte_carlo(array9, scene, **run)

    def test_deterministic_across_threads(self, array9):
        scene = SourceScene(tuple(np.linspace(-50, 50, 4)), snr_db=0.0, snapshots=800, seed=21)
        runs = [monte_carlo(array9, scene, ("snr", [0.0, 6.0]), trials=3, threads=t)
                for t in (1, 4)]
        for a, b in zip(*runs):
            assert np.array_equal(a.per_trial_estimates, b.per_trial_estimates)
            assert a.rmse_deg == b.rmse_deg

    def test_concurrent_calls_match_sequential_ones(self, array9):
        # two calls of two workers each share one malloc arena, with arrays of
        # different sizes, so a heap block serves trials of both in turn
        runs = [(array9, SourceScene((-20.0, 10.0, 40.0), 0.0, 700, seed=3)),
                (build_to_sda("cna", 6)[0], SourceScene((-30.0, 25.0), 5.0, 300, seed=4))]

        def run(array, scene):
            return monte_carlo(array, scene, ("snr", [0.0, 10.0]), trials=4, threads=2,
                               grid_step_deg=0.05)

        sequential = [run(*args) for args in runs]
        barrier = threading.Barrier(len(runs))
        concurrent = [None] * len(runs)

        def call(k):
            barrier.wait()
            concurrent[k] = run(*runs[k])

        # four workers on fewer cores, switching often, so trials interleave
        callers = [threading.Thread(target=call, args=(k,)) for k in range(len(runs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for want, got in zip(sequential, concurrent):
            assert [s.per_trial_estimates.tolist() for s in got] == [
                s.per_trial_estimates.tolist() for s in want]
            assert [s.rmse_deg for s in got] == [s.rmse_deg for s in want]

    def test_results_outlive_the_trial_workspace(self, array9):
        scene = SourceScene((-20.0, 20.0), 10.0, 600)
        first = tosda.run_trial(array9, scene, np.random.default_rng(1), grid_step_deg=0.05)
        kept = first.spectrum[1].copy()
        tosda.run_trial(array9, scene, np.random.default_rng(2), grid_step_deg=0.05)
        assert np.array_equal(first.spectrum[1], kept)
        x = [synthesize_snapshots(array9, scene) for _ in range(2)]
        assert np.array_equal(x[0], x[1]) and not np.shares_memory(x[0], x[1])

    def test_more_sources_than_sensors(self, array9):
        # 12 sources against 9 physical sensors still estimates
        scene = SourceScene(tuple(np.linspace(-60, 60, 12)), snr_db=10.0, snapshots=3000, seed=5)
        stats = monte_carlo(array9, scene, None, trials=1)
        assert stats[0].per_trial_estimates.shape == (1, 12)
        assert stats[0].rmse_deg < 2.0

    def test_sweep_values_recorded(self, array9):
        scene = SourceScene((0.0, 30.0), snr_db=0.0, snapshots=400, seed=1)
        stats = monte_carlo(array9, scene, ("snapshots", [400, 800]), trials=2)
        assert [s.sweep_value for s in stats] == [400.0, 800.0]
        assert all(s.trials == 2 for s in stats)

    def test_num_sources_sweep_respans(self, array9):
        scene = SourceScene((-60.0, 60.0), snr_db=10.0, snapshots=500, seed=2)
        stats = monte_carlo(array9, scene, ("num_sources", [3]), trials=1)
        assert stats[0].truth_deg.shape == (3,)
        assert stats[0].truth_deg[0] == -60.0 and stats[0].truth_deg[-1] == 60.0

    def test_whole_float_sweep_value_accepted(self, array9):
        scene = SourceScene((-60.0, 60.0), snr_db=10.0, snapshots=500, seed=2)
        stats = monte_carlo(array9, scene, ("num_sources", [3.0]), trials=1)
        assert stats[0].truth_deg.shape == (3,)

    @pytest.mark.parametrize(
        "parameter, value",
        [("num_sources", 2.7), ("num_sources", -3), ("num_sources", 0),
         ("num_sources", float("nan")), ("snapshots", 400.5), ("snapshots", 0)],
    )
    def test_non_whole_count_sweep_value_rejected(self, array9, parameter, value):
        scene = SourceScene((-20.0, 20.0), snr_db=0.0, snapshots=64, seed=0)
        with pytest.raises(InvalidParameterError, match=f"^sweep {parameter} must be a whole number"):
            monte_carlo(array9, scene, (parameter, [3, value]), trials=1)

    def test_snapshots_sweep_point_below_3_refused_before_any_trial(self, array9, monkeypatch):
        # at K = 2 the vector is rounding noise (max |z| about 3e-15), and MUSIC
        # would still return angles
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(simulator, "synthesize_snapshots", no_trial)
        scene = SourceScene((0.0, 20.0), snr_db=10.0, snapshots=400, seed=0)
        with pytest.raises(InvalidParameterError, match="^need at least 3 snapshots, got 2"):
            monte_carlo(array9, scene, ("snapshots", [400, 2]), trials=1)

    def test_whole_float_trials_recorded_as_int(self, array9):
        scene = SourceScene((-20.0, 20.0), snr_db=0.0, snapshots=64, seed=0)
        stats = monte_carlo(array9, scene, trials=2.0, threads=np.int64(2))
        assert type(stats[0].trials) is int and stats[0].trials == 2

    def test_capacity_failure_aborts_point(self):
        scene = SourceScene((0.0, 10.0, 20.0, 30.0), snr_db=0.0, snapshots=64, seed=0)
        with pytest.raises(CapacityExceededError, match="^4 sources exceed the 3 "):
            monte_carlo(build_ula(2), scene, None, trials=1)  # no sweep point to name

    def test_progress_without_a_sweep_names_no_sweep_point(self):
        lines = []
        monte_carlo(build_ula(4), SourceScene((0.0,), 10.0, 64), trials=1, progress=lines.append)
        assert len(lines) == 1 and lines[0].startswith("rmse=")
        assert "sweep point" not in lines[0] and "None" not in lines[0]

    def test_num_sources_past_capacity_refused_before_its_angles_are_listed(self, array9):
        # 10**15 angles take more bytes than a 64-bit address space maps, so
        # listing them first would fail at once with numpy's memory error
        scene = SourceScene((-20.0, 20.0), snr_db=0.0, snapshots=64, seed=0)
        z = to_eca(array9).one_sided_z
        with pytest.raises(CapacityExceededError, match=(
            f"^sweep point {10**15}: {10**15} sources exceed the {z} one-sided "
            f"consecutive lags of {re.escape(array9.name)}$"
        )):
            monte_carlo(array9, scene, ("num_sources", [3, 10**15]), trials=1)

    def test_bad_grid_step_rejected_before_any_snapshot(self, array9, monkeypatch):
        real, calls = simulator.synthesize_snapshots, []

        def recording(*args, **kwargs):
            calls.append(args[0].name)
            return real(*args, **kwargs)

        monkeypatch.setattr(simulator, "synthesize_snapshots", recording)
        scene = SourceScene((0.0, 30.0), snr_db=0.0, snapshots=64, seed=0)
        with pytest.raises(InvalidParameterError, match="^grid_step_deg must be >= "):
            monte_carlo(array9, scene, trials=2, grid_step_deg=1e-9)
        assert calls == []

    def test_bad_sweep_parameter(self, array9):
        scene = SourceScene((0.0,), snr_db=0.0, snapshots=64, seed=0)
        with pytest.raises(InvalidParameterError):
            monte_carlo(array9, scene, ("bandwidth", [1]), trials=1)

    @pytest.mark.parametrize(
        "sweep", [("snr", 5.0), ("snr", None), "snr", 5, ("snr",), ("snr", [0.0], [1.0])]
    )
    def test_malformed_sweep_rejected(self, array9, sweep):
        scene = SourceScene((0.0,), snr_db=0.0, snapshots=64, seed=0)
        with pytest.raises(InvalidParameterError, match=r"^sweep must be a \(parameter, values\)"):
            monte_carlo(array9, scene, sweep, trials=1)

    def test_sweep_values_read_once_from_an_iterator(self, array9):
        scene = SourceScene((0.0, 30.0), snr_db=0.0, snapshots=200, seed=1)
        stats = monte_carlo(array9, scene, ("snr", iter([0.0, 6.0])), trials=2)
        listed = monte_carlo(array9, scene, ("snr", [0.0, 6.0]), trials=2)
        assert [s.sweep_value for s in stats] == [0.0, 6.0]
        for a, b in zip(stats, listed):
            assert np.array_equal(a.per_trial_estimates, b.per_trial_estimates)

    def test_padded_trials_counted(self, array9, monkeypatch):
        scene = SourceScene((0.0, 30.0), snr_db=0.0, snapshots=400, seed=1)
        clean = monte_carlo(array9, scene, ("snr", [0.0, 6.0]), trials=3)
        assert [s.padded_trials for s in clean] == [0, 0]
        real, calls = simulator.ss_music, []

        def pad_every_other(*args, **kwargs):
            calls.append(None)
            est = real(*args, **kwargs)
            return dataclasses.replace(est, peaks_padded=len(calls) % 2 == 1)

        monkeypatch.setattr(simulator, "ss_music", pad_every_other)
        lines = []
        padded = monte_carlo(array9, scene, ("snr", [0.0, 6.0]), trials=3, progress=lines.append)
        # calls 1, 3 | 5 are padded: trials 0 and 2 of point 0, trial 1 of point 1
        assert [s.padded_trials for s in padded] == [2, 1]
        assert "2/3 trials padded" in lines[0] and "1/3 trials padded" in lines[1]
        for a, b in zip(clean, padded):
            assert np.array_equal(a.per_trial_estimates, b.per_trial_estimates)
            assert a.rmse_deg == b.rmse_deg

    def test_workers_capped_at_trial_count(self, array9, monkeypatch):
        sizes, real_pool = [], simulator.ThreadPoolExecutor

        def recording_pool(max_workers):
            sizes.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(simulator, "ThreadPoolExecutor", recording_pool)
        scene = SourceScene((0.0, 30.0), snr_db=0.0, snapshots=200, seed=1)
        # one pool serves the whole sweep, with no more workers than trials
        monte_carlo(array9, scene, ("snr", [0.0, 6.0]), trials=3, threads=64)
        assert sizes == [3]
        # a single trial runs on the calling thread
        monte_carlo(array9, scene, ("snr", [0.0, 6.0]), trials=1, threads=64)
        assert sizes == [3]

    def test_blas_pinned_while_pool_runs_and_restored(self, array9, monkeypatch, blas):
        get, set_ = blas
        set_(2)
        real, inside = simulator.ss_music, []

        def recording_music(*args, **kwargs):
            inside.append(get())
            return real(*args, **kwargs)

        monkeypatch.setattr(simulator, "ss_music", recording_music)
        scene = SourceScene((0.0, 30.0), snr_db=0.0, snapshots=200, seed=1)
        # a pool of two pins; one worker on the calling thread, in both ways, does not
        for threads, trials, count in [(2, 3, 1), (1, 3, 2), (4, 1, 2)]:
            inside.clear()
            monte_carlo(array9, scene, ("snr", [0.0, 6.0]), trials=trials, threads=threads)
            assert inside == [count] * (2 * trials), (threads, trials)
            assert get() == 2, (threads, trials)

    @pytest.mark.parametrize("threads, trials", [(1, 3), (4, 1)])
    def test_one_worker_leaves_blas_count_untouched(self, array9, monkeypatch, blas,
                                                    threads, trials):
        # a one-worker CNA N=24 trial took 76-105 ms with numpy's copy unpinned
        # and 104-117 ms pinned; a pool pins once and restores once per call
        get, set_ = blas
        set_(2)
        calls = []
        monkeypatch.setattr(simulator, "_openblas_thread_controls",
                            lambda: (get, lambda n: calls.append(n) or set_(n)))
        scene = SourceScene((0.0, 30.0), snr_db=0.0, snapshots=200, seed=1)
        monte_carlo(array9, scene, ("snr", [0.0, 6.0]), trials=trials, threads=threads)
        assert calls == []
        monte_carlo(array9, scene, trials=2, threads=2)
        assert calls == [1, 2]

    def test_blas_restored_when_a_trial_raises(self, array9, monkeypatch, blas):
        get, set_ = blas
        set_(3)

        def failing_music(*args, **kwargs):
            raise RuntimeError("trial failed")

        monkeypatch.setattr(simulator, "ss_music", failing_music)
        scene = SourceScene((0.0, 30.0), snr_db=0.0, snapshots=200, seed=1)
        for threads in (2, 1):
            with pytest.raises(RuntimeError, match="trial failed"):
                monte_carlo(array9, scene, trials=4, threads=threads)
            assert get() == 3, threads

    def test_concurrent_calls_leave_blas_unpinned(self, array9, blas):
        get, set_ = blas
        set_(3)
        scene = SourceScene((0.0, 30.0), snr_db=0.0, snapshots=200, seed=1)
        errors = []

        def call():
            try:
                monte_carlo(array9, scene, ("snr", [0.0, 6.0]), trials=3, threads=2)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        callers = [threading.Thread(target=call) for _ in range(2)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
        assert not any(caller.is_alive() for caller in callers)
        assert errors == []
        assert get() == 3

    def test_pin_held_by_interleaved_callers(self, monkeypatch):
        # a lost update of the holder count would restore the count while
        # another holder is inside, or leave the fake copy pinned at the end;
        # like a ctypes call, each call of the fake copy lets other threads run
        state = [4]

        def set_(n):
            time.sleep(0)
            state[0] = n

        monkeypatch.setattr(simulator, "_openblas_thread_controls",
                            lambda: (lambda: time.sleep(0) or state[0], set_))
        pin, inside = simulator._BlasPin(), []

        def hold():
            for _ in range(300):
                with pin.held(None):
                    inside.append(state[0])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            holders = [threading.Thread(target=hold) for _ in range(4)]
            for holder in holders:
                holder.start()
            for holder in holders:
                holder.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(holder.is_alive() for holder in holders)
        assert len(inside) == 1200 and set(inside) == {1}
        assert state == [4]

    def test_missing_blas_symbols_run_unpinned(self, array9, monkeypatch, blas):
        get, set_ = blas
        set_(2)
        # CNA N=9 (m = 124) takes its subspace from eigh, N=13 (m = 309) from Lanczos
        cases = [(arr, threads) for arr in (array9, build_to_sda("cna", 13)[0])
                 for threads in (2, 1)]
        scene = SourceScene((0.0, 30.0), snr_db=0.0, snapshots=200, seed=1)
        pinned = [monte_carlo(arr, scene, ("snr", [0.0, 6.0]), trials=3, threads=threads)
                  for arr, threads in cases]
        real, inside = simulator.ss_music, []

        def recording_music(*args, **kwargs):
            inside.append(get())
            return real(*args, **kwargs)

        monkeypatch.setattr(simulator, "ss_music", recording_music)
        try:
            # the real lookup, sent down its missing-symbol branch
            with monkeypatch.context() as patch:
                patch.setattr(simulator, "_OPENBLAS_SYMBOL", "absent_{}")
                simulator._openblas_thread_controls.cache_clear()
                assert simulator._openblas_thread_controls() is None
                for (arr, threads), expected in zip(cases, pinned):
                    inside.clear()
                    lines = []
                    unpinned = monte_carlo(arr, scene, ("snr", [0.0, 6.0]), trials=3,
                                           threads=threads, progress=lines.append)
                    assert inside == [2] * 6, (arr.name, threads)
                    # with a pool, one note on BLAS; then one line per sweep point
                    if threads > 1:
                        note = lines.pop(0)
                        assert "BLAS" in note and "unpinned" in note
                    assert len(lines) == 2 and not any("BLAS" in line for line in lines)
                    for a, b in zip(expected, unpinned):
                        assert np.array_equal(a.per_trial_estimates, b.per_trial_estimates)
        finally:
            simulator._openblas_thread_controls.cache_clear()
        assert simulator._openblas_thread_controls() is not None
