import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz
from scipy.signal import find_peaks

from tosda import (
    CapacityExceededError,
    CouplingModel,
    InternalConsistencyError,
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
from tosda import simulator


def analytic_virtual_vector(big_z, angles_deg, gammas=None):
    """Population-limit virtual-array vector: sum of unit-lag exponentials."""
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


class TestSteeringMatrix:
    def test_broadside_is_all_ones(self):
        arr, _ = build_to_sda("cna", 8)
        a = steering_matrix(arr, [0.0])
        assert np.allclose(a, 1.0)

    def test_unit_modulus(self):
        arr = build_ula(4)
        a = steering_matrix(arr, [-33.0, 12.0, 71.0])
        assert np.allclose(np.abs(a), 1.0)

    def test_phase_of_second_sensor(self):
        a = steering_matrix(build_ula(2), [30.0])
        assert a[1, 0] == pytest.approx(np.exp(1j * np.pi * 0.5), abs=1e-12)

    def test_conjugate_pairs_mirror_angle(self):
        arr = build_ula(5)
        a_pos = steering_matrix(arr, [17.0])
        a_neg = steering_matrix(arr, [-17.0])
        assert np.allclose(a_pos.conj(), a_neg)

    def test_endfire_rejected(self):
        with pytest.raises(InvalidParameterError):
            steering_matrix(build_ula(2), [90.0])


class TestSynthesizeSnapshots:
    def test_deterministic_from_seed(self):
        arr = build_ula(4)
        scene = SourceScene((0.0, 20.0), snr_db=5.0, snapshots=64, seed=11)
        x1 = synthesize_snapshots(arr, scene)
        x2 = synthesize_snapshots(arr, scene)
        assert np.array_equal(x1, x2)

    def test_band_zero_coupling_is_identity(self):
        arr = build_ula(4)
        scene = SourceScene((0.0, 20.0), snr_db=5.0, snapshots=64, seed=11)
        plain = synthesize_snapshots(arr, scene)
        coupled = synthesize_snapshots(arr, scene, CouplingModel(band_limit=0))
        assert np.array_equal(plain, coupled)

    def test_noiseless_broadside_rows_equal(self):
        arr = build_ula(3)
        scene = SourceScene((0.0,), snr_db=300.0, snapshots=16, seed=0)
        x = synthesize_snapshots(arr, scene)
        assert np.allclose(x[0], x[1], atol=1e-12)
        assert np.allclose(x[0], x[2], atol=1e-12)

    def test_source_power_near_unity(self):
        arr = build_ula(2)
        scene = SourceScene((0.0,), snr_db=300.0, snapshots=200_000, seed=3)
        x = synthesize_snapshots(arr, scene)
        assert np.mean(np.abs(x[0]) ** 2) == pytest.approx(1.0, rel=0.05)


class TestSampleThirdCumulants:
    def test_zero_input(self):
        arr = build_ula(2)
        cum = sample_third_cumulants(np.zeros((2, 10), dtype=complex), arr)
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
        patterns = {
            1: (lambda a, b, c: a * b * c),
            2: (lambda a, b, c: a * b * c.conj()),
            3: (lambda a, b, c: a.conj() * b.conj() * c),
            4: (lambda a, b, c: a.conj() * b.conj() * c.conj()),
        }
        n = 3
        for j, pat in patterns.items():
            for l1, l2, l3 in itertools.product(range(n), repeat=3):
                idx = (j - 1) * n**3 + n * n * l1 + n * l2 + l3
                want = np.mean(pat(xc[l1], xc[l2], xc[l3]))
                assert cum[idx] == pytest.approx(want, abs=1e-12)

    def test_conjugation_symmetry(self):
        arr = build_ula(2)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 30)) + 1j * rng.standard_normal((2, 30))
        cum = sample_third_cumulants(x, arr)
        n3 = 8
        case1, case2 = cum[:n3], cum[n3:2 * n3]
        case3, case4 = cum[2 * n3:3 * n3], cum[3 * n3:]
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


def reference_virtual_vector(x, arr, rep):
    """Bincount average of the full 4N^3 cumulant vector over [-Z, Z]."""
    cum, lags = sample_third_cumulants(x, arr), index_lag_map(arr)
    big_z = rep.one_sided_z
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
        rep = to_eca(arr)
        z = virtual_array_vector(x, arr, rep)
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
        z = virtual_array_vector(x, arr, rep)
        big_z = rep.one_sided_z
        lags = np.arange(-big_z, big_z + 1)
        assert np.allclose(z, np.exp(1j * omega * lags), atol=1e-12)

    def test_average_counts_equal_weights(self):
        arr, _ = build_to_sda("scna", 8)
        rep = to_eca(arr)
        lag_map = index_lag_map(arr)
        big_z = rep.one_sided_z
        for lag in (-big_z, -3, 0, 5, big_z):
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
        rep = to_eca(arr)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((arr.size, k)) + 1j * rng.standard_normal((arr.size, k))
        got = virtual_array_vector(x, arr, rep)
        want = reference_virtual_vector(x, arr, rep)
        assert got.shape == want.shape == (2 * rep.one_sided_z + 1,)
        # entries are means of cubes, so rounding scales with max |x|^3
        scale = np.abs(x).max() ** 3
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * scale)

    def test_matches_reference_with_coupling(self):
        arr, _ = build_to_sda("cna", 9)
        rep = to_eca(arr)
        scene = SourceScene((-30.0, 10.0, 45.0), snr_db=0.0, snapshots=2000, seed=4)
        x = synthesize_snapshots(arr, scene, CouplingModel())
        want = reference_virtual_vector(x, arr, rep)
        assert np.allclose(virtual_array_vector(x, arr, rep), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "other",
        [(0, 1, 3), (0, 1, 2, 7), (0, 1, 2, 10), (0, 1, 2, 4, 6)],
        ids=["smaller-z", "larger-z", "same-z-same-n", "same-z-more-sensors"],
    )
    def test_report_of_another_array_rejected(self, other):
        arr = SensorArray("a", (0, 1, 2, 6))
        x = np.ones((arr.size, 5), dtype=complex)
        with pytest.raises(InternalConsistencyError):
            virtual_array_vector(x, arr, to_eca(SensorArray("b", other)))

    def test_input_checks(self):
        arr = build_ula(2)
        rep = to_eca(arr)
        for bad in (np.zeros(4), np.zeros((3, 10)), np.zeros((2, 0))):
            with pytest.raises(InvalidParameterError):
                virtual_array_vector(bad, arr, rep)


def symmetric_noise(rng, big_z, scale):
    """Complex noise on the lags [-Z, Z] with e(-l) = conj e(l)."""
    e = np.array([1, 1j]) @ rng.standard_normal((2, 2 * big_z + 1))
    return scale * (e + e[::-1].conj()) / 2


def smoothed_covariance(z):
    """Average outer product of the Z+1 overlapping length-(Z+1) subvectors."""
    m = (z.size + 1) // 2
    windows = np.lib.stride_tricks.sliding_window_view(z, m)  # row i = lags [i-Z, i]
    return windows.T @ windows.conj() / m


def smoothing_music_reference(z, d, grid):
    """Spatial-smoothing MUSIC spectrum on ``grid`` and its d highest peaks."""
    r = smoothed_covariance(z)
    m = r.shape[0]
    _, vecs = np.linalg.eigh((r + r.conj().T) / 2)
    u = np.sin(np.deg2rad(grid))
    a = np.exp(1j * np.pi * np.outer(np.arange(m), u))
    signal = vecs[:, m - d :]
    # |En^H a|^2 = m - |Es^H a|^2, the form ss_music evaluates
    spectrum = 1.0 / np.maximum(m - np.sum(np.abs(signal.conj().T @ a) ** 2, axis=0), 1e-12)
    peaks, _ = find_peaks(spectrum)
    assert peaks.size >= d
    top = peaks[np.argsort(spectrum[peaks], kind="stable")[::-1][:d]]
    return spectrum, np.sort(grid[top])


class TestSsMusic:
    def test_population_single_source(self):
        z = analytic_virtual_vector(40, [12.34])
        est = ss_music(z, 1)
        assert abs(est.angles_deg[0] - 12.34) <= 0.01

    def test_population_broadside(self):
        z = analytic_virtual_vector(30, [0.0])
        est = ss_music(z, 1)
        assert abs(est.angles_deg[0]) <= 0.01

    def test_population_pair(self):
        z = analytic_virtual_vector(60, [-30.0, 30.0])
        est = ss_music(z, 2)
        assert np.all(np.abs(est.angles_deg - [-30.0, 30.0]) <= 0.01)

    def test_capacity_rule(self):
        z = analytic_virtual_vector(5, [0.0])
        with pytest.raises(CapacityExceededError):
            ss_music(z, 6)
        ss_music(z, 5)  # exactly Z sources is allowed

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

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_spatial_smoothing_reference(self, seed):
        rng = np.random.default_rng([2015, seed])
        d = int(rng.integers(1, 5))
        while True:
            angles = np.sort(rng.uniform(-70.0, 70.0, d))
            if np.all(np.diff(angles) >= 2.0):
                break
        big_z = int(rng.integers(max(d, 8), 41))
        # a source's cumulant may be negative: T then has a negative signal eigenvalue
        gammas = rng.uniform(0.5, 2.0, d) * rng.choice([-1.0, 1.0], d)
        z = analytic_virtual_vector(big_z, angles, gammas)
        z += symmetric_noise(rng, big_z, 0.01 * np.abs(z).max())
        est = ss_music(z, d, grid_step_deg=0.05, keep_spectrum=True)
        grid, spectrum = est.spectrum
        want_spectrum, want_angles = smoothing_music_reference(z, d, grid)
        # compare |En^H a|^2 = 1/spectrum: float64 gives it to about eps*m absolute,
        # so at a sharp peak the spectrum itself is only good to a few 1e-9 relative
        m = big_z + 1
        np.testing.assert_allclose(1 / spectrum, 1 / want_spectrum, rtol=0, atol=1e-12 * m)
        np.testing.assert_array_equal(est.angles_deg, want_angles)

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

    @pytest.mark.parametrize("step", [float("nan"), float("inf"), 0.0, -0.5])
    def test_bad_grid_step_rejected(self, step):
        z = analytic_virtual_vector(20, [5.0])
        with pytest.raises(InvalidParameterError):
            ss_music(z, 1, grid_step_deg=step)

    def test_grid_with_fewer_points_than_sources_rejected(self):
        # a 60-degree step leaves the interior points -30 and 30 only
        z = analytic_virtual_vector(20, [-30.0, 0.0, 30.0])
        assert ss_music(z, 2, grid_step_deg=60.0).angles_deg.tolist() == [-30.0, 30.0]
        with pytest.raises(InvalidParameterError):
            ss_music(z, 3, grid_step_deg=60.0)
        with pytest.raises(InvalidParameterError):
            ss_music(z, 1, grid_step_deg=500.0)  # no interior point at all

    def test_spectrum_returned_on_request(self):
        z = analytic_virtual_vector(20, [5.0])
        est = ss_music(z, 1, keep_spectrum=True)
        grid, spec = est.spectrum
        assert grid.shape == spec.shape
        assert grid[0] > -90 and grid[-1] < 90


class TestRmse:
    def test_perfect(self):
        assert rmse(np.array([[1.0, 2.0]]), [1.0, 2.0]) == 0

    def test_single_error(self):
        assert rmse(np.array([[1.0]]), [0.0]) == pytest.approx(1.0)

    def test_two_trials(self):
        est = np.array([[0.0], [2.0]])
        assert rmse(est, [0.0]) == pytest.approx(np.sqrt(2.0))

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


class TestMonteCarlo:
    def test_deterministic_across_threads(self, array9):
        scene = SourceScene(
            tuple(np.linspace(-50, 50, 4)), snr_db=0.0, snapshots=800, seed=21
        )
        runs = [
            monte_carlo(array9, scene, ("snr", [0.0, 6.0]), trials=3, threads=t)
            for t in (1, 4)
        ]
        for a, b in zip(*runs):
            assert np.array_equal(a.per_trial_estimates, b.per_trial_estimates)
            assert a.rmse_deg == b.rmse_deg

    def test_more_sources_than_sensors(self, array9):
        # 12 sources against 9 physical sensors still estimates
        scene = SourceScene(
            tuple(np.linspace(-60, 60, 12)), snr_db=10.0, snapshots=3000, seed=5
        )
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

    @pytest.mark.parametrize(
        "parameter, value",
        [("num_sources", 2.7), ("num_sources", -3), ("num_sources", 0),
         ("num_sources", float("nan")), ("snapshots", 400.5), ("snapshots", 0)],
    )
    def test_non_whole_count_sweep_value_rejected(self, array9, parameter, value):
        scene = SourceScene((-20.0, 20.0), snr_db=0.0, snapshots=64, seed=0)
        with pytest.raises(InvalidParameterError):
            monte_carlo(array9, scene, (parameter, [3, value]), trials=1)

    def test_whole_float_sweep_value_accepted(self, array9):
        scene = SourceScene((-60.0, 60.0), snr_db=10.0, snapshots=500, seed=2)
        stats = monte_carlo(array9, scene, ("num_sources", [3.0]), trials=1)
        assert stats[0].truth_deg.shape == (3,)

    def test_capacity_failure_aborts_point(self):
        tiny = build_ula(2)  # Z = 3
        scene = SourceScene((0.0, 10.0, 20.0, 30.0), snr_db=0.0, snapshots=64, seed=0)
        with pytest.raises(CapacityExceededError):
            monte_carlo(tiny, scene, None, trials=1)

    def test_bad_sweep_parameter(self, array9):
        scene = SourceScene((0.0,), snr_db=0.0, snapshots=64, seed=0)
        with pytest.raises(InvalidParameterError):
            monte_carlo(array9, scene, ("bandwidth", [1]), trials=1)

    def test_padded_trials_counted(self, array9, monkeypatch):
        scene = SourceScene((0.0, 30.0), snr_db=0.0, snapshots=400, seed=1)
        clean = monte_carlo(array9, scene, ("snr", [0.0, 6.0]), trials=3)
        assert [s.padded_trials for s in clean] == [0, 0]
        real = simulator.ss_music
        calls = []

        def pad_every_other(*args, **kwargs):
            calls.append(None)
            est = real(*args, **kwargs)
            return dataclasses.replace(est, peaks_padded=len(calls) % 2 == 1)

        monkeypatch.setattr(simulator, "ss_music", pad_every_other)
        lines = []
        padded = monte_carlo(
            array9, scene, ("snr", [0.0, 6.0]), trials=3, progress=lines.append
        )
        # calls 1, 3 | 5 are padded: trials 0 and 2 of point 0, trial 1 of point 1
        assert [s.padded_trials for s in padded] == [2, 1]
        assert "2/3 trials padded" in lines[0] and "1/3 trials padded" in lines[1]
        for a, b in zip(clean, padded):
            assert np.array_equal(a.per_trial_estimates, b.per_trial_estimates)
            assert a.rmse_deg == b.rmse_deg
