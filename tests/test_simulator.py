import dataclasses
import itertools

import numpy as np
import pytest

from tosda import (
    CapacityExceededError,
    CouplingModel,
    InvalidParameterError,
    SensorArray,
    SourceScene,
    build_to_sda,
    build_ula,
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
        assert np.all(cum.values == 0)
        assert cum.values.shape == (4 * 8,)

    def test_single_sensor_case1_is_third_moment(self):
        arr = SensorArray("a", (0,))
        rng = np.random.default_rng(0)
        s = rng.exponential(1.0, 500) - 1.0
        cum = sample_third_cumulants(s[None, :].astype(complex), arr)
        centered = s - s.mean()
        assert cum.values[0] == pytest.approx(np.mean(centered**3))

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
                assert cum.values[idx] == pytest.approx(want, abs=1e-12)

    def test_conjugation_symmetry(self):
        arr = build_ula(2)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 30)) + 1j * rng.standard_normal((2, 30))
        cum = sample_third_cumulants(x, arr)
        n3 = 8
        case1, case2 = cum.values[:n3], cum.values[n3:2 * n3]
        case3, case4 = cum.values[2 * n3:3 * n3], cum.values[3 * n3:]
        assert np.array_equal(case3, case2.conj())
        assert np.array_equal(case4, case1.conj())

    def test_gaussian_noise_scale(self):
        # pure Gaussian input: entries shrink like 1/sqrt(K)
        arr = build_ula(2)
        rng = np.random.default_rng(123)
        k = 100_000
        x = (rng.standard_normal((2, k)) + 1j * rng.standard_normal((2, k))) / np.sqrt(2)
        cum = sample_third_cumulants(x, arr)
        assert np.max(np.abs(cum.values)) < 10 / np.sqrt(k)

    def test_gaussian_decay_rate(self):
        arr = build_ula(2)
        rng = np.random.default_rng(7)
        maxima = []
        for k in (10_000, 40_000):
            x = (rng.standard_normal((2, k)) + 1j * rng.standard_normal((2, k)))
            maxima.append(np.max(np.abs(sample_third_cumulants(x, arr).values)))
        ratio = maxima[0] / maxima[1]
        assert 1.0 <= ratio <= 3.0  # ~2 expected for a 4x snapshot increase

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            sample_third_cumulants(np.zeros((3, 10), dtype=complex), build_ula(2))


class TestVirtualArrayVector:
    def test_single_sensor(self):
        arr = SensorArray("a", (0,))
        x = np.full((1, 50), 2.0, dtype=complex)
        x[0, ::2] = -1.0  # non-trivial signal
        cum = sample_third_cumulants(x, arr)
        rep = to_eca(arr)
        z = virtual_array_vector(cum, rep)
        assert z.shape == (1,)
        assert z[0] == pytest.approx(np.mean(cum.values))

    def test_constructed_exponential_passes_through(self):
        arr, _ = build_to_sda("cna", 8)
        rep = to_eca(arr)
        cum = sample_third_cumulants(
            np.zeros((arr.size, 4), dtype=complex), arr
        )
        omega = 0.37
        cum.values = np.exp(1j * omega * cum.lag_map)
        z = virtual_array_vector(cum, rep)
        big_z = rep.one_sided_z
        lags = np.arange(-big_z, big_z + 1)
        assert np.allclose(z, np.exp(1j * omega * lags), atol=1e-12)

    def test_average_counts_equal_weights(self):
        arr, _ = build_to_sda("scna", 8)
        rep = to_eca(arr)
        lag_map = sample_third_cumulants(
            np.zeros((arr.size, 2), dtype=complex), arr
        ).lag_map
        big_z = rep.one_sided_z
        for lag in (-big_z, -3, 0, 5, big_z):
            assert np.sum(lag_map == lag) == rep.weights[lag]


class TestSsMusic:
    def test_population_single_source(self):
        z = analytic_virtual_vector(40, [12.34])
        est = ss_music(z, 1)
        assert abs(est.angles_deg[0] - 12.34) <= 0.01
        assert est.subarray_size == 41

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
        rng = np.random.default_rng(3)
        z = analytic_virtual_vector(30, [-10.0, 25.0])
        z += 0.01 * (rng.standard_normal(61) + 1j * rng.standard_normal(61))
        m = 31
        windows = np.lib.stride_tricks.sliding_window_view(z, m)
        r = windows.T @ windows.conj() / m
        assert np.allclose(r, r.conj().T, atol=1e-10 * np.abs(r).max())
        eigvals = np.linalg.eigvalsh((r + r.conj().T) / 2)
        assert eigvals.min() >= -1e-10 * eigvals.max()

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
