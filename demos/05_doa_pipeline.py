"""End-to-end DOA estimation: resolving 12 sources with 9 sensors.

The pipeline: skewed sources hit the array through unit-modulus phase
responses plus Gaussian noise; third-order cumulants of the snapshots
cancel the Gaussian part and populate a virtual array of consecutive
lags far larger than the physical aperture; co-array MUSIC on the
Hermitian Toeplitz matrix of that virtual array separates more sources
than there are sensors.  The Toeplitz matrix T gives the spatially smoothed
covariance T T^H / (Z+1) without forming it (Liu & Vaidyanathan, IEEE SPL
22(9), 2015).
"""

import numpy as np

from tosda import SourceScene, build_to_sda, consecutive_z, run_trial

arr, params = build_to_sda("cna", 9)
z = consecutive_z(arr)
print(f"array: {arr.name}, positions {list(arr.positions)}")
print(f"virtual array: Z={z} -> {2 * z + 1} consecutive lags (9 physical sensors)")

truth = np.linspace(-60.0, 60.0, 12)
scene = SourceScene(
    angles_deg=tuple(truth), snr_db=0.0, snapshots=12000, seed=2024
)
print(f"\nscene: {scene.n_sources} sources, {scene.snapshots} snapshots, "
      f"{scene.snr_db:+.0f} dB SNR")

est = run_trial(arr, scene, np.random.default_rng(2024))

print(f"\n{'truth':>10s} {'estimate':>10s} {'error':>9s}")
for t, e in zip(truth, est.angles_deg):
    print(f"{t:10.3f} {e:10.3f} {e - t:9.3f}")
rmse = float(np.sqrt(np.mean((est.angles_deg - truth) ** 2)))
print(f"\nrmse: {rmse:.4f} degrees (12 sources, 9 sensors)")

grid, spectrum = est.spectrum
top = np.argsort(spectrum)[-1]
print(f"spectrum peak value {spectrum[top]:.1f} at {grid[top]:+.2f} degrees; "
      f"{len(grid)} grid points at 0.01-degree spacing")
