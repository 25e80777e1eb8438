import math

import numpy as np
import pytest

from tosda import (
    CouplingModel,
    InvalidParameterError,
    SensorArray,
    build_to_sda,
    build_ula,
    closed_form_redundancy,
    corollary_bounds,
    coupling_leakage,
    coupling_matrix,
    l3_bound,
    redundancy_toeca,
    size_bounds,
    z_closed_form,
)


class TestSizeBounds:
    @pytest.mark.parametrize(
        "n,want", [(1, (1, 3, 1)), (2, (7, 15, 7)), (3, (13, 45, 22))]
    )
    def test_known_values(self, n, want):
        assert size_bounds(n) == want

    @pytest.mark.parametrize("n", range(1, 200))
    def test_always_integral(self, n):
        lower, upper, kt = size_bounds(n)
        assert upper == (4 * n**3 + 3 * n**2 - n + 3) // 3
        assert kt == (4 * n**3 + 3 * n**2 - n) // 6
        assert lower <= upper

    def test_zero_rejected(self):
        with pytest.raises(InvalidParameterError):
            size_bounds(0)


class TestL3Bound:
    def test_n2_anchor(self):
        assert l3_bound(2) == pytest.approx(2.1214, abs=1e-3)

    def test_asymptote(self):
        assert l3_bound(10**6) == pytest.approx(4 * (1 + 2 / (3 * math.pi)), abs=1e-2)

    def test_monotone(self):
        values = [l3_bound(n) for n in range(2, 60)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_small_n_rejected(self):
        with pytest.raises(InvalidParameterError):
            l3_bound(1)


class TestRedundancyToeca:
    def test_ula3(self):
        rep = redundancy_toeca(build_ula(3))
        assert rep.Z == 6
        assert rep.k_tilde == 22
        assert rep.r_t == pytest.approx(22 / 6)
        assert not rep.infinite

    def test_cna8_is_exactly_four(self):
        arr, _ = build_to_sda("cna", 8)
        rep = redundancy_toeca(arr)
        assert rep.Z == 93
        assert rep.r_t == pytest.approx(372 / 93)
        assert rep.r_t == pytest.approx(4.0)

    def test_single_sensor_infinite(self):
        rep = redundancy_toeca(SensorArray("a", (0,)))
        assert rep.infinite
        assert rep.Z == 0
        assert rep.within_bounds  # vacuous at N=1

    # (2, 4, 9) and (4, 6, 10, 19) moved to the origin: measured from a point
    # with no sensor, the shifted forms would read Z = 17 and 35, below the
    # paper's bound, which is why SensorArray refuses them (tests/test_geometry.py)
    @pytest.mark.parametrize("positions", [(0, 2, 7), (0, 2, 6, 15)])
    def test_sensor_at_zero_layouts_have_z_zero(self, positions):
        rep = redundancy_toeca(SensorArray("a", positions))
        assert rep.Z == 0
        assert rep.r_t == math.inf and rep.infinite


class TestClosedFormRedundancy:
    def test_published_anchor_n2(self):
        assert closed_form_redundancy("cna", 2) == pytest.approx(7.0, abs=1e-9)

    def test_published_anchor_n3(self):
        assert closed_form_redundancy("cna", 3) == pytest.approx(2.4789, abs=1e-3)

    def test_limit_is_nine(self):
        assert closed_form_redundancy("cna", 10**6) == pytest.approx(9.0, abs=1e-2)

    def test_tracks_designer_dof_at_n8(self):
        # floor and round coincide at N=8, so the closed Z matches the DOF
        assert 2 * z_closed_form("cna", 8) + 1 == pytest.approx(187.0)

    def test_corollary_constants(self):
        assert corollary_bounds("cna") == (2.4789, 9.0)
        assert corollary_bounds("scna") == (2.200, 9.0)
        assert corollary_bounds("tna2") == (2.1477, 4.5)

    @pytest.mark.parametrize("n", range(4, 31))
    def test_tracks_dof_closed_form_within_rounding_gap(self, n):
        # the redundancy polynomial floors N1 while the split rounds it;
        # their DOF views must stay within a few percent of each other
        from tosda import dof_closed_form, split_closed_form

        dof = dof_closed_form(split_closed_form("cna", n))
        z2p1 = 2 * z_closed_form("cna", n) + 1
        assert abs(z2p1 - dof) / dof <= 0.05


class TestCouplingModel:
    def test_rejects_large_c1(self):
        with pytest.raises(InvalidParameterError):
            CouplingModel(c1_magnitude=1.0)

    @pytest.mark.parametrize("field", ["c1_phase", "decay_phase_step"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_phase(self, field, bad):
        with pytest.raises(InvalidParameterError, match="finite"):
            CouplingModel(**{field: bad})

    def test_coefficient_decay(self):
        model = CouplingModel()
        mags = [abs(model.coefficient(l)) for l in range(1, 12)]
        assert mags[0] == pytest.approx(0.3)
        assert all(b < a for a, b in zip(mags, mags[1:]))

    def test_band_cutoff(self):
        model = CouplingModel(band_limit=4)
        assert model.coefficient(5) == 0


class TestCouplingMatrix:
    def test_single_sensor_identity(self):
        c = coupling_matrix(SensorArray("a", (0,)))
        assert c.shape == (1, 1)
        assert c[0, 0] == 1

    def test_pair_off_diagonal(self):
        c = coupling_matrix(SensorArray("a", (0, 1)))
        assert c[0, 1] == pytest.approx(0.3 * np.exp(1j * np.pi / 3))
        assert c[1, 0] == c[0, 1]

    def test_band_zero_gives_identity(self):
        arr, _ = build_to_sda("cna", 8)
        c = coupling_matrix(arr, CouplingModel(band_limit=0))
        assert np.array_equal(c, np.eye(arr.size))

    def test_structure(self):
        arr, _ = build_to_sda("scna", 9)
        model = CouplingModel()
        c = coupling_matrix(arr, model)
        assert np.array_equal(c, c.T)
        assert np.array_equal(np.diag(c), np.ones(arr.size))
        p = np.asarray(arr.positions)
        dist = np.abs(p[:, None] - p[None, :])
        assert np.all(c[dist > model.band_limit] == 0)

    def test_coefficients_only_up_to_the_band(self, monkeypatch):
        calls, real = [], CouplingModel.coefficient
        monkeypatch.setattr(CouplingModel, "coefficient",
                            lambda self, distance: calls.append(distance) or real(self, distance))
        c = coupling_matrix(SensorArray("far", (0, 10**6)))
        assert calls == list(range(101))
        assert np.array_equal(c, np.eye(2))

    def test_positions_beyond_int64(self):
        near = coupling_matrix(SensorArray("a", (0, 1, 3, 104, 105)))
        far = coupling_matrix(SensorArray("a", (0, 1, 3, 2**70, 2**70 + 1)))
        assert np.array_equal(far, near)


class TestCouplingLeakage:
    def test_identity_is_zero(self):
        assert coupling_leakage(np.eye(4)) == 0

    def test_pair_value(self):
        # sqrt(2 * 0.09) / sqrt(2 + 2 * 0.09)
        c = coupling_matrix(SensorArray("a", (0, 1)))
        assert coupling_leakage(c) == pytest.approx(0.2873, abs=1e-3)

    def test_scale_invariant(self):
        arr, _ = build_to_sda("cna", 9)
        c = coupling_matrix(arr)
        assert coupling_leakage(c) == pytest.approx(
            coupling_leakage(c * (2.5 - 1j)), abs=1e-12
        )

    def test_zero_matrix_rejected(self):
        with pytest.raises(InvalidParameterError):
            coupling_leakage(np.zeros((3, 3)))
