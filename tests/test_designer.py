import math

import pytest

from tosda import (
    InternalConsistencyError,
    UnsupportedSizeError,
    brute_force_split,
    build_generator,
    build_gtoa,
    dof_closed_form,
    dof_sweep,
    minimum_sensors,
    split_closed_form,
    to_eca,
)
from tosda.designer import continuous_optimum_n1, lambda_pair, round_half_up


class TestRounding:
    @pytest.mark.parametrize(
        "x,want", [(0.4, 0), (0.5, 1), (1.49, 1), (2.5, 3), (2.25, 2), (-0.5, 0)]
    )
    def test_round_half_up(self, x, want):
        assert round_half_up(x) == want


class TestClosedFormSplit:
    def test_cna8(self):
        p = split_closed_form("cna", 8)
        assert (p.N1, p.N2, p.M1, p.M2) == (5, 3, 1, 3)

    def test_scna8(self):
        p = split_closed_form("scna", 8)
        assert (p.N1, p.N2, p.M1, p.M2) == (5, 3, 1, 3)

    def test_tna2_8_continuous_optimum(self):
        # the relaxed optimum sits near 4.9, so five generator sensors
        assert continuous_optimum_n1("tna2", 8) == pytest.approx(4.897, abs=1e-3)
        p = split_closed_form("tna2", 8)
        assert (p.N1, p.N2) == (5, 3)

    def test_tna2_fallback_split_validates(self):
        # direct rounding gives (M1=3, M2=2), which is inconsistent; the
        # fallback must return a split whose generator actually builds
        p = split_closed_form("tna2", 8)
        gen = build_generator("tna2", p.M1, p.M2, p.J)
        assert gen.size == p.N1

    def test_below_minimum_names_minimum(self):
        minimum = minimum_sensors("cna")
        with pytest.raises(UnsupportedSizeError) as err:
            split_closed_form("cna", minimum - 1)
        assert err.value.minimum == minimum

    def test_minimums(self):
        assert minimum_sensors("cna") == 4
        assert minimum_sensors("scna") == 4
        assert minimum_sensors("tna2") == 3


class TestLambdaPair:
    def test_cna_values(self):
        p = split_closed_form("cna", 8)
        assert lambda_pair("cna", p) == (12, 18)

    def test_scna_values(self):
        p = split_closed_form("scna", 8)
        assert lambda_pair("scna", p) == (14, 21)

    def test_cna_m1_1_m2_1(self):
        p = split_closed_form("cna", 4)  # splits to M1=1, M2=1, N2=1
        assert (p.M1, p.M2) == (1, 1)
        assert lambda_pair("cna", p) == (4, 6)

    @pytest.mark.parametrize("m1", [1, 2, 3, 4])
    @pytest.mark.parametrize("m2", [1, 2, 3, 4])
    def test_cna_lambda1_matches_brute_force_sum_coarray(self, m1, m2):
        # the second-order sums of the generator must cover 0..lambda1
        g = set(build_generator("cna", m1, m2).positions)
        sums = {a + b for a in g for b in g}
        lam1 = 2 * (m1 - 1) + 2 * m2 * (m1 + 1)
        assert sums == set(range(lam1 + 1))


class TestDofClosedForm:
    def test_cna8(self):
        assert dof_closed_form("cna", split_closed_form("cna", 8)) == 187

    def test_scna8(self):
        assert dof_closed_form("scna", split_closed_form("scna", 8)) == 217

    def test_cna_minimal(self):
        p = split_closed_form("cna", 4)
        assert dof_closed_form("cna", p) == 31


class TestBruteForceSplit:
    def test_cna8_agrees(self):
        res = brute_force_split("cna", 8)
        assert res.dof_brute_force == 187
        assert res.agreement
        assert (res.params.N1, res.params.M1, res.params.M2) == (5, 1, 3)

    def test_scna8_agrees(self):
        res = brute_force_split("scna", 8)
        assert res.dof_brute_force == 217
        assert res.agreement

    def test_dof_is_realized_consecutive_count(self):
        res = brute_force_split("cna", 7)
        p = res.params
        gen = build_generator("cna", p.M1, p.M2)
        arr = build_gtoa(gen, p.delta1, p.delta2, p.N2)
        assert res.dof_brute_force == 2 * to_eca(arr).one_sided_z + 1

    def test_no_split_possible(self):
        with pytest.raises(UnsupportedSizeError):
            brute_force_split("cna", 3)

    def test_internal_error_is_not_an_infeasible_split(self, monkeypatch):
        from tosda import coarray

        def broken(array):
            raise InternalConsistencyError("corrupted co-array")

        monkeypatch.setattr(coarray, "to_eca", broken)
        with pytest.raises(InternalConsistencyError, match="corrupted"):
            brute_force_split("cna", 8)

    def test_closed_form_never_beats_brute_force(self):
        for variant in ("cna", "scna", "tna2"):
            for n in range(minimum_sensors(variant), 13):
                res = brute_force_split(variant, n)
                if res.dof_closed_form is not None and variant != "tna2":
                    assert res.dof_closed_form <= res.dof_brute_force

    def test_known_closed_form_suboptimality(self):
        # the printed split formulas miss the integer optimum at these
        # sizes; pinned so a change in either path gets noticed
        rows = dof_sweep(["cna", "scna"], range(4, 17))
        mismatched = {(r.variant, r.N) for r in rows if not r.agreement}
        assert mismatched == {
            ("cna", 10), ("cna", 11), ("cna", 16), ("scna", 5), ("scna", 7),
        }
        for r in rows:
            if not r.agreement:
                assert r.dof_closed < r.dof_brute

    def test_tna2_8_reports_disagreement(self):
        res = brute_force_split("tna2", 8)
        assert res.dof_brute_force == 2 * 90 + 1  # realized optimum
        assert not res.agreement


class TestInvariants:
    @pytest.mark.parametrize("m1", [1, 2, 3, 4])
    @pytest.mark.parametrize("m2", [1, 2, 3, 4])
    @pytest.mark.parametrize("n2", [1, 2, 3, 4])
    def test_cna_closed_form_equals_realized_everywhere(self, m1, m2, n2):
        from tosda.designer import _params_from_split

        n1 = 2 * m1 + m2
        params = _params_from_split("cna", n1 + n2, n1, m1, m2, None)
        gen = build_generator("cna", m1, m2)
        arr = build_gtoa(gen, params.delta1, params.delta2, n2)
        assert dof_closed_form("cna", params) == 2 * to_eca(arr).one_sided_z + 1

    @pytest.mark.parametrize("variant", ["cna", "scna", "tna2"])
    def test_monotone_in_n(self, variant):
        lo = minimum_sensors(variant)
        dofs = [brute_force_split(variant, n).dof_brute_force for n in range(lo, 17)]
        assert all(b >= a for a, b in zip(dofs, dofs[1:]))

    @pytest.mark.parametrize("n", range(4, 31))
    def test_stationarity_of_relaxed_objective(self, n):
        # the rounded generator size must maximize the relaxed cubic over
        # the integer neighborhood of the stationary point
        n1_star = continuous_optimum_n1("cna", n)
        p = split_closed_form("cna", n)
        assert abs(p.N1 - n1_star) <= 1

        def f1(x):
            return (
                -(x**3) + (n - 21 / 4) * x**2 + (6 * n + 19 / 2) * x
                - 17 / 4 - 5 * n
            )

        neighbors = range(math.floor(n1_star) - 1, math.ceil(n1_star) + 2)
        assert f1(p.N1) == max(f1(k) for k in neighbors)

    @pytest.mark.parametrize("variant", ["cna", "scna"])
    @pytest.mark.parametrize("n", [8, 9, 12])
    def test_lambda_formula_vs_realized_dof(self, variant, n):
        p = split_closed_form(variant, n)
        gen = build_generator(variant, p.M1, p.M2)
        arr = build_gtoa(gen, p.delta1, p.delta2, p.N2)
        assert 2 * to_eca(arr).one_sided_z + 1 == dof_closed_form(variant, p)
