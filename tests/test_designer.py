import itertools
import logging
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tosda import (
    DesignParams,
    GeometryInconsistencyError,
    InternalConsistencyError,
    InvalidParameterError,
    SensorArray,
    UnsupportedSizeError,
    brute_force_split,
    build_generator,
    build_gtoa,
    build_to_sda,
    consecutive_z,
    dof_closed_form,
    dof_sweep,
    minimum_sensors,
    split_closed_form,
    to_eca,
)
from tosda.designer import (
    _generator,
    _printed_reaches,
    _splits,
    continuous_optimum_n1,
    gtoa,
    gtoa_dof,
    round_half_up,
)
from tosda.geometry import generator_positions, gtoa_positions, split_sizes


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
        gen = build_generator("tna2", p.M1, p.M2)
        assert gen.size == p.N1

    @pytest.mark.parametrize(
        "n,want",
        [
            (5, (2, 1, 1, 0)), (8, (5, 2, 3, 2)),
            (11, (7, 3, 4, 3)), (38, (25, 12, 13, 12)),
        ],
    )
    def test_tna2_fallback_choices(self, n, want):
        # the printed rounding's generator is inconsistent at these N, so the
        # first ceil/floor candidate whose generator builds and reaches lag 1
        # is taken; at N=5 that passes over (1, 2), whose generator misses it
        p = split_closed_form("tna2", n)
        assert (p.N1, p.M1, p.M2, p.J) == want

    def test_tna2_12_generator_misses_lag_1(self):
        assert generator_positions("tna2", 1, 2) == (0, 2, 4)
        assert consecutive_z(build_generator("tna2", 1, 2)) == 0

    def test_tna2_first_feasible_candidate_is_the_best_realized_one(self):
        # where the printed candidate is inconsistent, the first feasible one
        # must be the best realized one: build every other consistent one at
        # N and rank by (-Z, N1, M1, M2), the exhaustive search's rule
        def roundings(x):
            return dict.fromkeys((round_half_up(x), math.ceil(x), math.floor(x)))

        fell_back = 0
        for n in range(3, 101):
            printed, *others = [
                (n1 - m2, m2) for n1 in roundings(continuous_optimum_n1("tna2", n))
                for m2 in roundings((2 * n1 - 1) / 4)
            ]
            p = split_closed_form("tna2", n)
            try:
                build_generator("tna2", *printed)
            except GeometryInconsistencyError:
                pass
            else:
                assert (p.M1, p.M2) == printed, n
                continue
            realized = []
            for m1, m2 in others:
                if m1 < 1 or m2 < 1 or split_sizes("tna2", m1, m2)[0] >= n:
                    continue
                try:
                    generator = build_generator("tna2", m1, m2)
                except GeometryInconsistencyError:
                    continue
                q = DesignParams("tna2", n, m1, m2)
                z = consecutive_z(build_gtoa(generator, q.delta1, q.delta2, q.N2))
                realized.append((-z, q.N1, m1, m2))
            assert (p.M1, p.M2) == min(realized)[2:], n
            fell_back += 1
        assert fell_back == 32  # every N = 2 (mod 3) from 5 to 98

    def test_closed_form_calls_no_search(self, monkeypatch):
        from tosda import designer, lagset

        expected = {(v, n): split_closed_form(v, n)
                    for v in ("cna", "scna", "tna2") for n in range(4, 41)}

        def refused(*args):
            raise AssertionError("the closed-form split ran a search")

        monkeypatch.setattr(designer, "_search", refused)
        monkeypatch.setattr(lagset, "check_cap", refused)
        minimum_sensors.cache_clear()
        _generator.cache_clear()
        for (variant, n), params in expected.items():
            assert split_closed_form(variant, n) == params

    def test_fallback_logged_once_and_only_by_split_closed_form(self, caplog):
        caplog.set_level(logging.WARNING, logger="tosda.designer")
        split_closed_form("tna2", 8)
        assert len(caplog.records) == 1
        assert caplog.records[0].getMessage().endswith(
            "N=8: the printed rounding gives no generator that reaches lag 1; "
            "took rounding candidate 1 (N1=5, M1=2, M2=3, J=2)")
        caplog.clear()
        minimum_sensors.cache_clear()
        assert minimum_sensors("tna2") == 3
        assert caplog.records == []
        brute_force_split("tna2", 8)
        assert caplog.records == []

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
        assert (p.lambda1, p.lambda2) == (12, 18)

    def test_scna_values(self):
        p = split_closed_form("scna", 8)
        assert (p.lambda1, p.lambda2) == (14, 21)

    def test_cna_m1_1_m2_1(self):
        p = split_closed_form("cna", 4)  # splits to M1=1, M2=1, N2=1
        assert (p.M1, p.M2) == (1, 1)
        assert (p.lambda1, p.lambda2) == (4, 6)

    @pytest.mark.parametrize("m1", [1, 2, 3, 4])
    @pytest.mark.parametrize("m2", [1, 2, 3, 4])
    def test_cna_lambda1_matches_brute_force_sum_coarray(self, m1, m2):
        # the second-order sums of the generator must cover 0..lambda1
        g = set(build_generator("cna", m1, m2).positions)
        sums = {a + b for a in g for b in g}
        lam1 = 2 * (m1 - 1) + 2 * m2 * (m1 + 1)
        assert sums == set(range(lam1 + 1))

    def test_measured_reaches_are_the_printed_ones_but_for_tna2(self):
        # every CNA and SCNA generator with M1, M2 < 20 measures its printed
        # (lambda1, lambda2); most TNA-II generators do not (N = 8's
        # (0, 3, 7, 9, 10) prints (20, 30) and measures (4, 30))
        for variant, generators, differ in (("cna", 361, 0), ("scna", 361, 0),
                                            ("tna2", 55, 47)):
            built = {
                split: _generator(variant, *split)
                for split in itertools.product(range(1, 20), repeat=2)
            }
            mismatched = [
                split for split, found in built.items() if found is not None
                and found[1].reaches != _printed_reaches(variant, *split)[0]
            ]
            assert sum(found is not None for found in built.values()) == generators
            assert len(mismatched) == differ, variant
        assert _generator("tna2", 2, 3)[1].reaches == (4, 30)


class TestGtoa:
    # the tail of the measured reaches tiles the co-array: the GTOA realizes
    # at least 2*(lambda2 + N2*delta2) + 1, unless its tail lands on the
    # generator, which raises
    @given(st.sets(st.integers(1, 30), max_size=5), st.integers(1, 4))
    @example(set(), 1)
    @example({2, 4}, 1)
    @example({1, 3, 5, 6}, 3)
    def test_tiling_bound(self, rest, n2):
        generator = SensorArray("g", (0, *sorted(rest)))
        try:
            array, (lambda1, lambda2) = gtoa(generator, generator.size + n2)
        except GeometryInconsistencyError:
            return
        assert set(generator.positions) < set(array.positions)
        assert 2 * consecutive_z(array) + 1 >= gtoa_dof(lambda1, lambda2, n2)

    @pytest.mark.parametrize("variant", ["cna", "scna"])
    def test_is_build_to_sda_on_closed_form_generators(self, variant):
        # the measured reaches of CNA and SCNA are the printed ones
        for n in range(minimum_sensors(variant), 25):
            array, params = build_to_sda(variant, n)
            generator = build_generator(variant, params.M1, params.M2)
            built, reaches = gtoa(generator, n)
            assert built.positions == array.positions, n
            assert reaches == (params.lambda1, params.lambda2)

    @pytest.mark.parametrize("n", [5, 4, 0])
    def test_needs_a_tail_sensor(self, n):
        with pytest.raises(InvalidParameterError, match=f"n must exceed the generator's 5 "
                                                         f"sensors, got {n}"):
            gtoa(SensorArray("g", (0, 1, 3, 5, 6)), n)

    def test_generator_past_the_cap_raises(self):
        with pytest.raises(InvalidParameterError, match="largest position"):
            gtoa(SensorArray("g", (0, 1, 2**24 + 1)), 4)


class TestDofClosedForm:
    def test_cna8(self):
        assert dof_closed_form(split_closed_form("cna", 8)) == 187

    def test_scna8(self):
        assert dof_closed_form(split_closed_form("scna", 8)) == 217

    def test_cna_minimal(self):
        p = split_closed_form("cna", 4)
        assert dof_closed_form(p) == 31

    def test_tna2_printed_count_is_the_gtoa_count_plus_its_surplus(self):
        # the printed TNA-II expressions, outside 9 <= N <= 14 and inside it
        def printed(p):
            core = p.M1 * (p.M2 + 1) + p.J
            if 9 <= p.N <= 14:
                return 2 * (5 + 4 * p.N2) * core - 6 * p.N2 - 5
            return 2 * ((4 * p.N2 + 1) * core + (p.N2 - 1)
                        + 4 * p.M1 * (p.M2 + 1) + 4 * p.J) + 1

        for m1, m2 in itertools.product(range(1, 25), repeat=2):
            n1 = split_sizes("tna2", m1, m2)[0]
            for n in range(n1 + 1, n1 + 20):
                p = DesignParams("tna2", n, m1, m2)
                assert dof_closed_form(p) == printed(p), (n, m1, m2)
        # N = 8's split (2, 3) has core 10: 345 = 307 + 2 * (2 * 10 - 1)
        p = DesignParams("tna2", 8, 2, 3)
        assert (dof_closed_form(p), gtoa_dof(p.lambda1, p.lambda2, p.N2)) == (345, 307)


class TestBruteForceSplit:
    def test_cna8_agrees(self):
        row = brute_force_split("cna", 8)
        assert row.dof_brute == 187
        assert row.agreement
        assert (row.N1, row.M1, row.M2) == (5, 1, 3)

    def test_scna8_agrees(self):
        row = brute_force_split("scna", 8)
        assert row.dof_brute == 217
        assert row.agreement

    def test_dof_is_realized_consecutive_count(self):
        row = brute_force_split("cna", 7)
        p = DesignParams("cna", 7, row.M1, row.M2)
        gen = build_generator("cna", p.M1, p.M2)
        arr = build_gtoa(gen, p.delta1, p.delta2, p.N2)
        assert row.dof_brute == 2 * to_eca(arr).one_sided_z + 1

    def test_is_the_sweep_at_one_n(self):
        for variant in ("cna", "scna", "tna2"):
            assert brute_force_split(variant, 8.0) == dof_sweep([variant], [8])[0]

    def test_no_split_possible(self):
        with pytest.raises(UnsupportedSizeError):
            brute_force_split("cna", 3)

    def test_internal_error_is_not_an_infeasible_split(self, monkeypatch):
        from tosda import geometry, lagset

        expected = {call: call("cna", 8) for call in (brute_force_split, split_closed_form)}

        def raising(error):
            def broken(*args):
                raise error
            return broken

        # both build their generators, and so each generator's lag set; only
        # the exhaustive search builds and walks tails, as the closed-form
        # split's printed tail always starts past its generator
        for module, name, replace, error, calls in [
            (lagset.LagSet, "add", raising, InternalConsistencyError("corrupted co-array"),
             [brute_force_split, split_closed_form]),
            (lagset.LagSet, "zs", raising,
             InternalConsistencyError("corrupted walk"), [brute_force_split]),
            (geometry, "gtoa_positions", raising, InvalidParameterError("broken tail"),
             [brute_force_split]),
            (geometry, "gtoa_positions", raising,
             GeometryInconsistencyError("broken tail"), [brute_force_split]),
            (geometry, "generator_positions", raising,
             InvalidParameterError("broken generator"),
             [brute_force_split, split_closed_form]),
        ]:
            broken = replace(error)
            with monkeypatch.context() as patch:
                patch.setattr(module, name, broken)
                for call in calls:
                    minimum_sensors.cache_clear()
                    _generator.cache_clear()
                    with pytest.raises(type(error)) as raised:
                        call("cna", 8)
                    assert raised.value is error, (name, call.__name__)
            # nothing was cached from the error
            for call in calls:
                assert call("cna", 8) == expected[call], (name, call.__name__)

    @pytest.mark.parametrize("variant", ["cna", "scna", "tna2"])
    def test_search_visits_every_split_with_a_tail(self, variant):
        for n in range(2, 41):
            assert list(_splits(variant, n)) == [
                (split_sizes(variant, m1, m2)[0], m1, m2)
                for m1, m2 in itertools.product(range(1, n), repeat=2)
                if split_sizes(variant, m1, m2)[0] < n
            ], (variant, n)

    @pytest.mark.parametrize("variant", ["cna", "scna", "tna2"])
    def test_search_matches_the_public_builders(self, variant):
        # every split built by build_generator and build_gtoa and read by
        # to_eca, where only the generator's inconsistency makes a split
        # infeasible, picked by the search's rule: the most consecutive lags, then
        # the smaller N1, then the smaller (M1, M2)
        for n in range(minimum_sensors(variant), 13):
            realized = []
            for m1, m2 in itertools.product(range(1, n), repeat=2):
                n1 = split_sizes(variant, m1, m2)[0]
                if n1 >= n:
                    continue
                try:
                    generator = build_generator(variant, m1, m2)
                except GeometryInconsistencyError:
                    continue
                p = DesignParams(variant, n, m1, m2)
                arr = build_gtoa(generator, p.delta1, p.delta2, p.N2)
                realized.append((-(2 * to_eca(arr).one_sided_z + 1), n1, m1, m2))
            lags, n1, m1, m2 = min(realized)
            row = brute_force_split(variant, n)
            assert (row.dof_brute, row.N1, row.M1, row.M2) == (-lags, n1, m1, m2), (variant, n)

    def test_closed_form_never_beats_brute_force(self):
        for variant in ("cna", "scna", "tna2"):
            for n in range(minimum_sensors(variant), 13):
                row = brute_force_split(variant, n)
                if row.dof_closed is not None and variant != "tna2":
                    assert row.dof_closed <= row.dof_brute

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

    @pytest.mark.parametrize("variant", ["cna", "scna", "tna2"])
    def test_sweep_walk_matches_the_single_n_search(self, variant):
        # the sweep reads every N off one walk of each split's tail; the
        # single-N search walks the tail to that N alone
        rows = dof_sweep([variant], range(4, 41))
        assert rows == [brute_force_split(variant, n) for n in range(4, 41)]

    def test_sweep_stores_whole_float_n_as_int(self):
        row = dof_sweep(["cna"], [8.0])[0]
        assert type(row.N) is int and row.N == 8
        assert row == dof_sweep(["cna"], [8])[0]

    def test_sweep_reads_an_iterator_for_every_variant(self):
        rows = dof_sweep(["cna", "scna"], iter([8, 9]))
        assert [(r.variant, r.N) for r in rows] == [
            ("cna", 8), ("cna", 9), ("scna", 8), ("scna", 9),
        ]
        assert rows == dof_sweep(["cna", "scna"], [8, 9])

    def test_tna2_8_reports_disagreement(self):
        row = brute_force_split("tna2", 8)
        assert row.dof_brute == 2 * 90 + 1  # realized optimum
        assert not row.agreement


class TestInvariants:
    @pytest.mark.parametrize("m1", [1, 2, 3, 4])
    @pytest.mark.parametrize("m2", [1, 2, 3, 4])
    @pytest.mark.parametrize("n2", [1, 2, 3, 4])
    def test_cna_closed_form_equals_realized_everywhere(self, m1, m2, n2):
        # positions by the integer rules build_to_sda and the search use
        n1 = 2 * m1 + m2
        params = DesignParams("cna", n1 + n2, m1, m2)
        assert (params.N1, params.J) == (n1, None)
        built = gtoa_positions(
            generator_positions("cna", m1, m2), params.delta1, params.delta2, n2
        )
        gen = build_generator("cna", m1, m2)
        arr = build_gtoa(gen, params.delta1, params.delta2, n2)
        assert built == arr.positions
        assert dof_closed_form(params) == 2 * to_eca(arr).one_sided_z + 1

    @pytest.mark.parametrize("variant", ["cna", "scna", "tna2"])
    def test_printed_tail_starts_past_the_generator(self, variant):
        # the closed-form split's feasibility check builds no tail: its
        # delta1 = lambda1 + lambda2 + 1 lies above the generator's top at
        # every N, inside TNA-II's short band (9 <= N <= 14) and outside it
        checked = 0
        for m1, m2 in itertools.product(range(1, 40), repeat=2):
            try:
                top = generator_positions(variant, m1, m2)[-1]
            except GeometryInconsistencyError:
                continue
            n1 = split_sizes(variant, m1, m2)[0]
            for n in {max(n1 + 1, 9), max(n1 + 1, 15)}:
                assert DesignParams(variant, n, m1, m2).delta1 > top, (m1, m2, n)
            checked += 1
        assert checked, variant

    @pytest.mark.parametrize("variant", ["cna", "scna", "tna2"])
    def test_monotone_in_n(self, variant):
        lo = minimum_sensors(variant)
        dofs = [brute_force_split(variant, n).dof_brute for n in range(lo, 17)]
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
        assert 2 * to_eca(arr).one_sided_z + 1 == dof_closed_form(p)
