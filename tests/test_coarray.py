import functools
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tosda import (
    InternalConsistencyError,
    InvalidParameterError,
    LagMultiset,
    SensorArray,
    build_to_sda,
    build_ula,
    consecutive_z,
    index_lag_map,
    second_order,
    to_eca,
    toca,
)
from tosda.coarray import brute_force_lag_multiset, report_from_multiset
from tosda.designer import minimum_sensors
from tosda.geometry import MAX_POSITION
from tosda.lagset import LagSet


SIGNS = {1: (1, 1, 1), 2: (1, 1, -1), 3: (-1, -1, 1), 4: (-1, -1, -1)}


def brute_report(lags):
    """Pure-Python (holes, Z, symmetric) of a set of integer lags."""
    present = set(lags)
    lo, hi = min(present), max(present)
    holes = tuple(v for v in range(lo, hi + 1) if v not in present)
    z = -1
    if 0 in present:
        z = 0
        while (z + 1) in present and -(z + 1) in present:
            z += 1
    return holes, z, all(-lag in present for lag in present)


def assert_matches_brute_report(rep):
    assert rep.phi_u == tuple(sorted(rep.weights.entries))
    assert (rep.holes, rep.one_sided_z, rep.symmetric) == brute_report(rep.phi_u)
    assert type(rep.one_sided_z) is int and type(rep.symmetric) is bool
    assert all(type(h) is int for h in rep.holes)


def random_array(rng, max_sensors=6, span=40):
    n = int(rng.integers(1, max_sensors + 1))
    pos = sorted(rng.choice(np.arange(span), size=n, replace=False).tolist())
    return SensorArray("r", tuple(v - pos[0] for v in pos))


def lag_set_state(lags):
    """Every field of a :class:`LagSet`, to tell that it did not change."""
    return tuple(getattr(lags, field) for field in LagSet.__slots__)


def positions_from_zero(top, max_size):
    """Sorted array positions: 0 and fewer than ``max_size`` more in 1..top."""
    return st.sets(st.integers(1, top), max_size=max_size - 1).map(lambda s: (0, *sorted(s)))


class TestLagMultiset:
    def test_total(self):
        w = LagMultiset({0: 2, 3: 1})
        assert w.total == 3
        assert w[0] == 2 and w[7] == 0

    def test_rejects_zero_count(self):
        with pytest.raises(InvalidParameterError):
            LagMultiset({0: 0})

    def test_dense_layout(self):
        w = LagMultiset({3: 1, -2: 4})
        assert w.lo == -2 and w.counts.tolist() == [4, 0, 0, 0, 0, 1]
        assert list(w.entries) == [-2, 3] and len(w) == 2
        assert 3 in w and 0 not in w and w[10] == 0
        assert repr(w) == "LagMultiset({-2: 4, 3: 1})"

    def test_read_only(self):
        w = LagMultiset.from_lags(np.array([1, 1, 2]))
        with pytest.raises(TypeError):
            w.entries[5] = 1
        with pytest.raises(ValueError):
            w.counts[0] = 9

    def test_empty(self):
        w = LagMultiset.from_lags(np.array([], dtype=np.int64))
        assert w == LagMultiset({})
        assert len(w) == 0 and w.total == 0 and repr(w) == "LagMultiset({})"

    @given(st.lists(st.integers(-50, 50), max_size=80))
    def test_from_lags_matches_counter(self, lags):
        w = LagMultiset.from_lags(np.array(lags, dtype=np.int64))
        counter = Counter(lags)
        assert w == LagMultiset(counter)
        assert w.entries == dict(sorted(counter.items()))
        assert list(w.entries) == sorted(counter)
        assert len(w) == len(counter) and w.total == len(lags)
        assert all(w[lag] == counter[lag] for lag in range(-52, 53))


class TestSecondOrder:
    def test_ula_dca_attains_lower_bound(self):
        rep = second_order(build_ula(3), "DCA")
        assert rep.phi_u == (-2, -1, 0, 1, 2)
        assert rep.size_u == 5

    def test_generator_sca_gapless(self):
        rep = second_order(SensorArray("g", (0, 1, 3, 5, 6)), "SCA")
        assert rep.phi_u == tuple(range(13))
        assert rep.holes == ()

    def test_holey_dca(self):
        rep = second_order(SensorArray("a", (0, 1, 4)), "DCA")
        assert rep.phi_u == (-4, -3, -1, 0, 1, 3, 4)
        assert rep.holes == (-2, 2)
        assert rep.one_sided_z == 1

    def test_weights_total(self):
        arr = SensorArray("a", (0, 2, 3, 9))
        for kind in ("dca", "sca"):
            assert second_order(arr, kind).weights.total == 16

    def test_bad_kind(self):
        with pytest.raises(InvalidParameterError):
            second_order(build_ula(2), "tca")

    def test_sca_without_lag_zero(self):
        # the SCA multiset of sensors at 1 and 2; an array always holds a
        # sensor at 0, so only a bare multiset can lack lag 0
        rep = report_from_multiset(LagMultiset({2: 1, 3: 2, 4: 1}))
        assert rep.phi_u == (2, 3, 4)
        assert rep.one_sided_z == -1
        assert_matches_brute_report(rep)

    def test_asymmetric_sca(self):
        rep = second_order(SensorArray("a", (0, 1, 5)), "sca")
        assert rep.holes == (3, 4, 7, 8, 9)
        assert rep.one_sided_z == 0
        assert not rep.symmetric
        assert_matches_brute_report(rep)

    def test_wrong_total_raises(self, monkeypatch):
        # three distinct lags pass the size bounds; total 3 != N^2 = 4
        wrong = classmethod(lambda cls, lags: cls({-1: 1, 0: 1, 1: 1}))
        monkeypatch.setattr(LagMultiset, "from_lags", wrong)
        with pytest.raises(InternalConsistencyError):
            second_order(build_ula(2), "dca")


class TestReportFromMultiset:
    @pytest.mark.parametrize("lag", [-3, 0, 7])
    def test_single_lag(self, lag):
        rep = report_from_multiset(LagMultiset({lag: 2}))
        assert rep.phi_u == (lag,)
        assert rep.holes == ()
        assert rep.one_sided_z == (0 if lag == 0 else -1)
        assert rep.symmetric == (lag == 0)
        assert_matches_brute_report(rep)

    @pytest.mark.parametrize(
        "lags",
        [(-5, -4, -2), (-2, -1, 0, 1, 2, 3), (-3, -1, 0, 1, 2), (-4, 0, 4), (-1, 1)],
    )
    def test_edge_cases(self, lags):
        rep = report_from_multiset(LagMultiset(dict.fromkeys(lags, 1)))
        assert_matches_brute_report(rep)

    @given(st.sets(st.integers(-30, 30), min_size=1))
    def test_random_lag_sets(self, lags):
        assert_matches_brute_report(report_from_multiset(LagMultiset(dict.fromkeys(lags, 1))))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_arrays(self, seed):
        rng = np.random.default_rng(300 + seed)
        arr = random_array(rng)
        for kind in ("dca", "sca"):
            assert_matches_brute_report(second_order(arr, kind))
        assert_matches_brute_report(to_eca(arr))


class TestToca:
    def test_ula2_case1(self):
        w = toca(build_ula(2), 1)
        assert w.entries == {0: 1, 1: 3, 2: 3, 3: 1}

    def test_case4_mirrors_case1(self):
        arr = SensorArray("a", (0, 2, 5))
        w1, w4 = toca(arr, 1), toca(arr, 4)
        assert w4.entries == {-lag: count for lag, count in w1.entries.items()}

    def test_case3_mirrors_case2(self):
        arr = SensorArray("a", (0, 1, 4, 9))
        w2, w3 = toca(arr, 2), toca(arr, 3)
        assert w3.entries == {-lag: count for lag, count in w2.entries.items()}

    def test_single_sensor(self):
        assert toca(SensorArray("a", (0,)), 2).entries == {0: 1}

    def test_bad_case(self):
        with pytest.raises(InvalidParameterError):
            toca(build_ula(2), 5)

    @pytest.mark.parametrize("case_j", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_pattern_count(self, case_j, seed):
        arr = random_array(np.random.default_rng(400 + seed))
        s1, s2, s3 = SIGNS[case_j]
        counts = {}
        for a, b, c in itertools.product(arr.positions, repeat=3):
            lag = s1 * a + s2 * b + s3 * c
            counts[lag] = counts.get(lag, 0) + 1
        assert toca(arr, case_j) == LagMultiset(counts)


class TestToEca:
    def test_ula3_golden(self):
        rep = to_eca(build_ula(3))
        assert rep.phi_u == tuple(range(-6, 7))
        assert rep.size_u == 13
        assert rep.one_sided_z == 6
        assert rep.holes == ()
        assert rep.symmetric

    def test_single_sensor(self):
        rep = to_eca(SensorArray("a", (0,)))
        assert rep.phi_u == (0,)
        assert rep.one_sided_z == 0

    def test_to_sda_cna8_consecutive_segment(self):
        arr, _ = build_to_sda("cna", 8)
        rep = to_eca(arr)
        assert rep.one_sided_z == 93
        # lags continue beyond the consecutive segment, with gaps
        assert rep.phi_u[-1] == 3 * 81
        assert len(rep.holes) > 0

    @pytest.mark.parametrize("n", range(1, 8))
    def test_total_multiplicity(self, n):
        assert to_eca(build_ula(n)).weights.total == 4 * n**3

    @pytest.mark.parametrize("seed", range(8))
    def test_symmetry_of_weights(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        rest = rng.choice(np.arange(1, 25), size=n - 1, replace=False)
        arr = SensorArray("r", tuple(sorted([0, *rest.tolist()])))
        w = to_eca(arr).weights
        for lag, count in w.entries.items():
            assert w[-lag] == count

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_pure_python_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 6))
        rest = rng.choice(np.arange(1, 30), size=n - 1, replace=False)
        positions = tuple(sorted([0, *rest.tolist()]))
        arr = SensorArray("r", positions)
        assert to_eca(arr).weights == brute_force_lag_multiset(positions)

    @given(positions_from_zero(60, 7))
    def test_property_matches_oracle(self, positions):
        rep = to_eca(SensorArray("h", positions))
        assert rep.weights == brute_force_lag_multiset(positions)
        assert rep.weights.total == 4 * len(positions) ** 3
        assert rep.symmetric

    @pytest.mark.parametrize("variant", ["cna", "scna", "tna2"])
    def test_matches_oracle_at_n36(self, variant):
        arr, _ = build_to_sda(variant, 36)
        assert to_eca(arr).weights == brute_force_lag_multiset(arr.positions)

    def test_report_json_shape(self):
        rep = to_eca(build_ula(2))
        blob = rep.to_json_dict()
        assert set(blob) == {"phi_u", "weights", "Z", "holes", "symmetric"}
        assert blob["Z"] == 3
        assert blob["weights"]["0"] == rep.weights[0]


class TestConsecutiveZ:
    # to_eca's report is the oracle: the bitsets must read the same Z
    @given(positions_from_zero(80, 9))
    @example((0,))
    @example((0, 2, 7))
    @example((0, 2, 6, 15))
    @example((0, 3, 5, 6))
    def test_matches_to_eca(self, positions):
        arr = SensorArray("h", positions)
        z = consecutive_z(arr)
        assert type(z) is int and z == to_eca(arr).one_sided_z

    @pytest.mark.parametrize("variant", ["cna", "scna", "tna2"])
    def test_matches_to_eca_on_every_to_sda(self, variant):
        for n in range(minimum_sensors(variant), 25):
            arr, _ = build_to_sda(variant, n)
            assert consecutive_z(arr) == to_eca(arr).one_sided_z, n


class TestLagSet:
    # to_eca's report is the oracle for every prefix, read as it is added
    @given(positions_from_zero(80, 9))
    @example((0,))
    @example((0, 4))
    @example((0, 3, 5, 6))
    def test_every_prefix_matches_to_eca(self, positions):
        lags = LagSet()
        assert (lags.top, lags.z) == (-1, -1)
        for i, v in enumerate(positions, 1):
            lags = lags.add(v)
            prefix = SensorArray("h", positions[:i])
            assert (lags.top, lags.z) == (v, to_eca(prefix).one_sided_z), positions[:i]

    @pytest.mark.parametrize("v", [5, 2, -1])
    def test_add_at_or_below_the_top_raises(self, v):
        lags = LagSet().add(0).add(2).add(5)
        with pytest.raises(InternalConsistencyError, match=f"sensor {v} added at or below"):
            lags.add(v)
        with pytest.raises(InternalConsistencyError):
            LagSet().add(v).add(0)

    def test_add_leaves_the_set_as_it_was(self):
        # the split search grows every tail from one shared generator set
        pair = LagSet().add(0).add(1)
        for v in (3, 4):
            grown = pair.add(v)
            assert (grown.top, grown.z) == (v, consecutive_z(SensorArray("h", (0, 1, v))))
            assert (pair.top, pair.z) == (1, 3)

    # the walk the split search reads Z from, started from any shared prefix
    @given(positions_from_zero(80, 9), st.integers(0, 8))
    @example((0,), 0)
    @example((0, 3, 5, 6), 2)
    def test_walk_matches_to_eca_and_the_add_fold(self, positions, start):
        start = min(start, len(positions))
        shared = functools.reduce(LagSet.add, positions[:start], LagSet())
        before = lag_set_state(shared)
        folded, zs = shared, shared.zs(positions[start:])
        assert len(zs) == len(positions) - start
        for i, z in enumerate(zs, start + 1):
            folded = folded.add(positions[i - 1])
            prefix = SensorArray("h", positions[:i])
            assert z == folded.z == to_eca(prefix).one_sided_z, positions[:i]
        assert lag_set_state(shared) == before

    # lambda1 is the run from 0 of SCA, -SCA and DCA together, lambda2 the
    # TO-ECA's Z
    @given(positions_from_zero(80, 9))
    @example((0,))
    @example((0, 2, 4))
    @example((0, 3, 7, 9, 10))
    def test_reaches_match_the_second_order_co_arrays(self, positions):
        arr = SensorArray("h", positions)
        lags = {*second_order(arr, "sca").phi_u, *second_order(arr, "dca").phi_u}
        lambda1 = brute_report(lags | {-lag for lag in lags})[1]
        assert LagSet().add(*positions).reaches == (lambda1, to_eca(arr).one_sided_z)
        assert LagSet().reaches == (-1, -1)

    # the last sensor of each run is the bad one
    @pytest.mark.parametrize("run,top", [
        ((5,), 5), ((2,), 5), ((-1,), 5), ((7, 6), 7), ((8, 9, 9), 9),
    ])
    def test_walk_at_or_below_the_top_raises(self, run, top):
        lags = LagSet().add(0).add(2).add(5)
        before = lag_set_state(lags)
        with pytest.raises(InternalConsistencyError,
                           match=f"sensor {run[-1]} added at or below the top sensor {top}$"):
            lags.zs(run)
        assert lag_set_state(lags) == before


class TestPositionCap:
    # a largest position past the cap is refused before anything is allocated
    # or any lag wraps round int64
    @pytest.mark.parametrize("top", [MAX_POSITION + 1, 2**62, 2**70],
                             ids=["cap+1", "2**62", "2**70"])
    @pytest.mark.parametrize(
        "build",
        [to_eca, lambda a: toca(a, 2), index_lag_map,
         lambda a: second_order(a, "dca"), lambda a: second_order(a, "sca"),
         consecutive_z],
        ids=["to_eca", "toca", "index_lag_map", "dca", "sca", "consecutive_z"],
    )
    def test_beyond_cap_rejected(self, build, top):
        with pytest.raises(InvalidParameterError, match=f"largest position {top} exceeds"):
            build(SensorArray("far", (0, 1, top)))


class TestIndexLagMap:
    def test_trivial_entries(self):
        # flat entry (j-1)*N^3 + N^2*i1 + N*i2 + i3 is [j-1, i1, i2, i3] in C order
        lags = index_lag_map(build_ula(2)).reshape(4, 2, 2, 2)
        assert lags[0, 0, 0, 0] == 0
        assert lags[0, 1, 1, 1] == 3
        assert lags[1, 1, 1, 0] == 2  # 1 + 1 - 0

    def test_size(self):
        arr = build_ula(3)
        assert index_lag_map(arr).shape == (4 * 27,)

    def test_histogram_reproduces_weights(self):
        arr = build_ula(3)
        lags = index_lag_map(arr)
        values, counts = np.unique(lags, return_counts=True)
        assert LagMultiset(dict(zip(values.tolist(), counts.tolist()))) == to_eca(arr).weights

    @given(positions_from_zero(60, 7))
    @example((0,))
    @example((0, 1, 17))
    def test_histogram_reproduces_to_eca_and_toca(self, positions):
        # to_eca and toca count lags without forming the map, so tie them to it
        arr = SensorArray("h", positions)
        lags = index_lag_map(arr)
        assert to_eca(arr).weights == LagMultiset.from_lags(lags)
        n3 = arr.size**3
        for j in range(1, 5):
            assert toca(arr, j) == LagMultiset.from_lags(lags[(j - 1) * n3 : j * n3])

    def test_explicit_loop_oracle(self):
        arr = SensorArray("a", (0, 1, 4))
        n = arr.size
        p = arr.positions
        lags = index_lag_map(arr)
        for j, (s1, s2, s3) in SIGNS.items():
            for i1, i2, i3 in itertools.product(range(n), repeat=3):
                want = s1 * p[i1] + s2 * p[i2] + s3 * p[i3]
                assert lags[(j - 1) * n**3 + n * n * i1 + n * i2 + i3] == want
