import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tosda import (
    ArrayParseError,
    ArrayValidationError,
    DesignParams,
    GeometryInconsistencyError,
    InvalidParameterError,
    SensorArray,
    UnsupportedSizeError,
    build_generator,
    build_gtoa,
    build_to_sda,
    build_ula,
    load_array,
    normalize_variant,
    save_array,
)
from tosda import geometry
from tosda.geometry import MAX_POSITION, gtoa_positions, irange, split_sizes
from tosda.lagset import LagSet


OFFSET_LAYOUTS = [(2, 4, 9), (4, 6, 10, 19)]


def tna2_segments_at_pitch_m2(variant, m1, m2, j):
    """TNA-II's generator segments as ``geometry._generator_segments`` lists
    them, but with the first segment at pitch M2 + 1, the other reading of
    the printed layout."""
    assert variant == "tna2"
    spans = geometry._generator_segments(variant, m1, m2, j)
    return [irange(0, (m1 - 1) * (m2 + 1), m2 + 1), *spans[1:]]


class TestUla:
    def test_basic(self):
        assert build_ula(3).positions == (0, 1, 2)

    def test_single_sensor(self):
        assert build_ula(1).positions == (0,)

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            build_ula(0)


class TestSensorArray:
    def test_rejects_unsorted(self):
        with pytest.raises(InvalidParameterError):
            SensorArray("bad", (3, 1, 0))

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidParameterError):
            SensorArray("bad", (0, 0, 1))

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            SensorArray("bad", (-1, 0, 1))

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            SensorArray("bad", ())

    # layouts whose shift to 0 reads Z = 0 (see tests/test_metrics.py): off the
    # origin, lags measured from a point with no sensor would read Z = 17 and 35
    @pytest.mark.parametrize("positions", OFFSET_LAYOUTS)
    def test_rejects_first_sensor_off_zero(self, positions):
        with pytest.raises(InvalidParameterError, match="must start with a sensor at 0"):
            SensorArray("bad", positions)

    def test_aperture(self):
        assert SensorArray("a", (0, 2, 9)).aperture == 9


class TestIrange:
    def test_inclusive(self):
        assert list(irange(1, 5, 2)) == [1, 3, 5]
        # lazy: the last element of a progression too long to list
        assert irange(0, 10**100, 3)[-1] == 10**100 - 1

    def test_empty_when_start_exceeds_stop(self):
        assert list(irange(9, 8)) == []


class TestGenerators:
    # expected sets enumerated by hand from the segment definitions
    @pytest.mark.parametrize(
        "variant,m1,m2,expected",
        [
            ("cna", 1, 3, (0, 1, 3, 5, 6)),
            ("cna", 2, 2, (0, 1, 2, 5, 6, 7)),
            ("scna", 1, 3, (0, 2, 4, 6, 7)),
            ("scna", 2, 1, (0, 2, 3, 4, 5)),
        ],
    )
    def test_known_layouts(self, variant, m1, m2, expected):
        assert build_generator(variant, m1, m2).positions == expected

    @pytest.mark.parametrize(
        "variant,m1,m2,sizes",
        [("cna", 1, 3, (5, None)), ("scna", 2, 1, (5, None)),
         ("tna2", 2, 2, (4, 1)), ("tna2", 2, 3, (5, 2)), ("tna2", 3, 3, (6, 2))],
    )
    def test_split_sizes(self, variant, m1, m2, sizes):
        assert split_sizes(variant, m1, m2) == sizes

    def test_tna2_known_layout(self):
        # N1=5 only validates with the swapped role split (M1=2, M2=3)
        assert build_generator("tna2", 2, 3).positions == (0, 3, 7, 9, 10)
        assert build_generator("tna2", 3, 3).positions == (0, 4, 8, 11, 13, 14)

    def test_tna2_inconsistent_split_rejected(self):
        # the middle segment collapses to empty and cardinality drops to 4
        with pytest.raises(GeometryInconsistencyError, match=re.escape(
                "has 4 sensors, expected 5; segments [[0, 4], [], [10, 11]]")):
            build_generator("tna2", 3, 2)

    def test_only_a_tna2_first_segment_makes_a_generator_inconsistent(self):
        # the segments never overlap; a split is inconsistent exactly when
        # TNA-II's first segment, at pitch M1 + 1, holds other than M1 sensors
        splits = list(itertools.product(range(1, 30), repeat=2))
        inconsistent = {variant: [] for variant in ("cna", "scna", "tna2")}
        for variant in inconsistent:
            for m1, m2 in splits:
                spans = geometry._generator_segments(
                    variant, m1, m2, split_sizes(variant, m1, m2)[1])
                assert len({p for span in spans for p in span}) == sum(map(len, spans))
                try:
                    build_generator(variant, m1, m2)
                    consistent = True
                except GeometryInconsistencyError:
                    consistent = False
                    inconsistent[variant].append(spans)
                if variant == "tna2":
                    assert consistent == (len(spans[0]) == m1), (m1, m2)
        assert inconsistent["cna"] == inconsistent["scna"] == []
        assert (len(splits), len(inconsistent["tna2"])) == (841, 756)
        assert sum(1 for spans in inconsistent["tna2"] if spans[1]) == 350
        assert list(geometry._generator_segments("tna2", 2, 5, 2)[0]) == [0, 3, 6]
        # The printed layout also reads as pitch M2 + 1, whose first segment,
        # M1 - 1 steps up to its end (M1 - 1)(M2 + 1), always holds M1
        # sensors; then only an empty middle segment makes a split
        # inconsistent, and more consistent splits reach the printed
        # lambda2 = 3 core.  The readings agree when M1 = M2.
        readings = {"M1 + 1": geometry._generator_segments, "M2 + 1": tna2_segments_at_pitch_m2}
        counts = {}
        for reading, segments in readings.items():
            failing, consistent, printed_lambda2 = [], 0, 0
            for m1, m2 in splits:
                n1, j = split_sizes("tna2", m1, m2)
                spans = segments("tna2", m1, m2, j)
                positions = sorted({p for span in spans for p in span})
                assert len(positions) == sum(map(len, spans))
                if len(positions) != n1:
                    failing.append(spans)
                    continue
                consistent += 1
                core = m1 * (m2 + 1) + j
                printed_lambda2 += LagSet().add(*positions).reaches[1] == 3 * core
            counts[reading] = (len(failing), sum(1 for spans in failing if spans[1]),
                               consistent, printed_lambda2)
        assert all(len(tna2_segments_at_pitch_m2("tna2", m1, m2, 0)[0]) == m1
                   for m1, m2 in splits)
        assert counts == {"M1 + 1": (756, 350, 85, 81), "M2 + 1": (351, 0, 490, 482)}
        for m in range(1, 30):
            j = split_sizes("tna2", m, m)[1]
            assert (geometry._generator_segments("tna2", m, m, j)
                    == tna2_segments_at_pitch_m2("tna2", m, m, j))

    @pytest.mark.parametrize("variant", ["cna", "scna"])
    @pytest.mark.parametrize("m1", [1, 2, 3, 4])
    @pytest.mark.parametrize("m2", [1, 2, 3, 4])
    def test_cardinality(self, variant, m1, m2):
        assert build_generator(variant, m1, m2).size == 2 * m1 + m2

    def test_bad_m_rejected(self):
        with pytest.raises(InvalidParameterError):
            build_generator("cna", 0, 3)


class TestGtoa:
    def test_known_composition(self):
        gen = build_generator("cna", 1, 3)
        arr = build_gtoa(gen, 31, 25, 3)
        assert arr.positions == (0, 1, 3, 5, 6, 31, 56, 81)

    def test_degenerates_to_ula(self):
        gen = SensorArray("g", (0,))
        assert build_gtoa(gen, 1, 1, 2).positions == (0, 1, 2)

    def test_overlap_rejected(self):
        gen = SensorArray("g", (0, 1))
        with pytest.raises(GeometryInconsistencyError):
            build_gtoa(gen, 1, 1, 1)

    # every TO-SDA's tail starts above its generator
    @given(st.sets(st.integers(0, 60), min_size=1, max_size=8), st.integers(1, 40),
           st.integers(1, 30), st.integers(1, 6))
    def test_tail_above_the_generator_is_the_sorted_union(self, generator, gap, delta2, n2):
        generator = tuple(sorted(generator))
        delta1 = generator[-1] + gap
        tail = {delta1 + delta2 * k for k in range(n2)}
        assert gtoa_positions(generator, delta1, delta2, n2) == tuple(sorted({*generator, *tail}))

    @given(st.sets(st.integers(0, 60), min_size=1, max_size=8), st.integers(0, 60),
           st.integers(1, 30), st.integers(1, 6))
    @example({0, 2, 4}, 1, 2, 2)  # interleaves: (0, 1, 2, 3, 4)
    @example({0, 1, 3}, 1, 2, 2)  # overlaps at 1 and 3
    def test_tail_from_within_the_generator(self, generator, delta1, delta2, n2):
        generator = tuple(sorted(generator))
        delta1 = min(delta1, generator[-1])
        tail = {delta1 + delta2 * k for k in range(n2)}
        overlap = sorted(tail.intersection(generator))
        if overlap:
            with pytest.raises(GeometryInconsistencyError,
                               match=re.escape(f"overlap at positions {overlap}")):
                gtoa_positions(generator, delta1, delta2, n2)
        else:
            assert gtoa_positions(generator, delta1, delta2, n2) == tuple(
                sorted({*generator, *tail}))

    def test_self_collapsing_tail_rejected(self):
        gen = SensorArray("g", (0,))
        with pytest.raises(GeometryInconsistencyError):
            build_gtoa(gen, 5, 0, 2)

    def test_cardinality(self):
        gen = build_generator("scna", 2, 2)
        arr = build_gtoa(gen, 100, 7, 4)
        assert arr.size == gen.size + 4


class TestToSda:
    def test_cna8_golden(self):
        arr, params = build_to_sda("cna", 8)
        assert arr.name == "TO-SDA(CNA) N=8"
        # a whole float or numpy int builds and names the array as the int does
        assert build_to_sda("cna", 8.0) == build_to_sda("cna", np.int64(8)) == (arr, params)
        assert arr.positions == (0, 1, 3, 5, 6, 31, 56, 81)
        assert (params.N1, params.N2, params.M1, params.M2) == (5, 3, 1, 3)
        assert (params.lambda1, params.lambda2) == (12, 18)
        assert (params.delta1, params.delta2) == (31, 25)

    def test_scna8(self):
        arr, params = build_to_sda("scna", 8)
        assert arr.size == 8
        assert (params.N1, params.N2) == (5, 3)

    @pytest.mark.parametrize("variant", ["cna", "scna", "tna2"])
    @pytest.mark.parametrize("n", [6, 8, 9, 12])
    def test_size_and_origin(self, variant, n):
        arr, params = build_to_sda(variant, n)
        assert arr.size == n
        assert arr.positions[0] == 0
        assert params.N == params.N1 + params.N2 == n

    @pytest.mark.parametrize("variant, m1, m2, top", [
        ("cna", 166, 334, 74796125), ("scna", 166, 334, 74797462),
        ("tna2", 333, 333, 149148032)])
    def test_builds_past_the_coarray_cap(self, variant, m1, m2, top):
        # listing positions beyond MAX_POSITION costs one entry per sensor;
        # only the co-array functions refuse such an array
        arr, params = build_to_sda(variant, 1000)
        assert (params.M1, params.M2) == (m1, m2)
        assert arr.size == len(set(arr.positions)) == 1000
        assert arr.positions[-1] == top > MAX_POSITION
        tail = build_gtoa(build_generator("cna", 1, 3), MAX_POSITION + 1, 25, 3)
        assert tail.positions[-3:] == (MAX_POSITION + 1, MAX_POSITION + 26, MAX_POSITION + 51)

    def test_below_minimum(self):
        with pytest.raises(UnsupportedSizeError) as err:
            build_to_sda("cna", 3)
        assert err.value.minimum is not None
        assert err.value.minimum > 3

    def test_variant_aliases(self):
        assert normalize_variant("TNA-II") == "tna2"
        assert normalize_variant("CNA") == "cna"
        with pytest.raises(InvalidParameterError):
            normalize_variant("nested")


class TestDesignParams:
    def test_rejects_mismatched_total(self):
        with pytest.raises(InvalidParameterError, match="N2 must be >= 1"):
            DesignParams("cna", 5, 1, 3)


class TestArrayFiles:
    def test_round_trip(self, tmp_path):
        arr = build_ula(5)
        path = tmp_path / "a.json"
        save_array(arr, path)
        back = load_array(path)
        assert back.positions == arr.positions
        assert back.name == arr.name
        assert json.loads(path.read_text())["unit_spacing_wavelengths"] == 0.5

    def test_sorts_positions(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"name": "x", "positions": [3, 1, 0]}))
        assert load_array(path).positions == (0, 1, 3)

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"name": "x", "positions": [0, 0, 1]}))
        with pytest.raises(ArrayValidationError):
            load_array(path)

    def test_negative_rejected(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"name": "x", "positions": [-2, 0, 1]}))
        with pytest.raises(ArrayValidationError):
            load_array(path)

    @pytest.mark.parametrize("positions", OFFSET_LAYOUTS)
    def test_first_sensor_off_zero_rejected(self, tmp_path, positions):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"name": "x", "positions": list(positions)}))
        with pytest.raises(ArrayValidationError, match="must start with a sensor at 0"):
            load_array(path)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text("{not json")
        with pytest.raises(ArrayParseError):
            load_array(path)

    @pytest.mark.parametrize("blob", [{"name": "x"}, [0, 1]], ids=["no-positions", "list"])
    def test_object_without_positions_rejected(self, tmp_path, blob):
        path = tmp_path / "a.json"
        path.write_text(json.dumps(blob))
        with pytest.raises(ArrayParseError, match="expected an object with a 'positions' key"):
            load_array(path)

    def test_empty_positions_rejected(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"name": "x", "positions": []}))
        with pytest.raises(ArrayParseError):
            load_array(path)
