"""Exact integer lag algebra for second- and third-order co-arrays.

Everything here works on exact integers so that gap analysis is never
confused by floating point.  The third-order exhaustive co-array
(TO-ECA) of an array with positions ``p`` is the multiset union of the
four conjugation-pattern co-arrays

    case 1:  p[i] + p[j] + p[k]        case 2:  p[i] + p[j] - p[k]
    case 3: -p[i] - p[j] + p[k]        case 4: -p[i] - p[j] - p[k]

over all ordered triples, 4*N^3 entries in total.  The multisets here
are numpy count vectors, so importing this module loads numpy.  Where only
the consecutive segment matters, :mod:`tosda.lagset` reads Z without numpy;
the multisets here are the oracle of its results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .errors import InternalConsistencyError, InvalidParameterError
from .geometry import SensorArray
from .lagset import check_cap

_CASE_SIGNS = {1: (1, 1, 1), 2: (1, 1, -1), 3: (-1, -1, 1), 4: (-1, -1, -1)}


class LagMultiset:
    """Integer lags with positive multiplicities, as one dense count vector.

    ``counts[i]`` is the multiplicity of lag ``lo + i``.  Both ends of
    ``counts`` are non-zero, so the vector spans exactly [min lag, max lag]
    and two equal multisets have equal ``lo`` and ``counts``.
    """

    __slots__ = ("lo", "counts")

    def __init__(self, entries: Mapping[int, int]):
        if any(m < 1 for m in entries.values()):
            raise InvalidParameterError("multiplicities must be >= 1")
        lags = np.array(list(entries), dtype=np.int64)
        lo, hi = (int(lags.min()), int(lags.max())) if len(lags) else (0, -1)
        counts = np.zeros(hi - lo + 1, dtype=np.int64)
        counts[lags - lo] = list(entries.values())
        self._set(lo, counts)

    @classmethod
    def from_lags(cls, lags: np.ndarray) -> "LagMultiset":
        lags = np.asarray(lags, dtype=np.int64).ravel()
        lo = int(lags.min()) if len(lags) else 0
        weights = cls.__new__(cls)
        weights._set(lo, np.bincount(lags - lo))
        return weights

    @classmethod
    def _from_counts(cls, lo: int, counts: np.ndarray) -> "LagMultiset":
        """``counts[i]`` copies of lag ``lo + i``; zero ends are trimmed."""
        present = np.flatnonzero(counts)
        weights = cls.__new__(cls)
        weights._set(lo + int(present[0]), counts[present[0] : present[-1] + 1])
        return weights

    def _set(self, lo: int, counts: np.ndarray) -> None:
        self.lo = lo
        self.counts = counts
        counts.flags.writeable = False

    @property
    def entries(self) -> Mapping[int, int]:
        """Read-only ``{lag: multiplicity}`` view in increasing lag order."""
        present = np.flatnonzero(self.counts)
        return MappingProxyType(
            dict(zip((present + self.lo).tolist(), self.counts[present].tolist()))
        )

    def __getitem__(self, lag: int) -> int:
        i = int(lag) - self.lo
        return int(self.counts[i]) if 0 <= i < len(self.counts) else 0

    def __contains__(self, lag: int) -> bool:
        return self[lag] > 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LagMultiset)
            and self.lo == other.lo
            and np.array_equal(self.counts, other.counts)
        )

    def __len__(self) -> int:
        return int(np.count_nonzero(self.counts))

    def __repr__(self) -> str:
        return f"LagMultiset({dict(self.entries)!r})"

    @property
    def total(self) -> int:
        """Total multiplicity; equals the number of generating tuples."""
        return int(self.counts.sum())


@dataclass(frozen=True)
class CoarrayReport:
    """Distinct lags of a virtual co-array plus derived gap analysis.

    ``one_sided_z`` is the largest Z with [-Z, Z] fully contained in the
    lag set.  Every co-array of a :class:`SensorArray` holds lag 0, from its
    sensor at 0, so its Z is at least 0; -1 is left for a bare multiset
    without lag 0 (:func:`report_from_multiset`).  ``holes`` lists the lags
    missing inside [min, max].  A co-array may have a long consecutive
    central segment and still show holes further out, so the usable
    virtual ULA is [-Z, Z], not [min, max].
    """

    weights: LagMultiset
    one_sided_z: int
    symmetric: bool

    @property
    def phi_u(self) -> tuple[int, ...]:
        return tuple(self.weights.entries)

    @property
    def size_u(self) -> int:
        return len(self.weights)

    @property
    def holes(self) -> tuple[int, ...]:
        absent = np.flatnonzero(self.weights.counts == 0) + self.weights.lo
        return tuple(absent.tolist())

    def to_json_dict(self) -> dict:
        return {
            "phi_u": list(self.phi_u),
            "weights": {str(lag): count for lag, count in self.weights.entries.items()},
            "Z": self.one_sided_z,
            "holes": list(self.holes),
            "symmetric": self.symmetric,
        }


def report_from_multiset(weights: LagMultiset) -> CoarrayReport:
    """Derive the gap/segment analysis of a lag multiset."""
    present = weights.counts > 0
    lo = weights.lo
    hi = lo + len(present) - 1
    holes = np.flatnonzero(~present) + lo
    # [-Z, Z] ends at the nearer end of [lo, hi] or just short of the hole
    # closest to 0; it is empty (Z = -1) when 0 is missing or outside
    nearest_hole = int(np.abs(holes).min(initial=hi + 1))
    z = max(-1, min(hi, -lo, nearest_hole - 1))
    return CoarrayReport(
        weights=weights,
        one_sided_z=z,
        symmetric=lo == -hi and bool(np.array_equal(present, present[::-1])),
    )


def _positions(array: SensorArray) -> np.ndarray:
    """``array``'s positions as int64, once the largest is within MAX_POSITION."""
    check_cap(array.positions, array.name)
    return np.asarray(array.positions, dtype=np.int64)


def second_order(array: SensorArray, kind: str) -> CoarrayReport:
    """Second-order difference (DCA) or sum (SCA) co-array with weights."""
    kind = str(kind).strip().lower()
    if kind not in ("dca", "sca"):
        raise InvalidParameterError(f"kind must be 'DCA' or 'SCA', got {kind!r}")
    p = _positions(array)
    n = array.size
    if kind == "dca":
        lags = p[:, None] - p[None, :]
    else:
        lags = p[:, None] + p[None, :]
    weights = LagMultiset.from_lags(lags)
    # size bounds that hold for every physical array
    most = n * n - n + 1 if kind == "dca" else n * n + n + 1
    if not 2 * n - 1 <= len(weights) <= most or weights.total != n * n:
        raise InternalConsistencyError(
            f"{kind.upper()} of {n} sensors has {len(weights)} distinct lags "
            f"(bounds {2 * n - 1}..{most}) and multiplicity {weights.total} "
            f"(want N^2 = {n * n})"
        )
    return report_from_multiset(weights)


def _pattern_histograms(array: SensorArray) -> tuple[int, np.ndarray, np.ndarray]:
    """``(top, case1, case2)``: lag counts of patterns 1 and 2 on [0, 3*top].

    ``top`` is the largest position; ``case1[l]`` counts lag l and
    ``case2[l]`` lag l - top.  Patterns 4 and 3 are their mirrors.
    """
    p = _positions(array)
    top = int(p[-1])
    pairs = (p[:, None] + p).ravel()
    # both reach 3*top: case 1 with all three sensors at top, case 2 with two
    # at top less the sensor at 0
    case1 = np.bincount((pairs[:, None] + p).ravel())
    case2 = np.bincount((pairs[:, None] - p + top).ravel())
    return top, case1, case2


def toca(array: SensorArray, case_j: int) -> LagMultiset:
    """Third-order co-array of one conjugation pattern over N^3 triples."""
    if case_j not in _CASE_SIGNS:
        raise InvalidParameterError(f"case_j must be in 1..4, got {case_j}")
    top, case1, case2 = _pattern_histograms(array)
    lo, counts = {
        1: (0, case1),
        2: (-top, case2),
        3: (-2 * top, case2[::-1]),
        4: (-3 * top, case1[::-1]),
    }[case_j]
    return LagMultiset._from_counts(lo, counts)


def to_eca(array: SensorArray) -> CoarrayReport:
    """Third-order exhaustive co-array: all four patterns combined.

    The result is symmetric about lag 0 (patterns 1/4 and 2/3 mirror
    each other) and carries total multiplicity 4*N^3.  The counts are the
    histogram of :func:`index_lag_map`, built from the histograms of
    patterns 1 and 2 and their reversals without forming the map.
    """
    top, case1, case2 = _pattern_histograms(array)
    # index i of counts is lag i - 3*top
    counts = np.zeros(6 * top + 1, dtype=np.int64)
    counts[3 * top :] += case1
    counts[: 3 * top + 1] += case1[::-1]
    counts[2 * top : 5 * top + 1] += case2
    counts[top : 4 * top + 1] += case2[::-1]
    weights = LagMultiset._from_counts(-3 * top, counts)
    n = array.size
    if weights.total != 4 * n**3:
        raise InternalConsistencyError(
            f"TO-ECA multiplicity {weights.total} != 4*N^3 = {4 * n**3}"
        )
    report = report_from_multiset(weights)
    if not report.symmetric:
        raise InternalConsistencyError("TO-ECA must be symmetric about lag 0")
    return report


def index_lag_map(array: SensorArray) -> np.ndarray:
    """Lag of every entry of the stacked third-order cumulant vector.

    Entry order matches :func:`tosda.simulator.sample_third_cumulants`:
    the (i1, i2, i3) tensor of case j is flattened in C order and the
    four cases are concatenated, so the 0-based flat index is
    ``(j-1)*N^3 + N^2*i1 + N*i2 + i3``.  Cases 3 and 4 negate cases 2
    and 1.
    """
    p = _positions(array)
    pairs = p[:, None, None] + p[None, :, None]
    case1 = (pairs + p[None, None, :]).ravel()
    case2 = (pairs - p[None, None, :]).ravel()
    return np.concatenate([case1, case2, -case2, -case1])


def brute_force_lag_multiset(positions: Iterable[int]) -> LagMultiset:
    """Independent O(4*N^3) python-loop oracle for :func:`to_eca` weights.

    Kept deliberately free of numpy so tests can cross-check the
    vectorized path against straight enumeration.
    """
    pos = list(positions)
    counts: dict[int, int] = {}
    for s1, s2, s3 in _CASE_SIGNS.values():
        for a, b, c in itertools.product(pos, repeat=3):
            lag = s1 * a + s2 * b + s3 * c
            counts[lag] = counts.get(lag, 0) + 1
    return LagMultiset(counts)
