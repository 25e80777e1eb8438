"""The lag set of a third-order exhaustive co-array, as bits of integers.

Where only the consecutive segment of the TO-ECA matters (the split
search, ``sweep --baseline``, ``design``, and the Z of the simulator and
``metrics``), :class:`LagSet` holds its non-negative lags alone, as bits of
Python integers, grown by sensors added one at a time in a few local ints;
:func:`consecutive_z` reads Z from it.  This module needs the standard
library only, so the design layer (:mod:`tosda.designer`, ``design`` and
``sweep``) runs without numpy and the simulator without :mod:`tosda.coarray`,
whose dense multisets are the oracle of its results.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import InternalConsistencyError, InvalidParameterError
from .geometry import MAX_POSITION, SensorArray


def check_cap(positions: Sequence[int], name: str) -> None:
    """Raise unless the largest of the sorted ``positions`` is within MAX_POSITION."""
    top = positions[-1]
    if top > MAX_POSITION:
        raise InvalidParameterError(
            f"{name}: largest position {top} exceeds {MAX_POSITION}, "
            "the most the co-array functions take"
        )


class LagSet:
    """The non-negative lags of the TO-ECA of a set of sensors, grown by
    sensors added one at a time, each above all earlier ones: :meth:`add`
    returns the grown set and :meth:`zs` lists Z after each sensor of a run,
    both by one update rule on local ints, and both leave this set as it
    was, so one set can be shared.

    Bit l of a Python int stands for lag l, so a shift adds a position to a
    whole set at once and no histogram is built.  Besides the lags the state
    keeps the sets a new top sensor v combines with, anchored at the top
    sensor ``top`` so that moving it up is one shift:

    - the sensors s at bit s, and reversed, at bit top - s;
    - the pair sums p = a + b at bit p, and reversed, at bit 2*top - p;
    - the signed differences b - c at bit top + b - c.

    The TO-ECA is symmetric, so its non-negative lags are the triple sums
    a + b + c (pattern 1) and the |a + b - c| (pattern 2 and its mirror,
    pattern 3); pattern 4 adds only lag 0, which pattern 1 already holds.
    Adding v contributes v + p, |p - v| (p - v from p above v, v - p from
    2*v - p reversed, in one shift) and v + b - c, in about a dozen shifts
    and ORs.  The pair sums and the non-negative differences also give the
    second-order reach lambda1 of the sensors held (:attr:`reaches`), so a
    generator's whole tail rule is read from its set.
    ``LagSet()`` holds no sensor; ``LagSet().add(*positions)`` is the set of
    the strictly increasing, non-negative ``positions``.
    """

    __slots__ = ("top", "_sensors", "_sensors_rev", "_pairs", "_pairs_rev",
                 "_diffs", "_lags")

    def __init__(self):
        self.top = -1
        self._sensors = self._sensors_rev = self._pairs = self._pairs_rev = 0
        self._diffs = self._lags = 0

    def add(self, *positions: int) -> "LagSet":
        """This set with the increasing ``positions`` added, each above every
        sensor held; a sensor at or below the one before it raises as in
        :meth:`zs`."""
        return self._walk(positions)

    def zs(self, positions: Iterable[int]) -> list[int]:
        """Z of this set with the increasing ``positions`` added one at a
        time, listed after each of them, with no set built on the way.

        A sensor at or below the one before it (the first: at or below
        ``top``) raises :class:`InternalConsistencyError`: its lags would be
        misplaced, and only a caller that broke the ordering can ask for it.
        """
        zs: list[int] = []
        self._walk(positions, zs)
        return zs

    def _walk(self, positions: Iterable[int], zs: Optional[list[int]] = None) -> "LagSet":
        """The one update rule, on the state in local ints: the set grown by
        ``positions``, with Z appended to ``zs`` after each sensor when given."""
        top, sensors, sensors_rev = self.top, self._sensors, self._sensors_rev
        pairs, pairs_rev, diffs, lags = self._pairs, self._pairs_rev, self._diffs, self._lags
        for v in positions:
            up = v - top
            if up < 1:
                raise InternalConsistencyError(
                    f"lag set: sensor {v} added at or below the top sensor {top}"
                )
            top = v
            sensors |= 1 << v
            sensors_rev = sensors_rev << up | 1
            pairs |= sensors << v
            pairs_rev = pairs_rev << 2 * up | sensors_rev
            diffs = diffs << up | sensors_rev << v | sensors
            lags |= pairs << v | (pairs | pairs_rev) >> v | diffs
            if zs is not None:
                zs.append(_run_below(lags))
        grown = LagSet.__new__(LagSet)
        grown.top, grown._sensors, grown._sensors_rev = top, sensors, sensors_rev
        grown._pairs, grown._pairs_rev, grown._diffs, grown._lags = (
            pairs, pairs_rev, diffs, lags)
        return grown

    @property
    def z(self) -> int:
        """``to_eca(...).one_sided_z`` of the sensors held: the run of
        non-negative lags from 0, less one (-1 when none is held)."""
        return _run_below(self._lags)

    @property
    def reaches(self) -> tuple[int, int]:
        """(lambda1, lambda2) of the sensors held: lambda1 is the last lag of
        the run from 0 of their pair sums a + b together with their
        differences |a - b| (the second-order co-arrays SCA and DCA), and
        lambda2 is :attr:`z`; both are -1 when no sensor is held.  A GTOA's
        tail follows from these two alone (:func:`geometry.tail_offsets`)."""
        return _run_below(self._pairs | self._diffs >> max(self.top, 0)), self.z


def _run_below(lags: int) -> int:
    """The run of set bits of ``lags`` from bit 0, less one: the lowest clear
    bit is the top bit of lags ^ (lags + 1), and no negative int is made."""
    return (lags ^ (lags + 1)).bit_length() - 2


def consecutive_z(array: SensorArray) -> int:
    """``to_eca(array).one_sided_z``, read from the lag set alone as a
    :class:`LagSet` of the array's positions; an array past MAX_POSITION
    raises :class:`InvalidParameterError` naming it."""
    check_cap(array.positions, array.name)
    return LagSet().add(*array.positions).z
