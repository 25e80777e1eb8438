"""The lag set of a third-order exhaustive co-array, as bits of integers.

Where only the consecutive segment of the TO-ECA matters (the split
search, ``sweep --baseline``, ``design --variant`` and the simulator's Z),
:class:`LagSet` holds its non-negative lags alone, as bits of Python
integers, and grows it one sensor at a time; :func:`consecutive_z` reads Z
from it.  This module needs the standard library only, so the design layer
(:mod:`tosda.designer` and the ``design`` and ``sweep`` commands) runs
without numpy; :mod:`tosda.coarray` re-exports its three names and holds
the dense multisets that are the oracle of its results.
"""

from __future__ import annotations

import functools
from typing import Sequence

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
    """The non-negative lags of the TO-ECA of a set of sensors, grown one
    sensor at a time, each above all earlier ones; :meth:`add` returns the
    grown set and leaves this one as it was, so one set can be shared.

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
    and ORs.
    ``LagSet()`` holds no sensor; ``functools.reduce(LagSet.add, positions,
    LagSet())`` is the set of the strictly increasing, non-negative
    ``positions``.
    """

    __slots__ = ("top", "_sensors", "_sensors_rev", "_pairs", "_pairs_rev",
                 "_diffs", "_lags")

    def __init__(self):
        self.top = -1
        self._sensors = self._sensors_rev = self._pairs = self._pairs_rev = 0
        self._diffs = self._lags = 0

    def add(self, v: int) -> "LagSet":
        """This set with one more sensor, at ``v`` above every sensor held.

        A sensor at or below ``top`` raises
        :class:`InternalConsistencyError`: its lags would be misplaced, and
        only a caller that broke the ordering can ask for it.
        """
        up = v - self.top
        if up < 1:
            raise InternalConsistencyError(
                f"lag set: sensor {v} added at or below the top sensor {self.top}"
            )
        grown = LagSet.__new__(LagSet)
        grown.top = v
        grown._sensors = sensors = self._sensors | 1 << v
        grown._sensors_rev = sensors_rev = self._sensors_rev << up | 1
        grown._pairs = pairs = self._pairs | sensors << v
        grown._pairs_rev = pairs_rev = self._pairs_rev << 2 * up | sensors_rev
        grown._diffs = diffs = self._diffs << up | sensors_rev << v | sensors
        grown._lags = self._lags | pairs << v | (pairs | pairs_rev) >> v | diffs
        return grown

    @property
    def z(self) -> int:
        """``to_eca(...).one_sided_z`` of the sensors held: the run of
        non-negative lags from 0, less one (-1 when none is held)."""
        lags = self._lags
        # (lags + 1) & ~lags is the lowest clear bit, one past the run
        return ((lags + 1) & ~lags).bit_length() - 2


def consecutive_z(array: SensorArray) -> int:
    """``to_eca(array).one_sided_z``, read from the lag set alone as a
    :class:`LagSet` built one sensor at a time; an array past MAX_POSITION
    raises :class:`InvalidParameterError` naming it."""
    check_cap(array.positions, array.name)
    return functools.reduce(LagSet.add, array.positions, LagSet()).z
