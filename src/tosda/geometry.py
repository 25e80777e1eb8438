"""Sparse linear array geometries on the integer half-wavelength grid.

Positions are exact integers from 0 in units of the grid spacing
:data:`UNIT_SPACING`, half the carrier wavelength; physical scale only
enters in :mod:`tosda.simulator`.  Three generator families
are supported (CNA, SCNA, TNA-II), each of which can be extended with a
coarse uniform tail into a third-order sum-difference array (TO-SDA).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import (
    ArrayParseError,
    ArrayValidationError,
    GeometryInconsistencyError,
    InvalidParameterError,
    whole_number,
)

if TYPE_CHECKING:
    from .designer import DesignParams

VARIANTS = ("cna", "scna", "tna2")

# Grid spacing of every array, in carrier wavelengths.
UNIT_SPACING = 0.5

VARIANT_LABELS = {"cna": "CNA", "scna": "SCNA", "tna2": "TNA-II"}

_VARIANT_ALIASES = {
    "cna": "cna",
    "scna": "scna",
    "tna2": "tna2",
    "tna-ii": "tna2",
    "tnaii": "tna2",
    "tna_ii": "tna2",
}


def normalize_variant(variant: str) -> str:
    """Map user spellings ('CNA', 'tna-ii', ...) onto canonical keys."""
    key = str(variant).strip().lower()
    if key not in _VARIANT_ALIASES:
        raise InvalidParameterError(
            f"unknown array variant {variant!r}; expected one of {VARIANTS}"
        )
    return _VARIANT_ALIASES[key]


# Largest sensor position the co-array functions of tosda.coarray accept.
# to_eca's histograms span [-3*top, 3*top], about 12 int64 counts (96 bytes)
# per unit of the largest position ``top``: 1.5 GiB at this cap, which
# TO-SDAs pass beyond N = 480 (TNA-II) and N = 600 (CNA, SCNA);
# consecutive_z's bitsets take a few bytes per unit.  Every lag of a capped
# array fits int64 with room to spare.  A generator reaching past it is
# refused before it is listed, and so is a tail of more sensors than it (a
# tail's list grows with its count, not its reach).
MAX_POSITION = 2**24


def irange(start: int, stop: int, step: int = 1) -> range:
    """Inclusive integer progression start, start+step, ... <= stop, as a
    lazy range, so its last element can be read before it is listed.

    Empty when start > stop, which makes degenerate geometry segments
    detectable instead of silently wrapping.
    """
    if step < 1:
        raise InvalidParameterError(f"step must be >= 1, got {step}")
    return range(start, stop + 1, step)


@dataclass(frozen=True)
class SensorArray:
    """A named set of physical sensor positions.

    positions are strictly increasing whole numbers in units of
    :data:`UNIT_SPACING` (half a wavelength), and the first is 0: the
    third-order lags p_i + p_j - p_k are measured from a phase origin at a
    sensor, so the co-array of a layout depends on where it starts, and
    every array of the paper starts at 0.  Instances are immutable and safe
    to share across threads.
    """

    name: str
    positions: tuple[int, ...]

    def __post_init__(self):
        pos = tuple([whole_number(p, "positions") for p in self.positions])
        if not pos or pos[0] != 0:
            raise InvalidParameterError(f"positions must start with a sensor at 0, got {pos}")
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise InvalidParameterError(
                f"positions must be strictly increasing, got {pos}"
            )
        object.__setattr__(self, "positions", pos)

    @property
    def size(self) -> int:
        return len(self.positions)

    @property
    def aperture(self) -> int:
        return self.positions[-1]

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "unit_spacing_wavelengths": UNIT_SPACING,
            "positions": list(self.positions),
        }


def split_sizes(variant: str, m1: int, m2: int) -> tuple[int, Optional[int]]:
    """Generator size N1 and TNA-II's J of the split (M1, M2) of a canonical
    ``variant``: N1 = 2*M1+M2 for CNA and SCNA, and N1 = M1+M2 with
    J = ceil(N1/2)-1 for TNA-II (J is None for the others)."""
    if variant == "tna2":
        n1 = m1 + m2
        return n1, -(-n1 // 2) - 1
    return 2 * m1 + m2, None


def tail_offsets(lambda1: int, lambda2: int) -> tuple[int, int]:
    """Start ``delta1`` = lambda1 + lambda2 + 1 and pitch ``delta2`` =
    2*lambda1 + 1 of the tail that follows a generator whose second- and
    third-order sum co-arrays reach lambda1 and lambda2."""
    return lambda1 + lambda2 + 1, 2 * lambda1 + 1


def build_ula(n: int) -> SensorArray:
    """Uniform linear array at positions 0..n-1."""
    n = whole_number(n, "n")
    if n < 1:
        raise InvalidParameterError(f"ULA needs at least one sensor, got n={n}")
    return SensorArray(f"ULA({n})", tuple(range(n)))


def _generator_segments(variant: str, m1: int, m2: int, j: Optional[int]):
    if variant == "cna":
        top = m1 + (m1 + 1) * (m2 - 1)
        return [
            irange(0, m1 - 1),
            irange(m1, top, m1 + 1),
            irange(top + 1, top + m1),
        ]
    if variant == "scna":
        return [
            [0],
            irange(2, m1),
            irange(m1 + 1, m2 * (m1 + 1), m1 + 1),
            irange(m2 * (m1 + 1) + 1, 2 * m1 + (m1 + 1) * (m2 - 1) + 1),
        ]
    base = (m1 - 1) * (m2 + 1)
    top = m1 * (m2 + 1)
    return [
        irange(0, base, m1 + 1),
        irange(base + j + 1, base + m2),
        irange(top + 1, top + j),
    ]


def generator_positions(variant: str, m1: int, m2: int) -> tuple[int, ...]:
    """Sorted positions of the generator of a canonical ``variant`` for the
    split M1 >= 1, M2 >= 1.

    Its size N1 and TNA-II's J come from :func:`split_sizes`; segments that
    do not hold N1 distinct positions raise
    :class:`GeometryInconsistencyError` naming the segments.  No family's
    segments overlap and CNA's and SCNA's hold N1, so only TNA-II's raise:
    over M1, M2 < 30, in 756 of 841 splits (350 with a non-empty middle
    segment), exactly those whose first segment, at pitch M1 + 1, holds
    other than M1 sensors ((2, 5) gives [0, 3, 6]).  A generator reaching
    past :data:`MAX_POSITION` raises :class:`InvalidParameterError` before
    any segment is listed.
    """
    expected, j = split_sizes(variant, m1, m2)
    spans = _generator_segments(variant, m1, m2, j)
    top = max(span[-1] for span in spans if span)
    if top > MAX_POSITION:
        raise InvalidParameterError(
            f"{variant.upper()} generator must be within position {MAX_POSITION}, "
            f"the most the co-array functions take, got (M1={m1}, M2={m2}, J={j}) "
            f"reaching {top}"
        )
    positions = sorted({p for span in spans for p in span})
    if len(positions) != expected:
        raise GeometryInconsistencyError(
            f"{variant.upper()} generator (M1={m1}, M2={m2}, J={j}) has "
            f"{len(positions)} sensors, expected {expected}; "
            f"segments {[list(span) for span in spans]}"
        )
    return tuple(positions)


def build_generator(variant: str, m1: int, m2: int) -> SensorArray:
    """Build a generator sub-array from its defining segments.

    The generator is the dense block whose second-/third-order sum
    co-arrays seed the consecutive virtual segment; its positions and their
    consistency rule are :func:`generator_positions`'.
    """
    variant = normalize_variant(variant)
    m1, m2 = whole_number(m1, "m1"), whole_number(m2, "m2")
    if m1 < 1 or m2 < 1:
        raise InvalidParameterError(f"need M1 >= 1 and M2 >= 1, got ({m1}, {m2})")
    positions = generator_positions(variant, m1, m2)
    label = VARIANT_LABELS[variant]
    jtag = f",J={split_sizes(variant, m1, m2)[1]}" if variant == "tna2" else ""
    return SensorArray(f"{label}(M1={m1},M2={m2}{jtag})", positions)


def gtoa_positions(
    generator: Sequence[int], delta1: int, delta2: int, n2: int
) -> tuple[int, ...]:
    """Sorted union of the sorted ``generator`` positions with the tail
    {delta1 + delta2*k, k < n2}, for whole delta1, delta2 >= 0 and n2 >= 1.

    Every physical position may host exactly one sensor, so a tail that
    collapses onto itself or overlaps the generator raises
    :class:`GeometryInconsistencyError`.  A tail of more than
    :data:`MAX_POSITION` sensors, which no co-array function could take,
    raises :class:`InvalidParameterError` before it is listed; positions
    past the cap are listed, since listing costs one entry per sensor.
    """
    if delta2 == 0 and n2 > 1:
        raise GeometryInconsistencyError(
            f"tail with delta2={delta2} collapses onto itself for n2={n2}"
        )
    if n2 > MAX_POSITION:
        raise InvalidParameterError(
            f"tail must be at most {MAX_POSITION} sensors long, as a longer one "
            f"reaches past the largest position the co-array functions take, "
            f"got n2={n2}"
        )
    tail = [delta1 + delta2 * k for k in range(n2)]
    if not generator or generator[-1] < delta1:  # every TO-SDA's tail
        return (*generator, *tail)
    overlap = sorted(set(generator).intersection(tail))
    if overlap:
        raise GeometryInconsistencyError(
            f"generator and tail overlap at positions {overlap}"
        )
    return tuple(sorted([*generator, *tail]))


def build_gtoa(generator: SensorArray, delta1: int, delta2: int, n2: int) -> SensorArray:
    """Union of a generator with the coarse tail {delta1 + delta2*k, k < n2},
    by the rule of :func:`gtoa_positions`."""
    delta1, delta2 = whole_number(delta1, "delta1"), whole_number(delta2, "delta2")
    n2 = whole_number(n2, "n2")
    if n2 < 1:
        raise InvalidParameterError(f"tail needs at least one sensor, got n2={n2}")
    if delta1 < 0 or delta2 < 0:
        raise InvalidParameterError("delta1 and delta2 must be non-negative")
    return SensorArray(
        f"{generator.name}+tail({n2})",
        gtoa_positions(generator.positions, delta1, delta2, n2),
    )


def build_to_sda(variant: str, n: int) -> tuple[SensorArray, DesignParams]:
    """Compose the DOF-maximizing TO-SDA with ``n`` physical sensors.

    The split (M1, M2) comes from the closed-form optimizer in
    :mod:`tosda.designer`, and the positions from the integer rules the split
    search builds every candidate by, :func:`generator_positions` and
    :func:`gtoa_positions`, with the tail the params derive from their printed
    lambdas: delta1 = lambda1+lambda2+1, delta2 = 2*lambda1+1.  For CNA and
    SCNA that makes the co-array gap-free, so the realized DOF is the closed
    form's (187 and 217 at N = 8).  TNA-II's printed lambda1 exceeds its
    generator's measured one, so its tail leaves gaps: at N = 8 the closed
    form says 345 and the array realizes 71.  :func:`designer.gtoa`, behind
    ``tosda design --generator``, builds the tail of the measured lambdas
    instead, which on the same N = 8 generator realizes 135.  Other offsets
    remain reachable through :func:`build_gtoa`.
    """
    from . import designer  # deferred: designer builds on this module

    variant = normalize_variant(variant)
    params = designer.split_closed_form(variant, n)
    n = params.N  # a whole int, whatever number type n came as
    generator = generator_positions(variant, params.M1, params.M2)
    positions = gtoa_positions(generator, params.delta1, params.delta2, params.N2)
    array = SensorArray(f"TO-SDA({VARIANT_LABELS[variant]}) N={n}", positions)
    if array.size != n:
        raise GeometryInconsistencyError(f"composed array has {array.size} sensors, expected {n}")
    return array, params


def load_array(path) -> SensorArray:
    """Read a sensor array from its JSON file format.

    Schema: ``{"name": str, "unit_spacing_wavelengths": 0.5,
    "positions": [int, ...]}``; the spacing key may be left out.  Positions
    are sorted on load, and the array is checked as :class:`SensorArray`
    checks it: whole and distinct positions, the first of them 0.  A file
    that is not such an object raises :class:`ArrayParseError`, one whose
    values break these rules, or whose spacing is not :data:`UNIT_SPACING`,
    :class:`ArrayValidationError`.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ArrayParseError(f"cannot read array file {path}: {exc}") from exc
    if not isinstance(raw, dict) or "positions" not in raw:
        raise ArrayParseError(f"{path}: expected an object with a 'positions' key")
    positions = raw["positions"]
    if not isinstance(positions, list) or not positions:
        raise ArrayParseError(f"{path}: 'positions' must be a non-empty list")
    # a bool or a string never equals 0.5
    if raw.get("unit_spacing_wavelengths", UNIT_SPACING) != UNIT_SPACING:
        raise ArrayValidationError(
            f"{path}: unit_spacing_wavelengths must be {UNIT_SPACING}, the grid "
            f"of every array, got {raw['unit_spacing_wavelengths']!r}"
        )
    try:
        return SensorArray(
            str(raw.get("name") or path.stem),
            # checked before sorting, so a bad entry is reported, not compared
            tuple(sorted(whole_number(p, "positions") for p in positions)),
        )
    except InvalidParameterError as exc:
        raise ArrayValidationError(f"{path}: {exc}") from exc


def save_array(array: SensorArray, path) -> None:
    """Write ``array`` in the JSON file format understood by load_array."""
    path = Path(path)
    path.write_text(
        json.dumps(array.to_json_dict(), indent=2) + "\n", encoding="utf-8"
    )
