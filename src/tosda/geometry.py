"""Sparse linear array geometries on the integer half-wavelength grid.

Positions are exact non-negative integers in units of the grid spacing
``d`` (a fraction of the carrier wavelength, 0.5 by default); physical
scale only enters in :mod:`tosda.simulator`.  Three generator families
are supported (CNA, SCNA, TNA-II), each of which can be extended with a
coarse uniform tail into a third-order sum-difference array (TO-SDA).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

from .errors import (
    ArrayParseError,
    ArrayValidationError,
    GeometryInconsistencyError,
    InvalidParameterError,
    real_number,
    whole_number,
)

VARIANTS = ("cna", "scna", "tna2")

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


def irange(start: int, stop: int, step: int = 1) -> list[int]:
    """Inclusive integer progression start, start+step, ... <= stop.

    Empty when start > stop, which makes degenerate geometry segments
    detectable instead of silently wrapping.
    """
    if step < 1:
        raise InvalidParameterError(f"step must be >= 1, got {step}")
    return list(range(start, stop + 1, step))


@dataclass(frozen=True)
class SensorArray:
    """A named set of physical sensor positions.

    positions are strictly increasing non-negative integers in units of
    the grid spacing; ``unit_spacing`` is that spacing as a fraction of
    the wavelength.  Instances are immutable and safe to share across
    threads.
    """

    name: str
    positions: tuple[int, ...]
    unit_spacing: float = 0.5

    def __post_init__(self):
        pos = tuple([whole_number(p, "positions") for p in self.positions])
        if not pos:
            raise InvalidParameterError("array must contain at least one sensor")
        if min(pos) < 0:
            raise InvalidParameterError(f"negative positions not allowed: {pos}")
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise InvalidParameterError(
                f"positions must be strictly increasing, got {pos}"
            )
        spacing = real_number(self.unit_spacing, "unit_spacing")
        if not spacing > 0:
            raise InvalidParameterError(f"unit_spacing must be positive, got {spacing}")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "unit_spacing", spacing)

    @property
    def size(self) -> int:
        return len(self.positions)

    @property
    def aperture(self) -> int:
        return self.positions[-1] - self.positions[0]

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "unit_spacing_wavelengths": self.unit_spacing,
            "positions": list(self.positions),
        }


# the DesignParams fields that are non-negative whole numbers (J may be None)
_COUNT_FIELDS = (
    "N", "N1", "N2", "M1", "M2", "delta1", "delta2", "lambda1", "lambda2",
)


@dataclass(frozen=True)
class DesignParams:
    """Complete parameter tuple of one TO-SDA instance.

    ``lambda1``/``lambda2`` are the lengths of the longest consecutive
    runs of the generator's second-/third-order sum co-arrays (measured
    by their right endpoints), and ``delta1``/``delta2`` the offset and
    pitch of the coarse uniform extension.
    """

    variant: str
    N: int
    N1: int
    N2: int
    M1: int
    M2: int
    J: Optional[int]
    delta1: int
    delta2: int
    lambda1: int
    lambda2: int

    def __post_init__(self):
        object.__setattr__(self, "variant", normalize_variant(self.variant))
        for key in _COUNT_FIELDS:
            given = getattr(self, key)
            value = whole_number(given, key)
            if value < 0:
                raise InvalidParameterError(f"{key} must be a non-negative integer")
            if value is not given:  # frozen-field writes are slow; most are ints
                object.__setattr__(self, key, value)
        if self.J is not None:
            object.__setattr__(self, "J", whole_number(self.J, "J"))
        if self.N2 < 1:
            raise InvalidParameterError("N2 must be >= 1")
        if self.N != self.N1 + self.N2:
            raise InvalidParameterError(
                f"N={self.N} != N1+N2={self.N1 + self.N2}"
            )
        if self.variant == "tna2":
            if self.J is None or self.J < 0:
                raise InvalidParameterError("TNA-II parameters require J >= 0")
            if self.N1 != self.M1 + self.M2:
                raise InvalidParameterError(
                    f"N1={self.N1} != M1+M2={self.M1 + self.M2}"
                )
            if self.J != -(-self.N1 // 2) - 1:
                raise InvalidParameterError(
                    f"J={self.J} != ceil(N1/2)-1 for N1={self.N1}"
                )
        else:
            if self.J is not None:
                raise InvalidParameterError("J is only defined for TNA-II")
            if self.N1 != 2 * self.M1 + self.M2:
                raise InvalidParameterError(
                    f"N1={self.N1} != 2*M1+M2={2 * self.M1 + self.M2}"
                )
        if not 0 <= self.delta1 <= self.lambda1 + self.lambda2 + 1:
            raise InvalidParameterError(
                f"delta1={self.delta1} outside [0, {self.lambda1 + self.lambda2 + 1}]"
            )
        if not 0 <= self.delta2 <= 2 * self.lambda1 + 1:
            raise InvalidParameterError(
                f"delta2={self.delta2} outside [0, {2 * self.lambda1 + 1}]"
            )

    def to_json_dict(self) -> dict:
        return asdict(self)


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


def build_generator(
    variant: str,
    m1: int,
    m2: int,
    j: Optional[int] = None,
) -> SensorArray:
    """Build a generator sub-array from its defining segments.

    The generator is the dense block whose second-/third-order sum
    co-arrays seed the consecutive virtual segment.  Cardinality must
    come out as 2*M1+M2 (CNA/SCNA) or M1+M2 (TNA-II); a mismatch or a
    duplicated position raises :class:`GeometryInconsistencyError`
    carrying the offending segments.
    """
    variant = normalize_variant(variant)
    m1, m2 = whole_number(m1, "m1"), whole_number(m2, "m2")
    if j is not None:
        j = whole_number(j, "j")
    if m1 < 1 or m2 < 1:
        raise InvalidParameterError(f"need M1 >= 1 and M2 >= 1, got ({m1}, {m2})")
    if variant == "tna2":
        if j is None or j < 0:
            raise InvalidParameterError("TNA-II generator requires J >= 0")
        expected = m1 + m2
    else:
        if j is not None:
            raise InvalidParameterError(f"J is not a {variant.upper()} parameter")
        expected = 2 * m1 + m2

    segments = _generator_segments(variant, m1, m2, j)
    flat = [p for seg in segments for p in seg]
    if len(set(flat)) != len(flat):
        dupes = sorted({p for p in flat if flat.count(p) > 1})
        raise GeometryInconsistencyError(
            f"{variant.upper()} generator (M1={m1}, M2={m2}, J={j}) repeats "
            f"positions {dupes} across segments {segments}",
            segments=segments,
        )
    if len(flat) != expected:
        raise GeometryInconsistencyError(
            f"{variant.upper()} generator (M1={m1}, M2={m2}, J={j}) has "
            f"{len(flat)} sensors, expected {expected}; segments {segments}",
            segments=segments,
        )
    label = VARIANT_LABELS[variant]
    jtag = f",J={j}" if variant == "tna2" else ""
    return SensorArray(f"{label}(M1={m1},M2={m2}{jtag})", tuple(sorted(flat)))


def build_gtoa(
    generator: SensorArray,
    delta1: int,
    delta2: int,
    n2: int,
    name: Optional[str] = None,
) -> SensorArray:
    """Union of a generator with the coarse tail {delta1 + delta2*k, k < n2}.

    Every physical position may host exactly one sensor, so any overlap
    between the generator and the tail is rejected.
    """
    delta1, delta2 = whole_number(delta1, "delta1"), whole_number(delta2, "delta2")
    n2 = whole_number(n2, "n2")
    if n2 < 1:
        raise InvalidParameterError(f"tail needs at least one sensor, got n2={n2}")
    if delta1 < 0 or delta2 < 0:
        raise InvalidParameterError("delta1 and delta2 must be non-negative")
    tail = [delta1 + delta2 * k for k in range(n2)]
    if len(set(tail)) != n2:
        raise GeometryInconsistencyError(
            f"tail with delta2={delta2} collapses onto itself for n2={n2}"
        )
    overlap = sorted(set(generator.positions) & set(tail))
    if overlap:
        raise GeometryInconsistencyError(
            f"generator and tail overlap at positions {overlap}"
        )
    return SensorArray(
        name or f"{generator.name}+tail({n2})",
        tuple(sorted(set(generator.positions) | set(tail))),
        generator.unit_spacing,
    )


def build_to_sda(variant: str, n: int) -> tuple[SensorArray, DesignParams]:
    """Compose the DOF-maximizing TO-SDA with ``n`` physical sensors.

    The sensor split comes from the closed-form optimizer in
    :mod:`tosda.designer`; the tail offsets are pinned to the values for
    which the co-array is provably gap-free (delta1 = lambda1+lambda2+1,
    delta2 = 2*lambda1+1).  Other offsets remain reachable through
    :func:`build_gtoa`.
    """
    from . import designer  # deferred: designer builds on this module

    variant = normalize_variant(variant)
    params = designer.split_closed_form(variant, n)
    generator = build_generator(variant, params.M1, params.M2, params.J)
    array = build_gtoa(
        generator,
        params.delta1,
        params.delta2,
        params.N2,
        name=f"TO-SDA({VARIANT_LABELS[variant]}) N={n}",
    )
    if array.size != n or array.positions[0] != 0:
        raise GeometryInconsistencyError(
            f"composed array has {array.size} sensors starting at "
            f"{array.positions[0]}, expected {n} starting at 0"
        )
    return array, params


def load_array(path) -> SensorArray:
    """Read a sensor array from its JSON file format.

    Schema: ``{"name": str, "unit_spacing_wavelengths": number,
    "positions": [int, ...]}``.  Positions are sorted on load, and the
    array is checked as :class:`SensorArray` checks it: whole, non-negative
    and distinct positions and a finite positive spacing.  A file that is
    not such an object raises :class:`ArrayParseError`, one whose values
    break these rules :class:`ArrayValidationError`.
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
    try:
        return SensorArray(
            str(raw.get("name") or path.stem),
            # checked before sorting, so a bad entry is reported, not compared
            tuple(sorted(whole_number(p, "positions") for p in positions)),
            raw.get("unit_spacing_wavelengths", 0.5),
        )
    except InvalidParameterError as exc:
        raise ArrayValidationError(f"{path}: {exc}") from exc


def save_array(array: SensorArray, path) -> None:
    """Write ``array`` in the JSON file format understood by load_array."""
    path = Path(path)
    path.write_text(
        json.dumps(array.to_json_dict(), indent=2) + "\n", encoding="utf-8"
    )
