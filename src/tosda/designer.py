"""Sensor-split optimization for TO-SDA arrays.

Closed-form DOF-maximizing splits exist for all three generator
families; an exhaustive integer-split search doubles as the ground
truth.  Whenever the two disagree the disagreement is surfaced, never
silently resolved, because the closed forms are only as good as the
rounding conventions they were printed with.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from . import geometry, lagset
from .errors import (
    GeometryInconsistencyError,
    InvalidParameterError,
    UnsupportedSizeError,
    float_range,
    whole_number,
)
from .geometry import normalize_variant

log = logging.getLogger(__name__)

_MINIMUM_SCAN_LIMIT = 64


def round_half_up(x: float) -> int:
    """Round to nearest integer, halves away from the floor (2.5 -> 3)."""
    return math.floor(x + 0.5)


def continuous_optimum_n1(variant: str, n: int) -> float:
    """Stationary point of the relaxed DOF objective in the generator size."""
    variant = normalize_variant(variant)
    with float_range(n, "n"):
        if variant == "cna":
            return (4 * n + math.sqrt((4 * n + 15) ** 2 + 672) - 21) / 12
        if variant == "scna":
            return (4 * n + math.sqrt((4 * n + 15) ** 2 + 288) - 21) / 12
        return (3 + 4 * n + math.sqrt((4 * n - 9) ** 2 + 36)) / 12


# the N at which TNA-II prints its generator's reaches two lower
_TNA2_SHORT_N = range(9, 15)


def _printed_reaches(
    variant: str, m1: int, m2: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    """The printed closed-form reaches (lambda1, lambda2) of the generator
    (M1, M2)'s co-arrays at N outside :data:`_TNA2_SHORT_N` and at N in it;
    only TNA-II's two differ."""
    if variant == "cna":
        unit = (m1 - 1) + m2 * (m1 + 1)
    elif variant == "scna":
        unit = (2 * m1 + m2) + m1 * (m2 - 1)
    else:
        core = m1 * (m2 + 1) + geometry.split_sizes(variant, m1, m2)[1]
        return (2 * core, 3 * core), (2 * core - 2, 3 * core - 2)
    return (2 * unit, 3 * unit), (2 * unit, 3 * unit)


def _lambda_values(variant: str, n: int, m1: int, m2: int) -> tuple[int, int]:
    """The printed closed-form reaches (lambda1, lambda2) of the generator
    (M1, M2)'s co-arrays at N sensors.  :func:`dof_closed_form` reads them
    here, not through :class:`DesignParams`, so the claim under test stays
    the printed one whatever the construction uses."""
    return _printed_reaches(variant, m1, m2)[n in _TNA2_SHORT_N]


@dataclass(frozen=True)
class DesignParams:
    """One TO-SDA instance: its variant, its N sensors and its split
    (M1, M2).  Every other number is derived from these four.

    The generator size ``N1`` and TNA-II's ``J`` come from the split by
    :func:`geometry.split_sizes`, and the tail holds ``N2`` = N - N1
    sensors.  ``lambda1``/``lambda2`` are the variant's printed closed-form
    reaches of the generator's second-/third-order co-arrays (by
    :func:`_lambda_values`), not runs measured on the built generator.  For
    CNA and SCNA the two agree; for TNA-II the printed value can exceed the
    measured one (N = 8: lambda1 = 20 printed, 4 measured).  The tail starts
    at ``delta1`` with pitch ``delta2``, by :func:`geometry.tail_offsets`.
    """

    variant: str
    N: int
    M1: int
    M2: int

    def __post_init__(self):
        object.__setattr__(self, "variant", normalize_variant(self.variant))
        # a split needs M1, M2 >= 1 for its generator to exist
        for key, least in (("N", 0), ("M1", 1), ("M2", 1)):
            given = getattr(self, key)
            value = whole_number(given, key)
            if value < least:
                raise InvalidParameterError(f"{key} must be >= {least}, got {value}")
            if value is not given:  # frozen-field writes are slow; most are ints
                object.__setattr__(self, key, value)
        if self.N2 < 1:
            raise InvalidParameterError("N2 must be >= 1")

    @property
    def N1(self) -> int:
        return geometry.split_sizes(self.variant, self.M1, self.M2)[0]

    @property
    def J(self) -> Optional[int]:
        return geometry.split_sizes(self.variant, self.M1, self.M2)[1]

    @property
    def N2(self) -> int:
        return self.N - self.N1

    @property
    def lambda1(self) -> int:
        return _lambda_values(self.variant, self.N, self.M1, self.M2)[0]

    @property
    def lambda2(self) -> int:
        return _lambda_values(self.variant, self.N, self.M1, self.M2)[1]

    @property
    def delta1(self) -> int:
        return geometry.tail_offsets(self.lambda1, self.lambda2)[0]

    @property
    def delta2(self) -> int:
        return geometry.tail_offsets(self.lambda1, self.lambda2)[1]

    def to_json_dict(self) -> dict:
        keys = ("variant", "N", "N1", "N2", "M1", "M2", "J",
                "delta1", "delta2", "lambda1", "lambda2")
        return {key: getattr(self, key) for key in keys}


def gtoa_dof(lambda1: int, lambda2: int, n2: int) -> int:
    """The consecutive lags 2*(lambda2 + N2*delta2) + 1 a GTOA of ``n2`` tail
    sensors holds at least, when its generator's co-arrays reach ``lambda1``
    and ``lambda2`` and its tail pitch is delta2 = 2*lambda1 + 1."""
    return 2 * (lambda2 + n2 * geometry.tail_offsets(lambda1, lambda2)[1]) + 1


def dof_closed_form(params: DesignParams) -> int:
    """Consecutive-lag count predicted by the variant's closed form: the GTOA
    count (:func:`gtoa_dof`) of its printed lambdas.  TNA-II's printed count
    exceeds that by 2*(2*core - 1), twice its printed lambda1 outside
    :data:`_TNA2_SHORT_N` less one, at every N.
    """
    m1, m2 = params.M1, params.M2
    dof = gtoa_dof(*_lambda_values(params.variant, params.N, m1, m2), params.N2)
    if params.variant == "tna2":
        dof += 2 * (_printed_reaches("tna2", m1, m2)[0][0] - 1)
    return dof


def gtoa(generator: geometry.SensorArray, n: int) -> tuple[geometry.SensorArray, tuple[int, int]]:
    """The GTOA of ``n`` sensors on ``generator``, with the tail its measured
    reaches give (:attr:`lagset.LagSet.reaches`, :func:`geometry.tail_offsets`),
    and those reaches (lambda1, lambda2).  A generator past MAX_POSITION, or
    an ``n`` that leaves no tail sensor, raises
    :class:`InvalidParameterError`; a tail that lands on the generator raises
    :class:`GeometryInconsistencyError`, as in :func:`geometry.build_gtoa`."""
    n = whole_number(n, "n")
    if n <= generator.size:
        raise InvalidParameterError(
            f"n must exceed the generator's {generator.size} sensors, got {n}"
        )
    lagset.check_cap(generator.positions, generator.name)
    reaches = lagset.LagSet().add(*generator.positions).reaches
    tail = geometry.tail_offsets(*reaches)
    return geometry.build_gtoa(generator, *tail, n - generator.size), reaches


# each split search asks once for every generator with N1 below its largest
# N; this holds all of one variant's generators with N1 < 92 (TNA-II has the
# most, 4095), so a later search of that variant up to N = 92 builds none
# again.  A sweep of all three variants to N = 92 asks for 8145, so there
# each variant rebuilds its own on every pass.  Full, with each
# generator's lag set, it takes a sweep over N = 4..92 to a 46 MB peak,
# against 35 MB for the positions alone (Python 3.11, x86-64)
@functools.lru_cache(maxsize=4096)
def _generator(
    variant: str, m1: int, m2: int
) -> Optional[tuple[tuple[int, ...], lagset.LagSet]]:
    """Positions of the generator (M1, M2) of a canonical ``variant`` and the
    lag set of its TO-ECA, or None when its segments are inconsistent.  Any
    other error propagates and, being raised, is not cached.  Every later
    call shares the lag set, which a walk leaves as it was."""
    try:
        positions = geometry.generator_positions(variant, m1, m2)
    except GeometryInconsistencyError:
        return None
    return positions, lagset.LagSet().add(*positions)


def _splits(variant: str, n: int) -> Iterator[tuple[int, int, int]]:
    """Every split (M1, M2) in [1, N)^2 with N1 < N, by M1 then M2, as
    (N1, M1, M2).  N1 grows with M2 in every variant, so each M2 run ends at
    the first split whose N1 reaches N."""
    for m1 in range(1, n):
        for m2 in range(1, n):
            n1 = geometry.split_sizes(variant, m1, m2)[0]
            if n1 >= n:
                break
            yield n1, m1, m2


# a realized split: (consecutive lags, N1, M1, M2)
_Realized = tuple[int, int, int, int]


def _search(variant: str, n_values: Iterable[int]) -> dict[int, _Realized]:
    """The best realized split of :func:`_splits` at each N of ``n_values``
    that any split builds at: the closed-form split's oracle, not its helper.

    A split serves every N above its N1.  The N values at which it has the
    same printed (lambda1, lambda2) (all of them but TNA-II's
    9 <= N <= 14) share one tail, whose first N2 sensors make the array at
    N = N1 + N2.  Each such tail is built once, at its longest, by
    :func:`geometry.gtoa_positions`, which checks it as it checks any tail,
    and its top is checked against MAX_POSITION as any co-array input's.
    The generator's lag set then walks its sensors, added one at a time, into
    the list of Z after each (:meth:`lagset.LagSet.zs`), and the Z at N is
    its entry N - N1 - 1.  Each N keeps its best split so far: the most
    consecutive lags, ties going to the smaller generator, then to the
    lexicographically smaller (M1, M2).
    """
    wanted = sorted(set(n_values))
    largest = wanted[-1] if wanted else 0
    # the N that read a split's tail, in increasing order: all of them, or
    # apart, those outside and those inside TNA-II's short band
    everyone = [wanted]
    bands = [[n for n in wanted if n not in _TNA2_SHORT_N],
             [n for n in wanted if n in _TNA2_SHORT_N]]
    ranks: dict[int, tuple[int, int, int, int]] = {}  # N -> least (-Z, N1, M1, M2)
    for n1, m1, m2 in _splits(variant, largest):
        built = _generator(variant, m1, m2)
        if built is None:
            continue
        generator, generator_lags = built
        reaches = _printed_reaches(variant, m1, m2)
        for lambdas, sizes in zip(reaches, everyone if reaches[0] == reaches[1] else bands):
            if not sizes or sizes[-1] <= n1:
                continue
            delta1, delta2 = geometry.tail_offsets(*lambdas)
            positions = geometry.gtoa_positions(generator, delta1, delta2, sizes[-1] - n1)
            lagset.check_cap(positions, "array")
            zs = generator_lags.zs(positions[n1:])
            for n in sizes:
                if n > n1:
                    rank = (-zs[n - n1 - 1], n1, m1, m2)
                    if n not in ranks or rank < ranks[n]:
                        ranks[n] = rank
    return {n: (2 * -rank[0] + 1, *rank[1:]) for n, rank in ranks.items()}


def _attempt_closed_form(variant: str, n: int) -> Optional[tuple[DesignParams, int]]:
    """The first feasible printed rounding candidate and its rank, or None.

    CNA and SCNA print one candidate; TNA-II's printed rounding, which can
    give an inconsistent generator, comes before its ceil and floor variants.
    A candidate is feasible when M1, M2 >= 1, N1 < N and its generator builds
    and reaches lag 1 (Z >= 1; TNA-II (1, 2) builds (0, 2, 4), even lags
    only).  The printed tail starts at delta1 = lambda1 + lambda2 + 1, past
    the generator's top, so no tail is built and no search runs."""
    n1_star = continuous_optimum_n1(variant, n)
    if variant in ("cna", "scna"):
        n1 = round_half_up(n1_star)
        m1 = round_half_up((n1 - 1) / 4)
        candidates = [(m1, n1 - 2 * m1)]
    else:
        def roundings(x):  # the printed rounding first, then ceil and floor
            return dict.fromkeys((round_half_up(x), math.ceil(x), math.floor(x)))

        candidates = [
            (n1 - m2, m2)
            for n1 in roundings(n1_star)
            for m2 in roundings((2 * n1 - 1) / 4)
        ]
    for rank, (m1, m2) in enumerate(candidates):
        if m1 < 1 or m2 < 1 or geometry.split_sizes(variant, m1, m2)[0] >= n:
            continue
        built = _generator(variant, m1, m2)
        if built is not None and built[1].z >= 1:
            return DesignParams(variant, n, m1, m2), rank
    return None


@functools.cache
def minimum_sensors(variant: str) -> int:
    """Smallest N whose closed-form split passes every invariant."""
    variant = normalize_variant(variant)
    for n in range(2, _MINIMUM_SCAN_LIMIT + 1):
        if _attempt_closed_form(variant, n) is not None:
            return n
    # all variants are feasible well below the limit
    raise InvalidParameterError(  # pragma: no cover
        f"no feasible {variant} split up to N={_MINIMUM_SCAN_LIMIT}"
    )


def split_closed_form(variant: str, n: int) -> DesignParams:
    """DOF-maximizing sensor split via the closed-form expressions."""
    n = whole_number(n, "n")
    variant = normalize_variant(variant)
    minimum = minimum_sensors(variant)
    if n < minimum:
        raise UnsupportedSizeError(
            f"{geometry.VARIANT_LABELS[variant]} needs at least {minimum} "
            f"sensors, got {n}",
            minimum=minimum,
        )
    closed = _attempt_closed_form(variant, n)
    if closed is None:
        raise UnsupportedSizeError(
            f"no feasible {variant} split at N={n}", minimum=minimum
        )
    params, rank = closed
    if rank > 0:
        log.warning(
            "TNA-II split for N=%d: the printed rounding gives no generator that "
            "reaches lag 1; took rounding candidate %d (N1=%d, M1=%d, M2=%d, J=%d)",
            n, rank, params.N1, params.M1, params.M2, params.J,
        )
    return params


@dataclass(frozen=True)
class SweepRow:
    """The one record of a searched split: the exhaustive search's best
    split (N1, N2, M1, M2 and TNA-II's J) of a variant at N sensors, its
    consecutive-lag count ``dof_brute``, and the closed-form split's claimed
    count ``dof_closed`` (None below :func:`minimum_sensors`).
    ``agreement`` compares the two counts, not the splits: distinct splits
    may tie."""

    variant: str
    N: int
    N1: int
    N2: int
    M1: int
    M2: int
    J: Optional[int]
    dof_closed: Optional[int]
    dof_brute: int
    agreement: bool


def dof_sweep(variants: Iterable[str], n_values: Iterable[int]) -> list[SweepRow]:
    """One row of closed-form vs brute-force DOF per (variant, N).

    ``n_values`` is read once, so an iterator serves every variant, and each
    N is stored as the int it converts to.  Each variant's rows come from one
    split search over all of ``n_values``, which walks each split's tail
    once, to its largest N, and reads the row of every smaller N on the way.
    It realizes every split of :func:`_splits` as exact integer positions
    and reads Z from their lag set, so ``dof_brute`` is ground truth whatever
    the closed forms claim.
    """
    n_values = [whole_number(n, "n") for n in n_values]
    rows = []
    for variant in variants:
        variant = normalize_variant(variant)
        found = _search(variant, n_values)
        for n in n_values:
            if n not in found:
                raise UnsupportedSizeError(
                    f"no feasible {variant} split exists at N={n}", minimum=None
                )
            dof_brute, n1, m1, m2 = found[n]
            # below minimum_sensors the closed form is infeasible by definition,
            # so this matches split_closed_form without repeating its warning
            closed = _attempt_closed_form(variant, n)
            dof_closed = None if closed is None else dof_closed_form(closed[0])
            rows.append(SweepRow(
                variant=variant, N=n, N1=n1, N2=n - n1, M1=m1, M2=m2,
                J=geometry.split_sizes(variant, m1, m2)[1],
                dof_closed=dof_closed, dof_brute=dof_brute,
                agreement=dof_closed == dof_brute,
            ))
    return rows


def brute_force_split(variant: str, n: int) -> SweepRow:
    """The row of :func:`dof_sweep` at the one size ``n``: the best split
    the exhaustive search finds, against the closed form."""
    return dof_sweep([variant], [n])[0]
