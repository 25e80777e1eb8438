"""Sensor-split optimization for TO-SDA arrays.

Closed-form DOF-maximizing splits exist for all three generator
families; an exhaustive integer-split search doubles as the ground
truth.  Whenever the two disagree the disagreement is surfaced, never
silently resolved, because the closed forms are only as good as the
rounding conventions they were printed with.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Optional

from . import coarray, geometry
from .errors import (
    GeometryInconsistencyError,
    InvalidParameterError,
    UnsupportedSizeError,
)
from .geometry import DesignParams, normalize_variant

log = logging.getLogger(__name__)

_MINIMUM_CACHE: dict[str, int] = {}
_MINIMUM_SCAN_LIMIT = 64


def round_half_up(x: float) -> int:
    """Round to nearest integer, halves away from the floor (2.5 -> 3)."""
    return math.floor(x + 0.5)


class _SplitInfeasible(Exception):
    """Internal: requested N admits no valid split on this path."""


# what an infeasible split raises; any other exception is a bug and propagates
_INFEASIBLE = (_SplitInfeasible, InvalidParameterError, GeometryInconsistencyError)


def continuous_optimum_n1(variant: str, n: int) -> float:
    """Stationary point of the relaxed DOF objective in the generator size."""
    variant = normalize_variant(variant)
    if variant == "cna":
        return (4 * n + math.sqrt((4 * n + 15) ** 2 + 672) - 21) / 12
    if variant == "scna":
        return (4 * n + math.sqrt((4 * n + 15) ** 2 + 288) - 21) / 12
    return (3 + 4 * n + math.sqrt((4 * n - 9) ** 2 + 36)) / 12


def _lambda_values(variant: str, m1: int, m2: int, j: Optional[int], n: int):
    if variant == "cna":
        unit = (m1 - 1) + m2 * (m1 + 1)
        return 2 * unit, 3 * unit
    if variant == "scna":
        unit = (2 * m1 + m2) + m1 * (m2 - 1)
        return 2 * unit, 3 * unit
    core = m1 * (m2 + 1) + j
    if 9 <= n <= 14:
        return 2 * core - 2, 3 * core - 2
    return 2 * core, 3 * core


def lambda_pair(variant: str, params: DesignParams) -> tuple[int, int]:
    """Longest consecutive second-/third-order sum co-array run lengths."""
    variant = normalize_variant(variant)
    return _lambda_values(variant, params.M1, params.M2, params.J, params.N)


def dof_closed_form(variant: str, params: DesignParams) -> int:
    """Consecutive-lag count predicted by the variant's closed form."""
    variant = normalize_variant(variant)
    m1, m2, n2 = params.M1, params.M2, params.N2
    if variant == "cna":
        return (6 + 8 * n2) * ((m1 - 1) + m2 * (m1 + 1)) + 2 * n2 + 1
    if variant == "scna":
        return (6 + 8 * n2) * (m1 + m2 * (m1 + 1)) + 2 * n2 + 1
    core = m1 * (m2 + 1) + params.J
    if 9 <= params.N <= 14:
        return 2 * (5 + 4 * n2) * core - 6 * n2 - 5
    return 2 * ((4 * n2 + 1) * core + (n2 - 1) + 4 * m1 * (m2 + 1) + 4 * params.J) + 1


def _params_from_split(
    variant: str, n: int, n1: int, m1: int, m2: int, j: Optional[int]
) -> DesignParams:
    n2 = n - n1
    if m1 < 1 or m2 < 1 or n2 < 1:
        raise _SplitInfeasible(f"split ({m1}, {m2}, {n2}) leaves an empty sub-array")
    lam1, lam2 = _lambda_values(variant, m1, m2, j, n)
    return DesignParams(
        variant=variant,
        N=n,
        N1=n1,
        N2=n2,
        M1=m1,
        M2=m2,
        J=j,
        delta1=lam1 + lam2 + 1,
        delta2=2 * lam1 + 1,
        lambda1=lam1,
        lambda2=lam2,
    )


def _realized_dof(params: DesignParams) -> int:
    gen = geometry.build_generator(params.variant, params.M1, params.M2, params.J)
    arr = geometry.build_gtoa(gen, params.delta1, params.delta2, params.N2)
    return 2 * coarray.to_eca(arr).one_sided_z + 1


def _attempt_closed_form(variant: str, n: int, quiet: bool = False) -> DesignParams:
    n1_star = continuous_optimum_n1(variant, n)
    if variant in ("cna", "scna"):
        n1 = round_half_up(n1_star)
        m1 = round_half_up((n1 - 1) / 4)
        m2 = n1 - 2 * m1
        params = _params_from_split(variant, n, n1, m1, m2, None)
        geometry.build_generator(variant, m1, m2)  # cardinality check
        return params

    # TNA-II: the printed rounding can produce an inconsistent generator
    # (a segment can come out empty), so when the direct split fails its
    # cardinality check we search the ceil/floor rounding variants and
    # keep the one with the highest realized consecutive-lag count.
    def candidates():
        seen = set()
        for n1 in (round_half_up(n1_star), math.ceil(n1_star), math.floor(n1_star)):
            m2_star = (2 * n1 - 1) / 4
            for m2 in (round_half_up(m2_star), math.ceil(m2_star), math.floor(m2_star)):
                key = (n1, m2)
                if key in seen:
                    continue
                seen.add(key)
                yield n1, n1 - m2, m2

    def realize(n1, m1, m2):
        j = math.ceil(n1 / 2) - 1
        params = _params_from_split(variant, n, n1, m1, m2, j)
        geometry.build_generator(variant, m1, m2, j)
        return params

    first = True
    valid: list[tuple[int, DesignParams]] = []
    for n1, m1, m2 in candidates():
        try:
            params = realize(n1, m1, m2)
        except _INFEASIBLE:
            if first and not quiet:
                log.warning(
                    "TNA-II split for N=%d: direct rounding (N1=%d, M1=%d, M2=%d) "
                    "fails its cardinality check; falling back to rounding search",
                    n, n1, m1, m2,
                )
            first = False
            continue
        if first:
            return params  # the printed rounding worked, no search needed
        valid.append((_realized_dof(params), params))
    if not valid:
        raise _SplitInfeasible(f"no TNA-II rounding variant is feasible at N={n}")
    valid.sort(key=lambda item: (-item[0], item[1].N1, item[1].M1, item[1].M2))
    dof, params = valid[0]
    if not quiet:
        log.warning(
            "TNA-II fallback for N=%d chose (N1=%d, M1=%d, M2=%d, J=%d) with %d "
            "consecutive lags",
            n, params.N1, params.M1, params.M2, params.J, dof,
        )
    return params


def minimum_sensors(variant: str) -> int:
    """Smallest N whose closed-form split passes every invariant."""
    variant = normalize_variant(variant)
    if variant not in _MINIMUM_CACHE:
        for n in range(2, _MINIMUM_SCAN_LIMIT + 1):
            try:
                _attempt_closed_form(variant, n, quiet=True)
            except _INFEASIBLE:
                continue
            _MINIMUM_CACHE[variant] = n
            break
        else:  # pragma: no cover - all variants are feasible well below the limit
            raise InvalidParameterError(f"no feasible {variant} split up to N=64")
    return _MINIMUM_CACHE[variant]


def split_closed_form(variant: str, n: int) -> DesignParams:
    """DOF-maximizing sensor split via the closed-form expressions."""
    variant = normalize_variant(variant)
    minimum = minimum_sensors(variant)
    if n < minimum:
        raise UnsupportedSizeError(
            f"{geometry.VARIANT_LABELS[variant]} needs at least {minimum} "
            f"sensors, got {n}",
            minimum=minimum,
        )
    try:
        return _attempt_closed_form(variant, n)
    except _INFEASIBLE as exc:
        raise UnsupportedSizeError(
            f"no feasible {variant} split at N={n}: {exc}", minimum=minimum
        ) from exc


@dataclass(frozen=True)
class SplitResult:
    """Outcome of the exhaustive split search, cross-checked against the
    closed form.  ``agreement`` compares achieved consecutive-lag counts,
    not parameter tuples: distinct splits may tie."""

    params: DesignParams
    dof_closed_form: Optional[int]
    dof_brute_force: int
    agreement: bool


def _enumerate_splits(variant: str, n: int):
    for m1 in range(1, n + 1):
        for m2 in range(1, n + 1):
            if variant == "tna2":
                n1, j = m1 + m2, math.ceil((m1 + m2) / 2) - 1
            else:
                n1, j = 2 * m1 + m2, None
            if n1 < n:  # leaves N2 >= 1 tail sensors
                yield n1, m1, m2, j


def brute_force_split(variant: str, n: int) -> SplitResult:
    """Exhaustive search over all feasible integer splits.

    Every candidate geometry is actually realized and its exhaustive
    co-array enumerated, so the returned consecutive-lag count is ground
    truth regardless of what the closed forms claim.  Ties break toward
    the smaller generator, then lexicographically smaller (M1, M2, J).
    """
    variant = normalize_variant(variant)
    best: Optional[tuple[int, int, int, int, int, DesignParams]] = None
    for n1, m1, m2, j in _enumerate_splits(variant, n):
        try:
            params = _params_from_split(variant, n, n1, m1, m2, j)
            dof = _realized_dof(params)
        except _INFEASIBLE:
            continue  # inconsistent generator or empty sub-array: infeasible
        key = (-dof, n1, m1, m2, -1 if j is None else j)
        if best is None or key < best[:5]:
            best = (*key, params)
    if best is None:
        raise UnsupportedSizeError(
            f"no feasible {variant} split exists at N={n}", minimum=None
        )
    dof_bf = -best[0]
    params = best[5]

    dof_cf: Optional[int] = None
    try:
        dof_cf = dof_closed_form(variant, split_closed_form(variant, n))
    except UnsupportedSizeError:
        pass
    agreement = dof_cf == dof_bf
    if not agreement:
        log.warning(
            "%s N=%d: closed-form consecutive-lag count %s != brute force %d "
            "(best split N1=%d, M1=%d, M2=%d, J=%s)",
            variant, n, dof_cf, dof_bf,
            params.N1, params.M1, params.M2, params.J,
        )
    return SplitResult(
        params=params,
        dof_closed_form=dof_cf,
        dof_brute_force=dof_bf,
        agreement=agreement,
    )


@dataclass(frozen=True)
class SweepRow:
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
    """One row of closed-form vs brute-force DOF per (variant, N)."""
    rows = []
    for variant in variants:
        variant = normalize_variant(variant)
        for n in n_values:
            result = brute_force_split(variant, n)
            p = result.params
            rows.append(
                SweepRow(
                    variant=variant,
                    N=n,
                    N1=p.N1,
                    N2=p.N2,
                    M1=p.M1,
                    M2=p.M2,
                    J=p.J,
                    dof_closed=result.dof_closed_form,
                    dof_brute=result.dof_brute_force,
                    agreement=result.agreement,
                )
            )
    return rows
