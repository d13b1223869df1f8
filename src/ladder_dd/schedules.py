"""Pulse timing schedules: periodic, Uhrig and custom pulse fractions.

A run of N decoupling cycles on an n-level atom places M = n*N - 1 pulses
strictly inside (0, T), plus one closing pulse at T itself.  A schedule is
fixed by the ordered fractions delta_1 < ... < delta_M at which the interior
pulses fire.  With delta_0 = 0 and delta_{nN} = 1 appended, the fraction
differences give the free-evolution segment lengths, grouped n per cycle.
ScheduleSpec is the one schedule type: it holds the scheme, n, N and T, and
derives the fractions, boundaries and segments from them on first use.

Periodic scheduling spaces the pulses uniformly, delta_i = i/(M+1).  Uhrig
scheduling uses delta_i = sin^2(i*pi/(2M+2)), which crowds pulses toward both
ends of the run and suppresses dephasing to higher order for the same pulse
count.  Custom fraction lists are accepted as-is after validation.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class Scheme(enum.Enum):
    PDD = "pdd"
    UDD = "udd"
    CUSTOM = "custom"


def check_count(label: str, name: str, value, low: int) -> None:
    """Raise a ValueError unless ``value`` is an int or numpy integer (no bool) >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{label} must be an int >= {low}, got {name}={value!r}")


def as_number(value, kind: type) -> float | complex:
    """``value`` as a ``kind``, float or complex, if it is a number of that kind but
    no bool and the conversion does not overflow; else nan, which no range admits."""
    if type(value) is not kind and (isinstance(value, bool) or not isinstance(
            value, numbers.Real if kind is float else numbers.Complex)):
        return math.nan
    try:
        return kind(value)
    except OverflowError:
        return math.nan


def check_real(label: str, name: str, value, low: float, strict: bool) -> float:
    """``value`` as a float; a ValueError unless it is a finite real (no bool)
    above ``low``, or equal to ``low`` unless ``strict``."""
    number = as_number(value, float)
    if not (math.isfinite(number) and (number > low if strict else number >= low)):
        raise ValueError(f"{label} must be finite and {'>' if strict else '>='} {low}, "
                         f"got {name}={value!r}")
    return number


def pulse_count(n: int, cycles: int) -> int:
    """Number of interior pulses, n*cycles - 1 (the pulse at T is separate)."""
    check_count("atom dimension", "n", n, 2)
    check_count("cycle count", "cycles", cycles, 1)
    return n * cycles - 1


def _validate_custom(fractions: tuple[float, ...], expected: int) -> None:
    if len(fractions) != expected:
        raise ValueError(f"custom fractions: expected {expected} values (n*cycles - 1), "
                         f"got {len(fractions)}")
    prev = 0.0
    for idx, value in enumerate(fractions):
        number = as_number(value, float)
        if not 0.0 < number < 1.0:
            raise ValueError(f"custom fractions: value {value!r} at index {idx} outside (0, 1)")
        if number <= prev:
            raise ValueError(f"custom fractions: value {value!r} at index {idx} not strictly "
                             f"increasing")
        prev = number


@dataclass(frozen=True)
class ScheduleSpec:
    """A run's pulse schedule: scheme, atom dimension, cycle count and total
    duration, validated on construction.

    The arrays derive from the fields on first use and are kept.
    ``boundaries`` holds the nN+1 absolute instants 0 = t_0 < t_1 < ... <
    t_{nN} = T bounding the free-evolution segments.  ``segments[j-1, i-1]``
    is the i-th segment of cycle j; segment (j, i) spans the boundary pair
    with flat index m = (j-1)*n + i.  Equality and hashing see the fields only.
    """

    scheme: Scheme
    n: int
    cycles: int
    total_time: float
    custom_fractions: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        count = pulse_count(self.n, self.cycles)
        object.__setattr__(self, "total_time",
                           check_real("total time", "total_time", self.total_time, 0, True))
        if self.scheme is Scheme.CUSTOM:
            if self.custom_fractions is None:
                raise ValueError("custom scheme requires an explicit fraction list")
            _validate_custom(self.custom_fractions, count)
        elif self.custom_fractions is not None:
            raise ValueError(f"scheme {self.scheme.value} does not take custom fractions")

    @cached_property
    def fractions(self) -> np.ndarray:
        """The interior pulse fractions delta_i, i = 1..M, from the scheme's
        closed form: never accumulated, so large pulse counts do not drift.
        UDD's are symmetric: delta_i + delta_{M+1-i} = 1 up to round-off."""
        if self.scheme is Scheme.CUSTOM:
            return np.asarray(self.custom_fractions, dtype=float)
        m = self.n * self.cycles - 1
        i = np.arange(1, m + 1, dtype=float)
        if self.scheme is Scheme.PDD:
            return i / (m + 1)
        return np.sin(i * math.pi / (2 * m + 2)) ** 2

    @cached_property
    def boundaries(self) -> np.ndarray:
        return np.concatenate(([0.0], self.fractions, [1.0])) * self.total_time

    @cached_property
    def segments(self) -> np.ndarray:
        return np.diff(self.boundaries).reshape(self.cycles, self.n)


def build_schedule(spec: ScheduleSpec) -> ScheduleSpec:
    """Return ``spec``, whose arrays derive on first use.

    Kept as a name only: perfbench counts the curve's points by wrapping
    ``kernel.build_schedule``, and its reference script calls it.
    """
    return spec


def fractions_text(fractions: np.ndarray) -> str:
    """One fraction per line, 17 significant digits (binary64 round-trip)."""
    return "".join(f"{value:.17g}\n" for value in np.asarray(fractions, dtype=float))


def parse_fractions_text(text: str, source: str) -> tuple[float, ...]:
    """Inverse of fractions_text; skips blank lines and '#' comments.  A line
    that is not a number raises a ValueError naming ``source`` and the line."""
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise ValueError(f"{source}:{lineno}: not a number: {line!r}") from None
    return tuple(values)
