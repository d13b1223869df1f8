"""Calibration cases pitting the Fock-space evolution against the filter formulas.

Each case evolves a small atom+modes system exactly through a pulsed sequence
and compares the surviving coherence magnitude with exp(-Gamma) predicted by
the discrete-mode exponent.  Agreement across dimensions, schemes and cycle
counts pins down every sign and ordering convention at once; the tests keep
a negative control, the prediction under a wrong sign convention, that must
fail every case.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .fock_oracle import ModeSpec, evolve_pulsed
from .kernel import exponent_filters
from .operators import build_decoupling_group, check_transition
from .schedules import ScheduleSpec, Scheme, check_real

CALIBRATION_TOL = 1e-6


@dataclass(frozen=True)
class CalibrationCase:
    name: str
    n: int
    cycles: int
    scheme: Scheme
    total_time: float
    temperature: float
    modes: tuple[ModeSpec, ...]


@dataclass(frozen=True)
class CalibrationResult:
    case: CalibrationCase
    observed_ratio: float
    phase_shift: float
    predicted_exponent: float

    @property
    def observed_exponent(self) -> float:
        return -math.log(self.observed_ratio)

    @property
    def rel_error(self) -> float:
        """Relative mismatch of the observed and predicted coherence ratios."""
        predicted = math.exp(-self.predicted_exponent)
        return abs(self.observed_ratio - predicted) / predicted

    @property
    def passed(self) -> bool:
        return self.rel_error <= CALIBRATION_TOL


def _mode_per_transition(n: int, omega: float, coupling: float,
                         fock_dim: int) -> tuple[ModeSpec, ...]:
    """One mode on every transition; mode k at omega*(1+0.1k), coupling*(1-0.12k)."""
    return tuple(
        ModeSpec(transition=k, omega=omega * (1 + 0.1 * k),
                 coupling=coupling * (1 - 0.12 * k), fock_dim=fock_dim)
        for k in range(n - 1)
    )


def default_calibration_cases() -> tuple[CalibrationCase, ...]:
    """Cases covering n in {2,...,6}, N in {1,2,50}, 1-2 modes per transition,
    weakly coupled except at n=5; the n=6 case is the reference schedule with
    a mode just below the cutoff on every transition."""
    return (
        CalibrationCase(
            name="n2-pdd-single-mode",
            n=2, cycles=1, scheme=Scheme.PDD, total_time=2.0, temperature=1.0,
            modes=(ModeSpec(transition=0, omega=1.0, coupling=0.1, fock_dim=25),),
        ),
        CalibrationCase(
            name="n2-udd-two-modes",
            n=2, cycles=2, scheme=Scheme.UDD, total_time=1.5, temperature=0.8,
            modes=(
                ModeSpec(transition=0, omega=0.9, coupling=0.08, fock_dim=21),
                ModeSpec(transition=0, omega=1.7, coupling=0.05j, fock_dim=11),
            ),
        ),
        CalibrationCase(
            name="n3-pdd-mode-per-transition",
            n=3, cycles=1, scheme=Scheme.PDD, total_time=2.0, temperature=0.5,
            modes=(
                ModeSpec(transition=0, omega=1.1, coupling=0.07, fock_dim=11),
                ModeSpec(transition=1, omega=1.4, coupling=0.06, fock_dim=9),
            ),
        ),
        CalibrationCase(
            name="n3-udd-mode-per-transition",
            n=3, cycles=2, scheme=Scheme.UDD, total_time=1.8, temperature=0.5,
            modes=(
                ModeSpec(transition=0, omega=1.1, coupling=0.07, fock_dim=11),
                ModeSpec(transition=1, omega=1.4, coupling=0.06, fock_dim=9),
            ),
        ),
        CalibrationCase(
            name="n3-pdd-two-modes-per-transition",
            n=3, cycles=1, scheme=Scheme.PDD, total_time=1.5, temperature=0.25,
            modes=(
                ModeSpec(transition=0, omega=1.0, coupling=0.05, fock_dim=6),
                ModeSpec(transition=0, omega=1.5, coupling=0.04, fock_dim=4),
                ModeSpec(transition=1, omega=1.2, coupling=0.05, fock_dim=5),
                ModeSpec(transition=1, omega=1.6, coupling=0.03, fock_dim=4),
            ),
        ),
        CalibrationCase(
            name="n4-pdd-mode-per-transition",
            n=4, cycles=1, scheme=Scheme.PDD, total_time=2.0, temperature=0.5,
            modes=_mode_per_transition(4, omega=1.2, coupling=0.06, fock_dim=12),
        ),
        CalibrationCase(
            name="n5-udd-mode-per-transition",
            n=5, cycles=2, scheme=Scheme.UDD, total_time=1.8, temperature=0.5,
            # strong enough that a filter centred on the wrong slot misses by >10x tol
            modes=_mode_per_transition(5, omega=1.2, coupling=0.5, fock_dim=12),
        ),
        CalibrationCase(
            name="n6-udd-reference-schedule",
            n=6, cycles=50, scheme=Scheme.UDD, total_time=2.5, temperature=20.0,
            modes=_mode_per_transition(6, omega=95.0, coupling=2.0, fock_dim=12),
        ),
    )


def discrete_decay_exponent(modes, temperature: float, schedule: ScheduleSpec) -> float:
    """Total predicted exponent sum_k (1/2)|j_k chi(w_k)|^2 coth(w_k/(2 Tp)).

    Each mode contributes its own transition's entry of the rows that the
    curve's quadrature integrates, exponent_filters, here weighted by
    (1/2)|j|^2 coth(w/(2 Tp)); this is the discrete-bath counterpart of the
    continuum integral and the quantity the Fock evolution must reproduce.
    """
    temperature = check_real("temperature", "temperature", temperature, 0, True)
    for mode in modes:
        check_transition(schedule.n, mode.transition)
    weights = [0.5 * abs(mode.coupling) ** 2 / math.tanh(mode.omega / (2.0 * temperature))
               for mode in modes]
    rows = exponent_filters([mode.omega for mode in modes], schedule, weights)
    total = 0.0
    for mode, row in zip(modes, rows.tolist()):
        total += row[mode.transition]
    return total


def run_case(case: CalibrationCase) -> CalibrationResult:
    """Evolve one case exactly and compare with the predicted coherence ratio;
    the case passes within ``CALIBRATION_TOL``."""
    schedule = ScheduleSpec(case.scheme, case.n, case.cycles, case.total_time)
    group = build_decoupling_group(case.n)
    factor = evolve_pulsed(case.modes, schedule, group, case.temperature)
    return CalibrationResult(
        case=case,
        observed_ratio=abs(factor),
        phase_shift=cmath.phase(factor),
        predicted_exponent=discrete_decay_exponent(case.modes, case.temperature, schedule),
    )


def run_calibration_suite(
    cases: tuple[CalibrationCase, ...] | None = None,
) -> list[CalibrationResult]:
    if cases is None:
        cases = default_calibration_cases()
    return [run_case(case) for case in cases]
