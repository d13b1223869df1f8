"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see every line.

Criterion 6 checks the PDD/UDD ordering the model predicts for the reference
scenario.  UDD's advantage rests on the bath spectrum being cut off sharply
above the pulse rate.  The first passband of a period-n cycle filter sits at
2*pi/(n*gap), and UDD's widest pulse gap is pi/2 times the PDD gap, so UDD's
passband reaches the cutoff first, at T_U = 2*pi/(n*w_c*g_max) (about 2.0 at
the reference parameters; PDD's at about pi).  Below the crossover UDD keeps
more coherence than PDD, above it less, and the flip sits just below T_U.
The oracle test at the bottom replays the reference schedule (n=6, N=50) in
Fock space on both sides of the flip.  See the README for the full account.
"""

import dataclasses
import math

import numpy as np
import pytest

from ladder_dd.calibration import (
    CALIBRATION_TOL,
    CalibrationCase,
    run_calibration_suite,
    run_case,
)
from ladder_dd.cli import DEFAULT_T_MAX, EXIT_OK, main
from ladder_dd.fock_oracle import ModeSpec, discrete_decay_exponent
from ladder_dd.kernel import (
    BathSpec,
    decay_exponents,
    decay_integrand,
)
from ladder_dd.operators import (
    build_decoupling_group,
    group_average,
    max_abs,
    sigma_z,
    verify_decoupling,
)
from ladder_dd.schedules import Scheme, ScheduleSpec
from ladder_dd.kernel import sweep_curve
from references import miswired_exponent

REFERENCE_BATH = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)


def coherence_ratio(schedule, bath):
    """Surviving fraction P(T) = exp(-sum_k Gamma_k) of the (0,1) coherence."""
    return float(np.exp(-decay_exponents(schedule, bath).gamma.sum()))


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def _reference_template(scheme: Scheme) -> ScheduleSpec:
    return ScheduleSpec(scheme=scheme, n=6, cycles=50, total_time=1.0)


def test_criterion_1_decoupling_condition():
    worst = 0.0
    for n in range(2, 9):
        worst = max(worst, *verify_decoupling(n))
    _report(1, "decoupling condition n=2..8", worst <= 1e-12,
            f"worst residual {worst:.2e}")


def test_criterion_2_group_structure():
    worst_power = 0.0
    worst_scalar = 0.0
    for n in range(2, 9):
        group = build_decoupling_group(n)
        power = np.eye(n, dtype=complex)
        for element in group:
            worst_power = max(worst_power, max_abs(element - power))
            power = power @ group[1]
        nth = np.linalg.matrix_power(group[1], n)
        scalar = nth[0, 0]
        worst_scalar = max(
            worst_scalar, abs(abs(scalar) - 1), max_abs(nth - scalar * np.eye(n))
        )
    ok = worst_power <= 1e-12 and worst_scalar <= 1e-12
    _report(2, "group powers and closure n=2..8", ok,
            f"powers {worst_power:.2e}, closure {worst_scalar:.2e}")


def test_criterion_3_schedule_invariants():
    worst_sum = worst_uniform = worst_symmetry = 0.0
    for n in range(2, 7):
        for cycles in (1, 2, 50):
            for scheme in (Scheme.PDD, Scheme.UDD):
                total_time = 2.5
                schedule = ScheduleSpec(scheme, n, cycles, total_time)
                worst_sum = max(
                    worst_sum, abs(schedule.segments.sum() - total_time) / total_time
                )
                if scheme is Scheme.PDD:
                    spread = schedule.segments.max() - schedule.segments.min()
                    worst_uniform = max(worst_uniform, spread / total_time)
                else:
                    fr = schedule.fractions
                    mirror = np.abs(fr + fr[::-1] - 1.0).max()
                    worst_symmetry = max(worst_symmetry, mirror)
    ok = worst_sum <= 1e-12 and worst_uniform <= 1e-12 and worst_symmetry <= 1e-14
    _report(3, "schedule sums, uniformity, symmetry", ok,
            f"sum {worst_sum:.2e}, uniform {worst_uniform:.2e}, "
            f"mirror {worst_symmetry:.2e}")


def test_criterion_4_oracle_equivalence():
    results = run_calibration_suite()
    for result in results:
        print(f"  case {result.case.name}: observed {result.observed_ratio:.9f} "
              f"predicted {math.exp(-result.predicted_exponent):.9f} rel {result.rel_error:.2e}")
    worst = max(result.rel_error for result in results)
    _report(4, "Fock evolution vs filter formulas (n=2..6)",
            all(result.passed for result in results),
            f"worst relative deviation {worst:.2e}")


def test_criterion_5_quadrature_robustness():
    total_time = 2.5
    panels = 2**20  # >= 1e6 uniform midpoint panels
    worst_riemann = 0.0
    worst_depth = 0.0
    for scheme in (Scheme.PDD, Scheme.UDD):
        schedule = ScheduleSpec(scheme, 6, 50, total_time)
        adaptive = decay_exponents(schedule, REFERENCE_BATH)
        width = REFERENCE_BATH.cutoff / panels
        nodes = (np.arange(panels) + 0.5) * width
        riemann = np.zeros(5)
        chunk = 65536
        for start in range(0, panels, chunk):
            rows = decay_integrand(nodes[start : start + chunk], schedule, REFERENCE_BATH)
            riemann += rows.sum(axis=1)
        riemann *= width
        worst_riemann = max(
            worst_riemann, np.max(np.abs(adaptive.gamma - riemann) / riemann)
        )
        deeper = decay_exponents(schedule, REFERENCE_BATH, extra_levels=1)
        worst_depth = max(
            worst_depth,
            np.max(np.abs(adaptive.gamma - deeper.gamma) / np.abs(deeper.gamma)),
        )
    ok = worst_riemann <= 1e-6 and worst_depth <= 1e-6
    _report(5, "exponents vs 2^20-panel Riemann sum", ok,
            f"riemann {worst_riemann:.2e}, extra depth {worst_depth:.2e}")


def test_criterion_6_reference_scenario_ordering():
    grid = np.linspace(DEFAULT_T_MAX / 60, DEFAULT_T_MAX, 60)
    pdd = sweep_curve(_reference_template(Scheme.PDD), REFERENCE_BATH, grid)
    udd = sweep_curve(_reference_template(Scheme.UDD), REFERENCE_BATH, grid)
    spans = pdd.values.min() <= 0.35 and pdd.values.max() >= 0.99
    # UDD's first cycle-filter passband, 2*pi/(n*gap) at its widest gap,
    # reaches the cutoff at T_U
    uhrig = _reference_template(Scheme.UDD)
    g_max = uhrig.segments.max() / uhrig.total_time
    t_u = 2 * math.pi / (uhrig.n * REFERENCE_BATH.cutoff * g_max)
    lead = udd.values - pdd.values
    flips = np.flatnonzero(np.sign(lead[1:]) != np.sign(lead[:-1]))
    single = flips.size == 1
    detail = (f"grid spans P_pdd [{pdd.values.min():.3f}, {pdd.values.max():.3f}]; "
              f"T_U = {t_u:.3f}; {flips.size} sign change(s)")
    in_window = False
    if single:
        cut = flips[0] + 1
        strict = np.all(lead[:cut] > 0) and np.all(lead[cut:] < 0)
        # a finite train of M pulses has a passband of finite width, so the
        # bath starts leaking in somewhat before the passband centre reaches
        # the cutoff; 10% of T_U covers that width
        low, high = grid[cut - 1], grid[cut]
        in_window = strict and 0.9 * t_u <= low and high <= t_u
        detail += (f" between T={low:.3f} and T={high:.3f} "
                   f"({low / t_u:.3f}-{high / t_u:.3f} T_U)")
    _report(6, "UDD above PDD below T_U, below it after one flip in [0.9, 1] T_U",
            bool(spans and single and in_window), detail)


def test_criterion_7_analytic_limits():
    template = ScheduleSpec(Scheme.PDD, 6, 50, 1e-9)
    short = coherence_ratio(template, REFERENCE_BATH)
    short_ok = abs(short - 1.0) <= 1e-9

    decoupled = BathSpec(alpha=0.0, cutoff=100.0, temperature=150.0)
    flat_ok = all(
        coherence_ratio(ScheduleSpec(Scheme.UDD, 6, 50, t), decoupled) == 1.0
        for t in (0.5, 2.0, 3.0)
    )

    schedule = ScheduleSpec(Scheme.PDD, 6, 50, 2.0)
    base = coherence_ratio(schedule, REFERENCE_BATH)
    power_ok = True
    for c in (0.5, 2.0):
        scaled_bath = BathSpec(alpha=0.25 * c, cutoff=100.0, temperature=150.0)
        scaled = coherence_ratio(schedule, scaled_bath)
        power_ok = power_ok and math.isclose(scaled, base**c, rel_tol=1e-9)
    _report(7, "P(T->0)=1, P(alpha=0)=1, power law in alpha",
            short_ok and flat_ok and power_ok,
            f"short {abs(short - 1.0):.1e}")


def test_criterion_8_deterministic_output(tmp_path):
    args = ["curve", "--t-points", "10", "--out"]
    paths = [tmp_path / f"run{i}.csv" for i in range(3)]
    workers = ["1", "1", "4"]
    for path, count in zip(paths, workers):
        assert main(args + [str(path), "--workers", count]) == EXIT_OK
    blobs = [path.read_bytes() for path in paths]
    ok = blobs[0] == blobs[1] == blobs[2]
    _report(8, "byte-identical CSV across reruns and worker counts", ok,
            f"{len(blobs[0])} bytes")


def test_udd_dominance_in_storage_regime():
    # companion demonstration: in the regime where decoupling is doing its
    # job (coherence near one), Uhrig timing beats periodic timing pointwise
    # and extends the storage time severalfold
    grid = np.linspace(0.03, 1.8, 60)
    pdd = sweep_curve(_reference_template(Scheme.PDD), REFERENCE_BATH, grid)
    udd = sweep_curve(_reference_template(Scheme.UDD), REFERENCE_BATH, grid)
    assert np.all(udd.values >= pdd.values)
    interior = pdd.values <= 0.999
    assert interior.sum() >= 40
    assert np.all(udd.values[interior] > pdd.values[interior])
    # storage time at the 1% coherence-loss threshold
    t_pdd = grid[pdd.values >= 0.99][-1]
    t_udd = grid[udd.values >= 0.99][-1]
    assert t_udd / t_pdd >= 2.0
    print(f"  storage time at 1% loss: periodic {t_pdd:.3f}, uhrig {t_udd:.3f} "
          f"({t_udd / t_pdd:.1f}x)")


def test_reference_schedule_oracle():
    # the n=6, N=50 reference schedule replayed in Fock space with one mode
    # just below the cutoff, on both sides of the PDD/UDD flip of criterion 6;
    # transitions 2 and 4 have mirror-image slot stencils, centred on slots 2 and 4
    exponents = {}
    for scheme in (Scheme.PDD, Scheme.UDD):
        for total_time in (1.5, 2.5):
            for transition in (0, 2, 4):
                mode = ModeSpec(transition=transition, omega=95.0, coupling=2.0,
                                fock_dim=12)
                case = CalibrationCase(
                    name=f"n6-{scheme.value}-T{total_time}-k{transition}",
                    n=6, cycles=50, scheme=scheme, total_time=total_time,
                    temperature=20.0, modes=(mode,),
                )
                result = run_case(case)
                print(f"  case {case.name}: observed {result.observed_exponent:.6e} "
                      f"predicted {result.predicted_exponent:.6e} "
                      f"rel {result.rel_error:.2e}")
                assert result.rel_error <= CALIBRATION_TOL, case.name
                if result.predicted_exponent >= 1e-6:
                    assert math.isclose(result.observed_exponent,
                                        result.predicted_exponent, rel_tol=1e-6), case.name
                schedule = ScheduleSpec(scheme, 6, 50, total_time)
                control = dataclasses.replace(result, predicted_exponent=miswired_exponent(
                    case.modes, case.temperature, schedule))
                assert not control.passed, case.name
                exponents[scheme, total_time, transition] = result.observed_exponent
    for transition in (0, 2, 4):
        assert (exponents[Scheme.UDD, 1.5, transition]
                < exponents[Scheme.PDD, 1.5, transition])
        assert (exponents[Scheme.UDD, 2.5, transition]
                > exponents[Scheme.PDD, 2.5, transition])

    # modes on transitions 2 and 3 at different strengths: under UDD past the
    # flip, relabelling the transition-2 mode as transition 4 (its filter centred
    # on slot 4 instead of slot 2) moves the prediction past the tolerance
    modes = (ModeSpec(transition=2, omega=95.0, coupling=2.0, fock_dim=6),
             ModeSpec(transition=3, omega=95.0, coupling=1.2, fock_dim=6))
    case = CalibrationCase(name="n6-udd-T2.5-k2-k3", n=6, cycles=50, scheme=Scheme.UDD,
                           total_time=2.5, temperature=20.0, modes=modes)
    result = run_case(case)
    assert result.passed, result.rel_error
    schedule = ScheduleSpec(case.scheme, case.n, case.cycles, case.total_time)
    relabelled = (dataclasses.replace(modes[0], transition=4), modes[1])
    predicted = math.exp(-discrete_decay_exponent(relabelled, case.temperature, schedule))
    miss = abs(result.observed_ratio - predicted) / predicted
    print(f"  case {case.name}: rel {result.rel_error:.2e}, relabelled k2->k4 {miss:.2e}")
    assert miss > CALIBRATION_TOL
