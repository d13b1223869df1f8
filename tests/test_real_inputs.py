"""Every real input of the model takes one rule, ``schedules.check_real``, or an
interval test over the same numbers: a bool, a string, None, a complex, an int
too large for a float, nan and +-inf are a ValueError that names the field, and
any other finite real (numpy scalars, Fractions, ints) gives the bits that its
float gives."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from ladder_dd.calibration import discrete_decay_exponent
from ladder_dd.cli import RunConfig, _curve_csv
from ladder_dd.fock_oracle import ModeSpec, evolve_pulsed, thermal_populations
from ladder_dd.kernel import BathSpec, ConvergenceError, decay_exponents
from ladder_dd.operators import build_decoupling_group
from ladder_dd.schedules import Scheme, ScheduleSpec

BATH = dict(alpha=0.25, cutoff=10.0, temperature=2.0)
MODE = dict(transition=0, omega=3.0, coupling=0.1, fock_dim=30)
SCHEDULE = ScheduleSpec(Scheme.PDD, 2, 1, 1.0)
GROUP = build_decoupling_group(2)
# a cheap curve run: two points of one scheme on the smallest atom
RUN = dict(n=2, cycles=1, scheme="pdd", t_points=2, t_max=2.0)


def _exponents(result):
    return result.gamma, result.quadrature_points, result.estimated_relative_error


def _bath(**field):
    return _exponents(decay_exponents(SCHEDULE, BathSpec(**BATH | field)))


def _mode(**field):
    modes = (ModeSpec(**MODE | field),)
    return (evolve_pulsed(modes, SCHEDULE, GROUP, 0.5),
            discrete_decay_exponent(modes, 0.5, SCHEDULE))


def _run(**field):
    return _curve_csv(RunConfig(**RUN | field))


MODE_SPEC = ModeSpec(**MODE)
ORACLE_TEMPERATURE = ("temperature must be finite and > 0, got temperature=",
                      [np.float32(0.3), np.int64(1), Fraction(1, 3), 1])

# field: (call with the value, how the error names it, finite values it accepts)
FIELDS = {
    "BathSpec.alpha": (lambda v: _bath(alpha=v), "alpha must be finite and >= 0, got alpha=",
                       [np.float32(0.3), np.int64(2), Fraction(1, 3), 2]),
    "BathSpec.cutoff": (lambda v: _bath(cutoff=v), "cutoff must be finite and > 0, got cutoff=",
                        [np.float32(7.5), np.int64(8), Fraction(25, 3), 9]),
    "BathSpec.temperature": (
        lambda v: _bath(temperature=v), "temperature must be finite and > 0, got temperature=",
        [np.float32(0.3), np.int64(2), Fraction(1, 3), 3]),
    "ScheduleSpec.total_time": (
        lambda v: _exponents(decay_exponents(ScheduleSpec(Scheme.PDD, 2, 1, v), BathSpec(**BATH))),
        "total time must be finite and > 0, got total_time=",
        [np.float32(0.7), np.int64(2), Fraction(1, 3), 1]),
    "ModeSpec.omega": (lambda v: _mode(omega=v),
                       "mode omega (frequency) must be finite and > 0, got omega=",
                       [np.float32(2.5), np.int64(3), Fraction(7, 3), 2]),
    "ModeSpec.coupling": (lambda v: _mode(coupling=v),
                          "mode coupling must be finite, got coupling=",
                          [np.float32(0.1), np.int64(1), Fraction(1, 10), 1]),
    "RunConfig.t_max": (lambda v: _run(t_max=v), "t_max must be finite and > 0, got t_max=",
                        [np.float32(0.7), np.int64(2), Fraction(5, 3), 1]),
    "RunConfig.t_min": (lambda v: _run(t_min=v), "t_min must be finite and >= 0, got t_min=",
                        [np.float32(0.7), np.int64(1), Fraction(1, 3), 0]),
    "RunConfig.quad_tolerance": (lambda v: _run(quad_tolerance=v),
                                 "quad_tolerance must be in [1e-14, 1e-2], got ",
                                 [np.float32(1e-3), Fraction(1, 1000)]),
    "decay_exponents.rel_tol": (
        lambda v: _exponents(decay_exponents(SCHEDULE, BathSpec(**BATH), rel_tol=v)),
        "rel_tol must be finite and in (0, 1), got ", [np.float32(1e-3), Fraction(1, 10**4)]),
    "thermal_populations.temperature": (lambda v: thermal_populations(MODE_SPEC, v),
                                        *ORACLE_TEMPERATURE),
    "evolve_pulsed.temperature": (lambda v: evolve_pulsed((MODE_SPEC,), SCHEDULE, GROUP, v),
                                  *ORACLE_TEMPERATURE),
    "discrete_decay_exponent.temperature": (
        lambda v: discrete_decay_exponent((MODE_SPEC,), v, SCHEDULE), *ORACLE_TEMPERATURE),
}

# each once passed as 1.0 or 0.0 (bools) or failed with a bare TypeError or OverflowError
EDGES = [True, False, "2", None, 1 + 0j, 10**400, math.nan, math.inf, -math.inf]

# None is t_min's default (t_max / t_points), and a complex value is a coupling
VALID_EDGES = {("RunConfig.t_min", None), ("ModeSpec.coupling", 1 + 0j)}


def _bits(result):
    """A comparable form of a call's result that sees every bit."""
    if isinstance(result, str):
        return result
    if isinstance(result, tuple):
        return tuple(_bits(part) for part in result)
    array = np.asarray(result)
    return array.dtype.str, array.shape, array.tobytes()


@pytest.mark.parametrize("field, value", [
    (field, value) for field in FIELDS for value in EDGES if (field, value) not in VALID_EDGES
], ids=lambda value: value if isinstance(value, str) and "." in value else repr(value)[:12])
def test_edge_value_is_named(field, value):
    call, message, _ = FIELDS[field]
    text = repr(value) if message.endswith("=") else str(value)
    with pytest.raises(ValueError, match=f"^{re.escape(message + text)}$"):
        call(value)


@pytest.mark.parametrize("field, value", [
    (field, value) for field, (_, _, values) in FIELDS.items() for value in values
], ids=lambda value: value if isinstance(value, str) else f"{type(value).__name__}({value})")
def test_finite_real_gives_the_bits_of_its_float(field, value):
    call = FIELDS[field][0]
    assert _bits(call(value)) == _bits(call(float(value)))


def test_fraction_tolerance_is_named_in_a_convergence_failure():
    # the message formatted the tolerance with :g, which a Fraction does not take
    with pytest.raises(ConvergenceError, match="^decay exponents did not converge to "
                                               "rel_tol=1e-30 within 12 doublings"):
        decay_exponents(SCHEDULE, BathSpec(**BATH), rel_tol=Fraction(1, 10**30))
