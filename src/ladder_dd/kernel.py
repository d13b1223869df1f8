"""Filter functions and coherence decay under an Ohmic dephasing bath.

A pulsed run splits [0, T] into n*N free-evolution segments.  In the frame
toggled by the cyclic pulse group, a bath mode of frequency w coupled to
ladder transition k picks up, per segment, the window amplitude

    kernel(w, dt) = (1 - exp(i w dt)) / w

weighted by the start-time phase exp(i w t_start) and by the level occupied
in the toggled frame.  Summing over all N cycles at fixed intra-cycle slot l
gives the position filter eta_l(w); the decay exponent of the (0,1) coherence
collects, per transition, the second difference of cyclically adjacent
position filters,

    chi(w) = eta_{l-1}(w) - 2 eta_l(w) + eta_{l+1}(w)   (indices mod n),

one such combination per exponent index m = 1..n-1.  For a continuum Ohmic
bath with spectral density I(w) = (alpha/4) w exp(-w/w_c) at temperature Tp
(units hbar = k_B = 1) the exponents are

    Gamma_m = 1/2 * integral_0^{w_c} I(w) coth(w/(2 Tp)) |chi_m(w)|^2 dw,

and the surviving coherence fraction is P(T) = exp(-sum_m Gamma_m).  The
integrand is finite at w = 0: I(w) coth(w/(2 Tp)) -> alpha*Tp/2 while the
filters approach -i times segment-length sums.

For fixed pulse fractions chi_m(w; T) = T * chi1_m(w T), where chi1 is the
filter of the same fractions over total time 1, so in u = w T

    Gamma_m(T) = T * integral_0^{w_c T} W(u/T) |chi1_m(u)|^2 du,
    W(w) = I(w) coth(w/(2 Tp)) / 2.

A FilterTable holds |chi1_m|^2 on Gauss-Legendre panels of width 4 pi / 2**L
in u.  The points of a sweep share one table: each adds only the panels
beyond its predecessors' upper limits, plus one remainder panel of its own
up to the cutoff.  Refinement halves the panel width until every exponent
settles to the requested relative error.  All reductions use fixed numpy
summation order, so a value does not depend on which points filled the table.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import schedules
from .schedules import PulseSchedule, Scheme, ScheduleSpec, build_schedule

GL_ORDER = 15
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(GL_ORDER)

# Cap on elements per exp() batch inside the filter evaluation (memory bound).
_CHUNK_ELEMS = 2**18

# Width in u = w*T of a level-0 panel: two periods of the filters' oscillation.
_PANEL_WIDTH = 4.0 * math.pi

# Fewest whole panels a quadrature starts from, whatever the filter oscillation count.
_MIN_PANELS = 8

# Exponents whose successive estimates both sit below this count as converged
# zeros: such a value shifts the coherence ratio by less than double precision,
# and below that scale the integrand is round-off rather than signal.
_ZERO_FLOOR = 1e-15


class ConvergenceError(RuntimeError):
    """Quadrature refinement exhausted without meeting the error target."""

    def __init__(self, message: str, previous: np.ndarray, current: np.ndarray):
        super().__init__(message)
        self.previous = np.asarray(previous)
        self.current = np.asarray(current)


@dataclass(frozen=True)
class BathSpec:
    """Ohmic bath (spectral exponent 1): coupling strength, cutoff and
    temperature (hbar = k_B = 1)."""

    alpha: float
    cutoff: float
    temperature: float

    def __post_init__(self) -> None:
        for name in ("alpha", "cutoff", "temperature"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not self.cutoff > 0:
            raise ValueError(f"cutoff must be > 0, got {self.cutoff}")
        if not self.temperature > 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")


def ohmic_density(omega, bath: BathSpec):
    """Spectral density (alpha/4) * w * exp(-w/cutoff); accepts arrays."""
    omega = np.asarray(omega, dtype=float)
    result = (bath.alpha / 4.0) * omega * np.exp(-omega / bath.cutoff)
    return result if result.ndim else float(result)


def segment_kernel(omega, dt: float):
    """Window amplitude (1 - exp(i*w*dt))/w of one free segment; -i*dt at w=0."""
    if dt < 0:
        raise ValueError(f"segment duration must be >= 0, got dt={dt}")
    omega = np.asarray(omega, dtype=float)
    scalar = omega.ndim == 0
    omega = np.atleast_1d(omega)
    out = np.empty(omega.shape, dtype=complex)
    zero = omega == 0.0
    nz = ~zero
    out[nz] = (1.0 - np.exp(1j * omega[nz] * dt)) / omega[nz]
    out[zero] = -1j * dt
    return complex(out[0]) if scalar else out


def transition_for_exponent(n: int, m: int) -> int:
    """Ladder transition (0-based) whose bath modes drive decay exponent m."""
    if not 1 <= m <= n - 1:
        raise IndexError(f"exponent index m={m} out of range for n={n} (need 1..n-1)")
    if m == 1:
        return 0
    if m == 2:
        return 1
    return n + 1 - m


def exponent_for_transition(n: int, k: int) -> int:
    """Decay exponent index (1-based) fed by modes on transition k; the inverse
    of transition_for_exponent."""
    if not 0 <= k <= n - 2:
        raise IndexError(f"transition index k={k} out of range for n={n}")
    return next(m for m in range(1, n) if transition_for_exponent(n, m) == k)


def filter_positions_for_exponent(n: int, m: int) -> tuple[int, int, int]:
    """Cyclically adjacent slot triple (lower, centre, upper) entering chi_m.

    chi_m = eta_lower - 2*eta_centre + eta_upper.  At n=2 both outer slots
    coincide, collapsing to -2*eta_1 + 2*eta_2.
    """
    k = transition_for_exponent(n, m)
    return (k - 1) % n + 1, k % n + 1, (k + 1) % n + 1


def position_filters(omegas, schedule: PulseSchedule) -> np.ndarray:
    """eta_l(w) for all slots at once: (K, n) complex for K frequencies.

    Each eta_l is the phase-weighted sum of segment windows, which telescopes
    into boundary-exponential differences:

        eta_l(w) = (1/w) * sum_j [exp(i w t_start(j,l)) - exp(i w t_end(j,l))].

    The w = 0 entries use the limit -i * sum_j dt_j(l).
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    boundaries = schedule.boundaries
    n, cycles = schedule.n, schedule.cycles
    k_total = omegas.shape[0]
    out = np.empty((k_total, n), dtype=complex)
    zero_limit = -1j * schedule.segments.sum(axis=0)

    chunk = max(1, _CHUNK_ELEMS // (boundaries.size + 1))
    for start in range(0, k_total, chunk):
        w = omegas[start : start + chunk]
        edge = np.exp(1j * w[:, None] * boundaries[None, :])
        diffs = edge[:, :-1] - edge[:, 1:]
        sums = diffs.reshape(w.size, cycles, n).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            block = sums / w[:, None]
        zero = w == 0.0
        if zero.any():
            block[zero, :] = zero_limit[None, :]
        out[start : start + chunk] = block
        # free this chunk's phasors before the next chunk allocates its own, so
        # the peak holds one chunk's arrays, not two
        del edge, diffs
    return out


def exponent_filters(omegas, schedule: PulseSchedule, wrong_sign: bool = False) -> np.ndarray:
    """chi_m(w) for m = 1..n-1 at once: (K, n-1) complex for K frequencies.

    Column m-1 is eta_lower - 2*eta_centre + eta_upper over the slot triple
    of filter_positions_for_exponent.  ``wrong_sign`` subtracts the upper
    neighbour instead, emulating a wrong toggling-sign convention; it exists
    as the oracle's negative control.
    """
    n = schedule.n
    eta = position_filters(omegas, schedule)
    slots = np.array([filter_positions_for_exponent(n, m) for m in range(1, n)]) - 1
    lo, mid, hi = slots.T
    upper = -eta[:, hi] if wrong_sign else eta[:, hi]
    return eta[:, lo] - 2.0 * eta[:, mid] + upper


def _thermal_weight(omegas: np.ndarray, bath: BathSpec) -> np.ndarray:
    """(1/2) I(w) coth(w/(2 Tp)) with the finite w=0 limit alpha*Tp/4."""
    out = np.empty(omegas.shape, dtype=float)
    zero = omegas == 0.0
    nz = ~zero
    w = omegas[nz]
    out[nz] = 0.5 * ohmic_density(w, bath) / np.tanh(w / (2.0 * bath.temperature))
    out[zero] = bath.alpha * bath.temperature / 4.0
    return out


def decay_integrand(omegas, schedule: PulseSchedule, bath: BathSpec) -> np.ndarray:
    """Rows (1/2) I(w) coth(w/(2 Tp)) |chi_m(w)|^2 for m = 1..n-1, shape (n-1, K)."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    chi = exponent_filters(omegas, schedule)
    # C-ordered rows keep the panel sums in one summation order
    power = np.ascontiguousarray((chi.real**2 + chi.imag**2).T)
    return _thermal_weight(omegas, bath) * power


def _fraction_key(spec: ScheduleSpec) -> tuple:
    """What fixes a schedule's fractions: every spec field but the total time."""
    return spec.scheme, spec.n, spec.cycles, spec.custom_fractions


class FilterTable:
    """|chi1_m(u)|^2 on shared Gauss-Legendre panels for one set of pulse fractions.

    With the fractions fixed, chi_m(w; T) = T * chi1_m(w T), where chi1 is the
    filter of the same fractions over total time 1.  Level L tiles u = w T
    with the panels [k h_L, (k+1) h_L], h_L = 4 pi / 2**L, which therefore
    serve every total time.  Per level the table holds the nodes and the
    weighted rows w_j |chi1_m(u_j)|^2 of the panels asked for so far and
    evaluates only the panels it does not hold yet.  Extending it mutates it:
    do not share one table between threads.
    """

    def __init__(self, spec: ScheduleSpec):
        self.key = _fraction_key(spec)
        self._unit = schedules.build_schedule(dataclasses.replace(spec, total_time=1.0))
        self._levels: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def panels(self, level: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes u, shape (count*GL_ORDER,), and weighted rows, shape
        (n-1, count*GL_ORDER), of the first ``count`` panels of ``level``."""
        empty = (np.empty(0), np.empty((self._unit.n - 1, 0)))
        nodes, rows = self._levels.get(level, empty)
        held = nodes.size // GL_ORDER
        if held < count:
            width = math.ldexp(_PANEL_WIDTH, -level)
            centre = (np.arange(held, count) + 0.5) * width
            new = (centre[:, None] + (0.5 * width) * _GL_NODES[None, :]).ravel()
            chi = exponent_filters(new, self._unit)
            weights = np.tile(0.5 * width * _GL_WEIGHTS, count - held)
            power = (chi.real**2 + chi.imag**2).T * weights
            nodes = np.concatenate((nodes, new))
            rows = np.concatenate((rows, power), axis=1)
            self._levels[level] = nodes, rows
        used = count * GL_ORDER
        return nodes[:used], rows[:, :used]


@dataclass(frozen=True)
class DecayExponents:
    """Converged decay exponents Gamma_1..Gamma_{n-1} with quadrature metadata."""

    gamma: np.ndarray
    quadrature_points: int
    estimated_relative_error: float


def _first_level(upper: float) -> int:
    """Coarsest level with at least _MIN_PANELS whole panels below ``upper``."""
    level = 0
    while _MIN_PANELS * math.ldexp(_PANEL_WIDTH, -level) > upper:
        level += 1
    return level


def _level_estimates(schedule: PulseSchedule, bath: BathSpec, table: FilterTable):
    """Yield (Gamma estimate, node count) at successive levels from the first.

    An estimate sums the table's whole panels below u = cutoff*T, weighted by
    the bath at w = u/T, plus one remainder panel up to the cutoff evaluated
    on the schedule itself.  Raises ConvergenceError at the first non-finite
    estimate: refinement cannot repair an overflowed integrand.
    """
    total_time = schedule.total_time
    upper = bath.cutoff * total_time
    if not upper >= sys.float_info.min:
        raise ValueError(f"cutoff * total time = {upper!r} is below the smallest normal float")
    level = _first_level(upper)
    prev = None
    while True:
        width = math.ldexp(_PANEL_WIDTH, -level)
        whole = math.floor(upper / width)
        # an overflow is reported once, as the ConvergenceError below
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            nodes, rows = table.panels(level, whole)
            # fixed-order numpy reductions, not BLAS, whose order may vary with its threads
            gamma = total_time * np.sum(rows * _thermal_weight(nodes / total_time, bath),
                                        axis=1)
            count = whole
            if whole * width < upper:
                lower = whole * width / total_time
                half = 0.5 * (bath.cutoff - lower)
                rest = decay_integrand(lower + half * (1.0 + _GL_NODES), schedule, bath)
                gamma = gamma + np.sum(rest * (half * _GL_WEIGHTS), axis=1)
                count += 1
        if not np.isfinite(gamma).all():
            raise ConvergenceError(
                f"non-finite decay exponent estimate on {count * GL_ORDER} nodes",
                previous=gamma if prev is None else prev,
                current=gamma,
            )
        yield gamma, count * GL_ORDER
        prev = gamma
        level += 1


def _max_rel_change(prev: np.ndarray, curr: np.ndarray) -> float:
    """Largest relative change between two finite estimates."""
    err = 0.0
    for p, c in zip(prev, curr):
        scale = max(abs(c), abs(p))
        if scale <= _ZERO_FLOOR:
            continue
        err = max(err, abs(c - p) / scale)
    return err


def decay_exponents(
    schedule: PulseSchedule,
    bath: BathSpec,
    rel_tol: float = 1e-6,
    max_doublings: int = 12,
    extra_levels: int = 0,
    table: FilterTable | None = None,
) -> DecayExponents:
    """Integrate every decay exponent over [0, cutoff] to a relative target.

    The first level has at least ``_MIN_PANELS`` panels of at most two filter
    oscillations each; each further level halves the panel width, until
    successive estimates of every Gamma_m agree within ``rel_tol``.
    ``extra_levels`` forces further halvings after convergence (used to
    probe quadrature stability).  Exponents whose successive estimates both
    sit below ``_ZERO_FLOOR`` count as converged zeros.  ``table`` is a
    FilterTable for the schedule's fractions, shared by the points of a
    sweep; without one a private table is built.  Raises ConvergenceError,
    carrying the last two estimate vectors, if the target is never met or an
    estimate is not finite.
    """
    if table is None:
        table = FilterTable(schedule.spec)
    elif table.key != _fraction_key(schedule.spec):
        raise ValueError("filter table was built for other pulse fractions")
    levels = _level_estimates(schedule, bath, table)
    curr, points = next(levels)
    prev = curr
    for _ in range(max_doublings):
        prev, (curr, points) = curr, next(levels)
        if _max_rel_change(prev, curr) <= rel_tol:
            for _ in range(extra_levels):
                prev, (curr, points) = curr, next(levels)
            return DecayExponents(
                gamma=curr,
                quadrature_points=points,
                estimated_relative_error=_max_rel_change(prev, curr),
            )
    raise ConvergenceError(
        f"decay exponents did not converge to rel_tol={rel_tol:g} within "
        f"{max_doublings} doublings ({points} nodes)",
        previous=prev,
        current=curr,
    )


def coherence_ratio(
    schedule: PulseSchedule, bath: BathSpec, rel_tol: float = 1e-6, **quad_kwargs
) -> float:
    """Surviving fraction P(T) = exp(-sum_m Gamma_m) of the (0,1) coherence."""
    exponents = decay_exponents(schedule, bath, rel_tol=rel_tol, **quad_kwargs)
    return float(np.exp(-exponents.gamma.sum()))


@dataclass(frozen=True)
class CoherenceCurve:
    """Sampled (T, P(T)) pairs for one scheme and bath, with each point's
    final node count and estimated relative error."""

    scheme: Scheme
    bath: BathSpec
    n: int
    cycles: int
    times: np.ndarray
    values: np.ndarray
    quadrature_points: np.ndarray
    estimated_relative_error: np.ndarray


def sweep_curve(
    template: ScheduleSpec,
    bath: BathSpec,
    t_grid,
    rel_tol: float = 1e-6,
    **quad_kwargs,
) -> CoherenceCurve:
    """Evaluate P(T) over a grid of total times, rebuilding the schedule each time.

    The grid must be strictly increasing and positive.  Points run in grid
    order and share one FilterTable, so each point evaluates only the table
    panels its predecessors did not need.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValueError("time grid must be a non-empty 1-D array")
    if np.any(t_grid <= 0):
        raise ValueError("time grid values must be > 0")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("time grid must be strictly increasing")

    table = FilterTable(template)
    values = np.empty(t_grid.size)
    points = np.empty(t_grid.size, dtype=int)
    errors = np.empty(t_grid.size)
    for i, t in enumerate(t_grid.tolist()):
        schedule = build_schedule(dataclasses.replace(template, total_time=t))
        try:
            exponents = decay_exponents(
                schedule, bath, rel_tol=rel_tol, table=table, **quad_kwargs
            )
        except ConvergenceError as err:
            raise ConvergenceError(
                f"{err} (while evaluating T={t:.6g})", err.previous, err.current
            ) from err
        values[i] = np.exp(-exponents.gamma.sum())
        points[i] = exponents.quadrature_points
        errors[i] = exponents.estimated_relative_error
    return CoherenceCurve(
        scheme=template.scheme,
        bath=bath,
        n=template.n,
        cycles=template.cycles,
        times=t_grid,
        values=values,
        quadrature_points=points,
        estimated_relative_error=errors,
    )
