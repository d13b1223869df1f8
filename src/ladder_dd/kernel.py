"""Filter functions and coherence decay under an Ohmic dephasing bath.

A pulsed run splits [0, T] into n*N free-evolution segments.  In the frame
toggled by the cyclic pulse group, a bath mode of frequency w coupled to
ladder transition k picks up, per segment, the window amplitude

    kernel(w, dt) = (1 - exp(i w dt)) / w

weighted by the start-time phase exp(i w t_start) and by the level occupied
in the toggled frame.  Summing over all N cycles at fixed intra-cycle slot l
gives the position filter eta_l(w), l = 0..n-1.  Its cost is the phasors
exp(i w t) at the pulse boundaries, and position_filters computes only as
many as each scheme needs, each form an exact rearrangement of the same sum:
PDD's equal segments make the cycle sum a geometric series (n phasors per
frequency, its poles removed by reducing the argument modulo pi); Uhrig's
symmetric fractions make the far half of the UDD phasors the mirrored
conjugate of the near half; custom fractions take every boundary phasor.

The decay exponent of the (0,1) coherence collects, per transition
k = 0..n-2, the cyclic second difference of position filters centred on
slot k,

    chi_k(w) = eta_{k-1}(w) - 2 eta_k(w) + eta_{k+1}(w)   (slots mod n).

In the toggled frame the (0,1) coherence sees the sigma_z of transition k
with weight -2 in slot k, +1 in its two neighbours and 0 elsewhere; the
tests derive this stencil from the group elements.  For a continuum Ohmic
bath with spectral density I(w) = (alpha/4) w exp(-w/w_c) at temperature Tp
(units hbar = k_B = 1) the exponents are

    Gamma_k = 1/2 * integral_0^{w_c} I(w) coth(w/(2 Tp)) |chi_k(w)|^2 dw,

and the surviving coherence fraction is P(T) = exp(-sum_k Gamma_k).  The
integrand is finite at w = 0: I(w) coth(w/(2 Tp)) -> alpha*Tp/2 while the
filters approach -i times segment-length sums.

For fixed pulse fractions chi_k(w; T) = T * chi1_k(w T), where chi1 is the
filter of the same fractions over total time 1, so in u = w T

    Gamma_k(T) = T * integral_0^{w_c T} W(u/T) |chi1_k(u)|^2 du,
    W(w) = I(w) coth(w/(2 Tp)) / 2.

A FilterTable holds |chi1_k|^2 on Gauss-Legendre panels of width 4 pi / 2**L
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
from .schedules import PulseSchedule, ScheduleSpec, Scheme, build_schedule

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


def position_filters(omegas, schedule: PulseSchedule) -> np.ndarray:
    """eta_l(w) for all slots at once: (K, n) complex for K frequencies.

    Each eta_l is the phase-weighted sum of segment windows, which telescopes
    into boundary-exponential differences:

        eta_l(w) = (1/w) * sum_j [exp(i w t_start(j,l)) - exp(i w t_end(j,l))].

    Each scheme rearranges this sum, exactly, to need the fewest phasors:

    * PDD, segments Delta = T/(nN): a geometric series over the cycles,
          eta_l = -2i sin(w Delta/2)/w * D_N(h) * exp(i w (T + (2l+1-n) Delta)/2)
      with h = n Delta w/2, n phasors per frequency.  The Dirichlet kernel
      D_N(h) = sin(N h)/sin(h) is (-1)^(k(N-1)) sin(N d)/sin(d) for
      h = k pi + d, k the nearest integer to h/pi, and that sign times N at
      d = 0: reduced, it keeps full precision at and near every pole.
    * UDD: Uhrig's boundaries are symmetric, t_{B-1-m} = T - t_m, so the far
      half of each phasor row is exp(i w T) times the mirrored, conjugated
      near half, and only ceil(B/2) phasors are computed.
    * CUSTOM: every boundary phasor.

    The w = 0 entries use the limit -i * sum_j dt_j(l).
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    boundaries = schedule.boundaries
    n, cycles, total_time = schedule.n, schedule.cycles, schedule.total_time
    out = np.empty((omegas.size, n), dtype=complex)
    # the w = 0 quotients are not finite; the limit replaces them below
    with np.errstate(divide="ignore", invalid="ignore"):
        if schedule.spec.scheme is Scheme.PDD:
            step = total_time / (n * cycles)
            half = (0.5 * n * step) * omegas
            turns = np.rint(half / math.pi)
            delta = half - turns * math.pi
            ratio = np.where(delta == 0.0, cycles, np.sin(cycles * delta) / np.sin(delta))
            ratio *= 1.0 - 2.0 * (turns * (cycles - 1) % 2.0)  # (-1)^(k(N-1))
            centres = 0.5 * (total_time + (2.0 * np.arange(n) + (1 - n)) * step)
            np.multiply(omegas[:, None], centres, out=out.imag)
            out.real = 0.0
            np.exp(out, out=out)
            out *= (-2j * np.sin((0.5 * step) * omegas) * ratio / omegas)[:, None]
        else:
            size = boundaries.size
            near = (size + 1) // 2 if schedule.spec.scheme is Scheme.UDD else size
            chunk = max(1, _CHUNK_ELEMS // (size + 1))
            # one phasor and one difference buffer for all chunks, written in place
            buffer = np.empty((min(chunk, omegas.size), size), dtype=complex)
            diff_buffer = np.empty((buffer.shape[0], size - 1), dtype=complex)
            for start in range(0, omegas.size, chunk):
                w = omegas[start : start + chunk]
                edge, diffs = buffer[: w.size], diff_buffer[: w.size]
                np.multiply(w[:, None], boundaries[:near], out=edge.imag[:, :near])
                edge.real[:, :near] = 0.0
                np.exp(edge[:, :near], out=edge[:, :near])
                if near < size:  # t_{B-1-m} = T - t_m
                    np.conjugate(edge[:, size - near - 1 :: -1], out=edge[:, near:])
                    edge[:, near:] *= np.exp(1j * total_time * w)[:, None]
                np.subtract(edge[:, :-1], edge[:, 1:], out=diffs)
                sums = diffs.reshape(w.size, cycles, n).sum(axis=1)
                out[start : start + chunk] = sums / w[:, None]
    out[omegas == 0.0] = -1j * schedule.segments.sum(axis=0)
    return out


def exponent_filters(omegas, schedule: PulseSchedule) -> np.ndarray:
    """chi_k(w) for every transition k at once: (K, n-1) complex for K frequencies.

    Column k is the cyclic second difference eta_{k-1} - 2*eta_k + eta_{k+1}
    centred on 0-based slot k (slots mod n); at n=2 both neighbours are the
    other slot.  The tests derive these weights from the pulse group.
    """
    eta = position_filters(omegas, schedule)
    chi = np.roll(eta, 1, axis=1) - 2.0 * eta + np.roll(eta, -1, axis=1)
    return chi[:, : schedule.n - 1]


def _thermal_weight(omegas: np.ndarray, bath: BathSpec) -> np.ndarray:
    """(1/2) I(w) coth(w/(2 Tp)) with the finite w=0 limit alpha*Tp/4."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 0.5 * ohmic_density(omegas, bath) / np.tanh(omegas / (2.0 * bath.temperature))
    out[omegas == 0.0] = bath.alpha * bath.temperature / 4.0
    return out


def decay_integrand(omegas, schedule: PulseSchedule, bath: BathSpec) -> np.ndarray:
    """Rows (1/2) I(w) coth(w/(2 Tp)) |chi_k(w)|^2 for every transition k, shape (n-1, K)."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    chi = exponent_filters(omegas, schedule)
    # C-ordered rows keep the panel sums in one summation order
    power = np.ascontiguousarray((chi.real**2 + chi.imag**2).T)
    return _thermal_weight(omegas, bath) * power


def _fraction_key(spec: ScheduleSpec) -> tuple:
    """What fixes a schedule's fractions: every spec field but the total time."""
    return spec.scheme, spec.n, spec.cycles, spec.custom_fractions


class FilterTable:
    """|chi1_k(u)|^2 on shared Gauss-Legendre panels for one set of pulse fractions.

    With the fractions fixed, chi_k(w; T) = T * chi1_k(w T), where chi1 is the
    filter of the same fractions over total time 1.  Level L tiles u = w T
    with the panels [k h_L, (k+1) h_L], h_L = 4 pi / 2**L, which therefore
    serve every total time.  Per level the table holds the nodes and the
    weighted rows w_j |chi1_k(u_j)|^2 of the panels asked for so far and
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
    """Converged decay exponents with quadrature metadata; ``gamma[k]`` is Gamma_k of
    transition k."""

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
    successive estimates of every Gamma_k agree within ``rel_tol``.
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
    """Surviving fraction P(T) = exp(-sum_k Gamma_k) of the (0,1) coherence, the
    sum running over the exponents of transitions k = 0..n-2."""
    exponents = decay_exponents(schedule, bath, rel_tol=rel_tol, **quad_kwargs)
    return float(np.exp(-exponents.gamma.sum()))


@dataclass(frozen=True)
class CoherenceCurve:
    """Sampled (T, P(T)) pairs with each point's final node count and
    estimated relative error."""

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
        times=t_grid,
        values=values,
        quadrature_points=points,
        estimated_relative_error=errors,
    )
