"""Filter functions and coherence decay under an Ohmic dephasing bath.

A pulsed run splits [0, T] into n*N free-evolution segments.  In the frame
toggled by the cyclic pulse group, a bath mode of frequency w coupled to
ladder transition k picks up, per segment, the window amplitude

    kernel(w, dt) = (1 - exp(i w dt)) / w

weighted by the start-time phase exp(i w t_start) and by the level occupied
in the toggled frame.  Summing over all N cycles at fixed intra-cycle slot l
gives the position filter eta_l(w), l = 0..n-1.  Summed literally it costs
the phasors exp(i w t) at all nN+1 pulse boundaries; position_filters uses
each scheme's structure instead, each form an exact rearrangement of the
same sum.  PDD's equal segments make the cycle sum a geometric series (n
phasors per frequency, its poles removed by reducing the argument modulo
pi).  Uhrig's boundaries t_b = (T/2)(1 - cos(pi b/nN)) turn each phasor
into a Jacobi-Anger series in J_k(wT/2), whose cycle sum is again geometric:
UDD filters cost O(wT) real multiply-adds per frequency, from one Miller
recurrence over all the frequencies of a call, unless the boundary sum is
cheaper.  Custom fractions take every boundary phasor.

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
in u: per level L a contiguous prefix of whole panels from u = 0, of which a
point up to u = cutoff*T takes the first floor(cutoff*T 2**L / 4 pi), and a
store of remainder panels up to each point's cutoff*T.  The points of a
sweep share one table.  At its first use it evaluates the panels of every
point's first two levels in one filter call (a UDD call costs O(max wT)
numpy steps however many frequencies it takes), then, per level, weighs
every point's nodes by the bath in one call and sums them in one reduction,
or a few near the panel cap: a point's estimate is a row of that reduction.
Refinement halves the panel width until every exponent settles to the
requested relative error; deeper levels are evaluated and summed one point
at a time.  Each point's sum adds its terms in node order, without BLAS, so
with numpy's unfused einsum it does not depend on the other points of its
level; a frequency's filter does not depend on the other frequencies of its
call, except through the size that picks the UDD form: which points filled
the table changes a value at round-off at most.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

import numpy as np

from .schedules import ScheduleSpec, Scheme, build_schedule

GL_ORDER = 15
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(GL_ORDER)

# Cap on elements of a temporary array inside the filter evaluation (memory bound).
_CHUNK_ELEMS = 2**18

# Rows J_k(z) per product with the UDD weights.  Blocks are counted from the
# lowest order, so a frequency's sums do not depend on the other frequencies of
# its call, and calls take at most _CHUNK_ELEMS // _BLOCK_ROWS frequencies.
# Values from 8 to 32 time within noise of each other and change the sums at round-off only.
_BLOCK_ROWS = 20

# log of double precision, for the start orders of Miller's recurrence.
_LOG_EPS = math.log(2.0**-53)

# Miller's recurrence seeds J_k = this at each start order.  Unnormalised, the
# values then stay within max(1e21, 2/z) times it: normal floats for every z > 0.
_MILLER_SEED = 1e-300

# UDD takes the Bessel series when top * (_STEP_FREQUENCIES + K) <=
# _SERIES_GAIN * K * B, for K frequencies, highest start order top and B
# boundaries.  Measured with one BLAS thread over K = 15..25000, B = 3..1201
# and top = 21..899: a recurrence step costs about 8 us, the series 3 ns per
# frequency and order, the boundary sum 54 ns per frequency and boundary.
_STEP_FREQUENCIES = 2500
_SERIES_GAIN = 16.0

# Width in u = w*T of a level-0 panel: two periods of the filters' oscillation.
_PANEL_WIDTH = 4.0 * math.pi

# Fewest whole panels a quadrature starts from, whatever the filter oscillation count.
_MIN_PANELS = 8

# Most level-0 panels below u = cutoff*T (memory bound).  A table's first batch
# evaluates two levels of every point: at this cap about 7e5 nodes, in a filter
# call whose allocations peak near 210 MiB at n = 6.  A level's reduction takes
# its points in groups of about as many padded (point, node) pairs, which peak
# near 60 MiB, however many points share the table.  The reference sweeps stay
# far below it (127 panels for N = 400 at T = 16).
_MAX_PANELS = 2**14

# Panel halvings after the first level before the quadrature gives up.
_MAX_DOUBLINGS = 12

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


def _pi_angle(num, den):
    """pi num/den for integers, reduced exactly modulo 2 pi first."""
    return math.pi * (num % (2 * den)) / den


def _udd_weights(count: int, n: int, cycles: int) -> np.ndarray:
    """Weight of J_k(z), k = 1..count, in the UDD position filters: shape
    (count, 2n), the real part of eta_l in column l, its imaginary part in n + l.

    With M = nN, an odd k weighs only the imaginary parts, by
        -4 (-1)^((k-1)/2) sin(pi k/2M)/sin(pi k/2N) cos(pi k (2l+1-n)/2M),
    k = 2Nm weighs only the real parts, by
        2N (-1)^(Nm) (cos(2 pi m l/n) - cos(2 pi m (l+1)/n)),
    and every other k weighs nothing.
    """
    m_total = n * cycles
    slot = np.arange(n)
    weights = np.zeros((count, 2 * n))
    odd = np.arange(1, count + 1, 2)[:, None]
    sign = 1.0 - 2.0 * ((odd - 1) // 2 % 2)
    weights[::2, n:] = (-4.0 * sign * np.sin(_pi_angle(odd, 2 * m_total))
                        / np.sin(_pi_angle(odd, 2 * cycles))
                        * np.cos(_pi_angle(odd * (2 * slot + 1 - n), 2 * m_total)))
    m = np.arange(1, count // (2 * cycles) + 1)[:, None]
    sign = 1.0 - 2.0 * (cycles * m % 2)
    weights[2 * cycles * m[:, 0] - 1, :n] = (2.0 * cycles * sign * (
        np.cos(_pi_angle(2 * m * slot, n)) - np.cos(_pi_angle(2 * m * (slot + 1), n))))
    return weights


def _miller_orders(z: np.ndarray) -> np.ndarray:
    """Order, as a float, from which Miller's recurrence for J_k(z) starts, per z >= 0.

    Above it every J_k(z) is below double precision relative to the largest:
    z + 10 z^(1/3) + 6, or for small z the first k with (z/2)^k < 2^-53 if
    that comes first.  Both were measured against scipy.special.jv.
    """
    orders = np.ceil(z + 10.0 * np.cbrt(z) + 6.0)
    small = z < 2.0
    with np.errstate(divide="ignore"):
        powers = np.ceil(_LOG_EPS / np.log(0.5 * z[small]))
    orders[small] = np.clip(powers, 1.0, orders[small])
    return orders


def _bessel_sums(z: np.ndarray, orders: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_{k=1..len(weights)} J_k(z) weights[k-1] for every z at once: shape
    (z.size, weights.shape[1]); ``orders`` from _miller_orders(z).

    Miller's backward recurrence J_{k-1} = 2k J_k/z - J_{k+1} runs for all z
    together, each z seeded at its own start order, and is normalised at the
    end by J_0 + 2 sum_k J_2k = 1.  Sorted by descending order, the started z
    are a prefix, and each step touches only them.  The rows J_k that carry a
    weight are multiplied into the sums _BLOCK_ROWS at a time, in blocks
    counted from the lowest order, so a z's sums do not depend on the others.
    """
    size = z.size
    perm = np.argsort(-orders, kind="stable")
    z = z[perm]
    top = int(orders[perm[0]])
    # started[k]: how many z start at order k or above
    started = np.searchsorted(-orders[perm], -np.arange(top + 2), side="right")
    weighted = np.zeros(top + 1, dtype=bool)
    weighted[1 : len(weights) + 1] = weights[:top].any(axis=1)
    rank = np.cumsum(weighted) - 1  # of a weighted order among the weighted ones
    block, held = np.empty((_BLOCK_ROWS, size)), []
    sums = np.zeros((weights.shape[1], size))
    cur, nxt, step, even = np.zeros(size), np.zeros(size), np.empty(size), np.zeros(size)
    for k in range(top, 0, -1):
        live = started[k]
        cur[started[k + 1] : live] = _MILLER_SEED
        if weighted[k]:
            block[len(held)] = cur
            held.append(k - 1)
            if rank[k] % _BLOCK_ROWS == 0:
                sums += weights[held].T @ block[: len(held)]
                held.clear()
        if k % 2 == 0:
            even[:live] += cur[:live]
        np.multiply(cur[:live], 2.0 * k, out=step[:live])
        np.divide(step[:live], z[:live], out=step[:live])
        np.subtract(step[:live], nxt[:live], out=nxt[:live])
        cur, nxt = nxt, cur
    sums /= cur + 2.0 * even  # cur holds J_0
    out = np.empty((size, weights.shape[1]))
    out[perm] = sums.T
    return out


def _udd_series_orders(omegas: np.ndarray, schedule: ScheduleSpec) -> np.ndarray | None:
    """Miller start orders at z = w T/2 if the UDD Bessel series costs less than
    the boundary sum for these frequencies, else None."""
    boundary = _SERIES_GAIN * omegas.size * schedule.boundaries.size
    # an order is at least 1; a NaN or negative w takes the boundary sum too
    if not (_STEP_FREQUENCIES + omegas.size <= boundary and omegas.min() >= 0.0):
        return None
    orders = _miller_orders(0.5 * schedule.total_time * omegas)
    series = orders.max() * (_STEP_FREQUENCIES + omegas.size)  # inf for an infinite w
    return orders if series <= boundary else None


def position_filters(omegas, schedule: ScheduleSpec) -> np.ndarray:
    """eta_l(w) for all slots at once: (K, n) complex for K frequencies.

    Each eta_l is the phase-weighted sum of segment windows, which telescopes
    into boundary-exponential differences:

        eta_l(w) = (1/w) * sum_j [exp(i w t_start(j,l)) - exp(i w t_end(j,l))].

    Each scheme rearranges this sum, exactly, to cost the least:

    * PDD, segments Delta = T/(nN): a geometric series over the cycles,
          eta_l = -2i sin(w Delta/2)/w * D_N(h) * exp(i w (T + (2l+1-n) Delta)/2)
      with h = n Delta w/2, n phasors per frequency.  The Dirichlet kernel
      D_N(h) = sin(N h)/sin(h) is (-1)^(k(N-1)) sin(N d)/sin(d) for
      h = k pi + d, k the nearest integer to h/pi, and that sign times N at
      d = 0: reduced, it keeps full precision at and near every pole.
    * UDD: Uhrig's boundaries are t_b = (T/2)(1 - cos(pi b/nN)), so with
      z = w T/2 the Jacobi-Anger expansion gives
          exp(i w t_b) = exp(i z) sum_k (-i)^k J_k(z) exp(i pi k b/nN),
      and the cycle sum of each term is a geometric series:
          eta_l = exp(i z)/w * sum_{k>=1} J_k(z) D_{k,l},
      with the weights D of _udd_weights (only odd k and multiples of 2N).
      The J_k come from one Miller recurrence over all frequencies
      (_bessel_sums), O(z) real multiply-adds per frequency, not nN + 1
      phasors.  Where that would cost more than the boundary sum (few
      frequencies, or z large against nN), UDD takes the boundary sum.
    * CUSTOM: every boundary phasor.

    The w = 0 entries use the limit -i * sum_j dt_j(l).
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    boundaries = schedule.boundaries
    n, cycles, total_time = schedule.n, schedule.cycles, schedule.total_time
    out = np.empty((omegas.size, n), dtype=complex)
    # the w = 0 quotients are not finite; the limit replaces them below
    with np.errstate(divide="ignore", invalid="ignore"):
        orders = _udd_series_orders(omegas, schedule) if schedule.scheme is Scheme.UDD else None
        if schedule.scheme is Scheme.PDD:
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
        elif orders is not None:
            z = 0.5 * total_time * omegas
            weights = _udd_weights(int(orders.max()), n, cycles)
            chunk = _CHUNK_ELEMS // _BLOCK_ROWS
            for start in range(0, omegas.size, chunk):
                part = slice(start, start + chunk)
                sums = _bessel_sums(z[part], orders[part], weights)
                out.real[part], out.imag[part] = sums[:, :n], sums[:, n:]
            out *= (np.exp(1j * z) / omegas)[:, None]
        else:
            size = boundaries.size
            chunk = max(1, _CHUNK_ELEMS // (size + 1))
            # one phasor and one difference buffer for all chunks, written in place
            buffer = np.empty((min(chunk, omegas.size), size), dtype=complex)
            diff_buffer = np.empty((buffer.shape[0], size - 1), dtype=complex)
            for start in range(0, omegas.size, chunk):
                w = omegas[start : start + chunk]
                edge, diffs = buffer[: w.size], diff_buffer[: w.size]
                np.multiply(w[:, None], boundaries, out=edge.imag)
                edge.real = 0.0
                np.exp(edge, out=edge)
                np.subtract(edge[:, :-1], edge[:, 1:], out=diffs)
                sums = diffs.reshape(w.size, cycles, n).sum(axis=1)
                out[start : start + chunk] = sums / w[:, None]
    out[omegas == 0.0] = -1j * schedule.segments.sum(axis=0)
    return out


def exponent_filters(omegas, schedule: ScheduleSpec) -> np.ndarray:
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


def decay_integrand(omegas, schedule: ScheduleSpec, bath: BathSpec) -> np.ndarray:
    """Rows (1/2) I(w) coth(w/(2 Tp)) |chi_k(w)|^2 for every transition k, shape (n-1, K)."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    chi = exponent_filters(omegas, schedule)
    # C-ordered rows keep the panel sums in one summation order
    power = np.ascontiguousarray((chi.real**2 + chi.imag**2).T)
    return _thermal_weight(omegas, bath) * power


def _tiling(level: int, upper: float) -> tuple[int, tuple[float, float] | None]:
    """How the panels of ``level`` tile [0, upper]: the count of whole panels
    [k h, (k+1) h], h = 4 pi / 2**level, then the (centre, half-width) of the
    remainder panel, or None if ``upper`` is a multiple of h."""
    width = math.ldexp(_PANEL_WIDTH, -level)
    whole = math.floor(upper / width)
    if whole * width < upper:
        half = 0.5 * (upper - whole * width)
        return whole, (upper - half, half)
    return whole, None


class FilterTable:
    """Decay exponent estimates of a sweep's points, from |chi1_k(u)|^2 on
    Gauss-Legendre panels of one set of pulse fractions and one bath.

    With the fractions fixed, chi_k(w; T) = T * chi1_k(w T), where chi1 is the
    filter of ``unit``, the sweep's schedule at total time 1.  Level L tiles
    u = w T with the whole panels [k h_L, (k+1) h_L], h_L = 4 pi / 2**L,
    k = 0, 1, ..., which therefore serve every total time: a point with u up
    to cutoff*T takes the first floor(cutoff*T/h_L) of them, then a remainder
    panel [floor(cutoff*T/h_L) h_L, cutoff*T].  Per level the table holds the nodes
    and weighted rows w_j |chi1_k(u_j)|^2 of a contiguous prefix of whole
    panels, grown only past its end; remainder panels sit in a store keyed by
    (centre, half-width), so a remainder panel that the next level carries
    over whole is held once.  Only panels the table does not hold are
    evaluated.

    ``times`` lists the total times of a sweep's points.  The table's first
    use evaluates the panels of every listed point's first two levels in one
    filter call, because a UDD filter call costs O(max u) numpy steps whatever
    its size, then weighs and sums each level for all of its points in one
    reduction, or a few near the panel cap; the estimates are kept per
    (level, T).  A later level is the same reduction over one point.  Using
    the table mutates it: do not share one table between threads.
    """

    def __init__(self, spec: ScheduleSpec, bath: BathSpec, times):
        self.unit = dataclasses.replace(spec, total_time=1.0)
        self.bath = bath
        # nodes and weighted rows, one row per node, of a level's whole-panel prefix
        self._levels: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._remainders: dict[tuple[float, float], tuple[np.ndarray, np.ndarray]] = {}
        # (Gamma estimate, node count) per (level, total time)
        self._estimates: dict[tuple[int, float], tuple[np.ndarray, int]] = {}
        self._planned = list(times)

    def estimate(self, level: int, total_time: float) -> tuple[np.ndarray, int]:
        """Gamma estimate of the point at ``total_time`` on ``level``, and its node count."""
        if (level, total_time) not in self._estimates:
            # per level, the tiling of each point to estimate, in order and once each
            tilings = {level: {total_time: _tiling(level, self.bath.cutoff * total_time)}}
            for t in self._planned:
                first = _first_level(self.bath.cutoff * t)
                for lvl in (first, first + 1):
                    tilings.setdefault(lvl, {})[t] = _tiling(lvl, self.bath.cutoff * t)
            self._planned = []
            self._fill(tilings)
            for lvl, level_tilings in tilings.items():
                self._reduce(lvl, level_tilings)
        return self._estimates[level, total_time]

    def _fill(self, tilings: dict[int, dict[float, tuple]]) -> None:
        """Evaluate, in one filter call, the panels past each level's held prefix
        and the remainder panels not yet held that ``tilings`` name."""
        missing, grown, remainders = [], [], {}
        empty = np.empty(0), np.empty((0, self.unit.n - 1))
        for lvl, level_tilings in tilings.items():
            remainders.update((r, None) for _, r in level_tilings.values()
                              if r is not None and r not in self._remainders)
            whole = max(w for w, _ in level_tilings.values())
            held = self._levels.setdefault(lvl, empty)[0].size // GL_ORDER
            if whole > held:
                width, start = math.ldexp(_PANEL_WIDTH, -lvl), len(missing) * GL_ORDER
                missing += [((k + 0.5) * width, 0.5 * width) for k in range(held, whole)]
                grown.append((lvl, slice(start, len(missing) * GL_ORDER)))
        first_remainder = len(missing)
        missing += remainders
        if not missing:
            return
        centres, halves = np.array(missing).T
        nodes = (centres[:, None] + halves[:, None] * _GL_NODES).ravel()
        chi = exponent_filters(nodes, self.unit)
        rows = (chi.real**2 + chi.imag**2) * (halves[:, None] * _GL_WEIGHTS).reshape(-1, 1)
        for lvl, part in grown:
            held_nodes, held_rows = self._levels[lvl]
            self._levels[lvl] = (np.concatenate((held_nodes, nodes[part])),
                                 np.concatenate((held_rows, rows[part])))
        for i, panel in enumerate(remainders, first_remainder):
            part = slice(i * GL_ORDER, (i + 1) * GL_ORDER)
            # copies, so that the batch's arrays are freed
            self._remainders[panel] = nodes[part].copy(), rows[part].copy()

    def _reduce(self, level: int, tilings: dict[float, tuple]) -> None:
        """Estimate Gamma on ``level`` for every point of ``tilings`` (total
        time: tiling), one reduction per group of points.

        A group pads its points to the longest, so it takes as many points as
        keep its (point, node) pairs within the nodes of the first two levels
        of a point at _MAX_PANELS: the table's memory stays set by its filter
        calls, however many points share it.
        """
        points = list(tilings.items())
        span = GL_ORDER * (max(whole for whole, _ in tilings.values()) + 1)
        size = max(1, 3 * GL_ORDER * _MAX_PANELS // span - 1)
        for start in range(0, len(points), size):
            self._reduce_group(level, dict(points[start:start + size]))

    def _reduce_group(self, level: int, tilings: dict[float, tuple]) -> None:
        """Estimate Gamma on ``level`` at once for every point of ``tilings``.

        One bath weight call covers every point's nodes.  Each point's sum then
        runs in node order over its whole panels, then over its remainder
        panel, as a sum over that point alone would: no point's sum depends on
        the others.
        """
        nodes, rows = self._levels[level]
        times = np.array(list(tilings))
        ends = GL_ORDER * np.array([whole for whole, _ in tilings.values()])
        rest = [i for i, (_, panel) in enumerate(tilings.values()) if panel is not None]
        held = [self._remainders[panel] for _, panel in tilings.values() if panel is not None]
        span, width, count = int(ends.max()), rows.shape[1], times.size
        rest_nodes = np.array([panel_nodes for panel_nodes, _ in held]).reshape(-1, GL_ORDER)
        # Per point, then one all-zero point: weights of its whole panels, zero
        # past its own, then of its remainder panel, zero if it has none.  With
        # at least two points, the reductions below loop over points innermost
        # and add each point's nodes in order, for a point swept alone as in a
        # batch.
        used = np.zeros((count + 1, span + GL_ORDER), dtype=bool)
        used[:count, :span] = np.arange(span) < ends[:, None]
        used[rest, span:] = True
        weights = np.zeros(used.shape)
        panel_rows = np.zeros((count + 1, GL_ORDER, width))
        panel_rows[rest] = np.array([held_rows for _, held_rows in held]).reshape(
            -1, GL_ORDER, width)
        # an overflow is reported once, as _level_estimates' ConvergenceError
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # w = u/T of every used (point, node) pair, then its bath weight
            np.divide(nodes[:span], np.append(times, 1.0)[:, None], out=weights[:, :span],
                      where=used[:, :span])
            weights[rest, span:] = rest_nodes / times[rest, None]
            weights[used] = _thermal_weight(weights[used], self.bath)
            # row 0: each point's sum over its whole panels, by einsum without
            # optimize (not BLAS, whose order may vary with its threads) over
            # node-major weights, looping innermost over points.  numpy's einsum
            # adds one product at a time, without a fused multiply-add: that is
            # what makes a point's bits those of the point alone.
            terms = np.empty((1 + GL_ORDER, count + 1, width))
            node_major = np.ascontiguousarray(weights[:, :span].T)
            terms[0] = np.einsum("jp,jk->kp", node_major, rows[:span]).T
            # then its remainder panel's terms
            np.multiply(weights[:, span:].T[..., None], panel_rows.transpose(1, 0, 2),
                        out=terms[1:])
            gamma = times[:, None] * terms.sum(axis=0)[:-1]
        ends[rest] += GL_ORDER
        for t, point, size in zip(tilings, gamma, ends.tolist()):
            self._estimates[level, t] = point, size


@dataclass(frozen=True)
class DecayExponents:
    """Converged decay exponents with quadrature metadata; ``gamma[k]`` is Gamma_k of
    transition k."""

    gamma: np.ndarray
    quadrature_points: int
    estimated_relative_error: float


def _first_level(upper: float) -> int:
    """Coarsest level with at least _MIN_PANELS whole panels below ``upper``.

    Raises ValueError unless ``upper`` = cutoff*T is a normal float of at
    most _MAX_PANELS level-0 panels: no table tiles a range it rejects.
    """
    if not upper >= sys.float_info.min:
        raise ValueError(f"cutoff * total time = {upper!r} is below the smallest normal float")
    if not upper <= _MAX_PANELS * _PANEL_WIDTH:
        raise ValueError(f"cutoff * total time = {upper!r} exceeds {_MAX_PANELS} panels "
                         f"of width 4 pi")
    level = 0
    while _MIN_PANELS * math.ldexp(_PANEL_WIDTH, -level) > upper:
        level += 1
    return level


def _level_estimates(schedule: ScheduleSpec, table: FilterTable):
    """Yield (Gamma estimate, node count) at successive levels from the first.

    An estimate sums the table's panels below u = cutoff*T, the remainder
    panel up to the cutoff included, weighted by the bath at w = u/T.  Raises
    ConvergenceError at the first non-finite estimate: refinement cannot
    repair an overflowed integrand.
    """
    total_time = schedule.total_time
    level = _first_level(table.bath.cutoff * total_time)
    prev = None
    while True:
        gamma, nodes = table.estimate(level, total_time)
        if not np.isfinite(gamma).all():
            raise ConvergenceError(
                f"non-finite decay exponent estimate on {nodes} nodes "
                f"(while evaluating T={total_time:.6g})",
                previous=gamma if prev is None else prev,
                current=gamma,
            )
        yield gamma, nodes
        prev = gamma
        level += 1


def _max_rel_change(prev: np.ndarray, curr: np.ndarray) -> float:
    """Largest relative change between two finite estimates."""
    err = 0.0
    for p, c in zip(prev.tolist(), curr.tolist()):
        scale = max(abs(c), abs(p))
        if scale <= _ZERO_FLOOR:
            continue
        err = max(err, abs(c - p) / scale)
    return err


def decay_exponents(
    schedule: ScheduleSpec,
    bath: BathSpec,
    rel_tol: float = 1e-6,
    extra_levels: int = 0,
    table: FilterTable | None = None,
) -> DecayExponents:
    """Integrate every decay exponent over [0, cutoff] to a relative target.

    The first level has at least ``_MIN_PANELS`` panels of at most two filter
    oscillations each; each further level halves the panel width, until
    successive estimates of every Gamma_k agree within ``rel_tol``, for at
    most ``_MAX_DOUBLINGS`` halvings.  ``extra_levels`` forces further
    halvings after convergence (used to probe quadrature stability).
    Exponents whose successive estimates both sit below ``_ZERO_FLOOR`` count
    as converged zeros.  ``table`` is a FilterTable for the schedule's
    fractions and ``bath``, shared by the points of a sweep; without one a
    one-point table is built.  ``rel_tol`` must be finite and in (0, 1).  Raises
    ConvergenceError, carrying the last two estimate vectors and naming T, if
    the target is never met or an estimate is not finite.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must be finite and in (0, 1), got {rel_tol}")
    if table is None:
        table = FilterTable(schedule, bath, [schedule.total_time])
    elif dataclasses.replace(schedule, total_time=1.0) != table.unit:
        raise ValueError("filter table was built for other pulse fractions")
    elif table.bath != bath:
        raise ValueError("filter table was built for another bath")
    levels = _level_estimates(schedule, table)
    curr, points = next(levels)
    prev = curr
    for _ in range(_MAX_DOUBLINGS):
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
        f"{_MAX_DOUBLINGS} doublings ({points} nodes) "
        f"(while evaluating T={schedule.total_time:.6g})",
        previous=prev,
        current=curr,
    )


@dataclass(frozen=True)
class CoherenceCurve:
    """Sampled (T, P(T)) pairs with each point's final node count and
    estimated relative error."""

    times: np.ndarray
    values: np.ndarray
    quadrature_points: np.ndarray
    estimated_relative_error: np.ndarray


def sweep_curve(
    template: ScheduleSpec, bath: BathSpec, t_grid, rel_tol: float = 1e-6
) -> CoherenceCurve:
    """Evaluate P(T) over a grid of total times, for the fractions of ``template``.

    The grid must be strictly increasing and positive.  Points run in grid
    order and share one FilterTable, told every point's total time up front:
    the first point checks every point's range, evaluates the first two levels
    of all of them in one filter call and sums each level in one reduction,
    and a point that refines further evaluates only the panels no point needed.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValueError("time grid must be a non-empty 1-D array")
    if np.any(t_grid <= 0):
        raise ValueError("time grid values must be > 0")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("time grid must be strictly increasing")

    table = FilterTable(template, bath, t_grid.tolist())
    values = np.empty(t_grid.size)
    points = np.empty(t_grid.size, dtype=int)
    errors = np.empty(t_grid.size)
    for i, t in enumerate(t_grid.tolist()):
        schedule = build_schedule(dataclasses.replace(template, total_time=t))
        exponents = decay_exponents(schedule, bath, rel_tol=rel_tol, table=table)
        values[i] = np.exp(-exponents.gamma.sum())
        points[i] = exponents.quadrature_points
        errors[i] = exponents.estimated_relative_error
    return CoherenceCurve(
        times=t_grid,
        values=values,
        quadrature_points=points,
        estimated_relative_error=errors,
    )
