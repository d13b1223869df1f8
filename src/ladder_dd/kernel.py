"""Filter functions and coherence decay under an Ohmic dephasing bath.

A pulsed run splits [0, T] into n*N free-evolution segments.  In the frame
toggled by the cyclic pulse group, a bath mode of frequency w coupled to
ladder transition k picks up, per segment, the window amplitude

    kernel(w, dt) = (1 - exp(i w dt)) / w

weighted by the start-time phase exp(i w t_start) and by the level occupied
in the toggled frame.  Summing over all N cycles at fixed intra-cycle slot l
gives the position filter eta_l(w), l = 0..n-1.  exponent_filters evaluates
their stencils (below) by each scheme's exact rearrangement of the boundary
sum: a closed form in four sines per frequency for PDD (and, for the complex
filters, its phases), O(wT) real multiply-adds for UDD from one Miller
recurrence over the odd orders, for all the frequencies of a call
(udd_series; or the boundary sum where that is cheaper), and every boundary
phasor for custom fractions.

The decay exponent of the (0,1) coherence collects, per transition
k = 0..n-2, the cyclic second difference of position filters centred on
slot k,

    chi_k(w) = eta_{k-1}(w) - 2 eta_k(w) + eta_{k+1}(w)   (slots mod n).

In the toggled frame the (0,1) coherence sees the sigma_z of transition k
with weight -2 in slot k, +1 in its two neighbours.  One function,
udd_series.stencil, takes these differences, of eta in the boundary-sum
form and of the even Bessel weights; PDD's chi factors in closed form, and
the UDD series sums chi over stencil weights, the odd ones in closed form,
rather than differencing eta, which at small w T is far larger than chi.
For a continuum Ohmic bath with spectral density I(w) = (alpha/4) w
exp(-w/w_c) at temperature Tp (units hbar = k_B = 1) the exponents are

    Gamma_k = 1/2 * integral_0^{w_c} I(w) coth(w/(2 Tp)) |chi_k(w)|^2 dw,

and the surviving coherence fraction is P(T) = exp(-sum_k Gamma_k).  The
integrand is finite at w = 0: I(w) coth(w/(2 Tp)) -> alpha*Tp/2 while the
filters approach -i times segment-length sums.

For fixed pulse fractions chi_k(w; T) = T * chi1_k(w T), where chi1 is the
filter of the same fractions over total time 1, so in u = w T

    Gamma_k(T) = T * integral_0^{w_c T} W(u/T) |chi1_k(u)|^2 du,
    W(w) = I(w) coth(w/(2 Tp)) / 2.

A FilterTable, shared by the points of a sweep, sums |chi1_k|^2 on
Gauss-Legendre panels of width 4 pi / 2**L in u.  Its first use evaluates
every point's first two levels in one batch, which streams eta -> chi ->
weighted rows (the UDD series chi -> rows, PDD's closed form the rows
alone) through node chunks and so peaks near its rows, 8(n-1) bytes a
node, plus one reduction group and one chunk; a point that settles there
costs a lookup.  A point's sum adds its terms in node order, without BLAS,
so with numpy's unfused einsum it does not depend on the other points of
its level; a frequency's filter depends on the others of its call only
through the call size, which picks the UDD form: at round-off.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

import numpy as np

from .schedules import ScheduleSpec, Scheme, as_number, build_schedule, check_count, check_real
from .udd_series import BLOCK_ROWS, bessel_sums, miller_orders, stencil, udd_stencil_weights

GL_ORDER = 15
# np.polynomial.legendre.leggauss(GL_ORDER), written out bit for bit: importing
# numpy.polynomial costs every process about 3 ms and 0.8 MiB.
_GL_NODES = np.array([
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272,
    -0.7244177313601701, -0.5709721726085388, -0.3941513470775634,
    -0.20119409399743451, 0.0, 0.20119409399743451, 0.3941513470775634,
    0.5709721726085388, 0.7244177313601701, 0.8482065834104272,
    0.9372733924007058, 0.9879925180204854,
])
_GL_WEIGHTS = np.array([
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141,
    0.13957067792615444, 0.16626920581699398, 0.1861610000155622,
    0.1984314853271116, 0.2025782419255613, 0.1984314853271116,
    0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
])

# Cap on elements of a temporary array inside the filter evaluation (memory bound).
_CHUNK_ELEMS = 2**18

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
# evaluates two levels of every point: at this cap about 7e5 nodes, whose rows
# take 28 MiB at n = 6, plus one node chunk and one reduction group of about as
# many padded (point, node) pairs: 51 MiB, however many points share the table.
# The reference sweeps stay far below the cap (127 panels for N = 400 at T = 16).
_MAX_PANELS = 2**14

# Smallest cutoff*T that _first_level accepts (see there).
_LOWEST_UPPER = _MIN_PANELS * math.ldexp(_PANEL_WIDTH, -math.floor(
    math.log2(math.pi * (1.0 + _GL_NODES[0]) * sys.float_info.max)))

# Panel halvings after the first level before the quadrature gives up.
_MAX_DOUBLINGS = 12

# Exponents whose successive estimates both sit below this count as converged
# zeros: such a value shifts the coherence ratio by less than double precision,
# and below that scale the integrand is round-off rather than signal.
_ZERO_FLOOR = 1e-15


class ConvergenceError(RuntimeError):
    """Quadrature refinement refused an estimate or exhausted its doublings."""


@dataclass(frozen=True)
class BathSpec:
    """Ohmic bath (spectral exponent 1): coupling strength, cutoff and
    temperature (hbar = k_B = 1)."""

    alpha: float
    cutoff: float
    temperature: float

    def __post_init__(self) -> None:
        for name, strict in (("alpha", False), ("cutoff", True), ("temperature", True)):
            object.__setattr__(self, name, check_real(name, name, getattr(self, name), 0, strict))


def ohmic_density(omega, bath: BathSpec):
    """Spectral density (alpha/4) * w * exp(-w/cutoff); accepts arrays."""
    omega = np.asarray(omega, dtype=float)
    result = (bath.alpha / 4.0) * omega * np.exp(-omega / bath.cutoff)
    return result if result.ndim else float(result)


def _udd_series_orders(omegas: np.ndarray, schedule: ScheduleSpec) -> np.ndarray | None:
    """Miller start orders at z = w T/2 if the UDD Bessel series costs less than
    the boundary sum for these frequencies, else None."""
    boundary = _SERIES_GAIN * omegas.size * schedule.boundaries.size
    # an order is at least 1; a NaN or negative w takes the boundary sum too
    if not (_STEP_FREQUENCIES + omegas.size <= boundary and omegas.min() >= 0.0):
        return None
    orders = miller_orders(0.5 * schedule.total_time * omegas)
    series = orders.max() * (_STEP_FREQUENCIES + omegas.size)  # inf for an infinite w
    return orders if series <= boundary else None


def exponent_filters(omegas, schedule: ScheduleSpec) -> np.ndarray:
    """chi_k(w) for every transition k at once: (K, n-1) complex for K frequencies.

    Column k is the cyclic second difference eta_{k-1} - 2*eta_k + eta_{k+1}
    centred on 0-based slot k (slots mod n); at n=2 both neighbours are the
    other slot.  The tests derive these weights from the pulse group.  Each
    eta_l is a phase-weighted sum of segment windows, which telescopes into

        eta_l(w) = (1/w) * sum_j [exp(i w t_start(j,l)) - exp(i w t_end(j,l))],

    and each scheme rearranges this sum, exactly, to cost the least:

    * PDD, segments Delta = T/(nN): a geometric series over the cycles,
          eta_l = -i a exp(i w c_l),  a = 2 sin(x/2)/w * D_N(n x/2),
      x = w Delta, c_l = (T + (2l+1-n) Delta)/2 the mean centre of slot l.
      The stencil factors (Cywinski et al., PRB 77, 174509, 2008) into terms
      that cancel nothing: chi_k = 4i a sin^2(x/2) exp(i w c_k) for k >= 1,
          chi_0 = 2a exp(i w c_0) [sin((n-1)x/2) exp(i(n-1)x/2) + sin(x/2) exp(ix/2)],
          |chi_0|^2 = 4a^2 [sin^2(nx/2) + 4 sin^2((n-1)x/2) sin^2(x/2)].
      The Dirichlet kernel D_N(h) = sin(N h)/sin(h) is (-1)^(k(N-1))
      sin(N d)/sin(d) for h = k pi + d, k the nearest integer to h/pi, and
      that sign times N at d = 0: reduced, it keeps full precision at and
      near every pole.
    * UDD: the Jacobi-Anger series of udd_series, summed over the stencil
      weights of udd_stencil_weights, one array for the odd orders (Im chi)
      and one for the even orders (Re chi), not over eta: O(w T) real
      multiply-adds per frequency from one Miller recurrence over all
      frequencies.  Where that would cost more than the boundary sum (few
      frequencies, or w T large against nN), UDD takes the boundary sum.
    * CUSTOM: every boundary phasor.

    The w = 0 entries use the stencil of the limit eta_l(0) = -i * sum_j dt_j(l),
    which for PDD's equal slots is 0.
    """
    return _exponent_rows(omegas, schedule, None)


def _exponent_rows(omegas, schedule: ScheduleSpec, weights: np.ndarray | None) -> np.ndarray:
    """exponent_filters(omegas, schedule), or for (K, 1) ``weights`` the table's
    rows weights[j] |chi_k(w_j)|^2, filled in place a chunk of nodes at a
    time: no eta or chi exists for all of ``omegas``."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    if schedule.scheme is Scheme.PDD:
        return _pdd_rows(omegas, schedule, weights)
    out = None
    for part, chi in _filter_chunks(omegas, schedule):
        if out is None:  # above the first chunk's temporaries: fewer pages re-faulted a pass
            out = np.empty((omegas.size, schedule.n - 1),
                           dtype=complex if weights is None else float)
        if weights is None:
            out[part] = chi
        else:
            block = np.square(chi.real, out=out[part])
            block += np.square(chi.imag, out=chi.imag)
            block *= weights[part]
    return out


def _chunks(size: int, chunk: int):
    """Consecutive slices of ``chunk`` indices, the last shorter, over range(size);
    one empty slice if ``size`` is 0."""
    for start in range(0, size or 1, chunk):
        yield slice(start, start + chunk)


def _pdd_rows(omegas: np.ndarray, schedule: ScheduleSpec,
              weights: np.ndarray | None) -> np.ndarray:
    """_exponent_rows for PDD, in the closed form of exponent_filters, written
    into the result a chunk of about _CHUNK_ELEMS elements at a time.  The
    rows take its moduli, with no complex exponential: the weight times a^2
    times 4 [sin^2(nx/2) + 4 sin^2((n-1)x/2) sin^2(x/2)] in column 0 and
    times 16 sin^4(x/2) in every other column."""
    n, cycles, total_time = schedule.n, schedule.cycles, schedule.total_time
    step = total_time / (n * cycles)
    centres = 0.5 * (total_time + (2.0 * np.arange(n - 1) + (1 - n)) * step)
    out = np.empty((omegas.size, n - 1), dtype=complex if weights is None else float)
    for part in _chunks(omegas.size, max(1, _CHUNK_ELEMS // n)):
        w, values = omegas[part], out[part]
        # the w = 0 quotients are not finite; 0 replaces them below
        with np.errstate(divide="ignore", invalid="ignore"):
            half = (0.5 * n * step) * w  # n x/2 = k pi + delta, D_N(n x/2) reduced
            turns = np.rint(half / math.pi)
            delta = half - turns * math.pi
            poles = np.sin(delta)  # +-sin(n x/2)
            amplitude = np.where(delta == 0.0, cycles, np.sin(cycles * delta) / poles)
            edge = np.sin((0.5 * step) * w)  # sin(x/2)
            amplitude *= 2.0 * edge / w
            wrap = np.sin((0.5 * (n - 1) * step) * w)  # sin((n-1)x/2)
            if weights is not None:
                np.square(amplitude, out=amplitude)  # a^2, then times the weight
                amplitude *= weights[part, 0]
                np.square(edge, out=edge)
                values[:, 0] = 4.0 * amplitude * (np.square(poles) + 4.0 * np.square(wrap) * edge)
                values[:, 1:] = (16.0 * amplitude * np.square(edge))[:, None]
            else:
                amplitude *= 1.0 - 2.0 * (turns * (cycles - 1) % 2.0)  # (-1)^(k(N-1))
                values[:, 0] = 2.0 * amplitude * (wrap * np.exp((0.5j * (n - 1) * step) * w)
                                                  + edge * np.exp((0.5j * step) * w))
                values[:, 1:] = (4j * amplitude * np.square(edge))[:, None]
                values *= np.exp(1j * np.multiply.outer(w, centres))
        values[w == 0.0] = 0.0
    return out


def _filter_chunks(omegas: np.ndarray, schedule: ScheduleSpec):
    """Yield (part, exponent_filters(omegas[part], schedule)) over consecutive
    slices, each with temporaries of about _CHUNK_ELEMS elements, for UDD and
    custom fractions.  UDD's form is chosen for all of ``omegas``, so a chunk
    has the bits of one whole call."""
    boundaries, limit = schedule.boundaries, stencil(-1j * schedule.segments.sum(axis=0)[None])
    n, cycles, total_time = schedule.n, schedule.cycles, schedule.total_time
    orders = _udd_series_orders(omegas, schedule) if schedule.scheme is Scheme.UDD else None
    if orders is not None:
        # a z's sums take weights up to its order + 1
        odd, even = udd_stencil_weights(int(orders.max()) + 1, n, cycles)
        chunk = max(1, _CHUNK_ELEMS // BLOCK_ROWS)
    else:
        chunk = max(1, _CHUNK_ELEMS // (boundaries.size + 1))
        # one phasor and one difference buffer for all chunks, written in place
        buffer = np.empty((min(chunk, omegas.size), boundaries.size), dtype=complex)
        diff_buffer = np.empty((buffer.shape[0], boundaries.size - 1), dtype=complex)
    for part in _chunks(omegas.size, chunk):
        w = omegas[part]
        # the w = 0 quotients are not finite; the limit replaces them below
        with np.errstate(divide="ignore", invalid="ignore"):
            if orders is not None:
                z = 0.5 * total_time * w
                values = bessel_sums(z, orders[part], odd, even)
                values *= (np.exp(1j * z) / w)[:, None]
            else:
                edge, diffs = buffer[: w.size], diff_buffer[: w.size]
                np.multiply(w[:, None], boundaries, out=edge.imag)
                edge.real = 0.0
                np.exp(edge, out=edge)
                np.subtract(edge[:, :-1], edge[:, 1:], out=diffs)
                values = stencil(diffs.reshape(w.size, cycles, n).sum(axis=1) / w[:, None])
        values[w == 0.0] = limit
        yield part, values


def _thermal_weight(omegas: np.ndarray, bath: BathSpec) -> np.ndarray:
    """(1/2) I(w) coth(w/(2 Tp)) with the finite w=0 limit alpha*Tp/4."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 0.5 * ohmic_density(omegas, bath) / np.tanh(omegas / (2.0 * bath.temperature))
    out[omegas == 0.0] = bath.alpha * bath.temperature / 4.0
    return out


def decay_integrand(omegas, schedule: ScheduleSpec, bath: BathSpec) -> np.ndarray:
    """Rows (1/2) I(w) coth(w/(2 Tp)) |chi_k(w)|^2 for every transition k, shape (n-1, K)."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    rows = _exponent_rows(omegas, schedule, _thermal_weight(omegas, bath)[:, None])
    return np.ascontiguousarray(rows.T)  # C-ordered: panel sums in one summation order


def _tilings(levels: np.ndarray, uppers: np.ndarray):
    """How each level tiles [0, upper], elementwise: the count of whole panels
    [k h, (k+1) h], h = 4 pi / 2**level, whether a remainder panel is left, and
    its centre and half-width (meaningless where none is)."""
    width = np.ldexp(_PANEL_WIDTH, -levels)
    whole = np.floor(uppers / width)
    rest = whole * width < uppers
    half = 0.5 * (uppers - whole * width)
    return whole.astype(int), rest, uppers - half, half


def _rel_change(prev: np.ndarray, curr: np.ndarray) -> float:
    """The convergence rule: inf, which no tolerance accepts, if an entry is
    not finite, else the largest |c - p| / max(|c|, |p|) over the entries of
    scale above _ZERO_FLOOR (below it, both count as converged zeros), else 0."""
    change = 0.0
    for p, c in zip(prev.tolist(), curr.tolist()):  # Python floats: no numpy call per point
        if not (math.isfinite(p) and math.isfinite(c)):
            return math.inf
        scale = abs(c) if abs(c) > abs(p) else abs(p)
        if scale > _ZERO_FLOOR and abs(c - p) / scale > change:
            change = abs(c - p) / scale
    return change


def _fractions_key(spec: ScheduleSpec) -> tuple:
    """The fields that fix a schedule's pulse fractions: all but its total time."""
    return spec.scheme, spec.n, spec.cycles, spec.custom_fractions


class FilterTable:
    """Decay exponent estimates of a sweep's points, from |chi1_k(u)|^2 on
    Gauss-Legendre panels of one set of pulse fractions and one bath.

    With the fractions fixed, chi_k(w; T) = T * chi1_k(w T), where chi1 is the
    filter of ``unit``, the sweep's schedule at total time 1.  Level L tiles
    u = w T with the whole panels [k h_L, (k+1) h_L], h_L = 4 pi / 2**L,
    k = 0, 1, ..., which therefore serve every total time: a point with u up
    to cutoff*T takes the first floor(cutoff*T/h_L) of them, then a remainder
    panel [floor(cutoff*T/h_L) h_L, cutoff*T].

    ``times`` lists the total times of a sweep's points.  The table's first
    use is one batch over every listed point's first two levels: one filter
    call (a UDD call costs O(max u) numpy steps whatever its size) and per
    level one reduction, or a few near the panel cap.  Per (level, T) the
    table keeps only the estimate and its node count, and judges neither.  A
    deeper level is the same batch over one point's whole tiling.  Using the
    table mutates it: do not share one table between threads.
    """

    def __init__(self, spec: ScheduleSpec, bath: BathSpec, times):
        self.unit = dataclasses.replace(spec, total_time=1.0)
        self.bath = bath
        # per (level, T): Gamma estimate, node count
        self._estimates: dict[tuple[int, float], tuple[np.ndarray, int]] = {}
        self._planned = list(times)

    def estimate(self, level: int, total_time: float) -> tuple[np.ndarray, int]:
        """Gamma estimate of the point at ``total_time`` on ``level`` and its
        node count, as computed: an overflowed integrand gives a non-finite one."""
        key = level, total_time
        if key not in self._estimates:
            pairs = [key]
            for t in self._planned:
                first = _first_level(self.bath.cutoff * t)
                pairs += [(first, t), (first + 1, t)]
            self._planned = []
            self._batch(pairs)
        return self._estimates[key]

    def _batch(self, pairs: list[tuple[int, float]]) -> None:
        """Estimate Gamma for every (level, total time) of ``pairs``, each once,
        grouped by level in order of first appearance.

        One filter call weighs each level's whole panels from u = 0 up to its
        longest point's, then the batch's distinct remainder panels in order
        of first use; only its nodes and rows outlive it.  A level sums its
        points in groups padded to the longest, each within about the nodes of
        a point's first two levels at _MAX_PANELS, however many points share it.
        """
        pairs = list(dict.fromkeys(pairs))
        order = list(dict.fromkeys(level for level, _ in pairs))
        pairs.sort(key=lambda pair: order.index(pair[0]))
        levels, times = map(np.array, zip(*pairs))
        whole, rest, centres, halves = _tilings(levels, self.bath.cutoff * times)
        starts = [0, *(np.flatnonzero(np.diff(levels)) + 1).tolist(), len(pairs)]
        tops = np.maximum.reduceat(whole, starts[:-1]).tolist()  # per level, in ``order``
        places, panels = {}, np.full(whole.size, -1)
        panels[rest] = [places.setdefault(key, len(places))
                        for key in zip(centres[rest].tolist(), halves[rest].tolist())]
        panels[rest] += sum(tops)  # the call's remainder panels follow all its whole panels
        width = np.repeat(np.ldexp(_PANEL_WIDTH, -np.array(order)), tops)
        index = np.concatenate([np.arange(top) for top in tops])
        centres = np.append((index + 0.5) * width, [centre for centre, _ in places])
        halves = np.append(0.5 * width, [half for _, half in places])
        nodes = (centres[:, None] + halves[:, None] * _GL_NODES).ravel()
        rows = _exponent_rows(nodes, self.unit, (halves[:, None] * _GL_WEIGHTS).reshape(-1, 1))
        gamma = np.empty((len(pairs), self.unit.n - 1))
        first = 0  # the level's first node
        for a, b, top in zip(starts, starts[1:], tops):
            size = max(1, 3 * _MAX_PANELS // (top + 1) - 1)
            for start in range(a, b, size):
                group = slice(start, min(start + size, b))
                gamma[group] = self._reduce_group(nodes, rows, first, times[group],
                                                  whole[group], panels[group])
            first += GL_ORDER * top
        counts = GL_ORDER * (whole + (panels >= 0))
        self._estimates.update(zip(pairs, zip(gamma, counts.tolist())))

    def _reduce_group(self, nodes, rows, first, times, whole, panels) -> np.ndarray:
        """Gamma estimates, one row per point at ``times`` with ``whole``
        panels and remainder ``panels`` (-1 for none), from a batch's filter
        call: its ``nodes`` and weighted rows w_j |chi1_k(u_j)|^2, the level's
        whole panels from node ``first`` on, and the remainder panels at
        their panel index.

        The bath weights are taken a node chunk at a time.  Each point's sum
        then runs in node order over its whole panels, then over its remainder
        panel, as a sum over that point alone would.
        """
        ends = GL_ORDER * whole
        rest = np.flatnonzero(panels >= 0)
        span, width, count = int(ends.max()), rows.shape[1], times.size
        level = slice(first, first + span)
        # Per point, then one all-zero point: weights of its whole panels, zero past
        # its own, then of its remainder panel, zero if it has none.  With at least
        # two points, the reductions below loop over points innermost and add each
        # point's nodes in order, for a point swept alone as in a batch.
        used = np.zeros((count + 1, span + GL_ORDER), dtype=bool)
        used[:count, :span] = np.arange(span) < ends[:, None]
        used[rest, span:] = True
        weights = np.zeros(used.shape)
        panel_rows = np.zeros((count + 1, GL_ORDER, width))
        panel_rows[rest] = rows.reshape(-1, GL_ORDER, width)[panels[rest]]
        # an overflow is reported once, as decay_exponents' ConvergenceError
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # w = u/T of every used (point, node) pair, then its bath weight
            np.divide(nodes[level], np.append(times, 1.0)[:, None], out=weights[:, :span],
                      where=used[:, :span])
            weights[rest, span:] = nodes.reshape(-1, GL_ORDER)[panels[rest]] / times[rest, None]
            step = max(1, _CHUNK_ELEMS // (count + 1))  # pairs a node chunk at a time
            for start in range(0, span + GL_ORDER, step):
                view, mask = weights[:, start : start + step], used[:, start : start + step]
                view[mask] = _thermal_weight(view[mask], self.bath)
            # row 0: each point's sum over its whole panels, by einsum without
            # optimize (not BLAS, whose order may vary with its threads) over
            # node-major weights, looping innermost over points.  numpy's einsum
            # adds one product at a time, without a fused multiply-add: that is
            # what makes a point's bits those of the point alone.
            terms = np.empty((1 + GL_ORDER, count + 1, width))
            node_major = np.ascontiguousarray(weights[:, :span].T)
            terms[0] = np.einsum("jp,jk->kp", node_major, rows[level]).T
            # then its remainder panel's terms
            np.multiply(weights[:, span:].T[..., None], panel_rows.transpose(1, 0, 2),
                        out=terms[1:])
            return times[:, None] * terms.sum(axis=0)[:-1]


@dataclass(frozen=True)
class DecayExponents:
    """Converged decay exponents with quadrature metadata; ``gamma[k]`` is Gamma_k of
    transition k."""

    gamma: np.ndarray
    quadrature_points: int
    estimated_relative_error: float


def _first_level(upper: float) -> int:
    """Coarsest level with at least _MIN_PANELS whole panels below ``upper``.

    Raises ValueError unless ``upper`` = cutoff*T is at most _MAX_PANELS
    level-0 panels and 1/u is finite at the next level's first node,
    u = h (1 + _GL_NODES[0])/4 for a first-level panel width h: no table
    tiles a range it rejects.
    """
    if not upper >= _LOWEST_UPPER:
        raise ValueError(f"cutoff * total time = {upper!r} is below {_LOWEST_UPPER:.6g}, "
                         f"where 1/w overflows at the smallest quadrature node")
    if not upper <= _MAX_PANELS * _PANEL_WIDTH:
        raise ValueError(f"cutoff * total time = {upper!r} exceeds {_MAX_PANELS} panels "
                         f"of width 4 pi")
    level = 0
    while _MIN_PANELS * math.ldexp(_PANEL_WIDTH, -level) > upper:
        level += 1
    return level


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
    successive estimates of every Gamma_k agree within ``rel_tol``, finite and
    in (0, 1), for at most ``_MAX_DOUBLINGS`` halvings.  ``extra_levels``, an
    int >= 0, forces that many more halvings after convergence (to probe
    quadrature stability).  One rule, _rel_change, judges each estimate
    against the one before it, the first against itself.  ``table`` is a
    FilterTable for the schedule's fractions and ``bath``, shared by the
    points of a sweep; without one a one-point table is built.  Raises
    ConvergenceError naming T at the first non-finite estimate, or with the
    last two Gamma totals if the target is never met.
    """
    if not 0.0 < (tol := as_number(rel_tol, float)) < 1.0:
        raise ValueError(f"rel_tol must be finite and in (0, 1), got {rel_tol}")
    check_count("extra levels", "extra_levels", extra_levels, 0)
    if table is None:
        table = FilterTable(schedule, bath, [schedule.total_time])
    elif _fractions_key(schedule) != _fractions_key(table.unit):
        raise ValueError("filter table was built for other pulse fractions")
    elif table.bath != bath:
        raise ValueError("filter table was built for another bath")
    total_time = schedule.total_time
    first = level = _first_level(bath.cutoff * total_time)
    curr, points = table.estimate(level, total_time)
    prev, last, converged = curr, first + _MAX_DOUBLINGS, False  # the first against itself
    while True:
        if (change := _rel_change(prev, curr)) == math.inf:
            raise ConvergenceError(f"non-finite decay exponent estimate on {points} nodes "
                                   f"(while evaluating T={total_time:.6g})")
        if level > first and not converged and change <= tol:
            converged, last = True, level + extra_levels
        if level == last:
            break
        level += 1
        prev, (curr, points) = curr, table.estimate(level, total_time)
    if converged:
        return DecayExponents(gamma=curr, quadrature_points=points,
                              estimated_relative_error=change)
    raise ConvergenceError(f"decay exponents did not converge to rel_tol={tol:g} within "
                           f"{_MAX_DOUBLINGS} doublings ({points} nodes; last two Gamma totals "
                           f"{prev.sum()}, {curr.sum()}) (while evaluating T={total_time:.6g})")


def sweep_curve(
    template: ScheduleSpec, bath: BathSpec, t_grid, rel_tol: float = 1e-6
) -> tuple[DecayExponents, ...]:
    """Decay exponents at each time of a grid, one per time in grid order, for
    the fractions of ``template``.  P(T) = exp(-gamma.sum()) is the caller's to
    take: it underflows to 0 where Gamma still holds the answer.

    The grid must be strictly increasing, finite and positive.  Points run in grid
    order and share one FilterTable, told every point's total time up front,
    so the first point checks every point's range before any filter call.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValueError("time grid must be a non-empty 1-D array")
    bad = t_grid[~(np.isfinite(t_grid) & (t_grid > 0))]
    if bad.size:
        raise ValueError(f"time grid values must be finite and > 0, got {bad[0]}")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("time grid must be strictly increasing")

    table = FilterTable(template, bath, t_grid.tolist())
    return tuple(
        decay_exponents(build_schedule(dataclasses.replace(template, total_time=t)), bath,
                        rel_tol=rel_tol, table=table)
        for t in t_grid.tolist()
    )
