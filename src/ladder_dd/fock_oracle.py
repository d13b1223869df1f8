"""Brute-force validator: exact pulsed evolution with truncated-Fock bath modes.

The analytic decay exponents rest on a chain of frame transformations and
index bookkeeping that is easy to get subtly wrong.  This module checks them
from the other end: evolve the atom and a few explicit oscillator modes
through the pulsed sequence and read how much of the (0,1) coherence
survives: every run starts from the equal superposition of levels 0 and 1
and returns the factor rho_01(T) / rho_01(0).

For purely dephasing coupling the interaction-picture Hamiltonian commutes
with itself at different times up to a c-number, so the Magnus series of a
segment terminates at its second term: the propagator is a displacement of
the mode times a c-number phase, the one exact path here; the tests
cross-check it with sub-stepped piecewise-constant products of short
displacements.  Every displacement is a phase rotation of exp(s(adag - a)),
from one eigendecomposition per fock_dim.

The evolution is exact in product form.  Segment propagators are
block-diagonal in the atom level and factor over modes, and every pulse is
monomial, so the final (0,1) block descends from one initial block (a, b):

    factor = [{a, b} = {0, 1}] * (pulse phases) * prod_k sum_ij p_j L_ij conj(R_ij),

the start state's (a, b) entry over its (0,1) entry, times each mode's
Tr[L diag(p) R^dag]: p_j are the mode's Boltzmann populations and L (R) is the
time-ordered product of its own fock_dim x fock_dim segment propagators at the
levels the row (column) index visits.  Each fock_dim is capped at DIM_CAP:
this is a desk-scale validator, not a production path.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .kernel import exponent_filters, position_filters
from .operators import sigma_z
from .schedules import ScheduleSpec, check_count

DEFAULT_TAIL = 1e-10
DIM_CAP = 2000


class TruncationError(ValueError):
    """Truncated Fock space too small for the requested thermal state."""


class NonMonomialPulseError(ValueError):
    """A pulse without exactly one nonzero entry per row and column."""


@dataclass(frozen=True)
class ModeSpec:
    """One bath oscillator: the transition it dephases, frequency, coupling
    amplitude and Fock truncation dimension."""

    transition: int
    omega: float
    coupling: complex
    fock_dim: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"mode omega (frequency) must be finite and > 0, "
                             f"got {self.omega}")
        if not cmath.isfinite(self.coupling):
            raise ValueError(f"mode coupling must be finite, got {self.coupling}")
        check_count("fock_dim", "fock_dim", self.fock_dim, 2)
        if self.fock_dim > DIM_CAP:
            raise ValueError(f"fock_dim must be <= the per-mode cap {DIM_CAP}, "
                             f"got {self.fock_dim}")
        check_count("transition index", "transition", self.transition, 0)


def _check_temperature(temperature: float) -> None:
    if not (math.isfinite(temperature) and temperature > 0):
        raise ValueError(f"temperature must be finite and > 0, got {temperature}")


def _check_transition(mode: ModeSpec, n: int) -> None:
    if mode.transition > n - 2:
        raise ValueError(f"mode transition {mode.transition} out of range for n={n}")


def thermal_populations(mode: ModeSpec, temperature: float) -> np.ndarray:
    """Boltzmann weights p_j proportional to q**j, q = exp(-omega/temperature),
    on the truncated mode's fock_dim levels; they sum to one.

    Raises TruncationError, naming the kept tail weight q**fock_dim, unless it
    is below ``DEFAULT_TAIL``.  That bounds the thermal tail only: a run's
    displacements lift the mode to higher levels and need their own margin.
    """
    _check_temperature(temperature)
    q = math.exp(-mode.omega / temperature)
    tail = q**mode.fock_dim
    if tail >= DEFAULT_TAIL:
        beyond = (f"; no fock_dim up to the cap {DIM_CAP} bounds it"
                  if q**DIM_CAP >= DEFAULT_TAIL else "")
        raise TruncationError(
            f"fock_dim={mode.fock_dim} keeps thermal tail weight {tail:.3e} >= "
            f"{DEFAULT_TAIL:g} for omega={mode.omega}, temperature={temperature}{beyond}")
    populations = q ** np.arange(mode.fock_dim, dtype=float)
    return populations / populations.sum()


def _monomial_split(pulse: np.ndarray) -> tuple[list[int], list[int], np.ndarray]:
    """(perm, inverse, phases) with pulse[perm[b], b] = phases[b], every other
    entry zero, and inverse[perm[b]] = b.

    One nonzero scan gives each row's column, the inverse.  Raises
    NonMonomialPulseError unless each row and each column of ``pulse`` holds
    exactly one nonzero entry.
    """
    rows, columns = np.nonzero(pulse)
    size, inverse = len(pulse), columns.tolist()
    if rows.tolist() != list(range(size)) or sorted(inverse) != list(range(pulse.shape[1])):
        nonzero = pulse != 0
        raise NonMonomialPulseError(
            f"pulse is not monomial: nonzero entries per column {nonzero.sum(axis=0)}, "
            f"per row {nonzero.sum(axis=1)}"
        )
    perm = sorted(range(size), key=inverse.__getitem__)
    return perm, inverse, pulse[perm, rows]


@cache
def _basis(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(lam, V, levels, diagonal) on ``dim`` Fock levels, cached for the process:
    i(a^dag - a) = V diag(lam) V^dag from one ``np.linalg.eigh`` per dimension,
    the level indices 0..dim-1 and the flat positions of the diagonal.  A basis
    takes 64 MB at DIM_CAP; oracle-check uses 8 dimensions, none above 25."""
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1)
    lam, vecs = np.linalg.eigh(1j * (a.T - a))
    levels = np.arange(dim)
    return lam, vecs, levels, levels * (dim + 1)


def expm(dim: int, z: complex) -> np.ndarray:
    """Displacement exp(z adag - conj(z) a) on ``dim`` Fock levels.

    Exact in the truncated space too: it is R exp(|z|(adag - a)) R^dag with
    R = diag(e^{i arg(z) k}), and exp(s(adag - a)) = I + V (e^{-i s lam} - 1) V^dag
    from _basis, whose levels k and diagonal positions it reuses.  The identity
    is added exactly, so a small displacement rounds in proportion to its size.
    """
    lam, vecs, levels, diagonal = _basis(dim)
    rotated = np.exp(1j * cmath.phase(z) * levels)[:, None] * vecs
    out = (rotated * np.expm1(-1j * abs(z) * lam)) @ rotated.conj().T
    out.ravel()[diagonal] += 1.0  # the product is C-contiguous: ravel is a view
    return out


def _segment_exact(mode: ModeSpec, weight: float, t_start: float, dt: float) -> np.ndarray:
    """Closed-form propagator of one mode over a free segment, at an atom
    level of dephasing weight ``weight``: the first Magnus term displaces by
    weight * z, z = j e^{i w t_start} (1 - e^{i w dt}) / w, and the second is
    the c-number phase weight^2 |j|^2 (dt/w - sin(w dt)/w^2)."""
    omega, coupling = mode.omega, mode.coupling
    z = coupling * cmath.exp(1j * omega * t_start) * (1.0 - cmath.exp(1j * omega * dt)) / omega
    phase = weight**2 * abs(coupling) ** 2 * (dt / omega - math.sin(omega * dt) / omega**2)
    return cmath.exp(1j * phase) * expm(mode.fock_dim, weight * z)


def _time_ordered(factors, dim: int) -> np.ndarray:
    """Product of ``factors``, each later one on the left: the first factor
    starts the chain, and the identity on ``dim`` levels stands for none."""
    block = None
    for factor in factors:
        block = factor if block is None else factor @ block
    return np.eye(dim, dtype=complex) if block is None else block


def _coherence(n, modes, steps, temperature) -> complex:
    """Coherence factor rho_01(T) / rho_01(0) after ``steps`` of (t_start, dt,
    monomial split of the pulse that ends the segment)."""
    populations = [thermal_populations(mode, temperature) for mode in modes]
    a, b = 0, 1
    for *_, (_, inverse, _) in reversed(steps):
        a, b = inverse[a], inverse[b]
    factor = 1.0 if {a, b} == {0, 1} else 0.0  # the start state over its (0,1) entry
    rows, columns = [], []  # (t_start, dt, level) of each free segment, per side
    for t_start, dt, (perm, _, phases) in steps:
        if dt > 0:
            rows.append((t_start, dt, a))
            columns.append((t_start, dt, b))
        factor *= phases[a] * np.conj(phases[b])
        a, b = perm[a], perm[b]
    for mode, p in zip(modes, populations):
        weights = np.diag(sigma_z(n, mode.transition)).real.tolist()
        # a zero weight leaves the mode alone
        left, right = (
            _time_ordered((_segment_exact(mode, weights[level], t_start, dt)
                           for t_start, dt, level in path if weights[level] != 0.0),
                          mode.fock_dim)
            for path in (rows, columns))
        # Tr[L diag(p) R^dag] elementwise, so no BLAS call sets its rounding
        factor *= np.sum(left * right.conj() * p)
    return complex(factor)


def evolve_pulsed(
    modes,
    schedule: ScheduleSpec,
    group: tuple[np.ndarray, ...],
    temperature: float,
) -> complex:
    """Coherence factor rho_01(T) / rho_01(0) after the full pulsed sequence,
    evolved exactly from the equal superposition of levels 0 and 1.

    The atom has the schedule's dimension n, and ``group`` is its n monomial
    elements g_0 ... g_{n-1}.  Free segments follow the
    schedule; after segment l of each cycle the atom pulse g_l g_{l-1}^dag
    fires, and the cycle closes with g_{n-1}^dag.  Each segment is the
    closed-form Magnus propagator; the sub-stepped midpoint products that
    cross-check it live in the tests.
    """
    n = schedule.n
    if len(group) != n:
        raise ValueError(f"dimension mismatch: schedule n={n}, group of {len(group)} elements")
    modes = tuple(modes)
    if not modes:
        raise ValueError("at least one bath mode is required")
    for mode in modes:
        _check_transition(mode, n)
    pulses = [group[l] @ group[l - 1].conj().T for l in range(1, n)]
    splits = [_monomial_split(pulse) for pulse in pulses + [group[n - 1].conj().T]]
    starts, lengths = schedule.boundaries.tolist(), schedule.segments.tolist()
    steps = [
        (starts[j * n + l], lengths[j][l], splits[l])
        for j in range(schedule.cycles)
        for l in range(n)
    ]
    return _coherence(n, modes, steps, temperature)


def discrete_decay_exponent(
    modes, temperature: float, schedule: ScheduleSpec, wrong_sign: bool = False
) -> float:
    """Total predicted exponent sum_k (1/2)|j_k chi(w_k)|^2 coth(w_k/(2 Tp)).

    Each mode contributes through the exponent filter of its own transition;
    this is the discrete-bath counterpart of the continuum integral and the
    quantity the Fock evolution must reproduce.  ``wrong_sign`` is the
    negative control: the upper neighbour slot enters each filter with the
    wrong sign, as under a wrong toggling-sign convention.
    """
    _check_temperature(temperature)
    for mode in modes:
        _check_transition(mode, schedule.n)
    omegas = [mode.omega for mode in modes]
    filters = exponent_filters(omegas, schedule)
    if wrong_sign:
        upper = position_filters(omegas, schedule)[:, 1 : schedule.n]
        filters = filters - 2.0 * upper
    total = 0.0
    for mode, chis in zip(modes, filters):
        chi = chis[mode.transition]
        coth = 1.0 / math.tanh(mode.omega / (2.0 * temperature))
        total += 0.5 * abs(mode.coupling) ** 2 * abs(chi) ** 2 * coth
    return total

