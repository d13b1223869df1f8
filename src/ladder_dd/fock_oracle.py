"""Brute-force validator: exact pulsed evolution with truncated-Fock bath modes.

The analytic decay exponents rest on a chain of frame transformations and
index bookkeeping that is easy to get subtly wrong.  This module checks them
from the other end: evolve the atom and a few explicit oscillator modes
through the pulsed sequence and read the surviving (0,1) coherence directly.

For purely dephasing coupling the interaction-picture Hamiltonian commutes
with itself at different times up to a c-number, so the Magnus series of a
segment terminates at its second term: the propagator is a displacement of
the mode times a c-number phase.  A sub-stepped piecewise-constant product of
short displacements cross-checks it independently.  Every displacement is a
phase rotation of exp(s(adag - a)), from one eigendecomposition per fock_dim.

The evolution is exact in product form.  Segment propagators are
block-diagonal in the atom level and factor over modes, and every pulse is
monomial, so the final (0,1) block descends from one initial block (a, b):

    coherence = rho_atom[a, b] * (pulse phases) * prod_k Tr[L_k rho_k R_k^dag],

with L_k (R_k) the time-ordered product of mode k's own fock_dim x fock_dim
segment propagators at the levels the row (column) index visits.  Each
fock_dim is capped at DIM_CAP: this is a desk-scale validator, not a
production path.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .kernel import ConvergenceError, exponent_filters, position_filters
from .operators import DecouplingGroup, sigma_z
from .schedules import ScheduleSpec

DEFAULT_TAIL = 1e-10
DIM_CAP = 2000


class TruncationError(ValueError):
    """Truncated Fock space too small for the requested thermal state."""

    def __init__(self, message: str, required_dim: int):
        super().__init__(message)
        self.required_dim = required_dim


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
        if self.fock_dim < 2:
            raise ValueError(f"fock_dim must be >= 2, got {self.fock_dim}")
        if self.transition < 0:
            raise ValueError(f"transition index must be >= 0, got {self.transition}")


def _check_temperature(temperature: float) -> None:
    if not (math.isfinite(temperature) and temperature > 0):
        raise ValueError(f"temperature must be finite and > 0, got {temperature}")


def _check_transition(mode: ModeSpec, n: int) -> None:
    if mode.transition > n - 2:
        raise ValueError(f"mode transition {mode.transition} out of range for n={n}")


def min_fock_dim(omega: float, temperature: float) -> int:
    """Smallest truncation with Boltzmann tail weight below ``DEFAULT_TAIL``.

    The normalized occupation distribution is geometric with ratio
    q = exp(-omega/temperature); the weight beyond level d-1 is q**d.  This
    bounds the thermal tail only: a run's displacements lift the mode to
    higher levels and need their own margin, checked by doubling fock_dim.
    """
    _check_temperature(temperature)
    q = math.exp(-omega / temperature)
    if q == 0.0:
        return 2
    d = max(2, math.ceil(math.log(DEFAULT_TAIL) / math.log(q)))
    while q**d >= DEFAULT_TAIL:
        d += 1
    return d


def thermal_state(mode: ModeSpec, temperature: float) -> np.ndarray:
    """Diagonal Boltzmann state on the truncated mode space, trace one.

    Raises TruncationError if the discarded tail weight is not below
    ``DEFAULT_TAIL``, advising the dimension that bounds the thermal tail; the
    displacements need more (see min_fock_dim).
    """
    needed = min_fock_dim(mode.omega, temperature)  # checks the temperature
    q = math.exp(-mode.omega / temperature)
    if q > 0.0 and q**mode.fock_dim >= DEFAULT_TAIL:
        raise TruncationError(
            f"fock_dim={mode.fock_dim} keeps tail weight {q**mode.fock_dim:.3e} "
            f">= {DEFAULT_TAIL:g} for omega={mode.omega}, temperature={temperature}; "
            f"use fock_dim >= {needed}, which bounds the thermal tail only: "
            f"the displacements need their own margin",
            required_dim=needed,
        )
    populations = q ** np.arange(mode.fock_dim, dtype=float)
    populations /= populations.sum()
    return np.diag(populations).astype(complex)


def superposition_state(n: int) -> np.ndarray:
    """Pure equal superposition of atom levels 0 and 1 (maximal coherence)."""
    vec = np.zeros(n, dtype=complex)
    vec[0] = vec[1] = 1.0 / math.sqrt(2.0)
    return np.outer(vec, vec.conj())


def _monomial_split(pulse: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(perm, phases) with pulse[perm[b], b] = phases[b] and every other entry zero.

    Raises NonMonomialPulseError unless each row and each column of ``pulse``
    holds exactly one nonzero entry.
    """
    nonzero = pulse != 0
    if not ((nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) == 1).all()):
        raise NonMonomialPulseError(
            f"pulse is not monomial: nonzero entries per column {nonzero.sum(axis=0)}, "
            f"per row {nonzero.sum(axis=1)}"
        )
    perm = np.argmax(nonzero, axis=0)
    return perm, pulse[perm, np.arange(perm.size)]


@cache
def _basis(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(lam, V) with i(a^dag - a) = V diag(lam) V^dag on ``dim`` Fock levels: one
    ``np.linalg.eigh`` per dimension, cached for the process.  A basis takes
    64 MB at DIM_CAP; oracle-check uses 8 dimensions, none above 25."""
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1)
    return np.linalg.eigh(1j * (a.T - a))


def expm(dim: int, z: complex) -> np.ndarray:
    """Displacement exp(z adag - conj(z) a) on ``dim`` Fock levels.

    Exact in the truncated space too: it is R exp(|z|(adag - a)) R^dag with
    R = diag(e^{i arg(z) k}), and exp(s(adag - a)) = I + V (e^{-i s lam} - 1) V^dag
    from _basis.  The identity is added exactly, so a small displacement
    rounds in proportion to its size.
    """
    lam, vecs = _basis(dim)
    rotated = np.exp(1j * cmath.phase(z) * np.arange(dim))[:, None] * vecs
    out = (rotated * np.expm1(-1j * abs(z) * lam)) @ rotated.conj().T
    out.flat[:: dim + 1] += 1.0
    return out


def _segment_exact(mode: ModeSpec, weight: float, t_start: float, dt: float) -> np.ndarray:
    """Closed-form propagator of one mode over a free segment, at an atom
    level of dephasing weight ``weight``: the first Magnus term displaces by
    weight * z, z = j e^{i w t_start} (1 - e^{i w dt}) / w, and the second is
    the c-number phase weight^2 |j|^2 (dt/w - sin(w dt)/w^2)."""
    z = mode.coupling * cmath.exp(1j * mode.omega * t_start) * (
        1.0 - cmath.exp(1j * mode.omega * dt)) / mode.omega
    phase = weight**2 * abs(mode.coupling) ** 2 * (
        dt / mode.omega - math.sin(mode.omega * dt) / mode.omega**2)
    return cmath.exp(1j * phase) * expm(mode.fock_dim, weight * z)


def _segment_substeps(mode: ModeSpec, weight: float, t_start: float, dt: float,
                      substeps: int) -> np.ndarray:
    """Piecewise-constant propagator, midpoint-sampled; cross-checks the exact
    one.  Each sub-step exp(-i weight h step), h = drive adag + conj(drive) a,
    is the displacement by -i weight drive step."""
    step = dt / substeps
    block = np.eye(mode.fock_dim, dtype=complex)
    for s in range(substeps):
        drive = mode.coupling * cmath.exp(1j * mode.omega * (t_start + (s + 0.5) * step))
        block = expm(mode.fock_dim, -1j * weight * drive * step) @ block
    return block


def _coherence(n, modes, steps, atom_state, temperature, segment) -> complex:
    """Final (0,1) coherence after ``steps`` of (t_start, dt, monomial split of
    the pulse or None); ``segment(mode, weight, t_start, dt)`` is one mode's
    propagator over a free segment at a level of nonzero dephasing weight."""
    thermal = [thermal_state(mode, temperature) for mode in modes]
    a, b = 0, 1
    for *_, split in reversed(steps):
        if split is not None:
            inverse = np.argsort(split[0])
            a, b = inverse[a], inverse[b]
    factor = complex(atom_state[a, b])
    path = []  # (t_start, dt, row level, column level) of each free segment
    for t_start, dt, split in steps:
        if dt > 0:
            path.append((t_start, dt, a, b))
        if split is not None:
            perm, phases = split
            factor *= phases[a] * np.conj(phases[b])
            a, b = perm[a], perm[b]
    for mode, rho in zip(modes, thermal):
        weights = np.real(np.diag(sigma_z(n, mode.transition)))
        left = right = np.eye(mode.fock_dim, dtype=complex)
        for t_start, dt, row, col in path:
            # a zero weight leaves the mode alone
            if weights[row] != 0.0:
                left = segment(mode, weights[row], t_start, dt) @ left
            if weights[col] != 0.0:
                right = segment(mode, weights[col], t_start, dt) @ right
        factor *= np.trace(left @ rho @ right.conj().T)
    return complex(factor)


def _validate_inputs(n: int, modes, atom_state: np.ndarray) -> tuple[ModeSpec, ...]:
    modes = tuple(modes)
    if not modes:
        raise ValueError("at least one bath mode is required")
    for mode in modes:
        _check_transition(mode, n)
        if mode.fock_dim > DIM_CAP:
            raise ValueError(f"fock_dim {mode.fock_dim} exceeds the per-mode cap {DIM_CAP}")
    atom_state = np.asarray(atom_state)
    if atom_state.shape != (n, n):
        raise ValueError(f"atom state shape {atom_state.shape} does not match n={n}")
    if abs(atom_state[0, 1]) == 0.0:
        raise ValueError("initial atom state must carry nonzero (0,1) coherence")
    return modes


def evolve_pulsed(
    modes,
    schedule: ScheduleSpec,
    group: DecouplingGroup,
    atom_state: np.ndarray,
    temperature: float,
    substeps: int | None = None,
    substep_tol: float = 1e-8,
) -> complex:
    """(0,1) coherence after the full pulsed sequence, evolved exactly.

    The atom has the schedule's dimension n.  Free segments follow the
    schedule; after segment l of each cycle the atom pulse g_l g_{l-1}^dag
    fires, and the cycle closes with g_{n-1}^dag.  Each segment is the
    closed-form Magnus propagator or, with ``substeps`` set, the cross-check:
    that many piecewise-constant midpoint exponentials, run again at doubled
    resolution, raising ConvergenceError if the coherence moves by more than
    ``substep_tol``.  ``substeps`` must be an int >= 1 and ``substep_tol``
    finite and > 0.
    """
    if substeps is not None and (isinstance(substeps, bool)
                                 or not isinstance(substeps, (int, np.integer)) or substeps < 1):
        raise ValueError(f"substeps must be an int >= 1, got {substeps!r}")
    if not (math.isfinite(substep_tol) and substep_tol > 0):
        raise ValueError(f"substep_tol must be finite and > 0, got {substep_tol!r}")
    n = schedule.n
    if group.dim != n:
        raise ValueError(f"dimension mismatch: schedule n={n}, group n={group.dim}")
    modes = _validate_inputs(n, modes, atom_state)
    elements = group.elements
    pulses = [elements[l] @ elements[l - 1].conj().T for l in range(1, n)]
    splits = [_monomial_split(pulse) for pulse in pulses + [elements[n - 1].conj().T]]
    steps = [
        (float(schedule.boundaries[j * n + l]), float(schedule.segments[j, l]), splits[l])
        for j in range(schedule.cycles)
        for l in range(n)
    ]
    if substeps is None:
        return _coherence(n, modes, steps, atom_state, temperature, _segment_exact)
    coarse, fine = (
        _coherence(n, modes, steps, atom_state, temperature,
                   partial(_segment_substeps, substeps=count))
        for count in (substeps, 2 * substeps)
    )
    drift = abs(coarse - fine)
    if drift > substep_tol:
        raise ConvergenceError(
            f"sub-step halving moved the coherence by {drift:.3e} > {substep_tol:g}; "
            f"increase substeps (ran {substeps} and {2 * substeps})",
            previous=np.array([coarse]),
            current=np.array([fine]),
        )
    return fine


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
        upper = np.roll(position_filters(omegas, schedule), -1, axis=1)
        filters = filters - 2.0 * upper[:, : schedule.n - 1]
    total = 0.0
    for mode, chis in zip(modes, filters):
        chi = chis[mode.transition]
        coth = 1.0 / math.tanh(mode.omega / (2.0 * temperature))
        total += 0.5 * abs(mode.coupling) ** 2 * abs(chi) ** 2 * coth
    return total


def free_decay_baseline(total_time: float, modes, temperature: float, n: int) -> float:
    """Unpulsed decay exponent -ln|rho01(T)/rho01(0)|: one segment, no pulses,
    starting from the equal superposition of levels 0 and 1."""
    atom_state = superposition_state(n)
    modes = _validate_inputs(n, modes, atom_state)
    if not (math.isfinite(total_time) and total_time >= 0):
        raise ValueError(f"total_time must be finite and >= 0, got {total_time}")
    steps = [(0.0, float(total_time), None)]
    final = _coherence(n, modes, steps, atom_state, temperature, _segment_exact)
    start = abs(atom_state[0, 1])
    return -math.log(abs(final) / start)
