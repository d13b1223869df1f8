"""Brute-force validator: exact pulsed evolution with truncated-Fock bath modes.

The analytic decay exponents rest on a chain of frame transformations and
index bookkeeping that is easy to get subtly wrong.  This module checks them
from the other end: evolve the atom and a few explicit oscillator modes
through the pulsed sequence and read the surviving (0,1) coherence directly.

For purely dephasing coupling the interaction-picture Hamiltonian commutes
with itself at different times up to a c-number, so the time-ordered segment
propagator is the exponential of a closed-form generator (first plus second
Magnus terms, the series terminating there); a sub-stepped piecewise-constant
propagator cross-checks it independently.

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

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import expm

from .kernel import ConvergenceError, exponent_filters, exponent_for_transition
from .operators import DecouplingGroup, sigma_z
from .schedules import PulseSchedule

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
        if not self.omega > 0:
            raise ValueError(f"mode frequency must be > 0, got {self.omega}")
        if self.fock_dim < 2:
            raise ValueError(f"fock_dim must be >= 2, got {self.fock_dim}")
        if self.transition < 0:
            raise ValueError(f"transition index must be >= 0, got {self.transition}")


def min_fock_dim(omega: float, temperature: float, tail: float = DEFAULT_TAIL) -> int:
    """Smallest truncation with Boltzmann tail weight below ``tail``.

    The normalized occupation distribution is geometric with ratio
    q = exp(-omega/temperature); the weight beyond level d-1 is q**d.
    """
    q = math.exp(-omega / temperature)
    if q == 0.0:
        return 2
    d = max(2, math.ceil(math.log(tail) / math.log(q)))
    while q**d >= tail:
        d += 1
    return d


def thermal_state(mode: ModeSpec, temperature: float, tail: float = DEFAULT_TAIL) -> np.ndarray:
    """Diagonal Boltzmann state on the truncated mode space, trace one.

    Raises TruncationError if the discarded tail weight is not below
    ``tail``, advising the dimension that would suffice.
    """
    if not temperature > 0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    q = math.exp(-mode.omega / temperature)
    if q > 0.0 and q**mode.fock_dim >= tail:
        needed = min_fock_dim(mode.omega, temperature, tail)
        raise TruncationError(
            f"fock_dim={mode.fock_dim} keeps tail weight {q**mode.fock_dim:.3e} "
            f">= {tail:g} for omega={mode.omega}, temperature={temperature}; "
            f"use fock_dim >= {needed}",
            required_dim=needed,
        )
    populations = q ** np.arange(mode.fock_dim, dtype=float)
    populations /= populations.sum()
    return np.diag(populations).astype(complex)


def superposition_state(n: int, levels: tuple[int, int] = (0, 1)) -> np.ndarray:
    """Pure equal superposition of two atom levels (maximal coherence)."""
    vec = np.zeros(n, dtype=complex)
    vec[levels[0]] = vec[levels[1]] = 1.0 / math.sqrt(2.0)
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


def _lowering(mode: ModeSpec) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, mode.fock_dim, dtype=float)), k=1).astype(complex)


def _segment_exact(mode: ModeSpec, weight: float, t_start: float, dt: float) -> np.ndarray:
    """Closed-form segment propagator of one mode at an atom level of dephasing ``weight``.

    First Magnus term: displacement z*adag - conj(z)*a with
    z = j * exp(i w t_start) * (1 - exp(i w dt)) / w, scaled by the weight.
    Second term: the exact c-number phase |j|^2 (dt/w - sin(w dt)/w^2) times
    the squared weight; the series terminates there.
    """
    a = _lowering(mode)
    z = mode.coupling * np.exp(1j * mode.omega * t_start) * (
        1.0 - np.exp(1j * mode.omega * dt)
    ) / mode.omega
    phase = (weight**2) * abs(mode.coupling) ** 2 * (
        dt / mode.omega - math.sin(mode.omega * dt) / mode.omega**2
    )
    gen = weight * (z * a.conj().T - np.conj(z) * a) + 1j * phase * np.eye(mode.fock_dim)
    return expm(gen)


def _segment_substeps(mode: ModeSpec, weight: float, t_start: float, dt: float,
                      substeps: int) -> np.ndarray:
    """Piecewise-constant propagator, midpoint-sampled; cross-checks the exact one."""
    a = _lowering(mode)
    u = np.eye(mode.fock_dim, dtype=complex)
    step = dt / substeps
    for s in range(substeps):
        drive = mode.coupling * np.exp(1j * mode.omega * (t_start + (s + 0.5) * step))
        h = weight * (drive * a.conj().T + np.conj(drive) * a)
        u = expm(-1j * h * step) @ u
    return u


def _coherence(n, modes, steps, atom_state, temperature, segment) -> complex:
    """Final (0,1) coherence after ``steps`` of (t_start, dt, monomial split of
    the pulse or None); ``segment(mode, weight, t_start, dt)`` is one mode's
    propagator over a free segment."""
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
            wr, wc = weights[row], weights[col]
            blocks = {w: segment(mode, w, t_start, dt) for w in {wr, wc} - {0.0}}
            if wr != 0.0:
                left = blocks[wr] @ left
            if wc != 0.0:
                right = blocks[wc] @ right
        factor *= np.trace(left @ rho @ right.conj().T)
    return complex(factor)


def _validate_inputs(n: int, modes, atom_state: np.ndarray) -> tuple[ModeSpec, ...]:
    modes = tuple(modes)
    if not modes:
        raise ValueError("at least one bath mode is required")
    for mode in modes:
        if mode.transition > n - 2:
            raise ValueError(
                f"mode transition {mode.transition} out of range for n={n}"
            )
        if mode.fock_dim > DIM_CAP:
            raise ValueError(f"fock_dim {mode.fock_dim} exceeds the per-mode cap {DIM_CAP}")
    atom_state = np.asarray(atom_state)
    if atom_state.shape != (n, n):
        raise ValueError(f"atom state shape {atom_state.shape} does not match n={n}")
    if abs(atom_state[0, 1]) == 0.0:
        raise ValueError("initial atom state must carry nonzero (0,1) coherence")
    return modes


def evolve_pulsed(
    n: int,
    modes,
    schedule: PulseSchedule,
    group: DecouplingGroup,
    atom_state: np.ndarray,
    temperature: float,
    method: str = "exact",
    substeps: int = 256,
    substep_tol: float = 1e-8,
) -> complex:
    """(0,1) coherence after the full pulsed sequence, evolved exactly.

    Free segments follow the schedule; after segment l of each cycle the atom
    pulse g_l g_{l-1}^dag fires, and the cycle closes with g_{n-1}^dag.  With
    ``method="substeps"`` the segments use piecewise-constant midpoint
    exponentials; the run is repeated at doubled resolution and a
    ConvergenceError raised if the coherence moves by more than
    ``substep_tol``.
    """
    modes = _validate_inputs(n, modes, atom_state)
    if schedule.n != n or group.dim != n:
        raise ValueError(
            f"dimension mismatch: n={n}, schedule n={schedule.n}, group n={group.dim}"
        )
    elements = group.elements
    pulses = [elements[l] @ elements[l - 1].conj().T for l in range(1, n)]
    splits = [_monomial_split(pulse) for pulse in pulses + [elements[n - 1].conj().T]]
    steps = [
        (float(schedule.boundaries[j * n + l]), float(schedule.segments[j, l]), splits[l])
        for j in range(schedule.cycles)
        for l in range(n)
    ]
    if method == "exact":
        return _coherence(n, modes, steps, atom_state, temperature, _segment_exact)
    if method != "substeps":
        raise ValueError(f"unknown method {method!r} (expected 'exact' or 'substeps')")
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
    modes, temperature: float, schedule: PulseSchedule, n: int, wrong_sign: bool = False
) -> float:
    """Total predicted exponent sum_k (1/2)|j_k chi(w_k)|^2 coth(w_k/(2 Tp)).

    Each mode contributes through the exponent filter of its own transition;
    this is the discrete-bath counterpart of the continuum integral and the
    quantity the Fock evolution must reproduce.  ``wrong_sign`` selects the
    miswired filters of exponent_filters (negative control).
    """
    filters = exponent_filters([mode.omega for mode in modes], schedule, wrong_sign)
    total = 0.0
    for mode, chis in zip(modes, filters):
        chi = chis[exponent_for_transition(n, mode.transition) - 1]
        coth = 1.0 / math.tanh(mode.omega / (2.0 * temperature))
        total += 0.5 * abs(mode.coupling) ** 2 * abs(chi) ** 2 * coth
    return total


def free_decay_baseline(
    total_time: float,
    modes,
    temperature: float,
    n: int,
    atom_state: np.ndarray | None = None,
) -> float:
    """Unpulsed decay exponent -ln|rho01(T)/rho01(0)|: one segment, no pulses."""
    if atom_state is None:
        atom_state = superposition_state(n)
    modes = _validate_inputs(n, modes, atom_state)
    if not total_time >= 0:
        raise ValueError(f"total_time must be >= 0, got {total_time}")
    steps = [(0.0, float(total_time), None)]
    final = _coherence(n, modes, steps, atom_state, temperature, _segment_exact)
    start = abs(np.asarray(atom_state)[0, 1])
    return -math.log(abs(final) / start)
