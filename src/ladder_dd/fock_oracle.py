"""Brute-force validator: exact pulsed evolution with truncated-Fock bath modes.

The analytic decay exponents rest on a chain of frame transformations and
index bookkeeping that is easy to get subtly wrong.  This module checks them
from the other end: build the joint density matrix of the atom and a small
set of explicit oscillator modes, evolve it segment by segment through the
pulsed sequence, and read the surviving (0,1) coherence directly.

For purely dephasing coupling the interaction-picture Hamiltonian commutes
with itself at different times up to a c-number, so the time-ordered segment
propagator is the exponential of a closed-form generator (first plus second
Magnus terms, the series terminating there).  The generator is block-diagonal
over atom levels; each bath block is exponentiated as one dense matrix.  A
sub-stepped piecewise-constant propagator is also provided and is used to
cross-check the closed-form generator independently.

Joint spaces are capped at dimension 2000: this is a desk-scale validator,
not a production path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

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


@dataclass(frozen=True)
class JointState:
    """Joint atom+modes density matrix with its factor dimensions."""

    rho: np.ndarray
    atom_dim: int
    fock_dims: tuple[int, ...]

    def reduced_atom(self) -> np.ndarray:
        bath_dim = int(np.prod(self.fock_dims)) if self.fock_dims else 1
        shaped = self.rho.reshape(self.atom_dim, bath_dim, self.atom_dim, bath_dim)
        return np.einsum("aibi->ab", shaped)

    def coherence(self, i: int = 0, j: int = 1) -> complex:
        return complex(self.reduced_atom()[i, j])

    def validate(self, herm_tol: float = 1e-12, trace_tol: float = 1e-10,
                 psd_tol: float = 1e-10) -> None:
        herm = float(np.max(np.abs(self.rho - self.rho.conj().T)))
        if herm > herm_tol:
            raise ValueError(f"state not Hermitian: max asymmetry {herm:.3e}")
        trace = complex(np.trace(self.rho))
        if abs(trace - 1.0) > trace_tol:
            raise ValueError(f"state trace {trace} deviates from 1")
        lowest = float(np.linalg.eigvalsh(self.rho)[0])
        if lowest < -psd_tol:
            raise ValueError(f"state not positive semidefinite: eigenvalue {lowest:.3e}")


def superposition_state(n: int, levels: tuple[int, int] = (0, 1)) -> np.ndarray:
    """Pure equal superposition of two atom levels (maximal coherence)."""
    vec = np.zeros(n, dtype=complex)
    vec[levels[0]] = vec[levels[1]] = 1.0 / math.sqrt(2.0)
    return np.outer(vec, vec.conj())


def _embed_bath(ops: list[np.ndarray]) -> np.ndarray:
    return reduce(np.kron, ops)


class _BathSetup:
    """Per-run cache: embedded ladder operators, level weights, thermal state."""

    def __init__(self, n: int, modes: tuple[ModeSpec, ...], temperature: float):
        self.fock_dims = tuple(mode.fock_dim for mode in modes)
        self.bath_dim = int(np.prod(self.fock_dims))
        self.lower = []
        self.raise_ = []
        self.weights = []
        for idx, mode in enumerate(modes):
            a = np.diag(np.sqrt(np.arange(1, mode.fock_dim, dtype=float)), k=1)
            factors = [np.eye(d, dtype=complex) for d in self.fock_dims]
            factors[idx] = a.astype(complex)
            lower = _embed_bath(factors)
            self.lower.append(lower)
            self.raise_.append(lower.conj().T)
            self.weights.append(np.real(np.diag(sigma_z(n, mode.transition))))
        self.thermal = _embed_bath([thermal_state(mode, temperature) for mode in modes])


def _segment_block_exact(setup: _BathSetup, modes, level: int, t_start: float,
                         dt: float) -> np.ndarray:
    """Closed-form segment propagator on the bath factor, given the atom level.

    First Magnus term: displacement z*adag - conj(z)*a with
    z = j * exp(i w t_start) * (1 - exp(i w dt)) / w, scaled by the level's
    dephasing weight.  Second term: the exact c-number phase
    |j|^2 (dt/w - sin(w dt)/w^2) per mode; the series terminates there.
    """
    gen = np.zeros((setup.bath_dim, setup.bath_dim), dtype=complex)
    phase = 0.0
    for k, mode in enumerate(modes):
        w = setup.weights[k][level]
        if w == 0.0:
            continue
        z = mode.coupling * np.exp(1j * mode.omega * t_start) * (
            1.0 - np.exp(1j * mode.omega * dt)
        ) / mode.omega
        gen += w * (z * setup.raise_[k] - np.conj(z) * setup.lower[k])
        phase += (w**2) * abs(mode.coupling) ** 2 * (
            dt / mode.omega - math.sin(mode.omega * dt) / mode.omega**2
        )
    gen += 1j * phase * np.eye(setup.bath_dim)
    return expm(gen)


def _segment_block_substeps(setup: _BathSetup, modes, level: int, t_start: float,
                            dt: float, substeps: int) -> np.ndarray:
    """Piecewise-constant propagator, midpoint-sampled; cross-checks the exact one."""
    u = np.eye(setup.bath_dim, dtype=complex)
    step = dt / substeps
    for s in range(substeps):
        t_mid = t_start + (s + 0.5) * step
        h = np.zeros((setup.bath_dim, setup.bath_dim), dtype=complex)
        for k, mode in enumerate(modes):
            w = setup.weights[k][level]
            if w == 0.0:
                continue
            drive = mode.coupling * np.exp(1j * mode.omega * t_mid)
            h += w * (drive * setup.raise_[k] + np.conj(drive) * setup.lower[k])
        u = expm(-1j * h * step) @ u
    return u


def _apply_segment(rho_t: np.ndarray, blocks: list[np.ndarray]) -> np.ndarray:
    n = rho_t.shape[0]
    out = np.empty_like(rho_t)
    for a in range(n):
        for b in range(n):
            out[a, :, b, :] = blocks[a] @ rho_t[a, :, b, :] @ blocks[b].conj().T
    return out


def _apply_atom_pulse(rho_t: np.ndarray, pulse: np.ndarray) -> np.ndarray:
    return np.einsum("ab,bicj,dc->aidj", pulse, rho_t, pulse.conj())


def _run_sequence(
    n: int,
    modes: tuple[ModeSpec, ...],
    steps: list[tuple[float, float, np.ndarray | None]],
    atom_state: np.ndarray,
    temperature: float,
    method: str,
    substeps: int,
) -> JointState:
    setup = _BathSetup(n, modes, temperature)
    rho = np.kron(atom_state.astype(complex), setup.thermal)
    rho_t = rho.reshape(n, setup.bath_dim, n, setup.bath_dim)
    for t_start, dt, pulse in steps:
        if dt > 0:
            if method == "exact":
                blocks = [
                    _segment_block_exact(setup, modes, level, t_start, dt)
                    for level in range(n)
                ]
            else:
                blocks = [
                    _segment_block_substeps(setup, modes, level, t_start, dt, substeps)
                    for level in range(n)
                ]
            rho_t = _apply_segment(rho_t, blocks)
        if pulse is not None:
            rho_t = _apply_atom_pulse(rho_t, pulse)
    dim = n * setup.bath_dim
    return JointState(rho=rho_t.reshape(dim, dim), atom_dim=n, fock_dims=setup.fock_dims)


def _validate_inputs(n: int, modes, atom_state: np.ndarray, dim_cap: int) -> tuple[ModeSpec, ...]:
    modes = tuple(modes)
    if not modes:
        raise ValueError("at least one bath mode is required")
    for mode in modes:
        if mode.transition > n - 2:
            raise ValueError(
                f"mode transition {mode.transition} out of range for n={n}"
            )
    atom_state = np.asarray(atom_state)
    if atom_state.shape != (n, n):
        raise ValueError(f"atom state shape {atom_state.shape} does not match n={n}")
    if abs(atom_state[0, 1]) == 0.0:
        raise ValueError("initial atom state must carry nonzero (0,1) coherence")
    joint = n * int(np.prod([mode.fock_dim for mode in modes]))
    if joint > dim_cap:
        raise ValueError(
            f"joint dimension {joint} exceeds the validator cap {dim_cap}"
        )
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
    dim_cap: int = DIM_CAP,
) -> JointState:
    """Evolve atom+modes through the full pulsed sequence, exactly.

    Free segments follow the schedule; after segment l of each cycle the atom
    pulse g_l g_{l-1}^dag fires, and the cycle closes with g_{n-1}^dag.  With
    ``method="substeps"`` the segments use piecewise-constant midpoint
    exponentials; the run is repeated at doubled resolution and a
    ConvergenceError raised if the coherence moves by more than
    ``substep_tol``.
    """
    modes = _validate_inputs(n, modes, atom_state, dim_cap)
    if schedule.n != n or group.dim != n:
        raise ValueError(
            f"dimension mismatch: n={n}, schedule n={schedule.n}, group n={group.dim}"
        )
    elements = group.elements
    steps: list[tuple[float, float, np.ndarray | None]] = []
    for j in range(schedule.cycles):
        for l in range(1, n + 1):
            t_start = schedule.boundaries[j * n + l - 1]
            dt = schedule.segments[j, l - 1]
            if l < n:
                pulse = elements[l] @ elements[l - 1].conj().T
            else:
                pulse = elements[n - 1].conj().T
            steps.append((float(t_start), float(dt), pulse))

    if method == "exact":
        return _run_sequence(n, modes, steps, atom_state, temperature, "exact", 0)
    if method != "substeps":
        raise ValueError(f"unknown method {method!r} (expected 'exact' or 'substeps')")
    coarse = _run_sequence(n, modes, steps, atom_state, temperature, "substeps", substeps)
    fine = _run_sequence(n, modes, steps, atom_state, temperature, "substeps", 2 * substeps)
    drift = abs(coarse.coherence() - fine.coherence())
    if drift > substep_tol:
        raise ConvergenceError(
            f"sub-step halving moved the coherence by {drift:.3e} > {substep_tol:g}; "
            f"increase substeps (ran {substeps} and {2 * substeps})",
            previous=np.array([coarse.coherence()]),
            current=np.array([fine.coherence()]),
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
    dim_cap: int = DIM_CAP,
) -> float:
    """Unpulsed decay exponent -ln|rho01(T)/rho01(0)|: one segment, no pulses."""
    if atom_state is None:
        atom_state = superposition_state(n)
    modes = _validate_inputs(n, modes, atom_state, dim_cap)
    if not total_time >= 0:
        raise ValueError(f"total_time must be >= 0, got {total_time}")
    steps = [(0.0, float(total_time), None)]
    final = _run_sequence(n, modes, steps, atom_state, temperature, "exact", 0)
    start = abs(np.asarray(atom_state)[0, 1])
    return -math.log(abs(final.coherence()) / start)
