"""Brute-force validator: exact pulsed evolution with truncated-Fock bath modes.

The analytic decay exponents rest on a chain of frame transformations and
index bookkeeping that is easy to get subtly wrong.  This module checks them
from the other end: evolve the atom and a few explicit oscillator modes
through the pulsed sequence and read how much of the (0,1) coherence
survives: every run starts from the equal superposition of levels 0 and 1
and returns the factor rho_01(T) / rho_01(0).

For purely dephasing coupling the Magnus series of a segment terminates at
its second term: at an atom level of weight w the segment displaces the mode
by w z and adds the c-number phase w^2 phi (the tests cross-check this with
sub-stepped products).  Propagators are block-diagonal in the atom level and
factor over modes, and every pulse is monomial, so the final (0,1) block
descends from one initial block (a, b):

    factor = [{a, b} = {0, 1}] * (pulse phases) * prod_k Tr[L_k rho_k R_k^dag],

L (R) the product of mode k's propagators at the levels the row (column)
index visits.  By the Weyl relation D(x) D(A) = e^{i Im(x conj(A))} D(A + x),
L = e^{i Phi_L} D(A_L), and the trace is e^{i(Phi_L - Phi_R) - i Im(A_R
conj(A_L))} sum_j p_j <j|D(d)|j>, with d = A_L - A_R summed directly (a
difference of sums would cancel).  Only this thermal overlap, which stands
for exp(-|d|^2 coth(omega/2T)/2) and so checks the prediction's coth factor
independently, is taken in Fock space: one displacement on the mode's
fock_dim levels (capped at DIM_CAP), a phase rotation of exp(s(adag - a))
from one eigendecomposition per fock_dim.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .operators import check_transition, sigma_z
from .schedules import ScheduleSpec, as_number, check_count, check_real

DEFAULT_TAIL = 1e-10
DIM_CAP = 2000


@dataclass(frozen=True)
class ModeSpec:
    """One bath oscillator: the transition it dephases, frequency, coupling
    amplitude and Fock truncation dimension."""

    transition: int
    omega: float
    coupling: complex
    fock_dim: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega",
                           check_real("mode omega (frequency)", "omega", self.omega, 0, True))
        coupling = as_number(self.coupling, complex)
        if not cmath.isfinite(coupling):
            raise ValueError(f"mode coupling must be finite, got coupling={self.coupling!r}")
        object.__setattr__(self, "coupling", coupling)
        check_count("fock_dim", "fock_dim", self.fock_dim, 2)
        if self.fock_dim > DIM_CAP:
            raise ValueError(f"fock_dim must be <= the per-mode cap {DIM_CAP}, got {self.fock_dim}")
        check_count("transition index", "transition", self.transition, 0)


def thermal_populations(mode: ModeSpec, temperature: float) -> np.ndarray:
    """Boltzmann weights p_j proportional to q**j, q = exp(-omega/temperature),
    on the truncated mode's fock_dim levels; they sum to one.

    Raises a ValueError, naming the kept tail weight q**fock_dim, unless it
    is below ``DEFAULT_TAIL``.  That bounds the thermal tail only: a run's
    displacements lift the mode to higher levels and need their own margin.
    """
    temperature = check_real("temperature", "temperature", temperature, 0, True)
    q = math.exp(-mode.omega / temperature)
    tail = q**mode.fock_dim
    if tail >= DEFAULT_TAIL:
        beyond = (f"; no fock_dim up to the cap {DIM_CAP} bounds it"
                  if q**DIM_CAP >= DEFAULT_TAIL else "")
        raise ValueError(
            f"fock_dim={mode.fock_dim} keeps thermal tail weight {tail:.3e} >= "
            f"{DEFAULT_TAIL:g} for omega={mode.omega}, temperature={temperature}{beyond}")
    populations = q ** np.arange(mode.fock_dim, dtype=float)
    return populations / populations.sum()


def _monomial_split(pulse: np.ndarray) -> tuple[list[int], list[int], np.ndarray]:
    """(perm, inverse, phases) with pulse[perm[b], b] = phases[b], every other
    entry zero, and inverse[perm[b]] = b.

    One nonzero scan gives each row's column, the inverse.  Raises a
    ValueError unless each row and each column of ``pulse`` holds exactly one
    nonzero entry.
    """
    rows, columns = np.nonzero(pulse)
    size, inverse = len(pulse), columns.tolist()
    if rows.tolist() != list(range(size)) or sorted(inverse) != list(range(pulse.shape[1])):
        nonzero = pulse != 0
        raise ValueError(
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
    closed-form Magnus propagator, and each mode's segments compose into one
    displacement, so a mode costs one ``expm`` of its fock_dim whatever the
    number of segments.  The Fock-space chains and the sub-stepped midpoint
    products that cross-check this live in the tests.
    """
    n = schedule.n
    if len(group) != n:
        raise ValueError(f"dimension mismatch: schedule n={n}, group of {len(group)} elements")
    modes = tuple(modes)
    if not modes:
        raise ValueError("at least one bath mode is required")
    for mode in modes:
        check_transition(n, mode.transition)
    pulses = [group[l] @ group[l - 1].conj().T for l in range(1, n)]
    splits = [_monomial_split(pulse) for pulse in pulses + [group[n - 1].conj().T]]
    populations = [thermal_populations(mode, temperature) for mode in modes]
    walk = splits * schedule.cycles  # the split of the pulse that ends each segment
    a, b = 0, 1
    for _, inverse, _ in reversed(walk):
        a, b = inverse[a], inverse[b]
    factor = 1.0 if {a, b} == {0, 1} else 0.0  # the start state over its (0,1) entry
    rows, columns = [], []  # the level each side holds during each segment
    for perm, _, phases in walk:
        rows.append(a)
        columns.append(b)
        factor *= phases[a] * np.conj(phases[b])
        a, b = perm[a], perm[b]
    t_start, dt = schedule.boundaries[:-1], schedule.segments.ravel()
    omega = np.array([[mode.omega] for mode in modes])
    coupling = np.array([[mode.coupling] for mode in modes])
    levels = np.array([np.diag(sigma_z(n, mode.transition)).real for mode in modes])
    left, right = levels[:, rows], levels[:, columns]  # (mode, segment) weights
    # segment s at weight w: the displacement w z and the c-number phase w^2 phi
    z = coupling * np.exp(1j * omega * t_start) * (1.0 - np.exp(1j * omega * dt)) / omega
    phi = abs(coupling) ** 2 * (dt / omega - np.sin(omega * dt) / omega**2)
    shifts = np.stack((left, right)) * z
    sums = np.cumsum(shifts, axis=2)
    # D(x) D(A) = e^{i Im(x conj(A))} D(A + x): each shift composes onto the sum before it
    weyl = np.sum((shifts[..., 1:] * sums[..., :-1].conj()).imag, axis=2)
    (a_left, a_right), d = sums[..., -1], np.sum((left - right) * z, axis=1)  # d, not A_L - A_R
    # Tr[D(A_L) rho D(A_R)^dag] = e^{-i Im(A_R conj(A_L))} Tr[D(d) rho]
    angle = (np.sum((left**2 - right**2) * phi, axis=1) + weyl[0] - weyl[1]
             - (a_right * a_left.conj()).imag)
    for mode, p, shift, theta in zip(modes, populations, d, angle):
        # Tr[D(d) rho] summed elementwise: no BLAS dot sets its rounding
        factor *= cmath.exp(1j * theta) * np.sum(p * expm(mode.fock_dim, shift).diagonal())
    return complex(factor)
