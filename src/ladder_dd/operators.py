"""Transition operators and the cyclic decoupling pulse group of a ladder atom.

A ladder (Xi-type) n-level atom couples each level |k> only to its neighbours
|k+1> and |k-1>.  Pure dephasing acts through the diagonal transition
operators sigma_z on each (k, k+1) pair.  A single generator pulse built from
pi/2 x-rotations on every transition cyclically permutes the levels, and the
group (I, g, g^2, ..., g^(n-1)) it generates, a tuple of its n elements,
averages every sigma_z to zero.  That group average is the decoupling
condition verified here.
"""

from __future__ import annotations

import numpy as np

from .schedules import check_count, pulse_count

# Max-entry tolerance for "zero" and "unitary": ~1e4 x double epsilon,
# absorbing round-off from repeated small matrix products.
ZERO_TOL = 1e-12


def _check_transition(n: int, k: int) -> None:
    pulse_count(n, 1)  # checks that n is an int >= 2
    if k not in range(n - 1):
        raise ValueError(f"transition k={k!r} out of range for n={n} (need 0 <= k <= n-2)")
    check_count("transition index", "k", k, 0)


def sigma_z(n: int, k: int) -> np.ndarray:
    """Diagonal dephasing operator of the (k, k+1) transition.

    Convention: +1 at level k+1, -1 at level k, zero elsewhere (the upper
    level carries the positive sign, as for the usual two-level Pauli Z
    with |1><1| - |0><0| ordering).
    """
    _check_transition(n, k)
    op = np.zeros((n, n), dtype=complex)
    op[k + 1, k + 1] = 1.0
    op[k, k] = -1.0
    return op


def x_pulse(n: int, k: int) -> np.ndarray:
    """exp(i * X * pi/2) in closed form, X the off-diagonal coupling of levels
    k and k+1 (entries (k,k+1) = (k+1,k) = 1, zero elsewhere).

    Identity outside the {k, k+1} subspace; on the subspace the exponential
    collapses to i*X because cos(pi/2)=0 and sin(pi/2)=1.
    """
    _check_transition(n, k)
    op = np.eye(n, dtype=complex)
    op[k, k] = 0.0
    op[k + 1, k + 1] = 0.0
    op[k, k + 1] = 1j
    op[k + 1, k] = 1j
    return op


def build_decoupling_group(n: int) -> tuple[np.ndarray, ...]:
    """The cyclic pulse group (I, g, g^2, ..., g^(n-1)) of an n-level ladder atom.

    Element m is the m-th power of the generator g, the ordered product of
    x_pulse factors over all transitions, lowest transition leftmost.  The
    n-th power of g is a unit-modulus scalar times the identity.
    """
    g = x_pulse(n, 0)  # checks n
    for k in range(1, n - 1):
        g = g @ x_pulse(n, k)
    elements = [np.eye(n, dtype=complex)]
    for _ in range(n - 1):
        elements.append(elements[-1] @ g)
    return tuple(elements)


def group_average(group: tuple[np.ndarray, ...], op: np.ndarray) -> np.ndarray:
    """(1/|G|) sum_m g_m^dag op g_m over all group elements."""
    op = np.asarray(op, dtype=complex)
    if op.shape != group[0].shape:
        raise ValueError(f"operator shape {op.shape} does not match the group's "
                         f"dimension {len(group[0])}")
    acc = np.zeros_like(op)
    for g in group:
        acc += g.conj().T @ op @ g
    return acc / len(group)


def max_abs(op: np.ndarray) -> float:
    """Largest entry magnitude, the norm used for all zero/unitary checks."""
    return float(np.max(np.abs(op)))


def verify_decoupling(n: int) -> tuple[float, ...]:
    """Max-entry magnitude of the group-averaged sigma_z of every transition; the
    group decouples pure dephasing iff each is at the round-off floor, ZERO_TOL."""
    group = build_decoupling_group(n)
    return tuple(max_abs(group_average(group, sigma_z(n, k))) for k in range(n - 1))
