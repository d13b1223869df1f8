"""References that several test modules share, coded independently of the
package: the position filters as a literal boundary sum, and the negative
control's prediction built from them.  pytest collects no tests here."""

import math

import numpy as np


def eta_boundary_sum(omega, schedule):
    """All n position filters summed segment by segment over schedule.boundaries.
    Each window (exp(i w t_m) - exp(i w t_{m+1}))/w is written as
    -2i sin(w dt/2) exp(i w (t_m + t_{m+1})/2)/w, which stays accurate as
    w -> 0; at w = 0 it is -i dt."""
    t = schedule.boundaries
    dt = np.diff(t)
    if omega == 0:
        terms = -1j * dt
    else:
        terms = -2j * np.sin(0.5 * omega * dt) * np.exp(0.5j * omega * (t[:-1] + t[1:])) / omega
    return terms.reshape(schedule.cycles, schedule.n).sum(axis=0)


def miswired_exponent(modes, temperature, schedule):
    """The negative control's predicted exponent: per mode on transition k,
    (1/2)|j|^2 |eta_{k-1} - 2 eta_k - eta_{k+1}|^2 coth(w/(2 Tp)), slots mod n,
    from eta_boundary_sum.  The upper neighbour slot enters the filter
    negated, as under a wrong toggling-sign convention; an oracle check that
    passes this prediction cannot tell the signs apart."""
    n, total = schedule.n, 0.0
    for mode in modes:
        eta, k = eta_boundary_sum(mode.omega, schedule), mode.transition
        chi = eta[(k - 1) % n] - 2 * eta[k] - eta[(k + 1) % n]
        coth = 1.0 / math.tanh(mode.omega / (2.0 * temperature))
        total += 0.5 * abs(mode.coupling) ** 2 * abs(chi) ** 2 * coth
    return total
