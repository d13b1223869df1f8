"""UDD filters as Bessel series: the weights of J_k(z) and Miller's recurrence.

Uhrig's boundaries are t_b = (T/2)(1 - cos(pi b/nN)), so with z = w T/2 the
Jacobi-Anger expansion gives

    exp(i w t_b) = exp(i z) sum_k (-i)^k J_k(z) exp(i pi k b/nN),

and the cycle sum of each term is a geometric series: the position filters
are eta_l = exp(i z)/w * sum_{k>=1} J_k(z) D_{k,l}, with the weights D of
udd_weights (only odd k and multiples of 2N), and the exponent filters chi_c
the same series over the stencil weights of udd_stencil_weights.
bessel_sums evaluates such a series for many z at once.
"""

from __future__ import annotations

import math

import numpy as np

# Rows J_k(z) per product with the weights; a filter call takes at most
# _CHUNK_ELEMS // BLOCK_ROWS frequencies.  Blocks are counted from the lowest
# order.  From 10 to 40 rows time within noise.  The ring is the largest
# block a UDD pass frees and so sets glibc's heap trim threshold, twice its
# size: in perfbench's worker, over three import modes and two curves, 20
# rows re-faulted 900 to 1100 pages a pass in four of the six cases, 24 rows
# in one, and 32 rows in none, at about 0.4 MiB more peak RSS.
BLOCK_ROWS = 24

# Most entries (rows x columns) of one such product.  OpenBLAS 0.3.31 (Haswell
# kernels) computes a product of at most 10^6 multiply-adds in its small-matrix
# kernel and a larger one in blocked kernels, which from 12 rows on give some
# columns other bits (measured 20 deep: 13 rows keep them to 3846 columns, 25
# rows to 2000).  Wider products go in equal slices, each in the small kernel.
_SLICE_ENTRIES = 10**6 // BLOCK_ROWS

# log of double precision, for the start orders of Miller's recurrence.
_LOG_EPS = math.log(2.0**-53)

# Miller's recurrence seeds J_k = this at each start order.  Unnormalised, the
# values then stay within max(2e21, 40/z^2) times it: normal floats for every
# z > 0.
_MILLER_SEED = 1e-300


def _pi_angle(num, den):
    """pi num/den for integers, reduced exactly modulo 2 pi first."""
    return math.pi * (num % (2 * den)) / den


def _odd_amplitudes(count: int, n: int, cycles: int):
    """The odd orders k <= count as a column, their angles theta = pi k/2M
    with M = nN, and their amplitudes -4 (-1)^((k-1)/2) sin(theta)/sin(pi k/2N)."""
    odd = np.arange(1, count + 1, 2)[:, None]
    theta = _pi_angle(odd, 2 * n * cycles)
    sign = 1.0 - 2.0 * ((odd - 1) // 2 % 2)
    return odd, theta, -4.0 * sign * np.sin(theta) / np.sin(_pi_angle(odd, 2 * cycles))


def udd_weights(count: int, n: int, cycles: int) -> np.ndarray:
    """Weight of J_k(z), k = 1..count, in the UDD position filters: shape
    (count, 2n), the real part of eta_l in column l, its imaginary part in n + l.

    With M = nN, an odd k weighs only the imaginary parts, by its amplitude
    A_k (_odd_amplitudes) times cos(pi k (2l+1-n)/2M), k = 2Nm weighs only
    the real parts, by
        2N (-1)^(Nm) (cos(2 pi m l/n) - cos(2 pi m (l+1)/n)),
    and every other k weighs nothing.
    """
    slot = np.arange(n)
    weights = np.zeros((count, 2 * n))
    odd, _, amplitude = _odd_amplitudes(count, n, cycles)
    weights[::2, n:] = amplitude * np.cos(_pi_angle(odd * (2 * slot + 1 - n), 2 * n * cycles))
    m = np.arange(1, count // (2 * cycles) + 1)[:, None]
    sign = 1.0 - 2.0 * (cycles * m % 2)
    weights[2 * cycles * m[:, 0] - 1, :n] = (2.0 * cycles * sign * (
        np.cos(_pi_angle(2 * m * slot, n)) - np.cos(_pi_angle(2 * m * (slot + 1), n))))
    return weights


def udd_stencil_weights(count: int, n: int, cycles: int) -> np.ndarray:
    """Weight of J_k(z), k = 1..count, in the UDD exponent filters
    chi_c = eta_{c-1} - 2 eta_c + eta_{c+1} (slots mod n): shape (count, 2(n-1)),
    the real part of chi_c in column c, its imaginary part in n - 1 + c.

    These are the stencils of udd_weights' columns, the odd orders' in closed
    form, so that no series differences filters far larger than chi: with
    theta = pi k/2M and A_k of udd_weights, an odd k weighs chi_c by
        -4 A_k sin^2(theta) cos((2c+1-n) theta)    for c >= 1,
         2 A_k sin((n-2) theta) sin(theta)          for c = 0.
    """
    real = udd_weights(count, n, cycles)[:, :n]
    stencil = np.roll(real, 1, axis=1) - 2.0 * real + np.roll(real, -1, axis=1)
    weights = np.zeros((count, 2 * (n - 1)))
    weights[:, : n - 1] = stencil[:, : n - 1]
    odd, theta, amplitude = _odd_amplitudes(count, n, cycles)
    sine = np.sin(theta)
    weights[::2, n - 1 : n] = (2.0 * amplitude * sine
                               * np.sin(_pi_angle(odd * (n - 2), 2 * n * cycles)))
    weights[::2, n:] = (-4.0 * amplitude * np.square(sine)
                        * np.cos(_pi_angle(odd * (2 * np.arange(1, n - 1) + 1 - n),
                                           2 * n * cycles)))
    return weights


def miller_orders(z: np.ndarray) -> np.ndarray:
    """Odd order, as a float, from which Miller's recurrence for J_k(z) starts, per z >= 0.

    Above it every J_k(z) is below double precision relative to the largest:
    z + 10 z^(1/3) + 6, or for small z the first k with (z/2)^k < 2^-53 if
    that comes first (both measured against scipy.special.jv), rounded up to
    odd here, so that a z starts at the same order in every call.
    """
    orders = np.ceil(z + 10.0 * np.cbrt(z) + 6.0)
    small = z < 2.0
    with np.errstate(divide="ignore"):
        powers = np.ceil(_LOG_EPS / np.log(0.5 * z[small]))
    orders[small] = np.clip(powers, 1.0, orders[small])
    return 2.0 * np.ceil(0.5 * (orders - 1.0)) + 1.0  # an infinite order stays infinite


def bessel_sums(z: np.ndarray, orders: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_{k=1..len(weights)} J_k(z) weights[k-1] for every z at once, the first
    half of the columns as real parts and the second as imaginary parts: shape
    (z.size, weights.shape[1] // 2) complex; ``orders`` from miller_orders(z).
    As in UDD's weights, odd orders may weigh only the imaginary half and even
    orders only the real half.  A z's sums take ``weights`` up to its own
    order + 1, so that they do not depend on the other z of the call.

    Miller's backward recurrence runs over odd orders only,
        J_{k-2} = (4k(k-1)/z^2 - 2k/(k+1)) J_k - (k-1)/(k+1) J_{k+2},
    for all z together, each z seeded at its own start order.  It carries
    Y_j = s_j J_{2j+1} with s_j = Gamma((j+1)/2)/Gamma(j/2+1), for which the
    step is Y_{j-1} = (P_j/z^2 - Q_j) Y_j - Y_{j+1}: four numpy calls on a
    precomputed 1/z^2, finite at every z that takes a step (order >= 3).
    Sorted by descending order, the started z are a prefix, and each step
    touches only them.  Each Y_j goes into a ring of BLOCK_ROWS rows, which a
    product with the odd weights over s_j reads in place, in blocks counted
    from the lowest order and in slices of at most _SLICE_ENTRIES entries.
    One more product column sums k J_k, which over odd k is z/2 (the
    Jacobi-Anger series of sin(z sin t), differentiated at t = 0), and
    normalises the sums.  A weighted even order k takes
    J_k = z (J_{k-1} + J_{k+1})/2k from its neighbours.
    """
    size, half = z.size, weights.shape[1] // 2
    perm = np.argsort(-orders, kind="stable")
    z = z[perm]
    last = int(orders[perm[0]]) // 2  # the highest order is 2 last + 1
    # started[j]: how many z start at order 2j+1 or above
    started = np.searchsorted(-orders[perm], -2.0 * np.arange(last + 2) - 1.0,
                              side="right").tolist()
    rows = -(-(last + 1) // BLOCK_ROWS) * BLOCK_ROWS  # whole blocks
    # s_j = s_{j-2} (j-1)/j from s_0 = sqrt(pi) and s_1 = 2/sqrt(pi)
    j = np.arange(rows + 1.0)
    ratio = np.append([math.sqrt(math.pi), 2.0 / math.sqrt(math.pi)], (j[2:] - 1.0) / j[2:])
    scale = np.empty(rows + 1)
    scale[0::2], scale[1::2] = np.cumprod(ratio[0::2]), np.cumprod(ratio[1::2])
    k = 2.0 * j + 1.0
    shrink = np.append(1.0, scale[:-1] / scale[1:])  # s_{j-1}/s_j
    slope = (4.0 * k * (k - 1.0) * shrink).tolist()
    offset = (2.0 * k / (k + 1.0) * shrink).tolist()
    # per Y_j: the odd weights and the k J_k column over s_j, zero past order top + 1
    count = min(len(weights), 2 * last + 2)
    odd = np.zeros((rows, half + 1))
    odd[: (count + 1) // 2, :half] = weights[:count:2, half:]
    odd[:, half] = k[:rows]
    odd /= scale[:rows, None]
    # per j: the weights of J_{2j+2} over 2(2j+2), if it weighs anything
    even = {i // 2: weights[i, :half] / (2.0 * (i + 1))
            for i in np.flatnonzero(weights[:count, :half].any(axis=1)).tolist()}
    share = (1.0 / scale).tolist()
    ring, sums = np.zeros((BLOCK_ROWS, size)), np.zeros((2 * half + 1, size))
    inverse = np.empty(size)
    np.square(z[: started[1]], out=inverse[: started[1]])
    np.reciprocal(inverse[: started[1]], out=inverse[: started[1]])
    for j in range(last, -1, -1):
        live = started[j]
        if live > started[j + 1]:
            ring[j % BLOCK_ROWS, started[j + 1] : live] = _MILLER_SEED
        now, upper = ring[j % BLOCK_ROWS, :live], ring[(j + 1) % BLOCK_ROWS, :live]
        # order 2j-1 overwrites order 2j-1+2 BLOCK_ROWS, which a product has read
        lower = ring[(j - 1) % BLOCK_ROWS, :live]
        if j in even:
            sums[:half, :live] += np.multiply.outer(even[j], now * share[j] + upper * share[j + 1])
        if j % BLOCK_ROWS == 0:
            # past live the rows are zeros; two columns keep BLAS's matrix kernel
            width = max(live, 2)
            parts = -(-width * (half + 1) // _SLICE_ENTRIES)
            for part in range(parts):
                span = slice(part * width // parts, (part + 1) * width // parts)
                sums[half:, span] += odd[j : j + BLOCK_ROWS].T @ ring[:, span]
        if j:
            np.multiply(inverse[:live], slope[j], out=lower)
            np.subtract(lower, offset[j], out=lower)
            np.multiply(lower, now, out=lower)
            np.subtract(lower, upper, out=lower)
    del ring, inverse, lower, now, upper  # freed before the result exists
    norm = 0.5 * z / sums[-1]  # z/2 over the recurrence's sum of k J_k
    sums[half:-1] *= norm
    sums[:half] *= z * norm  # the even orders' factor z
    out = np.empty((size, half), dtype=complex)
    out.real[perm] = sums[:half].T
    out.imag[perm] = sums[half:-1].T
    return out
