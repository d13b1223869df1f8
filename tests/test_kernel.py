import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ladder_dd.kernel as kernel
import ladder_dd.udd_series as udd_series
from ladder_dd.kernel import (
    BathSpec,
    ConvergenceError,
    FilterTable,
    decay_exponents,
    decay_integrand,
    exponent_filters,
    ohmic_density,
    sweep_curve,
)
from ladder_dd.operators import ZERO_TOL, build_decoupling_group, max_abs, sigma_z
from ladder_dd.schedules import Scheme, ScheduleSpec
from references import eta_boundary_sum


def coherence_ratio(schedule, bath):
    """Surviving fraction P(T) = exp(-sum_k Gamma_k) of the (0,1) coherence."""
    return float(np.exp(-decay_exponents(schedule, bath).gamma.sum()))


def window(omega, dt):
    """Window amplitude (1 - exp(i w dt))/w of one free segment; -i dt at w = 0."""
    return -1j * dt if omega == 0 else (1 - np.exp(1j * omega * dt)) / omega


def eta_literal(l, omega, schedule):
    """Term-by-term transcription of the position filter: for each cycle, the
    segment window times the intra-cycle phase times the elapsed-cycles phase."""
    cycle_lengths = schedule.segments.sum(axis=1)
    total = 0.0 + 0.0j
    for j in range(1, schedule.cycles + 1):
        seg = schedule.segments[j - 1]
        term = window(omega, float(seg[l - 1]))
        term *= np.exp(1j * omega * seg[: l - 1].sum())
        term *= np.exp(1j * omega * cycle_lengths[: j - 1].sum())
        total += term
    return total


def stencil(eta):
    """The cyclic second differences eta_{k-1} - 2 eta_k + eta_{k+1},
    k = 0..n-2 (slots mod n), of one frequency's n position filters, coded
    independently of the package."""
    n = len(eta)
    return np.array([eta[(k - 1) % n] - 2 * eta[k] + eta[(k + 1) % n] for k in range(n - 1)])


def chi_literal(k, omega, schedule):
    """Cyclic second difference of eta_literal centred on 0-based slot k."""
    return stencil([eta_literal(l, omega, schedule) for l in range(1, schedule.n + 1)])[k]


def assert_chi_matches(chi, eta, rel, abs=0.0):
    """One frequency's exponent filters ``chi`` against the stencil of a
    reference ``eta``, within 4 max(rel max|eta|, abs): the stencil's moduli
    |1| + |-2| + |1| carry a bound on eta over to chi exactly."""
    scale = max(rel * np.abs(eta).max(), abs)
    err = np.abs(np.asarray(chi) - stencil(eta)).max()
    assert err <= 4 * scale, err / scale


def toggling_weights(n):
    """W[k, l]: weight of transition k's sigma_z on the (0,1) coherence in slot l,
    diag(g_l^dag sigma_z(k) g_l)[0] - [1] over the elements g_l of the pulse group.
    Asserts that every toggled sigma_z is diagonal."""
    elements = build_decoupling_group(n)
    weights = np.empty((n - 1, n))
    for k in range(n - 1):
        for l, g in enumerate(elements):
            toggled = g.conj().T @ sigma_z(n, k) @ g
            diagonal = np.diag(toggled)
            assert max_abs(toggled - np.diag(diagonal)) <= ZERO_TOL, (k, l)
            assert abs(diagonal.imag).max() <= ZERO_TOL, (k, l)
            weights[k, l] = diagonal[0].real - diagonal[1].real
    return weights


class TestPositionFilter:
    """exponent_filters against the stencil of the position filters written out."""

    def test_single_cycle_first_slot_is_bare_kernel(self):
        # one cycle: slot l's filter is its bare window times its start phase
        schedule = ScheduleSpec(Scheme.UDD, 3, 1, 2.0)
        omega = 1.3
        eta = [window(omega, dt) * np.exp(1j * omega * t)
               for dt, t in zip(schedule.segments[0].tolist(), schedule.boundaries.tolist())]
        assert_chi_matches(exponent_filters(omega, schedule)[0], eta, rel=1e-13)

    @pytest.mark.parametrize("scheme", [Scheme.PDD, Scheme.UDD])
    def test_zero_frequency_limit(self, scheme):
        schedule = ScheduleSpec(scheme, 3, 4, 2.0)
        eta = -1j * schedule.segments.sum(axis=0)
        assert_chi_matches(exponent_filters(0.0, schedule)[0], eta, rel=1e-13)

    def test_against_literal_transcription_pdd(self):
        schedule = ScheduleSpec(Scheme.PDD, 2, 2, 1.0)
        eta = [eta_literal(l, 1.0, schedule) for l in (1, 2)]
        assert_chi_matches(exponent_filters(1.0, schedule)[0], eta, rel=1e-13)

    @pytest.mark.parametrize("scheme", [Scheme.PDD, Scheme.UDD])
    @pytest.mark.parametrize("n,cycles", [(2, 3), (4, 2), (6, 2)])
    def test_against_literal_transcription_grid(self, scheme, n, cycles):
        schedule = ScheduleSpec(scheme, n, cycles, 1.7)
        for omega in (0.35, 1.0, 7.9):
            eta = [eta_literal(l, omega, schedule) for l in range(1, n + 1)]
            assert_chi_matches(exponent_filters(omega, schedule)[0], eta, rel=1e-12, abs=1e-15)


def assert_filters_match_boundary_sum(schedule, omegas, rel, scale):
    """exponent_filters against the stencil of eta_boundary_sum, to ``rel`` of
    4 scale(w), the bound on eta carried over to chi."""
    got = exponent_filters(omegas, schedule)
    for omega, row in zip(omegas, got):
        err = np.abs(row - stencil(eta_boundary_sum(omega, schedule))).max()
        assert err <= rel * 4 * scale(omega), (omega, err / (4 * scale(omega)))


class TestFilterForms:
    """Each scheme's evaluation form against the literal boundary sum."""

    TOTAL_TIME = 1.3

    @pytest.mark.parametrize("cycles", [1, 2, 50, 400])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_pdd_closed_form_on_and_near_poles(self, n, cycles):
        # the geometric cycle sum has its poles at w = 2 pi k N / T
        schedule = ScheduleSpec(Scheme.PDD, n, cycles, self.TOTAL_TIME)
        rng = np.random.default_rng(100 * n + cycles)
        omegas = [0.0, 1e-9, *rng.uniform(0.0, 4 * math.pi * cycles / self.TOTAL_TIME, 8)]
        for k in (1, 2, 7):
            pole = 2 * math.pi * k * cycles / self.TOTAL_TIME
            omegas += [pole * (1 + f) for f in (0, 1e-15, -1e-15, 1e-9, -1e-9, 1e-4, -1e-4)]
            omegas.append(pole * (1 + 0.5 / k))  # midway to the next pole
        # filter scale 2N/w, capped by the w -> 0 limit T
        assert_filters_match_boundary_sum(
            schedule, omegas, 1e-10,
            lambda w: min(2 * cycles / w, self.TOTAL_TIME) if w else self.TOTAL_TIME)

    @pytest.mark.parametrize("cycles", [50, 400])
    @pytest.mark.parametrize("n", [6, 3, 2])
    def test_pdd_chi_matches_a_50_digit_boundary_sum(self, n, cycles):
        # |chi1_k|^2 of PDD, from exponent_filters and from the table's rows,
        # entry by entry against the boundary sum in 50 digits: below u = 0.2,
        # over the default curve's u <= 311, and on and beside the Dirichlet
        # poles u = 2 pi m N.  The closed form was off by at most 7.2e-13, near
        # zeros of D_N at large u; differencing eta by 2.9e-3 at u = 0.001.
        # At n | m a pole also zeros sin(x/2), x = u/nN, where chi ~ (x - 2 pi
        # m/n)^2 is set by the rounding of u itself: those m are left out
        import mpmath

        schedule = ScheduleSpec(Scheme.PDD, n, cycles, 1.0)
        mp = mpmath.mp.clone()
        mp.dps = 50

        def chi_reference(u):
            step = mp.expj(mp.mpf(u) / (n * cycles))  # the boundaries' phasors are its powers
            phasors = [mp.mpc(1)]
            for _ in range(n * cycles):
                phasors.append(phasors[-1] * step)
            eta = [mp.mpc(0)] * n
            for j in range(n * cycles):
                eta[j % n] += phasors[j] - phasors[j + 1]
            return [complex((eta[k - 1] - 2 * eta[k] + eta[(k + 1) % n]) / u)
                    for k in range(n - 1)]

        low = np.geomspace(1e-3, 0.2, 12)
        band = np.sort(np.random.default_rng(n * cycles).uniform(0.2, 311.0, 12))
        poles = [2 * math.pi * m * cycles * (1 + f) for m in (1, 5)
                 for f in (0, 1e-15, -1e-15, 1e-9, -1e-9, 1e-4, -1e-4)]
        u = np.concatenate((low, band, poles))
        want = np.abs([chi_reference(x) for x in u.tolist()]) ** 2
        chi = np.abs(exponent_filters(u, schedule)) ** 2
        weights = np.random.default_rng(cycles).uniform(0.5, 2.0, (u.size, 1))
        rows = kernel._exponent_rows(u, schedule, weights)
        assert np.all(np.abs(chi - want) <= 1e-12 * want)
        assert np.all(np.abs(rows / weights - want) <= 1e-12 * want)
        # the interior slots share one factor; the rows are the moduli's bits
        np.testing.assert_array_equal(rows[:, 1:], np.repeat(rows[:, 1:2], n - 2, axis=1))
        assert np.all(np.abs(rows - chi * weights) <= 8 * np.spacing(rows))

    @pytest.mark.parametrize("cycles", [1, 2, 3, 50, 400])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_udd_mirrored_boundaries(self, n, cycles, monkeypatch):
        # Uhrig's mirror-symmetric boundaries, through both UDD forms: the
        # Bessel series, up to z = w T/2 = 2 pi N, and the boundary sum
        schedule = ScheduleSpec(Scheme.UDD, n, cycles, self.TOTAL_TIME)
        rng = np.random.default_rng(100 * n + cycles)
        omegas = [0.0, *rng.uniform(0.0, 4 * math.pi * cycles / self.TOTAL_TIME, 10)]
        for gain, series in ((math.inf, True), (0.0, False)):
            monkeypatch.setattr(kernel, "_SERIES_GAIN", gain)
            taken = kernel._udd_series_orders(np.array(omegas), schedule) is not None
            assert taken == series
            assert_filters_match_boundary_sum(
                schedule, omegas, 1e-12,
                lambda w: 2 * cycles / w if w else self.TOTAL_TIME)

    @pytest.mark.parametrize("n,cycles", [(2, 1), (3, 2), (6, 50)])
    def test_custom_boundary_sum(self, n, cycles):
        custom = _custom_fractions(n, cycles)
        schedule = ScheduleSpec(Scheme.CUSTOM, n, cycles, self.TOTAL_TIME,
                                 custom_fractions=custom)
        rng = np.random.default_rng(n + cycles)
        omegas = [0.0, *rng.uniform(0.0, 4 * math.pi * cycles / self.TOTAL_TIME, 10)]
        assert_filters_match_boundary_sum(
            schedule, omegas, 1e-13,
            lambda w: 2 * cycles / w if w else self.TOTAL_TIME)

    @pytest.mark.parametrize("scheme", [Scheme.UDD, Scheme.CUSTOM])
    def test_boundary_sum_is_the_same_across_chunks(self, scheme, monkeypatch):
        # 301 boundaries give chunks of 868 frequencies, so 2000 frequencies run
        # through three chunks of the reused phasor and difference buffers
        monkeypatch.setattr(kernel, "_SERIES_GAIN", 0.0)  # UDD takes the boundary sum
        custom = _custom_fractions(6, 50) if scheme is Scheme.CUSTOM else None
        schedule = ScheduleSpec(scheme, 6, 50, self.TOTAL_TIME, custom_fractions=custom)
        assert kernel._CHUNK_ELEMS // (schedule.boundaries.size + 1) == 868
        omegas = np.random.default_rng(50).uniform(0.0, 4 * math.pi * 50 / self.TOTAL_TIME, 2000)
        omegas[[0, 900, 1999]] = 0.0  # the w = 0 limit in each chunk
        want = np.array([exponent_filters([omega], schedule)[0] for omega in omegas])
        assert exponent_filters(omegas, schedule).tobytes() == want.tobytes()


class TestFilterChunks:
    """The filter call evaluates its nodes, and a reduction its bath weights, in
    chunks of _CHUNK_ELEMS elements: every form gives each node the bits of one
    call over all of them."""

    BATH = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
    GRID = np.linspace(0.5, 3.112, 6)

    @pytest.mark.parametrize("scheme, gain", [
        (Scheme.PDD, None), (Scheme.UDD, None), (Scheme.UDD, 0.0), (Scheme.CUSTOM, None),
    ], ids=["pdd", "udd-series", "udd-boundary-sum", "custom"])
    def test_chunked_sweep_is_bit_identical(self, scheme, gain, monkeypatch):
        if gain is not None:
            monkeypatch.setattr(kernel, "_SERIES_GAIN", gain)  # UDD takes the boundary sum
        custom = _custom_fractions(6, 50) if scheme is Scheme.CUSTOM else None
        template = ScheduleSpec(scheme, 6, 50, 1.0, custom_fractions=custom)
        counts, recurrences = [], []  # chunks of each filter call; Bessel runs
        chunks, bessel = kernel._chunks, kernel.bessel_sums

        def counting(*args):
            counts.append(0)
            for item in chunks(*args):
                counts[-1] += 1
                yield item

        def recording(*args):
            recurrences.append(args[0].size)
            return bessel(*args)

        monkeypatch.setattr(kernel, "_chunks", counting)
        monkeypatch.setattr(kernel, "bessel_sums", recording)
        series = (scheme, gain) == (Scheme.UDD, None)
        whole = sweep_curve(template, self.BATH, self.GRID)
        # one filter call; only the boundary sum's 301 phasors a node need chunks
        assert len(counts) == 1 and len(recurrences) == series
        unpatched = counts.pop()
        recurrences.clear()
        monkeypatch.setattr(kernel, "_CHUNK_ELEMS", 2**10)
        chunked = sweep_curve(template, self.BATH, self.GRID)
        assert len(counts) == 1 and counts[0] >= max(3, 10 * unpatched)
        assert len(recurrences) == (counts[0] if series else 0)  # one recurrence a chunk
        for mine, theirs in zip(chunked, whole, strict=True):
            assert mine.gamma.tobytes() == theirs.gamma.tobytes()
            assert mine.quadrature_points == theirs.quadrature_points
            assert (np.float64(mine.estimated_relative_error).tobytes()
                    == np.float64(theirs.estimated_relative_error).tobytes())

    @pytest.mark.parametrize("scheme", [Scheme.PDD, Scheme.UDD, Scheme.CUSTOM])
    def test_filters_match_across_chunks(self, scheme, monkeypatch):
        # the oracle's and the tests' whole arrays come from the same chunks
        custom = _custom_fractions(6, 50) if scheme is Scheme.CUSTOM else None
        schedule = ScheduleSpec(scheme, 6, 50, 1.3, custom_fractions=custom)
        omegas = np.random.default_rng(6).uniform(0.0, 500.0, 3000)
        omegas[[0, 1500, 2999]] = 0.0
        chi = exponent_filters(omegas, schedule)
        monkeypatch.setattr(kernel, "_CHUNK_ELEMS", 2**12)
        assert exponent_filters(omegas, schedule).tobytes() == chi.tobytes()


class TestBesselSeries:
    """Miller's recurrence and the form selection behind the UDD filters."""

    def test_recurrence_matches_scipy(self):
        from scipy.special import jv

        z = np.concatenate(([1e-12, 1e-9, 1e-6, 1e-3], np.geomspace(0.01, 5000.0, 41)))
        orders = udd_series.miller_orders(z)
        top = int(orders.max())
        picks = np.unique(np.r_[1:41, np.linspace(1, top, 400).astype(int)])
        # unit weights, one column per order: J_{2j+1} in odd[j], J_{2j+2} in even[j]
        odd = picks % 2 == 1
        weights = np.zeros((top + 1, picks.size))
        weights[picks - 1, np.arange(picks.size)] = 1.0
        # every z in one recurrence
        sums = udd_series.bessel_sums(z, orders, weights[0::2], weights[1::2])
        assert sums.shape == (z.size, picks.size) and sums.dtype == complex
        assert not sums.real[:, odd].any() and not sums.imag[:, ~odd].any()
        want = jv(picks[None, :], z[:, None])
        # largest |J_k(z)|, k >= 1; scipy's jv itself is off by about 2e-16 z
        # there at large z (checked against mpmath), the recurrence by ~1e-16
        scale = np.array([np.abs(jv(np.arange(1, int(o) + 40), x)).max()
                          for x, o in zip(z, orders)])
        tol = 5e-16 * np.maximum(z, 20.0) * scale
        assert np.all(np.abs(np.where(odd, sums.imag, sums.real) - want) <= tol[:, None])

    @pytest.mark.parametrize("n", [6, 3, 2])
    def test_series_chi_matches_a_50_digit_boundary_sum(self, n, monkeypatch):
        # chi1 of UDD n levels, N = 50 over the default curve's u = w T <= 311,
        # against the boundary sum in 50 digits.  At n = 6, differencing the
        # series' eta, which far exceeds chi at small u, was off by 1.9e-12 of
        # max|chi| below u = 30; the series over the stencil weights by
        # 3.2e-15.  At n = 3 the wrapped column c = 0 has a non-zero odd
        # weight; at n = 2 every odd weight is 0, and chi comes from the even
        # order 100 alone (300 lies past every start order here).
        import mpmath

        monkeypatch.setattr(kernel, "_SERIES_GAIN", math.inf)
        cycles = 50
        schedule = ScheduleSpec(Scheme.UDD, n, cycles, 1.0)
        mp = mpmath.mp.clone()
        mp.dps = 50

        def chi_reference(u):
            w = mp.mpf(u)
            phasors = [mp.expj(w * (1 - mp.cos(mp.pi * b / (n * cycles))) / 2)
                       for b in range(n * cycles + 1)]
            eta = [mp.mpc(0)] * n
            for j in range(n * cycles):
                eta[j % n] += phasors[j] - phasors[j + 1]
            return [complex((eta[k - 1] - 2 * eta[k] + eta[k + 1]) / w) for k in range(n - 1)]

        low = np.geomspace(0.01, 30.0, 30, endpoint=False)
        high = np.sort(np.random.default_rng(0).uniform(30.0, 311.0, 30))
        # n = 2 leaves out the low band: there chi ~ J_100(u/2) is below 1e-70,
        # and the 50-digit reference reads 5e-51 to 1.4e-48 of its own rounding
        # (4e-121 to 2e-81 at 120 digits), so the series' 0 is right and the
        # relative error of 1 would be the reference's
        for u in (high,) if n == 2 else (low, high):
            assert kernel._udd_series_orders(u, schedule) is not None
            want = np.array([chi_reference(x) for x in u.tolist()])
            error = np.abs(exponent_filters(u, schedule) - want).max()
            assert error <= 1e-13 * np.abs(want).max(), (u[0], error)

    def test_weights_run_past_the_call_top_order(self, monkeypatch):
        # a call's UDD weights run to its highest order + 1: a node that starts
        # at 2N - 1 = 99, alone at the top of its call, takes the weighted
        # even order 2N from its neighbours as in a call that reaches higher
        monkeypatch.setattr(kernel, "_SERIES_GAIN", math.inf)
        schedule = ScheduleSpec(Scheme.UDD, 6, 50, 1.0)
        z = np.array([53.4, 53.9, 54.4, 54.9])
        assert (udd_series.miller_orders(z) == 99.0).all()
        for omega in (2.0 * z).tolist():
            alone = exponent_filters([omega, 1.0], schedule)[0]
            wider = exponent_filters([omega, 1.0, 400.0], schedule)[0]
            assert alone.tobytes() == wider.tobytes(), omega

    @pytest.mark.parametrize("omega", [1e-300, 1e-250, 1e-20])
    def test_tiny_frequencies_reach_the_zero_limit(self, omega, monkeypatch):
        # z = w T/2 this small overflows a recurrence started at a fixed order
        monkeypatch.setattr(kernel, "_SERIES_GAIN", math.inf)
        schedule = ScheduleSpec(Scheme.UDD, 6, 50, 1.0)
        limit = -1j * schedule.segments.sum(axis=0)
        assert_chi_matches(exponent_filters(omega, schedule)[0], limit, rel=1e-12)

    def test_vanishing_udd_run_is_finite(self):
        # cutoff*T = 1e-198: every table node takes the series at tiny z
        bath = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
        assert coherence_ratio(ScheduleSpec(Scheme.UDD, 6, 50, 1e-200), bath) == 1.0

    def test_deep_udd_point_converges_to_round_off(self):
        # the curve-deep benchmark's UDD T = 8 point (N = 400, tolerance 1e-9)
        bath = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
        result = decay_exponents(ScheduleSpec(Scheme.UDD, 6, 400, 8.0), bath, rel_tol=1e-9)
        assert result.estimated_relative_error <= 1e-11

    def test_sparse_call_sums_do_not_depend_on_the_other_frequencies(self):
        # odd orders from 1 to about 2130 span 54 blocks of the ring: each
        # subset starts its frequencies at other steps, multiplies other live
        # prefixes, and must still give every frequency the bits of the full
        # call; z = 0 (order 1) sums to zero without a warning
        rng = np.random.default_rng(17)
        z = np.concatenate(([0.0, 0.0, 2000.0], rng.uniform(0.0, 2000.0, 61)))
        z[-4:] = z[3:7]  # duplicates
        orders = udd_series.miller_orders(z)
        odd, even = udd_series.udd_stencil_weights(int(orders.max()) + 1, 6, 400)
        full = udd_series.bessel_sums(z, orders, odd, even)
        assert not full[:2].any()
        for size in range(2, z.size):
            pick = rng.choice(z.size, size, replace=False)
            np.testing.assert_array_equal(
                udd_series.bessel_sums(z[pick], orders[pick], odd, even), full[pick])

    @pytest.mark.parametrize("n, cycles", [(6, 3), (6, 400), (12, 400)],
                             ids=["3", "400", "n12-400"])
    def test_wide_call_sums_do_not_depend_on_the_other_frequencies(self, n, cycles):
        # on one thread, OpenBLAS takes a product of more than 10^6
        # multiply-adds to other kernels, which from 12 rows on give some
        # columns other bits; sliced products keep every frequency's bits.
        # At N = 3 many blocks add a weighted even order, at N = 400 none does
        # (the top order is 481); n = 12 multiplies 12 rows, n - 1 chi columns
        # and the k J_k column, sliced past 3472 columns, and fails unsliced.
        code = (
            "import numpy as np\n"
            "import ladder_dd.udd_series as udd_series\n"
            "rng = np.random.default_rng(4170)\n"
            "z = rng.uniform(0.0, 400.0, 6000)\n"
            "orders = udd_series.miller_orders(z)\n"
            f"odd, even = udd_series.udd_stencil_weights(int(orders.max()) + 1, {n}, {cycles})\n"
            "full = udd_series.bessel_sums(z, orders, odd, even)\n"
            "for size in rng.integers(3700, z.size, 24).tolist():\n"
            "    pick = rng.choice(z.size, size, replace=False)\n"
            "    np.testing.assert_array_equal(\n"
            "        udd_series.bessel_sums(z[pick], orders[pick], odd, even), full[pick])\n"
        )
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": str(Path(kernel.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_few_frequencies_take_the_boundary_sum(self):
        # the oracle's handful of mode frequencies: the boundary sum is cheaper
        schedule = ScheduleSpec(Scheme.UDD, 6, 50, 1.0)
        assert kernel._udd_series_orders(np.array([1.0, 2.0]), schedule) is None
        many = np.linspace(0.0, 300.0, 5000)
        assert kernel._udd_series_orders(many, schedule) is not None
        for bad in ([-1.0, 2.0], [math.nan], [math.inf]):
            assert kernel._udd_series_orders(np.array(bad * 3000), schedule) is None


class TestExponentFilter:
    def test_two_level_reduction(self):
        schedule = ScheduleSpec(Scheme.UDD, 2, 2, 1.5)
        omega = 2.1
        eta1, eta2 = (eta_literal(l, omega, schedule) for l in (1, 2))
        chi = exponent_filters(omega, schedule)[0, 0]
        assert chi == pytest.approx(-2 * eta1 + 2 * eta2, rel=1e-13)

    def test_pdd_low_frequency_cancellation(self):
        # equal segments make the omega->0 limits equal across slots, and the
        # (+1, -2, +1) coefficients sum to zero
        schedule = ScheduleSpec(Scheme.PDD, 4, 3, 2.0)
        for k in range(3):
            # segment sums agree across slots to round-off only
            assert abs(exponent_filters(0.0, schedule)[0, k]) <= 1e-13

    def test_six_level_udd_against_transcription(self):
        schedule = ScheduleSpec(Scheme.UDD, 6, 2, 1.0)
        omega = 0.7 * 100.0
        for k in range(5):
            got = exponent_filters(omega, schedule)[0, k]
            assert got == pytest.approx(chi_literal(k, omega, schedule), rel=1e-12)

    def test_four_level_matches_fixed_index_transcription(self):
        # at n=4 the published index pattern (second filter ending on eta_{n-1})
        # coincides with the cyclic-neighbour combination used here
        schedule = ScheduleSpec(Scheme.UDD, 4, 2, 1.3)
        omega = 3.1
        eta = [eta_literal(l, omega, schedule) for l in range(1, 5)]
        fixed = {  # transition: published combination
            0: -2 * eta[0] + eta[1] + eta[3],
            1: -2 * eta[1] + eta[0] + eta[2],  # eta_{n-1} = eta_3 at n=4
            2: -2 * eta[2] + eta[1] + eta[3],
        }
        for k, want in fixed.items():
            assert exponent_filters(omega, schedule)[0, k] == pytest.approx(want, rel=1e-12)

    def test_five_level_diverges_from_n_minus_1_variant(self):
        # the eta_{n-1} variant of the second filter is not the cyclic
        # combination once n > 4; the Fock-space oracle adjudicates in favour
        # of the cyclic one (see test_fock_oracle)
        schedule = ScheduleSpec(Scheme.UDD, 5, 2, 1.3)
        omega = 2.7
        eta = [eta_literal(l, omega, schedule) for l in range(1, 6)]
        variant = -2 * eta[1] + eta[0] + eta[3]
        assert abs(exponent_filters(omega, schedule)[0, 1] - variant) > 1e-3

    @pytest.mark.parametrize("n", range(2, 8))
    def test_slices_equal_the_rolled_stencil(self, n, monkeypatch):
        # column slices add the same terms in the same order as two full
        # np.roll copies, so chi keeps its bits in every form that differences
        # eta; the UDD Bessel series instead sums J_k(z) over the stencils of
        # its weights, and has the bits of that series
        rng = np.random.default_rng(n)
        omegas = np.array([0.0, *rng.uniform(0.0, 300.0, 40)])
        scales = np.exp(rng.uniform(-30.0, 30.0, (41, 1)))  # rows of filters far apart
        values = scales * (rng.normal(size=(41, n)) + 1j * rng.normal(size=(41, n)))

        def rolled(eta):
            return (np.roll(eta, 1, axis=-1) - 2.0 * eta + np.roll(eta, -1, axis=-1))[..., : n - 1]

        assert udd_series.stencil(values).tobytes() == rolled(values).tobytes()
        monkeypatch.setattr(kernel, "_SERIES_GAIN", math.inf)
        schedule = ScheduleSpec(Scheme.UDD, n, 7, 2.3)
        orders = kernel._udd_series_orders(omegas, schedule)
        odd, even = udd_series.udd_stencil_weights(int(orders.max()) + 1, n, 7)
        z = 0.5 * schedule.total_time * omegas
        with np.errstate(divide="ignore", invalid="ignore"):  # w = 0
            want = udd_series.bessel_sums(z, orders, odd, even)
            want *= (np.exp(1j * z) / omegas)[:, None]
        want[0] = rolled(-1j * schedule.segments.sum(axis=0))  # the w = 0 limit, differenced
        assert exponent_filters(omegas, schedule).tobytes() == want.tobytes()

    def test_hahn_echo_closed_form(self):
        # two levels, single midpoint pulse
        total_time = 1.9
        schedule = ScheduleSpec(Scheme.PDD, 2, 1, total_time)
        for omega in (0.5, 2.0, 9.3):
            phase = np.exp(1j * omega * total_time / 2)
            closed = 4 * abs((1 - phase) - phase * (1 - phase)) ** 2 / omega**2
            chi = exponent_filters(omega, schedule)[0, 0]
            assert abs(chi) ** 2 == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("n", range(2, 9))
def test_stencil_is_group_toggling_weights(n):
    # the (+1, -2, +1) stencil of exponent_filters, centred on slot k for
    # transition k, is the toggling-frame weight the pulse group assigns
    weights = toggling_weights(n)
    omegas = [0.0, 0.35, 4.2, 95.0]
    for scheme in (Scheme.PDD, Scheme.UDD):
        schedule = ScheduleSpec(scheme, n, 3, 1.7)
        eta = np.array([eta_boundary_sum(omega, schedule) for omega in omegas])
        chi = exponent_filters(omegas, schedule)
        assert chi.shape == (len(omegas), n - 1)
        # relative to each frequency's filter scale, times the stencil's 4:
        # PDD cancels at w = 0
        scale = 4 * np.abs(eta).max(axis=1, keepdims=True)
        assert np.all(np.abs(chi - eta @ weights.T) <= 1e-13 * scale), scheme



class TestStaticFilterTerm:
    """chi_k(0) = -i sum_l W[k, l] tau_l, tau_l the total time of slot l: the
    group average removes a static dephasing only when the n slots get equal
    total time.  PDD's slots do at every n, and Uhrig's at n = 2; at n >= 3
    Uhrig's unequal slot times leave c_n T / N^2, so UDD's filters tend to a
    nonzero constant as w -> 0."""

    @pytest.mark.parametrize("scheme, n", [*((Scheme.PDD, n) for n in range(2, 9)),
                                           (Scheme.UDD, 2)])
    def test_equal_slot_times_leave_round_off(self, scheme, n):
        for cycles in (1, 4, 50):
            for total_time in (1.0, 7.0):
                chi = exponent_filters(0.0, ScheduleSpec(scheme, n, cycles, total_time))
                assert np.abs(chi).max() <= 1e-13 * total_time, (cycles, total_time)

    @pytest.mark.parametrize("n, c_n", [(3, 0.3656), (4, 0.1542), (6, 0.0914)])
    def test_udd_leaves_a_static_term(self, n, c_n):
        weights = toggling_weights(n)
        for total_time in (1.0, 7.0):
            schedule = ScheduleSpec(Scheme.UDD, n, 50, total_time)
            chi = exponent_filters(0.0, schedule)[0]
            assert 50**2 * np.abs(chi).max() / total_time == pytest.approx(c_n, abs=5e-5)
            slot_times = schedule.segments.sum(axis=0)
            np.testing.assert_allclose(chi, -1j * weights @ slot_times,
                                       rtol=0, atol=1e-13 * total_time)


class TestBath:
    def test_ohmic_zero(self):
        bath = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
        assert ohmic_density(0.0, bath) == 0.0

    def test_ohmic_at_cutoff(self):
        bath = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
        expected = 0.25 / 4 * 100.0 * math.exp(-1.0)
        assert ohmic_density(100.0, bath) == pytest.approx(expected, rel=1e-15)

    def test_ohmic_decoupled(self):
        bath = BathSpec(alpha=0.0, cutoff=10.0, temperature=1.0)
        assert np.all(ohmic_density(np.linspace(0, 10, 7), bath) == 0.0)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(alpha=-0.1, cutoff=1.0, temperature=1.0), "alpha"),
            (dict(alpha=0.1, cutoff=0.0, temperature=1.0), "cutoff"),
            (dict(alpha=0.1, cutoff=1.0, temperature=0.0), "temperature"),
            (dict(alpha=math.nan, cutoff=1.0, temperature=1.0), "alpha must be finite"),
            (dict(alpha=0.1, cutoff=math.inf, temperature=1.0), "cutoff must be finite"),
            (dict(alpha=0.1, cutoff=1.0, temperature=math.inf), "temperature must be finite"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            BathSpec(**kwargs)


class TestDecayIntegrand:
    def test_zero_frequency_finite_and_continuous(self):
        bath = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
        schedule = ScheduleSpec(Scheme.UDD, 6, 5, 1.2)
        rows = decay_integrand([0.0, 1e-9 * bath.cutoff], schedule, bath)
        assert np.all(np.isfinite(rows))
        assert np.all(rows[:, 0] > 0)
        np.testing.assert_allclose(rows[:, 0], rows[:, 1], rtol=1e-4)

    def test_rows_nonnegative(self):
        bath = BathSpec(alpha=0.4, cutoff=8.0, temperature=2.0)
        schedule = ScheduleSpec(Scheme.PDD, 3, 2, 2.0)
        rows = decay_integrand(np.linspace(0, 8.0, 101), schedule, bath)
        assert rows.shape == (2, 101)
        assert np.all(rows >= 0)


class TestDecayExponents:
    def test_literal_rule_is_leggauss_bit_for_bit(self):
        nodes, weights = np.polynomial.legendre.leggauss(kernel.GL_ORDER)
        assert kernel._GL_NODES.tobytes() == nodes.tobytes()
        assert kernel._GL_WEIGHTS.tobytes() == weights.tobytes()

    def test_decoupled_bath_gives_zero(self):
        bath = BathSpec(alpha=0.0, cutoff=10.0, temperature=1.0)
        schedule = ScheduleSpec(Scheme.PDD, 3, 2, 2.0)
        result = decay_exponents(schedule, bath)
        assert np.all(result.gamma == 0.0)
        assert coherence_ratio(schedule, bath) == 1.0

    def test_short_run_barely_decays(self):
        bath = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
        schedule = ScheduleSpec(Scheme.UDD, 6, 50, 1e-7)
        assert coherence_ratio(schedule, bath) == pytest.approx(1.0, abs=1e-9)

    def test_vanishing_run_hits_exponent_floor(self):
        # exponents of order 1e-20 are round-off, not signal; the convergence
        # floor must accept them instead of refining forever
        bath = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
        for scheme in (Scheme.PDD, Scheme.UDD):
            schedule = ScheduleSpec(scheme, 6, 50, 1e-9)
            assert coherence_ratio(schedule, bath) == 1.0

    def test_exponents_nonnegative(self):
        bath = BathSpec(alpha=0.3, cutoff=20.0, temperature=5.0)
        schedule = ScheduleSpec(Scheme.UDD, 4, 3, 1.5)
        result = decay_exponents(schedule, bath)
        assert np.all(result.gamma >= 0)
        assert result.estimated_relative_error <= 1e-6

    def test_riemann_sum_oracle_small_case(self):
        bath = BathSpec(alpha=0.3, cutoff=5.0, temperature=2.0)
        schedule = ScheduleSpec(Scheme.UDD, 3, 2, 3.0)
        result = decay_exponents(schedule, bath)
        panels = 200_000
        nodes = (np.arange(panels) + 0.5) * (bath.cutoff / panels)
        riemann = decay_integrand(nodes, schedule, bath).sum(axis=1) * (
            bath.cutoff / panels
        )
        np.testing.assert_allclose(result.gamma, riemann, rtol=1e-6)

    def test_riemann_sum_oracle_reference_long_run(self):
        # reference scenario deep in the decay regime (T = 10)
        bath = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
        schedule = ScheduleSpec(Scheme.PDD, 6, 50, 10.0)
        result = decay_exponents(schedule, bath)
        panels = 2**19
        width = bath.cutoff / panels
        riemann = np.zeros(5)
        for start in range(0, panels, 65536):
            nodes = (np.arange(start, min(start + 65536, panels)) + 0.5) * width
            riemann += decay_integrand(nodes, schedule, bath).sum(axis=1)
        riemann *= width
        np.testing.assert_allclose(result.gamma, riemann, rtol=1e-6)

    def test_refinement_stability(self):
        bath = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
        schedule = ScheduleSpec(Scheme.PDD, 6, 50, 2.5)
        base = decay_exponents(schedule, bath)
        deeper = decay_exponents(schedule, bath, extra_levels=1)
        np.testing.assert_allclose(base.gamma, deeper.gamma, rtol=1e-6)

    def test_coupling_scaling_is_exact(self):
        schedule = ScheduleSpec(Scheme.UDD, 3, 2, 2.0)
        base = decay_exponents(schedule, BathSpec(alpha=0.2, cutoff=10.0, temperature=3.0))
        doubled = decay_exponents(schedule, BathSpec(alpha=0.4, cutoff=10.0, temperature=3.0))
        halved = decay_exponents(schedule, BathSpec(alpha=0.1, cutoff=10.0, temperature=3.0))
        np.testing.assert_array_equal(doubled.gamma, 2.0 * base.gamma)
        np.testing.assert_array_equal(halved.gamma, 0.5 * base.gamma)

    def test_power_law_in_coupling(self):
        schedule = ScheduleSpec(Scheme.PDD, 3, 2, 2.0)
        p_base = coherence_ratio(schedule, BathSpec(alpha=0.2, cutoff=10.0, temperature=3.0))
        for c in (0.5, 2.0):
            p_scaled = coherence_ratio(
                schedule, BathSpec(alpha=0.2 * c, cutoff=10.0, temperature=3.0)
            )
            assert p_scaled == pytest.approx(p_base**c, rel=1e-9)

    def test_unconverged_quadrature_raises_with_estimates(self, monkeypatch):
        # the message, the error's only payload, names the last two Gamma
        # totals, both from the first batch's one filter call.  At temperature
        # 1 the closed-form PDD rows give both levels the same bits; the cold
        # bath's bend near w = 2 Tp keeps them apart
        monkeypatch.setattr(kernel, "_MAX_DOUBLINGS", 1)
        bath = BathSpec(alpha=0.3, cutoff=4.0, temperature=0.01)
        schedule = ScheduleSpec(Scheme.PDD, 2, 1, 1.0)
        first, table = kernel._first_level(bath.cutoff), FilterTable(schedule, bath, [1.0])
        (prev, _), (curr, nodes) = (table.estimate(level, 1.0) for level in (first, first + 1))
        assert prev.sum() != curr.sum()
        calls = recorded_table_calls(monkeypatch)
        with pytest.raises(ConvergenceError) as excinfo:
            decay_exponents(schedule, bath, rel_tol=1e-300)
        assert str(excinfo.value) == (
            f"decay exponents did not converge to rel_tol=1e-300 within 1 doublings ({nodes} "
            f"nodes; last two Gamma totals {prev.sum()}, {curr.sum()}) (while evaluating T=1)")
        assert not vars(excinfo.value)
        assert len(calls) == 1

    def test_non_finite_estimates_never_converge(self, monkeypatch):
        # finite but extreme inputs overflow the integrand; refinement cannot
        # repair that.  The table returns what it computed, and the rule
        # refuses the first estimate, judged against itself
        bath = BathSpec(alpha=1e308, cutoff=100.0, temperature=1e308)
        schedule = ScheduleSpec(Scheme.PDD, 6, 2, 1.556)
        first = kernel._first_level(bath.cutoff * 1.556)
        gamma, nodes = FilterTable(schedule, bath, [1.556]).estimate(first, 1.556)
        assert not np.isfinite(gamma).all()
        calls = recorded_table_calls(monkeypatch)
        with pytest.raises(ConvergenceError) as excinfo:
            decay_exponents(schedule, bath)
        assert str(excinfo.value) == (f"non-finite decay exponent estimate on {nodes} nodes "
                                      f"(while evaluating T=1.556)")
        assert not vars(excinfo.value)
        # one level reached: only the first batch's filter call ran
        assert len(calls) == 1

    def test_non_finite_extra_level_raises(self, monkeypatch):
        # the levels forced past convergence are judged by the same rule
        bath = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
        schedule = ScheduleSpec(Scheme.PDD, 6, 50, 2.5)
        asked, estimate, settled = [], FilterTable.estimate, [math.inf]

        def overflowing(table, level, total_time):
            gamma, nodes = estimate(table, level, total_time)
            asked.append((level, nodes))
            return (np.full_like(gamma, math.inf) if level > settled[0] else gamma), nodes

        monkeypatch.setattr(FilterTable, "estimate", overflowing)
        decay_exponents(schedule, bath)
        settled[0] = asked[-1][0]
        asked.clear()
        with pytest.raises(ConvergenceError) as excinfo:
            decay_exponents(schedule, bath, extra_levels=2)
        level, nodes = asked[-1]
        assert level == settled[0] + 1
        assert str(excinfo.value) == (f"non-finite decay exponent estimate on {nodes} nodes "
                                      f"(while evaluating T=2.5)")

    @pytest.mark.parametrize("total_time", [0.3, 16 * math.pi / 100.0])
    def test_small_run_against_riemann_sum(self, total_time):
        # cutoff*T below _MIN_PANELS level-0 panels: the quadrature starts on a
        # finer level; a false convergence would show against the Riemann sum
        bath = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
        schedule = ScheduleSpec(Scheme.UDD, 6, 50, total_time)
        assert bath.cutoff * total_time < kernel._MIN_PANELS * 4 * math.pi
        result = decay_exponents(schedule, bath)
        panels = 2**16
        nodes = (np.arange(panels) + 0.5) * (bath.cutoff / panels)
        riemann = decay_integrand(nodes, schedule, bath).sum(axis=1) * (bath.cutoff / panels)
        np.testing.assert_allclose(result.gamma, riemann, rtol=1e-6)

    @pytest.mark.parametrize("total_time", [1e-3, 0.3, 16 * math.pi / 100.0, 2.5])
    def test_successive_estimates_differ(self, total_time, monkeypatch):
        # a refinement that reused its predecessor's nodes would report a zero
        # change and converge falsely.  Converged estimates may agree to the
        # last bit, so the check is on the nodes: a level shares none with the
        # level before it, except in a remainder panel up to the cutoff that is
        # narrower than half the previous width and so carries over whole.  A
        # one-point level weighs its nodes w = u/T in one call, in order.
        bath = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
        schedule = ScheduleSpec(Scheme.UDD, 6, 50, total_time)
        levels, weight = [], kernel._thermal_weight

        def recording(omegas, bath):
            levels.append(omegas)
            return weight(omegas, bath)

        monkeypatch.setattr(kernel, "_thermal_weight", recording)
        for doublings in (1, 3):
            levels.clear()
            monkeypatch.setattr(kernel, "_MAX_DOUBLINGS", doublings)
            with pytest.raises(ConvergenceError):
                decay_exponents(schedule, bath, rel_tol=1e-300)
            assert len(levels) == doublings + 1
            for coarse, fine in zip(levels, levels[1:]):
                shared = np.intersect1d(coarse, fine)
                assert np.isin(shared, fine[-kernel.GL_ORDER:]).all()

    @pytest.mark.parametrize("rel_tol", [math.nan, -1.0, 0.0, 1.0, math.inf])
    def test_rel_tol_rejected_before_any_filter(self, rel_tol, monkeypatch):
        # such a target would refine through every doubling or accept any estimate
        def never(*args, **kwargs):
            raise AssertionError("filters evaluated for an invalid rel_tol")

        monkeypatch.setattr(kernel, "_exponent_rows", never)
        bath = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
        schedule = ScheduleSpec(Scheme.UDD, 6, 50, 1.0)
        for run in (lambda: decay_exponents(schedule, bath, rel_tol=rel_tol),
                    lambda: sweep_curve(schedule, bath, [0.5, 1.0], rel_tol=rel_tol)):
            with pytest.raises(ValueError, match=r"rel_tol must be finite and in \(0, 1\)"):
                run()

    @pytest.mark.parametrize("extra_levels", [-3, 1.5, True, None, "1"])
    def test_extra_levels_must_be_a_count(self, extra_levels, monkeypatch):
        # -3 once ran as 0 and 1.5 raised a bare TypeError from range()
        def never(*args, **kwargs):
            raise AssertionError("filters evaluated for an invalid extra_levels")

        monkeypatch.setattr(kernel, "_exponent_rows", never)
        bath = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
        schedule = ScheduleSpec(Scheme.PDD, 6, 50, 1.0)
        message = f"extra levels must be an int >= 0, got extra_levels={extra_levels!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            decay_exponents(schedule, bath, extra_levels=extra_levels)

    def test_numpy_integer_extra_levels(self):
        bath = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
        schedule = ScheduleSpec(Scheme.PDD, 6, 50, 1.0)
        plain = decay_exponents(schedule, bath, extra_levels=1)
        numpy = decay_exponents(schedule, bath, extra_levels=np.int64(1))
        assert numpy.gamma.tobytes() == plain.gamma.tobytes()
        assert numpy.quadrature_points == plain.quadrature_points
        assert plain.quadrature_points > decay_exponents(schedule, bath).quadrature_points

    def test_subnormal_frequency_range_rejected(self):
        # u = w*T panels cannot be formed once cutoff*T leaves the normal floats,
        # nor below about 1.8e-305, where 1/u overflows at the smallest node of
        # the first two levels, and are not tiled past _MAX_PANELS level-0 panels
        floor = r"is below 1\.78951e-305, where 1/w overflows at the smallest quadrature node"
        bath = BathSpec(alpha=0.25, cutoff=1e-10, temperature=1.0)
        with pytest.raises(ValueError, match=floor):
            decay_exponents(ScheduleSpec(Scheme.PDD, 2, 1, 1e-300), bath)
        bath = BathSpec(alpha=0.25, cutoff=1.0, temperature=1.0)
        for scheme in (Scheme.PDD, Scheme.UDD):
            for upper in (3e-308, 1e-306, 1e-305, 1.78e-305):
                with pytest.raises(ValueError, match=floor):
                    decay_exponents(ScheduleSpec(scheme, 6, 50, upper), bath)
        bath = BathSpec(alpha=0.25, cutoff=1e300, temperature=1.0)
        for total_time in (1e10, 1.0):  # cutoff*T = inf, then the finite 1e300
            with pytest.raises(ValueError, match=r"cutoff \* total time = .* panels"):
                decay_exponents(ScheduleSpec(Scheme.PDD, 2, 1, total_time), bath)

    def test_sweep_checks_every_range_before_any_filter(self, monkeypatch):
        # the first point's table batch tiles every point, so the last point's
        # range must be checked before the first point evaluates anything
        def never(*args, **kwargs):
            raise AssertionError("filters evaluated before an out-of-range point was seen")

        monkeypatch.setattr(kernel, "_exponent_rows", never)
        bath = BathSpec(alpha=0.25, cutoff=1e300, temperature=1.0)
        template = ScheduleSpec(scheme=Scheme.UDD, n=6, cycles=50, total_time=1.0)
        with pytest.raises(ValueError, match=r"cutoff \* total time = inf"):
            sweep_curve(template, bath, [1e-299, 1e10])

    @pytest.mark.parametrize("total_time", [1e-3, 0.3, 16 * math.pi / 100.0, 2.5])
    def test_carried_remainder_panel_is_resolved(self, total_time):
        # a remainder panel narrower than half the previous width is reused
        # whole by the next level, so refinement never checks it: its 15-node
        # sum must already match the same panel split into 64
        bath = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
        schedule = ScheduleSpec(Scheme.UDD, 6, 50, total_time)
        upper = bath.cutoff * total_time
        scale = decay_exponents(schedule, bath).gamma.sum()
        first = kernel._first_level(upper)
        levels = range(first, first + kernel._MAX_DOUBLINGS + 1)
        remainders = [tiling(level, upper)[1] for level in (*levels, levels[-1] + 1)]
        carried = {panel for panel, finer in zip(remainders, remainders[1:])
                   if panel is not None and panel == finer}
        assert carried
        for centre, half in carried:
            # the panel, then its 64 equal parts, as (centre, half-width) in u
            parts = centre - half + (2 * np.arange(64) + 1) * (half / 64)
            centres = np.concatenate(([centre], parts))
            halves = np.concatenate(([half], np.full(64, half / 64)))
            # one integrand call, so that both sums see the same filter form
            nodes = (centres[:, None] + halves[:, None] * kernel._GL_NODES) / total_time
            rows = decay_integrand(nodes.ravel(), schedule, bath)
            sums = rows.reshape(-1, 65, kernel.GL_ORDER) @ kernel._GL_WEIGHTS * halves / total_time
            whole, split = sums[:, 0], sums[:, 1:].sum(axis=1)
            assert np.abs(whole - split).max() <= 1e-12 * scale

    def test_table_for_other_fractions_rejected(self):
        bath = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
        table = FilterTable(ScheduleSpec(scheme=Scheme.PDD, n=3, cycles=2, total_time=1.0),
                            bath, [1.0])
        with pytest.raises(ValueError, match="other pulse fractions"):
            decay_exponents(ScheduleSpec(Scheme.UDD, 3, 2, 1.0), bath, table=table)

    def test_table_for_other_bath_rejected(self):
        # the table weighs its estimates by its own bath and keeps them
        bath = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
        schedule = ScheduleSpec(Scheme.PDD, 3, 2, 1.0)
        table = FilterTable(schedule, bath, [1.0])
        decay_exponents(schedule, bath, table=table)
        for other in (BathSpec(alpha=0.5, cutoff=100.0, temperature=150.0),
                      BathSpec(alpha=0.25, cutoff=50.0, temperature=150.0),
                      BathSpec(alpha=0.25, cutoff=100.0, temperature=1.0)):
            with pytest.raises(ValueError, match="another bath"):
                decay_exponents(schedule, other, table=table)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 6),
    cycles=st.integers(1, 4),
    scheme=st.sampled_from([Scheme.PDD, Scheme.UDD]),
    total_time=st.floats(1e-3, 5.0),
    alpha=st.floats(0.0, 10.0),
    cutoff=st.floats(1.0, 200.0),
    temperature=st.floats(1e-2, 1e3),
)
def test_every_finite_spec_converges_or_names_its_error(
        n, cycles, scheme, total_time, alpha, cutoff, temperature):
    try:
        p = coherence_ratio(ScheduleSpec(scheme, n, cycles, total_time),
                            BathSpec(alpha=alpha, cutoff=cutoff, temperature=temperature))
    except (ValueError, ConvergenceError):
        return
    assert math.isfinite(p) and 0.0 <= p <= 1.0


class TestSweepCurve:
    def _bath(self, alpha=0.25):
        return BathSpec(alpha=alpha, cutoff=100.0, temperature=150.0)

    def _template(self, scheme=Scheme.PDD):
        return ScheduleSpec(scheme=scheme, n=6, cycles=50, total_time=1.0)

    def test_single_point_grid(self):
        (point,) = sweep_curve(self._template(), self._bath(), [2.0])
        assert 0 < np.exp(-point.gamma.sum()) <= 1

    def test_decoupled_curve_is_flat(self):
        curve = sweep_curve(self._template(), self._bath(alpha=0.0), [0.5, 1.0, 2.0])
        np.testing.assert_array_equal([np.exp(-point.gamma.sum()) for point in curve], 1.0)

    def test_points_keep_gamma_where_p_underflows(self):
        # Gamma of about 3569 and 14960: P = exp(-Gamma) is 0, the point is not
        bath = BathSpec(alpha=2000.0, cutoff=5.0, temperature=2.0)
        template = ScheduleSpec(Scheme.PDD, 2, 1, 1.0)
        curve = sweep_curve(template, bath, [1.0, 2.0])
        for t, point, total in zip([1.0, 2.0], curve, [3568.94, 14959.88], strict=True):
            assert np.exp(-point.gamma.sum()) == 0.0
            assert point.gamma.sum() == pytest.approx(total, rel=1e-6)
            alone = decay_exponents(ScheduleSpec(Scheme.PDD, 2, 1, t), bath)
            assert point.gamma.tobytes() == alone.gamma.tobytes()
            assert point.quadrature_points == alone.quadrature_points
            assert (np.float64(point.estimated_relative_error).tobytes()
                    == np.float64(alone.estimated_relative_error).tobytes())

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            sweep_curve(self._template(), self._bath(), [1.0, 1.0])
        with pytest.raises(ValueError, match="> 0"):
            sweep_curve(self._template(), self._bath(), [0.0, 1.0])
        with pytest.raises(ValueError, match="non-empty"):
            sweep_curve(self._template(), self._bath(), [])

    @pytest.mark.parametrize("grid", [[1.0, math.nan], [math.nan], [1.0, math.inf]])
    def test_non_finite_grid_value_is_named(self, grid):
        # every comparison with nan is False, so [1.0, nan] once passed the
        # grid checks and failed in the table as "cutoff * total time = nan"
        with pytest.raises(ValueError, match="^time grid values must be finite and > 0, got"):
            sweep_curve(self._template(), self._bath(), grid)

    def test_points_report_their_quadrature(self):
        grid = [0.2, 1.0, 2.5]
        curve = sweep_curve(self._template(Scheme.UDD), self._bath(), grid, rel_tol=1e-7)
        assert len(curve) == 3
        assert all(point.quadrature_points > 0 for point in curve)
        assert all(point.estimated_relative_error <= 1e-7 for point in curve)

    def test_table_panels_evaluated_once(self, monkeypatch):
        # every table panel is evaluated by the first point that needs it only
        table_nodes = recorded_table_calls(monkeypatch)
        grid = np.linspace(0.1, 2.5, 12)
        assert 1.0 not in grid  # total time 1 marks the table's unit schedule
        sweep_curve(self._template(), self._bath(), grid)
        nodes = np.concatenate(table_nodes)
        # every point converges on its first two levels, which the table
        # evaluates in one batch, remainder panels included
        assert len(table_nodes) == 1
        assert np.unique(nodes).size == nodes.size

    # the CLI's default grid: 60 points up to T = 3.112
    DEFAULT_GRID = np.linspace(3.112 / 60, 3.112, 60)

    @pytest.mark.parametrize("n", [6, 2])
    @pytest.mark.parametrize("scheme", [Scheme.PDD, Scheme.UDD])
    def test_point_does_not_depend_on_its_batch(self, scheme, n):
        # a level's estimates are one reduction over its points, padded to the
        # longest; each point's sum must be the one it gets swept alone.  At
        # n = 2, one transition, a point alone leaves the reduction nothing to
        # loop over but its nodes.
        template = dataclasses.replace(self._template(scheme), n=n)
        curve = sweep_curve(template, self._bath(), self.DEFAULT_GRID)
        alone = [np.exp(-sweep_curve(template, self._bath(), [t])[0].gamma.sum())
                 for t in self.DEFAULT_GRID.tolist()]
        np.testing.assert_array_equal([np.exp(-point.gamma.sum()) for point in curve], alone)

    @pytest.mark.parametrize("scheme", [Scheme.PDD, Scheme.UDD])
    def test_batch_is_one_reduction_per_level(self, scheme, monkeypatch):
        # every point converges on its first two levels, so the sweep weighs
        # its nodes by the bath once per level, not once per point and level
        calls, weight = [], kernel._thermal_weight

        def recording(omegas, bath):
            calls.append(omegas.size)
            return weight(omegas, bath)

        monkeypatch.setattr(kernel, "_thermal_weight", recording)
        bath = self._bath()
        sweep_curve(self._template(scheme), bath, self.DEFAULT_GRID)
        firsts = {kernel._first_level(bath.cutoff * t) for t in self.DEFAULT_GRID.tolist()}
        levels = firsts | {first + 1 for first in firsts}
        assert 0 < len(calls) <= len(levels)

    @pytest.mark.parametrize("scheme", [Scheme.PDD, Scheme.UDD])
    def test_default_grid_settles_at_1e_14_in_one_batch(self, scheme, monkeypatch):
        # the UDD series over the stencil weights holds chi to about 1e-14 of
        # its largest, and PDD's closed form each |chi_k|^2 to about 1e-13 of
        # itself, so every point of the default grid settles on its first two
        # levels, from one filter call.  Differencing eta exhausted the 12
        # doublings, UDD's series at T = 0.0519 and PDD's at T = 0.1037
        batches, batch = [], FilterTable._batch

        def recording(table, pairs):
            batches.append(pairs)
            return batch(table, pairs)

        monkeypatch.setattr(FilterTable, "_batch", recording)
        calls = recorded_table_calls(monkeypatch)
        curve = sweep_curve(self._template(scheme), self._bath(), self.DEFAULT_GRID,
                            rel_tol=1e-14)
        assert len(batches) == len(calls) == 1
        assert max(point.estimated_relative_error for point in curve) <= 1e-14

    def test_sweep_derives_its_fractions_once(self, monkeypatch):
        # the table's unit schedule holds the fractions; a point needs only its T
        seen, exponents = [], decay_exponents

        def recording(schedule, bath, rel_tol, table):
            seen.append((schedule, table))
            return exponents(schedule, bath, rel_tol=rel_tol, table=table)

        monkeypatch.setattr(kernel, "decay_exponents", recording)
        sweep_curve(self._template(Scheme.UDD), self._bath(), self.DEFAULT_GRID)
        assert len(seen) == self.DEFAULT_GRID.size
        assert len({id(table) for _, table in seen}) == 1
        assert "fractions" in vars(seen[0][1].unit)
        assert not any("fractions" in vars(schedule) for schedule, _ in seen)

    def test_memory_does_not_grow_with_points_near_the_cap(self):
        # a level's reduction pads its points to the longest; near the
        # _MAX_PANELS cap it takes them a few at a time, so that 16 points
        # peak where 4 do, in the table's filter call
        bath = self._bath()
        template = ScheduleSpec(scheme=Scheme.PDD, n=2, cycles=1, total_time=1.0)
        top = kernel._MAX_PANELS * kernel._PANEL_WIDTH / bath.cutoff
        peaks = []
        for count in (4, 16):
            tracemalloc.start()
            try:
                sweep_curve(template, bath, np.linspace(0.9 * top, 0.999 * top, count))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0]

    def test_near_cap_batch_peaks_near_its_rows(self):
        # one n = 6 PDD point near the cap: its first batch weighs about 7e5
        # nodes of two levels into rows of 8(n-1) bytes a node.  Its filter call
        # once held eta, chi and their temporaries for all of them (187 MiB
        # traced); in node chunks the batch adds to its rows its nodes, a chunk
        # and one reduction group (55 MiB in all)
        bath = self._bath()
        upper = 0.999 * kernel._MAX_PANELS * kernel._PANEL_WIDTH
        first = kernel._first_level(upper)
        nodes = 0
        for level in (first, first + 1):
            whole, rest = tiling(level, upper)
            nodes += kernel.GL_ORDER * (whole + (rest is not None))
        rows = 8 * 5 * nodes
        chunk = 16 * kernel._CHUNK_ELEMS  # one complex temporary of a filter chunk
        tracemalloc.start()
        try:
            sweep_curve(self._template(), bath, [upper / bath.cutoff])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows > 25 * 2**20
        assert peak <= rows + 8 * chunk, (peak / 2**20, rows / 2**20)

    def test_convergence_error_names_failing_time(self, monkeypatch):
        monkeypatch.setattr(kernel, "_MAX_DOUBLINGS", 0)
        template = ScheduleSpec(scheme=Scheme.PDD, n=2, cycles=1, total_time=1.0)
        bath = BathSpec(alpha=0.3, cutoff=4.0, temperature=1.0)
        with pytest.raises(ConvergenceError, match="while evaluating T="):
            sweep_curve(template, bath, [1.0])


def _custom_fractions(n, cycles):
    rng = np.random.default_rng(7)
    return tuple(np.sort(rng.uniform(0.0, 1.0, n * cycles - 1)).tolist())


def recorded_table_calls(monkeypatch):
    """The nodes of every kernel._exponent_rows call on a filter table's
    unit schedule (total time 1), appended as the calls run."""
    calls, filters = [], kernel._exponent_rows

    def recording(omegas, schedule, weights):
        if schedule.total_time == 1.0:
            calls.append(np.asarray(omegas))
        return filters(omegas, schedule, weights)

    monkeypatch.setattr(kernel, "_exponent_rows", recording)
    return calls


def whole_panels(level, count):
    """(centre, half-width) of the first ``count`` whole panels of ``level``."""
    width = math.ldexp(kernel._PANEL_WIDTH, -level)
    return [((k + 0.5) * width, 0.5 * width) for k in range(count)]


def panel_nodes(panels):
    """The Gauss-Legendre nodes of ``panels`` (centre, half-width), in order."""
    return np.concatenate([centre + half * kernel._GL_NODES for centre, half in panels])


def tiling(level, upper):
    """The rule kernel._tilings applies elementwise: the count of whole panels
    [k h, (k+1) h], h = 4 pi / 2**level, below ``upper``, then the (centre,
    half-width) of the remainder panel, or None if ``upper`` is a multiple of h."""
    width = math.ldexp(kernel._PANEL_WIDTH, -level)
    whole = math.floor(upper / width)
    if whole * width < upper:
        half = 0.5 * (upper - whole * width)
        return whole, (upper - half, half)
    return whole, None


def max_rel_change(prev, curr):
    """The rule kernel._rel_change applies: inf if an entry is not finite,
    else the largest relative change over entries above _ZERO_FLOOR."""
    if not (np.isfinite(prev).all() and np.isfinite(curr).all()):
        return math.inf
    err = 0.0
    for p, c in zip(prev.tolist(), curr.tolist()):
        scale = max(abs(c), abs(p))
        if scale <= kernel._ZERO_FLOOR:
            continue
        err = max(err, abs(c - p) / scale)
    return err


class TestSharedTable:
    """A sweep shares one filter table; every point must equal its own
    single-point evaluation on a private table."""

    # Non-uniform grid.  cutoff*T < _MIN_PANELS * 4*pi at T = 0.37, so that
    # point starts on a finer level; cutoff 4*pi makes cutoff*T an exact
    # multiple of the panel width at T = 2 (first level 2) and T = 16 (first
    # level 0), leaving zero-width remainder panels.
    BATH = BathSpec(alpha=0.25, cutoff=4 * math.pi, temperature=3.0)
    GRID = [0.37, 2.0, 2.3, 9.1, 16.0, 23.7]

    @pytest.mark.parametrize("n,cycles", [(3, 4), (6, 3)])
    @pytest.mark.parametrize("scheme", [Scheme.PDD, Scheme.UDD, Scheme.CUSTOM])
    def test_sweep_matches_single_points(self, scheme, n, cycles):
        custom = _custom_fractions(n, cycles) if scheme is Scheme.CUSTOM else None
        template = ScheduleSpec(scheme=scheme, n=n, cycles=cycles, total_time=1.0,
                                custom_fractions=custom)
        curve = sweep_curve(template, self.BATH, self.GRID)
        for t, point in zip(self.GRID, curve):
            schedule = ScheduleSpec(scheme, n, cycles, t, custom_fractions=custom)
            single = coherence_ratio(schedule, self.BATH)
            assert np.exp(-point.gamma.sum()) == pytest.approx(single, rel=1e-12, abs=0)
            (one,) = sweep_curve(template, self.BATH, [t])
            assert np.exp(-one.gamma.sum()) == pytest.approx(single, rel=1e-12, abs=0)

    def _panels(self, level, total_time):
        """(centre, half-width) of the panels of the point at ``total_time`` on
        ``level``, from tiling(): its whole panels in order, then its
        remainder panel if it has one."""
        whole, remainder = tiling(level, self.BATH.cutoff * total_time)
        return whole_panels(level, whole) + ([remainder] if remainder is not None else [])

    @pytest.mark.parametrize("scheme", [Scheme.PDD, Scheme.UDD])
    def test_levels_hold_each_whole_panel_once(self, scheme, monkeypatch):
        # the first batch's call holds, per level in order of first use, its
        # whole panels [k h, (k+1) h], k = 0 .. top-1, in order and without
        # gaps, so a point's panels are a prefix of them; then each distinct
        # remainder panel of the batch once, in order of first use
        calls = recorded_table_calls(monkeypatch)
        sweep_curve(ScheduleSpec(scheme=scheme, n=6, cycles=3, total_time=1.0), self.BATH,
                    self.GRID)
        tops, remainders = {}, {}
        for t in self.GRID:
            first = kernel._first_level(self.BATH.cutoff * t)
            for level in (first, first + 1):
                whole, remainder = tiling(level, self.BATH.cutoff * t)
                tops[level] = max(tops.get(level, 0), whole)
                if remainder is not None:
                    remainders.setdefault(remainder, None)
        assert remainders  # the grid leaves remainder panels to hold
        want = [panel for level, top in tops.items() for panel in whole_panels(level, top)]
        np.testing.assert_array_equal(calls[0], panel_nodes(want + list(remainders)))

    def test_deeper_levels_evaluate_their_points_whole_tiling(self, monkeypatch):
        # at this tolerance points refine past the first batch's two levels;
        # each deeper level is one call over exactly its point's tiling there,
        # the last point's forced extra level included
        made, estimate = [], FilterTable.estimate  # (level, T) requested, nodes evaluated

        def requesting(table, level, total_time):
            before = len(calls)
            result = estimate(table, level, total_time)
            made.extend(((level, total_time), nodes) for nodes in calls[before:])
            return result

        monkeypatch.setattr(FilterTable, "estimate", requesting)
        calls = recorded_table_calls(monkeypatch)
        template = ScheduleSpec(scheme=Scheme.UDD, n=6, cycles=3, total_time=1.0)
        table = FilterTable(template, self.BATH, self.GRID)
        for t in self.GRID:
            decay_exponents(ScheduleSpec(Scheme.UDD, 6, 3, t), self.BATH, rel_tol=1e-14,
                            table=table)
        last = ScheduleSpec(Scheme.UDD, 6, 3, self.GRID[-1])
        decay_exponents(last, self.BATH, rel_tol=1e-14, extra_levels=1, table=table)
        assert len(made) == len(calls) >= 3
        for (level, t), nodes in made[1:]:  # made[0] is the first batch
            np.testing.assert_array_equal(nodes, panel_nodes(self._panels(level, t)))

    def test_estimates_sum_each_points_own_nodes(self, monkeypatch):
        # every estimate of the level-wide reduction, first batch and deeper
        # levels alike, against an in-order sum over the point's own nodes:
        # its whole panels, then its remainder panel
        unit = ScheduleSpec(scheme=Scheme.UDD, n=6, cycles=3, total_time=1.0)
        calls = recorded_table_calls(monkeypatch)
        table = FilterTable(unit, self.BATH, self.GRID)
        for t in self.GRID:
            decay_exponents(ScheduleSpec(Scheme.UDD, 6, 3, t), self.BATH, rel_tol=1e-14,
                            table=table)
        monkeypatch.undo()
        assert len(table._estimates) > 2 * len(self.GRID)
        evaluated = np.concatenate(calls)
        for (level, t), (gamma, count) in table._estimates.items():
            panels = self._panels(level, t)
            nodes = panel_nodes(panels)
            assert np.isin(nodes, evaluated).all()
            halves = [half for _, half in panels]
            chi = exponent_filters(nodes, unit)
            rows = (chi.real**2 + chi.imag**2) * np.outer(halves, kernel._GL_WEIGHTS).reshape(-1, 1)
            terms = kernel._thermal_weight(nodes / t, self.BATH)[:, None] * rows
            assert count == nodes.size
            np.testing.assert_allclose(gamma, t * np.add.accumulate(terms)[-1], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("total_time", [2.0, 16.0])
    def test_exact_multiple_skips_remainder_panel(self, total_time, monkeypatch):
        # a time just past the multiple keeps a sliver of a remainder panel
        nearby = decay_exponents(ScheduleSpec(Scheme.UDD, 3, 4, total_time * (1 + 1e-12)),
                                 self.BATH)
        schedule = ScheduleSpec(Scheme.UDD, 3, 4, total_time)
        calls = recorded_table_calls(monkeypatch)
        result = decay_exponents(schedule, self.BATH)
        # the one call holds the whole panels of the first two levels, nothing else
        first = kernel._first_level(self.BATH.cutoff * total_time)
        panels = self._panels(first, total_time) + self._panels(first + 1, total_time)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], panel_nodes(panels))
        assert [tiling(level, self.BATH.cutoff * total_time)[1]
                for level in (first, first + 1)] == [None, None]
        assert result.quadrature_points % (kernel._MIN_PANELS * kernel.GL_ORDER) == 0
        np.testing.assert_allclose(result.gamma, nearby.gamma, rtol=1e-9)


class TestTableRecords:
    """The table's batch arrays against the per-point rules they replace."""

    BATH = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)

    def test_tilings_match_the_scalar_rule(self):
        rng = np.random.default_rng(305)
        floor, cap = 1.7896e-305, kernel._MAX_PANELS * kernel._PANEL_WIDTH  # 1.78951e-305 rejected
        uppers = [floor, np.nextafter(floor, 1.0), 1.79e-305, cap, np.nextafter(cap, 0.0),
                  *np.exp(rng.uniform(math.log(floor), math.log(cap), 200)).tolist()]
        # multiples of the panel width, the deepest ones subnormal
        for level, counts in ((0, (8, 9, 1000, 2**14)), (3, (8, 1001)), (40, (8, 2**20)),
                              (1019, (8, 9, 1000)), (1031, (2**16, 2**16 + 1, 3 * 2**15))):
            width = math.ldexp(kernel._PANEL_WIDTH, -level)
            uppers += [k * width for k in counts]
        levels, upper_of = [], []
        for upper in uppers:
            first = kernel._first_level(upper)
            levels += range(first, first + kernel._MAX_DOUBLINGS + 2)
            upper_of += [upper] * (kernel._MAX_DOUBLINGS + 2)
        whole, rest, centres, halves = kernel._tilings(np.array(levels), np.array(upper_of))
        want = [tiling(level, upper) for level, upper in zip(levels, upper_of)]
        assert whole.tolist() == [count for count, _ in want]
        assert rest.tolist() == [panel is not None for _, panel in want]
        assert not rest.all()  # the multiples leave none
        panels = np.array([panel for _, panel in want if panel is not None])
        got = np.column_stack((centres[rest], halves[rest]))
        np.testing.assert_array_equal(got.view(np.int64), panels.view(np.int64))

    def test_changes_match_the_scalar_rule(self):
        rng = np.random.default_rng(15)
        floor = kernel._ZERO_FLOOR
        values = np.array([0.0, -0.0, floor, -floor, np.nextafter(floor, 1.0),
                           np.nextafter(floor, 0.0), 5e-324, -2e-310, 1e-300, 3e-16, 1e-12,
                           -1e-12, 0.5, -2.0, 1e308, -1e308])
        prev = rng.choice(values, (400, 5))
        curr = rng.choice(values, (400, 5))
        curr[::2] = prev[::2] * (1.0 + rng.uniform(-1e-6, 1e-6, (200, 5)))
        got = [kernel._rel_change(p, c) for p, c in zip(prev, curr)]
        want = [max_rel_change(p, c) for p, c in zip(prev, curr)]
        np.testing.assert_array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))

    @pytest.mark.parametrize("prev,curr", [
        ([1.0], [math.nan]), ([1e-20], [math.nan]), ([1.0], [math.inf]),
        ([math.inf], [math.inf]), ([math.nan], [1.0]), ([1.0, 2.0], [1.0, math.nan])],
        ids=["1-nan", "1e-20-nan", "1-inf", "inf-inf", "nan-1", "pair-nan"])
    def test_non_finite_pairs_never_converge(self, prev, curr):
        # whatever the other entry's scale, below _ZERO_FLOOR included, no
        # tolerance accepts a pair with a non-finite entry
        assert kernel._rel_change(np.array(prev), np.array(curr)) == math.inf

    # (scheme, T, rel_tol, levels past the first asked for up front) at the
    # CLI's default bath.  A level asked for before the level below it must
    # still be compared with that level when the point reaches it; a table
    # that stored each level's change found nothing to compare, so the point
    # refined past it (5730 nodes for 2865 at PDD 1e-14).  Both UDD points
    # here now settle on their first comparison, below the level asked for;
    # the cold-bath test below refines UDD to that level.
    @pytest.mark.parametrize("scheme,total_time,rel_tol,ahead", [
        (Scheme.PDD, 3.0, 1e-14, 3), (Scheme.UDD, 0.3, 1e-13, 3), (Scheme.UDD, 0.3, 1e-14, 8)])
    def test_table_answers_do_not_depend_on_query_order(self, scheme, total_time, rel_tol,
                                                         ahead):
        self._assert_query_order_is_irrelevant(self.BATH, scheme, total_time, rel_tol, ahead)

    def test_cold_udd_answers_do_not_depend_on_query_order(self):
        # at temperature 0.1 the bath weight bends near w = 2 Tp, and the UDD
        # point at T = 0.3 converges four levels past its first (2295 nodes,
        # change 1.8e-15 against 1e-13): the stored-change table refined past it
        bath = dataclasses.replace(self.BATH, temperature=0.1)
        self._assert_query_order_is_irrelevant(bath, Scheme.UDD, 0.3, 1e-13, 4)

    @staticmethod
    def _assert_query_order_is_irrelevant(bath, scheme, total_time, rel_tol, ahead):
        schedule = ScheduleSpec(scheme, 6, 50, total_time)
        fresh = decay_exponents(schedule, bath, rel_tol=rel_tol)
        table = FilterTable(schedule, bath, [total_time])
        table.estimate(kernel._first_level(bath.cutoff * total_time) + ahead, total_time)
        asked = decay_exponents(schedule, bath, rel_tol=rel_tol, table=table)
        np.testing.assert_array_equal(asked.gamma.view(np.int64), fresh.gamma.view(np.int64))
        assert asked.quadrature_points == fresh.quadrature_points
        assert (np.float64(asked.estimated_relative_error).view(np.int64)
                == np.float64(fresh.estimated_relative_error).view(np.int64))

    @pytest.mark.parametrize("scheme", [Scheme.PDD, Scheme.UDD])
    def test_settled_points_are_lookups(self, scheme, monkeypatch):
        # the first point's batch fills the table once and sums every point's
        # first two levels; every later point settles on them and only reads
        events = []

        def recording(name, function):
            def wrapped(*args, **kwargs):
                events.append(name)
                return function(*args, **kwargs)
            return wrapped

        filters = kernel._exponent_rows

        def filtering(omegas, schedule, weights):
            if schedule.total_time == 1.0:  # the table's unit schedule
                events.append("filter")
            return filters(omegas, schedule, weights)

        monkeypatch.setattr(kernel, "_exponent_rows", filtering)
        monkeypatch.setattr(FilterTable, "_reduce_group",
                            recording("_reduce_group", FilterTable._reduce_group))
        monkeypatch.setattr(kernel, "decay_exponents", recording("point", decay_exponents))
        template = ScheduleSpec(scheme=scheme, n=6, cycles=50, total_time=1.0)
        grid = TestSweepCurve.DEFAULT_GRID
        sweep_curve(template, self.BATH, grid)
        second = events.index("point", 1)
        assert events[:2] == ["point", "filter"] and "filter" not in events[2:second]
        assert events[second:] == ["point"] * (grid.size - 1)

    @pytest.mark.parametrize("scheme", [Scheme.PDD, Scheme.UDD])
    def test_on_demand_levels_match_one_point_tables(self, scheme, monkeypatch):
        # at 1e-13 points refine past the first batch, so deeper levels run
        # as one-point batches whose estimates decay_exponents compares with
        # an earlier batch's.  Both schemes' filters settle at the default
        # bath in the first batch; at temperature 0.1 the bath weight's bend
        # near w = 2 Tp needs deeper levels.  The UDD series is forced, so
        # that a node's filter does not depend on the size of its call.
        monkeypatch.setattr(kernel, "_SERIES_GAIN", math.inf)
        calls = recorded_table_calls(monkeypatch)
        template = ScheduleSpec(scheme=scheme, n=6, cycles=50, total_time=1.0)
        bath = dataclasses.replace(self.BATH, temperature=0.1)
        grid = TestSweepCurve.DEFAULT_GRID
        curve = sweep_curve(template, bath, grid, rel_tol=1e-13)
        assert len(calls) > 1
        alone = [decay_exponents(ScheduleSpec(scheme, 6, 50, t), bath, rel_tol=1e-13)
                 for t in grid.tolist()]
        for field in ("gamma", "quadrature_points", "estimated_relative_error"):
            np.testing.assert_array_equal([getattr(point, field) for point in curve],
                                          [getattr(point, field) for point in alone])
