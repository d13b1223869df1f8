import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ladder_dd.kernel as kernel
import ladder_dd.schedules as schedules
from ladder_dd.kernel import (
    BathSpec,
    ConvergenceError,
    FilterTable,
    decay_exponents,
    decay_integrand,
    exponent_filters,
    ohmic_density,
    position_filters,
    sweep_curve,
)
from ladder_dd.operators import ZERO_TOL, build_decoupling_group, max_abs, sigma_z
from ladder_dd.schedules import Scheme, ScheduleSpec


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


def chi_literal(k, omega, schedule):
    """Cyclic second difference centred on 0-based slot k, coded independently
    of the package."""
    n = schedule.n
    eta = [eta_literal(l, omega, schedule) for l in range(1, n + 1)]
    return eta[(k - 1) % n] - 2 * eta[k] + eta[(k + 1) % n]


def toggling_weights(n):
    """W[k, l]: weight of transition k's sigma_z on the (0,1) coherence in slot l,
    diag(g_l^dag sigma_z(k) g_l)[0] - [1] over the elements g_l of the pulse group.
    Asserts that every toggled sigma_z is diagonal."""
    elements = build_decoupling_group(n).elements
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
    def test_single_cycle_first_slot_is_bare_kernel(self):
        schedule = ScheduleSpec(Scheme.UDD, 3, 1, 2.0)
        omega = 1.3
        expected = window(omega, float(schedule.segments[0, 0]))
        assert position_filters(omega, schedule)[0, 0] == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("scheme", [Scheme.PDD, Scheme.UDD])
    def test_zero_frequency_limit(self, scheme):
        schedule = ScheduleSpec(scheme, 3, 4, 2.0)
        for l in range(1, 4):
            expected = -1j * schedule.segments[:, l - 1].sum()
            assert position_filters(0.0, schedule)[0, l - 1] == pytest.approx(expected, rel=1e-13)

    def test_against_literal_transcription_pdd(self):
        schedule = ScheduleSpec(Scheme.PDD, 2, 2, 1.0)
        value = position_filters(1.0, schedule)[0, 1]
        assert value == pytest.approx(eta_literal(2, 1.0, schedule), rel=1e-13)

    @pytest.mark.parametrize("scheme", [Scheme.PDD, Scheme.UDD])
    @pytest.mark.parametrize("n,cycles", [(2, 3), (4, 2), (6, 2)])
    def test_against_literal_transcription_grid(self, scheme, n, cycles):
        schedule = ScheduleSpec(scheme, n, cycles, 1.7)
        for omega in (0.35, 1.0, 7.9):
            for l in range(1, n + 1):
                got = position_filters(omega, schedule)[0, l - 1]
                want = eta_literal(l, omega, schedule)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


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


def assert_filters_match_boundary_sum(schedule, omegas, rel, scale):
    """position_filters against eta_boundary_sum, to ``rel`` of scale(w)."""
    got = position_filters(omegas, schedule)
    for omega, row in zip(omegas, got):
        err = np.abs(row - eta_boundary_sum(omega, schedule)).max()
        assert err <= rel * scale(omega), (omega, err / scale(omega))


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


class TestBesselSeries:
    """Miller's recurrence and the form selection behind the UDD filters."""

    def test_recurrence_matches_scipy(self):
        from scipy.special import jv

        z = np.concatenate(([1e-12, 1e-9, 1e-6, 1e-3], np.geomspace(0.01, 5000.0, 41)))
        orders = kernel._miller_orders(z)
        top = int(orders.max())
        picks = np.unique(np.r_[1:41, np.linspace(1, top, 400).astype(int)])
        weights = np.zeros((top, picks.size))
        weights[picks - 1, np.arange(picks.size)] = 1.0
        got = kernel._bessel_sums(z, orders, weights)  # every z in one recurrence
        want = jv(picks[None, :], z[:, None])
        # largest |J_k(z)|, k >= 1; scipy's jv itself is off by about 2e-16 z
        # there at large z (checked against mpmath), the recurrence by ~1e-16
        scale = np.array([np.abs(jv(np.arange(1, int(o) + 40), x)).max()
                          for x, o in zip(z, orders)])
        tol = 5e-16 * np.maximum(z, 20.0) * scale
        assert np.all(np.abs(got - want) <= tol[:, None])

    @pytest.mark.parametrize("omega", [1e-300, 1e-250, 1e-20])
    def test_tiny_frequencies_reach_the_zero_limit(self, omega, monkeypatch):
        # z = w T/2 this small overflows a recurrence started at a fixed order
        monkeypatch.setattr(kernel, "_SERIES_GAIN", math.inf)
        schedule = ScheduleSpec(Scheme.UDD, 6, 50, 1.0)
        limit = -1j * schedule.segments.sum(axis=0)
        np.testing.assert_allclose(position_filters(omega, schedule)[0], limit, rtol=1e-12)

    def test_vanishing_udd_run_is_finite(self):
        # cutoff*T = 1e-198: every table node takes the series at tiny z
        bath = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
        assert coherence_ratio(ScheduleSpec(Scheme.UDD, 6, 50, 1e-200), bath) == 1.0

    def test_deep_udd_point_converges_to_round_off(self):
        # the curve-deep benchmark's UDD T = 8 point (N = 400, tolerance 1e-9)
        bath = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
        result = decay_exponents(ScheduleSpec(Scheme.UDD, 6, 400, 8.0), bath, rel_tol=1e-9)
        assert result.estimated_relative_error <= 1e-11

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
        eta1 = position_filters(omega, schedule)[0, 0]
        eta2 = position_filters(omega, schedule)[0, 1]
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
        eta = position_filters(omegas, schedule)
        chi = exponent_filters(omegas, schedule)
        assert chi.shape == (len(omegas), n - 1)
        # relative to each frequency's filter scale: PDD cancels at w = 0
        scale = np.abs(eta).max(axis=1, keepdims=True)
        assert np.all(np.abs(chi - eta @ weights.T) <= 1e-13 * scale), scheme


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
        monkeypatch.setattr(kernel, "_MAX_DOUBLINGS", 0)
        bath = BathSpec(alpha=0.3, cutoff=4.0, temperature=1.0)
        schedule = ScheduleSpec(Scheme.PDD, 2, 1, 1.0)
        with pytest.raises(ConvergenceError) as excinfo:
            decay_exponents(schedule, bath)
        assert excinfo.value.previous.shape == (1,)
        assert excinfo.value.current.shape == (1,)

    def test_non_finite_estimates_never_converge(self):
        # finite but extreme inputs overflow the integrand; refinement cannot
        # repair that, so the first non-finite estimate raises
        bath = BathSpec(alpha=1e308, cutoff=100.0, temperature=1e308)
        schedule = ScheduleSpec(Scheme.PDD, 6, 2, 1.556)
        table = FilterTable(schedule, bath, [schedule.total_time])
        with pytest.raises(ConvergenceError, match="non-finite") as excinfo:
            decay_exponents(schedule, bath, table=table)
        assert not np.isfinite(excinfo.value.current).all()
        # one level reached: only the first batch's two remainder panels exist
        assert len(remainder_panels(table)) <= 2

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

        monkeypatch.setattr(kernel, "exponent_filters", never)
        bath = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
        schedule = ScheduleSpec(Scheme.UDD, 6, 50, 1.0)
        for run in (lambda: decay_exponents(schedule, bath, rel_tol=rel_tol),
                    lambda: sweep_curve(schedule, bath, [0.5, 1.0], rel_tol=rel_tol)):
            with pytest.raises(ValueError, match=r"rel_tol must be finite and in \(0, 1\)"):
                run()

    def test_subnormal_frequency_range_rejected(self):
        # u = w*T panels cannot be formed once cutoff*T leaves the normal floats,
        # and are not tiled past _MAX_PANELS level-0 panels
        bath = BathSpec(alpha=0.25, cutoff=1e-10, temperature=1.0)
        with pytest.raises(ValueError, match="smallest normal float"):
            decay_exponents(ScheduleSpec(Scheme.PDD, 2, 1, 1e-300), bath)
        bath = BathSpec(alpha=0.25, cutoff=1e300, temperature=1.0)
        for total_time in (1e10, 1.0):  # cutoff*T = inf, then the finite 1e300
            with pytest.raises(ValueError, match=r"cutoff \* total time = .* panels"):
                decay_exponents(ScheduleSpec(Scheme.PDD, 2, 1, total_time), bath)

    def test_sweep_checks_every_range_before_any_filter(self, monkeypatch):
        # the first point's table batch tiles every point, so the last point's
        # range must be checked before the first point evaluates anything
        def never(*args, **kwargs):
            raise AssertionError("filters evaluated before an out-of-range point was seen")

        monkeypatch.setattr(kernel, "exponent_filters", never)
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
        remainders = [kernel._tiling(level, upper)[1] for level in (*levels, levels[-1] + 1)]
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
        curve = sweep_curve(self._template(), self._bath(), [2.0])
        assert curve.times.shape == (1,)
        assert 0 < curve.values[0] <= 1

    def test_decoupled_curve_is_flat(self):
        curve = sweep_curve(self._template(), self._bath(alpha=0.0), [0.5, 1.0, 2.0])
        np.testing.assert_array_equal(curve.values, 1.0)

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            sweep_curve(self._template(), self._bath(), [1.0, 1.0])
        with pytest.raises(ValueError, match="> 0"):
            sweep_curve(self._template(), self._bath(), [0.0, 1.0])
        with pytest.raises(ValueError, match="non-empty"):
            sweep_curve(self._template(), self._bath(), [])

    def test_points_report_their_quadrature(self):
        grid = [0.2, 1.0, 2.5]
        curve = sweep_curve(self._template(Scheme.UDD), self._bath(), grid, rel_tol=1e-7)
        assert curve.quadrature_points.shape == curve.estimated_relative_error.shape == (3,)
        assert np.all(curve.quadrature_points > 0)
        assert np.all(curve.estimated_relative_error <= 1e-7)

    def test_table_panels_evaluated_once(self, monkeypatch):
        # every table panel is evaluated by the first point that needs it only
        table_nodes = []

        def recording(omegas, schedule):
            if schedule.total_time == 1.0:
                table_nodes.append(np.asarray(omegas))
            return filters(omegas, schedule)

        filters = kernel.exponent_filters
        monkeypatch.setattr(kernel, "exponent_filters", recording)
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
        alone = [sweep_curve(template, self._bath(), [t]).values[0]
                 for t in self.DEFAULT_GRID.tolist()]
        np.testing.assert_array_equal(curve.values, alone)

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

    def test_sweep_derives_its_fractions_once(self, monkeypatch):
        # the table's unit schedule holds the fractions; a point needs only its T
        calls, fractions = [], schedules.udd_fractions

        def counting(m):
            calls.append(m)
            return fractions(m)

        monkeypatch.setattr(schedules, "udd_fractions", counting)
        sweep_curve(self._template(Scheme.UDD), self._bath(), self.DEFAULT_GRID)
        assert calls == [299]

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

    def test_convergence_error_names_failing_time(self, monkeypatch):
        monkeypatch.setattr(kernel, "_MAX_DOUBLINGS", 0)
        template = ScheduleSpec(scheme=Scheme.PDD, n=2, cycles=1, total_time=1.0)
        bath = BathSpec(alpha=0.3, cutoff=4.0, temperature=1.0)
        with pytest.raises(ConvergenceError, match="while evaluating T="):
            sweep_curve(template, bath, [1.0])


def _custom_fractions(n, cycles):
    rng = np.random.default_rng(7)
    return tuple(np.sort(rng.uniform(0.0, 1.0, n * cycles - 1)).tolist())


def remainder_panels(table):
    """(centre, half-width) of the remainder panels a FilterTable holds."""
    return list(table._remainders)


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
        for t, value in zip(self.GRID, curve.values):
            schedule = ScheduleSpec(scheme, n, cycles, t, custom_fractions=custom)
            single = coherence_ratio(schedule, self.BATH)
            assert value == pytest.approx(single, rel=1e-12, abs=0)
            (one,) = sweep_curve(template, self.BATH, [t]).values
            assert one == pytest.approx(single, rel=1e-12, abs=0)

    def _recorded_sweep(self, monkeypatch, scheme, rel_tol=1e-6):
        """Sweep GRID at n = 6, N = 3.  Returns the sweep's table and, per
        filter call of the table, its nodes with the table's prefix sizes per
        level and remainder panels just before the call."""
        tables, calls = [], []

        class Recorded(kernel.FilterTable):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tables.append(self)

        def recording(omegas, schedule):
            if schedule.total_time == 1.0:  # the table's unit schedule
                (table,) = tables
                sizes = {level: nodes.size for level, (nodes, _) in table._levels.items()}
                calls.append((np.asarray(omegas), sizes, set(table._remainders)))
            return filters(omegas, schedule)

        filters = kernel.exponent_filters
        monkeypatch.setattr(kernel, "FilterTable", Recorded)
        monkeypatch.setattr(kernel, "exponent_filters", recording)
        template = ScheduleSpec(scheme=scheme, n=6, cycles=3, total_time=1.0)
        sweep_curve(template, self.BATH, self.GRID, rel_tol=rel_tol)
        return tables[0], calls

    @pytest.mark.parametrize("scheme", [Scheme.PDD, Scheme.UDD])
    def test_levels_hold_each_whole_panel_once(self, scheme, monkeypatch):
        # a level holds its whole panels [k h, (k+1) h], k = 0, 1, ..., in
        # order and without gaps, so a point's panels are a prefix of them
        table, _ = self._recorded_sweep(monkeypatch, scheme)
        assert table._levels
        for level, (nodes, rows) in table._levels.items():
            assert nodes.size % kernel.GL_ORDER == 0
            assert np.all(np.diff(nodes) > 0)
            width = math.ldexp(kernel._PANEL_WIDTH, -level)
            centres = (np.arange(nodes.size // kernel.GL_ORDER) + 0.5) * width
            want = centres[:, None] + (0.5 * width) * kernel._GL_NODES
            np.testing.assert_array_equal(nodes, want.ravel())
            assert rows.shape == (nodes.size, 5)

    def test_refinement_evaluates_only_panels_past_the_prefix(self, monkeypatch):
        # at this tolerance the first point refines past the first batch's two
        # levels; the last point, one level past its convergence, then extends
        # level 2, which the batch filled only up to the third point's range
        table, calls = self._recorded_sweep(monkeypatch, Scheme.UDD, rel_tol=1e-14)
        last = ScheduleSpec(Scheme.UDD, 6, 3, self.GRID[-1])
        decay_exponents(last, self.BATH, rel_tol=1e-14, extra_levels=1, table=table)
        assert len(calls) >= 3
        every = np.concatenate([nodes for nodes, _, _ in calls])
        assert np.unique(every).size == every.size
        held = {level: nodes.size for level, (nodes, _) in table._levels.items()}
        after = [(sizes, panels) for _, sizes, panels in calls[1:]]
        after.append((held, set(table._remainders)))
        extended = False
        for (nodes, sizes, panels), (sizes_after, panels_after) in zip(calls, after):
            # a call holds the panels past each level's held prefix and the
            # remainder panels not yet held, nothing else
            added = [table._levels[level][0][sizes.get(level, 0) : size]
                     for level, size in sizes_after.items()]
            added += [table._remainders[panel][0] for panel in panels_after - panels]
            np.testing.assert_array_equal(np.sort(nodes), np.sort(np.concatenate(added)))
            extended |= any(0 < sizes.get(level, 0) < size for level, size in sizes_after.items())
        assert extended

    def test_estimates_sum_each_points_own_nodes(self):
        # every estimate of the level-wide reduction, first batch and deeper
        # levels alike, against an in-order sum over the point's own nodes:
        # its whole panels, then its remainder panel
        table = FilterTable(ScheduleSpec(scheme=Scheme.UDD, n=6, cycles=3, total_time=1.0),
                            self.BATH, self.GRID)
        for t in self.GRID:
            decay_exponents(ScheduleSpec(Scheme.UDD, 6, 3, t), self.BATH, rel_tol=1e-14,
                            table=table)
        assert len(table._estimates) > 2 * len(self.GRID)
        for (level, t), (gamma, count) in table._estimates.items():
            whole, remainder = kernel._tiling(level, self.BATH.cutoff * t)
            nodes, rows = (held[: whole * kernel.GL_ORDER] for held in table._levels[level])
            if remainder is not None:
                rest_nodes, rest_rows = table._remainders[remainder]
                nodes, rows = np.concatenate((nodes, rest_nodes)), np.concatenate((rows, rest_rows))
            terms = kernel._thermal_weight(nodes / t, self.BATH)[:, None] * rows
            assert count == nodes.size
            np.testing.assert_allclose(gamma, t * np.add.accumulate(terms)[-1], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("total_time", [2.0, 16.0])
    def test_exact_multiple_skips_remainder_panel(self, total_time):
        # a time just past the multiple keeps a sliver of a remainder panel
        nearby = decay_exponents(ScheduleSpec(Scheme.UDD, 3, 4, total_time * (1 + 1e-12)),
                                 self.BATH)
        schedule = ScheduleSpec(Scheme.UDD, 3, 4, total_time)
        table = FilterTable(schedule, self.BATH, [total_time])
        result = decay_exponents(schedule, self.BATH, table=table)
        assert remainder_panels(table) == []
        assert result.quadrature_points % (kernel._MIN_PANELS * kernel.GL_ORDER) == 0
        np.testing.assert_allclose(result.gamma, nearby.gamma, rtol=1e-9)
