import numpy as np
import pytest
from scipy.linalg import expm

from ladder_dd.operators import (
    ZERO_TOL,
    build_decoupling_group,
    check_transition,
    group_average,
    max_abs,
    sigma_z,
    verify_decoupling,
    x_pulse,
)

TOL = 1e-12


def is_unitary(op):
    """U^dag U = I to ZERO_TOL in the max-entry norm."""
    return max_abs(op.conj().T @ op - np.eye(len(op))) <= ZERO_TOL


class TestSigmaOperators:
    def test_sigma_z_two_level(self):
        np.testing.assert_array_equal(sigma_z(2, 0), np.diag([-1, 1]).astype(complex))

    def test_sigma_z_three_level(self):
        np.testing.assert_array_equal(sigma_z(3, 0), np.diag([-1, 1, 0]).astype(complex))

    def test_sigma_z_six_level(self):
        np.testing.assert_array_equal(
            sigma_z(6, 3), np.diag([0, 0, 0, -1, 1, 0]).astype(complex)
        )

    @pytest.mark.parametrize("bad_k", [-1, 1])
    def test_sigma_index_error_names_arguments(self, bad_k):
        with pytest.raises(ValueError, match="k=.*n=2"):
            sigma_z(2, bad_k)

    def test_dimension_error(self):
        with pytest.raises(ValueError, match="n=1"):
            sigma_z(1, 0)


class TestCheckTransition:
    def test_accepts_every_transition(self):
        for n in range(2, 7):
            for k in range(n - 1):
                check_transition(n, k)
            check_transition(np.int64(n), np.int64(n - 2))

    @pytest.mark.parametrize("n, k, message", [
        (3, 2, r"^transition k=2 out of range for n=3 \(need 0 <= k <= n-2\)$"),
        (3, -1, r"^transition k=-1 out of range for n=3 \(need 0 <= k <= n-2\)$"),
        (3, True, r"^transition index must be an int >= 0, got k=True$"),
        (3, 1.0, r"^transition index must be an int >= 0, got k=1.0$"),
        (1, 0, r"^atom dimension must be an int >= 2, got n=1$"),
        (2.0, 0, r"^atom dimension must be an int >= 2, got n=2.0$"),
    ])
    def test_bad_pair_is_named(self, n, k, message):
        with pytest.raises(ValueError, match=message):
            check_transition(n, k)


class TestXPulse:
    def test_two_level_closed_form(self):
        np.testing.assert_allclose(x_pulse(2, 0), np.array([[0, 1j], [1j, 0]]), atol=0)

    def test_three_level_closed_form(self):
        expected = np.array([[1, 0, 0], [0, 0, 1j], [0, 1j, 0]], dtype=complex)
        np.testing.assert_allclose(x_pulse(3, 1), expected, atol=0)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_generic_matrix_exponential(self, n):
        for k in range(n - 1):
            sigma_x = np.zeros((n, n), dtype=complex)  # couples levels k and k+1
            sigma_x[k, k + 1] = sigma_x[k + 1, k] = 1.0
            generic = expm(1j * sigma_x * np.pi / 2)
            assert max_abs(x_pulse(n, k) - generic) <= TOL

    def test_index_error(self):
        with pytest.raises(ValueError, match="k=3.*n=4"):
            x_pulse(4, 3)


class TestDecouplingGroup:
    def test_two_level_elements(self):
        group = build_decoupling_group(2)
        assert isinstance(group, tuple) and len(group) == 2
        np.testing.assert_allclose(group[0], np.eye(2), atol=0)
        np.testing.assert_allclose(group[1], np.array([[0, 1j], [1j, 0]]), atol=0)

    def test_three_level_generator_by_direct_multiplication(self):
        # independent construction: hard-coded closed-form factors
        factor_10 = np.array([[0, 1j, 0], [1j, 0, 0], [0, 0, 1]], dtype=complex)
        factor_21 = np.array([[1, 0, 0], [0, 0, 1j], [0, 1j, 0]], dtype=complex)
        expected = factor_10 @ factor_21
        group = build_decoupling_group(3)
        assert max_abs(group[1] - expected) <= TOL

    @pytest.mark.parametrize("n", range(2, 9))
    def test_generator_is_phased_permutation(self, n):
        g = build_decoupling_group(n)[1]
        magnitudes = np.abs(g)
        # exactly one unit-modulus entry per row and per column
        assert np.allclose(np.sort(magnitudes, axis=1)[:, :-1], 0, atol=TOL)
        assert np.allclose(np.max(magnitudes, axis=1), 1, atol=TOL)
        assert np.allclose(np.max(magnitudes, axis=0), 1, atol=TOL)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_elements_are_powers_and_unitary(self, n):
        group = build_decoupling_group(n)
        assert len(group) == n
        power = np.eye(n, dtype=complex)
        for element in group:
            assert element.shape == (n, n)
            assert is_unitary(element)
            assert max_abs(element - power) <= TOL
            power = power @ group[1]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_generator_nth_power_is_scalar(self, n):
        group = build_decoupling_group(n)
        nth = np.linalg.matrix_power(group[1], n)
        scalar = nth[0, 0]
        assert abs(abs(scalar) - 1) <= TOL
        assert max_abs(nth - scalar * np.eye(n)) <= TOL

    def test_dimension_error(self):
        with pytest.raises(ValueError, match="n=1"):
            build_decoupling_group(1)


class TestGroupAverage:
    def test_two_level_pauli_algebra(self):
        # sigma_z + sigma_x sigma_z sigma_x = 0
        group = build_decoupling_group(2)
        assert max_abs(group_average(group, sigma_z(2, 0))) <= 1e-15

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_identity_fixed_point(self, n):
        group = build_decoupling_group(n)
        assert max_abs(group_average(group, np.eye(n)) - np.eye(n)) <= TOL

    def test_six_level_all_transitions_averaged_away(self):
        group = build_decoupling_group(6)
        for k in range(5):
            assert max_abs(group_average(group, sigma_z(6, k))) <= TOL

    @pytest.mark.parametrize("n", [3, 5])
    def test_linearity(self, n):
        rng = np.random.default_rng(7 + n)
        group = build_decoupling_group(n)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        lhs = group_average(group, a + b)
        rhs = group_average(group, a) + group_average(group, b)
        assert max_abs(lhs - rhs) <= TOL

    def test_dimension_mismatch(self):
        group = build_decoupling_group(3)
        with pytest.raises(ValueError, match="dimension"):
            group_average(group, np.eye(4))


class TestVerifyDecoupling:
    def test_two_level_exact(self):
        residuals = verify_decoupling(2)
        assert len(residuals) == 1
        assert max(residuals) <= 1e-15

    @pytest.mark.parametrize("n", [6, 8])
    def test_larger_dimensions(self, n):
        residuals = verify_decoupling(n)
        assert len(residuals) == n - 1
        assert max(residuals) <= TOL
