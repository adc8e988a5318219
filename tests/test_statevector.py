"""Statevector encoding, expectation values, rotations, and fidelity.

Expectation values go through the stepper's generator application and
rotations through the gather arrays of ``gather_tables``, the two routes a
fitted step takes.
"""

import numpy as np
import pytest
import scipy.linalg

from oracles import decode_nonnegative, dense_of_terms, random_pauli_sum_terms
from qnute.errors import DegenerateInputError, DimensionMismatchError
from qnute.pauli import SYMBOLS, PauliSum, dense_matrix, gather_tables
from qnute.statevector import ScaledState, StateVector, encode_samples, fidelity


def random_state(rng, n):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(v / np.linalg.norm(v))


def expectation(state: StateVector, op: PauliSum) -> complex:
    """<psi|op|psi> from the dense matrix of op."""
    return complex(np.vdot(state.amplitudes, dense_matrix(op, state.n) @ state.amplitudes))


def apply_pauli_rotation(state: StateVector, s: str, angle: float) -> StateVector:
    """exp(-i angle s)|psi> = cos(angle)|psi> - i sin(angle) s|psi>, s from its gather arrays."""
    (idx,), (ph,) = gather_tables(np.array([[SYMBOLS.index(ch) for ch in s]]))
    psi = state.amplitudes
    return StateVector(np.cos(angle) * psi - 1j * np.sin(angle) * (ph * psi[idx]))


class TestEncode:
    def test_uniform(self):
        scaled = encode_samples([1.0, 1.0, 1.0, 1.0])
        assert np.allclose(scaled.state.amplitudes, 0.5)
        assert scaled.scale == pytest.approx(2.0)

    def test_three_four_five(self):
        scaled = encode_samples([3.0, 4.0])
        assert np.allclose(scaled.state.amplitudes, [0.6, 0.8])
        assert scaled.scale == pytest.approx(5.0)

    def test_call_payoff_norm(self):
        x = np.linspace(0.0, 150.0, 8)
        payoff = np.maximum(x - 75.0, 0.0)
        scaled = encode_samples(payoff)
        assert scaled.state.norm() == pytest.approx(1.0, abs=1e-12)
        assert scaled.scale == pytest.approx(np.linalg.norm(payoff))

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            encode_samples([0.0, 0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(DegenerateInputError):
            encode_samples([1.0, np.inf])

    def test_scale_equivariance(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=8)
        base = encode_samples(v)
        scaled = encode_samples(3.5 * v)
        assert np.allclose(scaled.state.amplitudes, base.state.amplitudes)
        assert scaled.scale == pytest.approx(3.5 * base.scale)

    def test_scaled_state_requires_positive_scale(self):
        with pytest.raises(ValueError):
            ScaledState(StateVector([1.0, 0.0]), 0.0)


class TestExpectation:
    def test_z_on_zero_ket(self):
        assert expectation(StateVector.basis(1, 0), PauliSum([(1.0, "Z")])) == 1.0

    def test_x_on_zero_ket(self):
        assert expectation(StateVector.basis(1, 0), PauliSum([(1.0, "X")])) == 0.0

    def test_random_matches_dense_sandwich(self):
        rng = np.random.default_rng(5)
        psi = random_state(rng, 3)
        terms = random_pauli_sum_terms(rng, 3, 6)
        got = expectation(psi, PauliSum(terms))
        want = np.vdot(psi.amplitudes, dense_of_terms(terms) @ psi.amplitudes)
        assert got == pytest.approx(want)

    def test_hermitian_expectation_is_real(self):
        rng = np.random.default_rng(7)
        psi = random_state(rng, 2)
        s = PauliSum(random_pauli_sum_terms(rng, 2, 4))
        herm = s + PauliSum((c.conjugate(), t) for c, t in s)
        assert abs(expectation(psi, herm).imag) < 1e-12

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(8)
        psi = random_state(rng, 2)
        strings = ("XI", "YZ", "ZX")
        for a in strings:
            for b in strings:
                sab = expectation(psi, PauliSum([(1.0, a)]) @ PauliSum([(1.0, b)]))
                sba = expectation(psi, PauliSum([(1.0, b)]) @ PauliSum([(1.0, a)]))
                assert sab == pytest.approx(np.conj(sba))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            expectation(StateVector.basis(2, 0), PauliSum([(1.0, "X")]))


class TestRotation:
    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(9)
        psi = random_state(rng, 2)
        out = apply_pauli_rotation(psi, "XZ", 0.0)
        assert np.allclose(out.amplitudes, psi.amplitudes)

    def test_y_half_pi_flips_zero_ket(self):
        out = apply_pauli_rotation(StateVector.basis(1, 0), "Y", np.pi / 2)
        assert abs(out.amplitudes[1]) ** 2 == pytest.approx(1.0)

    def test_norm_preserved(self):
        rng = np.random.default_rng(10)
        psi = random_state(rng, 3)
        for _ in range(5):
            s = "".join(rng.choice(list("IXYZ"), 3))
            psi = apply_pauli_rotation(psi, s, rng.normal())
        assert psi.norm() == pytest.approx(1.0, abs=1e-12)

    def test_product_matches_expm_to_second_order(self):
        # Rotation product vs dense expm(-iA dt): error shrinks like dt^2.
        rng = np.random.default_rng(12)
        terms = random_pauli_sum_terms(rng, 2, 6, real_coeffs=True)
        a_dense = dense_of_terms(terms)
        psi0 = random_state(rng, 2)
        errors = []
        dts = (1e-2, 5e-3, 2.5e-3)
        for dt in dts:
            psi = psi0
            for coeff, symbols in sorted(terms, key=lambda t: t[1]):
                psi = apply_pauli_rotation(psi, symbols, coeff.real * dt)
            want = scipy.linalg.expm(-1j * a_dense * dt) @ psi0.amplitudes
            errors.append(np.linalg.norm(psi.amplitudes - want))
        slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert slope >= 1.9


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(13)
        psi = random_state(rng, 2)
        assert fidelity(psi, psi) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert fidelity(StateVector.basis(1, 0), StateVector.basis(1, 1)) == 0.0

    def test_half_overlap(self):
        plus = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        assert fidelity(StateVector.basis(1, 0), plus) == pytest.approx(0.5)

    def test_symmetric_and_phase_invariant(self):
        rng = np.random.default_rng(14)
        a, b = random_state(rng, 2), random_state(rng, 2)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a))
        rotated = StateVector(np.exp(0.7j) * a.amplitudes)
        assert fidelity(rotated, b) == pytest.approx(fidelity(a, b))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            fidelity(StateVector.basis(1, 0), StateVector.basis(2, 0))


class TestDecode:
    def test_round_trip(self):
        values = np.array([0.0, 1.5, 2.0, 0.25])
        assert np.allclose(decode_nonnegative(encode_samples(values)), values, atol=1e-10)

    def test_modulus_semantics(self):
        # Encoding keeps the signs; only the modulus decode drops them.
        scaled = encode_samples([-1.2, 1.6])
        assert np.allclose(scaled.state.amplitudes, [-0.6, 0.8])
        assert np.allclose(decode_nonnegative(scaled), [1.2, 1.6])
