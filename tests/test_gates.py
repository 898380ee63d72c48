import numpy as np
import pytest

from qetsim.gates import cqet_matrix, phase_matrix, qet_matrix
from qetsim.statevector import is_unitary


def _hamming_weight(index: int) -> int:
    return bin(index).count("1")


def _assert_weight_block_diagonal(matrix: np.ndarray):
    n = matrix.shape[0]
    for row in range(n):
        for col in range(n):
            if _hamming_weight(row) != _hamming_weight(col):
                assert abs(matrix[row, col]) < 1e-15, (row, col)


def test_qet_zero_is_identity():
    assert np.allclose(qet_matrix(0.0).entries, np.eye(4), atol=1e-15)


def test_qet_pi_full_transfer():
    out = qet_matrix(np.pi).entries @ np.eye(4)[:, 1]
    expected = np.zeros(4, dtype=complex)
    expected[2] = 1j
    assert np.max(np.abs(out - expected)) < 1e-12


@pytest.mark.parametrize("turns, c, s", [
    (-4, 1, 0), (-3, 0, 1), (-2, -1, 0), (-1, 0, -1),
    (1, 0, 1), (2, -1, 0), (3, 0, -1), (4, 1, 0)])
def test_qet_whole_multiples_of_pi_are_exact(turns, c, s):
    block = qet_matrix(turns * np.pi).entries[1:3, 1:3]
    assert block.tolist() == [[c, 1j * s], [1j * s, c]]


def test_qet_half_pi_partial_transfer():
    out = qet_matrix(np.pi / 2).entries @ np.eye(4)[:, 1]
    assert abs(out[1] - np.cos(np.pi / 4)) < 1e-12
    assert abs(out[2] - 1j * np.sin(np.pi / 4)) < 1e-12


def test_qet_additivity():
    rng = np.random.default_rng(6)
    for _ in range(200):
        a, b = rng.uniform(-10, 10, size=2)
        combined = qet_matrix(a).entries @ qet_matrix(b).entries
        assert np.max(np.abs(combined - qet_matrix(a + b).entries)) < 1e-12


def test_phase_zero_is_identity():
    assert np.allclose(phase_matrix(0.0, 0.0).entries, np.eye(4), atol=1e-15)


def test_phase_pi_on_single_excitation():
    out = phase_matrix(np.pi, 0.0).entries @ np.eye(4)[:, 1]
    assert abs(out[1] - (-1j)) < 1e-12


def test_phase_leaves_corner_states():
    rng = np.random.default_rng(9)
    for _ in range(50):
        theta, phi = rng.uniform(-10, 10, size=2)
        m = phase_matrix(theta, phi).entries
        assert m[0, 0] == 1
        assert m[3, 3] == 1


def test_cqet_transfers_on_control_zero():
    out = cqet_matrix().entries @ np.eye(8)[:, 1]
    expected = np.zeros(8, dtype=complex)
    expected[2] = 1j
    assert np.max(np.abs(out - expected)) < 1e-15


def test_cqet_identity_on_control_one():
    m = cqet_matrix().entries
    assert np.array_equal(m @ np.eye(8)[:, 5], np.eye(8)[:, 5])
    assert np.array_equal(m @ np.eye(8)[:, 0], np.eye(8)[:, 0])


@pytest.mark.parametrize("build", [
    lambda rng: qet_matrix(rng.uniform(-10, 10)),
    lambda rng: phase_matrix(rng.uniform(-10, 10), rng.uniform(-10, 10)),
    lambda rng: cqet_matrix(),
])
def test_constructors_unitary(build):
    rng = np.random.default_rng(21)
    for _ in range(1000):
        assert is_unitary(build(rng))


def test_excitation_conservation_exhaustive():
    rng = np.random.default_rng(33)
    _assert_weight_block_diagonal(cqet_matrix().entries)
    for _ in range(50):
        _assert_weight_block_diagonal(qet_matrix(rng.uniform(-10, 10)).entries)
        _assert_weight_block_diagonal(
            phase_matrix(rng.uniform(-10, 10), rng.uniform(-10, 10)).entries)
