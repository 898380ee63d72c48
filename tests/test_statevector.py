import math

import numpy as np
import pytest

from qetsim.errors import DimensionError, MeasurementError
from qetsim.gates import qet_matrix
from qetsim.pcg64 import RandomSource
from qetsim.statevector import (LocalUnitary, StateVector, apply_local,
                                fidelity, is_unitary, measure_subsystem)

from reference_tables import basis_state


def test_basis_state_ground_product():
    state = basis_state((2, 2), (0, 0))
    assert np.array_equal(state.amps, [1, 0, 0, 0])


def test_basis_state_row_major_convention():
    state = basis_state((2, 2), (0, 1))
    assert state.amps[1] == 1
    assert np.count_nonzero(state.amps) == 1


def test_basis_state_mixed_dimensions():
    # six subsystems of dimensions (2, 4, 2, 3, 2, 4); the configuration
    # (0, 3, 0, 0, 0, 1) sits at hand-computed row-major index 145
    state = basis_state((2, 4, 2, 3, 2, 4), (0, 3, 0, 0, 0, 1))
    assert state.amps[145] == 1
    assert np.count_nonzero(state.amps) == 1


def test_basis_state_level_out_of_range_names_subsystem():
    with pytest.raises(DimensionError, match="subsystem 1"):
        basis_state((2, 3), (0, 3))


def test_shape_rejects_degenerate_dimensions():
    with pytest.raises(DimensionError):
        StateVector((2, 1), np.zeros(2, dtype=complex))


def test_apply_local_identity_leaves_state():
    state = basis_state((2, 3), (1, 2))
    eye = LocalUnitary((3,), np.eye(3))
    out = apply_local(state, eye, (1,))
    assert np.allclose(out.amps, state.amps)


def test_apply_local_permutation_moves_amplitude():
    state = basis_state((2, 2), (1, 0))
    swap_levels = LocalUnitary((2,), np.array([[0, 1], [1, 0]], dtype=complex))
    out = apply_local(state, swap_levels, (0,))
    assert out.amps[0] == 1


def test_apply_local_qet_pi_transfers_with_i():
    state = basis_state((2, 2), (0, 1))
    out = apply_local(state, qet_matrix(np.pi), (0, 1))
    assert abs(out.amps[2] - 1j) < 1e-12
    assert abs(out.amps[1]) < 1e-12


def test_apply_local_norm_preserved():
    rng = np.random.default_rng(11)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    amps /= np.linalg.norm(amps)
    state = StateVector((2, 4, 2), amps)
    out = apply_local(state, qet_matrix(0.37), (0, 2))
    assert abs(np.vdot(out.amps, out.amps) - 1) < 1e-12


def test_apply_local_composition_matches_product():
    rng = np.random.default_rng(5)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    state = StateVector((2, 2, 2), amps)
    u = qet_matrix(0.9)
    v = qet_matrix(-1.7)
    one_by_one = apply_local(apply_local(state, u, (1, 2)), v, (1, 2))
    product = LocalUnitary((2, 2), v.entries @ u.entries)
    combined = apply_local(state, product, (1, 2))
    assert np.max(np.abs(one_by_one.amps - combined.amps)) < 1e-12


def test_apply_local_respects_target_order():
    state = basis_state((2, 2), (0, 1))
    # the transfer block is symmetric, so check ordering with an
    # asymmetric permutation: |01> -> |00> on targets listed reversed
    shift = np.zeros((4, 4), dtype=complex)
    shift[0, 2] = shift[1, 0] = shift[2, 3] = shift[3, 1] = 1
    u = LocalUnitary((2, 2), shift)
    forward = apply_local(state, u, (0, 1))
    reverse = apply_local(state, u, (1, 0))
    # on targets (1, 0) the input configuration reads as |10> = index 2
    assert forward.amps[np.ravel_multi_index((1, 1), state.shape)] == 1
    assert reverse.amps[np.ravel_multi_index((0, 0), state.shape)] == 1


def test_apply_local_dimension_mismatch():
    state = basis_state((2, 3), (0, 0))
    with pytest.raises(DimensionError):
        apply_local(state, qet_matrix(1.0), (0, 1))


def test_apply_local_duplicate_targets():
    state = basis_state((2, 2), (0, 0))
    with pytest.raises(DimensionError):
        apply_local(state, qet_matrix(1.0), (0, 0))


def test_measure_deterministic_zero():
    state = basis_state((2,), (0,))
    outcome, collapsed = measure_subsystem(state, 0, RandomSource(1))
    assert outcome == 0
    assert np.array_equal(collapsed.amps, state.amps)


def test_measure_balanced_statistics():
    shape = (2,)
    plus = StateVector(shape, np.array([1, 1]) / np.sqrt(2))
    rng = RandomSource(2024)
    zeros = sum(measure_subsystem(plus, 0, rng)[0] == 0 for _ in range(10000))
    assert 0.48 <= zeros / 10000 <= 0.52


def test_measure_entangled_collapse():
    shape = (2, 2)
    amps = np.zeros(4, dtype=complex)
    amps[1] = amps[2] = 1 / np.sqrt(2)
    state = StateVector(shape, amps)
    rng = RandomSource(3)
    for _ in range(20):
        outcome, collapsed = measure_subsystem(state, 0, rng)
        expected_index = 1 if outcome == 0 else 2
        assert abs(collapsed.amps[expected_index] - 1) < 1e-12
        others = np.delete(collapsed.amps, expected_index)
        assert np.all(others == 0)


def test_measure_zero_state_is_error():
    state = StateVector((2,), np.zeros(2, dtype=complex))
    with pytest.raises(MeasurementError):
        measure_subsystem(state, 0, RandomSource(0))


def test_measure_probabilities_sum_to_one():
    rng = np.random.default_rng(8)
    amps = rng.normal(size=12) + 1j * rng.normal(size=12)
    amps /= np.linalg.norm(amps)
    state = StateVector((3, 4), amps)
    flat = state.amps.reshape(3, 4)
    probs = np.sum(np.abs(flat) ** 2, axis=1)
    assert abs(probs.sum() - 1) < 1e-12


def test_random_source_determinism():
    a = RandomSource(99)
    b = RandomSource(99)
    shape = (2,)
    plus = StateVector(shape, np.array([1, 1]) / np.sqrt(2))
    seq_a = [measure_subsystem(plus, 0, a)[0] for _ in range(200)]
    seq_b = [measure_subsystem(plus, 0, b)[0] for _ in range(200)]
    assert seq_a == seq_b


def test_choose_never_returns_an_impossible_outcome():
    # summed in order, these probabilities reach 0.9999999999999999, so
    # the largest draw lies past the running sum's end
    probabilities = [0.1] * 10 + [0.0]
    rng = RandomSource(0)
    rng.random = lambda: 1 - 2 ** -53
    assert rng.choose(probabilities) == 9
    state = StateVector((11,), np.sqrt(probabilities))
    outcome, collapsed = measure_subsystem(state, 0, rng)
    assert outcome == 9
    assert collapsed.amps[9] == 1


def test_normal_deviates_repeat_for_a_seed():
    a, b = RandomSource(31), RandomSource(31)
    draws = [a.normal() for _ in range(500)]
    assert draws == [b.normal() for _ in range(500)]
    assert draws != [RandomSource(32).normal() for _ in range(500)]


def test_normal_deviates_have_unit_moments():
    # standard errors of a standard normal's sample mean and variance
    # over n draws: 1/sqrt(n) and sqrt(2/n)
    n = 20_000
    rng = RandomSource(2026)
    draws = np.array([rng.normal() for _ in range(n)])
    assert abs(draws.mean()) < 5 / math.sqrt(n)
    assert abs(draws.var() - 1) < 5 * math.sqrt(2 / n)


def test_normal_is_finite_at_both_ends_of_the_uniform_range():
    rng = RandomSource(0)
    rng.random = lambda: 0.0
    assert rng.normal() == 0.0
    rng.random = lambda: 1 - 2 ** -53
    assert math.isfinite(rng.normal())


def test_normal_draws_leave_other_sources_alone():
    drawn, watched, alone = RandomSource(5), RandomSource(5), RandomSource(5)
    probabilities = [0.25] * 4
    seen = []
    for _ in range(200):
        drawn.normal()
        seen.append(watched.choose(probabilities))
    assert seen == [alone.choose(probabilities) for _ in range(200)]


def test_fidelity_self_is_one():
    rng = np.random.default_rng(4)
    amps = rng.normal(size=6) + 1j * rng.normal(size=6)
    amps /= np.linalg.norm(amps)
    state = StateVector((2, 3), amps)
    assert abs(fidelity(state, state) - 1) < 1e-12


def test_fidelity_orthogonal_basis_states():
    a = basis_state((2, 2), (0, 1))
    b = basis_state((2, 2), (1, 0))
    assert fidelity(a, b) == 0


def test_fidelity_transfer_example():
    start = basis_state((2, 2), (0, 1))
    moved = apply_local(start, qet_matrix(np.pi), (0, 1))
    target = StateVector(start.shape,
                         np.array([0, 0, 1j, 0], dtype=complex))
    assert fidelity(start, moved) < 1e-12
    assert abs(fidelity(target, moved) - 1) < 1e-12


def test_fidelity_shape_mismatch():
    with pytest.raises(DimensionError):
        fidelity(basis_state((2,), (0,)), basis_state((3,), (0,)))


def test_is_unitary_identity():
    assert is_unitary(LocalUnitary((2,), np.eye(2)))


def test_is_unitary_random_transfer_angles():
    rng = np.random.default_rng(17)
    for theta in rng.uniform(-20, 20, size=1000):
        assert is_unitary(qet_matrix(theta))


def test_is_unitary_rejects_scaled_row():
    bad = np.eye(4, dtype=complex)
    bad[2] *= 2
    assert not is_unitary(LocalUnitary((2, 2), bad))
