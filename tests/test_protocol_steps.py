"""The fused protocol steps against the per-op route they replace.

``run_protocol`` applies each step as one local unitary on the union of
its ops' targets.  Here each fused operator is held against the product
of the step's elementary unitaries, each embedded in the union's space
by ``np.kron`` and a permutation of the basis, and every trajectory
against the loop that applies one op at a time.  All entries are
phased permutations, so both comparisons are exact.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qetsim.protocol import (PROTOCOL_DIMS, PROTOCOL_SEQUENCE, SWAP_FACTOR,
                             ProtocolInput, _step_unitaries,
                             elementary_unitary, initial_state, run_protocol)
from qetsim.statevector import apply_local, is_unitary

CONVENTIONS = sorted(SWAP_FACTOR)


def per_op_trajectory(inp, convention):
    """The state after each step, applying one elementary op at a time."""
    state = initial_state(inp)
    intermediates = []
    for step in PROTOCOL_SEQUENCE:
        for op in step.ops:
            state = apply_local(state, elementary_unitary(op, convention),
                                op.targets)
        intermediates.append(state)
    return intermediates


def embedded(entries, positions, dims):
    """``entries`` on ``positions`` of a ``dims``-shaped space, identity elsewhere."""
    rest = [k for k in range(len(dims)) if k not in positions]
    full = np.kron(entries, np.eye(math.prod(dims[k] for k in rest)))
    # row i of ``full`` is the configuration ``dims``-index moved[i] names
    moved = np.arange(math.prod(dims)).reshape(dims).transpose(
        list(positions) + rest).reshape(-1)
    perm = np.eye(len(moved))[moved]
    return perm.T @ full @ perm


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_fused_steps_equal_the_per_op_products(convention):
    fused = _step_unitaries(convention)
    assert len(fused) == len(PROTOCOL_SEQUENCE)
    for step, (unitary, targets) in zip(PROTOCOL_SEQUENCE, fused):
        union = []
        for op in step.ops:
            union += [t for t in op.targets if t not in union]
        assert targets == tuple(union)
        dims = tuple(PROTOCOL_DIMS[t] for t in union)
        assert unitary.dims == dims
        product = np.eye(math.prod(dims))
        for op in step.ops:
            positions = [union.index(t) for t in op.targets]
            product = embedded(elementary_unitary(op, convention).entries,
                               positions, dims) @ product
        assert np.array_equal(unitary.entries, product), step.name
        assert is_unitary(unitary)


@st.composite
def protocol_inputs(draw):
    parts = st.floats(-1, 1, allow_nan=False)
    raw = np.array([complex(draw(parts), draw(parts)) for _ in range(4)])
    norm = np.linalg.norm(raw)
    if norm < 1e-3:
        raw, norm = np.array([1, 0, 0, 0], dtype=complex), 1.0
    return ProtocolInput(*(raw / norm))


@settings(max_examples=100)
@given(protocol_inputs())
def test_fused_trajectory_is_bit_identical_to_per_op_loop(inp):
    for convention in CONVENTIONS:
        fused = run_protocol(inp, convention).intermediates
        loop = per_op_trajectory(inp, convention)
        assert len(fused) == len(loop)
        for got, want in zip(fused, loop):
            assert got.shape == want.shape
            assert np.array_equal(got.amps, want.amps)
