"""The planned dense kernel against references that never transpose.

``apply_local`` and ``measure_subsystem`` move their targets to the
front through a cached transpose plan keyed by (shape, targets).  Here
``apply_local`` is held against ``np.einsum`` over named axes and
``measure_subsystem`` against loops over every level tuple, on random
mixed-radix shapes.  Each key is used twice and its targets are reused
on other shapes, so a stale or mixed-up cache entry would show.
"""

import itertools
import string
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qetsim.errors import DimensionError
from qetsim.statevector import (LocalUnitary, StateVector, apply_local,
                                measure_subsystem)

TOL = 1e-12


def random_state(rng, dims) -> StateVector:
    size = int(np.prod(dims))
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    return StateVector(dims, amps / np.linalg.norm(amps))


def random_unitary(rng, dims) -> LocalUnitary:
    size = int(np.prod(dims))
    q, r = np.linalg.qr(rng.normal(size=(size, size))
                        + 1j * rng.normal(size=(size, size)))
    return LocalUnitary(dims, q * (np.diag(r) / np.abs(np.diag(r))))


def einsum_apply(state: StateVector, u: LocalUnitary, targets) -> np.ndarray:
    """``u`` on ``targets`` by index contraction over named axes."""
    n = len(state.shape)
    axes = string.ascii_lowercase[:n]
    fresh = string.ascii_uppercase[:len(targets)]
    outs = "".join(fresh)
    ins = "".join(axes[t] for t in targets)
    result = list(axes)
    for letter, t in zip(fresh, targets):
        result[t] = letter
    psi = np.einsum(f"{outs}{ins},{axes}->{''.join(result)}",
                    u.entries.reshape(u.dims + u.dims),
                    state.amps.reshape(state.shape))
    return psi.reshape(-1)


def loop_measure(state: StateVector, target: int, outcome: int):
    """Level weights of ``target`` and the state collapsed on ``outcome``."""
    weights = np.zeros(state.shape[target])
    levels = list(itertools.product(*(range(d) for d in state.shape)))
    for index, config in enumerate(levels):
        weights[config[target]] += abs(state.amps[index]) ** 2
    collapsed = np.zeros_like(state.amps)
    for index, config in enumerate(levels):
        if config[target] == outcome:
            collapsed[index] = state.amps[index] / np.sqrt(weights[outcome])
    return weights, collapsed


def other_shapes(dims, targets):
    """Shapes on which ``targets`` still name the same-sized subsystems."""
    cycled = tuple(d if k in targets else d % 4 + 2 for k, d in enumerate(dims))
    shapes = [dims + (3,)]
    if cycled != dims:
        shapes.append(cycled)
    return shapes


@st.composite
def kernel_cases(draw):
    n = draw(st.integers(1, 5))
    dims = tuple(draw(st.lists(st.integers(2, 4), min_size=n, max_size=n)))
    targets = tuple(draw(st.permutations(range(n)))[:draw(st.integers(1, min(n, 3)))])
    return dims, targets, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=200)
@given(kernel_cases())
def test_apply_local_matches_einsum(case):
    dims, targets, seed = case
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, tuple(dims[t] for t in targets))
    for shape in [dims, dims] + other_shapes(dims, targets):
        state = random_state(rng, shape)
        got = apply_local(state, u, targets)
        assert got.shape == shape
        assert np.max(np.abs(got.amps - einsum_apply(state, u, targets))) < TOL


@settings(max_examples=200)
@given(kernel_cases(), st.data())
def test_measure_subsystem_matches_index_loops(case, data):
    dims, targets, seed = case
    rng = np.random.default_rng(seed)
    target = targets[0]
    for shape in [dims, dims] + other_shapes(dims, targets):
        state = random_state(rng, shape)
        outcome = data.draw(st.integers(0, shape[target] - 1))
        seen = []
        picker = SimpleNamespace(choose=lambda p: seen.append(p) or outcome)
        got_outcome, collapsed = measure_subsystem(state, target, picker)
        weights, expected = loop_measure(state, target, outcome)
        assert got_outcome == outcome
        assert np.max(np.abs(seen[0] - weights / weights.sum())) < TOL
        assert np.max(np.abs(collapsed.amps - expected)) < TOL


@pytest.mark.parametrize("targets", [[2, 0], range(2, -1, -2), np.array([2, 0])])
def test_apply_local_takes_any_integer_sequence(targets):
    rng = np.random.default_rng(3)
    state = random_state(rng, (2, 3, 4))
    u = random_unitary(rng, (4, 2))
    got = apply_local(state, u, targets)
    assert np.max(np.abs(got.amps - einsum_apply(state, u, (2, 0)))) < TOL


@pytest.mark.parametrize("targets, message", [
    ((1, 1), r"duplicate target subsystems \(1, 1\)"),
    ((0, 3), r"target out of range in \(0, 3\) for 3 subsystems"),
    ((-1, 0), r"target out of range in \(-1, 0\) for 3 subsystems"),
    ((1, 0), r"operator dims \(2, 3\) do not match target dims \(3, 2\)"),
])
def test_bad_targets_raise_the_same_message_every_time(targets, message):
    state = random_state(np.random.default_rng(4), (2, 3, 4))
    u = LocalUnitary((2, 3), np.eye(6))
    for _ in range(2):
        with pytest.raises(DimensionError, match=f"^{message}$"):
            apply_local(state, u, targets)
    # a good call on the same shape still works after the failures
    assert apply_local(state, u, (0, 1)).shape == (2, 3, 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_operator_raises_on_every_call(bad):
    state = random_state(np.random.default_rng(5), (2, 3, 4))
    entries = np.eye(12, dtype=complex)
    entries[3, 7] = bad
    u = LocalUnitary((4, 3), entries)
    # the second call reuses the transpose plan of the first; inf times a
    # zero amplitude is nan, which numpy may also warn about
    for _ in range(2):
        with (np.errstate(invalid="ignore"),
              pytest.raises(DimensionError, match="^non-finite amplitude$")):
            apply_local(state, u, (2, 1))
