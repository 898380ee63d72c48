"""Dense complex state vectors over composite discrete systems.

Subsystems may have different dimensions (qubits, three-level dots,
four-level memories).  A state's shape is the plain tuple of its
per-subsystem dimensions.  Amplitudes are stored flat in row-major
order, so the first listed subsystem is the most significant index
digit; NumPy's ``ravel_multi_index`` and ``unravel_index`` convert
between level tuples and flat indices.
All operations are value-in, value-out.  The only shared state is the
cache of transpose plans: immutable tuples keyed by a shape and its
target subsystems, so a plan built once serves every later call on the
same positions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, MeasurementError
from .pcg64 import Pcg64

NORM_TOL = 1e-9
ALGEBRA_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class StateVector:
    """Amplitudes of a composite system.

    ``shape`` is the ordered tuple of per-subsystem dimensions.  Only
    the shape and the finiteness of the amplitudes are checked, not the
    norm, so a state can also carry the columns of an operator.
    """

    shape: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self):
        shape = tuple(map(int, self.shape))
        if not shape:
            raise DimensionError("a composite system needs at least one subsystem")
        if min(shape) < 2:
            raise DimensionError(f"subsystem dimensions must be >= 2, got {shape}")
        amps = np.asarray(self.amps, dtype=complex)
        dim = math.prod(shape)
        if amps.shape != (dim,):
            raise DimensionError(
                f"amplitude array of length {amps.shape} does not match "
                f"shape of dimension {dim}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "amps", finite_amps(amps))


@dataclass(frozen=True, eq=False)
class LocalUnitary:
    """Square operator acting on an ordered subset of subsystems."""

    dims: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        entries = np.asarray(self.entries, dtype=complex)
        block = math.prod(self.dims)
        if entries.shape != (block, block):
            raise DimensionError(
                f"matrix shape {entries.shape} does not match dims {self.dims}")
        object.__setattr__(self, "entries", entries)


class RandomSource:
    """Deterministic sampler; a fixed seed fixes the whole sequence.

    The uniforms are those of ``numpy.random.default_rng(seed)``; the
    outcome draws and the normal deviates both read them.  A single
    instance must not be shared between threads.
    """

    def __init__(self, seed: int = 0):
        self._gen = Pcg64(int(seed))

    def choose(self, probabilities) -> int:
        """Sample an index by inverse CDF over one uniform draw."""
        r = self._gen.random()
        acc = 0.0
        for k, p in enumerate(probabilities):
            acc += p
            if r < acc:
                return k
        # the sum rounded below r: the last outcome that can happen
        return max((k for k, p in enumerate(probabilities) if p > 0), default=0)

    def normal(self) -> float:
        """A standard normal deviate by Box-Muller over two uniform draws.

        The radius reads ``1 - u``, in ``(0, 1]``, so a zero draw is safe.
        """
        radius = math.sqrt(-2.0 * math.log(1.0 - self._gen.random()))
        return radius * math.cos(2.0 * math.pi * self._gen.random())


@functools.lru_cache(maxsize=256)
def _plan(dims: tuple[int, ...], targets: tuple[int, ...]):
    """How to bring ``targets`` of a ``dims``-shaped state to the front.

    Returns the forward transpose order (the targets in the given
    order, then the other subsystems in theirs), its inverse, the moved
    shape and the targets' dims.  Bad targets raise on every call: an
    exception is never cached.
    """
    n = len(dims)
    if len(set(targets)) != len(targets):
        raise DimensionError(f"duplicate target subsystems {targets}")
    if any(t < 0 or t >= n for t in targets):
        raise DimensionError(f"target out of range in {targets} for {n} subsystems")
    order = targets + tuple(k for k in range(n) if k not in targets)
    inverse = tuple(order.index(k) for k in range(n))
    return (order, inverse, tuple(dims[k] for k in order),
            tuple(dims[t] for t in targets))


def finite_amps(amps: np.ndarray) -> np.ndarray:
    """``amps``, once every entry is checked to be finite."""
    if not np.isfinite(amps).all():
        raise DimensionError("non-finite amplitude")
    return amps


def _kernel_result(shape: tuple[int, ...], amps: np.ndarray) -> StateVector:
    """A kernel's output on an already checked shape: only finiteness is new."""
    state = object.__new__(StateVector)
    object.__setattr__(state, "shape", shape)
    object.__setattr__(state, "amps", finite_amps(amps))
    return state


def apply_local(state: StateVector, u: LocalUnitary, targets) -> StateVector:
    """Apply ``u`` to the listed subsystems, identity elsewhere."""
    order, inverse, moved, actual = _plan(state.shape,
                                          tuple(int(t) for t in targets))
    if actual != u.dims:
        raise DimensionError(
            f"operator dims {u.dims} do not match target dims {actual}")
    flat = state.amps.reshape(state.shape).transpose(order).reshape(
        u.entries.shape[0], -1)
    psi = (u.entries @ flat).reshape(moved).transpose(inverse)
    return _kernel_result(state.shape, psi.reshape(-1))


def measure_subsystem(state: StateVector, target: int,
                      rng: RandomSource) -> tuple[int, StateVector]:
    """Born-rule measurement of one subsystem.

    Returns the sampled level and the renormalized post-measurement
    state.  A state with total probability below ``NORM_TOL`` is an
    error rather than being silently rescaled.
    """
    dims = state.shape
    if not 0 <= target < len(dims):
        raise DimensionError(f"no subsystem {target} in shape {dims}")
    order, inverse, moved, _ = _plan(dims, (int(target),))
    flat = state.amps.reshape(dims).transpose(order).reshape(dims[target], -1)
    weights = np.sum(np.abs(flat) ** 2, axis=1)
    total = float(weights.sum())
    if total < NORM_TOL:
        raise MeasurementError(
            f"state norm {total:.3e} too small to measure subsystem {target}")
    outcome = rng.choose(weights / total)
    collapsed = np.zeros_like(flat)
    collapsed[outcome] = flat[outcome] / np.sqrt(weights[outcome])
    collapsed = collapsed.reshape(moved).transpose(inverse)
    return outcome, _kernel_result(state.shape, collapsed.reshape(-1))


def fidelity(a: StateVector, b: StateVector) -> float:
    """Squared overlap of two states of identical shape."""
    if a.shape != b.shape:
        raise DimensionError(
            f"shape mismatch: {a.shape} vs {b.shape}")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


def is_unitary(u: LocalUnitary) -> bool:
    m = u.entries
    gram = m.conj().T @ m
    return bool(np.max(np.abs(gram - np.eye(m.shape[0]))) <= ALGEBRA_TOL)
