"""Multilevel simulation of the three-cavity conditional excitation transfer.

The composite system, in ket order: cavity-a photon mode (2), memory-a
atomic level (4, levels 0..3), cavity-b photon mode (2), gate-dot level
(3, levels 1..3), cavity-c photon mode (2), memory-c level (4).  Total
dimension 384.

The stored qubit starts with its excitation marker on level 3 of one of
the two memories (ground storage is level 1); level 2 is the transient
readout level.  Three elementary operations move excitations around:

* ``R`` - cavity-assisted transition coupling an atomic level pair to
  the photon number of its own cavity (emission drops the atom and adds
  a photon),
* ``U`` - a direct pulse swapping two atomic levels,
* ``Q`` - photon exchange between two cavities.

The eleven-step sequence below routes the stored excitation through the
gate dot: with the dot on level 1 the excitation ends up in the other
memory, with the dot on level 3 it returns to where it started.  Under
the ``ideal`` convention every operation is a plain permutation of
configurations; under the ``physical`` convention each swapped
component picks up the factor ``i`` of a half-period transfer.

The dense route makes one kernel call per step: each step's ops are
fused into one local unitary on the subsystems they touch, built once
per convention.  The term trace and the branch phases depend on the
convention alone too, so each is built once per convention and shared
read-only; every comparison still runs a fresh dense trajectory.

One known wart of the sequence itself: the final pulse on memory a also
hits the preserved branch's excitation, moving it from level 3 to
level 2.  The ground/excited content is unaffected, so the conditional
transfer still holds on the logical frame.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import ProtocolError
from .gates import SWAP_FACTOR, cqet_matrix
from .pcg64 import RandomSource
from .statevector import LocalUnitary, StateVector, apply_local

PROTOCOL_DIMS = (2, 4, 2, 3, 2, 4)
PHOTON_A, MEM_A, PHOTON_B, DOT, PHOTON_C, MEM_C = range(6)

_CAVITY_PHOTON = {"a": PHOTON_A, "b": PHOTON_B, "c": PHOTON_C}
_CAVITY_ATOM = {"a": MEM_A, "b": DOT, "c": MEM_C}
# first level number and dimension of each atomic subsystem
_ATOM_LEVELS = {"a": (0, 4), "b": (1, 3), "c": (0, 4)}

# the atomic levels each R and each U couples, on every cavity
LEVELS = {"R": (1, 2), "U": (2, 3)}

# starting configurations of the four coefficient lineages, as level tuples
# (photon a, memory a, photon b, dot, photon c, memory c)
LINEAGES = ("alpha", "beta", "gamma", "delta")
START_CONFIGS = {
    "alpha": (0, 3, 0, 1, 0, 1),
    "beta": (0, 1, 0, 1, 0, 3),
    "gamma": (0, 3, 0, 3, 0, 1),
    "delta": (0, 1, 0, 3, 0, 3),
}
# each lineage as (configuration, phase) before the first step
_START_TERMS = {name: (config, complex(1.0))
                for name, config in START_CONFIGS.items()}


# at most one entry per configuration: a bad level raises and is not cached
@functools.lru_cache(maxsize=math.prod(PROTOCOL_DIMS))
def config_index(config: tuple) -> int:
    """Flat index of a level tuple (dot levels run 1..3)."""
    pa, ma, pb, dot, pc, mc = config
    return int(np.ravel_multi_index((pa, ma, pb, dot - 1, pc, mc),
                                    PROTOCOL_DIMS))


@dataclass(frozen=True)
class ProtocolInput:
    """Coefficients of the four-term input state."""

    alpha: complex
    beta: complex
    gamma: complex
    delta: complex

    def __post_init__(self):
        total = sum(abs(c) ** 2 for c in self.coefficients)
        if abs(total - 1.0) > 1e-9:
            raise ProtocolError(f"input norm {total} is not 1 within 1e-9")

    @property
    def coefficients(self) -> tuple[complex, complex, complex, complex]:
        return (complex(self.alpha), complex(self.beta),
                complex(self.gamma), complex(self.delta))


@dataclass(frozen=True)
class ElementaryOp:
    """One R, U or Q factor of a protocol step.

    ``system`` is a cavity name for R/U or an ordered cavity pair such
    as ``"ab"`` for Q.  R and U couple the atomic levels ``LEVELS``
    names for their kind (emission drops to the smaller level).
    """

    kind: str
    system: str

    def __post_init__(self):
        if self.kind in ("R", "U"):
            if self.system not in _CAVITY_ATOM:
                raise ProtocolError(f"unknown cavity {self.system!r}")
        elif self.kind == "Q":
            if (len(self.system) != 2
                    or any(c not in _CAVITY_PHOTON for c in self.system)
                    or self.system[0] == self.system[1]):
                raise ProtocolError(f"Q needs two distinct cavities, got "
                                    f"{self.system!r}")
        else:
            raise ProtocolError(f"unknown operation kind {self.kind!r}")

    @property
    def targets(self) -> tuple[int, ...]:
        if self.kind == "R":
            return (_CAVITY_PHOTON[self.system], _CAVITY_ATOM[self.system])
        if self.kind == "U":
            return (_CAVITY_ATOM[self.system],)
        return tuple(_CAVITY_PHOTON[c] for c in self.system)


def _swap_factor(convention: str) -> complex:
    if convention not in SWAP_FACTOR:
        raise ProtocolError(f"unknown convention {convention!r}")
    return SWAP_FACTOR[convention]


def elementary_unitary(op: ElementaryOp, convention: str) -> LocalUnitary:
    """Permutation (ideal) or i-phased permutation (physical) of the basis."""
    factor = _swap_factor(convention)
    if op.kind == "Q":
        # |10>  <->  |01> on the two photon modes
        dims, i, j = (2, 2), 1, 2
    else:
        first, dim = _ATOM_LEVELS[op.system]
        lo, hi = (level - first for level in LEVELS[op.kind])
        if op.kind == "U":
            dims, i, j = (dim,), lo, hi
        else:
            # photon-number-0 x upper level  <->  photon-number-1 x lower level;
            # the second rung would need two photons and stays put
            dims, i, j = (2, dim), hi, dim + lo
    m = np.eye(math.prod(dims), dtype=complex)
    m[i, i] = m[j, j] = 0
    m[i, j] = m[j, i] = factor
    return LocalUnitary(dims, m)


@dataclass(frozen=True)
class ProtocolStep:
    """Named composite step; ``ops`` are listed in application order."""

    name: str
    ops: tuple[ElementaryOp, ...]


# The fixed eleven-step conditional-transfer sequence.
PROTOCOL_SEQUENCE = (
    ProtocolStep("read out memory a", (
        ElementaryOp("U", "a"), ElementaryOp("R", "a"))),
    ProtocolStep("shift photon a to b", (ElementaryOp("Q", "ab"),)),
    ProtocolStep("dot absorbs cavity-b photon", (ElementaryOp("R", "b"),)),
    ProtocolStep("park dot excitation on level 3", (ElementaryOp("U", "b"),)),
    ProtocolStep("return photon to memory a", (
        ElementaryOp("Q", "ba"), ElementaryOp("R", "a"), ElementaryOp("U", "a"))),
    ProtocolStep("read out memory c into cavity b", (
        ElementaryOp("U", "c"), ElementaryOp("R", "c"), ElementaryOp("Q", "cb"))),
    ProtocolStep("swap dot parking levels", (ElementaryOp("U", "b"),)),
    ProtocolStep("dot emits into cavity b", (ElementaryOp("R", "b"),)),
    ProtocolStep("store cavity-b photon in memory c", (
        ElementaryOp("Q", "cb"), ElementaryOp("R", "c"), ElementaryOp("U", "c"))),
    ProtocolStep("dot releases parked excitation", (ElementaryOp("R", "b"),)),
    ProtocolStep("store remaining photon in memory a", (
        ElementaryOp("Q", "ab"), ElementaryOp("R", "a"), ElementaryOp("U", "a"))),
)


def initial_state(inp: ProtocolInput) -> StateVector:
    return assemble_state(_START_TERMS, inp)


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    """Full trajectory of one protocol run."""

    intermediates: tuple[StateVector, ...]

    @property
    def final(self) -> StateVector:
        return self.intermediates[-1]


@functools.cache
def _step_unitaries(convention: str):
    """Each step under ``convention`` as one (unitary, targets) pair, built once.

    The targets are the union of the step's op targets in first-use
    order.  The step's ops are applied, through the dense kernel, to
    the identity of that union's space, carried as one extra column
    subsystem.  Every op is a phased permutation with entries in
    {0, +-1, +-i}, so the product is exact.
    """
    steps = []
    for step in PROTOCOL_SEQUENCE:
        union = tuple(dict.fromkeys(t for op in step.ops for t in op.targets))
        dims = tuple(PROTOCOL_DIMS[t] for t in union)
        block = math.prod(dims)
        columns = StateVector(dims + (block,),
                              np.eye(block, dtype=complex).reshape(-1))
        for op in step.ops:
            columns = apply_local(columns, elementary_unitary(op, convention),
                                  [union.index(t) for t in op.targets])
        entries = columns.amps.reshape(block, block)
        # shared by every later run of this convention
        entries.setflags(write=False)
        steps.append((LocalUnitary(dims, entries), union))
    return tuple(steps)


def run_protocol(inp: ProtocolInput,
                 convention: str = "ideal") -> ProtocolResult:
    """Apply the full sequence to the four-term input state."""
    state = initial_state(inp)
    intermediates = []
    for unitary, targets in _step_unitaries(convention):
        state = apply_local(state, unitary, targets)
        intermediates.append(state)
    return ProtocolResult(tuple(intermediates))


# -- term-level shadow bookkeeping ------------------------------------------
#
# Each lineage stays a single product configuration throughout, so the
# trajectory can also be derived by rewriting level tuples directly.  This
# lightweight second route backs the per-step fidelity report and the tests.
# It reads each cavity's (photon, atom) positions off the ket order on its
# own, never through ``ElementaryOp.targets`` or ``elementary_unitary``: a
# wrong target map in the dense route then shows up as a disagreement
# between the two routes instead of being shared by both.

_KET_POSITIONS = {"a": (0, 1), "b": (2, 3), "c": (4, 5)}


def _apply_op_to_config(op: ElementaryOp, config, phase, factor):
    photon, atom = _KET_POSITIONS[op.system[0]]
    if op.kind == "Q":
        where = (photon, _KET_POSITIONS[op.system[1]][0])
        pair = ((1, 0), (0, 1))
    else:
        lo, hi = LEVELS[op.kind]
        if op.kind == "U":
            where, pair = (atom,), ((lo,), (hi,))
        else:
            where, pair = (photon, atom), ((0, hi), (1, lo))
    local = tuple(config[k] for k in where)
    if local not in pair:
        return config, phase
    new = list(config)
    for k, level in zip(where, pair[1] if local == pair[0] else pair[0]):
        new[k] = level
    return tuple(new), phase * factor


@functools.cache
def step_term_trace(convention: str = "ideal"):
    """Per-step (configuration, phase) of each lineage, by term rewriting.

    Returns one read-only ``{lineage: (config, phase)}`` mapping per
    step, in a tuple built once per convention and shared by every
    caller.  An unknown convention raises on every call: an exception
    is never cached.
    """
    factor = _swap_factor(convention)
    terms = _START_TERMS
    trace = []
    for step in PROTOCOL_SEQUENCE:
        for op in step.ops:
            terms = {name: _apply_op_to_config(op, config, phase, factor)
                     for name, (config, phase) in terms.items()}
        trace.append(MappingProxyType(terms))
    return tuple(trace)


def assemble_state(terms, inp: ProtocolInput) -> StateVector:
    """State built from per-lineage configurations, phases and coefficients."""
    amps = np.zeros(math.prod(PROTOCOL_DIMS), dtype=complex)
    for lineage, coeff in zip(LINEAGES, inp.coefficients):
        config, phase = terms[lineage]
        amps[config_index(config)] += coeff * phase
    return StateVector(PROTOCOL_DIMS, amps)


# -- comparison against the three-qubit gate matrix --------------------------


def _frame_index(config) -> int:
    """A configuration's frame index: bits (control, bit a, bit c), high first."""
    pa, ma, pb, dot, pc, mc = config
    if pa or pb or pc:
        raise ProtocolError(f"photon still in flight in {config}")
    if dot == 2:
        raise ProtocolError(f"gate dot on transient level in {config}")
    control = 0 if dot == 1 else 1
    bit_a = 1 if ma >= 2 else 0
    bit_c = 1 if mc >= 2 else 0
    if bit_a + bit_c != 1:
        raise ProtocolError(f"not exactly one stored excitation in {config}")
    return (control << 2) | (bit_a << 1) | bit_c


def frame_vector(state: StateVector) -> np.ndarray:
    """Project a protocol state onto the 8-dim logical frame."""
    out = np.zeros(8, dtype=complex)
    hits = np.nonzero(np.abs(state.amps) > 1e-12)[0]
    configs = np.transpose(np.unravel_index(hits, state.shape)).tolist()
    for index, levels in zip(hits, configs):
        levels[DOT] += 1
        out[_frame_index(tuple(levels))] += state.amps[index]
    return out


def conditional_transfer_matrix() -> np.ndarray:
    """Phase-free conditional swap: the transfer pattern with no i factors."""
    m = np.eye(8, dtype=complex)
    m[1, 1] = m[2, 2] = 0
    m[1, 2] = m[2, 1] = 1
    return m


@dataclass(frozen=True)
class CqetComparison:
    """Protocol-versus-matrix comparison over sampled inputs.

    ``transfer_infidelity`` is measured against the phase-free
    conditional swap, ``matrix_infidelity`` against the transistor gate
    matrix with its ``i`` factors; both are worst cases over the
    samples, already insensitive to a global phase.  ``branch_phases``
    holds the per-lineage phase relative to the phase-free target.
    """

    convention: str
    samples: int
    transfer_infidelity: float
    matrix_infidelity: float
    branch_phases: dict


@functools.cache
def _branch_phases(convention: str) -> tuple[tuple[str, complex], ...]:
    """Each lineage's phase relative to the phase-free target, built once.

    Each lineage stays one configuration and ends on its own frame
    index, so one run of the equal-weight input carries all four
    phases.  ``run_protocol`` and ``frame_vector`` are read from the
    module at call time, so a wrapper installed there sees this run.
    """
    weight = 0.5
    plain = conditional_transfer_matrix()
    got = frame_vector(run_protocol(ProtocolInput(*[weight] * 4),
                                    convention).final)
    phases = []
    for lineage in LINEAGES:
        expected = weight * plain[:, _frame_index(START_CONFIGS[lineage])]
        target = int(np.argmax(np.abs(expected)))
        phases.append((lineage, complex(got[target] / expected[target])))
    return tuple(phases)


def verify_against_cqet(samples: int, convention: str = "ideal",
                        seed: int = 0) -> CqetComparison:
    """Run random inputs through the protocol and compare on the frame.

    The inputs are normalised complex Gaussians drawn from
    ``RandomSource(seed)``: four real parts, then four imaginary parts.
    """
    if samples < 1:
        raise ProtocolError("samples must be >= 1")
    rng = RandomSource(seed)
    plain = conditional_transfer_matrix()
    gate = cqet_matrix().entries
    # each lineage starts as one configuration on its own frame index
    starts = [_frame_index(START_CONFIGS[lineage]) for lineage in LINEAGES]
    worst_plain = 0.0
    worst_gate = 0.0
    for _ in range(samples):
        raw = np.array([rng.normal() for _ in range(8)])
        raw = raw[:4] + 1j * raw[4:]
        raw /= math.sqrt(float(np.sum(np.abs(raw) ** 2)))
        inp = ProtocolInput(*raw)
        frame_in = np.zeros(8, dtype=complex)
        frame_in[starts] = inp.coefficients
        frame_out = frame_vector(run_protocol(inp, convention).final)
        worst_plain = max(worst_plain,
                          1.0 - abs(np.vdot(plain @ frame_in, frame_out)) ** 2)
        worst_gate = max(worst_gate,
                         1.0 - abs(np.vdot(gate @ frame_in, frame_out)) ** 2)
    return CqetComparison(convention, samples, float(worst_plain),
                          float(worst_gate), dict(_branch_phases(convention)))
