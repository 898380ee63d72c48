"""Execution of machine programs on a sparse register.

The machine has ``n = s + 3`` two-level positions: the ``s`` memory
slots followed by the three transistor cells.  The register stores only
its support, as two arrays: int64 basis indices and their complex
amplitudes.  Which index bit holds which position is itself part of the
state, the tuple ``bits``: a fresh machine puts position ``q`` at bit
``n - 1 - q``, the digit order of the dense row-major register.

Every gate conserves excitation number, so the support stays as small
as the entanglement of the program allows, whatever ``s`` is, and the
cost of each instruction scales with the support, not with ``2^n``.
LOAD and SAVE are swaps with an empty receiving position, which is the
only unitary move semantics that keeps entanglement with spectator
qubits intact.  A swap of two positions is a relabelling: it exchanges
the two entries of ``bits`` and touches no index and no amplitude.
QET, PHASE and CQET map each entry through the nonzero entries of the
gate on the bits that currently hold the cells, then sum the amplitudes
of equal indices and drop those that are exactly 0 (full transfers are
exact, see ``gates.qet_matrix``, so they leave no remnants).
Unoccupied positions are always ``|0>`` and unentangled, so measuring
one yields 0 with probability one.

Both entry points check an instruction and turn it into a step the same
way (``_checked_step``: ``isa.occupancy_step``, then ``_plan_step``) and
run it with the same kernels, so a broken precondition raises
``QpuRuntimeError`` from one line, in ``_run_step``.
``execute_instruction`` checks one instruction against the state's
occupancy and returns a new ``MachineState`` and the measured bit, if
any.  ``run_program`` runs the program's ``shot_plan``: one walk over
the instructions checks their occupancy, resolves the slot moves and
builds the gates, once per program, since which bit holds which
position never depends on a measured bit.  The walk ends at the first
broken precondition with a fault step.  A shot then runs only the
gates, the ``INIT 1`` flips and the measurements, on local arrays, and
raises at the fault step, if there is one.

An int64 index holds at most 63 positions, so ``s`` is at most 60.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, MeasurementError, QpuRuntimeError
from .gates import cqet_matrix, phase_matrix, qet_matrix
from .isa import Instruction, QuantumProgram, occupancy_step
from .statevector import (NORM_TOL, LocalUnitary, RandomSource, StateVector,
                          finite_amps)

MAX_POSITIONS = 63


@dataclass(frozen=True, eq=False)
class MachineState:
    """Sparse register plus occupancy bookkeeping.

    ``indices`` holds distinct basis indices and ``amps`` their nonzero
    amplitudes; every index absent from ``indices`` has amplitude 0.
    ``bits[q]`` is the index bit that holds position ``q``.
    """

    indices: np.ndarray
    amps: np.ndarray
    bits: tuple[int, ...]
    memory_occupied: tuple[bool, ...]
    cell_occupied: tuple[bool, bool, bool]

    @property
    def s(self) -> int:
        return len(self.memory_occupied)

    @property
    def register(self) -> StateVector:
        """The dense ``2^(s+3)``-amplitude register, built on each call."""
        n = self.s + 3
        dense = np.zeros_like(self.indices)
        for position, bit in enumerate(self.bits):
            dense |= ((self.indices >> bit) & 1) << (n - 1 - position)
        amps = np.zeros(1 << n, dtype=complex)
        amps[dense] = self.amps
        return StateVector((2,) * n, amps)


@lru_cache(maxsize=64)
def bit_layout(s: int) -> tuple[int, ...]:
    """A fresh machine's ``bits`` over ``s`` slots; a register too wide raises."""
    n = s + 3
    if n > MAX_POSITIONS:
        raise DimensionError(
            f"a register of {n} positions exceeds the {MAX_POSITIONS} "
            f"an int64 basis index can hold")
    return tuple(range(n - 1, -1, -1))


# The register of every fresh machine, shared: no kernel writes in place.
_EMPTY_INDICES = np.zeros(1, dtype=np.int64)
_EMPTY_AMPS = np.ones(1, dtype=complex)
_EMPTY_INDICES.flags.writeable = _EMPTY_AMPS.flags.writeable = False


def fresh_machine(s: int) -> MachineState:
    return MachineState(_EMPTY_INDICES, _EMPTY_AMPS, bit_layout(s),
                        (False,) * s, (False, False, False))


@lru_cache(maxsize=1024)
def _cell_layout(cell_bits: tuple[int, ...]):
    """How a gate on the cells held by ``cell_bits`` reads and writes an index.

    Returns the shifts and place values that gather the cell bits into
    the gate's local index (``cell_bits[0]`` is its first digit), the
    mask that clears them, and the cell bits that each gate row sets.
    """
    arity = len(cell_bits)
    place = [1 << (arity - 1 - digit) for digit in range(arity)]
    offsets = [sum(1 << bit for bit, value in zip(cell_bits, place)
                   if row & value) for row in range(1 << arity)]
    clear = ~sum(1 << bit for bit in cell_bits)
    return (np.array(cell_bits, dtype=np.int64)[:, None],
            np.array(place, dtype=np.int64), clear,
            np.array(offsets, dtype=np.int64)[:, None])


def _apply_to_cells(indices: np.ndarray, amps: np.ndarray, gate: LocalUnitary,
                    cell_bits: tuple[int, ...]):
    """Apply a gate on the cells held by ``cell_bits`` (its first digit first).

    Returns the new indices and amplitudes.
    """
    shifts, place, clear, offsets = _cell_layout(cell_bits)
    local = place @ ((indices >> shifts) & 1)
    # column ``local`` of the gate maps an entry to the rows ``offsets``
    products = gate.entries[:, local] * amps
    targets = (indices & clear) + offsets
    nonzero = products != 0
    support, slot = np.unique(targets[nonzero], return_inverse=True)
    summed = np.zeros(len(support), dtype=complex)
    np.add.at(summed, slot, products[nonzero])
    keep = summed != 0
    return support[keep], finite_amps(summed[keep])


def _measure(indices: np.ndarray, amps: np.ndarray, bit: int, position: int,
             rng: RandomSource) -> tuple[np.ndarray, np.ndarray, int]:
    """Born-rule measurement of one position, then reset it to ``|0>``."""
    ones = ((indices >> bit) & 1).astype(bool)
    zeros = ~ones
    probabilities = np.abs(amps) ** 2
    # Python floats: the same doubles as numpy scalars, at less cost
    w0, w1 = float(probabilities[zeros].sum()), float(probabilities[ones].sum())
    total = w0 + w1
    if total < NORM_TOL:
        raise MeasurementError(
            f"state norm {total:.3e} too small to measure subsystem {position}")
    outcome = rng.choose((w0 / total, w1 / total))
    kept = ones if outcome else zeros
    # classical-conditional flip back to |0> so the slot can be reused
    return (indices[kept] ^ (outcome << bit),
            finite_amps(amps[kept] / math.sqrt(w1 if outcome else w0)), outcome)


# The kinds of step a shot plan holds (see ``shot_plan``).
_GATE, _FLIP, _MEASURE, _FAULT = range(4)


def _plan_step(instr: Instruction, s: int, bits: list[int]):
    """What the kernels must do for one instruction whose preconditions hold.

    A slot move swaps two entries of ``bits`` in place and, like
    ``INIT … 0``, returns None: it leaves the register as it is.
    Otherwise returns ``(_FLIP, mask, None)``, ``(_MEASURE, bit, slot)``
    or ``(_GATE, gate, cell bits)``.  Memory slot ``m<k>`` is position
    ``k``, cell ``c<j>`` position ``s + j``.
    """
    op = instr.opcode
    if op == "LOAD" or op == "SAVE":
        slot, cell = instr.memory_addr, s + instr.cell
        bits[slot], bits[cell] = bits[cell], bits[slot]
        return None
    if op == "INIT":
        if instr.init_value == 1:
            return _FLIP, 1 << bits[instr.memory_addr], None
        return None
    if op == "MEASURE":
        return _MEASURE, bits[instr.memory_addr], instr.memory_addr
    if op == "CQET":
        return _GATE, cqet_matrix(), tuple(bits[s:])
    gate = (qet_matrix(instr.theta) if op == "QET"
            else phase_matrix(instr.theta, instr.phi))
    return _GATE, gate, tuple(bits[s + 1:])


def _checked_step(instr: Instruction, index: int, s: int, mem: list[bool],
                  cells: list[bool], bits: list[int]):
    """The step of instruction ``index``, after checking its preconditions.

    ``mem``, ``cells`` and ``bits`` are updated in place.  When a
    precondition is broken the step is ``(_FAULT, index, (opcode, the
    first broken condition))``, which ``_run_step`` raises.
    """
    problems = occupancy_step(instr, s, mem, cells)
    if problems:
        return _FAULT, index, (instr.opcode, problems[0])
    return _plan_step(instr, s, bits)


def _run_step(step, indices: np.ndarray, amps: np.ndarray, rng: RandomSource):
    """Run one step of a shot plan on the register.

    Returns the new indices and amplitudes and the measured bit (None
    unless the step is a measurement); a fault step raises its
    ``QpuRuntimeError``.
    """
    kind, first, second = step
    if kind == _GATE:
        indices, amps = _apply_to_cells(indices, amps, first, second)
        return indices, amps, None
    if kind == _FLIP:
        return indices ^ first, amps, None
    if kind == _FAULT:
        raise QpuRuntimeError(first, *second)
    return _measure(indices, amps, first, second, rng)


def shot_plan(program: QuantumProgram) -> tuple:
    """The steps every shot of ``program`` runs, built on the first call.

    One walk over the instructions, from a fresh machine's occupancy and
    bit layout, so a register too wide for the machine is refused first.
    Which bit holds which position never depends on a measured bit, so
    the walk resolves every slot move, and each gate's matrix is built
    here once.  At the first broken precondition the plan gets its fault
    step and the walk stops.  The plan is kept on the program, so it
    lives as long as the program and no longer.
    """
    plan = vars(program).get("_shot_plan")
    if plan is None:
        s = program.s
        bits = list(bit_layout(s))
        mem, cells = [False] * s, [False] * 3
        # a list, not tuple() of a generator: that allocates ten slots and
        # shrinks them, and the shrunk tuples pile up in CPython's per-size
        # free lists (6 % more peak RSS on the service_mix benchmark)
        steps = []
        for index, instr in enumerate(program.instructions):
            step = _checked_step(instr, index, s, mem, cells, bits)
            if step is not None:
                steps.append(step)
                if step[0] == _FAULT:
                    break
        plan = vars(program)["_shot_plan"] = tuple(steps)
    return plan


def execute_instruction(machine: MachineState, instr: Instruction,
                        rng: RandomSource,
                        index: int) -> tuple[MachineState, int | None]:
    """Run one instruction, returning the new machine and the measured bit or None."""
    mem = list(machine.memory_occupied)
    cells = list(machine.cell_occupied)
    bits = list(machine.bits)
    indices, amps, outcome = machine.indices, machine.amps, None
    step = _checked_step(instr, index, machine.s, mem, cells, bits)
    if step is not None:
        indices, amps, outcome = _run_step(step, indices, amps, rng)
    new = MachineState(indices, amps, tuple(bits), tuple(mem), tuple(cells))
    return new, outcome


def run_program(program: QuantumProgram,
                rng: RandomSource) -> list[tuple[int, int]]:
    """Execute all instructions in order on a fresh machine.

    Returns the classical results in measurement order.  The program is
    checked and compiled to its ``shot_plan`` once, not per shot; the
    steps before its first broken precondition run, and then its fault
    step raises with the offending instruction index, as stepping
    ``execute_instruction`` would.
    """
    indices, amps = _EMPTY_INDICES, _EMPTY_AMPS
    results = []
    for step in shot_plan(program):
        indices, amps, outcome = _run_step(step, indices, amps, rng)
        if outcome is not None:
            results.append((step[2], outcome))
    return results
