"""Execution of machine programs on a sparse register.

The machine has ``n = s + 3`` two-level positions: the ``s`` memory
slots followed by the three transistor cells.  The register stores only
its support, as two arrays: int64 basis indices and their complex
amplitudes.  Position ``q`` is bit ``n - 1 - q`` of an index, the digit
order of the dense row-major register, so the three cells are the three
lowest bits.

Every gate conserves excitation number, so the support stays as small
as the entanglement of the program allows, whatever ``s`` is, and the
cost of each instruction scales with the support, not with ``2^n``.
LOAD and SAVE are swaps with an empty receiving position, which is the
only unitary move semantics that keeps entanglement with spectator
qubits intact; on the support each is a swap of two bits in every index,
and no amplitude moves.  QET, PHASE and CQET map each entry through the
nonzero entries of the gate on the cell bits, then sum the amplitudes
of equal indices and drop those that are exactly 0 (full transfers are
exact, see ``gates.qet_matrix``, so they leave no remnants).  Unoccupied
positions are always ``|0>`` and unentangled, so measuring one yields 0
with probability one.

An int64 index holds at most 63 positions, so ``s`` is at most 60.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, MeasurementError, QpuRuntimeError
from .gates import cqet_matrix, phase_matrix, qet_matrix
from .isa import Instruction, QuantumProgram, occupancy_step
from .statevector import (NORM_TOL, LocalUnitary, RandomSource, StateVector,
                          SubsystemShape)

MAX_POSITIONS = 63


@dataclass(frozen=True, eq=False)
class MachineState:
    """Sparse register plus occupancy bookkeeping and accumulated results.

    ``indices`` holds distinct basis indices and ``amps`` their nonzero
    amplitudes; every index absent from ``indices`` has amplitude 0.
    """

    indices: np.ndarray
    amps: np.ndarray
    memory_occupied: tuple[bool, ...]
    cell_occupied: tuple[bool, bool, bool]
    classical_results: tuple[tuple[int, int], ...]

    @property
    def s(self) -> int:
        return len(self.memory_occupied)

    @property
    def register(self) -> StateVector:
        """The dense ``2^(s+3)``-amplitude register, built on each call."""
        n = self.s + 3
        amps = np.zeros(1 << n, dtype=complex)
        amps[self.indices] = self.amps
        return StateVector(SubsystemShape((2,) * n), amps)


@dataclass(frozen=True)
class TraceRecord:
    """What one executed instruction did to the machine."""

    index: int
    opcode: str
    instruction: Instruction
    memory_occupied: tuple[bool, ...]
    cell_occupied: tuple[bool, bool, bool]
    outcome: int | None = None


ExecutionTrace = tuple[TraceRecord, ...]


def fresh_machine(s: int) -> MachineState:
    if s + 3 > MAX_POSITIONS:
        raise DimensionError(
            f"a register of {s + 3} positions exceeds the {MAX_POSITIONS} "
            f"an int64 basis index can hold")
    return MachineState(np.zeros(1, dtype=np.int64), np.ones(1, dtype=complex),
                        (False,) * s, (False, False, False), ())


def _finite(amps: np.ndarray) -> np.ndarray:
    if not np.isfinite(amps).all():
        raise DimensionError("non-finite amplitude")
    return amps


def _swap_bits(indices: np.ndarray, a: int, b: int) -> np.ndarray:
    """Exchange bits ``a`` and ``b`` of every index."""
    differ = ((indices >> a) ^ (indices >> b)) & 1
    return indices ^ ((differ << a) | (differ << b))


def _apply_to_cells(indices: np.ndarray, amps: np.ndarray,
                    gate: LocalUnitary) -> tuple[np.ndarray, np.ndarray]:
    """Apply a gate on the lowest ``gate.arity`` bits (the last cells)."""
    width = gate.entries.shape[0]
    local = indices & (width - 1)
    # column ``local`` of the gate maps an entry to the rows ``base + row``
    products = gate.entries[:, local] * amps
    targets = (indices - local) + np.arange(width, dtype=np.int64)[:, None]
    nonzero = products != 0
    support, slot = np.unique(targets[nonzero], return_inverse=True)
    summed = np.zeros(len(support), dtype=complex)
    np.add.at(summed, slot, products[nonzero])
    keep = summed != 0
    return support[keep], _finite(summed[keep])


def _measure(indices: np.ndarray, amps: np.ndarray, bit: int, position: int,
             rng: RandomSource) -> tuple[int, np.ndarray, np.ndarray]:
    """Born-rule measurement of one position, then reset it to ``|0>``."""
    ones = ((indices >> bit) & 1).astype(bool)
    probabilities = np.abs(amps) ** 2
    weights = np.array([probabilities[~ones].sum(), probabilities[ones].sum()])
    total = float(weights.sum())
    if total < NORM_TOL:
        raise MeasurementError(
            f"state norm {total:.3e} too small to measure subsystem {position}")
    outcome = rng.choose(weights / total)
    kept = ones if outcome else ~ones
    # classical-conditional flip back to |0> so the slot can be reused
    return (outcome, indices[kept] ^ (outcome << bit),
            _finite(amps[kept] / np.sqrt(weights[outcome])))


def execute_instruction(machine: MachineState, instr: Instruction,
                        rng: RandomSource,
                        index: int = 0) -> tuple[MachineState, TraceRecord]:
    """Run one instruction, returning the new machine and a trace record."""
    op = instr.opcode
    s = machine.s
    mem = list(machine.memory_occupied)
    cells = list(machine.cell_occupied)
    problems = occupancy_step(instr, s, mem, cells)
    if problems:
        raise QpuRuntimeError(index, op, problems[0])
    indices, amps = machine.indices, machine.amps
    results = machine.classical_results
    outcome = None

    # memory slot m<k> is bit s + 2 - k, cell c<j> is bit 2 - j
    if op == "INIT":
        if instr.init_value == 1:
            indices = indices ^ (1 << (s + 2 - instr.memory_addr))
    elif op in ("LOAD", "SAVE"):
        indices = _swap_bits(indices, s + 2 - instr.memory_addr, 2 - instr.cell)
    elif op in ("QET", "PHASE"):
        gate = (qet_matrix(instr.theta) if op == "QET"
                else phase_matrix(instr.theta, instr.phi))
        indices, amps = _apply_to_cells(indices, amps, gate)
    elif op == "CQET":
        indices, amps = _apply_to_cells(indices, amps, cqet_matrix())
    else:
        addr = instr.memory_addr
        outcome, indices, amps = _measure(indices, amps, s + 2 - addr, addr, rng)
        results = results + ((addr, outcome),)

    new = MachineState(indices, amps, tuple(mem), tuple(cells), results)
    record = TraceRecord(index, op, instr, new.memory_occupied,
                         new.cell_occupied, outcome)
    return new, record


def run_program(program: QuantumProgram,
                rng: RandomSource) -> tuple[list[tuple[int, int]], ExecutionTrace]:
    """Execute all instructions in order on a fresh machine.

    Returns the classical results in measurement order and the full
    trace.  The first runtime precondition failure aborts with the
    offending instruction index.
    """
    machine = fresh_machine(program.s)
    trace = []
    for index, instr in enumerate(program.instructions):
        machine, record = execute_instruction(machine, instr, rng, index)
        trace.append(record)
    return list(machine.classical_results), tuple(trace)
