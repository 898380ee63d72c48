"""The one way tests step the machine, and the references they check it with.

Tests build the machine they step with ``fresh_machine``.  A change to
the stepping entry point, to the occupancy it keeps or to how a machine
starts touches this module alone; ``run_program`` runs whole shots.
"""

import math

import numpy as np

from qetsim.compiler import LogicalGate, LogicalProgram, pair, transform_program
from qetsim.isa import Instruction
from qetsim.machine import MachineState, bit_layout, execute_instruction

# The register of every fresh machine, shared and read-only: stepping
# never writes in place.
_EMPTY_INDICES = np.zeros(1, dtype=np.int64)
_EMPTY_AMPS = np.ones(1, dtype=complex)
_EMPTY_INDICES.flags.writeable = _EMPTY_AMPS.flags.writeable = False


def fresh_machine(s):
    """A machine over ``s`` slots with every position empty and ``|0>``."""
    return MachineState(_EMPTY_INDICES, _EMPTY_AMPS, bit_layout(s),
                        (False,) * s, (False, False, False))


def steps(machine, instructions, rng):
    """Yield ``(index, machine, measured bit or None)`` after each instruction."""
    for index, instr in enumerate(instructions):
        machine, outcome = execute_instruction(machine, instr, rng, index)
        yield index, machine, outcome


def run(machine, instructions, rng):
    """The last machine and the ``(slot, bit)`` list ``run_program`` returns."""
    results = []
    for index, machine, outcome in steps(machine, instructions, rng):
        if outcome is not None:
            results.append((instructions[index].memory_addr, outcome))
    return machine, results


def occupied(machine):
    """The occupied positions: slot ``k`` is ``k``, cell ``j`` is ``s + j``."""
    flags = machine.memory_occupied + machine.cell_occupied
    return {position for position, flag in enumerate(flags) if flag}


def rx(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def rz(theta):
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)]).astype(complex)


def without_inits(program):
    """A lowered program's instructions without the INITs the emitter placed."""
    return [instr for instr in program.instructions if instr.opcode != "INIT"]


def lowered(kind, qubits, theta=None):
    """One logical op as the compiler lowers it, without its INITs."""
    return without_inits(transform_program(LogicalProgram(
        max(qubits) + 1, [LogicalGate(kind, qubits, theta)])))


def prepared(bits):
    """The INITs that put logical qubit ``q`` in basis state ``bits[q]``."""
    return [Instruction.init(slot, bit ^ half) for q, bit in enumerate(bits)
            for half, slot in enumerate(pair(q))]


def logical_matrix(n, instructions, qubits, rng):
    """Action of ``instructions`` on the encoded subspace of ``n`` qubits.

    Entry ``[row, col]`` runs from the encoded state whose bits on
    ``qubits`` are the digits of ``col`` (other qubits 0) and reads the
    encoded state of ``row``.
    """
    def encoded(value):
        bits = dict.fromkeys(range(n), 0)
        for k, q in enumerate(qubits):
            bits[q] = (value >> (len(qubits) - 1 - k)) & 1
        return bits

    dim = 2 ** len(qubits)
    matrix = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        machine, _ = run(fresh_machine(2 * n),
                         prepared(encoded(col).values()) + list(instructions),
                         rng)
        register = machine.register
        for row in range(dim):
            levels = [0] * len(register.shape)
            for q, bit in encoded(row).items():
                first, second = pair(q)
                levels[first], levels[second] = bit, 1 - bit
            matrix[row, col] = register.amps[
                np.ravel_multi_index(levels, register.shape)]
    return matrix
