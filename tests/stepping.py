"""The one way tests step the machine, and the references they check it with.

A change to the stepping entry point or to the occupancy it keeps
touches this module alone; ``run_program`` runs whole shots.
"""

import math

import numpy as np

from qetsim.compiler import (LogicalGate, LogicalProgram, encode_init, pair,
                             transform_program)
from qetsim.machine import execute_instruction, fresh_machine


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


def rotation(kind, q, theta):
    """One logical rotation as the compiler lowers it, without its INITs."""
    return without_inits(transform_program(
        LogicalProgram(q + 1, [LogicalGate(kind, (q,), theta)])))


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
        prep = [instr for q, bit in encoded(col).items()
                for instr in encode_init(q, bit)]
        machine, _ = run(fresh_machine(2 * n), prep + list(instructions), rng)
        register = machine.register
        for row in range(dim):
            levels = [0] * len(register.shape)
            for q, bit in encoded(row).items():
                first, second = pair(q)
                levels[first], levels[second] = bit, 1 - bit
            matrix[row, col] = register.amps[
                np.ravel_multi_index(levels, register.shape)]
    return matrix
