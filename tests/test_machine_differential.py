"""The sparse machine against a dense reference register.

Random valid machine programs, raw or compiled from random two-qubit
logical circuits, run on both from the same seed; after every
instruction the amplitudes must agree and the measurement outcomes must
be the same.  The reference steps a dense ``2^(s+3)`` state vector with
``apply_local`` and ``measure_subsystem``.

``run_program`` checks a program's occupancy once and relabels slots in
place; stepping the machine (``stepping.run``) checks each instruction as
it comes.  On the same programs, valid or broken, both must give the same
results, the same error and the same use of the random stream.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qetsim.compiler import LogicalGate, LogicalProgram, transform_program
from qetsim.errors import DimensionError, QetSimError
from qetsim.gates import cqet_matrix, phase_matrix, qet_matrix
from qetsim.isa import Instruction, QuantumProgram
from qetsim.machine import run_program
from qetsim.pcg64 import RandomSource
from qetsim.statevector import LocalUnitary, apply_local, measure_subsystem

from reference_tables import basis_state
from stepping import fresh_machine, run, steps
from test_isa_properties import random_instruction

SWAP = LocalUnitary((2, 2), np.array(
    [[1, 0, 0, 0],
     [0, 0, 1, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1]], dtype=complex))

FLIP = LocalUnitary((2,), np.array([[0, 1], [1, 0]], dtype=complex))

# exact multiples of pi/2 make amplitudes cancel to exactly 0, tenths
# of a radian mix generically, and the float range adds edge values
ANGLES = st.one_of(
    st.sampled_from([math.pi / 2, -math.pi / 2, math.pi, -math.pi, 0.0,
                     2 * math.pi]),
    st.integers(1, 62).map(lambda k: k / 10),
    st.floats(-2 * math.pi, 2 * math.pi))


def dense_step(register, s, instr, rng):
    """One instruction on the dense register; the program is valid."""
    op = instr.opcode
    outcome = None
    if op == "INIT":
        if instr.init_value == 1:
            register = apply_local(register, FLIP, (instr.memory_addr,))
    elif op in ("LOAD", "SAVE"):
        register = apply_local(register, SWAP,
                               (instr.memory_addr, s + instr.cell))
    elif op == "QET":
        register = apply_local(register, qet_matrix(instr.theta),
                               (s + 1, s + 2))
    elif op == "PHASE":
        register = apply_local(register, phase_matrix(instr.theta, instr.phi),
                               (s + 1, s + 2))
    elif op == "CQET":
        register = apply_local(register, cqet_matrix(), (s, s + 1, s + 2))
    else:
        outcome, register = measure_subsystem(register, instr.memory_addr, rng)
        if outcome == 1:
            register = apply_local(register, FLIP, (instr.memory_addr,))
    return register, outcome


@st.composite
def machine_programs(draw):
    """``(s, instructions)`` whose every runtime precondition holds.

    Every slot is initialized first.  Then each step is one instruction
    drawn from those whose preconditions hold, or a whole transfer block
    (load two or three slots, apply gates, save the cells to free slots),
    which spreads excitations across the register.
    """
    s = draw(st.sampled_from([4, 3, 2, 1]))
    slots = [False] * s
    cells = [False] * 3
    instructions = []

    def emit(instr):
        if instr.opcode == "INIT":
            slots[instr.memory_addr] = True
        elif instr.opcode == "LOAD":
            slots[instr.memory_addr], cells[instr.cell] = False, True
        elif instr.opcode == "SAVE":
            slots[instr.memory_addr], cells[instr.cell] = True, False
        elif instr.opcode == "MEASURE":
            slots[instr.memory_addr] = False
        instructions.append(instr)

    def gate(op):
        if op == "QET":
            return Instruction.qet(draw(ANGLES))
        if op == "PHASE":
            return Instruction.phase(draw(ANGLES), draw(ANGLES))
        return Instruction.cqet()

    for addr in range(s):
        emit(Instruction.init(addr, draw(st.integers(0, 1))))
    for _ in range(draw(st.integers(2, 12))):
        free = [k for k in range(s) if not slots[k]]
        held = [k for k in range(s) if slots[k]]
        empty = [c for c in range(3) if not cells[c]]
        full = [c for c in range(3) if cells[c]]
        if not any(cells) and len(held) >= 2 and draw(st.integers(0, 3)):
            width = draw(st.sampled_from([2, 3] if len(held) >= 3 else [2]))
            sources = draw(st.permutations(held))[:width]
            used = range(3 - width, 3)
            for addr, cell in zip(sources, used):
                emit(Instruction.load(addr, cell))
            ops = ["QET", "PHASE"] + ["CQET"] * (width == 3)
            for op in draw(st.lists(st.sampled_from(ops), min_size=1,
                                    max_size=4)):
                emit(gate(op))
            for cell in used:
                free = [k for k in range(s) if not slots[k]]
                emit(Instruction.save(cell, draw(st.sampled_from(free))))
            continue
        options = []
        if free:
            options.append("INIT")
        if held and empty:
            options.append("LOAD")
        if free and full:
            options.append("SAVE")
        if cells[1] and cells[2]:
            options += ["QET", "PHASE"]
        if all(cells):
            options.append("CQET")
        if held:
            options.append("MEASURE")
        op = draw(st.sampled_from(options))
        if op == "INIT":
            emit(Instruction.init(draw(st.sampled_from(free)),
                                  draw(st.integers(0, 1))))
        elif op == "LOAD":
            emit(Instruction.load(draw(st.sampled_from(held)),
                                  draw(st.sampled_from(empty))))
        elif op == "SAVE":
            emit(Instruction.save(draw(st.sampled_from(full)),
                                  draw(st.sampled_from(free))))
        elif op == "MEASURE":
            emit(Instruction.measure(draw(st.sampled_from(held))))
        else:
            emit(gate(op))
    return s, instructions


@st.composite
def compiled_programs(draw):
    """``(s, instructions)`` of a random circuit on two logical qubits.

    The pairwise encoding keeps one excitation per slot pair, so these
    programs entangle more than raw ones: up to 4 encoded basis states,
    and more in the middle of a lowered CNOT.
    """
    kinds = st.sampled_from(["CNOT", "RX", "RZ", "MEASURE"])
    ops = []
    for kind in draw(st.lists(kinds, min_size=1, max_size=6)):
        if kind == "CNOT":
            ops.append(LogicalGate("CNOT", draw(st.permutations([0, 1]))))
        elif kind == "MEASURE":
            ops.append(LogicalGate(kind, (draw(st.sampled_from([0, 1])),)))
        else:
            ops.append(LogicalGate(kind, (draw(st.sampled_from([0, 1])),),
                                   theta=draw(ANGLES)))
    program = transform_program(LogicalProgram(2, ops))
    return program.s, list(program.instructions)


@settings(max_examples=400)
@given(program=st.one_of(machine_programs(), compiled_programs()),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sparse_machine_matches_dense_reference(program, seed):
    s, instructions = program
    sparse_rng, dense_rng = RandomSource(seed), RandomSource(seed)
    dense = basis_state((2,) * (s + 3), (0,) * (s + 3))
    for index, machine, outcome in steps(fresh_machine(s), instructions,
                                         sparse_rng):
        dense, expected = dense_step(dense, s, instructions[index], dense_rng)
        assert outcome == expected
        assert np.max(np.abs(machine.register.amps - dense.amps)) <= 1e-12
        assert np.all(machine.amps != 0)
        assert len(np.unique(machine.indices)) == len(machine.indices)


@st.composite
def any_programs(draw):
    """Programs over at most 6 slots, valid or broken by one instruction."""
    s, instructions = draw(st.one_of(machine_programs(), compiled_programs()))
    s += draw(st.integers(0, 2))  # spare slots move every position's bit
    if draw(st.booleans()):
        where = draw(st.integers(0, len(instructions)))
        instructions.insert(where, draw(random_instruction(s)))
    return QuantumProgram(s, instructions)


def _outcome(call):
    """What ``call()`` returned, or the emulator error it raised."""
    try:
        return call()
    except QetSimError as exc:
        return exc


@settings(max_examples=300)
@given(program=any_programs(), seed=st.integers(0, 2 ** 32 - 1))
def test_run_program_matches_stepping(program, seed):
    run_rng, step_rng = RandomSource(seed), RandomSource(seed)
    ran = _outcome(lambda: run_program(program, run_rng))
    stepped = _outcome(lambda: run(fresh_machine(program.s),
                                   program.instructions, step_rng)[1])
    if isinstance(stepped, QetSimError):
        assert type(ran) is type(stepped)
        assert getattr(ran, "index", None) == getattr(stepped, "index", None)
        assert str(ran) == str(stepped)
    else:
        assert ran == stepped
    # both drew the same uniforms, so the next one is the same too
    assert run_rng.random() == step_rng.random()


def test_run_program_rejects_too_wide_register_first():
    # the width is checked before occupancy: m0 is measured uninitialized
    program = QuantumProgram(61, (Instruction.measure(0),))
    with pytest.raises(DimensionError, match="64 positions"):
        run_program(program, RandomSource(0))
