"""The opcode table and the occupancy step, checked on random programs.

Text format and parser come from one table, so every program must
survive a format/parse round trip.  Static validation and execution
share one occupancy step, so a program runs exactly when it validates,
and otherwise fails at the first issue validation reports, with the
same message.
"""

import math

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from qetsim.errors import QpuRuntimeError
from qetsim.isa import (SYNTAX, Instruction, QuantumProgram, format_program,
                        parse_program_with_lines, validate_program)
from qetsim.machine import run_program
from qetsim.statevector import RandomSource

ANGLES = st.one_of(st.sampled_from([0.0, math.pi, -math.pi / 2]),
                   st.floats(-10.0, 10.0))


def random_instruction(s):
    """Any well-formed instruction, valid in context or not."""
    addr = st.integers(0, s + 1)
    cell = st.integers(0, 2)
    transistor = st.sampled_from([0, 0, 0, 1, 2])
    return st.one_of(
        st.builds(Instruction.init, addr, st.integers(0, 1)),
        st.builds(Instruction.load, addr, cell),
        st.builds(Instruction.save, cell, addr),
        st.builds(Instruction.qet, ANGLES, transistor),
        st.builds(Instruction.phase, ANGLES, ANGLES, transistor),
        st.builds(Instruction.cqet, transistor),
        st.builds(Instruction.measure, addr))


RANDOM_INSTRUCTION = {s: random_instruction(s) for s in range(5)}


def valid_moves(s, mem, cells):
    """Instructions whose preconditions hold, tracked independently here."""
    moves = [("INIT", m) for m in range(s) if not mem[m]]
    moves += [("MEASURE", m) for m in range(s) if mem[m]]
    moves += [("LOAD", m, c) for m in range(s) for c in range(3)
              if mem[m] and not cells[c]]
    moves += [("SAVE", c, m) for c in range(3) for m in range(s)
              if cells[c] and not mem[m]]
    if cells[1] and cells[2]:
        moves += [("QET",), ("PHASE",)]
    if all(cells):
        moves.append(("CQET",))
    return moves


@st.composite
def programs(draw):
    """Mostly valid programs over s <= 4, some broken by a random instruction."""
    s = draw(st.integers(0, 4))
    mem, cells = [False] * s, [False] * 3
    instructions = []
    for _ in range(draw(st.integers(0, 30))):
        moves = valid_moves(s, mem, cells)
        if not moves or draw(st.integers(0, 19)) == 0:
            instructions.append(draw(RANDOM_INSTRUCTION[s]))
            continue
        op, *args = draw(st.sampled_from(moves))
        if op == "INIT":
            instr = Instruction.init(args[0], draw(st.integers(0, 1)))
            mem[args[0]] = True
        elif op == "MEASURE":
            instr = Instruction.measure(args[0])
            mem[args[0]] = False
        elif op == "LOAD":
            instr = Instruction.load(*args)
            mem[args[0]], cells[args[1]] = False, True
        elif op == "SAVE":
            instr = Instruction.save(*args)
            cells[args[0]], mem[args[1]] = False, True
        elif op == "QET":
            instr = Instruction.qet(draw(ANGLES))
        elif op == "PHASE":
            instr = Instruction.phase(draw(ANGLES), draw(ANGLES))
        else:
            instr = Instruction.cqet()
        instructions.append(instr)
    return QuantumProgram(s, tuple(instructions))


@settings(max_examples=400)
@given(programs())
def test_format_then_parse_is_identity(program):
    assert parse_program_with_lines(format_program(program))[0] == program


# operands of every type the constructor might be handed: bools, floats
# that equal integers (3.0), non-finite floats, None and large integers
OPERANDS = st.one_of(st.integers(-1, 3), st.booleans(), st.floats(),
                     st.sampled_from([0.0, 1.0, 3.0, None]),
                     st.integers(0, 2 ** 70))


@st.composite
def constructed_instructions(draw):
    """Any instruction that the constructor accepts, from any operand types."""
    opcode = draw(st.sampled_from(sorted(SYNTAX)))
    fields = {name: draw(OPERANDS) for name, _ in SYNTAX[opcode]}
    try:
        return Instruction(opcode, **fields)
    except ValueError:
        reject()


@settings(max_examples=400)
@given(constructed_instructions())
def test_every_accepted_instruction_survives_format_then_parse(instr):
    program = QuantumProgram(1, (instr,))
    assert parse_program_with_lines(format_program(program))[0] == program


@settings(max_examples=400)
@given(programs())
def test_runtime_error_is_first_validation_issue(program):
    issues = validate_program(program)
    try:
        run_program(program, RandomSource(0))
    except QpuRuntimeError as exc:
        assert issues, f"runtime error {exc} on a program that validates"
        index, condition = issues[0]
        assert (exc.index, exc.condition) == (index, condition)
        assert exc.opcode == program.instructions[index].opcode
    else:
        assert issues == []
