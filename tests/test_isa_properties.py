"""The opcode table and the occupancy step, checked on random programs.

Text format and parser come from one table, so every program must
survive a format/parse round trip.  Machine and logical text share one
reader, so a text reads as its lines read one at a time.  Static
validation and execution share one occupancy step, so a program runs
exactly when it validates, and otherwise fails at the first issue
validation reports, with the same message.
"""

import math

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from qetsim.compiler import LogicalProgram, parse_logical_program
from qetsim.errors import ProgramSyntaxError, QpuRuntimeError
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


# Well-formed lines of machine and of logical text, and the opcodes and
# operands, good and bad, of random lines of either.
GOOD_LINES = {
    "QPU": ["INIT m0 1", "LOAD m1 c1", "SAVE c2 m0", "QET 0.5",
            "PHASE -1e-3 2 t0", "CQET", "measure m1  # read"],
    "LQ": ["RX 0.5 q0", "RZ -1 q1", "QET 2 q0", "PHASE 0.5 0.25 q1",
           "CNOT q0 q1", "CQET q1 q0", "MEASURE q1", "SU2 q0 1 0 0 0 0 0 1 0"],
}
OPCODES = sorted({line.split()[0].upper() for lines in GOOD_LINES.values()
                  for line in lines} | {"BLORP"})
TOKENS = ["m0", "c1", "t0", "t1", "q0", "q1", "q3", "0", "1", "0.5", "nan",
          "1_0", "half", "m+1", "q"]
PARSERS = {"QPU": parse_program_with_lines, "LQ": parse_logical_program}


@st.composite
def program_texts(draw):
    """A good header, then lines of both texts between blank and comment lines.

    Returns the header, the text and each drawn line with its line number.
    """
    keyword = draw(st.sampled_from(sorted(GOOD_LINES)))
    field = {"QPU": "s", "LQ": "n"}[keyword]
    header = f"{keyword} {field}={draw(st.integers(0, 3))}"
    text, lines = [header], []
    for _ in range(draw(st.integers(0, 6))):
        text += draw(st.lists(st.sampled_from(["", "# gap"]), max_size=2))
        line = draw(st.one_of(
            st.sampled_from(GOOD_LINES[keyword]),
            st.sampled_from(GOOD_LINES["QPU"] + GOOD_LINES["LQ"]),
            st.builds(lambda op, args: " ".join([op, *args]),
                      st.sampled_from(OPCODES),
                      st.lists(st.sampled_from(TOKENS), max_size=4))))
        text.append(line)
        lines.append((len(text), line))
    return header, "\n".join(text) + "\n", lines


def _read(parse, text):
    """What ``parse`` reads from ``text``, and the issues it raises."""
    try:
        return parse(text), []
    except ProgramSyntaxError as exc:
        return None, exc.issues


@settings(max_examples=150)
@given(program_texts())
def test_text_reads_as_its_lines_read_alone(case):
    header, text, lines = case
    keyword, value = header.split()[0], int(header.split("=")[1])
    parse = PARSERS[keyword]
    alone = [_read(parse, f"{header}\n{line}\n") for _, line in lines]
    program, issues = _read(parse, text)
    # every line's issues, in order, each at the line it stands on
    assert issues == [(lineno, message)
                      for (lineno, _), (_, line_issues) in zip(lines, alone)
                      for _, message in line_issues]
    if issues:
        return
    if keyword == "QPU":
        instructions = [i for (part, _), _ in alone for i in part.instructions]
        assert program == (QuantumProgram(value, instructions),
                           tuple(lineno for lineno, _ in lines))
    else:
        ops = [op for part, _ in alone for op in part.ops]
        assert program == LogicalProgram(value, ops)


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
