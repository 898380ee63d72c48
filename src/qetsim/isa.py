"""The seven-instruction machine language and its text format.

A program is a header line ``QPU s=<int>`` followed by one instruction
per line.  Opcodes are case-insensitive and ``#`` starts a comment.

    INIT m<k> <0|1>
    LOAD m<k> c<j>
    SAVE c<j> m<k>
    QET <theta> [t<id>]
    PHASE <theta> <phi> [t<id>]
    CQET [t<id>]
    MEASURE m<k>

Angles are decimal radians, spelled in ASCII as ``float`` reads them
but without ``_``.  A program over ``s`` memory slots with
``t`` instructions has space cost ``s`` and time cost ``t``.  The table
``SYNTAX`` below is the one definition of these operands: the field
check of ``Instruction``, the parser and the formatter all read it.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from .errors import ProgramSyntaxError, SynthesisError

# Operands of each opcode, in text order: (Instruction field, kind).  A
# trailing transistor operand may be left out of the text.
SYNTAX = {
    "INIT": (("memory_addr", "slot"), ("init_value", "bit")),
    "LOAD": (("memory_addr", "slot"), ("cell", "cell")),
    "SAVE": (("cell", "cell"), ("memory_addr", "slot")),
    "QET": (("theta", "angle"), ("transistor_id", "transistor")),
    "PHASE": (("theta", "angle"), ("phi", "angle"),
              ("transistor_id", "transistor")),
    "CQET": (("transistor_id", "transistor"),),
    "MEASURE": (("memory_addr", "slot"),),
}


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# Operand kind -> (text prefix, the values it allows, a test for them).
# An angle is written as a decimal float, every other kind as an integer.
# Only an int is an integer and only a float an angle, so that every
# instruction formats as text that parses back to it: True and 3.0 equal
# 1 and 3 but print as text the parser refuses (and 3.0 indexes no
# list), and an int angle past 2**53 would read back as another number.
_KINDS = {
    "slot": ("m", "a non-negative integer", lambda v: _integer(v) and v >= 0),
    "cell": ("c", "0, 1 or 2", lambda v: _integer(v) and v in (0, 1, 2)),
    "transistor": ("t", "a non-negative integer",
                   lambda v: _integer(v) and v >= 0),
    "bit": ("", "0 or 1", lambda v: _integer(v) and v in (0, 1)),
    "angle": ("", "a finite float",
              lambda v: isinstance(v, float) and math.isfinite(v)),
}
# Opcode -> (field, the values it allows, a test for them) per operand,
# flattened once so that checking each new Instruction costs one lookup.
_CHECKS = {op: tuple((name,) + _KINDS[kind][1:] for name, kind in operands)
           for op, operands in SYNTAX.items()}
# A slot or cell not in the occupancy an instruction needs, by that need.
_WRONG = {True: "unoccupied", False: "already occupied"}


@dataclass(frozen=True)
class Instruction:
    """One machine instruction; only fields meaningful for the opcode are set."""

    opcode: str
    memory_addr: int | None = None
    cell: int | None = None
    theta: float | None = None
    phi: float | None = None
    transistor_id: int | None = None
    init_value: int | None = None

    def __post_init__(self):
        checks = _CHECKS.get(self.opcode)
        if checks is None:
            raise ValueError(f"unknown opcode {self.opcode!r}")
        values = vars(self)
        for name, allowed, test in checks:
            value = values[name]
            if value is None:
                raise ValueError(f"{self.opcode} requires {name}")
            if not test(value):
                raise ValueError(f"{name} must be {allowed}, got {value!r}")
        if list(values.values()).count(None) != len(values) - 1 - len(checks):
            taken = ["opcode"] + [name for name, _, _ in checks]
            extra = [n for n, v in values.items() if v is not None and n not in taken]
            raise ValueError(f"{self.opcode} does not take {extra[0]}")

    @staticmethod
    def init(memory_addr: int, value: int = 0) -> "Instruction":
        return _angleless("INIT", memory_addr, None, None, value)

    @staticmethod
    def load(memory_addr: int, cell: int) -> "Instruction":
        return _angleless("LOAD", memory_addr, cell, None, None)

    @staticmethod
    def save(cell: int, memory_addr: int) -> "Instruction":
        return _angleless("SAVE", memory_addr, cell, None, None)

    @classmethod
    def qet(cls, theta: float, transistor_id: int = 0) -> "Instruction":
        return cls("QET", theta=float(theta), transistor_id=transistor_id)

    @classmethod
    def phase(cls, theta: float, phi: float,
              transistor_id: int = 0) -> "Instruction":
        return cls("PHASE", theta=float(theta), phi=float(phi),
                   transistor_id=transistor_id)

    @staticmethod
    def cqet(transistor_id: int = 0) -> "Instruction":
        return _angleless("CQET", None, None, transistor_id, None)

    @staticmethod
    def measure(memory_addr: int) -> "Instruction":
        return _angleless("MEASURE", memory_addr, None, None, None)

    def on_slot(self, memory_addr: int) -> "Instruction":
        """This INIT, LOAD, SAVE or MEASURE with its slot set to ``memory_addr``."""
        return _angleless(self.opcode, memory_addr, self.cell,
                          self.transistor_id, self.init_value)


# The instructions without an angle (INIT, LOAD, SAVE, MEASURE and CQET),
# one shared instance per operand tuple: the compiler and the service emit
# the same few hundred of them for every program.  1024 entries hold every
# one the machine can run (60 slots times 9 slot instructions, plus CQET).
# ``typed`` keeps ``True`` or ``3.0`` from standing in for ``1`` or ``3``,
# and an operand the check refuses raises on every call, since no
# exception is cached.  Angles are never cached.
@lru_cache(maxsize=1024, typed=True)
def _angleless(opcode, memory_addr, cell, transistor_id,
               init_value) -> Instruction:
    return Instruction(opcode, memory_addr, cell, None, None, transistor_id,
                       init_value)


@dataclass(frozen=True)
class QuantumProgram:
    """A fixed instruction sequence over an ``s``-slot quantum memory."""

    s: int
    instructions: tuple[Instruction, ...]

    def __post_init__(self):
        object.__setattr__(self, "instructions", tuple(self.instructions))
        if self.s < 0:
            raise ValueError("memory size must be non-negative")

    @property
    def t(self) -> int:
        return len(self.instructions)


def read_operand(name: str, prefix: str, token: str) -> int:
    """The non-negative integer written after ``prefix`` (any case) in ``token``."""
    digits = token[len(prefix):]
    if (token[:len(prefix)].lower() != prefix
            or not (digits.isascii() and digits.isdecimal())):
        raise ValueError(f"expected {name} like '{prefix}0', got {token!r}")
    return int(digits)


def read_real(name: str, token: str) -> float:
    """The decimal number ``token`` written for the operand ``name``.

    ``float``'s ASCII grammar, without the ``_`` digit separator it also
    takes: one number has one spelling, as an integer operand has.
    """
    if token.isascii() and "_" not in token:
        try:
            return float(token)
        except ValueError:
            pass
    raise ValueError(f"expected {name} like '0', got {token!r}")


def _parse_instruction(tokens: list[str]) -> Instruction:
    opcode = tokens[0].upper()
    if opcode not in SYNTAX:
        raise ValueError(f"unknown opcode {tokens[0]!r}")
    operands = SYNTAX[opcode]
    args = tokens[1:]
    if len(args) == len(operands) - 1 and operands[-1][1] == "transistor":
        args.append("t0")
    if len(args) < len(operands):
        raise ValueError(f"{opcode} is missing parameter {operands[len(args)][0]}")
    if len(args) > len(operands):
        raise ValueError(f"unexpected trailing tokens {args[len(operands):]}")
    values = {}
    for (name, kind), token in zip(operands, args):
        if kind == "angle":
            values[name] = read_real(name, token)
        else:
            values[name] = read_operand(name, _KINDS[kind][0], token)
    return Instruction(opcode, **values)


def token_lines(text: str):
    """Yield ``(line number, tokens)`` of every line with text before its ``#``."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


def read_program(text: str, keyword: str, field: str, read_line):
    """The header value and the ``(line number, result)`` of each body line.

    The first line must read ``<keyword> <field>=<digits>``; one that
    does not start with ``keyword`` is read as a body line.  Each body
    line's tokens and the header value, None after a bad header, go to
    ``read_line``.  Every problem of the header, and every ``ValueError``
    or ``SynthesisError`` a line raises, is collected at its line and
    raised as one ``ProgramSyntaxError``.
    """
    header = f"expected header '{keyword} {field}=<int>'"
    lines = token_lines(text)
    lineno, tokens = next(lines, (1, None))
    value, issues, results = None, [], []
    if tokens is None:
        issues.append((lineno, f"empty program: {header}"))
    elif tokens[0].upper() != keyword:
        issues.append((lineno, header))
        lines = chain([(lineno, tokens)], lines)
    elif len(tokens) != 2 or not tokens[1].lower().startswith(field + "="):
        issues.append((lineno, header))
    elif (digits := tokens[1][len(field) + 1:]).isascii() and digits.isdecimal():
        value = int(digits)
    else:
        issues.append((lineno, f"bad header {tokens[1]!r}: {field} must be a "
                               "non-negative integer"))
    for lineno, tokens in lines:
        try:
            results.append((lineno, read_line(tokens, value)))
        except (ValueError, SynthesisError) as exc:
            issues.append((lineno, str(exc)))
    if issues:
        raise ProgramSyntaxError(issues)
    return value, results


def parse_program_with_lines(text: str) -> tuple[QuantumProgram, tuple[int, ...]]:
    """Parse program text, returning the source line of each instruction."""
    s, lines = read_program(text, "QPU", "s",
                            lambda tokens, _: _parse_instruction(tokens))
    lines_of, instructions = zip(*lines) if lines else ((), ())
    return QuantumProgram(s, instructions), lines_of


def format_instruction(instr: Instruction) -> str:
    operands = (f"{_KINDS[kind][0]}{getattr(instr, name)}"
                for name, kind in SYNTAX[instr.opcode])
    return " ".join((instr.opcode, *operands))


def format_program(program: QuantumProgram) -> str:
    lines = [f"QPU s={program.s}"]
    lines.extend(format_instruction(i) for i in program.instructions)
    return "\n".join(lines) + "\n"


def occupancy_step(instr: Instruction, s: int, mem: list[bool],
                   cells: list[bool]) -> list[str]:
    """Apply ``instr`` to the slot and cell occupancy, returning what it violates.

    ``mem`` and ``cells`` are updated in place.  A gate needs its cells
    occupied; every other instruction needs the slot and the cell it
    names in the opposite of the state it leaves them in, so it flips
    them.  The list is empty when every precondition holds.
    """
    problems = []
    if instr.transistor_id:
        problems.append(f"transistor t{instr.transistor_id} does not exist "
                        "(single transistor machine)")
    op = instr.opcode
    if op in ("QET", "PHASE"):
        if not (cells[1] and cells[2]):
            problems.append("transistor cells c1, c2 unoccupied")
        return problems
    if op == "CQET":
        if not all(cells):
            problems.append("transistor cells c0, c1, c2 unoccupied")
        return problems
    addr = instr.memory_addr
    needed = op in ("LOAD", "MEASURE")
    if not 0 <= addr < s:
        problems.append(f"address m{addr} out of range [0, {s})")
    else:
        if mem[addr] != needed:
            problems.append(f"slot m{addr} {_WRONG[needed]}")
        mem[addr] = not needed
    if op in ("LOAD", "SAVE"):
        cell = instr.cell
        needed = op == "SAVE"
        if cells[cell] != needed:
            problems.append(f"cell c{cell} {_WRONG[needed]}")
        cells[cell] = not needed
    return problems


def validate_program(program: QuantumProgram) -> list[tuple[int, str]]:
    """Static checks: address ranges, occupancy discipline, parameters.

    Returns one ``(instruction index, message)`` pair per problem;
    occupancy is simulated best-effort so later issues are still found.
    """
    issues: list[tuple[int, str]] = []
    mem = defaultdict(bool)  # flags for the named slots only, not all s
    cells = [False, False, False]
    for index, instr in enumerate(program.instructions):
        for problem in occupancy_step(instr, program.s, mem, cells):
            issues.append((index, problem))
    return issues
