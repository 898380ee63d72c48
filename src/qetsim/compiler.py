"""Lowering of logical programs to physical instruction sequences.

A logical qubit lives on a pair of physical memory slots in the
one-excitation subspace: logical 0 is ``|01>``, logical 1 is ``|10>``,
and the logical basis is read from the first slot of the pair.  On that
subspace the transfer gate ``gates.qet_matrix(theta)`` acts as
``Rx(-theta)`` and the phase gate ``gates.phase_matrix(theta, phi)`` as
``Rz(theta)`` times ``e^{i phi / 2}``, which is all the compiler needs
to realize arbitrary rotations; ``decompose_su2`` reads its ``Rx`` and
``Rz`` from those pair blocks.

A logical program is an ordered list of ops.  ``RX``, ``RZ`` and
``CNOT`` are a universal set; the machine's own ``QET``, ``PHASE`` and
``CQET`` act on logical qubits too, and ``MEASURE`` reads one out.
``KINDS`` gives each kind's qubits and angles, and ``LogicalGate`` is the
one op record, and the one op check, of both front ends.  ``emit`` is
the one lowering of both: it puts each op's template onto the slots of
a slot table and places every ``INIT``.  ``transform_program`` gives it
the table of ``pair``, so qubit ``q`` keeps slots ``2q`` and ``2q + 1``;
the service gives it an empty one, which hands out slots in order of
first use.

Logical program text: header ``LQ n=<int>``; then one op per line, its
angles first and then its qubits, as in machine text: ``RX <theta>
q<i>``, ``RZ <theta> q<i>``, ``QET <theta> q<i>``, ``PHASE <theta> <phi>
q<i>``, ``CNOT q<i> q<j>``, ``CQET q<i> q<j>`` and ``MEASURE q<i>``.  An
``SU2 q<i> <8 reals>`` line (row-major re/im pairs) is read as the three
gates ``RZ(c)``, ``RX(b)``, ``RZ(a)`` of its matrix's ``decompose_su2``,
with the global phase dropped.  A ``MEASURE`` may stand anywhere, and a
measured qubit is back at logical 0 at its next use.  Every problem of
the text is reported at its own line.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import SynthesisError
from .gates import cqet_matrix, phase_matrix, qet_matrix
from .isa import (Instruction, QuantumProgram, read_operand, read_program,
                  read_real)
from .machine import bit_layout
from .statevector import ALGEBRA_TOL, LocalUnitary, is_unitary

# Correction angles that turn the raw controlled transfer into an exact
# CNOT: the controlled transfer fires on control |0> and adds a factor i,
# so the control is conjugated by full transfers (logical iX each) and the
# leftover diagonal phases are absorbed by one phase gate on the control
# pair.  ``derive_cnot_corrections`` re-derives both numbers.
CNOT_CORRECTION_THETA = math.pi / 2
CNOT_CORRECTION_PHI = 3 * math.pi / 2


# Op kind -> (number of qubits, angles in text order), for both front ends.
# A PHASE's phi may be left out and then reads 0.
KINDS = {"RX": (1, ("theta",)), "RZ": (1, ("theta",)), "QET": (1, ("theta",)),
         "PHASE": (1, ("theta", "phi")), "CNOT": (2, ()), "CQET": (2, ()),
         "MEASURE": (1, ())}


@dataclass(frozen=True)
class LogicalGate:
    """One op of logical text or of a service request: a gate or a ``MEASURE``."""

    kind: str
    qubits: tuple[int, ...]
    theta: float | None = None
    phi: float | None = None

    def __post_init__(self):
        syntax = KINDS.get(self.kind)
        if syntax is None:
            raise SynthesisError(f"unknown logical gate {self.kind!r}")
        arity, angles = syntax
        object.__setattr__(self, "qubits", tuple(self.qubits))
        for label, value in (("theta", self.theta), ("phi", self.phi)):
            # NaN, an infinity or an int too large for a float fails
            if value is not None and not abs(value) <= sys.float_info.max:
                raise SynthesisError(f"{label} must be finite")
        if len(self.qubits) != arity:
            raise SynthesisError(f"{self.kind} takes {arity} qubit(s), "
                                 f"got {len(self.qubits)}")
        if arity == 2 and self.qubits[0] == self.qubits[1]:
            raise SynthesisError(f"{self.kind} control and target must differ")
        if angles and self.theta is None:
            raise SynthesisError(f"missing parameter theta for {self.kind}")
        if not angles and (self.theta is not None or self.phi is not None):
            raise SynthesisError(f"{self.kind} takes no angle parameters")
        if "phi" not in angles and self.phi is not None:
            raise SynthesisError(f"{self.kind} takes no phi parameter")

    def gate(self) -> Instruction | None:
        """The op's own instruction, the None of its template, if it has one.

        The transfer block carries ``+i sin``, which is ``Rx`` of the
        negated angle; ``Rz`` is a phase gate with ``phi = 0``.
        """
        if self.kind == "RX":
            return Instruction.qet(-self.theta)
        if self.kind == "QET":
            return Instruction.qet(self.theta)
        if self.kind in ("RZ", "PHASE"):
            return Instruction.phase(self.theta,
                                     0.0 if self.phi is None else self.phi)
        return None


@dataclass(frozen=True)
class LogicalProgram:
    """Gates and measurements over ``n`` logical qubits, in program order."""

    n: int
    ops: tuple[LogicalGate, ...]

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            for q in op.qubits:
                if not 0 <= q < self.n:
                    role = "measured" if op.kind == "MEASURE" else "gate operand"
                    raise SynthesisError(f"{role} q{q} out of range [0, {self.n})")


def pair(logical_id: int) -> tuple[int, int]:
    """The memory slots of logical qubit ``q``: ``2q`` and ``2q + 1``."""
    return 2 * logical_id, 2 * logical_id + 1


def derive_cnot_corrections() -> tuple[float, float]:
    """Re-derive the phase-correction angles from the gate matrices.

    Works entirely on the 4-dim logical frame (control, target): solves
    for the diagonal control correction D in
    ``X . D . M . X = CNOT`` where X is the logical action of a full
    transfer on the control pair and M that of the controlled transfer.
    """
    xl = np.kron(qet_matrix(math.pi).entries[1:3, 1:3], np.eye(2))
    frame = [1, 2, 5, 6]  # cell configurations 001, 010, 101, 110
    m = cqet_matrix().entries[np.ix_(frame, frame)]
    # frame order above is (control, target) = 00, 01, 10, 11
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                     [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    d = np.linalg.inv(xl) @ cnot @ np.linalg.inv(xl) @ np.linalg.inv(m)
    off = d - np.diag(np.diag(d))
    if np.max(np.abs(off)) > 1e-12:
        raise SynthesisError("correction is not diagonal on the frame")
    if (abs(d[0, 0] - d[1, 1]) > 1e-12 or abs(d[2, 2] - d[3, 3]) > 1e-12):
        raise SynthesisError("correction does not factor onto the control")
    d0, d1 = d[0, 0], d[2, 2]
    theta = cmath.phase(d1 / d0) % (4 * math.pi)
    phi = 2 * cmath.phase(d0 * np.exp(0.5j * theta)) % (4 * math.pi)
    return theta, phi


def decompose_su2(u) -> tuple[float, float, float, float]:
    """Factor a 2x2 unitary as ``e^{i d} Rz(a) Rx(b) Rz(c)``.

    Returns ``(a, b, c, d)``.  Branch cuts: pure-z and pure-x inputs
    come out with the other two angles zero; otherwise ``b`` is in
    ``(0, pi)`` and ``a, c`` are reduced modulo ``4 pi``.
    """
    u = np.asarray(u, dtype=complex)
    # an entry past 1, inf or NaN is refused before the Gram product can
    # overflow or warn
    if (u.shape != (2, 2) or not (np.abs(u) <= 1 + ALGEBRA_TOL).all()
            or not is_unitary(LocalUnitary((2,), u))):
        raise SynthesisError("SU2 matrix must be 2x2 unitary")
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    delta = 0.5 * cmath.phase(det)
    v = u * np.exp(-1j * delta)
    z, w = v[0, 0], v[0, 1]
    two_pi = 2 * math.pi
    four_pi = 4 * math.pi

    if abs(w) < 1e-12:
        a = (-2 * cmath.phase(z)) % four_pi
        result = (a, 0.0, 0.0, delta)
    else:
        b = 2 * math.atan2((1j * w).real, z.real)
        if (np.max(np.abs(v - qet_matrix(-b).entries[1:3, 1:3])) < 1e-12
                and abs((1j * w).imag) < 1e-12 and abs(z.imag) < 1e-12):
            if b < 0:
                b, delta = b + two_pi, delta + math.pi
            result = (0.0, b % (2 * two_pi), 0.0, delta)
        elif abs(z) < 1e-12:
            m = -math.pi / 2 - cmath.phase(w)
            result = ((2 * m) % four_pi, math.pi, 0.0, delta)
        else:
            b = 2 * math.atan2(abs(w), abs(z))
            p = -cmath.phase(z)
            m = -math.pi / 2 - cmath.phase(w)
            result = ((p + m) % four_pi, b, (p - m) % four_pi, delta)

    a, b, c, d = result
    # on the encoded pair, Rz(t) is PHASE(t, 0) and Rx(t) is QET(-t)
    rebuilt = np.exp(1j * d) * (phase_matrix(a, 0.0).entries[1:3, 1:3]
                                @ qet_matrix(-b).entries[1:3, 1:3]
                                @ phase_matrix(c, 0.0).entries[1:3, 1:3])
    if np.max(np.abs(rebuilt - u)) > 1e-10:
        raise SynthesisError("decomposition failed to recompose the input")
    return result


# Each op kind of either front end lowered once over placeholder slots:
# slots 0 and 1 are the pair of the op's first qubit, slots 2 and 3 that
# of its second, and None is the op's own gate.
def _bracket(*inner) -> list[Instruction | None]:
    """Run ``inner`` with the first qubit's pair in cells c1 and c2."""
    return [Instruction.load(0, 1), Instruction.load(1, 2), *inner,
            Instruction.save(1, 0), Instruction.save(2, 1)]


# one CQET with the first qubit's first slot in c0 and the second's pair
# in c1, c2
_CQET = [Instruction.load(0, 0), Instruction.load(2, 1),
         Instruction.load(3, 2), Instruction.cqet(), Instruction.save(0, 0),
         Instruction.save(1, 2), Instruction.save(2, 3)]
_ONE_PAIR = _bracket(None)
TEMPLATES = {
    "RX": _ONE_PAIR, "RZ": _ONE_PAIR, "QET": _ONE_PAIR, "PHASE": _ONE_PAIR,
    # Exact CNOT: full transfers on the control turn the CQET's firing on
    # control |0> into firing on 1, and the PHASE takes out the branch
    # phases that are left, so no global phase remains.
    "CNOT": (_bracket(Instruction.qet(math.pi)) + _CQET
             + _bracket(Instruction.phase(CNOT_CORRECTION_THETA,
                                          CNOT_CORRECTION_PHI),
                        Instruction.qet(math.pi))),
    "CQET": _CQET,
    "MEASURE": [Instruction.measure(0), Instruction.measure(1)],
}
# placeholder slot -> (index of the op's qubit, half of its pair)
_OPERAND = {slot: (operand, half)
            for operand in (0, 1) for half, slot in enumerate(pair(operand))}
# INIT of a pair's first and second half: every pair starts at logical 0
_INIT = (Instruction.init(0, 0), Instruction.init(1, 1))


def emit(ops: list[LogicalGate],
         slots: dict[tuple[int, int], int]) -> list[Instruction]:
    """Lower ordered ops onto machine slots.

    ``slots`` maps (logical qubit, half of its pair) to a machine slot;
    a half it lacks takes the next slot at its first use, and the table
    is updated in place.  Each op is its kind's template, with the op's
    ``gate`` in place of the template's None.  Each slot gets an INIT to
    its half of logical 0 right before its first use and before its
    first use after a MEASURE, so a measured qubit is back at logical 0
    when it is used again.
    """
    instructions: list[Instruction] = []
    live: set[int] = set()  # slots initialized and not measured since
    for op in ops:
        for template in TEMPLATES[op.kind]:
            if template is None:
                instructions.append(op.gate())
                continue
            placeholder = template.memory_addr
            if placeholder is None:  # a gate on the cells only
                instructions.append(template)
                continue
            operand, half = _OPERAND[placeholder]
            slot = slots.setdefault((op.qubits[operand], half), len(slots))
            if slot not in live:
                instructions.append(_INIT[half].on_slot(slot))
                live.add(slot)
            if template.opcode == "MEASURE":
                live.discard(slot)
            instructions.append(template.on_slot(slot))
    return instructions


def transform_program(lp: LogicalProgram) -> QuantumProgram:
    """Lower a logical program to a physical program, which always validates.

    A program wider than the machine is refused before anything is
    emitted.  Qubit ``q`` keeps the slots of ``pair(q)``; a ``MEASURE``
    reads its pair out first slot first, with the second slot measured
    too so both slots end free.
    """
    bit_layout(2 * lp.n)
    slots = {(q, half): slot
             for q in range(lp.n) for half, slot in enumerate(pair(q))}
    return QuantumProgram(2 * lp.n, tuple(emit(lp.ops, slots)))


# -- logical program text -----------------------------------------------------


def _read_logical_line(tokens: list[str], n: int | None) -> list[LogicalGate]:
    """The ops of one line of logical text, range-checked unless ``n`` is None."""
    op = tokens[0].upper()
    if op in KINDS:
        arity, angles = KINDS[op]
        if len(tokens) != 1 + len(angles) + arity:
            words = (("", "an angle", "two angles")[len(angles)],
                     ("", "a qubit", "two qubits")[arity])
            raise ValueError(f"{op} takes " + " and ".join(filter(None, words)))
        values = [read_real(name, token)
                  for name, token in zip(angles, tokens[1:])]
        qubits = [read_operand("an operand", "q", token)
                  for token in tokens[1 + len(angles):]]
        line_ops = [LogicalGate(op, qubits, *values)]
    elif op == "SU2":
        if len(tokens) != 10:
            raise ValueError("SU2 takes a qubit and 8 matrix entries")
        qubit = (read_operand("an operand", "q", tokens[1]),)
        reals = [read_real("entry", x) for x in tokens[2:]]
        matrix = np.array([complex(re, im) for re, im
                           in zip(reals[0::2], reals[1::2])])
        a, b, c, _ = decompose_su2(matrix.reshape(2, 2))
        # temporal order is rightmost factor first
        line_ops = [LogicalGate("RZ", qubit, c),
                    LogicalGate("RX", qubit, b),
                    LogicalGate("RZ", qubit, a)]
    else:
        raise ValueError(f"unknown logical operation {tokens[0]!r}")
    if n is not None:  # a bad header's n is unknown and bounds nothing
        LogicalProgram(n, line_ops)
    return line_ops


def parse_logical_program(text: str) -> LogicalProgram:
    n, lines = read_program(text, "LQ", "n", _read_logical_line)
    return LogicalProgram(n, tuple(op for _, line_ops in lines
                                   for op in line_ops))
