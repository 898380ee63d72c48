import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qetsim.compiler import (CNOT_CORRECTION_PHI, CNOT_CORRECTION_THETA,
                             KINDS, LogicalGate, LogicalProgram, decompose_su2,
                             derive_cnot_corrections, leakage_check, pair,
                             parse_logical_program, transform_program)
from qetsim.errors import ProgramSyntaxError, SynthesisError
from qetsim.isa import (Instruction, format_program, parse_program_with_lines,
                        validate_program)
from qetsim.machine import run_program
from qetsim.service import QpfService, _concretize, transform
from qetsim.statevector import RandomSource
from stepping import (fresh_machine, logical_matrix, lowered, prepared, run,
                      rx, rz, without_inits)

RNG = RandomSource(0)


def test_pair_layout():
    assert [pair(q) for q in range(3)] == [(0, 1), (2, 3), (4, 5)]
    lp = LogicalProgram(3, (LogicalGate("MEASURE", (2,)),))
    assert transform_program(lp).s == 6


def test_rx_restriction_matches_textbook_rotation():
    rng = np.random.default_rng(23)
    for theta in rng.uniform(-2 * math.pi, 2 * math.pi, size=100):
        got = logical_matrix(1, lowered("RX", (0,), float(theta)), (0,), RNG)
        assert np.max(np.abs(got - rx(theta))) < 1e-12


def test_rx_pi_flips_with_global_phase():
    got = logical_matrix(1, lowered("RX", (0,), math.pi), (0,), RNG)
    applied = got @ np.array([1, 0])
    assert np.max(np.abs(applied - np.array([0, -1j]))) < 1e-12


def test_rx_zero_is_identity():
    got = logical_matrix(1, lowered("RX", (0,), 0.0), (0,), RNG)
    assert np.max(np.abs(got - np.eye(2))) < 1e-12


def test_rz_restriction_matches_textbook_rotation():
    rng = np.random.default_rng(29)
    for theta in rng.uniform(-2 * math.pi, 2 * math.pi, size=100):
        got = logical_matrix(1, lowered("RZ", (0,), float(theta)), (0,), RNG)
        assert np.max(np.abs(got - rz(theta))) < 1e-12


def test_rz_pi_maps_plus_to_minus():
    got = logical_matrix(1, lowered("RZ", (0,), math.pi), (0,), RNG)
    plus = np.array([1, 1]) / math.sqrt(2)
    minus = np.array([1, -1]) / math.sqrt(2)
    overlap = abs(np.vdot(minus, got @ plus))
    assert abs(overlap - 1) < 1e-12


@pytest.mark.parametrize("ctrl, tgt", itertools.permutations(range(3), 2))
def test_cnot_truth_table_with_single_phase(ctrl, tgt):
    got = logical_matrix(3, lowered("CNOT", (ctrl, tgt)), (ctrl, tgt), RNG)
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                     [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    phases = [got[np.argmax(np.abs(cnot[:, col])), col] for col in range(4)]
    assert all(abs(p - phases[0]) < 1e-9 for p in phases)
    assert np.max(np.abs(got - phases[0] * cnot)) < 1e-9
    # the derived corrections leave no residual phase at all
    assert abs(phases[0] - 1) < 1e-12


def test_cnot_corrections_rederive():
    theta, phi = derive_cnot_corrections()
    assert abs(theta - CNOT_CORRECTION_THETA) < 1e-12
    assert abs(phi - CNOT_CORRECTION_PHI) < 1e-12


def test_decompose_identity():
    assert decompose_su2(np.eye(2)) == (0.0, 0.0, 0.0, 0.0)


def test_decompose_pure_x_rotation_is_canonical():
    rng = np.random.default_rng(31)
    for theta in rng.uniform(0, 2 * math.pi, size=100):
        a, b, c, d = decompose_su2(rx(theta))
        assert a == 0.0 and c == 0.0
        assert abs(b - theta) < 1e-9


def test_decompose_random_unitaries_recompose():
    rng = np.random.default_rng(37)
    for _ in range(200):
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(raw)
        a, b, c, d = decompose_su2(u)
        rebuilt = np.exp(1j * d) * (rz(a) @ rx(b) @ rz(c))
        assert np.max(np.abs(rebuilt - u)) < 1e-10
        assert 0 <= b < 2 * math.pi
        assert 0 <= a < 4 * math.pi and 0 <= c < 4 * math.pi


def test_decompose_rejects_non_unitary():
    # inf, NaN and 1e200 are refused before any product could warn
    for entry in (2, math.inf, math.nan, 1e200):
        with pytest.raises(SynthesisError, match="must be 2x2 unitary"):
            decompose_su2(np.array([[1, 0], [0, entry]], dtype=complex))


def test_transform_empty_program():
    program = transform_program(LogicalProgram(0, ()))
    assert program.s == 0
    assert program.instructions == ()


def test_transform_single_rx_census():
    lp = LogicalProgram(1, (LogicalGate("RX", (0,), theta=math.pi),
                            LogicalGate("MEASURE", (0,))))
    program = transform_program(lp)
    assert program.s == 2
    opcodes = [i.opcode for i in program.instructions]
    # each slot is initialized right before its first use
    assert opcodes == ["INIT", "LOAD", "INIT", "LOAD", "QET", "SAVE", "SAVE",
                       "MEASURE", "MEASURE"]
    qet = program.instructions[4]
    assert abs(qet.theta - (-math.pi)) < 1e-15
    assert validate_program(program) == []


def test_transform_output_reparses_identically():
    lp = LogicalProgram(2, (LogicalGate("RX", (0,), theta=0.7),
                            LogicalGate("CNOT", (0, 1)),
                            LogicalGate("MEASURE", (0,)),
                            LogicalGate("MEASURE", (1,))))
    program = transform_program(lp)
    assert parse_program_with_lines(format_program(program))[0] == program


def _su2_line(q, u):
    entries = " ".join(repr(float(x)) for z in np.reshape(u, -1)
                       for x in (z.real, z.imag))
    return f"SU2 q{q} {entries}"


def test_universality_smoke():
    # an SU2 line is three rotations, which lower to any one-qubit unitary
    rng = np.random.default_rng(41)
    for _ in range(20):
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        target, _ = np.linalg.qr(raw)
        lp = parse_logical_program(f"LQ n=1\n{_su2_line(0, target)}\n")
        assert [op.kind for op in lp.ops] == ["RZ", "RX", "RZ"]
        got = logical_matrix(1, without_inits(transform_program(lp)), (0,),
                             RNG)
        phase = np.vdot(target.reshape(-1), got.reshape(-1))
        phase /= abs(phase)
        assert np.max(np.abs(got - phase * target)) < 1e-9


def test_leakage_check_fresh_encoding():
    machine, _ = run(fresh_machine(2), prepared([0]), RNG)
    assert leakage_check(machine.register, 1)


def test_leakage_check_raw_pair_fails():
    machine, _ = run(fresh_machine(2), [Instruction.init(0, 0),
                                        Instruction.init(1, 0)], RNG)
    assert not leakage_check(machine.register, 1)


def test_leakage_check_after_compiled_circuit():
    rng = np.random.default_rng(47)
    gates = [lowered("RX", (0,), rng.uniform(-3, 3)),
             lowered("RZ", (1,), rng.uniform(-3, 3)),
             lowered("CNOT", (0, 1)),
             lowered("RX", (1,), rng.uniform(-3, 3))]
    machine, _ = run(fresh_machine(4), prepared([0, 1]), RNG)
    for gate in gates:
        machine, _ = run(machine, gate, RNG)
        assert leakage_check(machine.register, 2)


# -- logical program text ----------------------------------------------------


def test_logical_text_roundtrip():
    text = ("LQ n=2\n"
            "RX 1.5707963267948966 q0\n"
            "RZ -0.5 q1\n"
            "CNOT q0 q1\n"
            "MEASURE q0\nMEASURE q1\n")
    lp = parse_logical_program(text)
    assert lp.n == 2
    assert [op.kind for op in lp.ops] == ["RX", "RZ", "CNOT", "MEASURE",
                                          "MEASURE"]
    assert parse_logical_program(_lq_text(lp.n, _lines_of(lp))) == lp


def test_logical_text_su2_line():
    h = 1 / math.sqrt(2)
    text = f"LQ n=1\nSU2 q0 {h} 0.0 {h} 0.0 {h} 0.0 {-h} 0.0\nMEASURE q0\n"
    lp = parse_logical_program(text)
    # RZ(c), RX(b), RZ(a) in the order they run, from e^{id} Rz(a) Rx(b) Rz(c)
    a, b, c, _ = decompose_su2(np.array([[h, h], [h, -h]]))
    assert lp.ops == (LogicalGate("RZ", (0,), theta=c),
                      LogicalGate("RX", (0,), theta=b),
                      LogicalGate("RZ", (0,), theta=a),
                      LogicalGate("MEASURE", (0,)))


def test_logical_text_errors_with_lines():
    text = "LQ n=1\nRX q0\nWIBBLE q0\nMEASURE q5\nRZ 0.5 q2\nSU2 q0 1 0\n"
    with pytest.raises(ProgramSyntaxError) as info:
        parse_logical_program(text)
    lines = [line for line, _ in info.value.issues]
    assert 2 in lines and 3 in lines
    # each operand out of range, and an SU2 short of entries, is an issue
    # at its own line
    assert info.value.issues[2:] == [
        (4, "measured q5 out of range [0, 1)"),
        (5, "gate operand q2 out of range [0, 1)"),
        (6, "SU2 takes a qubit and 8 matrix entries")]
    # a qubit operand is ASCII digits alone
    with pytest.raises(ProgramSyntaxError) as info:
        parse_logical_program("LQ n=1\nRX 0.5 q\u0661\nMEASURE q+0\n")
    assert info.value.issues == [
        (2, "expected an operand like 'q0', got 'q\u0661'"),
        (3, "expected an operand like 'q0', got 'q+0'")]


def test_logical_text_reports_a_bad_number_in_the_isa_form():
    # the machine text's message for the same token, at its own line
    # and next to another line's issue
    text = ("LQ n=1\nRX half q0\nCNOT q0\n"
            "SU2 q0 1 0 0 0 0 zero 1 0\nMEASURE q0\n")
    with pytest.raises(ProgramSyntaxError) as info:
        parse_logical_program(text)
    assert info.value.issues == [
        (2, "expected theta like '0', got 'half'"),
        (3, "CNOT takes two qubits"),
        (4, "expected entry like '0', got 'zero'")]
    with pytest.raises(ProgramSyntaxError) as info:
        parse_program_with_lines("QPU s=0\nQET half\n")
    assert info.value.issues == [(2, "expected theta like '0', got 'half'")]
    # an angle is ASCII and has no digit separator, in both texts
    for token in ("1_0", "\u0663", "\uff11", "1e0_0"):
        with pytest.raises(ProgramSyntaxError) as info:
            parse_logical_program(f"LQ n=1\nRX {token} q0\nPHASE 0 {token} q0\n"
                                  f"SU2 q0 1 0 0 0 0 0 {token} 0\nMEASURE q0\n")
        assert info.value.issues == [
            (2, f"expected theta like '0', got {token!r}"),
            (3, f"expected phi like '0', got {token!r}"),
            (4, f"expected entry like '0', got {token!r}")]
    # exponents, nan and inf read as float reads them
    lp = parse_logical_program("LQ n=1\nRX 25E-2 q0\nMEASURE q0\n")
    assert lp.ops[0].theta == 0.25
    with pytest.raises(ProgramSyntaxError) as info:
        parse_logical_program("LQ n=1\nRZ nan q0\nPHASE 0 -inf q0\n")
    assert info.value.issues == [(2, "theta must be finite"),
                                 (3, "phi must be finite")]


def test_logical_text_with_a_bad_header_checks_no_range():
    # the header's n is unknown, so no operand is out of its range
    with pytest.raises(ProgramSyntaxError) as info:
        parse_logical_program("LQ n=two\nRX 0.5 q3\nMEASURE q3\n")
    assert info.value.issues == [
        (1, "bad header 'n=two': n must be a non-negative integer")]
    # a header value is ASCII digits alone
    for value in ("+2", "1_0", "\u0663"):
        with pytest.raises(ProgramSyntaxError) as info:
            parse_logical_program(f"LQ n={value}\nMEASURE q0\n")
        assert info.value.issues == [
            (1, f"bad header 'n={value}': n must be a non-negative integer")]
    # a bad header line is reported once, not also as an operation
    for text in ("LQ\nMEASURE q0\n", "lq n=2 x\nMEASURE q0\n"):
        with pytest.raises(ProgramSyntaxError) as info:
            parse_logical_program(text)
        assert info.value.issues == [(1, "expected header 'LQ n=<int>'")]
    # a text with no line to read has no header either
    for text in ("", "# only a comment\n"):
        with pytest.raises(ProgramSyntaxError) as info:
            parse_logical_program(text)
        assert info.value.issues == [
            (1, "empty program: expected header 'LQ n=<int>'")]


def test_logical_program_range_check():
    with pytest.raises(SynthesisError):
        LogicalProgram(1, (LogicalGate("RX", (1,), theta=0.1),))
    with pytest.raises(SynthesisError, match="measured q1 out of range"):
        LogicalProgram(1, (LogicalGate("MEASURE", (1,)),))
    with pytest.raises(SynthesisError, match="no angle"):
        LogicalGate("MEASURE", (0,), theta=0.1)


def test_logical_text_reuses_a_qubit_after_its_measure():
    # a measured qubit may be used and measured again, in program order
    text = ("LQ n=2\nMEASURE q0\nRX 3.141592653589793 q0\nRZ 0.5 q1\n"
            "CNOT q1 q0\nMEASURE q1\nMEASURE q1\n")
    lp = parse_logical_program(text)
    assert [(op.kind, op.qubits) for op in lp.ops] == [
        ("MEASURE", (0,)), ("RX", (0,)), ("RZ", (1,)), ("CNOT", (1, 0)),
        ("MEASURE", (1,)), ("MEASURE", (1,))]
    # q0's pair is initialized again before its first use after the MEASURE
    assert format_program(transform_program(lp)).splitlines()[1:9] == [
        "INIT m0 0", "MEASURE m0", "INIT m1 1", "MEASURE m1",
        "INIT m0 0", "LOAD m0 c1", "INIT m1 1", "LOAD m1 c2"]


def _lq_line(kind, *args):
    """A line of logical text from a kind, its angles and its qubits."""
    angles = len(KINDS[kind][1])
    return " ".join([kind, *(repr(a) for a in args[:angles]),
                     *(f"q{q}" for q in args[angles:])])


def _lq_text(n, lines):
    return f"LQ n={n}\n" + "".join(_lq_line(*line) + "\n" for line in lines)


def _lines_of(lp):
    """A program's lines, in program order, without SU2 lines."""
    return [(op.kind, *(a for a in (op.theta, op.phi) if a is not None),
             *op.qubits) for op in lp.ops]


def _request(lp):
    """A program's ops as a service request."""
    return [{"op": op.kind, "qubits": list(op.qubits), "theta": op.theta,
             "phi": op.phi} for op in lp.ops]


@st.composite
def logical_lines(draw):
    """``n`` <= 3 and up to 8 lines of every kind in any order."""
    n = draw(st.integers(1, 3))
    qubit = st.integers(0, n - 1)
    angle = st.sampled_from([0.5, math.pi])
    line = st.one_of(
        st.tuples(st.sampled_from(["RX", "RZ", "QET"]), angle, qubit),
        st.tuples(st.just("PHASE"), angle, angle, qubit),
        st.tuples(st.just("MEASURE"), qubit))
    if n > 1:
        line |= st.tuples(st.sampled_from(["CNOT", "CQET"]),
                          st.permutations(range(n))).map(
            lambda t: (t[0], t[1][0], t[1][1]))
    return n, draw(st.lists(line, max_size=8))


@st.composite
def exact_logical_lines(draw):
    """``n`` <= 4 and up to 12 lines, every outcome of probability 0 or 1:
    RX and QET at a whole multiple of pi, RZ and PHASE at any angles,
    CNOT, CQET and MEASURE, in any order; a last ``MEASURE q0`` makes
    every program a valid request."""
    n = draw(st.integers(1, 4))
    qubit = st.integers(0, n - 1)
    turns = st.integers(-3, 3).map(lambda k: k * math.pi)
    angle = st.floats(-10, 10)
    line = st.one_of(st.tuples(st.sampled_from(["RX", "QET"]), turns, qubit),
                     st.tuples(st.just("RZ"), angle, qubit),
                     st.tuples(st.just("PHASE"), angle, angle, qubit),
                     st.tuples(st.just("MEASURE"), qubit))
    if n > 1:
        line |= st.tuples(st.sampled_from(["CNOT", "CQET"]),
                          st.permutations(range(n))).map(
            lambda t: (t[0], t[1][0], t[1][1]))
    return n, draw(st.lists(line, max_size=12)) + [("MEASURE", 0)]


def _bit_model(lines):
    """``(qubit, bit)`` of each MEASURE of ``exact_logical_lines``' lines.

    Each qubit starts at logical 0 and is back at 0 after a MEASURE.  RX
    and QET at an odd multiple of pi flip the bit, RZ and PHASE never do,
    CNOT flips the target when the control is 1 and CQET, the raw
    controlled transfer, when the control is 0.
    """
    bits = {}
    results = []
    for kind, *args in lines:
        q = args[-1]  # the op's qubit, or the target of CNOT and CQET
        if kind in ("RX", "QET") and round(args[0] / math.pi) % 2:
            bits[q] = 1 - bits.get(q, 0)
        elif kind == "CNOT" and bits.get(args[0], 0):
            bits[q] = 1 - bits.get(q, 0)
        elif kind == "CQET" and not bits.get(args[0], 0):
            bits[q] = 1 - bits.get(q, 0)
        elif kind == "MEASURE":
            results.append((q, bits.pop(q, 0)))
    return results


@settings(max_examples=200)
@given(exact_logical_lines(), st.integers(0, 2 ** 32))
def test_logical_text_with_midcircuit_measure_matches_its_bit_model(program,
                                                                   seed):
    # both front ends lower through one emitter, so the run of the text
    # and the service's reply to the same ops read the same bits
    n, lines = program
    expected = _bit_model(lines)
    lp = parse_logical_program(_lq_text(n, lines))
    records = run_program(transform_program(lp), RandomSource(seed))
    # each readout measures the pair's first slot, then its second
    assert records == [(slot, level) for q, bit in expected
                       for slot, level in zip(pair(q), (bit, 1 - bit))]
    reply = QpfService(seed=seed).submit_request("a", _request(lp))
    assert reply == {"type": "result",
                     "results": [{"qubit": q, "bit": bit}
                                 for q, bit in expected]}


@pytest.mark.parametrize("line, readouts", [
    ("RX 3.141592653589793 q0", [(0, 1), (1, 1)]),
    ("RZ 0.5 q0", [(0, 0), (1, 1)]),
    ("QET 3.141592653589793 q0", [(0, 1), (1, 1)]),
    ("PHASE 0.5 0.25 q1", [(0, 0), (1, 1)]),
    ("CNOT q1 q0", [(0, 1), (1, 1)]),
    ("CQET q0 q1", [(0, 0), (1, 0)]),
    ("MEASURE q1", [(1, 1), (0, 0), (1, 0)]),
], ids=list(KINDS))
def test_each_op_kind_reads_the_same_through_both_front_ends(line, readouts):
    # q1 is set to 1 first, so that each kind's line changes a bit or shows
    # that it does not
    lp = parse_logical_program("LQ n=2\nRX 3.141592653589793 q1\n"
                               f"{line}\nMEASURE q0\nMEASURE q1\n")
    records = run_program(transform_program(lp), RandomSource(0))
    assert [(slot // 2, bit) for slot, bit in records[0::2]] == readouts
    reply = QpfService(seed=0).submit_request("a", _request(lp))
    assert reply == {"type": "result", "results": [
        {"qubit": q, "bit": bit} for q, bit in readouts]}


@settings(max_examples=200)
@given(logical_lines())
def test_logical_text_round_trips_through_its_lines(program):
    lp = parse_logical_program(_lq_text(*program))
    assert parse_logical_program(_lq_text(lp.n, _lines_of(lp))) == lp
    # both front ends' lowerings of the ops always validate
    assert validate_program(transform_program(lp)) == []
    assert validate_program(_concretize(transform(lp.ops, "a"), 0)) == []


# -- random-circuit oracle -----------------------------------------------------


def _embed(n, q, u):
    """``u`` on qubit ``q`` of ``n``; qubit 0 is the most significant bit."""
    return np.kron(np.kron(np.eye(2 ** q), u), np.eye(2 ** (n - 1 - q)))


def _cnot(n, ctrl, tgt):
    dim = 2 ** n
    matrix = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        flip = (col >> (n - 1 - ctrl)) & 1
        matrix[col ^ (flip << (n - 1 - tgt)), col] = 1
    return matrix


@st.composite
def random_circuits(draw):
    """LQ text of ``n`` <= 3 qubits and up to 8 RX, RZ, SU2 and CNOT lines,
    with the textbook matrix of the whole circuit."""
    n = draw(st.integers(1, 3))
    qubit = st.integers(0, n - 1)
    angle = st.floats(-2 * math.pi, 2 * math.pi)
    kinds = ["RX", "RZ", "SU2"] + (["CNOT"] if n > 1 else [])
    lines, expected = [f"LQ n={n}"], np.eye(2 ** n, dtype=complex)
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=8)):
        if kind == "CNOT":
            ctrl, tgt = draw(st.permutations(range(n)))[:2]
            lines.append(f"CNOT q{ctrl} q{tgt}")
            gate = _cnot(n, ctrl, tgt)
        elif kind == "SU2":
            q = draw(qubit)
            raw = np.array(draw(st.lists(st.floats(-1, 1), min_size=8,
                                         max_size=8)))
            u, _ = np.linalg.qr((raw[0::2] + 1j * raw[1::2]).reshape(2, 2))
            lines.append(_su2_line(q, u))
            gate = _embed(n, q, u)
        else:
            theta, q = draw(angle), draw(qubit)
            lines.append(f"{kind} {theta!r} q{q}")
            gate = _embed(n, q, (rx if kind == "RX" else rz)(theta))
        expected = gate @ expected
    return n, "\n".join(lines) + "\n", expected


@settings(max_examples=60)
@given(random_circuits())
def test_random_circuits_lower_to_their_textbook_matrix(circuit):
    n, text, expected = circuit
    program = transform_program(parse_logical_program(text))
    got = logical_matrix(n, without_inits(program), tuple(range(n)), RNG)
    # each basis input keeps all its mass on encoded states: none has
    # left the per-pair one-excitation span or stayed in a cell
    assert np.max(np.abs(np.linalg.norm(got, axis=0) - 1)) < 1e-9
    phase = np.vdot(expected.reshape(-1), got.reshape(-1))
    phase /= abs(phase)
    assert np.max(np.abs(got - phase * expected)) < 1e-9
