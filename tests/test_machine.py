import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qetsim.compiler import parse_logical_program, transform_program
from qetsim.errors import DimensionError, ProgramSyntaxError, QpuRuntimeError
from qetsim.gates import cqet_matrix
from qetsim.isa import (Instruction, QuantumProgram, format_program,
                        parse_program_with_lines, validate_program)
from qetsim.machine import fresh_machine, run_program, shot_plan
from qetsim.statevector import LocalUnitary, RandomSource
from stepping import occupied, run, steps

GOLDEN = Path(__file__).parent / "golden"


def _occupancy_violated(machine):
    """Probability mass on |1> at any unoccupied position."""
    n = len(machine.register.shape)
    amps = machine.register.amps
    for position in set(range(n)) - occupied(machine):
        indices = np.arange(len(amps))
        mask = (indices >> (n - 1 - position)) & 1 == 1
        if np.sum(np.abs(amps[mask]) ** 2) > 1e-12:
            return True
    return False


def test_init_marks_slot_and_keeps_register():
    [(_, machine, outcome)] = steps(fresh_machine(2), [Instruction.init(0, 0)],
                                    RandomSource(0))
    assert occupied(machine) == {0}
    assert machine.register.amps[0] == 1
    assert outcome is None


def test_init_one_prepares_excited_slot():
    machine, _ = run(fresh_machine(1), [Instruction.init(0, 1)],
                     RandomSource(0))
    index = np.ravel_multi_index((1, 0, 0, 0), machine.register.shape)
    assert machine.register.amps[index] == 1


def test_load_from_empty_slot_is_error():
    program = [Instruction.init(0, 0), Instruction.load(0, 1),
               Instruction.load(0, 2)]
    with pytest.raises(QpuRuntimeError, match="unoccupied") as info:
        run(fresh_machine(2), program, RandomSource(0))
    assert info.value.index == 2
    assert info.value.opcode == "LOAD"


def test_transfer_pipeline_matches_dense_oracle():
    # INIT m0 0; INIT m1 1; LOAD m0 c1; LOAD m1 c2; QET(pi); SAVE x2;
    # expected register computed by composing 32-dim kronecker matrices
    def swap_on(i, j, n=5):
        m = np.eye(2 ** n, dtype=complex)
        out = np.zeros_like(m)
        for col in range(2 ** n):
            bits = [(col >> (n - 1 - k)) & 1 for k in range(n)]
            bits[i], bits[j] = bits[j], bits[i]
            row = sum(b << (n - 1 - k) for k, b in enumerate(bits))
            out[row, col] = 1
        return out

    def x_on(i, n=5):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        ops = [np.eye(2, dtype=complex)] * n
        ops[i] = x
        full = ops[0]
        for op in ops[1:]:
            full = np.kron(full, op)
        return full

    def qet_on(i, j, theta, n=5):
        # embed the 4x4 transfer on qubits i, j of an n-qubit register
        out = np.zeros((2 ** n, 2 ** n), dtype=complex)
        block = np.eye(4, dtype=complex)
        c, s = np.cos(theta / 2), 1j * np.sin(theta / 2)
        block[1, 1] = block[2, 2] = c
        block[1, 2] = block[2, 1] = s
        for col in range(2 ** n):
            bits = [(col >> (n - 1 - k)) & 1 for k in range(n)]
            sub_in = bits[i] * 2 + bits[j]
            for sub_out in range(4):
                amp = block[sub_out, sub_in]
                if amp == 0:
                    continue
                new_bits = list(bits)
                new_bits[i], new_bits[j] = sub_out >> 1, sub_out & 1
                row = sum(b << (n - 1 - k) for k, b in enumerate(new_bits))
                out[row, col] += amp
        return out

    start = np.zeros(32, dtype=complex)
    start[0] = 1
    expected = (swap_on(4, 1) @ swap_on(3, 0) @ qet_on(3, 4, np.pi)
                @ swap_on(1, 4) @ swap_on(0, 3) @ x_on(1) @ start)

    rng = RandomSource(5)
    machine, _ = run(fresh_machine(2), [
        Instruction.init(0, 0), Instruction.init(1, 1),
        Instruction.load(0, 1), Instruction.load(1, 2),
        Instruction.qet(np.pi),
        Instruction.save(1, 0), Instruction.save(2, 1),
    ], rng)
    assert np.max(np.abs(machine.register.amps - expected)) < 1e-12

    machine, results = run(machine, [Instruction.measure(0)], rng)
    assert results == [(0, 1)]


def test_load_save_roundtrip_is_identity():
    rng = RandomSource(2)
    machine, _ = run(fresh_machine(2), [Instruction.init(0, 1),
                                        Instruction.init(1, 0)], rng)
    before = machine.register.amps.copy()
    machine, _ = run(machine, [Instruction.load(0, 1),
                               Instruction.save(1, 0)], rng)
    assert np.array_equal(machine.register.amps, before)
    assert occupied(machine) == {0, 1}


def test_occupancy_invariant_along_program():
    rng = RandomSource(13)
    program = [
        Instruction.init(0, 1), Instruction.init(1, 0),
        Instruction.load(0, 1), Instruction.load(1, 2),
        Instruction.qet(0.7), Instruction.phase(0.3, 1.1),
        Instruction.save(1, 0), Instruction.save(2, 1),
        Instruction.measure(0), Instruction.measure(1),
    ]
    for _, machine, _ in steps(fresh_machine(3), program, rng):
        assert not _occupancy_violated(machine)


def test_measure_resets_slot_to_zero():
    machine, results = run(fresh_machine(1), [Instruction.init(0, 1),
                                              Instruction.measure(0)],
                           RandomSource(1))
    assert results == [(0, 1)]
    assert occupied(machine) == set()
    assert machine.register.amps[0] == 1


def test_register_width_limited_to_int64_index():
    with pytest.raises(DimensionError, match="64 positions"):
        fresh_machine(61)
    # the widest register: m0 is bit 62, and its excitation reaches m59
    rng = RandomSource(0)
    machine, _ = run(fresh_machine(60), [Instruction.init(0, 1)], rng)
    assert machine.indices.tolist() == [1 << 62]
    machine, results = run(machine, [Instruction.load(0, 1),
                                     Instruction.save(1, 59),
                                     Instruction.measure(59)], rng)
    assert results == [(59, 1)]
    assert machine.indices.tolist() == [0]


def test_fresh_register_is_shared_and_stays_empty():
    # every fresh machine and every shot starts from one read-only register
    first, second = fresh_machine(2), fresh_machine(7)
    assert first.amps is second.amps and first.indices is second.indices
    assert not first.amps.flags.writeable
    assert not first.indices.flags.writeable
    program = QuantumProgram(1, (Instruction.init(0, 1),
                                 Instruction.measure(0)))
    assert run_program(program, RandomSource(0)) == [(0, 1)]
    assert (first.indices.tolist(), first.amps.tolist()) == ([0], [1])
    # a register too wide is refused on every run, since no plan is kept
    wide = QuantumProgram(61, (Instruction.init(0, 1),))
    for _ in range(2):
        with pytest.raises(DimensionError, match="64 positions"):
            run_program(wide, RandomSource(0))


def test_ghz_ladder_support_stays_two():
    # compiled CNOTs use exact full transfers, which leave no remnant
    # entries behind, so the support never exceeds the GHZ state's
    n = 12
    program = transform_program(parse_logical_program(
        f"LQ n={n}\nRX 1.5707963267948966 q0\n"
        + "".join(f"CNOT q{q} q{q + 1}\n" for q in range(n - 1))
        + "".join(f"MEASURE q{q}\n" for q in range(n))))
    trace = list(steps(fresh_machine(program.s), program.instructions,
                       RandomSource(3)))
    assert max(len(machine.indices) for _, machine, _ in trace) == 2
    bits = [outcome for _, _, outcome in trace if outcome is not None]
    assert bits[::2] in ([0] * n, [1] * n)


def test_run_program_empty():
    assert run_program(QuantumProgram(0, ()), RandomSource(0)) == []


def test_run_program_measure_uninitialized_fails_with_index():
    program = QuantumProgram(2, (Instruction.init(0, 0),
                                 Instruction.measure(1)))
    with pytest.raises(QpuRuntimeError) as info:
        run_program(program, RandomSource(0))
    assert info.value.index == 1


def test_run_program_deterministic_per_seed():
    program, _ = parse_program_with_lines(
        "QPU s=2\n"
        "INIT m0 0\nINIT m1 1\n"
        "LOAD m0 c1\nLOAD m1 c2\n"
        "QET 0.9\nSAVE c1 m0\nSAVE c2 m1\n"
        "MEASURE m0\nMEASURE m1\n")
    runs = []
    for _ in range(2):
        results = [run_program(program, RandomSource(77))
                   for _ in range(50)]
        runs.append(results)
    assert runs[0] == runs[1]


def _reuse_program():
    """A machine program that measures a slot and uses it again."""
    return parse_program_with_lines((GOLDEN / "reuse.qpu").read_text())[0]


def _copy(program):
    return QuantumProgram(program.s, program.instructions)


def test_one_program_object_runs_as_fresh_copies():
    # the plan is kept on the program: another program over as many slots
    # runs between the shots, and must neither see nor replace it
    program = _reuse_program()
    other = QuantumProgram(program.s, (Instruction.init(2, 1),
                                       Instruction.load(2, 1),
                                       Instruction.save(1, 0),
                                       Instruction.measure(0)))
    kept_rng, fresh_rng = RandomSource(11), RandomSource(11)
    kept, fresh = [], []
    for _ in range(40):
        kept.append(run_program(program, kept_rng))
        kept.append(run_program(other, kept_rng))
        fresh.append(run_program(_copy(program), fresh_rng))
        fresh.append(run_program(_copy(other), fresh_rng))
    assert kept == fresh
    assert len({tuple(results) for results in kept[::2]}) > 1
    assert kept_rng._gen.random() == fresh_rng._gen.random()


def test_issue_after_measure_raises_at_same_index_on_every_run():
    program = _reuse_program()
    bad = len(program.instructions)
    program = QuantumProgram(program.s, program.instructions
                             + (Instruction.measure(1),))
    kept_rng, fresh_rng = RandomSource(3), RandomSource(3)
    for _ in range(2):
        with pytest.raises(QpuRuntimeError, match="m1 unoccupied") as info:
            run_program(program, kept_rng)
        assert info.value.index == bad
        with pytest.raises(QpuRuntimeError):
            run_program(_copy(program), fresh_rng)
    # the steps before the issue drew the same uniforms on every run
    assert kept_rng._gen.random() == fresh_rng._gen.random()


def test_shot_plan_keeps_only_what_touches_the_register():
    # slot moves and INIT 0 are resolved when the plan is built
    bell = transform_program(parse_logical_program(
        (GOLDEN / "bell.lq").read_text()))
    ghz = transform_program(parse_logical_program(
        (GOLDEN / "ghz7.lq").read_text()))
    assert (bell.t, len(shot_plan(bell))) == (31, 11)
    assert (ghz.t, len(shot_plan(ghz))) == (141, 46)
    assert shot_plan(bell) is shot_plan(bell)


def test_planned_gates_are_read_only():
    gates = [step[1] for step in shot_plan(_reuse_program())
             if isinstance(step[1], LocalUnitary)]
    assert len(gates) == 6
    for gate in gates:
        with pytest.raises(ValueError):
            gate.entries[0, 0] = 0


def test_cqet_matrix_is_one_instance():
    assert cqet_matrix() is cqet_matrix()


def test_cqet_requires_three_cells():
    program = QuantumProgram(2, (Instruction.init(0, 0),
                                 Instruction.load(0, 1),
                                 Instruction.cqet()))
    with pytest.raises(QpuRuntimeError, match="c0, c1, c2"):
        run_program(program, RandomSource(0))


def test_nonzero_transistor_rejected_at_runtime():
    program = QuantumProgram(1, (Instruction.init(0, 0),
                                 Instruction.load(0, 1),
                                 Instruction.qet(1.0, transistor_id=3)))
    with pytest.raises(QpuRuntimeError, match="t3"):
        run_program(program, RandomSource(0))


# -- static validation -------------------------------------------------------


def test_validate_well_formed_program():
    program, _ = parse_program_with_lines(
        "QPU s=2\nINIT m0 0\nINIT m1 1\nLOAD m0 c1\nLOAD m1 c2\n"
        "QET 3.14\nSAVE c1 m0\nSAVE c2 m1\nMEASURE m0\n")
    assert validate_program(program) == []


def test_validate_address_out_of_range():
    program = QuantumProgram(2, (Instruction.init(2, 0),))
    issues = validate_program(program)
    assert issues and "out of range" in issues[0][1]


def test_validate_gate_before_load():
    program = QuantumProgram(2, (Instruction.qet(1.0),))
    issues = validate_program(program)
    assert issues and "unoccupied" in issues[0][1]


def test_validate_collects_multiple_issues():
    program = QuantumProgram(1, (
        Instruction.qet(1.0),
        Instruction.measure(0),
        Instruction.init(0, 0),
        Instruction.init(0, 0),
    ))
    issues = validate_program(program)
    assert [index for index, _ in issues] == [0, 1, 3]


def test_validate_keeps_flags_only_for_named_slots():
    # one flag per declared slot would take about 80 MB at this size
    program = QuantumProgram(10 ** 7, (Instruction.init(0, 0),))
    tracemalloc.start()
    try:
        issues = validate_program(program)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert issues == []
    assert peak < 1 << 20


def test_validate_unknown_transistor():
    program = QuantumProgram(1, (Instruction.cqet(transistor_id=2),))
    issues = validate_program(program)
    assert any("t2" in message for _, message in issues)


# -- program text ------------------------------------------------------------


def test_parse_format_roundtrip():
    text = ("QPU s=3\n"
            "INIT m0 0\nINIT m1 1\n"
            "LOAD m0 c1\nLOAD m1 c2\n"
            "QET 1.25 t0\nPHASE 0.5 -0.25 t0\n"
            "SAVE c1 m0\nSAVE c2 m1\nMEASURE m0\n")
    program, _ = parse_program_with_lines(text)
    again, _ = parse_program_with_lines(format_program(program))
    assert again == program


def test_parse_case_insensitive_and_comments():
    program, _ = parse_program_with_lines(
        "qpu s=1  # header\n"
        "# a comment line\n"
        "init m0 1\n"
        "measure m0  # trailing\n")
    assert program.s == 1
    assert [i.opcode for i in program.instructions] == ["INIT", "MEASURE"]


def test_parse_reports_every_bad_line():
    text = "QPU s=1\nINIT m0 0\nQET\nBLORP m0\nMEASURE m0\n"
    with pytest.raises(ProgramSyntaxError) as info:
        parse_program_with_lines(text)
    lines = [line for line, _ in info.value.issues]
    assert lines == [3, 4]
    assert "missing parameter theta" in info.value.issues[0][1]
    # an operand is ASCII digits alone
    with pytest.raises(ProgramSyntaxError) as info:
        parse_program_with_lines(
            "QPU s=1\nINIT m\u0663 0\nLOAD m0 c+1\nQET 1.0 t1_0\n")
    assert info.value.issues == [
        (2, "expected memory_addr like 'm0', got 'm\u0663'"),
        (3, "expected cell like 'c0', got 'c+1'"),
        (4, "expected transistor_id like 't0', got 't1_0'")]
    # an angle is float's ASCII grammar without the digit separator
    with pytest.raises(ProgramSyntaxError) as info:
        parse_program_with_lines(
            "QPU s=0\nQET 1_0\nQET \u0663\nPHASE 0.5 \uff11\nQET 1e0_0\n")
    assert info.value.issues == [
        (2, "expected theta like '0', got '1_0'"),
        (3, "expected theta like '0', got '\u0663'"),
        (4, "expected phi like '0', got '\uff11'"),
        (5, "expected theta like '0', got '1e0_0'")]
    # exponents, nan and inf read as float reads them; the instruction
    # check then refuses an angle that is not finite
    program, _ = parse_program_with_lines("QPU s=0\nQET -2.5E-1\nQET .5\n")
    assert [i.theta for i in program.instructions] == [-0.25, 0.5]
    with pytest.raises(ProgramSyntaxError) as info:
        parse_program_with_lines("QPU s=0\nQET nan\nQET -Infinity\n")
    assert info.value.issues == [
        (2, "theta must be a finite float, got nan"),
        (3, "theta must be a finite float, got -inf")]


def test_parse_missing_header():
    with pytest.raises(ProgramSyntaxError, match="QPU"):
        parse_program_with_lines("INIT m0 0\n")
    # a text with no line to read has no header either
    for text in ("", "# only a comment\n"):
        with pytest.raises(ProgramSyntaxError) as info:
            parse_program_with_lines(text)
        assert info.value.issues == [
            (1, "empty program: expected header 'QPU s=<int>'")]
    # a bad header line is reported once, not also as an instruction
    for text in ("QPU\nINIT m0 0\n", "qpu s=1 x\nINIT m0 0\n"):
        with pytest.raises(ProgramSyntaxError) as info:
            parse_program_with_lines(text)
        assert info.value.issues == [(1, "expected header 'QPU s=<int>'")]
    # a header value is ASCII digits alone
    for value in ("1_0", "+1", "\u0661"):
        with pytest.raises(ProgramSyntaxError) as info:
            parse_program_with_lines(f"QPU s={value}\nINIT m0 0\n")
        assert info.value.issues == [
            (1, f"bad header 's={value}': s must be a non-negative integer")]


def test_parse_records_source_lines():
    program, lines = parse_program_with_lines(
        "QPU s=1\n\n# gap\nINIT m0 0\nMEASURE m0\n")
    assert lines == (4, 5)
    assert program.t == 2


def test_instruction_field_discipline():
    with pytest.raises(ValueError):
        Instruction("QET", theta=1.0, transistor_id=0, memory_addr=0)
    with pytest.raises(ValueError):
        Instruction("INIT", memory_addr=0)
    with pytest.raises(ValueError):
        Instruction.qet(float("nan"))


@pytest.mark.parametrize("make, message", [
    (lambda: Instruction.init(0, True), "init_value must be 0 or 1, got True"),
    (lambda: Instruction.load(3.0, 1), "memory_addr must be a non-negative "
                                       "integer, got 3.0"),
    (lambda: Instruction.save(1.0, 0), "cell must be 0, 1 or 2, got 1.0"),
    (lambda: Instruction.measure(0.0), "memory_addr must be a non-negative "
                                       "integer, got 0.0"),
    (lambda: Instruction.cqet(False), "transistor_id must be a non-negative "
                                      "integer, got False"),
    (lambda: Instruction("QET", theta=True, transistor_id=0),
     "theta must be a finite float, got True"),
    (lambda: Instruction("PHASE", theta=0.5, phi=2 ** 53 + 1, transistor_id=0),
     "phi must be a finite float, got 9007199254740993"),
])
def test_operands_of_the_wrong_type_are_refused(make, message):
    # True and 3.0 equal 1 and 3, but would format as text the parser
    # refuses, and 3.0 cannot index the machine's bit layout
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()
