"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import math
import threading
import time

import numpy as np

from qetsim.compiler import (LogicalGate, LogicalProgram, decompose_su2,
                             encode_init, leakage_check,
                             synthesize_logical_cnot, transform_program)
from qetsim.dynamics import CavityAtomParams, integrate_two_level, rabi_coefficients
from qetsim.gates import cqet_matrix, phase_matrix, qet_matrix
from qetsim.isa import Instruction
from qetsim.machine import fresh_machine, run_program
from qetsim.protocol import (ProtocolInput, assemble_state, run_protocol,
                             step_term_trace, verify_against_cqet)
from qetsim.service import (EmulatorBackend, ExecutionBatch, QpfService,
                            Segment, _concretize, analyze, dispatch,
                            demux_results, encode_message, parse_client_ops,
                            transform)
from qetsim.statevector import RandomSource, is_unitary
from reference_tables import (LINEAGES, PHYSICAL_STEPS, REFERENCE_STEPS,
                              semantic_config)
from stepping import logical_matrix, occupied, rotation, run, rx, rz, steps


class _Timer:
    def __init__(self, budget):
        self.budget = budget
        self.start = time.perf_counter()

    def check(self, label):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.budget, (
            f"{label} took {elapsed:.2f}s, budget {self.budget}s")
        return elapsed


def test_criterion_1_gate_algebra():
    timer = _Timer(1.0)
    rng = np.random.default_rng(101)
    for theta in rng.uniform(-20, 20, size=1000):
        assert is_unitary(qet_matrix(theta))
        assert is_unitary(phase_matrix(theta, rng.uniform(-20, 20)))
    assert is_unitary(cqet_matrix())

    transferred = qet_matrix(math.pi).entries @ np.eye(4)[:, 1]
    expected = np.zeros(4, dtype=complex)
    expected[2] = 1j
    assert np.max(np.abs(transferred - expected)) < 1e-12

    for a, b in rng.uniform(-10, 10, size=(200, 2)):
        product = qet_matrix(a).entries @ qet_matrix(b).entries
        assert np.max(np.abs(product - qet_matrix(a + b).entries)) < 1e-12
    elapsed = timer.check("criterion 1")
    print(f"\n[PASS] criterion 1: gate algebra ({elapsed:.2f}s)")


def test_criterion_2_excitation_conservation():
    timer = _Timer(1.0)

    def weight(index):
        return bin(index).count("1")

    rng = np.random.default_rng(102)
    matrices = [cqet_matrix().entries]
    for _ in range(100):
        matrices.append(qet_matrix(rng.uniform(-10, 10)).entries)
        matrices.append(phase_matrix(rng.uniform(-10, 10),
                                     rng.uniform(-10, 10)).entries)
    for matrix in matrices:
        n = matrix.shape[0]
        for row in range(n):
            for col in range(n):
                if weight(row) != weight(col):
                    assert abs(matrix[row, col]) < 1e-15
    elapsed = timer.check("criterion 2")
    print(f"[PASS] criterion 2: excitation conservation ({elapsed:.2f}s)")


def test_criterion_3_dynamics_oracle():
    timer = _Timer(10.0)
    rng = np.random.default_rng(103)
    for _ in range(100):
        a = rng.normal() + 1j * rng.normal()
        b = rng.normal() + 1j * rng.normal()
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        a, b = a / norm, b / norm
        p = CavityAtomParams(
            kappa=complex(rng.uniform(0, 2), rng.uniform(-1, 1)),
            omega_a=rng.uniform(-2, 2), omega_b=rng.uniform(-2, 2),
            t=rng.uniform(0, 5))
        closed = rabi_coefficients(a, b, p)
        numeric = integrate_two_level(a, b, p)
        assert abs(closed[0] - numeric[0]) < 1e-6
        assert abs(closed[1] - numeric[1]) < 1e-6

    kappa = 1.3
    p = CavityAtomParams(kappa, 0.7, 0.7, math.pi / (2 * kappa))
    c1, c2 = rabi_coefficients(1.0, 0.0, p)
    assert abs(abs(c2) ** 2 - 1) < 1e-9

    kappa, delta = 0.8, 1.3
    omega = math.sqrt(0.25 * delta ** 2 + kappa ** 2)
    times = np.linspace(0, math.pi / omega, 20001)
    peak = 0.0
    for t in times[np.linspace(0, 20000, 201, dtype=int)]:
        p = CavityAtomParams(kappa, delta / 2, -delta / 2, float(t))
        peak = max(peak, abs(integrate_two_level(1.0, 0.0, p, steps=256)[1]) ** 2)
    # refine around the analytic peak time with the closed form
    dense = np.abs([rabi_coefficients(1.0, 0.0, CavityAtomParams(
        kappa, delta / 2, -delta / 2, float(t)))[1] for t in times]) ** 2
    peak = max(peak, float(dense.max()))
    expected = 4 * kappa ** 2 / (delta ** 2 + 4 * kappa ** 2)
    assert abs(peak - expected) < 1e-6
    elapsed = timer.check("criterion 3")
    print(f"[PASS] criterion 3: dynamics oracle ({elapsed:.2f}s)")


def test_criterion_4_protocol_oracle():
    timer = _Timer(10.0)
    inp = ProtocolInput(0.5, 0.5, 0.5, 0.5)
    result = run_protocol(inp, "ideal")
    trace = step_term_trace("ideal")
    assert len(result.intermediates) == len(PHYSICAL_STEPS) == 11
    for state, terms, physical, relabeled in zip(
            result.intermediates, trace, PHYSICAL_STEPS, REFERENCE_STEPS):
        # simulator state equals the term-pattern state exactly
        expected = assemble_state(terms, inp)
        assert np.max(np.abs(state.amps - expected.amps)) < 1e-12
        for lineage in LINEAGES:
            config, phase = terms[lineage]
            assert config == physical[lineage]
            assert phase == 1.0
            # and the pattern survives the storage-label relabeling
            assert (semantic_config(config, lineage)
                    == semantic_config(relabeled[lineage], lineage))

    report = verify_against_cqet(100, "ideal", seed=104)
    assert report.transfer_infidelity < 1e-10

    transfer = run_protocol(ProtocolInput(0, 1, 0, 0), "ideal")
    kept = run_protocol(ProtocolInput(0, 0, 1, 0), "ideal")
    from qetsim.protocol import frame_vector
    assert abs(frame_vector(transfer.final)[0b010] - 1) < 1e-12
    assert abs(frame_vector(kept.final)[0b110] - 1) < 1e-12
    elapsed = timer.check("criterion 4")
    print(f"[PASS] criterion 4: protocol oracle ({elapsed:.2f}s)")


def test_criterion_5_logical_layer():
    timer = _Timer(30.0)
    rng = RandomSource(105)
    draws = np.random.default_rng(105).uniform(-2 * math.pi, 2 * math.pi, 100)
    for theta in draws:
        got = logical_matrix(1, rotation("RX", 0, float(theta)), (0,), rng)
        assert np.max(np.abs(got - rx(theta))) < 1e-12
        got = logical_matrix(1, rotation("RZ", 0, float(theta)), (0,), rng)
        assert np.max(np.abs(got - rz(theta))) < 1e-12

    got = logical_matrix(2, synthesize_logical_cnot(0, 1), (0, 1), rng)
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                     [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    phases = [got[int(np.argmax(np.abs(cnot[:, col]))), col]
              for col in range(4)]
    assert all(abs(p - phases[0]) < 1e-9 for p in phases)
    assert np.max(np.abs(got - phases[0] * cnot)) < 1e-9

    sampler = np.random.default_rng(205)
    for _ in range(200):
        raw = sampler.normal(size=(2, 2)) + 1j * sampler.normal(size=(2, 2))
        u, _ = np.linalg.qr(raw)
        a, b, c, d = decompose_su2(u)
        rebuilt = np.exp(1j * d) * (rz(a) @ rx(b) @ rz(c))
        assert np.max(np.abs(rebuilt - u)) < 1e-10

    circuit_rng = np.random.default_rng(305)
    for _ in range(20):
        n = int(circuit_rng.integers(1, 4))
        prep = []
        for q in range(n):
            prep += encode_init(q, int(circuit_rng.integers(0, 2)))
        machine, _ = run(fresh_machine(2 * n), prep, rng)
        for _ in range(5):
            kind = circuit_rng.choice(["RX", "RZ", "CNOT"] if n > 1
                                      else ["RX", "RZ"])
            if kind in ("RX", "RZ"):
                gate = rotation(kind, int(circuit_rng.integers(0, n)),
                                float(circuit_rng.uniform(-3, 3)))
            else:
                ctrl, tgt = circuit_rng.choice(n, size=2, replace=False)
                gate = synthesize_logical_cnot(int(ctrl), int(tgt))
            machine, _ = run(machine, gate, rng)
            assert leakage_check(machine.register, n)
    elapsed = timer.check("criterion 5")
    print(f"[PASS] criterion 5: logical layer ({elapsed:.2f}s)")


def test_criterion_6_statistics():
    timer = _Timer(30.0)
    plus = LogicalProgram(1, (LogicalGate("RX", (0,), theta=math.pi / 2),
                              LogicalGate("MEASURE", (0,))))
    program = transform_program(plus)
    rng = RandomSource(106)
    zeros = 0
    shots = 10000
    for _ in range(shots):
        results = run_program(program, rng)
        zeros += results[0][1] == 0
    assert 0.48 <= zeros / shots <= 0.52

    bell = LogicalProgram(2, (LogicalGate("RX", (0,), theta=math.pi / 2),
                              LogicalGate("CNOT", (0, 1)),
                              LogicalGate("MEASURE", (0,)),
                              LogicalGate("MEASURE", (1,))))
    program = transform_program(bell)
    rng = RandomSource(206)
    equal = 0
    for _ in range(shots):
        results = run_program(program, rng)
        bits = dict(results)
        # logical bits read from the first slot of each pair
        equal += bits[0] == bits[2]
    assert equal / shots >= 0.98
    elapsed = timer.check("criterion 6")
    print(f"[PASS] criterion 6: statistics ({elapsed:.2f}s)")


def test_criterion_7_service_end_to_end():
    timer = _Timer(30.0)

    # concurrent clients each get exactly their own results
    service = QpfService(seed=107)
    programs = {
        "a": ([{"op": "MEASURE", "qubits": [0]}], {0: 0}),
        "b": ([{"op": "QET", "qubits": [0], "theta": math.pi},
               {"op": "MEASURE", "qubits": [0]}], {0: 1}),
        "c": ([{"op": "QET", "qubits": [1], "theta": math.pi},
               {"op": "MEASURE", "qubits": [0]},
               {"op": "MEASURE", "qubits": [1]}], {0: 0, 1: 1}),
    }
    failures = []

    def client(name):
        ops, expected = programs[name]
        for _ in range(10):
            response = service.submit_request(name, ops)
            got = {entry["qubit"]: entry["bit"]
                   for entry in response.get("results", [])}
            if got != expected:
                failures.append((name, response))

    threads = [threading.Thread(target=client, args=(name,))
               for name in programs]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert failures == []
    assert service._pending == {} and not service._queue

    # trace-level isolation: live slots inside each segment belong to
    # exactly one client's addresses, and nothing stays live at the end
    segments = []
    for request_id, (name, (raw, _)) in enumerate(programs.items()):
        ops = analyze(parse_client_ops(raw))
        segments.append(transform(ops, name, request_id))
    rng = RandomSource(7)
    for segment in segments:
        owned_slots = set(segment.slots.values())
        program = _concretize(segment, 0)
        machine = fresh_machine(program.s)
        for _, machine, _ in steps(machine, program.instructions, rng):
            live = {p for p in occupied(machine) if p < program.s}
            assert live <= owned_slots
        assert not occupied(machine)

    # determinism: fixed seed and arrival order give identical bytes
    def transcript():
        svc = QpfService(seed=1107)
        lines = []
        for name, (raw, _) in programs.items():
            lines.append(encode_message(svc.submit_request(name, raw)))
        return "\n".join(lines)

    assert transcript() == transcript()

    # a failing segment does not poison its siblings
    ops_a = analyze(parse_client_ops(programs["a"][0]))
    seg_a = transform(ops_a, "a", 0)
    broken = Segment("x", 1, [Instruction.qet(1.0), Instruction.measure(0)],
                     {0: 0}, [0])
    seg_c = transform(ops_a, "c", 2)
    outcomes = dispatch(ExecutionBatch([seg_a, broken, seg_c]),
                        EmulatorBackend(seed=3))
    responses = demux_results(outcomes)
    assert responses[("a", 0)]["type"] == "result"
    assert responses[("x", 1)]["type"] == "error"
    assert responses[("c", 2)]["type"] == "result"
    elapsed = timer.check("criterion 7")
    print(f"[PASS] criterion 7: service end-to-end ({elapsed:.2f}s)")
