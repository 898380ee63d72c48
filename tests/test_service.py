import gc
import json
import math
import random
import threading
import tracemalloc
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qetsim.compiler import TEMPLATES, parse_logical_program, transform_program
from qetsim.errors import ServiceError
from qetsim.isa import (Instruction, QuantumProgram, format_instruction,
                        format_program)
from qetsim.service import (MAX_LINE_BYTES, QUBIT_BUDGET, SUPPORT_BUDGET,
                            EmulatorBackend, ExecutionBatch, QpfService, Segment,
                            analyze, buffer_and_batch,
                            demux_results, dispatch, _concretize,
                            encode_message, parse_client_ops, serve_stdio,
                            support_exponent, transform)
from qetsim.statevector import RandomSource
from stepping import fresh_machine, run, steps

BELL_OPS = [
    {"op": "QET", "qubits": [0], "theta": -math.pi / 2},
    {"op": "QET", "qubits": [0], "theta": math.pi},
    {"op": "CQET", "qubits": [0, 1]},
    {"op": "PHASE", "qubits": [0], "theta": math.pi / 2,
     "phi": 3 * math.pi / 2},
    {"op": "QET", "qubits": [0], "theta": math.pi},
    {"op": "MEASURE", "qubits": [0]},
    {"op": "MEASURE", "qubits": [1]},
]


def _ops(raw):
    return parse_client_ops(raw)


def _segment(client, raw, request_id=0):
    return transform(analyze(_ops(raw)), client, request_id)


# -- analysis ----------------------------------------------------------------


def test_analyze_missing_theta_names_op_index():
    with pytest.raises(ServiceError) as info:
        analyze(_ops([{"op": "QET", "qubits": [0]},
                      {"op": "MEASURE", "qubits": [0]}]))
    assert info.value.errors[0][0] == 0
    assert "missing parameter" in info.value.errors[0][1]


def test_analyze_accepts_two_qubit_request():
    ops = analyze(_ops([{"op": "QET", "qubits": [0], "theta": 0.3},
                        {"op": "CQET", "qubits": [0, 1]},
                        {"op": "MEASURE", "qubits": [0]},
                        {"op": "MEASURE", "qubits": [1]}]))
    assert len(ops) == 4


def test_analyze_rejects_address_beyond_budget():
    with pytest.raises(ServiceError) as info:
        analyze(_ops([{"op": "CQET", "qubits": [0, 99999]},
                      {"op": "MEASURE", "qubits": [0]}]))
    assert info.value.errors[0][1] == ("qubit address 99999 outside declared "
                                       f"range [0, {QUBIT_BUDGET})")
    assert QUBIT_BUDGET == 256


def test_analyze_rejects_measure_free_request():
    with pytest.raises(ServiceError, match="no MEASURE"):
        analyze(_ops([{"op": "QET", "qubits": [0], "theta": 1.0}]))


def test_analyze_rejects_stray_parameters():
    with pytest.raises(ServiceError, match="no angle"):
        analyze(_ops([{"op": "MEASURE", "qubits": [0], "theta": 1.0}]))


def test_parse_rejects_malformed_descriptors():
    with pytest.raises(ServiceError):
        parse_client_ops([{"op": "NOPE", "qubits": [0]}])
    with pytest.raises(ServiceError):
        parse_client_ops([{"op": "QET", "qubits": "zero", "theta": 1.0}])
    with pytest.raises(ServiceError):
        parse_client_ops("not a list")


# -- transformation ----------------------------------------------------------


def test_transform_allocates_pair_per_logical_qubit():
    segment = _segment("alice", [{"op": "MEASURE", "qubits": [0]}])
    assert segment.slots == {(0, 0): 0, (0, 1): 1}
    # each slot is initialized to its encoded bit (logical 0 is |01>)
    assert format_program(QuantumProgram(2, segment.instructions)).splitlines()[1:] == [
        "INIT m0 0", "MEASURE m0", "INIT m1 1", "MEASURE m1"]
    assert segment.measured == [0]


# Recorded from the earlier two-pass lowering (global addresses first, then
# slots and INITs in _concretize).  q0 is the CQET control: its second slot
# is first used at its readout, and both qubits are measured, then used
# again.
LOWERED_OPS = [{"op": "QET", "qubits": [2], "theta": 0.25},
               {"op": "CQET", "qubits": [0, 2]},
               {"op": "PHASE", "qubits": [2], "theta": 0.5, "phi": 1.5},
               {"op": "MEASURE", "qubits": [2]},
               {"op": "MEASURE", "qubits": [0]},
               {"op": "QET", "qubits": [0], "theta": 0.75},
               {"op": "CQET", "qubits": [2, 0]},
               {"op": "MEASURE", "qubits": [0]},
               {"op": "MEASURE", "qubits": [2]}]
LOWERED = """QPU s=4
INIT m0 0
LOAD m0 c1
INIT m1 1
LOAD m1 c2
QET 0.25 t0
SAVE c1 m0
SAVE c2 m1
INIT m2 0
LOAD m2 c0
LOAD m0 c1
LOAD m1 c2
CQET t0
SAVE c0 m2
SAVE c1 m0
SAVE c2 m1
LOAD m0 c1
LOAD m1 c2
PHASE 0.5 1.5 t0
SAVE c1 m0
SAVE c2 m1
MEASURE m0
MEASURE m1
MEASURE m2
INIT m3 1
MEASURE m3
INIT m2 0
LOAD m2 c1
INIT m3 1
LOAD m3 c2
QET 0.75 t0
SAVE c1 m2
SAVE c2 m3
INIT m0 0
LOAD m0 c0
LOAD m2 c1
LOAD m3 c2
CQET t0
SAVE c0 m0
SAVE c1 m2
SAVE c2 m3
MEASURE m2
MEASURE m3
MEASURE m0
INIT m1 1
MEASURE m1
"""


def test_transform_lowers_onto_slots_with_inits_where_they_were():
    segment = _segment("a", LOWERED_OPS)
    assert format_program(_concretize(segment, 0)) == LOWERED
    assert segment.slots == {(2, 0): 0, (2, 1): 1, (0, 0): 2, (0, 1): 3}
    assert segment.measured == [2, 0, 0, 2]
    # capacity counts the commands the client asked for, not the INITs
    assert segment.command_count == LOWERED.count("\n") - 1 - LOWERED.count("INIT")


_ANGLES = st.sampled_from([0.3, -1.1, 2.0, math.pi, -math.pi / 2, 2 * math.pi])
_QUBIT_PAIR = st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True)
_CLIENT_OP = st.one_of(
    st.builds(lambda kind, q, t: {"op": kind, "qubits": [q], "theta": t},
              st.sampled_from(["QET", "RX", "RZ"]), st.integers(0, 3), _ANGLES),
    st.builds(lambda q, t: {"op": "PHASE", "qubits": [q], "theta": t,
                            "phi": 0.7},
              st.integers(0, 3), _ANGLES),
    st.builds(lambda kind, qs: {"op": kind, "qubits": qs},
              st.sampled_from(["CQET", "CNOT"]), _QUBIT_PAIR),
    st.builds(lambda q: {"op": "MEASURE", "qubits": [q]}, st.integers(0, 3)))
_CLIENT_ID = st.text("abxyz", min_size=1, max_size=4)


@settings(max_examples=50)
@given(st.lists(st.tuples(_CLIENT_ID, st.lists(_CLIENT_OP, max_size=6)),
                max_size=4), _CLIENT_ID)
def test_transform_depends_on_the_ops_alone(earlier, client):
    reference = _segment("a", LOWERED_OPS)
    service = QpfService(seed=0)
    for request_id, (name, raw) in enumerate(earlier):
        raw = raw + [{"op": "MEASURE", "qubits": [0]}]
        assert service.submit_request(name, raw)["type"] == "result"
        _segment(name, raw, request_id)
    segment = _segment(client, LOWERED_OPS, request_id=len(earlier))
    assert segment.instructions == reference.instructions
    assert segment.slots == reference.slots
    assert segment.measured == reference.measured


# -- buffering ---------------------------------------------------------------


def _stub_segment(name, commands):
    return Segment(name, 0, [Instruction.measure(0)] * commands, {}, [])


def test_batch_takes_whole_segments_up_to_capacity():
    queue = deque(_stub_segment(str(k), 30) for k in range(3))
    batch = buffer_and_batch(queue, 100)
    assert len(batch.segments) == 3
    assert not queue


def test_batch_never_splits_a_segment():
    queue = deque([_stub_segment("a", 30), _stub_segment("b", 30)])
    batch = buffer_and_batch(queue, 50)
    assert [seg.client_id for seg in batch.segments] == ["a"]
    assert len(queue) == 1


def test_batch_empty_queue():
    assert buffer_and_batch(deque(), 10).segments == []


# -- dispatch ----------------------------------------------------------------


def test_dispatch_inserts_init_before_first_use():
    segment = _segment("alice", [{"op": "QET", "qubits": [0], "theta": 1.0},
                                 {"op": "MEASURE", "qubits": [0]}])
    program = _concretize(segment, 0)
    run(fresh_machine(program.s), program.instructions, RandomSource(0))
    trace = program.instructions
    # every slot is initialized before its first non-INIT use
    first_use = {}
    first_init = {}
    for position, instr in enumerate(trace):
        slot = instr.memory_addr
        if slot is None:
            continue
        if instr.opcode == "INIT":
            first_init.setdefault(slot, position)
        else:
            first_use.setdefault(slot, position)
    assert set(first_use) == set(first_init)
    assert all(first_init[slot] < first_use[slot] for slot in first_use)
    init_bits = [instr.init_value for instr in trace if instr.opcode == "INIT"]
    assert sorted(init_bits) == [0, 1]


def test_dispatch_reuses_slots_across_segments():
    seg_a = _segment("alice", [{"op": "MEASURE", "qubits": [0]}])
    seg_b = _segment("bob", [{"op": "MEASURE", "qubits": [0]}], request_id=1)
    outcomes = dispatch(ExecutionBatch([seg_a, seg_b]), EmulatorBackend(seed=0))
    # each segment runs on a fresh machine, so both use slots 0 and 1
    for _, records, _ in outcomes:
        assert sorted(slot for slot, _ in records) == [0, 1]
    assert demux_results(outcomes) == {
        key: {"type": "result", "results": [{"qubit": 0, "bit": 0}]}
        for key in (("alice", 0), ("bob", 1))}


def test_dispatch_isolates_failing_segment():
    seg_a = _segment("alice", [{"op": "MEASURE", "qubits": [0]}])
    seg_c = _segment("carol", [{"op": "MEASURE", "qubits": [0]}], request_id=2)
    broken = Segment("bob", 1, [Instruction.qet(1.0),
                                Instruction.measure(0)], {0: 0}, [0])
    outcomes = dispatch(ExecutionBatch([seg_a, broken, seg_c]),
                        EmulatorBackend(seed=0))
    assert [error is not None for _, _, error in outcomes] == [
        False, True, False]
    responses = demux_results(outcomes)
    assert responses[("alice", 0)]["type"] == "result"
    assert responses[("bob", 1)]["type"] == "error"
    assert responses[("carol", 2)]["type"] == "result"


# -- demultiplexing ----------------------------------------------------------


def _outcome(records):
    return [(Segment("alice", 0, [], {}, [4]), records, None)]


def _outcome_with_bits(first_bit, second_bit):
    return _outcome([(10, first_bit), (11, second_bit)])


def test_demux_first_bit_rule():
    assert demux_results(_outcome_with_bits(0, 1))[("alice", 0)] == {
        "type": "result", "results": [{"qubit": 4, "bit": 0}]}
    assert demux_results(_outcome_with_bits(1, 0))[("alice", 0)] == {
        "type": "result", "results": [{"qubit": 4, "bit": 1}]}


def test_demux_equal_bits_is_leakage_error():
    response = demux_results(_outcome_with_bits(1, 1))[("alice", 0)]
    assert response["type"] == "error"
    assert "leakage" in response["errors"][0]["message"]


@pytest.mark.parametrize("records, count", [
    ([(10, 1)], 1),
    ([(10, 1), (11, 0), (12, 0)], 3),
], ids=["too-few", "too-many"])
def test_demux_record_count_mismatch_is_one_error(records, count):
    assert demux_results(_outcome(records))[("alice", 0)] == {
        "type": "error", "errors": [
            {"index": -1, "message": f"backend returned {count} measurement "
                                     "record(s) for 2 measured slot(s)"}]}


# -- full service ------------------------------------------------------------


def test_service_measure_only_round_trip():
    service = QpfService(seed=0)
    response = service.submit_request("alice", [{"op": "MEASURE",
                                                 "qubits": [0]}])
    assert response == {"type": "result", "results": [{"qubit": 0, "bit": 0}]}


def test_remeasured_qubit_reads_each_measure():
    service = QpfService(seed=0)
    response = service.submit_request("alice", [
        {"op": "QET", "qubits": [0], "theta": math.pi},
        {"op": "MEASURE", "qubits": [0]},
        {"op": "MEASURE", "qubits": [0]}])
    # the second MEASURE reads the qubit reset to 0 by its reuse
    assert response == {"type": "result", "results": [{"qubit": 0, "bit": 1},
                                                      {"qubit": 0, "bit": 0}]}


def _model_reply(raw):
    """The reply to a request whose every outcome has probability 0 or 1.

    Each qubit starts at logical 0 and is back at 0 at its first use after
    a MEASURE.  ``QET`` at an odd multiple of pi flips its bit, ``PHASE``
    never does, ``CQET`` flips the target when the control reads 0, and
    ``MEASURE`` reports the current bit.
    """
    bits = {}
    results = []
    for op in raw:
        q = op["qubits"][0]
        if op["op"] == "QET" and round(op["theta"] / math.pi) % 2:
            bits[q] = 1 - bits.get(q, 0)
        elif op["op"] == "CQET" and not bits.get(q, 0):
            target = op["qubits"][1]
            bits[target] = 1 - bits.get(target, 0)
        elif op["op"] == "MEASURE":
            results.append({"qubit": q, "bit": bits.pop(q, 0)})
    return {"type": "result", "results": results}


_EXACT_OP = st.one_of(
    st.builds(lambda q, k: {"op": "QET", "qubits": [q], "theta": k * math.pi},
              st.integers(0, 3), st.integers(-3, 3)),
    st.builds(lambda q, t, p: {"op": "PHASE", "qubits": [q], "theta": t,
                               "phi": p},
              st.integers(0, 3), st.floats(-10, 10), st.floats(-10, 10)),
    st.builds(lambda qs: {"op": "CQET", "qubits": qs},
              st.lists(st.integers(0, 3), min_size=2, max_size=2,
                       unique=True)),
    st.builds(lambda q: {"op": "MEASURE", "qubits": [q]}, st.integers(0, 3)))


@settings(max_examples=200)
@given(st.lists(_EXACT_OP, max_size=12), st.integers(0, 2 ** 32))
def test_exact_request_reply_matches_its_bit_model(raw, seed):
    raw = raw + [{"op": "MEASURE", "qubits": [0]}]
    reply = QpfService(seed=seed).submit_request("a", raw)
    assert reply == _model_reply(raw)


def test_service_bell_correlations():
    service = QpfService(seed=11, capacity=4096)
    equal = 0
    shots = 2000
    for _ in range(shots):
        response = service.submit_request("bob", BELL_OPS)
        assert response["type"] == "result"
        bits = {entry["qubit"]: entry["bit"] for entry in response["results"]}
        equal += bits[0] == bits[1]
    assert equal / shots >= 0.98


def test_service_results_per_client_under_concurrency():
    service = QpfService(seed=5)
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
        for _ in range(5):
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


def test_service_deterministic_for_fixed_arrival_order():
    def transcript():
        service = QpfService(seed=1234)
        lines = []
        lines.append(encode_message(service.submit_request("a", BELL_OPS)))
        lines.append(encode_message(service.submit_request(
            "b", [{"op": "MEASURE", "qubits": [0]}])))
        lines.append(encode_message(service.submit_request("a", BELL_OPS)))
        return "\n".join(lines)

    assert transcript() == transcript()


def test_service_rejects_oversized_request():
    service = QpfService(seed=0, capacity=5)
    response = service.submit_request("a", BELL_OPS)
    assert response["type"] == "error"
    assert "capacity" in response["errors"][0]["message"]
    assert service._next_request == 0
    assert service._pending == {} and not service._queue


def test_service_keeps_nothing_per_request():
    # every request lowers onto its own slots, so once the shared slot
    # instructions are built, new clients and qubits leave nothing behind
    service = QpfService(seed=0)
    wide = ([{"op": "QET", "qubits": [q], "theta": math.pi} for q in range(8)]
            + [{"op": "MEASURE", "qubits": [q]} for q in range(8)])

    def serve(clients):
        for k in clients:
            assert service.submit_request(f"client-{k}", wide)["type"] == "result"

    serve(range(50))
    requests = 300
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        serve(range(50, 50 + requests))
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # global address tables kept about 2 KB per request of this shape; what
    # is left is numpy's bounded cache of small array buffers filling up
    assert kept < 200 * requests


def test_compiler_and_service_share_slot_instructions():
    # both lowerings take INIT, LOAD, SAVE, MEASURE and CQET from one cache
    program = transform_program(parse_logical_program(
        "LQ n=2\nRX 0.5 q0\nCNOT q0 q1\nMEASURE q0\n"))
    segment = transform(analyze(_ops([
        {"op": "QET", "qubits": [0], "theta": -0.5},
        {"op": "CQET", "qubits": [0, 1]},
        {"op": "MEASURE", "qubits": [0]}])), "a")
    emitted = {instr: instr for instr in program.instructions}
    shared = [instr for instr in segment.instructions
              if instr in emitted and instr.theta is None]
    assert {instr.opcode for instr in shared} == {
        "INIT", "LOAD", "SAVE", "MEASURE", "CQET"}
    assert all(emitted[instr] is instr for instr in shared)
    assert Instruction.qet(-0.5) is not Instruction.qet(-0.5)  # angles are not


@pytest.mark.parametrize("build", [
    lambda: Instruction.load(0, 3),
    lambda: Instruction.save(5, 0),
    lambda: Instruction.init(0, 2),
    lambda: Instruction.measure(-1),
    lambda: Instruction.cqet(-1),
    lambda: Instruction.measure(0).on_slot(-2),
], ids=["cell", "save-cell", "bit", "slot", "transistor", "on-slot"])
def test_refused_slot_operand_raises_on_every_call(build):
    for _ in range(3):
        with pytest.raises(ValueError):
            build()


def test_shared_slot_instructions_keep_operand_types_apart():
    assert format_instruction(Instruction.init(0, 1)) == "INIT m0 1"
    # True equals 1, but the shared cache must not hand INIT m0 1 back for it
    with pytest.raises(ValueError, match="got True"):
        Instruction.init(0, True)


def test_support_exponent_counts_only_splitting_transfers():
    ops = _ops([{"op": "QET", "qubits": [0], "theta": math.pi},
                {"op": "QET", "qubits": [0], "theta": -4 * math.pi},
                {"op": "PHASE", "qubits": [0], "theta": 0.3, "phi": 0.1},
                {"op": "CQET", "qubits": [0, 1]},
                {"op": "QET", "qubits": [1], "theta": 0.3},
                {"op": "QET", "qubits": [1], "theta": 5 * math.pi},
                {"op": "MEASURE", "qubits": [0]}])
    assert support_exponent(ops) == 2
    # never more than one bit per qubit: each pair holds one excitation
    assert support_exponent(ops * 10) == 2
    # an RX is a QET of the negated angle; a CNOT's transfers are exact
    assert support_exponent(_ops([
        {"op": "RX", "qubits": [0], "theta": 0.3},
        {"op": "RX", "qubits": [1], "theta": -math.pi},
        {"op": "CNOT", "qubits": [1, 2]},
        {"op": "MEASURE", "qubits": [0]}])) == 1


@settings(max_examples=200)
@given(st.lists(_CLIENT_OP, min_size=1, max_size=12), st.integers(0, 2 ** 32))
def test_machine_support_stays_within_the_bound(raw, seed):
    ops = analyze(_ops(raw + [{"op": "MEASURE", "qubits": [0]}]))
    segment = transform(ops, "a")
    # the count the service checks against its capacity before lowering
    assert sum(len(TEMPLATES[op.kind]) for op in ops) == segment.command_count
    program = _concretize(segment, 0)
    bound = 2 ** support_exponent(ops)
    for _, machine, _ in steps(fresh_machine(program.s), program.instructions,
                               RandomSource(seed)):
        assert len(machine.indices) <= bound


def test_support_budget_rejects_before_anything_is_committed():
    rng = random.Random(5)
    angles = [rng.uniform(0.1, 3.0) for _ in range(21)]

    def request(width):
        return ([{"op": "QET", "qubits": [k % width], "theta": theta}
                 for k, theta in enumerate(angles)]
                + [{"op": "MEASURE", "qubits": [q]} for q in range(width)])

    service = QpfService(seed=0)
    assert service.submit_request("a", request(21)) == {
        "type": "error", "errors": [
            {"index": 0, "message": "request may hold 2^21 register entries; "
                                    f"support budget is {SUPPORT_BUDGET}"}]}
    assert SUPPORT_BUDGET == 2 ** 20
    assert service._next_request == 0
    # on 10 qubits the same transfers reach at most 2^10 entries
    assert service.submit_request("a", request(10))["type"] == "result"
    assert service._next_request == 1


class _RaisingBackend(EmulatorBackend):
    """A backend whose run fails with an error outside the emulator's own."""

    def run(self, program):
        raise RuntimeError("backend fell over")


class _RunOnlyBackend:
    """All a backend needs: ``run``."""

    def __init__(self):
        self.runs = 0
        self._emulator = EmulatorBackend(seed=0)

    def run(self, program):
        self.runs += 1
        return self._emulator.run(program)


def test_service_capacity_is_its_own_with_any_backend():
    backend = _RunOnlyBackend()
    service = QpfService(capacity=64, backend=backend)
    assert service.handle_message({"type": "capacity"}) == {
        "type": "capacity", "capacity": 64}
    # a QET lowers to 5 commands and a MEASURE to 2; INITs are free
    qet = {"op": "QET", "qubits": [0], "theta": math.pi}
    measures = [{"op": "MEASURE", "qubits": [q]} for q in range(5)]
    assert service.submit_request("a", [qet] * 12 + measures[:2])["type"] == (
        "result")
    assert service.submit_request("a", [qet] * 11 + measures) == {
        "type": "error", "errors": [
            {"index": 0, "message": "request needs 65 commands; "
                                    "controller capacity is 64"}]}
    assert service._next_request == 1 and backend.runs == 1


def test_over_capacity_request_is_refused_before_it_is_lowered(monkeypatch):
    def transform_must_not_run(*args):
        raise AssertionError("an over-capacity request was lowered")

    monkeypatch.setattr("qetsim.service.transform", transform_must_not_run)
    service = QpfService(seed=0, capacity=64)
    # a CQET lowers to 7 commands and a MEASURE to 2
    ops = ([{"op": "CQET", "qubits": [0, 1]}] * 9
           + [{"op": "MEASURE", "qubits": [q]} for q in range(3)])
    assert service.submit_request("a", ops) == {
        "type": "error", "errors": [
            {"index": 0, "message": "request needs 69 commands; "
                                    "controller capacity is 64"}]}
    assert service._next_request == 0
    assert service._pending == {} and not service._queue


def test_request_longer_than_capacity_is_refused_before_it_is_decoded(
        monkeypatch):
    def parse_must_not_run(*args):
        raise AssertionError("an over-capacity request was decoded")

    service = QpfService(seed=0, capacity=64)
    # every op lowers to at least a MEASURE's 2 commands: 32 ops can fit
    ops = [{"op": "MEASURE", "qubits": [0]}] * 33
    assert service.submit_request("a", ops[:32])["type"] == "result"
    monkeypatch.setattr("qetsim.service.parse_client_ops", parse_must_not_run)
    service = QpfService(seed=0, capacity=64)
    assert service.submit_request("a", ops) == {
        "type": "error", "errors": [
            {"index": 0, "message": "request needs at least 66 commands; "
                                    "controller capacity is 64"}]}
    assert service._next_request == 0
    assert service._pending == {} and not service._queue


def test_backend_crash_is_error_reply_and_leaves_nothing_pending():
    service = QpfService(backend=_RaisingBackend())
    reply = json.loads(service.handle_line(
        '{"type":"submit","client":"a","ops":[{"op":"MEASURE","qubits":[0]}]}'))
    assert reply["type"] == "error"
    assert "backend fell over" in reply["errors"][0]["message"]
    assert service._pending == {}
    # every other segment of a failing batch is answered, not left waiting
    segments = [_segment(client, [{"op": "MEASURE", "qubits": [0]}], request_id)
                for request_id, client in enumerate(("a", "b"))]
    outcomes = dispatch(ExecutionBatch(segments), _RaisingBackend())
    assert [error is not None for _, _, error in outcomes] == [True, True]


def test_capacity_query_and_malformed_line():
    service = QpfService(seed=0, capacity=77)
    assert json.loads(service.handle_line('{"type":"capacity"}')) == {
        "type": "capacity", "capacity": 77}
    for line in ("{nope", "[" * 100_000):
        bad = json.loads(service.handle_line(line))
        assert bad["type"] == "error"
        assert bad["errors"][0]["message"].startswith("malformed message")
    # the service stays usable afterwards
    ok = json.loads(service.handle_line(
        '{"type":"submit","client":"a","ops":[{"op":"MEASURE","qubits":[0]}]}'))
    assert ok["type"] == "result"


@pytest.mark.parametrize("op, message", [
    ('{"op":"QET","qubits":[0],"theta":NaN}', "theta must be finite"),
    ('{"op":"QET","qubits":[0],"theta":Infinity}', "theta must be finite"),
    ('{"op":"QET","qubits":[0],"theta":-1e999}', "theta must be finite"),
    ('{"op":"QET","qubits":[0],"theta":1%s}' % ("0" * 400),
     "theta must be finite"),
    ('{"op":"PHASE","qubits":[0],"theta":1.0,"phi":NaN}', "phi must be finite"),
], ids=["nan", "infinity", "float-overflow", "int-overflow", "phi-nan"])
def test_non_finite_angle_rejected_before_anything_is_committed(op, message):
    service = QpfService(seed=0)
    reply = json.loads(service.handle_line(
        '{"type":"submit","client":"a","ops":[%s,'
        '{"op":"MEASURE","qubits":[0]}]}' % op))
    assert reply == {"type": "error",
                     "errors": [{"index": 0, "message": message}]}
    assert service._next_request == 0


_MEASURE = '{"op":"MEASURE","qubits":[0]}'


def _submit_line(op, client="a"):
    return ('{"type":"submit","client":"%s","ops":[%s,%s]}'
            % (client, op, _MEASURE))


def _error_line(index, message):
    return ('{"errors":[{"index":%d,"message":"%s"}],"type":"error"}'
            % (index, message))


@pytest.mark.parametrize("line, reply", [
    ("[1]", _error_line(-1, "malformed message: message must be an object")),
    (_submit_line(_MEASURE, client=""),
     _error_line(-1, "submit needs a client id")),
    (_submit_line("1"), _error_line(0, "operation must be an object")),
    (_submit_line('{"op":["QET"],"qubits":[0]}'),
     _error_line(0, "unknown operation ['QET']")),
    (_submit_line('{"op":"QET","qubits":[0],"theta":"1"}'),
     _error_line(0, "theta must be a number")),
    (_submit_line('{"op":"CQET","qubits":[0]}'),
     _error_line(0, "CQET takes 2 qubit(s), got 1")),
    (_submit_line('{"op":"CQET","qubits":[1,1]}'),
     _error_line(0, "CQET control and target must differ")),
    (_submit_line('{"op":"QET","qubits":[0],"theta":1.0,"phi":0.5}'),
     _error_line(0, "QET takes no phi parameter")),
], ids=["not-an-object", "empty-client", "op-not-object", "unhashable-kind",
        "string-theta", "cqet-one-qubit", "cqet-same-qubit", "qet-with-phi"])
def test_rejection_reply_commits_nothing(line, reply):
    service = QpfService(seed=0)
    assert service.handle_line(line) == reply
    assert service._next_request == 0
    # the service still serves a valid request afterwards
    ok = json.loads(service.handle_line(_submit_line(_MEASURE)))
    assert ok == {"type": "result", "results": [{"qubit": 0, "bit": 0},
                                                {"qubit": 0, "bit": 0}]}
    assert service._next_request == 1


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 70) | st.floats()
    | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12)
_SUBMIT_KEYS = ("type", "client", "ops", "op", "qubits", "theta", "phi")


@st.composite
def _mutated_submit(draw):
    """A valid submit message with some keys dropped or set to any JSON."""
    ops = draw(st.lists(_CLIENT_OP, max_size=3)) + [json.loads(_MEASURE)]
    message = {"type": "submit", "client": draw(_CLIENT_ID), "ops": ops}
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.sampled_from([message, *ops]))
        key = draw(st.sampled_from(_SUBMIT_KEYS))
        if draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = draw(_JSON)
    return message


@settings(max_examples=100)
@given(st.lists(_JSON | _mutated_submit() | st.just({"type": "capacity"}),
                min_size=1, max_size=6))
def test_any_message_gets_one_reply_and_leaves_nothing_behind(messages):
    # the service neither dies, hangs nor keeps state on any client message
    service = QpfService(seed=0)
    for message in messages:
        reply = service.handle_line(json.dumps(message))
        assert "\n" not in reply
        assert json.loads(reply)["type"] in ("result", "error", "capacity")
        assert service._pending == {} and not service._queue
    probe = {"type": "submit", "client": "probe", "ops": [
        {"op": "QET", "qubits": [0], "theta": math.pi},
        {"op": "MEASURE", "qubits": [0]}]}
    assert json.loads(service.handle_line(json.dumps(probe))) == {
        "type": "result", "results": [{"qubit": 0, "bit": 1}]}


_NON_ASCII = st.text(st.characters(min_codepoint=0x80), min_size=1, max_size=4)


@settings(max_examples=100)
@given(st.dictionaries(
    st.text(max_size=4) | _NON_ASCII,
    st.recursive(
        st.integers() | st.floats() | st.sampled_from([math.nan, math.inf,
                                                       -math.inf])
        | st.text(max_size=6) | _NON_ASCII,
        lambda inner: (st.lists(inner, max_size=4)
                       | st.dictionaries(st.text(max_size=4) | _NON_ASCII,
                                         inner, max_size=4)),
        max_leaves=16)))
def test_encode_message_is_the_canonical_dumps(obj):
    # the shared encoder writes what json.dumps with the same options writes
    assert encode_message(obj) == json.dumps(obj, sort_keys=True,
                                             separators=(",", ":"))


def test_register_wider_than_index_is_error_reply():
    # 31 logical qubits are 62 memory slots plus 3 cells: 65 positions
    service = QpfService(seed=0)
    wide = [{"op": "MEASURE", "qubits": [q]} for q in range(31)]
    reply = service.submit_request("a", wide)
    assert reply["type"] == "error"
    assert "65 positions" in reply["errors"][0]["message"]
    # 30 logical qubits fill all 63 positions an index holds
    widest = [{"op": "MEASURE", "qubits": [q]} for q in range(30)]
    assert service.submit_request("b", widest) == {
        "type": "result", "results": [{"qubit": q, "bit": 0} for q in range(30)]}


def test_serve_stdio_round_trip():
    import io
    service = QpfService(seed=0)
    stdin = io.BytesIO(
        b'{"type":"capacity"}\n'
        b'{"type":"submit","client":"a","ops":[{"op":"MEASURE","qubits":[0]}]}\n')
    stdout = io.StringIO()
    serve_stdio(service, stdin, stdout)
    lines = stdout.getvalue().strip().splitlines()
    assert json.loads(lines[0])["type"] == "capacity"
    assert json.loads(lines[1]) == {"type": "result",
                                    "results": [{"qubit": 0, "bit": 0}]}


def test_serve_stdio_refuses_over_long_line_and_serves_on():
    import io
    submit = (b'{"type":"submit","client":"a",'
              b'"ops":[{"op":"MEASURE","qubits":[0]}]}\n')
    stdin = io.BytesIO(b"x" * (2 << 20) + b"\n" + submit
                       + b"y" * MAX_LINE_BYTES + b"\n")
    stdout = io.StringIO()
    serve_stdio(QpfService(seed=0), stdin, stdout)
    refused, answered, at_limit = map(json.loads, stdout.getvalue().splitlines())
    assert refused["errors"][0]["message"] == (
        f"malformed message: line longer than {MAX_LINE_BYTES} bytes")
    assert answered == {"type": "result", "results": [{"qubit": 0, "bit": 0}]}
    # a line of exactly the limit is read and decoded, not refused
    assert at_limit["errors"][0]["message"].startswith("malformed message: "
                                                       "Expecting value")
